"""Figure 2: misprediction curve as the 2-level predictor learns.

Paper result: a random 10-bit outcome pattern starts at ~5/10
mispredictions, decays as gshare accumulates history, and reaches ~100%
accuracy after roughly 5-7 repetitions; Skylake learns slightly faster
than the older part.
"""


from conftest import emit, scaled
from repro.analysis import curve, format_table
from repro.bpu import sandy_bridge, skylake
from repro.core.selection import selector_learning_experiment
from repro.cpu import PhysicalCore

# The paper's Figure 2 compares the i5-6200U against the i7-2600.
PRESETS = {"i5-6200U (Skylake)": skylake, "i7-2600 (Sandy Bridge)": sandy_bridge}


def run_experiment():
    results = {}
    for label, preset in PRESETS.items():
        results[label] = selector_learning_experiment(
            lambda: PhysicalCore(preset(), seed=2),
            pattern_bits=10,
            iterations=20,
            runs=scaled(60),
        )
    return results


def test_fig2_selector_learning(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    for iteration in range(20):
        rows.append(
            [iteration + 1]
            + [f"{results[l].mispredictions[iteration]:.2f}" for l in PRESETS]
        )
    emit(
        "fig2_selector_learning",
        format_table(
            ["iteration"] + list(PRESETS),
            rows,
            title=(
                "Figure 2 — avg mispredictions per iteration of a random "
                "10-branch pattern (paper: starts ~5, ~0 by iteration 5-7)"
            ),
        ),
    )

    sky_label = next(iter(PRESETS))
    emit(
        "fig2_learning_curve_plot",
        curve(
            [
                (i + 1, float(results[sky_label].mispredictions[i]))
                for i in range(20)
            ],
            height=10,
            title=f"Figure 2 rendered — {sky_label}",
            y_label="avg mispredictions per 10-branch iteration",
        ),
    )

    for label, result in results.items():
        # Iteration 1: an untrained predictor gets ~half of 10 wrong.
        assert 3.5 <= result.mispredictions[0] <= 6.5, label
        # Converges to ~100% accuracy within the paper's 5-7 band.
        converged = result.converged_by(threshold=0.5)
        assert converged is not None and converged <= 8, label
        # And stays converged.
        assert result.mispredictions[10:].max() < 0.5, label
