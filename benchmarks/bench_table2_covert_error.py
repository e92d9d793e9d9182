"""Table 2: covert-channel error rates across CPUs and noise settings.

Paper result (1M bits per cell, 10 trials):

                     all-0    all-1    random
    SL  isolated     0.46%    0.51%    0.63%
    SL  with noise   0.64%    0.63%    0.74%
    HW  isolated     0.16%    0.27%    0.46%
    HW  with noise   0.37%    0.29%    0.67%
    SB  isolated     0.68%    1.76%    2.44%
    SB  with noise   1.76%    4.88%    3.38%

Reproduction targets are the *shape*: error rates around or below 1% on
Skylake/Haswell, several-fold worse on Sandy Bridge (smaller predictor
tables), and noise hurting but not breaking the channel.  Bit counts are
scaled down (see DESIGN.md); REPRO_BENCH_SCALE raises them.
"""

import numpy as np

from conftest import emit, scaled
from repro.analysis import binomial_confidence_interval, format_table
from repro.bpu import haswell, sandy_bridge, skylake
from repro.core.covert import CovertChannel, CovertConfig
from repro.cpu import PhysicalCore, Process
from repro.system.scheduler import NoiseSetting

PRESETS = [
    ("SL", skylake),
    ("Haswell", haswell),
    ("SB", sandy_bridge),
]
SETTINGS = [
    ("isolated", NoiseSetting.ISOLATED),
    ("with noise", NoiseSetting.NOISY),
]
PAYLOADS = ["all 0", "all 1", "random"]

N_BITS = scaled(2500)
N_TRIALS = scaled(2)


def payload_bits(kind: str, rng) -> list:
    if kind == "all 0":
        return [0] * N_BITS
    if kind == "all 1":
        return [1] * N_BITS
    return rng.integers(0, 2, N_BITS).tolist()


def run_experiment(checkpoint_factory=None):
    results = {}
    rates = {}
    for cpu_label, preset in PRESETS:
        for setting_label, setting in SETTINGS:
            # One checkpointed sweep per cell: a killed run resumes at
            # the first cell (and message) without a checkpoint.
            ckpt = {}
            if checkpoint_factory is not None:
                name = f"table2_{cpu_label}_{setting_label}".replace(" ", "_")
                ckpt = checkpoint_factory(name)
            core = PhysicalCore(preset(), seed=20)
            channel = CovertChannel.for_processes(
                core,
                Process("victim"),
                Process("spy"),
                setting=setting,
                config=CovertConfig(),
            )
            rng = np.random.default_rng(21)
            # Message trials are independent: one trial_sweep per cell,
            # each message on its own seeded stream.
            trials = [
                (payload, payload_bits(payload, rng))
                for payload in PAYLOADS
                for _ in range(N_TRIALS)
            ]
            sweep = channel.trial_sweep(
                [bits for _, bits in trials], seed=22, **ckpt
            )
            cell_errors = cell_total = 0
            cell_cycles = sum(channel.last_sweep_cycles)
            for (payload, bits), received in zip(trials, sweep):
                errors, total = results.get(
                    (cpu_label, setting_label, payload), (0, 0)
                )
                errors += sum(1 for a, b in zip(bits, received) if a != b)
                total += len(bits)
                results[(cpu_label, setting_label, payload)] = (errors, total)
            for payload in PAYLOADS:
                errors, total = results[(cpu_label, setting_label, payload)]
                cell_errors += errors
                cell_total += total
            rates[(cpu_label, setting_label)] = (
                cell_errors / cell_total,
                cell_cycles / cell_total,
            )
    return results, rates


PAPER = {
    ("SL", "isolated"): (0.46, 0.51, 0.63),
    ("SL", "with noise"): (0.64, 0.63, 0.74),
    ("Haswell", "isolated"): (0.16, 0.27, 0.46),
    ("Haswell", "with noise"): (0.37, 0.29, 0.67),
    ("SB", "isolated"): (0.68, 1.76, 2.44),
    ("SB", "with noise"): (1.76, 4.88, 3.38),
}


def test_table2_covert_error_rates(benchmark, campaign_checkpoint):
    results, rates = benchmark.pedantic(
        run_experiment,
        kwargs={"checkpoint_factory": campaign_checkpoint},
        rounds=1,
        iterations=1,
    )

    rows = []
    for cpu_label, _ in PRESETS:
        for setting_label, _ in SETTINGS:
            paper = PAPER[(cpu_label, setting_label)]
            row = [f"{cpu_label} {setting_label}"]
            for payload, paper_value in zip(PAYLOADS, paper):
                errors, total = results[(cpu_label, setting_label, payload)]
                low, high = binomial_confidence_interval(errors, total)
                row.append(
                    f"{errors / total:.2%} [{low:.2%},{high:.2%}] "
                    f"(paper {paper_value:.2f}%)"
                )
            rows.append(row)
    emit(
        "table2_covert_error_rates",
        format_table(
            ["setting", *PAYLOADS],
            rows,
            title=(
                f"Table 2 — covert channel error rate ({N_BITS} bits x "
                f"{N_TRIALS} trials per cell; paper used 1M bits x 10)"
            ),
        ),
    )

    from repro.analysis import ChannelEstimate

    emit(
        "table2_channel_rates",
        format_table(
            ["setting", "cycles/bit", "raw bit/s @2GHz", "corrected bit/s"],
            [
                [
                    f"{cpu} {setting}",
                    f"{cycles:,.0f}",
                    f"{ChannelEstimate(err, cycles).raw_bits_per_second:,.0f}",
                    f"{ChannelEstimate(err, cycles).corrected_bits_per_second:,.0f}",
                ]
                for (cpu, setting), (err, cycles) in rates.items()
            ],
            title=(
                "Table 2 extension — channel throughput implied by the "
                "simulated cycle costs (BSC-corrected)"
            ),
        ),
    )

    def rate(cpu, setting, payload):
        errors, total = results[(cpu, setting, payload)]
        return errors / total

    # Shape assertions.
    for setting_label, _ in SETTINGS:
        for payload in PAYLOADS:
            # Modern parts beat Sandy Bridge (bigger predictor tables).
            best_modern = min(
                rate("SL", setting_label, payload),
                rate("Haswell", setting_label, payload),
            )
            assert best_modern <= rate("SB", setting_label, payload) + 0.005
    # Skylake/Haswell stay in the ~1% regime even with noise.
    for cpu in ("SL", "Haswell"):
        for payload in PAYLOADS:
            assert rate(cpu, "isolated", payload) < 0.02
            assert rate(cpu, "with noise", payload) < 0.04
    # Noise never helps (within CI slack).
    for cpu_label, _ in PRESETS:
        mean_iso = np.mean([rate(cpu_label, "isolated", p) for p in PAYLOADS])
        mean_noisy = np.mean(
            [rate(cpu_label, "with noise", p) for p in PAYLOADS]
        )
        assert mean_noisy >= mean_iso - 0.005
