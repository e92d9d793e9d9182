"""Figure 4: stability and state distribution of randomisation blocks.

Paper result (a): ~83% of randomly generated blocks leave the target PHT
entry with stable dominant probe patterns (>= 85% dominance for both the
TT and NN probe variants); (b) stable signatures decode into the four
FSM states plus rare ``dirty``, the rest are ``unknown``.

Scaled down from the paper's 10 000 blocks x 1000 probes (see DESIGN.md
fidelity notes); REPRO_BENCH_SCALE raises the counts —
``REPRO_BENCH_SCALE=208`` reaches the paper's full 10,000 x 1,000 run
(probes cap at the paper's 1,000).  The sweep runs on
``stability_experiment``'s default manycore engine (the struct-of-arrays
engine of ``repro.core.manycore``), which assesses the whole campaign as
stacked array operations in one process.

Progress checkpoints to ``benchmarks/.checkpoints/fig4_stability.ckpt``;
a killed run re-invoked with ``pytest benchmarks/ --resume`` continues
where it stopped with a bit-identical assessment list (see
MODELING.md §10).
"""

from collections import Counter

from conftest import emit, scaled
from repro.analysis import format_table, scatter
from repro.bpu import skylake
from repro.core.calibration import stability_experiment
from repro.core.patterns import DecodedState
from repro.cpu import PhysicalCore
from repro.system.noise import NoiseModel

TARGET = 0x30_0006D

N_BLOCKS = scaled(48)
#: Probes per block; the paper measured 1,000, so scaling stops there.
N_PROBES = min(scaled(40), 1000)


def run_experiment(checkpoint=None, resume=True):
    return stability_experiment(
        lambda: PhysicalCore(skylake(), seed=6),
        TARGET,
        n_blocks=N_BLOCKS,
        block_branches=100_000,
        repetitions=N_PROBES,
        noise=NoiseModel.isolated(),
        checkpoint=checkpoint,
        resume=resume,
        fingerprint_extra={"preset": "skylake", "core_seed": 6},
    )


def test_fig4_stability(benchmark, campaign_checkpoint):
    assessments = benchmark.pedantic(
        run_experiment,
        kwargs=campaign_checkpoint("fig4_stability"),
        rounds=1,
        iterations=1,
    )
    fsm = skylake().fsm

    stable = [a for a in assessments if a.stable]
    stable_share = len(stable) / len(assessments)
    states = Counter(a.decoded(fsm) for a in assessments)

    scatter_rows = [
        [
            a.seed,
            a.tt_pattern,
            f"{a.tt_frequency:.0%}",
            a.nn_pattern,
            f"{a.nn_frequency:.0%}",
            "yes" if a.stable else "no",
            a.decoded(fsm).value,
        ]
        for a in assessments[:16]
    ]
    emit(
        "fig4a_stability_scatter",
        format_table(
            ["block", "TT dom", "TT freq", "NN dom", "NN freq", "stable", "state"],
            scatter_rows,
            title=(
                "Figure 4a (first 16 blocks) — dominant probe patterns per "
                f"candidate block; {stable_share:.0%} of {len(assessments)} "
                "blocks stable (paper: 83%)"
            ),
        ),
    )
    emit(
        "fig4a_stability_plot",
        scatter(
            [
                (a.tt_frequency * 100, a.nn_frequency * 100)
                for a in assessments
            ],
            x_range=(30, 100),
            y_range=(30, 100),
            title=(
                "Figure 4a rendered — dominant-pattern frequency, TT (x) "
                "vs NN (y) probing; stable region is the >=85/>=85 corner"
            ),
        ),
    )
    emit(
        "fig4b_state_distribution",
        format_table(
            ["decoded state", "share"],
            [
                [state.value, f"{states.get(state, 0) / len(assessments):.1%}"]
                for state in DecodedState
            ],
            title="Figure 4b — distribution of decoded PHT states",
        ),
    )

    # Reproduction targets: a clear majority of blocks are stable, and
    # stable blocks decode into real FSM states.
    assert stable_share >= 0.5
    known = sum(
        states.get(s, 0)
        for s in (
            DecodedState.SN,
            DecodedState.WN,
            DecodedState.WT,
            DecodedState.ST,
            DecodedState.DIRTY,
        )
    )
    assert known / len(assessments) >= 0.5
    # Both strong states occur among stable blocks — the attacker can
    # pick whichever working point the CPU needs (§6.1's Skylake note).
    decoded = {a.decoded(fsm) for a in stable}
    assert DecodedState.SN in decoded
    assert DecodedState.ST in decoded
