"""Ablation A1: effectiveness of each §10.2 hardware defense.

For every mitigation, run the full BranchScope attack (calibration
included) against a secret-bit-array victim and report the recovered-bit
error rate.  A defense "works" when recovery degrades toward coin
flipping (~50%) or calibration becomes impossible; the unprotected
baseline must stay near 0%.

The victim and spy get fixed pids (1 and 2): the per-process defenses
(partitioning by ``pid % 8``, the PHT key) key on pid, as STBPU-style
per-context isolation does (arXiv 2108.02156), so counter-drawn pids
would make a row depend on what ran earlier in the interpreter.
"""

import numpy as np

from conftest import emit, scaled
from repro.analysis import format_table
from repro.bpu import skylake
from repro.core.attack import BranchScope
from repro.core.calibration import CalibrationError
from repro.core.covert import error_rate
from repro.cpu import PhysicalCore, Process
from repro.mitigations import (
    BpuPartitioning,
    NoisyPerformanceCounters,
    PhtIndexRandomization,
    StaticPredictionForSensitiveBranches,
    StochasticFSM,
)
from repro.system.scheduler import NoiseSetting
from repro.victims import SecretBitArrayVictim

N_BITS = scaled(400)


def attack_once(mitigation_factory, protect_victim_branch=False):
    core = PhysicalCore(skylake(), seed=30)
    if mitigation_factory is not None:
        core.install_mitigation(mitigation_factory(core))
    secret = np.random.default_rng(31).integers(0, 2, N_BITS).tolist()
    victim = SecretBitArrayVictim(
        secret, process=Process("bitarray-victim", pid=1)
    )
    if protect_victim_branch:
        victim.process.protect_branch(victim.branch_address)
    attack = BranchScope(
        core,
        Process("spy", pid=2),
        victim.branch_address,
        setting=NoiseSetting.ISOLATED,
    )
    try:
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), N_BITS
        )
    except CalibrationError:
        return None  # defense defeated the pre-attack stage
    return error_rate(
        [int(b) for b in victim.reveal_secret()],
        [int(b) for b in recovered],
    )


CASES = [
    ("no mitigation (baseline)", None, False),
    (
        "PHT index randomization",
        lambda core: PhtIndexRandomization(np.random.default_rng(1)),
        False,
    ),
    (
        "BPU partitioning (8 ways)",
        lambda core: BpuPartitioning.by_process(
            core.predictor.bimodal.pht.n_entries, n_partitions=8
        ),
        False,
    ),
    (
        "static prediction (protected branch)",
        lambda core: StaticPredictionForSensitiveBranches(),
        True,
    ),
    (
        "noisy counters (±2)",
        lambda core: NoisyPerformanceCounters(magnitude=2),
        False,
    ),
    (
        "stochastic FSM (p=0.3)",
        lambda core: StochasticFSM(flip_prob=0.3),
        False,
    ),
]


def run_experiment():
    return {
        label: attack_once(factory, protect)
        for label, factory, protect in CASES
    }


def test_ablation_mitigations(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = []
    for label, _, _ in CASES:
        result = results[label]
        rows.append(
            [
                label,
                "calibration impossible"
                if result is None
                else f"{result:.1%}",
            ]
        )
    emit(
        "ablation_mitigations",
        format_table(
            ["defense", "attack bit-error rate"],
            rows,
            title=(
                f"Ablation A1 — full-attack error rate per §10.2 defense "
                f"({N_BITS} secret bits; ~50% = channel destroyed)"
            ),
        ),
    )

    baseline = results["no mitigation (baseline)"]
    assert baseline is not None and baseline < 0.02
    for label, _, _ in CASES[1:]:
        result = results[label]
        # Every defense either kills calibration or lifts the error rate
        # by an order of magnitude over the baseline.
        assert result is None or result > max(10 * baseline, 0.05), label
