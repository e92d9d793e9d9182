"""Branch poisoning: the write-side of the channel (paper §1).

"The attacker may also change the predictor state, changing its behavior
in the victim. ... The branch poisoning attack presented in Spectre is
based on the same basic principle as BranchScope — exploiting collisions
between different branch instructions in the branch predictor data
structures."

BranchScope's collision machinery runs in both directions: instead of
*reading* the victim's branch direction out of a shared PHT entry, the
attacker *writes* a chosen direction into it, forcing the victim's next
execution to be (mis)predicted the attacker's way.  In a Spectre-v1
setting that misprediction opens the speculative window over the
victim's bounds check; here we model and measure the microarchitectural
half — the attacker's control over the victim's prediction outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.system.scheduler import AttackScheduler, NoiseSetting

__all__ = ["PoisoningResult", "poison_branch", "poisoning_experiment"]


def poison_branch(
    core: PhysicalCore,
    attacker: Process,
    victim_branch_address: int,
    predict_taken: bool,
    *,
    strength: int = 5,
    force_one_level: bool = True,
) -> None:
    """Drive the victim branch's PHT entry to a chosen strong state.

    The attacker executes its own colliding branch ``strength`` times in
    the desired direction — plain BranchScope stage-1 machinery pointed
    the other way.  ``strength >= n_levels`` saturates the counter from
    any starting state.

    With ``force_one_level`` (the default) the attacker also executes a
    branch that conflicts with the victim's identification-table set,
    evicting the victim's branch so its next execution runs in 1-level
    mode (§5.2).  Without this, a repeatedly poisoned victim is rescued
    by the 2-level predictor, which learns the poison/execute rhythm —
    the same effect that motivates the randomisation block in the read
    attack.
    """
    for _ in range(strength):
        core.execute_branch(attacker, victim_branch_address, predict_taken)
    if force_one_level:
        conflict = victim_branch_address + core.predictor.bit.n_sets
        core.execute_branch(attacker, conflict, bool(strength % 2))


@dataclass(frozen=True)
class PoisoningResult:
    """Victim misprediction rates with and without poisoning."""

    baseline_misprediction_rate: float
    poisoned_misprediction_rate: float


def poisoning_experiment(
    core: PhysicalCore,
    attacker: Process,
    victim: Process,
    victim_branch_address: int,
    victim_direction: bool,
    *,
    rounds: int = 200,
    scheduler: Optional[AttackScheduler] = None,
) -> PoisoningResult:
    """Measure the attacker's control over a victim branch's predictions.

    The victim repeatedly executes a branch that *always* goes
    ``victim_direction`` (think: a bounds check that always passes).
    Baseline: the predictor learns it and the victim enjoys ~0
    mispredictions.  Poisoned: before each victim execution the attacker
    re-primes the shared entry to the opposite direction, forcing a
    misprediction — the Spectre-style speculative window — every round.
    """
    scheduler = scheduler or AttackScheduler(
        core, NoiseSetting.ISOLATED, victim_jitter=0.0
    )
    address = int(victim_branch_address)

    def measure(poison: bool) -> float:
        # Warm the victim's branch so the baseline is trained.
        for _ in range(4):
            core.execute_branch(victim, address, victim_direction)
        missed = 0
        for _ in range(rounds):
            if poison:
                poison_branch(
                    core, attacker, address, not victim_direction
                )
            scheduler.stage_gap()
            record = core.execute_branch(victim, address, victim_direction)
            if record.mispredicted:
                missed += 1
        return missed / rounds

    baseline = measure(poison=False)
    poisoned = measure(poison=True)
    return PoisoningResult(
        baseline_misprediction_rate=baseline,
        poisoned_misprediction_rate=poisoned,
    )
