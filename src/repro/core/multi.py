"""Spying on several victim branches per episode (paper §6.3).

"Knowing the states of PHT entries associated with different memory
addresses potentially allows the attacker to spy on multiple branch
instructions in victim process in a single episode of execution."

One randomisation block sets *every* PHT entry, so a block that pins all
k target entries primes all of them at once; after the victim's episode
(one execution of each monitored branch) the spy probes the k entries
one by one — distinct entries, so probing one does not disturb the
others.  Two wrinkles relative to the single-branch attack:

* each entry is pinned to whatever state the block happens to leave
  there, so each address gets its *own* decode dictionary, derived from
  its pinned level (:func:`repro.core.covert.build_dictionary_for_level`);
* a pinned level is only usable if some probe variant distinguishes a
  taken from a not-taken victim execution — on the Skylake FSM the
  ST-side levels are not (the §6.1 ambiguity), so calibration rejects
  blocks that pin any target to an undecodable level.

Calibration searches candidate blocks with the cheap analytical
entry-fold filter; requiring k simultaneous pins-with-usable-levels
makes usable blocks rarer (the cost of the aggressive attack the paper
anticipates), which ``tests/test_multi.py`` quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.calibration import CalibrationError
from repro.core.covert import build_dictionary_for_level
from repro.core.prime_probe import probe_pair
from repro.core.randomizer import (
    PAPER_BLOCK_BRANCHES,
    CompiledBlock,
    RandomizationBlock,
)
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.system.scheduler import AttackScheduler, NoiseSetting

__all__ = ["BranchPlan", "MultiBranchScope"]

#: Probe variants tried, in order, when deriving a per-address dictionary.
PROBE_VARIANTS: Tuple[Tuple[bool, bool], ...] = (
    (True, True),
    (False, False),
)


@dataclass(frozen=True)
class BranchPlan:
    """How one monitored address will be probed and decoded."""

    address: int
    pinned_level: int
    probe_outcomes: Tuple[bool, bool]
    dictionary: Dict[str, int]


class MultiBranchScope:
    """Monitor the directions of several victim branches per episode."""

    def __init__(
        self,
        core: PhysicalCore,
        spy: Process,
        addresses: Sequence[int],
        *,
        setting: NoiseSetting = NoiseSetting.ISOLATED,
        block_branches: int = PAPER_BLOCK_BRANCHES,
        scheduler: Optional[AttackScheduler] = None,
    ) -> None:
        if not addresses:
            raise ValueError("need at least one address to monitor")
        pht_size = core.predictor.bimodal.pht.n_entries
        entries = {int(a) % pht_size for a in addresses}
        if len(entries) != len(addresses):
            raise ValueError(
                "monitored addresses must map to distinct PHT entries"
            )
        self.core = core
        self.spy = spy
        self.addresses = [int(a) for a in addresses]
        self.block_branches = block_branches
        self.scheduler = scheduler or AttackScheduler(
            core, setting, victim_jitter=0.0
        )
        self._compiled: Optional[CompiledBlock] = None
        self._plans: Dict[int, BranchPlan] = {}

    # -- calibration -------------------------------------------------------

    def _plan_for_level(self, address: int, level: int) -> Optional[BranchPlan]:
        """A decodable probe plan for an entry pinned at ``level``."""
        fsm = self.core.predictor.bimodal.pht.fsm
        for probe_outcomes in PROBE_VARIANTS:
            try:
                dictionary = build_dictionary_for_level(
                    fsm, level, probe_outcomes
                )
            except ValueError:
                continue
            return BranchPlan(
                address=address,
                pinned_level=level,
                probe_outcomes=probe_outcomes,
                dictionary=dictionary,
            )
        return None

    def calibrate(self, max_candidates: int = 4000) -> CompiledBlock:
        """Find one block that pins every target entry to a usable level.

        The analytical entry-fold filter makes scanning thousands of
        candidates cheap; only the winning block is compiled.  Candidates
        are scanned in seed order and the first that pins every target
        wins.
        """

        def trial(seed: int) -> Optional[Tuple[int, Dict[int, BranchPlan]]]:
            block = RandomizationBlock.generate(
                seed, n_branches=self.block_branches
            )
            plans: Dict[int, BranchPlan] = {}
            for address in self.addresses:
                row = block.entry_fold(self.core, self.spy, address)
                if not (row == row[0]).all():
                    return None  # not pinned
                plan = self._plan_for_level(address, int(row[0]))
                if plan is None:
                    return None  # pinned to an undecodable level
                plans[address] = plan
            return seed, plans

        for seed in range(max_candidates):
            found = trial(seed)
            if found is not None:
                break
        else:
            raise CalibrationError(
                f"no block pins all {len(self.addresses)} targets usably "
                f"within {max_candidates} candidates"
            )
        winning_seed, plans = found
        block = RandomizationBlock.generate(
            winning_seed, n_branches=self.block_branches
        )
        self._compiled = block.compile(self.core, self.spy)
        self._plans = plans
        return self._compiled

    @property
    def plans(self) -> List[BranchPlan]:
        """The per-address probe plans (calibrating lazily)."""
        if not self._plans:
            self.calibrate()
        return [self._plans[a] for a in self.addresses]

    # -- the episode loop ------------------------------------------------------

    def spy_episode(self, trigger: Callable[[], None]) -> Dict[int, bool]:
        """Recover every monitored branch's direction from one episode.

        ``trigger`` runs the victim through one episode in which each
        monitored branch executes exactly once (in any order).  Returns
        ``{address: taken}``.
        """
        if not self._plans:
            self.calibrate()
        self._compiled.apply(self.core, self.spy)  # stage 1, all entries
        self.scheduler.stage_gap()
        trigger()  # stage 2, the whole episode
        self.scheduler.stage_gap()
        results: Dict[int, bool] = {}
        for plan in self.plans:  # stage 3, entry by entry
            pattern = probe_pair(
                self.core, self.spy, plan.address, plan.probe_outcomes
            ).pattern
            results[plan.address] = bool(plan.dictionary[pattern])
        return results
