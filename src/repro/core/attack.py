"""High-level BranchScope facade: spy on an arbitrary victim branch.

Ties the attack primitives into the three-stage loop of paper §4 against
a real victim (not a cooperating trojan): the attacker knows the virtual
address of a secret-dependent branch in the victim (paper §4: "the
virtual addresses of victim's code are typically not a secret"; see
:mod:`repro.core.aslr_attack` when ASLR hides them) and can *trigger* the
victim to execute that branch once (threat-model assumption 3).  Each
trigger leaks one branch direction = one secret bit.

Used by the application attacks in :mod:`repro.victims` (Montgomery
ladder key recovery, libjpeg IDCT zero-map recovery) and by the SGX
attack in ``examples/sgx_attack.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.bpu.fsm import State
from repro.core.calibration import find_block
from repro.core.covert import build_dictionary
from repro.core.patterns import DecodedState
from repro.core.prime_probe import probe_pair
from repro.core.randomizer import CompiledBlock, PAPER_BLOCK_BRANCHES
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.system.scheduler import AttackScheduler, NoiseSetting

__all__ = ["BranchScope", "SpiedBit"]


@dataclass(frozen=True)
class SpiedBit:
    """One recovered branch direction with its raw observation."""

    #: True = the victim's branch was taken.
    taken: bool
    #: The probe pattern the decision came from (diagnostics).
    pattern: str


class BranchScope:
    """A configured BranchScope attack session on one victim branch.

    Parameters
    ----------
    core, spy:
        The shared physical core and the attacker's process.
    victim_branch_address:
        Run-time virtual address of the victim branch to spy on.
    setting:
        Noise environment (Table 2's isolated / with-noise, or QUIESCED
        under an attacker-controlled OS).
    prime_state, probe_outcomes:
        Attack working point.  The default — prime SN, probe with two
        taken branches — avoids the Skylake ST/WT ambiguity and works on
        all modelled CPUs.
    block_branches:
        Size of the randomisation block (paper default 100k).
    """

    def __init__(
        self,
        core: PhysicalCore,
        spy: Process,
        victim_branch_address: int,
        *,
        setting: NoiseSetting = NoiseSetting.ISOLATED,
        prime_state: State = State.SN,
        probe_outcomes=(True, True),
        block_branches: int = PAPER_BLOCK_BRANCHES,
        calibration_seed_start: int = 0,
        scheduler: Optional[AttackScheduler] = None,
    ) -> None:
        self.core = core
        self.spy = spy
        self.address = int(victim_branch_address)
        self.prime_state = prime_state
        self.probe_outcomes = tuple(probe_outcomes)
        # Unlike the free-running covert-channel victim, this attack
        # *triggers* each victim execution (threat-model assumption 3),
        # so there is no slowdown-precision jitter: one trigger, one
        # branch.  Noise injection still follows the setting.
        self.scheduler = scheduler or AttackScheduler(
            core, setting, victim_jitter=0.0
        )
        self.block_branches = block_branches
        self._calibration_seed_start = calibration_seed_start
        self._compiled: Optional[CompiledBlock] = None
        fsm = core.predictor.bimodal.pht.fsm
        # taken_bit=1: dictionary maps patterns to 1 = taken.
        self._dictionary = build_dictionary(
            fsm, prime_state, self.probe_outcomes, taken_bit=1
        )

    # -- pre-attack stage ---------------------------------------------------

    def calibrate(self, max_candidates: int = 64) -> CompiledBlock:
        """One-time §6.2 search for a block priming the working state."""
        self._compiled = find_block(
            self.core,
            self.spy,
            self.address,
            DecodedState.from_state(self.prime_state),
            block_branches=self.block_branches,
            noise=self.scheduler.noise_model,
            max_candidates=max_candidates,
            seed_start=self._calibration_seed_start,
        )
        return self._compiled

    @property
    def compiled_block(self) -> CompiledBlock:
        """The calibrated block, calibrating lazily on first use."""
        if self._compiled is None:
            self.calibrate()
        return self._compiled

    # -- the attack loop ------------------------------------------------------

    def spy_on_branch(self, trigger: Callable[[], None]) -> SpiedBit:
        """Recover the direction of one victim branch execution.

        ``trigger`` makes the victim execute the monitored branch once
        (e.g. sending a request to a server, §3).  Implements the
        prime → victim → probe loop of §4.
        """
        self.compiled_block.apply(self.core, self.spy)  # stage 1
        self.scheduler.stage_gap()
        self.scheduler.victim_turn(trigger)  # stage 2
        self.scheduler.stage_gap()
        pattern = probe_pair(  # stage 3
            self.core, self.spy, self.address, self.probe_outcomes
        ).pattern
        taken = bool(self._dictionary[pattern])
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "probe",
                "classified",
                cycle=self.core.clock.now,
                pid=self.spy.pid,
                address=self.address,
                pattern=pattern,
                taken=taken,
            )
        return SpiedBit(taken=taken, pattern=pattern)

    def spy_on_bits(
        self, trigger: Callable[[], None], n_bits: int
    ) -> List[bool]:
        """Recover ``n_bits`` successive directions of the victim branch.

        Each call to ``trigger`` must advance the victim by exactly one
        secret-dependent branch (the victim-slowdown assumption).
        """
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        return [self.spy_on_branch(trigger).taken for _ in range(n_bits)]
