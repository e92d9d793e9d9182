"""BranchScope covert channel (paper §7, Listings 2-3, Figure 6).

A trojan/victim process repeatedly executes one branch whose direction
encodes secret bits (Listing 2); the spy, sharing the physical core,
transmits each bit through the directional predictor:

1. **Prime** — apply the calibrated randomisation block, leaving the
   colliding PHT entry in a known strong state and forcing 1-level mode.
2. **Target** — the victim is scheduled for (nominally) one execution of
   its branch; the outcome moves the shared FSM.
3. **Probe** — the spy executes two branches at the colliding address
   with fixed outcomes, classifies each as hit/miss via its own
   misprediction counter (or timing, §8) and decodes the bit with the
   Figure 6 dictionary.

The dictionary is *derived* from the FSM transition tables for the chosen
prime state and probe direction, and extended to all four patterns using
the second-probe observation, mirroring the paper: "the dictionary of
patterns that we use in this experiment is extended with rarely observed
misprediction patterns in order to include all four possible
combinations" and §8's "only the observations from the second branch
execution is relevant".
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bpu.fsm import FSMSpec, State
from repro.core.calibration import find_block
from repro.core.patterns import DecodedState, expected_probe_pattern
from repro.core.prime_probe import probe_pair, probe_timed
from repro.core.randomizer import CompiledBlock, PAPER_BLOCK_BRANCHES
from repro.core.timing_detect import TimingCalibration
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.parallel import TrialPool, spawn_seeds
from repro.resilience.checkpoint import ResumableCampaign
from repro.system.scheduler import AttackScheduler, NoiseSetting

__all__ = ["CovertConfig", "CovertChannel", "build_dictionary", "error_rate"]

ALL_PATTERNS = ("MM", "MH", "HM", "HH")


def build_dictionary(
    fsm: FSMSpec,
    prime_state: State,
    probe_outcomes: Sequence[bool],
    taken_bit: int = 1,
) -> Dict[str, int]:
    """Derive the Figure 6 pattern → bit dictionary.

    Computes the two *canonical* patterns (what the probe observes after
    a taken vs. a not-taken victim branch, absent noise) from the FSM
    tables, then extends the mapping to all four patterns by matching the
    second-probe observation (falling back to the first).  Raises
    ``ValueError`` if the chosen prime state cannot distinguish the two
    victim outcomes — e.g. priming ST and probing NN on Skylake, the
    ambiguity the paper warns about in §6.1.
    """
    return build_dictionary_for_level(
        fsm, fsm.level_for(prime_state), probe_outcomes, taken_bit
    )


def build_dictionary_for_level(
    fsm: FSMSpec,
    prime_level: int,
    probe_outcomes: Sequence[bool],
    taken_bit: int = 1,
) -> Dict[str, int]:
    """:func:`build_dictionary` for a raw internal FSM level.

    The multi-branch attack (§6.3) primes entries to *whatever* state
    its calibrated block pins them to, which on the Skylake FSM may be
    an internal level with no canonical :class:`State` constructor; the
    dictionary only needs the level's transition behaviour.
    """
    canonical: Dict[int, str] = {}
    for victim_taken in (True, False):
        after_target = fsm.step(prime_level, victim_taken)
        pattern, _ = expected_probe_pattern(fsm, after_target, probe_outcomes)
        bit = taken_bit if victim_taken else 1 - taken_bit
        canonical[bit] = pattern
    if canonical[0] == canonical[1]:
        raise ValueError(
            f"prime level {prime_level} "
            f"({fsm.public_state(prime_level).name}) with probe "
            f"{''.join('T' if o else 'N' for o in probe_outcomes)} cannot "
            f"distinguish victim outcomes on {fsm.name} (both yield "
            f"{canonical[0]})"
        )
    dictionary: Dict[str, int] = {}
    for pattern in ALL_PATTERNS:
        if pattern == canonical[taken_bit]:
            dictionary[pattern] = taken_bit
        elif pattern == canonical[1 - taken_bit]:
            dictionary[pattern] = 1 - taken_bit
        elif canonical[0][1] != canonical[1][1]:
            # Second-probe observation decides (paper §8).
            dictionary[pattern] = (
                taken_bit
                if pattern[1] == canonical[taken_bit][1]
                else 1 - taken_bit
            )
        else:
            dictionary[pattern] = (
                taken_bit
                if pattern[0] == canonical[taken_bit][0]
                else 1 - taken_bit
            )
    return dictionary


@dataclass(frozen=True)
class CovertConfig:
    """Channel parameters (defaults work on every modelled CPU).

    The default prime state is SN probed with two taken branches: the
    not-taken side of the FSM is textbook on all three microarchitectures
    (the Skylake quirk only affects the taken side), so SN/TT avoids the
    ST/WT ambiguity — the paper's own recommendation.
    """

    prime_state: State = State.SN
    probe_outcomes: Tuple[bool, bool] = (True, True)
    #: Bit value encoded by a taken victim branch.
    taken_bit: int = 1
    #: Link-time address of the victim's secret-dependent branch
    #: (Listing 2's ``je``); the spy's probe branch is placed to collide.
    branch_link_address: int = 0x30_0006_D
    #: Branches per randomisation block (the paper's 100k by default;
    #: benches shrink it after the block-size ablation justifies that).
    block_branches: int = PAPER_BLOCK_BRANCHES
    #: How each probe execution is classified: "counters" (paper §7) or
    #: "timing" (paper §8).
    measurement: str = "counters"


def error_rate(sent: Sequence[int], received: Sequence[int]) -> float:
    """Fraction of bits received incorrectly."""
    if len(sent) != len(received):
        raise ValueError("sent/received length mismatch")
    if not sent:
        return 0.0
    wrong = sum(1 for s, r in zip(sent, received) if s != r)
    return wrong / len(sent)


class CovertChannel:
    """One configured covert channel between a sender and the spy.

    The sender side is any callable that makes the victim execute the
    target branch once with the outcome encoding a bit — a plain process
    (see :meth:`for_processes`), an SGX enclave step, or an application
    victim from :mod:`repro.victims`.
    """

    def __init__(
        self,
        core: PhysicalCore,
        spy: Process,
        send_bit: Callable[[int], None],
        branch_address: int,
        compiled_block: CompiledBlock,
        scheduler: AttackScheduler,
        config: Optional[CovertConfig] = None,
        timing_calibration: Optional[TimingCalibration] = None,
    ) -> None:
        self.core = core
        self.spy = spy
        self.send_bit = send_bit
        self.branch_address = branch_address
        self.block = compiled_block
        self.scheduler = scheduler
        self.config = config or CovertConfig()
        fsm = core.predictor.bimodal.pht.fsm
        self.dictionary = build_dictionary(
            fsm,
            self.config.prime_state,
            self.config.probe_outcomes,
            self.config.taken_bit,
        )
        if self.config.measurement == "timing" and timing_calibration is None:
            raise ValueError("timing measurement needs a TimingCalibration")
        self.timing_calibration = timing_calibration
        #: Simulated cycles each message of the most recent
        #: :meth:`trial_sweep` consumed.
        self.last_sweep_cycles: List[int] = []

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def for_processes(
        cls,
        core: PhysicalCore,
        victim: Process,
        spy: Process,
        *,
        setting: NoiseSetting = NoiseSetting.ISOLATED,
        config: Optional[CovertConfig] = None,
        timing_calibration: Optional[TimingCalibration] = None,
        calibration_seed_start: int = 0,
    ) -> "CovertChannel":
        """Standard two-process channel (Listings 2-3).

        Places the spy's probe branch at the victim branch's virtual
        address ("we placed the two branch instructions at identical
        virtual addresses in both processes") and runs the §6.2
        calibration search for a block that primes the required state.
        """
        config = config or CovertConfig()
        address = victim.branch_address(config.branch_link_address)
        scheduler = AttackScheduler(core, setting)
        compiled = find_block(
            core,
            spy,
            address,
            DecodedState.from_state(config.prime_state),
            block_branches=config.block_branches,
            noise=scheduler.noise_model,
            seed_start=calibration_seed_start,
        )

        def send_bit(bit: int) -> None:
            taken = bit == config.taken_bit
            core.execute_branch(victim, address, taken)

        return cls(
            core,
            spy,
            send_bit,
            address,
            compiled,
            scheduler,
            config,
            timing_calibration,
        )

    # -- transmission -----------------------------------------------------------

    def transmit_bit(self, bit: int) -> int:
        """Send one bit through the predictor; returns the decoded bit."""
        self.block.apply(self.core, self.spy)  # stage 1
        self.scheduler.stage_gap()
        self.scheduler.victim_turn(lambda: self.send_bit(bit))  # stage 2
        self.scheduler.stage_gap()
        pattern = self._probe_pattern()  # stage 3
        return self.dictionary[pattern]

    def transmit(self, bits: Sequence[int]) -> List[int]:
        """Send a bit sequence; returns the received sequence.

        Per-message fast path: the probe-variant dispatch, decode
        dictionary and stage callables are resolved once per message
        instead of once per bit (:meth:`transmit_bit` stays as the
        single-bit reference — both make the identical call sequence).
        """
        classify = self._resolve_classifier()
        dictionary = self.dictionary
        config = self.config
        taken_bit = config.taken_bit
        core = self.core
        spy = self.spy
        apply_block = self.block.apply
        stage_gap = self.scheduler.stage_gap
        victim_turn = self.scheduler.victim_turn
        send_bit = self.send_bit
        # The tracer is resolved once per message, like the other
        # per-message lookups: the untraced loop stays exactly the seed's
        # call sequence, the traced loop additionally records each bit.
        tracer = obs.TRACER
        received = []
        if tracer is None:
            for b in bits:
                bit = int(b)
                apply_block(core, spy)  # stage 1
                stage_gap()
                victim_turn(lambda bit=bit: send_bit(bit))  # stage 2
                stage_gap()
                received.append(dictionary[classify()])  # stage 3
            return received
        start_cycle = core.clock.now
        for b in bits:
            bit = int(b)
            apply_block(core, spy)  # stage 1
            stage_gap()
            victim_turn(lambda bit=bit: send_bit(bit))  # stage 2
            stage_gap()
            pattern = classify()  # stage 3
            decoded = dictionary[pattern]
            received.append(decoded)
            tracer.emit(
                "covert",
                "bit",
                cycle=core.clock.now,
                pid=spy.pid,
                sent=bit,
                decoded=decoded,
                pattern=pattern,
                correct=decoded == bit,
            )
        errors = sum(1 for b, r in zip(bits, received) if int(b) != r)
        tracer.emit(
            "covert",
            "transmit",
            cycle=start_cycle,
            pid=spy.pid,
            bits=len(received),
            errors=errors,
            dur=core.clock.now - start_cycle,
        )
        metrics = tracer.metrics
        if metrics is not None:
            metrics.counter(
                "repro_covert_bits_total",
                "covert-channel bits transmitted",
                labels=("outcome",),
            ).inc(len(received) - errors, outcome="correct")
            if errors:
                metrics.counter(
                    "repro_covert_bits_total",
                    "covert-channel bits transmitted",
                    labels=("outcome",),
                ).inc(errors, outcome="error")
        return received

    def trial_sweep(
        self,
        payloads: Sequence[Sequence[int]],
        *,
        seed: Optional[int] = 0,
        checkpoint=None,
        checkpoint_interval: Optional[int] = None,
        resume: bool = True,
    ) -> List[List[int]]:
        """Transmit each payload as an independent message trial.

        The channel's prepared state is checkpointed **once per sweep**
        and restored **once per message** (never per bit); each trial
        runs on its own :class:`~numpy.random.SeedSequence`-derived
        noise stream, so each received sequence is a pure function of
        its payload index (see :mod:`repro.parallel`).  The channel's
        own state and generator are left untouched; each trial's
        simulated cycle cost is kept in :attr:`last_sweep_cycles`
        (restoring the clock per message would otherwise hide it from
        throughput accounting).

        Each trial is a pure function of its payload index, so the sweep
        is resumable: ``checkpoint`` (a file path) appends each trial's
        ``[received, cycles]`` pair as a JSON list to a
        :class:`~repro.resilience.ShardLog` every
        ``checkpoint_interval`` trials, and a killed sweep re-run with
        the same payloads and seed returns the bit-identical result
        while re-transmitting only uncheckpointed messages.
        """
        payloads = [[int(b) for b in payload] for payload in payloads]
        if not payloads:
            self.last_sweep_cycles = []
            return []
        core = self.core
        scheduler = self.scheduler
        start = core.checkpoint()
        seeds = spawn_seeds(seed, len(payloads))

        def trial(index: int) -> Tuple[List[int], int]:
            trial_rng = np.random.default_rng(seeds[index])
            caller_rng = core.rng
            core.rng = trial_rng
            scheduler.rng = trial_rng
            start_cycle = core.clock.now
            try:
                received = self.transmit(payloads[index])
                return received, core.clock.now - start_cycle
            finally:
                core.restore(start)
                core.rng = caller_rng
                scheduler.rng = caller_rng

        indices = range(len(payloads))
        if checkpoint is None:
            outcomes = [trial(index) for index in indices]
        else:
            payload_digest = hashlib.sha256(
                repr(payloads).encode()
            ).hexdigest()
            campaign = ResumableCampaign(
                checkpoint,
                fingerprint={
                    "experiment": "covert_trial_sweep",
                    "payloads": payload_digest,
                    "n_payloads": len(payloads),
                    "seed": seed,
                    "branch_address": self.branch_address,
                    "config": repr(self.config),
                },
                interval=checkpoint_interval,
                resume=resume,
            )
            outcomes = campaign.map(TrialPool(), trial, indices)
        self.last_sweep_cycles = [cycles for _, cycles in outcomes]
        return [received for received, _ in outcomes]

    def _resolve_classifier(self) -> Callable[[], str]:
        """The probe-variant measurement as a zero-argument callable."""
        core = self.core
        spy = self.spy
        address = self.branch_address
        outcomes = self.config.probe_outcomes
        if self.config.measurement == "timing":
            is_miss = self.timing_calibration.is_miss

            def classify() -> str:
                lat1, lat2 = probe_timed(core, spy, address, outcomes)
                return ("M" if is_miss(lat1) else "H") + (
                    "M" if is_miss(lat2) else "H"
                )

            return classify

        def classify() -> str:
            return probe_pair(core, spy, address, outcomes).pattern

        return classify

    def _probe_pattern(self) -> str:
        if self.config.measurement == "timing":
            lat1, lat2 = probe_timed(
                self.core, self.spy, self.branch_address,
                self.config.probe_outcomes,
            )
            calib = self.timing_calibration
            return ("M" if calib.is_miss(lat1) else "H") + (
                "M" if calib.is_miss(lat2) else "H"
            )
        return probe_pair(
            self.core, self.spy, self.branch_address,
            self.config.probe_outcomes,
        ).pattern
