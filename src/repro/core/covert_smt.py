"""Covert channel across hyperthreads (paper §1).

"We show that BranchScope can be performed across hyperthreaded cores,
advancing previously demonstrated BTB-based attacks which leaked
information only between processes scheduled on the same virtual core.
This capability relaxes the attacker's process scheduling constraints."

Running on the *sibling hardware thread* means the victim is not
descheduled while the spy primes and probes: victim branch executions
interleave with the spy's own instructions at fine grain, including in
the middle of a probe.  Two properties keep the channel alive:

* the working point is *absorbing* for repeated victim executions — from
  an SN prime, any number of taken victim branches leaves the entry on
  the taken side, and any number of not-taken ones leaves it in SN, so
  the spy does not need exactly-one victim execution per sample;
* the sender dwells on each bit for many executions and the spy majority-
  votes several prime/probe samples per bit, absorbing the samples that
  an inopportune interleaving corrupts.

:class:`SMTCovertChannel` implements that protocol over a probabilistic
instruction-interleaving model: between any two spy operations, the
free-running victim executes a geometrically distributed number of
branch instances of the current bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bpu.fsm import State
from repro.core.calibration import find_block
from repro.core.covert import build_dictionary
from repro.core.patterns import DecodedState
from repro.core.randomizer import CompiledBlock
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.system.noise import NoiseModel, inject_noise

__all__ = ["SMTCovertChannel"]


@dataclass(frozen=True)
class SMTConfig:
    """Hyperthreaded-channel parameters."""

    #: Mean number of victim branch executions slipping in between two
    #: spy operations (the SMT interleaving rate).
    victim_rate: float = 0.8
    #: Prime/probe samples taken (and majority-voted) per transmitted bit.
    samples_per_bit: int = 5
    #: Expected victim executions the spy waits for between prime and
    #: probe.  At low interleave rates the spy dwells longer (idles more
    #: instruction slots) so the victim's branch almost surely fires at
    #: least once per sample; without this, a slow sender reads as a
    #: stream of not-taken.
    min_expected_victim_ops: float = 3.0
    #: Working point: prime state and probe outcomes.  SN/TT is
    #: absorbing in both directions, see module docstring.
    prime_state: State = State.SN
    probe_outcomes: tuple = (True, True)


class SMTCovertChannel:
    """Covert channel with a free-running sender on the sibling thread."""

    def __init__(
        self,
        core: PhysicalCore,
        spy: Process,
        victim: Process,
        branch_address: int,
        compiled_block: CompiledBlock,
        *,
        config: Optional[SMTConfig] = None,
        noise: Optional[NoiseModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.core = core
        self.spy = spy
        self.victim = victim
        self.branch_address = int(branch_address)
        self.block = compiled_block
        self.config = config or SMTConfig()
        self.noise = noise if noise is not None else NoiseModel.isolated()
        self.rng = rng if rng is not None else core.rng
        fsm = core.predictor.bimodal.pht.fsm
        self.dictionary = build_dictionary(
            fsm, self.config.prime_state, self.config.probe_outcomes
        )
        self._current_bit: Optional[int] = None

    @classmethod
    def establish(
        cls,
        core: PhysicalCore,
        victim: Process,
        spy: Process,
        branch_link_address: int = 0x30_0006D,
        **kwargs,
    ) -> "SMTCovertChannel":
        """Calibrate a block and build the channel (cf. §6.2)."""
        config = kwargs.get("config") or SMTConfig()
        address = victim.branch_address(branch_link_address)
        compiled = find_block(
            core,
            spy,
            address,
            DecodedState(config.prime_state.name),
        )
        return cls(core, spy, victim, address, compiled, **kwargs)

    # -- SMT interleaving ------------------------------------------------------

    def _victim_interleave(self) -> None:
        """Victim executions slipping in between two spy operations."""
        if self._current_bit is None:
            return
        taken = self._current_bit == 1
        count = self.rng.poisson(self.config.victim_rate)
        for _ in range(count):
            self.core.execute_branch(self.victim, self.branch_address, taken)

    def _sample_bit(self) -> int:
        """One prime → (concurrent victim) → probe sample."""
        self.block.apply(self.core, self.spy)
        # Dwell: idle enough spy instruction slots that the free-running
        # victim executes ~min_expected_victim_ops branches.
        slots = max(
            1,
            int(np.ceil(
                self.config.min_expected_victim_ops
                / max(self.config.victim_rate, 1e-9)
            )),
        )
        for _ in range(slots):
            self._victim_interleave()
        inject_noise(
            self.core, self.noise.gap_branches(self.rng) // 4, self.rng
        )
        self._victim_interleave()
        # The probe's two branches with victim activity in between.
        first, second = self.config.probe_outcomes
        from repro.cpu.counters import CounterKind

        hits = []
        for outcome in (first, second):
            before = self.core.read_counter(
                self.spy, CounterKind.BRANCH_MISSES
            )
            self.core.execute_branch(self.spy, self.branch_address, outcome)
            after = self.core.read_counter(
                self.spy, CounterKind.BRANCH_MISSES
            )
            hits.append(after - before <= 0)
            self._victim_interleave()
        pattern = ("H" if hits[0] else "M") + ("H" if hits[1] else "M")
        return self.dictionary[pattern]

    # -- transmission -----------------------------------------------------------

    def transmit_bit(self, bit: int) -> int:
        """Send one bit: sender dwells on it while the spy samples."""
        self._current_bit = int(bit)
        votes = Counter(
            self._sample_bit() for _ in range(self.config.samples_per_bit)
        )
        self._current_bit = None
        return votes.most_common(1)[0][0]

    def transmit(self, bits: Sequence[int]) -> List[int]:
        """Send a bit sequence; returns the received sequence."""
        return [self.transmit_bit(int(b)) for b in bits]
