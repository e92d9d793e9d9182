"""Programs: schedulable branch-instruction streams.

The attack-facade modules drive the core directly, which is convenient
but hides the scheduling reality of paper §3: victim, spy and background
work are *processes* that an OS scheduler interleaves, and the attacker's
leverage is exactly its influence over that interleaving (slowing the
victim to one branch per slice, à la Gullasch et al.).

A :class:`Program` couples a :class:`~repro.cpu.process.Process` to a
generator of :class:`BranchOp`/:class:`Yield` events; the
:class:`~repro.system.scheduler.SliceScheduler` (see below) runs several
programs round-robin with a per-program slice length measured in branch
instructions.  ``examples/scheduled_attack.py`` and
``tests/test_programs.py`` run the complete BranchScope loop this way —
no harness shortcuts, every branch of every party goes through the
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterator, List, Optional, Union


from repro.cpu.core import BranchExecution, PhysicalCore
from repro.cpu.process import Process

__all__ = ["BranchOp", "Yield", "Program", "SliceScheduler"]


@dataclass(frozen=True)
class BranchOp:
    """One conditional branch the program wants to execute."""

    address: int
    taken: bool
    target: Optional[int] = None


@dataclass(frozen=True)
class Yield:
    """Voluntarily end the current slice (e.g. the spy sleeping in
    Listing 3's ``usleep`` while the victim runs)."""


ProgramEvent = Union[BranchOp, Yield]


class Program:
    """A process plus its instruction stream.

    ``body`` is a generator function receiving the program instance; it
    yields :class:`BranchOp` to execute branches and :class:`Yield` to
    give up the CPU.  The results of executed branches are appended to
    :attr:`executions` so program logic can observe its own performance
    counters the way the spy does.
    """

    def __init__(
        self,
        process: Process,
        body: Callable[["Program"], Generator[ProgramEvent, None, None]],
    ) -> None:
        self.process = process
        self._body = body
        self._stream: Optional[Iterator[ProgramEvent]] = None
        self.executions: List[BranchExecution] = []
        self.finished = False

    def _ensure_started(self) -> None:
        if self._stream is None:
            self._stream = iter(self._body(self))

    def run_slice(self, core: PhysicalCore, max_branches: int) -> int:
        """Run until ``max_branches`` branches executed, a Yield, or end.

        Returns the number of branches executed this slice.
        """
        if self.finished:
            return 0
        self._ensure_started()
        executed = 0
        while executed < max_branches:
            try:
                event = next(self._stream)
            except StopIteration:
                self.finished = True
                break
            if isinstance(event, Yield):
                break
            record = core.execute_branch(
                self.process, event.address, event.taken, event.target
            )
            self.executions.append(record)
            executed += 1
        return executed


class SliceScheduler:
    """Round-robin scheduler over programs with per-program slices.

    ``slices`` maps each program to its slice length in branch
    instructions; the attacker's Gullasch-style leverage is modelled by
    giving the victim a slice of one branch.  Context-switch boundaries
    invoke the installed mitigations' ``on_context_switch`` hooks, as
    the :class:`~repro.system.scheduler.AttackScheduler` does.
    """

    def __init__(
        self,
        core: PhysicalCore,
        programs: List[Program],
        slices: Optional[dict] = None,
        default_slice: int = 50,
    ) -> None:
        if not programs:
            raise ValueError("need at least one program")
        if default_slice <= 0:
            raise ValueError("slices must be positive")
        self.core = core
        self.programs = list(programs)
        self._slices = dict(slices or {})
        self.default_slice = default_slice
        self.rounds = 0

    def slice_for(self, program: Program) -> int:
        """Slice length (branches) granted to ``program`` per round."""
        return int(self._slices.get(program, self.default_slice))

    @property
    def all_finished(self) -> bool:
        """Whether every program has run to completion."""
        return all(p.finished for p in self.programs)

    def run_round(self) -> int:
        """One scheduling round: every unfinished program gets a slice.

        Returns the total branches executed in the round.
        """
        executed = 0
        for program in self.programs:
            if program.finished:
                continue
            self.core.mitigations.on_context_switch(self.core)
            executed += program.run_slice(self.core, self.slice_for(program))
        self.rounds += 1
        return executed

    def run(self, max_rounds: int = 1_000_000) -> int:
        """Run rounds until every program finishes; returns rounds used."""
        start = self.rounds
        while not self.all_finished:
            if self.rounds - start >= max_rounds:
                raise RuntimeError("scheduler exceeded max_rounds")
            self.run_round()
        return self.rounds - start
