"""Branch performance counters (paper §7).

The spy in the paper's main implementation brackets each probe branch
with reads of the hardware branch-misprediction counter ("the attacker
process relies on hardware performance counters for precise detection of
correct and incorrect prediction events").  We model a per-process
counter file: each simulated process accumulates its own executed-branch
and mispredicted-branch counts, exactly like per-thread PMCs; a process
can read only its own counters.

The §10.2 "add noise to the performance counters" mitigation is a wrapper
(:mod:`repro.mitigations.noisy_counters`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

__all__ = [
    "CounterKind",
    "CounterSample",
    "PerformanceCounters",
]


class CounterKind(enum.Enum):
    """The performance events the simulator exposes."""

    BRANCHES = "branch_instructions_retired"
    BRANCH_MISSES = "branch_mispredictions_retired"
    CYCLES = "cycles"


@dataclass(frozen=True)
class CounterSample:
    """A point-in-time reading of every counter."""

    branches: int
    branch_misses: int
    cycles: int

    def delta(self, earlier: "CounterSample") -> "CounterSample":
        """Difference ``self - earlier`` (the usual PMC usage pattern)."""
        return CounterSample(
            branches=self.branches - earlier.branches,
            branch_misses=self.branch_misses - earlier.branch_misses,
            cycles=self.cycles - earlier.cycles,
        )


class PerformanceCounters:
    """Counter file for one process/hardware context."""

    def __init__(self) -> None:
        self._counts: Dict[CounterKind, int] = {kind: 0 for kind in CounterKind}

    def increment(self, kind: CounterKind, amount: int = 1) -> None:
        """Record ``amount`` occurrences of an event (simulator-side)."""
        if amount < 0:
            raise ValueError("counters only count forward")
        self._counts[kind] += amount

    def read(self, kind: CounterKind) -> int:
        """Read one raw counter (attacker-side)."""
        return self._counts[kind]

    def sample(self) -> CounterSample:
        """Read all counters at once."""
        return CounterSample(
            branches=self._counts[CounterKind.BRANCHES],
            branch_misses=self._counts[CounterKind.BRANCH_MISSES],
            cycles=self._counts[CounterKind.CYCLES],
        )

    def reset(self) -> None:
        """Zero every counter."""
        for kind in self._counts:
            self._counts[kind] = 0

    def snapshot(self) -> Dict[CounterKind, int]:
        """Copy of the raw counts (pair with :meth:`restore`)."""
        return dict(self._counts)

    def restore(self, snapshot: Dict[CounterKind, int]) -> None:
        """Restore counts captured by :meth:`snapshot`."""
        self._counts = dict(snapshot)
