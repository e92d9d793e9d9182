"""Tournament selector table (paper §2, Figure 1).

The selector is a PC-indexed table of saturating "choice" counters that
pick which component predictor — 1-level bimodal or 2-level gshare —
supplies the final prediction for a branch.  Counters move toward the
component that was correct when the two components disagree (the
McFarling update rule), so a branch whose pattern gshare has learned
migrates to gshare over a handful of executions, which is what the
Figure 2 learning curve shows (~5-7 repetitions of a 10-branch pattern).

Counter encoding: ``0 .. 2^counter_bits - 1``.  Only a *saturated*
counter chooses gshare — the chooser must accumulate consistent evidence
that the 2-level predictor has genuinely learned the branch before
handing it over, which models the paper's observation (§5.1) that the
1-level predictor covers branches until then.  The table initialises
biased toward the bimodal side, and a newly (re-)allocated branch has
its chooser entry reset to that bias (see :meth:`SelectorTable.
reset_entry`), modelling §5.1's "for new branches whose information is
not stored in the predictor history, the 1-level predictor is used".
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["Choice", "SelectorTable"]


class Choice(enum.IntEnum):
    """Which component predictor the selector picks."""

    BIMODAL = 0
    GSHARE = 1


class SelectorTable:
    """PC-indexed table of saturating choice counters."""

    def __init__(
        self,
        n_entries: int,
        initial_counter: int = 1,
        counter_bits: int = 3,
    ) -> None:
        if n_entries <= 0:
            raise ValueError("selector table must have at least one entry")
        if counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        self.counter_bits = int(counter_bits)
        self.max_counter = (1 << self.counter_bits) - 1
        if not 0 <= initial_counter <= self.max_counter:
            raise ValueError(
                f"initial counter must be in 0..{self.max_counter}"
            )
        self.n_entries = int(n_entries)
        self._initial = int(initial_counter)
        # Sized from counter_bits: >= 8-bit choice counters must not wrap.
        dtype = np.int8
        for candidate in (np.int8, np.int16, np.int32, np.int64):
            dtype = candidate
            if self.max_counter <= np.iinfo(candidate).max:
                break
        else:
            raise ValueError(f"counter_bits {counter_bits} too large")
        self.counters = np.full(self.n_entries, self._initial, dtype=dtype)

    @property
    def gshare_threshold(self) -> int:
        """Counter value at which gshare takes over (saturation)."""
        return self.max_counter

    def index(self, address: int) -> int:
        """Selector entry used for a branch at ``address``."""
        return int(address) % self.n_entries

    def choose(self, address: int) -> Choice:
        """Component chosen for the branch at ``address``."""
        if self.counters[self.index(address)] >= self.gshare_threshold:
            return Choice.GSHARE
        return Choice.BIMODAL

    def update(
        self, address: int, bimodal_correct: bool, gshare_correct: bool
    ) -> None:
        """McFarling update: train toward the correct component.

        The counter only moves when exactly one component was correct;
        agreement (both right or both wrong) carries no information about
        which component is better for this branch.
        """
        if bimodal_correct == gshare_correct:
            return
        idx = self.index(address)
        old = int(self.counters[idx])
        if gshare_correct:
            self.counters[idx] = min(self.max_counter, old + 1)
        else:
            self.counters[idx] = max(0, old - 1)

    def reset_entry(self, address: int) -> None:
        """Re-initialise the chooser entry for a newly allocated branch.

        Called when a branch misses the identification table: whatever
        chooser history the entry held belonged to a different (evicted)
        branch, so the hardware starts this branch from the initial
        bimodal bias.
        """
        self.counters[self.index(address)] = self._initial

    def counter(self, address: int) -> int:
        """Raw choice-counter value for ``address`` (introspection)."""
        return int(self.counters[self.index(address)])

    def reset(self) -> None:
        """Return every counter to the initial bias."""
        self.counters.fill(self._initial)

    def snapshot(self) -> np.ndarray:
        """Copy of the counter vector (pair with :meth:`restore`)."""
        return self.counters.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Restore counters captured by :meth:`snapshot`."""
        if snapshot.shape != self.counters.shape:
            raise ValueError("snapshot shape mismatch")
        np.copyto(self.counters, snapshot)

    def __len__(self) -> int:
        return self.n_entries
