"""Pattern history table: the attacked structure (paper §2, §6).

A PHT is a fixed-size vector of prediction FSM *levels* (see
:mod:`repro.bpu.fsm`).  Both component predictors of the hybrid BPU store
their direction history in a PHT; they differ only in how the table is
indexed (paper §2: "the only difference between the two predictors is how
the PHT is indexed").

The table stores raw integer levels in a NumPy array so the attack's fast
paths (randomisation-block application, noise injection, full-table
snapshots for the §6.3 PHT scan) can operate vectorised.  A snapshot is
a plain copy of that array and a restore copies it back.
"""

from __future__ import annotations

import numpy as np

from repro.bpu.fsm import FSMSpec, State, level_dtype

__all__ = ["PatternHistoryTable"]


class PatternHistoryTable:
    """A table of ``n_entries`` prediction FSMs.

    Parameters
    ----------
    n_entries:
        Number of PHT entries.  Need not be a power of two, although real
        microarchitecture presets use powers of two.
    fsm:
        The prediction FSM specification shared by all entries.
    initial_state:
        Architectural state each entry starts in.  Real hardware powers up
        in an unknown state; we default to weakly not-taken, and tests /
        experiments that need a random start use :meth:`randomize`.
    """

    def __init__(
        self,
        n_entries: int,
        fsm: FSMSpec,
        initial_state: State = State.WN,
    ) -> None:
        if n_entries <= 0:
            raise ValueError("PHT must have at least one entry")
        self.fsm = fsm
        self.n_entries = int(n_entries)
        self._initial_level = fsm.level_for(initial_state)
        #: The raw level vector.  Sized from n_levels: an FSM with > 127
        #: levels must not wrap int8.
        self.levels = np.full(
            self.n_entries, self._initial_level, dtype=level_dtype(fsm.n_levels)
        )

    # -- indexing helpers --------------------------------------------------

    def _check(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.n_entries:
            raise IndexError(f"PHT index {index} out of range")
        return index

    # -- per-entry operations ----------------------------------------------

    def predict(self, index: int) -> bool:
        """Direction prediction (taken?) of entry ``index``."""
        return self.fsm.predicts(int(self.levels[self._check(index)]))

    def update(self, index: int, taken: bool) -> None:
        """Advance entry ``index`` by one actual branch outcome."""
        index = self._check(index)
        self.levels[index] = self.fsm.step(int(self.levels[index]), taken)

    def level(self, index: int) -> int:
        """Raw internal FSM level of entry ``index``."""
        return int(self.levels[self._check(index)])

    def state(self, index: int) -> State:
        """Observable architectural state of entry ``index``."""
        return self.fsm.public_state(self.level(index))

    def set_state(self, index: int, state: State) -> None:
        """Force entry ``index`` to a given architectural state.

        This is a simulator-only capability used by tests and by the
        Figure 9 experiment setup; the attacker inside the model reaches
        states only through branch executions.
        """
        self.levels[self._check(index)] = self.fsm.level_for(state)

    def set_level(self, index: int, level: int) -> None:
        """Force entry ``index`` to a raw internal level.

        Only tests call it.  It stays beside :meth:`set_state` as the
        checked writer of what :meth:`level` reads: the one way to place
        an entry on a hidden level no :class:`State` names (the inner
        levels of a wide saturating FSM).
        """
        if not 0 <= level < self.fsm.n_levels:
            raise ValueError(f"level {level} out of range")
        self.levels[self._check(index)] = level

    # -- whole-table operations ----------------------------------------------

    def states(self) -> np.ndarray:
        """Architectural states of all entries, as an int8 array of State values."""
        return self.fsm.public_array(self.levels)

    def randomize(self, rng: np.random.Generator) -> None:
        """Scramble every entry to a uniformly random level.

        Models the unknown PHT contents inherited from prior system
        activity (paper §6.2 discusses such inherited state as a noise
        source).
        """
        self.levels = rng.integers(
            0, self.fsm.n_levels, size=self.n_entries
        ).astype(self.levels.dtype)

    def reset(self) -> None:
        """Return every entry to the configured initial state."""
        self.levels.fill(self._initial_level)

    def snapshot(self) -> np.ndarray:
        """Copy of the raw level vector (pair with :meth:`restore`)."""
        return self.levels.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Restore a level vector previously taken with :meth:`snapshot`."""
        if snapshot.shape != self.levels.shape:
            raise ValueError("snapshot shape mismatch")
        np.copyto(self.levels, snapshot)

    def __len__(self) -> int:
        return self.n_entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PatternHistoryTable(n_entries={self.n_entries}, "
            f"fsm={self.fsm.name!r})"
        )
