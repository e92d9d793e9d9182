"""Global history register (paper §2).

The GHR records the outcomes of the last several branches executed on the
core.  It feeds the gshare predictor's index function, which is what makes
2-level predictions depend on inter-branch correlation — and what makes
them hard for an attacker to collide with deliberately (paper §4), hence
BranchScope's strategy of forcing the 1-level mode.
"""

from __future__ import annotations

__all__ = ["GlobalHistoryRegister"]


class GlobalHistoryRegister:
    """A shift register of the last ``length`` branch outcomes.

    The register is shared by every hardware context on the physical core
    (it is part of the shared BPU), which is exactly the property the
    randomisation block exploits to pollute the victim's 2-level history.
    """

    def __init__(self, length: int) -> None:
        if length <= 0:
            raise ValueError("GHR length must be positive")
        self.length = int(length)
        self._mask = (1 << self.length) - 1
        self.value = 0

    def shift_in(self, taken: bool) -> None:
        """Record one branch outcome (1 = taken) as the newest history bit."""
        self.value = ((self.value << 1) | int(bool(taken))) & self._mask

    def clear(self) -> None:
        """Zero the history (power-up state)."""
        self.value = 0

    def set(self, value: int) -> None:
        """Force the register contents (simulator/fast-path use)."""
        self.value = int(value) & self._mask

    def snapshot(self) -> int:
        """Current raw contents (pair with :meth:`restore`).

        The register is a single integer, so the snapshot is the value
        itself rather than an array copy like the table components'.
        """
        return self.value

    def restore(self, snapshot: int) -> None:
        """Restore contents captured by :meth:`snapshot`."""
        self.set(snapshot)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GlobalHistoryRegister(length={self.length}, value={self.value:#x})"
