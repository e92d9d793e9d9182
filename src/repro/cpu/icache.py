"""Instruction-cache presence model.

Paper §8: "to eliminate the impact of caching on these measurements, we
executed each branch instance two times, but only recorded the latency
during the second execution, after the instruction has been placed in
the cache."  The only i-cache property the attack interacts with is
*presence* — whether a branch's cache line has been fetched recently —
so we model a direct-mapped presence cache at 64-byte line granularity
rather than a full memory hierarchy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["InstructionCache"]


class InstructionCache:
    """Direct-mapped, tagged line-presence cache."""

    def __init__(
        self, n_sets: int = 512, line_bytes: int = 64, tag_bits: int = 20
    ) -> None:
        if n_sets <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        self.n_sets = int(n_sets)
        self.line_bytes = int(line_bytes)
        self.tag_bits = int(tag_bits)
        self._tag_mask = (1 << self.tag_bits) - 1
        self.tags = np.zeros(self.n_sets, dtype=np.int64)
        self.valid = np.zeros(self.n_sets, dtype=bool)

    def _split(self, address: int) -> Tuple[int, int]:
        line = int(address) // self.line_bytes
        return line % self.n_sets, (line // self.n_sets) & self._tag_mask

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is cached."""
        index, tag = self._split(address)
        return bool(self.valid[index]) and int(self.tags[index]) == tag

    def fetch(self, address: int) -> bool:
        """Access ``address``: returns True on hit, fills the line on miss.

        A hit leaves the line entry bit-identical, so only misses write —
        the warm-loop hot path stays read-only.
        """
        index, tag = self._split(address)
        if bool(self.valid[index]) and int(self.tags[index]) == tag:
            return True
        self.valid[index] = True
        self.tags[index] = tag
        return False

    def flush(self) -> None:
        """Invalidate every line (``wbinvd``-style; used in experiments)."""
        self.valid.fill(False)

    def evict(self, address: int) -> None:
        """Invalidate the set holding ``address`` (``clflush``-style)."""
        index, _ = self._split(address)
        self.valid[index] = False

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of (tags, valid) — pair with :meth:`restore`."""
        return self.tags.copy(), self.valid.copy()

    def restore(self, snapshot: Tuple[np.ndarray, np.ndarray]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        tags, valid = snapshot
        np.copyto(self.tags, tags)
        np.copyto(self.valid, valid)
