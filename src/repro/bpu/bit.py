"""Branch identification table: "has the BPU seen this branch recently?"

Paper §5.1 establishes experimentally that *new* branches — ones whose
information is not stored in the predictor history — are predicted by the
1-level predictor, and §5.2 builds both halves of the attack on that
fact: the spy cycles through fresh branch addresses so its own probes are
always 1-level, and the 100k-branch randomisation block evicts the
victim's branch so the victim restarts in 1-level mode too.

Real hardware implements "seen recently" implicitly in its allocation
policies; we model it explicitly as a direct-mapped, partially-tagged
table that allocates on every executed branch.  A branch hits the table
iff its set holds its tag; executing many other branches that alias the
set evicts it — exactly the eviction behaviour the randomisation block
needs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["BranchIdentificationTable"]


class BranchIdentificationTable:
    """Direct-mapped presence tracker for recently executed branches."""

    def __init__(self, n_sets: int, tag_bits: int = 12) -> None:
        if n_sets <= 0:
            raise ValueError("BIT must have at least one set")
        if tag_bits <= 0:
            raise ValueError("tag_bits must be positive")
        self.n_sets = int(n_sets)
        self.tag_bits = int(tag_bits)
        self._tag_mask = (1 << self.tag_bits) - 1
        self.tags = np.zeros(self.n_sets, dtype=np.int64)
        self.valid = np.zeros(self.n_sets, dtype=bool)

    def _split(self, address: int) -> Tuple[int, int]:
        address = int(address)
        return address % self.n_sets, (address // self.n_sets) & self._tag_mask

    def contains(self, address: int) -> bool:
        """Whether the BPU currently "knows" the branch at ``address``."""
        index, tag = self._split(address)
        return bool(self.valid[index]) and int(self.tags[index]) == tag

    def insert(self, address: int) -> None:
        """Record an execution of the branch at ``address`` (may evict)."""
        index, tag = self._split(address)
        self.valid[index] = True
        self.tags[index] = tag

    def evict(self, address: int) -> None:
        """Drop whatever branch occupies ``address``'s set."""
        index, _ = self._split(address)
        self.valid[index] = False

    def flush(self) -> None:
        """Forget every branch (used when modelling BPU-flush defenses)."""
        self.valid.fill(False)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of (tags, valid) — pair with :meth:`restore`."""
        return self.tags.copy(), self.valid.copy()

    def restore(self, snapshot: Tuple[np.ndarray, np.ndarray]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        tags, valid = snapshot
        np.copyto(self.tags, tags)
        np.copyto(self.valid, valid)

    def __len__(self) -> int:
        return self.n_sets
