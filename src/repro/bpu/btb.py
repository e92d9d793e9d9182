"""Branch target buffer (paper §2).

The BTB is a direct-mapped cache of branch target addresses, updated only
when a branch is *taken*.  BranchScope explicitly does **not** attack the
BTB — that is the prior work it distinguishes itself from — but the BTB
is still part of the shared BPU and we model it for three reasons:

* completeness of the Figure 1 organisation,
* the ASLR-recovery application (§9.2) combines directional-predictor
  collisions with target information, and
* mitigation ablations need a BTB-protected-but-PHT-unprotected
  configuration to show BranchScope is "not affected by defenses against
  BTB-based attacks" (paper contribution list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["BranchTargetBuffer", "BTBEntry"]


@dataclass(frozen=True)
class BTBEntry:
    """One valid BTB entry: the tag it matched and the stored target."""

    tag: int
    target: int


class BranchTargetBuffer:
    """Direct-mapped, tagged target cache.

    Parameters
    ----------
    n_sets:
        Number of direct-mapped sets (power of two in the presets).
    tag_bits:
        Number of address bits kept as the tag above the index bits.
        Real BTBs keep partial tags; partial tags are what make
        cross-address-space BTB collisions possible in the prior-work
        attacks.
    """

    def __init__(self, n_sets: int, tag_bits: int = 16) -> None:
        if n_sets <= 0:
            raise ValueError("BTB must have at least one set")
        if tag_bits <= 0:
            raise ValueError("tag_bits must be positive")
        self.n_sets = int(n_sets)
        self.tag_bits = int(tag_bits)
        self._tag_mask = (1 << self.tag_bits) - 1
        self.tags = np.zeros(self.n_sets, dtype=np.int64)
        self.targets = np.zeros(self.n_sets, dtype=np.int64)
        self.valid = np.zeros(self.n_sets, dtype=bool)

    def _split(self, address: int) -> Tuple[int, int]:
        address = int(address)
        index = address % self.n_sets
        tag = (address // self.n_sets) & self._tag_mask
        return index, tag

    def lookup(self, address: int) -> Optional[BTBEntry]:
        """Predicted target for ``address``, or ``None`` on a BTB miss.

        A BTB miss on a conditional branch corresponds to the
        "BTB misses result in not-taken predictions" assumption of the
        prior-work attacks (paper §11); the hybrid predictor consults the
        directional side regardless, so here a miss only means no target
        is available.
        """
        index, tag = self._split(address)
        if self.valid[index] and self.tags[index] == tag:
            return BTBEntry(tag=tag, target=int(self.targets[index]))
        return None

    def allocate(self, address: int, target: int) -> None:
        """Install/refresh the entry for a *taken* branch (paper §1)."""
        index, tag = self._split(address)
        self.valid[index] = True
        self.tags[index] = tag
        self.targets[index] = int(target)

    def evict(self, address: int) -> None:
        """Invalidate whatever entry ``address`` maps to."""
        index, _ = self._split(address)
        self.valid[index] = False

    def flush(self) -> None:
        """Invalidate the whole BTB (used by the BTB-flush defense ablation)."""
        self.valid.fill(False)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of (tags, targets, valid) — pair with :meth:`restore`."""
        return self.tags.copy(), self.targets.copy(), self.valid.copy()

    def restore(
        self, snapshot: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        """Restore state captured by :meth:`snapshot`."""
        tags, targets, valid = snapshot
        np.copyto(self.tags, tags)
        np.copyto(self.targets, targets)
        np.copyto(self.valid, valid)

    def __len__(self) -> int:
        return self.n_sets
