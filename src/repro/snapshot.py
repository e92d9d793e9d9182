"""Canonical digests of core checkpoints.

:meth:`~repro.cpu.core.PhysicalCore.checkpoint` returns a tree of plain
copies — dicts, tuples, ``ndarray`` copies and integers — and restore
copies them back with ``np.copyto``.  :func:`state_digest` hashes such a
tree, so two machine states can be compared across processes and runs.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

__all__ = ["state_digest"]


def state_digest(checkpoint: Any) -> str:
    """Canonical SHA-256 of a :meth:`PhysicalCore.checkpoint` tree.

    Walks the nested dict/tuple/array structure in deterministic (sorted
    dict key) order and hashes each array's dtype, shape and raw bytes,
    so the same state captured in different processes digests
    identically.  The resilience layer uses this to assert that a
    crash-resumed experiment left the simulated machine bit-identical to
    an uninterrupted run (``tests/test_resilience.py``, the CI
    chaos-smoke job).
    """
    h = hashlib.sha256()

    def feed(obj: Any) -> None:
        if isinstance(obj, dict):
            h.update(b"{")
            for key in sorted(obj, key=repr):
                h.update(repr(key).encode())
                feed(obj[key])
            h.update(b"}")
        elif isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            h.update(f"<{arr.dtype!s}{arr.shape!r}>".encode())
            h.update(arr.tobytes())
        elif isinstance(obj, (tuple, list)):
            h.update(b"(")
            for item in obj:
                feed(item)
            h.update(b")")
        else:
            h.update(repr(obj).encode())

    feed(checkpoint)
    return h.hexdigest()
