"""Kernel backend selection, dispatch accounting, and the op surface.

The hot inner loops of the fast engines — monoid folds
(:meth:`TransitionMonoid.reduce` / :meth:`fold_table`), the manycore
per-block summary and id-space read recovery, and the batch
calibration's prefix-scan read recovery — all route through the five
ops exported here.  Two interchangeable implementations exist:

``numpy``
    Segmented-scan algorithms; always available, the correctness
    reference.
``cffi``
    A small generated-C extension of sequential loops, compiled once
    into a content-addressed cache directory; used when cffi + a C
    compiler are available.

Selection: ``REPRO_KERNEL_BACKEND`` (``auto`` | ``numpy`` | ``cffi``;
default ``auto`` prefers cffi, then numpy).
Resolution is lazy, happens at most once per process (until
:func:`set_backend` resets it), and is never silent: every op call
bumps an always-on per-backend counter (:func:`kernel_dispatch_counts`)
and a ``repro_kernel_dispatch_total{backend=...}`` metric when tracing
is enabled, and a requested-but-unavailable backend records a
``kernel_init`` fallback through the same machinery as the scalar-
engine fallbacks, so a campaign can always be attributed to the code
path that actually ran.

Determinism contract: every backend returns bit-identical outputs for
every op (TransitionMonoid ids are canonical and composition is
associative, so association order cannot matter).  Only
``summarize_block`` draws random numbers: it draws its block from its
own PCG64, seeded from the block seed and bit-exact with
``RandomizationBlock.generate`` (the numpy backend calls it; the cffi
backend replays numpy's stream in C and checks itself against numpy at
load), and never from a caller's ``Generator``, so RNG stream positions
are backend-independent.  ``tests/test_kernels.py`` enforces both across
the shipped presets.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, Optional, Tuple

from . import numpy_backend

#: Environment knob naming the kernel backend (resolved lazily).
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Preference order under ``auto``.
AUTO_ORDER: Tuple[str, ...] = ("cffi", "numpy")

_VALID = ("auto", "numpy", "cffi")

#: Resolved (implementation module, backend name); None until first use.
_ACTIVE: Optional[tuple] = None
#: Explicit override installed via :func:`set_backend` (beats the env).
_REQUESTED: Optional[str] = None

#: Always-on op-call counter per backend name (tracing on or off).
_DISPATCH_COUNTS: Dict[str, int] = {}
#: Guards the counter's read-modify-write: the manycore engine calls ops
#: from several threads at once.
_COUNTS_LOCK = threading.Lock()
#: Why a non-numpy backend failed to load, by name (diagnostics).
_INIT_ERRORS: Dict[str, str] = {}


def _load_backend(name: str):
    """Import and initialise one backend; raises on unavailability."""
    if name == "numpy":
        return numpy_backend.load()
    if name == "cffi":
        from . import cffi_backend

        return cffi_backend.load()
    raise ValueError(f"unknown kernel backend {name!r}")


def _resolve() -> tuple:
    """Pick and initialise the active backend (memoised)."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    requested = _REQUESTED
    if requested is None:
        requested = (
            os.environ.get(KERNEL_BACKEND_ENV, "auto").strip().lower()
            or "auto"
        )
    if requested not in _VALID:
        warnings.warn(
            f"{KERNEL_BACKEND_ENV}={requested!r} is not one of {_VALID}; "
            "using auto selection",
            RuntimeWarning,
            stacklevel=3,
        )
        requested = "auto"
    candidates = AUTO_ORDER if requested == "auto" else (requested, "numpy")
    for name in candidates:
        try:
            impl = _load_backend(name)
        except Exception as exc:  # missing module, compiler failure, ...
            _INIT_ERRORS[name] = f"{type(exc).__name__}: {exc}"
            # An explicitly requested backend that cannot load is a
            # loud fallback, mirroring the scalar-engine accounting; a
            # failure that names its own reason (the cffi stream canary)
            # is loud under auto too.
            reason = getattr(exc, "fallback_reason", None)
            if (
                reason is None
                and requested not in ("auto", "numpy")
                and name == requested
            ):
                reason = f"{name}_unavailable"
            if reason is not None:
                from repro.obs.trace import record_scalar_fallback

                record_scalar_fallback("kernel_init", reason)
                warnings.warn(
                    f"kernel backend {name!r} unavailable "
                    f"({_INIT_ERRORS[name]}); falling back to numpy",
                    RuntimeWarning,
                    stacklevel=3,
                )
            continue
        _ACTIVE = (impl, name)
        return _ACTIVE
    # Unreachable in practice — the numpy backend always loads.
    _ACTIVE = (numpy_backend.load(), "numpy")
    return _ACTIVE


def active_backend() -> str:
    """Name of the backend in use (resolving it on first call)."""
    return _resolve()[1]


def set_backend(name: Optional[str]) -> str:
    """Override backend selection and re-resolve immediately.

    ``name`` is one of ``auto`` / ``numpy`` / ``cffi``, or
    ``None`` to drop the override and return to the environment knob.
    Returns the name of the backend actually installed (an unavailable
    explicit choice falls back to numpy, loudly).
    """
    global _ACTIVE, _REQUESTED
    if name is not None:
        name = name.strip().lower()
        if name not in _VALID:
            raise ValueError(
                f"unknown kernel backend {name!r}; expected one of {_VALID}"
            )
    _REQUESTED = name
    _ACTIVE = None
    return active_backend()


def available_backends() -> Tuple[str, ...]:
    """Backends that can actually load in this process, probed now."""
    out = []
    for name in ("numpy", "cffi"):
        try:
            _load_backend(name)
        except Exception as exc:
            _INIT_ERRORS[name] = f"{type(exc).__name__}: {exc}"
            continue
        out.append(name)
    return tuple(out)


def backend_init_errors() -> Dict[str, str]:
    """Load failures observed so far, by backend name (copy)."""
    return dict(_INIT_ERRORS)


def kernel_dispatch_counts() -> Dict[str, int]:
    """Cumulative kernel-op dispatches per backend (copy)."""
    return dict(_DISPATCH_COUNTS)


def reset_kernel_dispatch_counts() -> None:
    """Zero the dispatch counters (tests/benches)."""
    with _COUNTS_LOCK:
        _DISPATCH_COUNTS.clear()


def ensure_initialized() -> str:
    """Resolve the backend now (worker-side hook after fork)."""
    return active_backend()


def warmup() -> str:
    """Resolve and exercise every op once so compile costs are paid
    before fork (children inherit the warm state)."""
    import numpy as np

    impl, name = _resolve()
    ct = np.array([[0, 1], [1, 1]], dtype=np.int64)
    maps = np.array([[0, 1], [1, 1]], dtype=np.int64)
    pos = np.array([0, -1], dtype=np.int64)
    ids = np.array([1, 1], dtype=np.int64)
    impl.fold_ids(pos, ids, ct, 1, 0)
    impl.reduce_ids(ids, ct, 0)
    impl.summarize_block(
        0, 3, 8, np.array([0, 1], dtype=np.int64),
        ct, 2, 1, 0, 2, 1, np.array([0, -1], dtype=np.int64), 1,
        2, 0, 2, 0, 3, 1, 0,
    )
    nodes = np.array([0], dtype=np.int64)
    impl.read_levels_ids(
        np.zeros((1, 1), dtype=np.int64), np.zeros((1, 1), np.int64),
        np.ones((1, 1), np.int64), 0, nodes, nodes + 1, nodes, nodes,
        ct.ravel(), 2, ct.ravel(), 2, maps.ravel(), 2,
    )
    impl.read_levels_maps(
        maps[:1], nodes, nodes + 1, nodes, np.array([True]), nodes,
        nodes, np.tile(maps, (2, 1)).ravel(), 2, 1,
    )
    return name


def _dispatch():
    """Resolve, count, and (when tracing) meter one op call."""
    impl, name = _resolve()
    with _COUNTS_LOCK:
        _DISPATCH_COUNTS[name] = _DISPATCH_COUNTS.get(name, 0) + 1
    from repro.obs.trace import TRACER

    if TRACER is not None and TRACER.metrics is not None:
        TRACER.metrics.counter(
            "repro_kernel_dispatch_total",
            "kernel-op calls per compiled/fallback backend",
            labels=("backend",),
        ).inc(1, backend=name)
    return impl


# -- dispatched op surface ---------------------------------------------------


def fold_ids(positions, ids, compose_table, n_out, identity=0):
    """Per-slot composition of the map ids hitting each output slot."""
    return _dispatch().fold_ids(positions, ids, compose_table, n_out, identity)


def reduce_ids(ids, compose_table, identity=0):
    """Left-to-right composition of a map-id sequence into one id."""
    return _dispatch().reduce_ids(ids, compose_table, identity)


def summarize_block(
    seed, n_branches, base_address, outcome_ids, compose_table, n_b,
    shift_b, tb, n_g, shift_g, pos_table, ghr_len, n_sel, tsel, n_sets,
    tset, tag_mask, n_tracked, identity=0,
):
    """Fused per-block campaign summary (GHR walk + both PHT folds) of
    the block ``RandomizationBlock.generate(seed, n_branches,
    base_address)``, drawn by the op itself.

    ``shift_b``/``shift_g`` are the two PHTs' index hashes as
    :func:`repro.bpu.hashes.kernel_shift` encodes them.  Raises
    ``ValueError`` for ``n_branches <= 0``, as ``generate`` does.
    """
    return _dispatch().summarize_block(
        seed, n_branches, base_address, outcome_ids, compose_table, n_b,
        shift_b, tb, n_g, shift_g, pos_table, ghr_len, n_sel, tsel, n_sets,
        tset, tag_mask, n_tracked, identity,
    )


def read_levels_ids(
    lift0, read_pos, read_step, d, hit_pos, hit_time, hit_step, v0,
    pow_flat, pow_k, ct_flat, ct_size, maps_flat, n_levels, cache=None,
):
    """Chunked id-space read-level recovery (manycore phase 2), from
    the reads in slot order and the noise hits in time order."""
    return _dispatch().read_levels_ids(
        lift0, read_pos, read_step, d, hit_pos, hit_time, hit_step, v0,
        pow_flat, pow_k, ct_flat, ct_size, maps_flat, n_levels, cache,
    )


def read_levels_maps(
    tracked_maps, p_sorted, remaining, node_sel, first, v0_nodes,
    out_slot, step4_flat, n_levels, out_width,
):
    """Per-trial level-space read recovery (batch calibration phase 2)."""
    return _dispatch().read_levels_maps(
        tracked_maps, p_sorted, remaining, node_sel, first, v0_nodes,
        out_slot, step4_flat, n_levels, out_width,
    )
