"""Compiled-kernel layer for the hot fold loops (see ``dispatch``).

Public surface::

    from repro import kernels

    kernels.active_backend()            # "numpy" | "cffi"
    kernels.set_backend("cffi")         # runtime override (tests/benches)
    kernels.fold_ids(...)               # dispatched ops
    kernels.kernel_dispatch_counts()    # always-on per-backend counters

Backend choice never changes results — see the determinism contract in
:mod:`repro.kernels.dispatch` and MODELING.md §12.
"""

from .dispatch import (  # noqa: F401
    AUTO_ORDER,
    KERNEL_BACKEND_ENV,
    active_backend,
    available_backends,
    backend_init_errors,
    fold_ids,
    hypothesis_hits,
    kernel_dispatch_counts,
    noise_advance,
    noise_back,
    noise_front,
    predictor_hits,
    read_levels_ids,
    read_levels_maps,
    reduce_ids,
    reset_kernel_dispatch_counts,
    set_backend,
    summarize_block,
    warmup,
)
from .cffi_backend import KERNEL_CACHE_ENV  # noqa: F401
