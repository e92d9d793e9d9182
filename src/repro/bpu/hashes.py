"""Index-hash registry for PHT-style table lookups.

The paper's reverse engineering (§6.3) found byte-granular indexing and
a power-of-two table on Intel parts, consistent with a plain modulo.
Recent Arm reverse-engineering work ("Dissecting Conditional Branch
Predictors of Apple Firestorm and Qualcomm Oryon", arXiv:2411.13900;
"Branch Target Buffer Reverse Engineering on Arm", arXiv:2412.05413)
shows other vendors *fold* upper PC/history bits into the index instead,
so equal low-order bits no longer guarantee a collision.

This module is the single source of truth for those index functions:
the component predictors (:mod:`repro.bpu.bimodal`,
:mod:`repro.bpu.gshare`), the vectorised block compiler
(:mod:`repro.core.randomizer`) and the batch probe scan and calibration
engines (:mod:`repro.core.batch_probe`,
:mod:`repro.core.calibration_batch`) all call :func:`apply_hash`, so a
modelled hash can never drift between them.  The compiled kernels
(:mod:`repro.kernels`) cannot call Python per branch; they take each
hash as the integer :func:`kernel_shift` returns, and a registered hash
without such an encoding raises rather than silently indexing by
modulo.  Three callers hand hashes to the kernels: the manycore engine
(:mod:`repro.core.manycore`, through ``summarize_block``), the
fuzzer's preset oracle (:mod:`repro.fuzz.oracle`, through
``predictor_hits``) and its hypothesis lattice
(:mod:`repro.fuzz.infer`, through ``hypothesis_hits``), so the oracle
and the inference engine meet where ``tests/test_kernels.py`` pins
every kernel encoding to :data:`INDEX_HASHES`.

The hash applies to *probe/target and block-branch* PHT indices only.
The pre-drawn system-noise model
(:func:`repro.system.noise.apply_noise_draw`) indexes the bimodal PHT
with a plain ``addresses % n`` on every preset and draws its gshare
indices directly, and selector and branch-identification indices are
plain modulo everywhere; the fast engines mirror exactly that split.

Every hash works elementwise on both Python ints and numpy integer
arrays, and reduces into ``range(n_entries)``.

* ``"mod"`` — ``mixed % n``: the Intel model, bit-compatible with every
  engine that predates this module.
* ``"fold"`` — ``(mixed ^ (mixed >> s)) % n`` with ``s = log2(n)``: one
  XOR-fold of the next ``s`` address bits before the modulo, the
  Arm-flavoured model.  Two addresses that agree in the low ``s`` bits
  but differ above them *mod*-collide yet *fold*-differ — exactly the
  signature the fuzzer uses to tell the two families apart.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = [
    "INDEX_HASHES",
    "apply_hash",
    "fast_mod",
    "fold_history",
    "history_fold_width",
    "kernel_shift",
    "validate_hash",
]


def _mod(mixed, n_entries: int):
    return mixed % n_entries


def fast_mod(values, n: int):
    """``values % n``, as one AND when ``n`` is a power of two.

    Equal to ``%`` for every integer input (two's complement makes the
    AND a floor modulo), and several times cheaper over large arrays.
    """
    if n & (n - 1) == 0:
        return values & (n - 1)
    return values % n


def _fold_shift(n_entries: int) -> int:
    """Fold distance: the table's index width (floor log2)."""
    return max(1, int(n_entries).bit_length() - 1)


def _fold(mixed, n_entries: int):
    shift = _fold_shift(n_entries)
    return (mixed ^ (mixed >> shift)) % n_entries


#: Registry of index hashes; new entries must work on scalars *and*
#: numpy arrays and return values in ``range(n_entries)``.
INDEX_HASHES: Dict[str, Callable] = {
    "mod": _mod,
    "fold": _fold,
}


def validate_hash(name: str) -> str:
    """Return ``name`` if registered, else a ``KeyError`` naming the options."""
    if name not in INDEX_HASHES:
        raise KeyError(
            f"unknown index hash {name!r}; valid hashes: "
            + ", ".join(sorted(INDEX_HASHES))
        )
    return name


def apply_hash(name: str, mixed, n_entries: int):
    """Map a mixed address value into ``range(n_entries)`` under hash ``name``.

    ``mixed`` may be a Python int or a numpy integer array; the result
    has the same shape.
    """
    return INDEX_HASHES[validate_hash(name)](mixed, n_entries)


#: How the compiled kernels encode each hash: table size -> XOR-fold
#: shift ``s``.  A kernel computes ``x ^ (x >> s)`` when ``s > 0`` and
#: then ``% n``, so ``0`` is plain modulo.  Every :data:`INDEX_HASHES`
#: entry needs one (``tests/test_kernels.py`` checks both registries
#: agree).
_KERNEL_SHIFTS: Dict[str, Callable[[int], int]] = {
    "mod": lambda n_entries: 0,
    "fold": _fold_shift,
}


def kernel_shift(name: str, n_entries: int) -> int:
    """The integer the kernel backends implement hash ``name`` with.

    ``0`` for ``"mod"``; the fold distance ``floor(log2 n)`` for
    ``"fold"``.  Raises ``NotImplementedError`` for a registered hash
    that has no kernel encoding, so a new hash can never be replayed as
    a modulo by mistake.
    """
    validate_hash(name)
    if name not in _KERNEL_SHIFTS:
        raise NotImplementedError(
            f"index hash {name!r} has no kernel encoding; add it to "
            "repro.bpu.hashes._KERNEL_SHIFTS and to every kernel backend"
        )
    return int(_KERNEL_SHIFTS[name](n_entries))


def history_fold_width(n_entries: int) -> int:
    """The table's index width in bits (floor log2) — the chunk size a
    longer global history folds down to before entering the index."""
    return max(1, int(n_entries).bit_length() - 1)


def fold_history(history, length: int, n_entries: int):
    """Fold an ``length``-bit history value to the table's index width.

    gshare XORs the global history into the PC before indexing, but a
    history longer than the index simply cannot fit: real predictors
    compress it with a circular XOR of index-width chunks (Michaud's
    *folded history*, the construction TAGE made standard).  Without
    the fold, history bits above the index width would be architecturally
    invisible — and the fuzzer could never recover a preset's history
    length past ``log2(table)``.  Identity when the history already
    fits (``length <= width``), which keeps every pre-zoo Sandy
    Bridge/Haswell behaviour bit-identical.

    Works elementwise on Python ints and numpy integer arrays.  Every
    engine that mixes history into a gshare index — the scalar
    predictor, the batch scan, the block compiler, the calibration
    closed form and the kernel backends — must call this (or replicate
    it exactly): ``tests/test_fuzz.py`` and the engine differentials
    pin them together.
    """
    width = history_fold_width(n_entries)
    if length <= width:
        return history
    mask = (1 << width) - 1
    folded = history & mask
    for chunk in range(width, length, width):
        folded = folded ^ ((history >> chunk) & mask)
    return folded
