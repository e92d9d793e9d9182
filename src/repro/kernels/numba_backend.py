"""Numba kernel backend — ``@njit(cache=True)`` sequential loops.

Import-gated: :func:`load` raises if numba is not installed, and the
dispatcher falls back (loudly) to the next backend.  The jitted loops
are literal translations of the C backend's; on-disk caching keeps the
JIT cost to the first process that ever runs an op, and
:func:`repro.kernels.warmup` pays it before the trial pool forks.
"""

from __future__ import annotations

import sys

import numpy as np

NAME = "numba"

_compiled = None


def _build():
    from numba import njit

    @njit(cache=True)
    def _fold_ids(positions, ids, ct, size, acc):
        for i in range(len(positions)):
            p = positions[i]
            if p >= 0:
                acc[p] = ct[acc[p] * size + ids[i]]

    @njit(cache=True)
    def _reduce_ids(ids, ct, size, identity):
        a = identity
        for i in range(len(ids)):
            a = ct[a * size + ids[i]]
        return a

    @njit(cache=True)
    def _summarize_block(
        addresses, outcomes, oid, ct, size, n_b, shift_b, tb, n_g,
        shift_g, pos_table, ghr_mask, fold_w, fold_mask, n_sel, tsel,
        n_sets, tset, tag_mask, identity, g_acc,
    ):
        bim = identity
        ghr = np.int64(0)
        touched = False
        block_tag = np.int64(-1)
        for i in range(len(addresses)):
            a = addresses[i]
            o = oid[outcomes[i]]
            # Index hashes arrive as XOR-fold shifts (0 = plain modulo).
            ab = a
            if shift_b > 0:
                ab = a ^ (a >> shift_b)
            if ab % n_b == tb:
                bim = ct[bim * size + o]
            # Fold the (masked) history down to index width before the
            # XOR — identity when the history already fits.
            h = ghr
            folded = np.int64(0)
            while h != 0:
                folded ^= h & fold_mask
                h >>= fold_w
            ag = a ^ folded
            if shift_g > 0:
                ag = ag ^ (ag >> shift_g)
            p = pos_table[ag % n_g]
            if p >= 0:
                g_acc[p] = ct[g_acc[p] * size + o]
            ghr = ((ghr << 1) | np.int64(outcomes[i])) & ghr_mask
            if a % n_sel == tsel:
                touched = True
            if a % n_sets == tset:
                block_tag = (a // n_sets) & tag_mask
        return bim, touched, block_tag

    @njit(cache=True)
    def _read_levels_ids(
        lift0, p_sorted, remaining, step_ids, first, v0, out_slot,
        pow_flat, pow_k, ct, size, maps, n_levels, out,
    ):
        chunk = lift0.shape[0]
        n_nodes = len(p_sorted)
        for c in range(chunk):
            cur = np.int64(0)
            for j in range(n_nodes):
                if first[j]:
                    cur = v0[j]
                jump = pow_flat[
                    lift0[c, p_sorted[j]] * pow_k + remaining[j]
                ]
                val = maps[jump * n_levels + cur]
                slot = out_slot[j]
                if slot >= 0:
                    out[c, slot] = val
                cur = maps[step_ids[j] * n_levels + val]

    @njit(cache=True)
    def _read_levels_maps(
        tracked_maps, p_sorted, remaining, node_sel, first, v0,
        out_slot, step4, n_levels, out,
    ):
        cur = np.int64(0)
        for j in range(len(p_sorted)):
            if first[j]:
                cur = v0[j]
            base = p_sorted[j] * n_levels
            val = cur
            for _ in range(remaining[j]):
                val = tracked_maps[base + val]
            slot = out_slot[j]
            if slot >= 0:
                out[slot] = val
            cur = step4[node_sel[j] * n_levels + val]

    return {
        "fold_ids": _fold_ids,
        "reduce_ids": _reduce_ids,
        "summarize_block": _summarize_block,
        "read_levels_ids": _read_levels_ids,
        "read_levels_maps": _read_levels_maps,
    }


def load():
    """Compile (or re-use cached) jitted loops; returns this module."""
    global _compiled
    if _compiled is None:
        _compiled = _build()
    return sys.modules[__name__]


def _i64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _b(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.bool_)


# -- ops --------------------------------------------------------------------


def fold_ids(positions, ids, compose_table, n_out, identity=0):
    ct = _i64(compose_table)
    acc = np.full(int(n_out), identity, dtype=np.int64)
    _compiled["fold_ids"](
        _i64(positions), _i64(ids), ct.ravel(), ct.shape[1], acc
    )
    return acc


def reduce_ids(ids, compose_table, identity=0):
    ct = _i64(compose_table)
    return int(
        _compiled["reduce_ids"](
            _i64(ids), ct.ravel(), ct.shape[1], np.int64(identity)
        )
    )


def summarize_block(
    addresses, outcomes, outcome_ids, compose_table, n_b, shift_b, tb,
    n_g, shift_g, pos_table, ghr_len, n_sel, tsel, n_sets, tset,
    tag_mask, n_tracked, identity=0,
):
    ct = _i64(compose_table)
    g_acc = np.full(int(n_tracked), identity, dtype=np.int64)
    fold_w = max(1, int(n_g).bit_length() - 1)
    bim, touched, block_tag = _compiled["summarize_block"](
        _i64(addresses), _b(outcomes), _i64(outcome_ids), ct.ravel(),
        ct.shape[1], np.int64(n_b), np.int64(shift_b), np.int64(tb),
        np.int64(n_g), np.int64(shift_g),
        _i64(pos_table), np.int64((1 << int(ghr_len)) - 1),
        np.int64(fold_w), np.int64((1 << fold_w) - 1),
        np.int64(n_sel), np.int64(tsel), np.int64(n_sets),
        np.int64(tset), np.int64(tag_mask), np.int64(identity), g_acc,
    )
    return int(bim), g_acc, bool(touched), int(block_tag)


def read_levels_ids(
    lift0, p_sorted, remaining, step_ids, first, v0_nodes, out_slot,
    pow_flat, pow_k, ct_flat, ct_size, maps_flat, n_levels, out_width,
    cache=None,
):
    lift0 = _i64(lift0)
    if cache is not None and "numba_args" in cache:
        args = cache["numba_args"]
    else:
        args = (
            _i64(p_sorted), _i64(remaining), _i64(step_ids), _b(first),
            _i64(v0_nodes), _i64(out_slot), _i64(pow_flat),
            _i64(ct_flat), _i64(maps_flat),
        )
        if cache is not None:
            cache["numba_args"] = args
    p_s, rem, sid, fst, v0, oslot, powf, ctf, mapsf = args
    out = np.zeros((lift0.shape[0], int(out_width)), dtype=np.int64)
    _compiled["read_levels_ids"](
        lift0, p_s, rem, sid, fst, v0, oslot, powf, np.int64(pow_k),
        ctf, np.int64(ct_size), mapsf, np.int64(n_levels), out,
    )
    return out


def read_levels_maps(
    tracked_maps, p_sorted, remaining, node_sel, first, v0_nodes,
    out_slot, step4_flat, n_levels, out_width,
):
    out = np.zeros(int(out_width), dtype=np.int64)
    _compiled["read_levels_maps"](
        _i64(tracked_maps).ravel(), _i64(p_sorted), _i64(remaining),
        _i64(node_sel), _b(first), _i64(v0_nodes), _i64(out_slot),
        _i64(step4_flat), np.int64(n_levels), out,
    )
    return out
