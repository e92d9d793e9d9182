"""Pure-numpy kernel implementations — the always-correct reference.

These are the PR 6 algorithms, extracted verbatim from
``bpu/fsm.py`` / ``core/manycore.py`` / ``core/calibration_batch.py``
behind the :mod:`repro.kernels` op signatures: segmented Hillis-Steele
scans for the monoid folds, a sliding-window matmul for the GHR
trajectory, and the binary-lifting / stride-doubling passes for the
read-level recovery.  The cffi backend replaces each op with a
sequential O(N) loop; TransitionMonoid ids are canonical and
composition is associative, so every association order produces the
same ids and the backends are bit-identical by construction (the
differential suite in ``tests/test_kernels.py`` pins it anyway).

The ops that draw never draw from a caller's generator, so backend
choice can never move an RNG stream position: ``summarize_block``
draws its block from its own generator seeded by the block seed
(``RandomizationBlock.generate``), and the noise ops run
``draw_noise`` on a fresh generator set to the PCG64 position they are
given, once per plan when the plan's memo is passed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bpu.hashes import fast_mod, fold_history

NAME = "numpy"


def load():
    """The numpy backend is always available; its impl is this module."""
    import sys

    return sys.modules[__name__]


# -- monoid folds -----------------------------------------------------------


def fold_ids(
    positions: np.ndarray,
    ids: np.ndarray,
    compose_table: np.ndarray,
    n_out: int,
    identity: int = 0,
) -> np.ndarray:
    """Compose, per output position, the map ids that hit it.

    ``positions[i]`` (program order) is the output slot branch ``i``
    folds into, or ``-1`` to skip the branch; ``ids[i]`` is its map id.
    Returns ``(n_out,)`` composed ids, ``identity`` for untouched slots.
    """
    out = np.full(int(n_out), identity, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions < 0).any():
        keep = positions >= 0
        positions = positions[keep]
        ids = np.asarray(ids, dtype=np.int64)[keep]
    n = positions.size
    if n == 0:
        return out
    # Radix-friendly sort key for the small-position common case.
    if n_out <= np.iinfo(np.int16).max:
        sort_key = positions.astype(np.int16)
    else:
        sort_key = positions
    order = np.argsort(sort_key, kind="stable")
    seg = positions[order]
    vals = np.asarray(ids, dtype=np.int64)[order]
    if vals.base is not None or not vals.flags.writeable:
        vals = vals.copy()
    # Sparse segmented Hillis-Steele: only positions whose stride
    # neighbour shares their segment are touched, and once a stride
    # exceeds the longest segment no larger stride can match either.
    offset = 1
    while offset < n:
        same = np.nonzero(seg[offset:] == seg[:-offset])[0] + offset
        if not len(same):
            break
        vals[same] = compose_table[vals[same - offset], vals[same]]
        offset *= 2
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = seg[1:] != seg[:-1]
    out[seg[last]] = vals[last]
    return out


def reduce_ids(
    ids: np.ndarray, compose_table: np.ndarray, identity: int = 0
) -> int:
    """Compose a sequence of map ids left-to-right into one id."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return int(identity)
    while ids.size > 1:
        odd = ids.size % 2
        paired = compose_table[ids[: ids.size - odd : 2], ids[1::2]].astype(
            np.int64
        )
        ids = np.concatenate([paired, ids[-1:]]) if odd else paired
    return int(ids[0])


# -- fused per-block summary (manycore phase 0) ------------------------------


def _ghr_trajectory(outcomes: np.ndarray, ghr_bits: int) -> np.ndarray:
    """GHR seen by each branch from all-zero history (sliding matmul)."""
    n = len(outcomes)
    padded = np.zeros(n - 1 + ghr_bits, dtype=np.int64)
    if n > 1:
        padded[ghr_bits:] = outcomes[:-1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, ghr_bits)
    weights = np.left_shift(
        np.int64(1), np.arange(ghr_bits - 1, -1, -1, dtype=np.int64)
    )
    return windows[:n] @ weights


def _hashed(values: np.ndarray, n: int, shift: int) -> np.ndarray:
    """PHT index under a kernel hash encoding
    (:func:`repro.bpu.hashes.kernel_shift`): XOR-fold by ``shift`` when
    it is non-zero, then the modulo."""
    if shift:
        values = values ^ (values >> shift)
    return fast_mod(values, n)


def summarize_block(
    seed: int,
    n_branches: int,
    base_address: int,
    outcome_ids: np.ndarray,
    compose_table: np.ndarray,
    n_b: int,
    shift_b: int,
    tb: int,
    n_g: int,
    shift_g: int,
    pos_table: np.ndarray,
    ghr_len: int,
    n_sel: int,
    tsel: int,
    n_sets: int,
    tset: int,
    tag_mask: int,
    n_tracked: int,
    identity: int = 0,
):
    """One randomisation block's campaign-relevant footprint, fused.

    The block is ``RandomizationBlock.generate(seed, n_branches,
    base_address)``.  Returns ``(bim_id, g_ids, tsel_touched,
    block_tag)`` — the target bimodal entry's fold id, the fold id per
    tracked gshare entry, whether the block touches the target's
    selector entry, and the last identification tag written to the
    target's BIT set (-1 if none).  ``shift_b``/``shift_g`` encode each
    PHT's index hash (:func:`repro.bpu.hashes.kernel_shift`); selector
    and BIT indices are plain modulo.
    """
    # Lazy: the randomizer imports this package.
    from repro.core.randomizer import RandomizationBlock

    block = RandomizationBlock.generate(seed, n_branches, base_address)
    addresses = block.addresses
    outcomes = block.outcomes
    step_ids = outcome_ids[outcomes.astype(np.int64)]

    on_target = _hashed(addresses, n_b, shift_b) == tb
    bim_id = reduce_ids(step_ids[on_target], compose_table, identity)

    trajectory = fold_history(_ghr_trajectory(outcomes, ghr_len), ghr_len, n_g)
    g_indices = _hashed(addresses ^ trajectory, n_g, shift_g).astype(np.int64)
    pos = pos_table[g_indices]
    g_ids = fold_ids(pos, step_ids, compose_table, n_tracked, identity)

    tsel_touched = bool((fast_mod(addresses, n_sel) == tsel).any())
    covering = np.nonzero(fast_mod(addresses, n_sets) == tset)[0]
    if len(covering):
        block_tag = int((addresses[covering[-1]] // n_sets) & tag_mask)
    else:
        block_tag = -1
    return int(bim_id), g_ids, tsel_touched, block_tag


# -- a trial plan's noise (manycore phase 1) ---------------------------------


def _noise(stream, n, n_gshare, region, cache):
    # Lazy: the noise module imports the core, which imports this package.
    from repro.system.noise import draw_noise_at

    return draw_noise_at(stream, n, n_gshare, region, cache)


def _gap_epochs(offsets: np.ndarray) -> np.ndarray:
    """The gap (epoch) of every noise branch."""
    offsets = np.asarray(offsets, dtype=np.int64)
    gaps = offsets[1:] - offsets[:-1]
    return np.repeat(np.arange(len(gaps), dtype=np.int64), gaps)


def _hits(idx, epochs, outcomes, last_read):
    """The hits the noise makes on entries read later: ``(entry,
    epoch, outcome)`` arrays in time order, kept iff ``epoch`` is
    before the entry's last read (``-1`` for an entry never read)."""
    keep = np.flatnonzero(epochs < np.asarray(last_read)[idx])
    return (
        np.asarray(idx[keep], dtype=np.int64),
        epochs[keep],
        outcomes[keep].astype(np.int64),
    )


def noise_advance(stream, n, n_gshare, region, cache=None):
    """The PCG64 position :func:`repro.system.noise.draw_noise` leaves
    after drawing ``n`` branches from ``stream``.

    Draws the noise (into ``cache`` when given, so the plan that owns
    the stream never draws it again).
    """
    return _noise(stream, n, n_gshare, region, cache)[1]


def noise_front(
    stream, n, n_gshare, region, offsets, n_b, last_b, n_sel, tsel,
    n_sets, tset, tag_mask, ghr_len, cache=None,
):
    """What a plan's noise addresses and outcomes leave, per gap.

    Returns ``(tails, noise_tag, hits_b, on_tsel, outcomes)``: each
    gap's GHR tail (:func:`repro.system.noise.gap_tails`), the tag of
    its last branch on BIT set ``tset`` (-1 if none), the bimodal hits
    (plain modulo ``n_b``) before each entry's ``last_b`` read, the
    positions of the branches on selector entry ``tsel``, and the
    outcome bits.
    """
    from repro.system.noise import gap_tails

    draw = _noise(stream, n, n_gshare, region, cache)[0]
    epochs = _gap_epochs(offsets)
    addresses = draw.addresses
    hits_b = _hits(fast_mod(addresses, n_b), epochs, draw.outcomes, last_b)
    on_tsel = np.flatnonzero(fast_mod(addresses, n_sel) == tsel)
    noise_tag = np.full(len(offsets) - 1, -1, dtype=np.int64)
    on_tset = np.flatnonzero(fast_mod(addresses, n_sets) == tset)
    if len(on_tset):
        last = np.full(len(noise_tag), -1, dtype=np.int64)
        np.maximum.at(last, epochs[on_tset], on_tset)
        rows = last >= 0
        noise_tag[rows] = (addresses[last[rows]] // n_sets) & tag_mask
    tails = gap_tails(draw.outcomes, offsets, ghr_len)
    return tails, noise_tag, hits_b, on_tsel, draw.outcomes


def noise_back(
    stream, n, n_gshare, region, offsets, outcomes, on_tsel, last_g,
    cache=None,
):
    """What a plan's gshare indices and selector nudges leave, per gap.

    ``outcomes`` and ``on_tsel`` are :func:`noise_front`'s.  Returns ``(drift, hits_g)``: each gap's
    summed nudge on the selector entry, and the gshare hits before each
    entry's ``last_g`` read.
    """
    draw = _noise(stream, n, n_gshare, region, cache)[0]
    epochs = _gap_epochs(offsets)
    hits_g = _hits(draw.gshare_indices, epochs, outcomes, last_g)
    drift = np.zeros(len(offsets) - 1, dtype=np.int64)
    np.add.at(drift, epochs[on_tsel], draw.nudges[on_tsel])
    return drift, hits_g


# -- id-space read-level recovery (manycore phase 2) -------------------------


def _node_order(
    p: np.ndarray,
    t: np.ndarray,
    read: np.ndarray,
    seq: np.ndarray,
    p_span: int,
    t_span: int,
) -> np.ndarray:
    """``np.lexsort((seq, read, t, p))`` through one fused int64 key.

    ``p < p_span``, ``t < t_span``, ``read`` is 0/1 and ``seq`` is
    non-negative, and no two nodes share all four keys, so the fused
    keys are distinct and one plain ``argsort`` gives the identical
    permutation several times faster.  Spans too large for int64 take
    ``lexsort`` itself.
    """
    seq_span = int(seq.max()) + 1 if len(seq) else 1
    if p_span * t_span * 2 * seq_span >= 2**62:
        return np.lexsort((seq, read, t, p))
    return np.argsort(((p * t_span + t) * 2 + read) * seq_span + seq)


def _entry_schedule(read_pos, read_step, d, hit_pos, hit_time, hit_step, v0):
    """Phase 2's events sorted by (entry, time, hit-before-read, seq),
    with everything the vectorised scan needs: per node its entry, the
    epochs since the entry's previous node, its step id, whether it
    heads its entry's segment and the entry's initial level; the read
    nodes and their flat slots; and the stride-doubling schedule."""
    R2, n_slots = read_pos.shape
    n_reads = R2 * n_slots
    read_time = np.arange(R2)[:, None] + (np.arange(n_slots) >= d)
    node_p = np.concatenate([read_pos.ravel(), hit_pos])
    node_t = np.concatenate([read_time.ravel(), hit_time])
    node_read = np.concatenate(
        [np.ones(n_reads, dtype=np.int64), np.zeros(len(hit_pos), np.int64)]
    )
    node_seq = np.concatenate([np.arange(n_reads), np.arange(len(hit_pos))])
    order = _node_order(
        node_p, node_t, node_read, node_seq, len(v0), R2 + 1
    )
    p_sorted = node_p[order]
    t_sorted = node_t[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = p_sorted[1:] != p_sorted[:-1]
    prev_t = np.zeros_like(t_sorted)
    prev_t[1:] = t_sorted[:-1]
    prev_t[first] = 0
    step_ids = np.concatenate([read_step.ravel(), hit_step])[order]
    # Reads come first in the concatenation, in slot order, so a read
    # node's source index is its flat slot.
    reads = np.nonzero(order < n_reads)[0]
    schedule = []
    stride = 1
    while stride < len(order):
        valid = p_sorted[stride:] == p_sorted[:-stride]
        if not valid.any():
            break
        schedule.append((stride, np.nonzero(valid)[0] + stride))
        stride <<= 1
    return (
        p_sorted, t_sorted - prev_t, step_ids, first, v0[p_sorted], reads,
        order[reads], schedule,
    )


def read_levels_ids(
    lift0: np.ndarray,
    read_pos: np.ndarray,
    read_step: np.ndarray,
    d: int,
    hit_pos: np.ndarray,
    hit_time: np.ndarray,
    hit_step: np.ndarray,
    v0: np.ndarray,
    pow_flat: np.ndarray,
    pow_k: int,
    ct_flat: np.ndarray,
    ct_size: int,
    maps_flat: np.ndarray,
    n_levels: int,
    cache: Optional[dict] = None,
) -> np.ndarray:
    """Read-before-write levels for a chunk of instances, in id space.

    ``lift0`` is ``(chunk, n_tracked)`` block-fold ids per instance.
    ``read_pos``/``read_step`` are ``(R2, n_slots)``: the tracked entry
    and step id of every probe read, in slot order; slot ``j`` of
    repetition ``r`` reads at time ``r`` when ``j < d`` (scramble) and
    ``r + 1`` otherwise.  ``hit_pos``/``hit_time``/``hit_step`` list the
    noise hits on tracked entries in time order, ``v0`` each tracked
    entry's initial level, and ``pow_flat`` the flattened
    ``POW[element, k]`` table with ``pow_k`` columns.  Returns
    ``(chunk, R2, n_slots)`` levels.

    This backend sorts the events entry-major and runs a stride-doubling
    scan down each entry's segment; ``cache`` (when provided) memoises
    that schedule across calls with the same inputs.
    """
    if cache is not None and "sched" in cache:
        sched = cache["sched"]
    else:
        sched = _entry_schedule(
            read_pos, read_step, d, hit_pos, hit_time, hit_step, v0
        )
        if cache is not None:
            cache["sched"] = sched
    p_sorted, remaining, step_ids, first, v0_nodes, reads, slots, schedule = (
        sched
    )
    chunk = lift0.shape[0]
    jump = pow_flat[lift0[:, p_sorted] * pow_k + remaining[None, :]]
    transfer = ct_flat[jump * ct_size + step_ids[None, :]]
    for stride, upd in schedule:
        transfer[:, upd] = ct_flat[
            transfer[:, upd - stride] * ct_size + transfer[:, upd]
        ]
    after = maps_flat[transfer * n_levels + v0_nodes[None, :]]
    before = np.empty_like(after)
    if len(p_sorted):
        before[:, 0] = 0
        before[:, 1:] = after[:, :-1]
    incoming = np.where(first[None, :], v0_nodes[None, :], before)
    values = maps_flat[jump * n_levels + incoming]
    read_flat = np.empty((chunk, read_pos.size), dtype=np.int64)
    read_flat[:, slots] = values[:, reads]
    return read_flat.reshape((chunk,) + read_pos.shape)


# -- level-space read recovery (batch calibration phase 2) -------------------


def read_levels_maps(
    tracked_maps: np.ndarray,
    p_sorted: np.ndarray,
    remaining: np.ndarray,
    node_sel: np.ndarray,
    first: np.ndarray,
    v0_nodes: np.ndarray,
    out_slot: np.ndarray,
    step4_flat: np.ndarray,
    n_levels: int,
    out_width: int,
) -> np.ndarray:
    """Read-before-write levels for one trial, in level-map space.

    ``tracked_maps[p]`` is tracked entry ``p``'s whole-block transition
    map (level -> level); each node applies that map ``remaining[j]``
    times (binary lifting), emits the landed level into ``out_slot[j]``
    when non-negative, then steps by row ``node_sel[j]`` of the stacked
    ``step4_flat`` table (noise rows first, execute rows offset by
    ``2 * n_levels`` — the caller pre-adds the read offset).  Returns
    ``(out_width,)`` levels.
    """
    n_nodes = len(p_sorted)
    read_flat = np.zeros(int(out_width), dtype=np.int64)
    if n_nodes == 0:
        return read_flat
    arange_n = np.arange(n_nodes)
    # Binary lifting: jump[j] = tracked_maps[p_sorted[j]] ** remaining[j].
    jump = np.tile(np.arange(n_levels, dtype=np.int64), (n_nodes, 1))
    lift = np.ascontiguousarray(tracked_maps).astype(np.int64)
    lift_base = (
        np.arange(len(tracked_maps))[:, None] * n_levels
    )
    rem = np.asarray(remaining, dtype=np.int64)
    while True:
        apply = np.nonzero(rem & 1)[0]
        if len(apply):
            jump[apply] = lift.ravel()[
                p_sorted[apply, None] * n_levels + jump[apply]
            ]
        rem = rem >> 1
        if not rem.any():
            break
        lift = lift.ravel()[lift_base + lift]
    # Compose jump-then-step transfers down each entry's node segment.
    transfer = step4_flat[node_sel[:, None] * n_levels + jump]
    stride = 1
    while stride < n_nodes:
        valid = p_sorted[stride:] == p_sorted[:-stride]
        if not valid.any():
            break
        upd = np.nonzero(valid)[0] + stride
        transfer[upd] = transfer.ravel()[
            upd[:, None] * n_levels + transfer[upd - stride]
        ]
        stride <<= 1
    after = transfer[arange_n, v0_nodes]
    before = np.empty_like(after)
    before[0] = 0
    before[1:] = after[:-1]
    incoming = np.where(first, v0_nodes, before)
    values = jump[arange_n, incoming]
    reads = out_slot >= 0
    read_flat[out_slot[reads]] = values[reads]
    return read_flat
