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
``predictor_hits`` is a plain sequential loop here too: it is
``HybridPredictor.execute`` stepped over one program, and
``predictor_program`` is the domain check both backends share.  So is
``hypothesis_hits``, the fuzz lattice's candidate predictors over many
programs (``repro.fuzz.infer.simulate_program`` is its one-row
wrapper), with ``hypothesis_program`` as the shared domain check.

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


# -- one program on a power-up hybrid predictor (the fuzz oracle) ------------


def _program_arrays(addresses, outcomes, observed):
    """Validate a program (or a concatenation of programs) as the
    compiled loops need it; return ``(addresses, outcomes, observed)``
    as int64, bool and int64 arrays."""
    try:
        addresses = np.asarray(addresses, dtype=np.int64)
    except OverflowError:
        raise ValueError("addresses must fit in 63 bits") from None
    outcomes = np.asarray(outcomes, dtype=bool)
    observed = np.asarray(observed, dtype=np.int64)
    if addresses.ndim != 1 or observed.ndim != 1:
        raise ValueError("addresses and observed must be vectors")
    n = len(addresses)
    if outcomes.shape != (n,):
        raise ValueError("outcomes must align with addresses")
    if n and int(addresses.min()) < 0:
        raise ValueError("addresses must be non-negative")
    if len(observed) and not (
        observed[0] >= 0 and observed[-1] < n
        and (observed[1:] > observed[:-1]).all()
    ):
        raise ValueError("observed steps must be increasing indices below n")
    return addresses, outcomes, observed


def _fsm_arrays(step_table, predict_taken, init_levels):
    """Validate an FSM table (one FSM, or several side by side in one
    level space) and its initial level(s); return the step table as an
    int8 ``(2, n_levels)`` array and the predictions as a bool array."""
    step_table = np.asarray(step_table)
    n_levels = step_table.shape[-1] if step_table.ndim == 2 else 0
    if not (step_table.shape == (2, n_levels) and 1 <= n_levels <= 127):
        raise ValueError("step_table must be (2, n_levels), n_levels <= 127")
    if int(step_table.min()) < 0 or int(step_table.max()) >= n_levels:
        raise ValueError("step_table targets must be levels")
    predict_taken = np.asarray(predict_taken, dtype=bool)
    init_levels = np.asarray(init_levels)
    if predict_taken.shape != (n_levels,) or (
        init_levels.size
        and not 0 <= int(init_levels.min()) <= int(init_levels.max())
        < n_levels
    ):
        raise ValueError("predict_taken and init_level must match the FSM")
    return step_table.astype(np.int8), predict_taken


def predictor_program(
    addresses, outcomes, observed, n_b, shift_b, n_g, shift_g, ghr_len,
    n_sel, sel_init, sel_max, n_sets, tag_bits, step_table, predict_taken,
    init_level,
):
    """Validate :func:`predictor_hits`'s arguments; return the program
    as ``(addresses, outcomes, observed)`` arrays (int64, bool, int64),
    the step table as an int8 ``(2, n_levels)`` array and the
    predictions as a bool array.

    Both backends share this domain: a ``ValueError`` for whatever the
    compiled loop cannot represent (a negative or 64-bit address, a
    history longer than 62 bits, more than 127 FSM levels or a choice
    counter past 127, a shift past 62) and for a malformed program or
    table.
    """
    program = _program_arrays(addresses, outcomes, observed)
    if min(n_b, n_g, n_sel, n_sets, tag_bits) < 1:
        raise ValueError("table sizes and tag_bits must be positive")
    if not (0 <= shift_b <= 62 and 0 <= shift_g <= 62):
        raise ValueError("index hash shifts must lie in 0..62")
    if not 1 <= ghr_len <= 62:
        raise ValueError("ghr_len must lie in 1..62")
    if not 0 <= sel_init <= sel_max <= 127:
        raise ValueError("need 0 <= sel_init <= sel_max <= 127")
    return program + _fsm_arrays(step_table, predict_taken, init_level)


def _index(mixed: int, n: int, shift: int) -> int:
    """:func:`_hashed` on one Python int."""
    if shift:
        mixed ^= mixed >> shift
    return mixed % n


def predictor_hits(
    addresses, outcomes, observed, n_b, shift_b, n_g, shift_g, ghr_len,
    n_sel, sel_init, sel_max, n_sets, tag_bits, step_table, predict_taken,
    init_level,
) -> np.ndarray:
    """The hit bits of one program on a power-up hybrid predictor.

    ``hits[j]`` is True iff the final prediction at step
    ``observed[j]`` equals that step's outcome.  Both PHTs start at
    ``init_level`` of the FSM ``step_table[outcome, level]`` /
    ``predict_taken[level]`` and are indexed through their
    :func:`repro.bpu.hashes.kernel_shift`; the gshare index mixes in the
    history folded as :func:`repro.bpu.hashes.fold_history` folds it.
    A branch that misses the identification table (``n_sets`` sets,
    ``tag_bits``-bit tags, all empty) is predicted by the bimodal PHT
    and resets its choice counter to ``sel_init``; a known branch takes
    gshare only while its counter is saturated at ``sel_max``, and the
    counter trains only when the two components disagree.  Selector and
    BIT indices are plain modulo.  One sequential loop over Python
    ints, step for step what
    :meth:`repro.bpu.hybrid.HybridPredictor.execute` does.
    """
    addresses, outcomes, observed, step_table, predict_taken = (
        predictor_program(
            addresses, outcomes, observed, n_b, shift_b, n_g, shift_g,
            ghr_len, n_sel, sel_init, sel_max, n_sets, tag_bits,
            step_table, predict_taken, init_level,
        )
    )
    step = step_table.tolist()
    predict = predict_taken.tolist()
    bimodal = [init_level] * n_b
    gshare = [init_level] * n_g
    selector = [sel_init] * n_sel
    tags = [-1] * n_sets
    tag_mask = (1 << tag_bits) - 1
    ghr_mask = (1 << ghr_len) - 1
    watched = set(observed.tolist())
    hits = []
    ghr = 0
    for t, (address, taken) in enumerate(
        zip(addresses.tolist(), outcomes.tolist())
    ):
        b = _index(address, n_b, shift_b)
        g = _index(address ^ fold_history(ghr, ghr_len, n_g), n_g, shift_g)
        b_taken = predict[bimodal[b]]
        g_taken = predict[gshare[g]]
        s = address % n_sel
        bit_set, tag = address % n_sets, (address // n_sets) & tag_mask
        cold = tags[bit_set] != tag
        if not cold and selector[s] >= sel_max:
            predicted = g_taken
        else:
            predicted = b_taken
        if t in watched:
            hits.append(predicted == taken)
        bimodal[b] = step[taken][bimodal[b]]
        gshare[g] = step[taken][gshare[g]]
        if cold:
            selector[s] = sel_init
        elif b_taken != g_taken:
            if g_taken == taken:
                selector[s] = min(sel_max, selector[s] + 1)
            else:
                selector[s] = max(0, selector[s] - 1)
        ghr = ((ghr << 1) | taken) & ghr_mask
        tags[bit_set] = tag
    return np.array(hits, dtype=bool)


# -- many programs under many candidate geometries (the fuzz lattice) --------


def hypothesis_program(
    addresses, outcomes, starts, observed, sizes, shifts, ghr_bits,
    init_levels, step_table, predict_taken, biases, sel_max,
):
    """Validate :func:`hypothesis_hits`'s arguments; return the programs
    as ``(addresses, outcomes, starts, observed)`` arrays, the rows as
    an int64 ``(4, rows)`` array of (size, shift, history bits, initial
    level), the step table as an int8 ``(2, n_levels)`` array, the
    predictions as a bool array and the biases as an int64 array.

    Both backends share this domain, and its program and FSM checks are
    :func:`predictor_program`'s: a ``ValueError`` for whatever the
    compiled loop cannot represent (a negative or 64-bit address, a
    history longer than 62 bits, more than 127 FSM levels or a choice
    counter past 127, a shift past 62) and for malformed programs, rows
    or tables.
    """
    addresses, outcomes, observed = _program_arrays(
        addresses, outcomes, observed
    )
    starts = np.asarray(starts, dtype=np.int64)
    n = len(addresses)
    if starts.ndim != 1 or (n and not len(starts)):
        raise ValueError("starts must be a vector with one entry per program")
    if len(starts) and not (
        starts[0] == 0 and starts[-1] <= n
        and (starts[1:] >= starts[:-1]).all()
    ):
        raise ValueError("program starts must rise from 0 to at most n")
    ragged = "row parameters must be equal-length vectors"
    try:
        rows = np.array([sizes, shifts, ghr_bits, init_levels], dtype=np.int64)
    except ValueError:
        raise ValueError(ragged) from None
    if rows.ndim != 2:
        raise ValueError(ragged)
    if rows.shape[1]:
        if int(rows[0].min()) < 1:
            raise ValueError("table sizes must be positive")
        if not 0 <= int(rows[1].min()) <= int(rows[1].max()) <= 62:
            raise ValueError("index hash shifts must lie in 0..62")
        if not 1 <= int(rows[2].min()) <= int(rows[2].max()) <= 62:
            raise ValueError("history lengths must lie in 1..62")
    step_table, predict_taken = _fsm_arrays(step_table, predict_taken, rows[3])
    biases = np.asarray(biases, dtype=np.int64).reshape(-1)
    if not 0 <= sel_max <= 127:
        raise ValueError("need 0 <= sel_max <= 127")
    if len(biases) and not (0 <= biases.min() and biases.max() <= sel_max):
        raise ValueError(f"selector biases must lie in 0..{sel_max}")
    return (
        addresses, outcomes, starts, observed, rows, step_table,
        predict_taken, biases,
    )


def hypothesis_hits(
    addresses, outcomes, starts, observed, sizes, shifts, ghr_bits,
    init_levels, step_table, predict_taken, biases, sel_max,
) -> np.ndarray:
    """Predicted hit bits of many programs under many candidate
    geometries, every selector bias at once.

    The programs are concatenated: program ``p`` runs steps
    ``starts[p]`` up to the next start (the last to the end), and
    ``observed`` holds global step indices.  Row ``r`` is one
    geometry: bimodal and gshare PHTs of ``sizes[r]`` entries each,
    both behind the index hash :func:`repro.bpu.hashes.kernel_shift`
    encodes as ``shifts[r]``, a ``ghr_bits[r]``-bit global history
    folded into the gshare index as
    :func:`repro.bpu.hashes.fold_history` folds it, and PHT entries
    that start at ``init_levels[r]`` of the FSM ``step_table[outcome,
    level]`` / ``predict_taken[level]`` (several FSMs may share that
    level space side by side).  Each address has its own choice
    counter.  Every program starts from power-up state: empty tables,
    zero history, and each address new ("cold") until its first
    execution, which predicts from the bimodal PHT and leaves its
    counter at the bias.  A known address takes gshare while its
    counter is saturated at ``sel_max``, and the counter moves toward
    the component that was right whenever the two disagree.

    Returns bool ``hits[k, r, j]``: whether row ``r`` under bias
    ``biases[k]`` predicts step ``observed[j]``'s outcome.  The PHT
    levels and cold steps do not depend on the bias, so one walk of
    each (row, program) serves every bias.  Both PHT indices of every
    step are computed per row with numpy; the walk is one sequential
    loop over Python ints, and its tables are dicts, so a program
    touches only the entries it uses.
    """
    (
        addresses, outcomes, starts, observed, rows, step_table,
        predict_taken, biases,
    ) = hypothesis_program(
        addresses, outcomes, starts, observed, sizes, shifts, ghr_bits,
        init_levels, step_table, predict_taken, biases, sel_max,
    )
    step = step_table.tolist()
    predict = predict_taken.tolist()
    taken_at = outcomes.tolist()
    address_at = addresses.tolist()
    biases = biases.tolist()
    spans = list(zip(starts.tolist(), starts[1:].tolist() + [len(addresses)]))
    # The last 62 outcomes before each step of its program, newest in
    # bit 0: every row's history is this, masked to its length.
    history = []
    for lo, hi in spans:
        ghr = 0
        for taken in taken_at[lo:hi]:
            history.append(ghr)
            ghr = ((ghr << 1) | taken) & ((1 << 62) - 1)
    history = np.array(history, dtype=np.int64)
    watched = set(observed.tolist())
    hits = np.zeros((len(biases), rows.shape[1], len(observed)), dtype=bool)
    for r, (n, shift, bits, init) in enumerate(rows.T.tolist()):
        # Both PHT indices of every step: they depend on the row, the
        # address and the history only, never on a table.
        b_at = _hashed(addresses, n, shift).tolist()
        folded = fold_history(history & ((1 << bits) - 1), bits, n)
        g_at = _hashed(addresses ^ folded, n, shift).tolist()
        row_hits = []
        for lo, hi in spans:
            bimodal: dict = {}
            gshare: dict = {}
            counters: dict = {}
            for t in range(lo, hi):
                address, taken = address_at[t], taken_at[t]
                b, g = b_at[t], g_at[t]
                b_level = bimodal.get(b, init)
                g_level = gshare.get(g, init)
                b_taken = predict[b_level]
                g_taken = predict[g_level]
                # None until the address's first execution ends.
                chosen = counters.get(address)
                if t in watched:
                    row_hits.append(
                        [b_taken == taken] * len(biases)
                        if chosen is None
                        else [
                            (g_taken if count >= sel_max else b_taken)
                            == taken
                            for count in chosen
                        ]
                    )
                bimodal[b] = step[taken][b_level]
                gshare[g] = step[taken][g_level]
                if chosen is None:
                    counters[address] = biases
                elif b_taken != g_taken:
                    counters[address] = (
                        [min(sel_max, c + 1) for c in chosen]
                        if g_taken == taken
                        else [max(0, c - 1) for c in chosen]
                    )
        hits[:, r, :] = np.array(row_hits, dtype=bool).reshape(
            len(observed), len(biases)
        ).T
    return hits
