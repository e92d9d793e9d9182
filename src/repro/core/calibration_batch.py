"""Vectorised engine behind :func:`~repro.core.calibration.assess_block_batch`.

The scalar :func:`~repro.core.calibration.assess_block` spends its time
in ``execute_branch`` — a full predict/train pipeline per scramble and
probe branch, plus a whole-table block application and noise injection
per repetition — even though every branch it executes sits at the *same*
address.  All 2R repetitions therefore touch a tiny, statically-known
slice of predictor state: one bimodal entry per live index key, a
handful of gshare entries (the GHR walks a short deterministic
trajectory each repetition), one selector entry and one identification
set.  This engine exploits that: instead of simulating the core it
*replays* the scalar engine's externally-visible effects and evolves
only the tracked entries.

Three phases:

1. **Observation assembly** — one of three front-ends produces the same
   flat description of all repetitions (per-slot static flags, branch
   outcomes, PHT indices, and the bulk noise stream):

   * *Stream replay* (default, ``plan=None``): a per-repetition Python
     loop draws scramble outcomes, noise gaps and noise contents from
     the observation generator in the scalar's exact call order, makes
     the scalar's mitigation hook calls (``suppresses_prediction``,
     ``pht_key``, ``partition``, ``perturb_timing``) so stateful
     mitigations (rekeying) evolve identically, and replays the timing
     model's draws on the core RNG.  The latter is possible because
     :meth:`~repro.cpu.timing.TimingModel.sample`'s *draw pattern*
     depends only on the cold-fetch flag and its own outlier uniform —
     never on the prediction — so the loop can consume the identical
     core-RNG stream without knowing hit/miss.  This makes the engine a
     true drop-in: after a call, every generator sits exactly where the
     scalar engine would have left it.
   * *Plan, mitigated*: the same loop minus every generator draw —
     randomness comes from the pre-drawn
     :class:`~repro.core.calibration.TrialPlan`, hooks are still called
     live.
   * *Plan, unmitigated*: no loop at all.  The GHR trajectory after each
     block application is independent of the pre-scramble history (the
     block pins it to ``ghr_end``, noise overwrites it), so every PHT
     index of every repetition is a closed-form numpy expression of the
     plan.  This is the trial fast path.

2. **Tracked-entry table evolution**: for each PHT, the entries the
   probes and scrambles actually read evolve lazily.  Every read and
   noise hit happens at a statically known time, so each becomes a
   *node* whose transition (binary-lifted map powers composed with its
   FSM step) is a precomputed lookup row; per-entry chains collapse
   under a segmented parallel-prefix scan with no Python loop.  Work is
   proportional to reads plus observable noise hits, not
   ``repetitions x tracked-entries``.

3. **Prediction chain** (per repetition, Python scalars): evolve the one
   selector counter and identification-table set the target address
   maps to — scramble updates, the block's reset/overwrite, noise drift
   and eviction, probe updates — and combine them with the phase-2
   entry levels into per-probe predictions, hit/miss patterns and the
   final :class:`~repro.core.calibration.BlockAssessment`.

Because the engine never writes any core state, its end state equals the
scalar engine's post-``restore`` state by construction; in replay mode
the streams and hook calls are replayed so the *rest* of the scalar's
footprint matches too.  ``tests/test_calibration_batch.py`` pins
assessment, core-state and stream-position equality across presets and
mitigation stacks, and plan-mode assessment equality against the scalar
plan engine.

Exactness boundary (enforced by the caller's predicate): mitigations
overriding ``perturb_counter`` or ``update_outcome`` make the
observation itself stochastic and always fall back to the scalar
engine.  In replay mode a :class:`TimingModel` *subclass* could change
the draw pattern and falls back too; plan mode replays no timing draws,
so custom timing models are fine there.  ``perturb_timing`` overrides
are safe either way: every shipped implementation draws a fixed pattern
independent of the latency argument.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

import numpy as np

from repro import kernels
from repro.bpu.hashes import apply_hash, fold_history
from repro.core.calibration import BlockAssessment, TrialPlan, _dominant_counts
from repro.core.randomizer import CompiledBlock
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.system.noise import NoiseDraw, NoiseModel, draw_noise

__all__ = ["batch_assess"]


def _read_levels(
    initial_levels: np.ndarray,
    step_exec: np.ndarray,
    step_noise: np.ndarray,
    transition_map: np.ndarray,
    idx: np.ndarray,
    executed: np.ndarray,
    outcomes: np.ndarray,
    noise_idx: np.ndarray,
    noise_out: np.ndarray,
    noise_epoch: np.ndarray,
    d: int,
) -> List[List[int]]:
    """Phase 2: read-before-write levels of every executed branch.

    Entries evolve lazily.  An entry's timeline is measured in *applied
    block maps*: a scramble branch of repetition ``r`` reads at time
    ``r``, the block map of repetition ``r`` ticks time to ``r + 1``,
    and that repetition's noise steps and probe branches sit at
    ``r + 1`` (noise before probes).  Between two reads of the same
    entry only whole maps and its own noise hits occur, and all those
    times are static — so each read/hit *node* compiles to a level
    lookup row (binary-lifted map powers composed with its FSM step),
    the per-entry chains collapse under a segmented parallel-prefix
    scan, and the read values fall out of two gathers.  No Python-level
    loop over nodes remains.
    """
    R2, n_slots = idx.shape
    if not executed.any():
        row = [0] * n_slots
        return [row] * R2

    tracked = np.unique(idx[executed])
    n_tracked = len(tracked)
    pos_table = np.full(transition_map.shape[0], -1, dtype=np.int64)
    pos_table[tracked] = np.arange(n_tracked)
    positions = pos_table[idx]

    # Read nodes, in chronological (row-major) order.
    exec_flat = executed.ravel()
    slot_flat = np.nonzero(exec_flat)[0]
    read_pos = positions.ravel()[slot_flat]
    read_r = slot_flat // n_slots
    read_time = read_r + ((slot_flat - read_r * n_slots) >= d)
    read_out = outcomes.ravel()[slot_flat].astype(np.int64)
    n_reads = len(slot_flat)

    # Noise-hit nodes on tracked entries, pruned to each entry's last
    # read — a later hit can never be observed, and for a well-mixed
    # noise stream the pruning halves the event volume.
    last_read = np.zeros(n_tracked, dtype=np.int64)
    np.maximum.at(last_read, read_pos, read_time)
    if len(noise_idx):
        npos = pos_table[noise_idx]
        hit = npos >= 0
        hit_pos = npos[hit]
        hit_time = noise_epoch[hit] + 1
        observable = hit_time <= last_read[hit_pos]
        hit_pos = hit_pos[observable]
        hit_time = hit_time[observable]
        hit_out = noise_out[hit][observable].astype(np.int64)
    else:
        hit_pos = hit_time = hit_out = np.empty(0, dtype=np.int64)
    n_hits = len(hit_pos)

    # One node per read or hit, ordered per entry by (time, hits-first,
    # stream order).  Hits at time t sit between the block map that
    # ticked t and any probe read at t, hence before same-time reads.
    node_p = np.concatenate([read_pos, hit_pos])
    node_t = np.concatenate([read_time, hit_time])
    node_read = np.concatenate(
        [np.ones(n_reads, dtype=np.int64), np.zeros(n_hits, dtype=np.int64)]
    )
    node_out = np.concatenate([read_out, hit_out])
    node_seq = np.concatenate([np.arange(n_reads), np.arange(n_hits)])
    node_slot = np.concatenate([slot_flat, np.zeros(n_hits, dtype=np.int64)])
    order = np.lexsort((node_seq, node_read, node_t, node_p))
    p_sorted = node_p[order]
    t_sorted = node_t[order]

    # Every node's map-jump distance from the previous node of the same
    # entry is static, so each node compiles to a jump row (identity
    # when no map ticked); the lifting, the per-node transfer (jump
    # followed by the node's own FSM step — noise nudge or
    # read-then-execute update) and the segmented prefix scan all live
    # in :func:`repro.kernels.read_levels_maps` (binary lifting +
    # Hillis-Steele on the numpy backend, one sequential walk per entry
    # segment on the compiled ones — identical level chains either way).
    n_nodes = len(order)
    first = np.ones(n_nodes, dtype=bool)
    first[1:] = p_sorted[1:] != p_sorted[:-1]
    prev_t = np.empty_like(t_sorted)
    prev_t[0] = 0
    prev_t[1:] = t_sorted[:-1]
    prev_t[first] = 0
    remaining = t_sorted - prev_t
    n_levels = transition_map.shape[1]
    is_read = node_read[order]
    node_sel = node_out[order] + 2 * is_read
    out_slot = np.where(is_read.astype(bool), node_slot[order], -1)
    step4 = np.ascontiguousarray(
        np.concatenate([step_noise, step_exec]).astype(np.int64)
    )
    v0 = initial_levels[tracked].astype(np.int64)[p_sorted]
    read_flat = kernels.read_levels_maps(
        np.ascontiguousarray(transition_map[tracked].astype(np.int64)),
        p_sorted,
        remaining,
        node_sel,
        first,
        v0,
        out_slot,
        step4.ravel(),
        n_levels,
        R2 * n_slots,
    )
    return read_flat.reshape(R2, n_slots).tolist()


def batch_assess(
    core: PhysicalCore,
    spy: Process,
    compiled: CompiledBlock,
    target_address: int,
    *,
    repetitions: int = 100,
    noise: Optional[NoiseModel] = None,
    rng: Optional[np.random.Generator] = None,
    plan: Optional[TrialPlan] = None,
) -> BlockAssessment:
    """Vectorised-engine implementation of the block assessment.

    Callers should use :func:`repro.core.calibration.assess_block_batch`,
    which applies the supported-configuration predicate before
    dispatching here.
    """
    if core.config.name != compiled.config_name:
        raise ValueError(
            "compiled block bound to config "
            f"{compiled.config_name!r}, core is {core.config.name!r}"
        )

    predictor = core.predictor
    bimodal = predictor.bimodal.pht
    gshare = predictor.gshare.pht
    fsm_b = bimodal.fsm
    fsm_g = gshare.fsm
    n_b = bimodal.n_entries
    d = fsm_b.n_levels
    sel = predictor.selector
    bit = predictor.bit
    T = int(target_address)
    R = int(repetitions) if plan is None else plan.repetitions
    R2 = 2 * R

    hooked = len(core.mitigations) > 0
    ghr_end = int(compiled.ghr_end)

    # -- phase 1: observation assembly --------------------------------------
    if plan is None:
        front_end = "replay"
    elif hooked:
        front_end = "plan_hooked"
    else:
        front_end = "closed_form"
    tracer = obs.TRACER
    if tracer is not None:
        tracer.emit(
            "calibration",
            "batch_engine",
            level="debug",
            front_end=front_end,
            address=T,
            repetitions=R,
        )
    if plan is None or hooked:
        static, outcomes, b_idx, g_idx, offsets, bulk = _stream_loop(
            core, spy, T, R, plan, noise, rng, ghr_end
        )
    else:
        static, outcomes, b_idx, g_idx, offsets, bulk = _closed_form(
            plan, T, predictor, ghr_end
        )

    # Per-repetition aggregates of the bulk noise stream.
    gaps = offsets[1:] - offsets[:-1]
    has_noise = (gaps > 0).tolist()
    total = int(offsets[-1])
    drift_tsel = [0] * R2
    noise_tag: List[Optional[int]] = [None] * R2
    tsel = T % sel.n_entries
    tset = T % bit.n_sets
    ttag = (T // bit.n_sets) & bit._tag_mask
    if total:
        epoch_of = np.repeat(np.arange(R2), gaps)
        on_tsel = bulk.addresses % sel.n_entries == tsel
        if on_tsel.any():
            drift = np.zeros(R2, dtype=np.int64)
            np.add.at(drift, epoch_of[on_tsel], bulk.nudges[on_tsel])
            drift_tsel = drift.tolist()
        on_tset = bulk.addresses % bit.n_sets == tset
        if on_tset.any():
            last = np.full(R2, -1, dtype=np.int64)
            np.maximum.at(last, epoch_of[on_tset], np.nonzero(on_tset)[0])
            for r in np.nonzero(last >= 0)[0].tolist():
                address = int(bulk.addresses[last[r]])
                noise_tag[r] = (address // bit.n_sets) & bit._tag_mask
        noise_epoch = epoch_of
    else:
        noise_epoch = np.empty(0, dtype=np.int64)

    # -- phase 2: tracked-entry table evolution -----------------------------
    executed = ~static
    step_noise = fsm_b.step_table  # noise steps both PHTs with this table
    read_b = _read_levels(
        bimodal.levels,
        fsm_b.step_table,
        step_noise,
        compiled.bimodal_map,
        b_idx,
        executed,
        outcomes,
        bulk.addresses % n_b if total else np.empty(0, dtype=np.int64),
        bulk.outcomes,
        noise_epoch,
        d,
    )
    read_g = _read_levels(
        gshare.levels,
        fsm_g.step_table,
        step_noise,
        compiled.gshare_map,
        g_idx,
        executed,
        outcomes,
        bulk.gshare_indices,
        bulk.outcomes,
        noise_epoch,
        d,
    )

    # -- phase 3: prediction chain ------------------------------------------
    predicts_b = [bool(fsm_b.predicts(lv)) for lv in range(fsm_b.n_levels)]
    predicts_g = [bool(fsm_g.predicts(lv)) for lv in range(fsm_g.n_levels)]
    sel_val = int(sel.counters[tsel])
    sel_initial = sel._initial
    sel_max = sel.max_counter
    sel_threshold = sel.gshare_threshold
    touched = compiled.selector_touched
    tsel_touched = bool((touched == tsel).any()) if len(touched) else False
    bit_valid = bool(bit.valid[tset])
    bit_tag = int(bit.tags[tset])
    covering = np.nonzero(compiled.bit_sets == tset)[0]
    block_tag = int(compiled.bit_tags[covering[-1]]) if len(covering) else None

    static_rows = static.tolist()
    out_rows = outcomes.tolist()
    probe_slots = (d, d + 1)
    patterns: List[str] = []
    for r in range(R2):
        row_static = static_rows[r]
        row_out = out_rows[r]
        row_b = read_b[r]
        row_g = read_g[r]
        for j in range(d):
            if row_static[j]:
                continue
            # The block resets any selector entry it touches, erasing
            # scramble-phase chooser history — skip tracking it then.
            if not tsel_touched:
                if not (bit_valid and bit_tag == ttag):
                    sel_val = sel_initial
                else:
                    taken = bool(row_out[j])
                    bimodal_ok = predicts_b[row_b[j]] == taken
                    gshare_ok = predicts_g[row_g[j]] == taken
                    if bimodal_ok != gshare_ok:
                        sel_val = (
                            min(sel_max, sel_val + 1)
                            if gshare_ok
                            else max(0, sel_val - 1)
                        )
            bit_valid = True
            bit_tag = ttag
        if tsel_touched:
            sel_val = sel_initial
        if block_tag is not None:
            bit_valid = True
            bit_tag = block_tag
        if has_noise[r]:
            # Noise squeezes every selector counter into [0, 3] (see
            # apply_noise_draw), drift or no drift on this entry.
            value = sel_val + drift_tsel[r]
            sel_val = 0 if value < 0 else (3 if value > 3 else value)
            if noise_tag[r] is not None:
                bit_valid = True
                bit_tag = noise_tag[r]
        first = second = "M"
        for slot, j in enumerate(probe_slots):
            taken = bool(row_out[j])
            if row_static[j]:
                # Static suppression predicts not-taken, trains nothing.
                char = "M" if taken else "H"
            else:
                known = bit_valid and bit_tag == ttag
                bimodal_taken = predicts_b[row_b[j]]
                gshare_taken = predicts_g[row_g[j]]
                predicted = (
                    gshare_taken
                    if known and sel_val >= sel_threshold
                    else bimodal_taken
                )
                char = "H" if predicted == taken else "M"
                if not known:
                    sel_val = sel_initial
                else:
                    bimodal_ok = bimodal_taken == taken
                    gshare_ok = gshare_taken == taken
                    if bimodal_ok != gshare_ok:
                        sel_val = (
                            min(sel_max, sel_val + 1)
                            if gshare_ok
                            else max(0, sel_val - 1)
                        )
                bit_valid = True
                bit_tag = ttag
            if slot == 0:
                first = char
            else:
                second = char
        patterns.append(first + second)

    tt_pattern, tt_freq = _dominant_counts(Counter(patterns[:R]), R)
    nn_pattern, nn_freq = _dominant_counts(Counter(patterns[R:]), R)
    return BlockAssessment(
        seed=compiled.block.seed,
        tt_pattern=tt_pattern,
        tt_frequency=tt_freq,
        nn_pattern=nn_pattern,
        nn_frequency=nn_freq,
    )


def _stream_loop(core, spy, T, R, plan, noise, rng, ghr_end):
    """Looping phase-1 front-end: stream replay, or a plan under hooks.

    With ``plan=None`` this draws from ``rng`` in the scalar engine's
    exact call order and replays the timing model's draws on the core
    RNG; with a plan it consumes the plan and draws nothing.  Mitigation
    hooks are called per branch either way.
    """
    predictor = core.predictor
    bimodal = predictor.bimodal.pht
    gshare = predictor.gshare.pht
    fsm_b = bimodal.fsm
    n_b = bimodal.n_entries
    n_g = gshare.n_entries
    hash_b = predictor.bimodal.index_hash
    hash_g = predictor.gshare.index_hash
    d = fsm_b.n_levels
    n_slots = d + 2
    ghr_len = predictor.ghr.length
    ghr_mask = (1 << ghr_len) - 1
    R2 = 2 * R

    replay = plan is None
    if replay:
        rng = rng if rng is not None else core.rng
        noise = noise if noise is not None else NoiseModel.isolated()
        timing = core.timing
        timing_rng = core.rng
        normal = timing_rng.normal
        uniform = timing_rng.random
        exponential = timing_rng.exponential
        cold_sigma = timing.cold_jitter_sigma
        jitter_sigma = timing.jitter_sigma
        outlier_prob = timing.outlier_prob
        outlier_scale = timing.outlier_scale
        # perturb_timing's latency argument never influences a hook's
        # draw pattern (see module docstring), so any representative
        # value keeps the stream aligned.
        latency_stub = int(timing.base_latency)
        warm = core.icache.contains(T)

    mitigations = core.mitigations
    hooked = len(mitigations) > 0
    suppresses = mitigations.suppresses_prediction
    pht_key = mitigations.pht_key
    get_partition = mitigations.partition
    perturb_timing = mitigations.perturb_timing

    ghr_val = int(predictor.ghr.value)
    static = np.zeros((R2, n_slots), dtype=bool)
    outcomes = np.zeros((R2, n_slots), dtype=np.int8)
    b_idx = np.zeros((R2, n_slots), dtype=np.int64)
    g_idx = np.zeros((R2, n_slots), dtype=np.int64)
    draws: List = [None] * R2

    for r in range(R2):
        if replay:
            scramble = rng.integers(0, 2, size=d)
        else:
            scramble = plan.scrambles[r]
        outcomes[r, :d] = scramble
        outcomes[r, d:] = 1 if r < R else 0
        row_static = static[r]
        row_b = b_idx[r]
        row_g = g_idx[r]
        for j in range(n_slots):
            if j == d:
                # Scramble done; the block applies (no draws), then the
                # noise gap draws, then the two probe branches run.
                ghr_val = ghr_end
                if replay:
                    gap = noise.gap_branches(rng)
                    draw = draw_noise(rng, gap, n_g)
                else:
                    draw = plan.noise_draw(r)
                if draw.n > 0:
                    draws[r] = draw
                    value = 0
                    for outcome in draw.outcomes[-ghr_len:].tolist():
                        value = (value << 1) | int(outcome)
                    ghr_val = value
            if hooked and suppresses(spy, T):
                row_static[j] = True
            else:
                if hooked:
                    key = pht_key(spy)
                    partition = get_partition(spy)
                else:
                    key = 0
                    partition = None
                mixed = T ^ key
                ghr_folded = fold_history(ghr_val, ghr_len, n_g)
                if partition is not None:
                    row_b[j] = partition.confine(mixed)
                    row_g[j] = partition.confine(T ^ ghr_folded ^ key)
                else:
                    row_b[j] = apply_hash(hash_b, mixed, n_b)
                    row_g[j] = apply_hash(hash_g, T ^ ghr_folded ^ key, n_g)
                ghr_val = ((ghr_val << 1) | int(outcomes[r, j])) & ghr_mask
            if replay:
                cold = not warm
                warm = True
                if cold:
                    normal(0.0, cold_sigma)
                normal(0.0, jitter_sigma)
                if uniform() < outlier_prob:
                    exponential(outlier_scale)
                if hooked:
                    perturb_timing(timing_rng, latency_stub)

    if replay:
        gaps = [draw.n if draw is not None else 0 for draw in draws]
        offsets = np.zeros(R2 + 1, dtype=np.int64)
        np.cumsum(gaps, out=offsets[1:])
        live = [draw for draw in draws if draw is not None]
        if live:
            bulk = NoiseDraw(
                int(offsets[-1]),
                np.concatenate([draw.addresses for draw in live]),
                np.concatenate([draw.outcomes for draw in live]),
                np.concatenate([draw.gshare_indices for draw in live]),
                np.concatenate([draw.nudges for draw in live]),
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            bulk = NoiseDraw(0, empty, np.empty(0, dtype=bool), empty, empty)
    else:
        offsets = plan.offsets
        bulk = plan.bulk
    return static, outcomes, b_idx, g_idx, offsets, bulk


def _closed_form(plan, T, predictor, ghr_end):
    """Loop-free phase-1 front-end for the unmitigated plan path.

    Without mitigations every bimodal index is the preset's hash of
    ``T`` and the GHR value entering each slot is a closed-form function
    of the plan, starting from ``predictor``'s current history: the
    block application pins it to ``ghr_end``, the repetition's noise
    tail (if any) overwrites it, the probes shift in their outcomes, and
    the next repetition's scrambles shift in on top — the pre-scramble
    history never survives a repetition boundary.
    """
    n_b = predictor.bimodal.pht.n_entries
    n_g = predictor.gshare.pht.n_entries
    hash_g = predictor.gshare.index_hash
    ghr_start = int(predictor.ghr.value)
    ghr_len = predictor.ghr.length
    R = plan.repetitions
    R2 = 2 * R
    scrambles = plan.scrambles
    d = scrambles.shape[1]
    n_slots = d + 2
    mask = (1 << ghr_len) - 1

    outcomes = np.zeros((R2, n_slots), dtype=np.int8)
    outcomes[:, :d] = scrambles
    outcomes[:R, d:] = 1
    static = np.zeros((R2, n_slots), dtype=bool)
    b_idx = np.full(
        (R2, n_slots),
        apply_hash(predictor.bimodal.index_hash, T, n_b),
        dtype=np.int64,
    )

    offsets = plan.offsets
    gaps = offsets[1:] - offsets[:-1]
    # GHR after each repetition's noise gap: the gap's outcome tail
    # (folded MSB-first into an integer), or the block's ghr_end when
    # the gap is empty.  Gather each gap's last ``ghr_len`` outcomes as
    # one right-aligned window; short gaps zero their (high-bit) pad
    # columns, matching the fold of just the gap's own outcomes.
    after_noise = np.full(R2, ghr_end, dtype=np.int64)
    total = int(offsets[-1])
    if total:
        out_bulk = plan.bulk.outcomes
        cols = np.arange(ghr_len)
        window_lo = offsets[1:] - np.minimum(gaps, ghr_len)
        gather = (offsets[1:] - ghr_len)[:, None] + cols
        valid = gather >= window_lo[:, None]
        bits = (out_bulk[np.clip(gather, 0, total - 1)] & valid).astype(np.int64)
        tails = bits @ (1 << cols[::-1])
        noisy = gaps > 0
        after_noise[noisy] = tails[noisy]

    # GHR entering each repetition's first scramble slot.
    probe_bits = np.where(np.arange(R2) < R, 3, 0)
    starts = np.empty(R2, dtype=np.int64)
    starts[0] = ghr_start
    starts[1:] = ((after_noise[:-1] << 2) | probe_bits[:-1]) & mask

    # Scramble slots: start shifted left j times with the scramble
    # prefix folded in (masking only at the end is equivalent).
    prefix = np.zeros((R2, d), dtype=np.int64)
    for j in range(1, d):
        prefix[:, j] = (prefix[:, j - 1] << 1) | scrambles[:, j - 1]
    ghr_scramble = ((starts[:, None] << np.arange(d)) | prefix) & mask

    def gshare_index(history):
        return apply_hash(
            hash_g, T ^ fold_history(history, ghr_len, n_g), n_g
        )

    g_idx = np.zeros((R2, n_slots), dtype=np.int64)
    g_idx[:, :d] = gshare_index(ghr_scramble)
    g_idx[:, d] = gshare_index(after_noise)
    second = ((after_noise << 1) | outcomes[:, d]) & mask
    g_idx[:, d + 1] = gshare_index(second)
    return static, outcomes, b_idx, g_idx, offsets, plan.bulk
