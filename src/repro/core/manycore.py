"""Many-core struct-of-arrays backend for Monte Carlo campaigns.

The Figure 4 stability experiment assesses thousands of *independent*
candidate blocks, each against a fresh, identically-seeded core.  The
per-trial engines (:func:`~repro.core.calibration.assess_block_batch`)
already vectorise *within* one trial; this module vectorises *across*
trials by stacking N cores' state and per-trial quantities into
``(N, ...)`` numpy arrays — a struct-of-arrays ("manycore") layout — and
advancing the whole campaign with single array operations.

Two layers:

* :class:`ManycoreCampaignPool` — the stability experiment's engine.
  Because every trial builds its core from the same deterministic
  factory, draws its :class:`~repro.core.calibration.TrialPlan` from
  that fresh core's own generator, and runs the unmitigated closed-form
  front-end, *everything except the candidate block itself is identical
  across trials*: the plan, the per-repetition noise aggregates, the
  PHT indices of every slot, the tracked-entry set, and every read and
  noise hit of the batch engine's phase 2.  The pool therefore
  computes that structure once and reduces each trial to a small
  *block summary* — per-tracked-entry ids in the FSM's
  :class:`~repro.bpu.fsm.TransitionMonoid` — from which one
  program-order walk per instance recovers the read levels.  The
  result is bit-identical to running the scalar/batch trial per block
  (same :class:`~repro.core.calibration.BlockAssessment` list, same
  factory-RNG stream position), which the differential suite pins.

* :func:`assess_planned` — the same engine at N=1, for a trial that
  brings its own core and pre-drawn plan (every service trial): one
  structure per trial, and no block compile.

Rows are independent, so a large enough chunk splits its rows into
contiguous ranges run on threads, one per usable CPU; block generation
and the kernels release the GIL, and the result does not depend on the
split (docs/MODELING.md §11.5).

Exactness boundary (mirrors the batch engine's, plus the shared-plan
requirement): the pool shares one structure only when the factory is
deterministic and unmitigated, the two PHTs' FSM specs are value-equal,
and the plan has no empty noise gap.  Any other campaign runs each
payload on its own core: :func:`assess_planned` for an unmitigated
core, which itself takes the exact compile + batch reference for
value-unequal FSM specs or an empty noise gap, and
:func:`~repro.core.calibration.reference_trial` for a mitigated core.
Every reference-path payload is counted via
:func:`repro.obs.trace.record_scalar_fallback` under engine
``"manycore"`` — graceful and exact, never silent — and the dispatch
split is observable through :func:`group_batch_stats`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bpu.hashes import kernel_shift
from repro.core.calibration import (
    BlockAssessment,
    TrialPlan,
    _trace_assessment,
    assess_block_batch,
    draw_trial_plan,
    reference_trial,
)
from repro.core.calibration_batch import _closed_form
from repro.core.randomizer import DEFAULT_BLOCK_BASE, RandomizationBlock
from repro.core.support import manycore_fallback_reason
from repro.cpu.core import PhysicalCore
from repro import kernels
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.parallel.pool import usable_cpus
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import NOISE_REGION, NoiseModel

__all__ = [
    "ManycoreCampaignPool",
    "assess_planned",
    "group_batch_stats",
    "manycore_supported",
    "reset_group_batch_stats",
]

#: Probe-pattern strings by code ``miss_first * 2 + miss_second``; the
#: order is lexicographic, which is what lets the dominant-pattern
#: tie-break (max over ``(count, pattern)``) reduce to an argmax over
#: ``count * 4 + code``.
_PATTERNS = ("HH", "HM", "MH", "MM")

#: Instances assessed per vectorised chunk.  Bounds peak memory (the
#: per-chunk read and code arrays are ``(chunk, 2R, ...)`` int64) while
#: amortising the per-chunk setup.
DEFAULT_CHUNK = 64

#: Fewest block branches one thread of a chunk takes on.  Below it a
#: helper thread's start/join and GIL hand-offs cost more than the
#: overlap saves, so small chunks stay on the calling thread.
THREAD_FLOOR_BRANCHES = 200_000

#: Always-on counters for the campaign pool's dispatch, mirrored into
#: run manifests by ``benchmarks/_common.py``.
_GROUP_STATS: Dict[str, int] = {
    "campaigns": 0,
    "map_calls": 0,
    "payloads": 0,
    "shared": 0,
    "per_payload": 0,
    "scalar": 0,
}


def group_batch_stats() -> Dict[str, int]:
    """Snapshot of the campaign-pool dispatch counters.

    ``shared``/``per_payload``/``scalar`` partition every payload that
    went through a :class:`ManycoreCampaignPool` by how it executed: the
    campaign's one shared structure, :func:`assess_planned` on the
    payload's own core, or the exact reference path (counted as a
    ``"manycore"`` scalar fallback).
    """
    return dict(_GROUP_STATS)


def reset_group_batch_stats() -> None:
    """Zero the dispatch counters.  Only tests call it: it is their
    isolation hook, and it lives here because the counters do."""
    for key in _GROUP_STATS:
        _GROUP_STATS[key] = 0


# ---------------------------------------------------------------------------
# Rows across cores
# ---------------------------------------------------------------------------


def _row_ranges(rows: int, block_branches: int) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row ranges for one chunk: one per usable
    CPU, but never so many that a range holds fewer than
    :data:`THREAD_FLOOR_BRANCHES` block branches; always at least one."""
    n = min(
        usable_cpus(), rows, rows * block_branches // THREAD_FLOOR_BRANCHES
    )
    n = max(n, 1)
    bounds = [rows * k // n for k in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _run_ranges(
    work: Callable[[int, int], None], ranges: Sequence[Tuple[int, int]]
) -> None:
    """``work(lo, hi)`` for every range: the first on the calling
    thread, the rest on plain threads joined before this returns (so no
    thread outlives the call).  A
    helper's exception is re-raised here."""
    errors: List[BaseException] = []

    def helper(lo: int, hi: int) -> None:
        try:
            work(lo, hi)
        except BaseException as exc:
            errors.append(exc)

    threads: List[threading.Thread] = []
    try:
        for lo, hi in ranges[1:]:
            thread = threading.Thread(target=helper, args=(lo, hi))
            thread.start()
            threads.append(thread)
        work(*ranges[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Shared-structure campaign engine
# ---------------------------------------------------------------------------


def _last_read(idx: np.ndarray, d: int, n_entries: int) -> np.ndarray:
    """Per PHT entry, the time of its last read in a plan's slots
    ``idx`` (``(2R, d + 2)``), or -1 when no slot reads it: slot ``j``
    of repetition ``r`` reads at time ``r``, or ``r + 1`` past the
    ``d`` scramble slots."""
    read_time = np.arange(idx.shape[0])[:, None] + (
        np.arange(idx.shape[1]) >= d
    )
    last_read = np.full(n_entries, -1, dtype=np.int64)
    np.maximum.at(last_read, idx.ravel(), read_time.ravel())
    return last_read


class _NodePlan:
    """The instance-independent half of phase 2, for one PHT.

    Mirrors :func:`repro.core.calibration_batch._read_levels` up to the
    point where the per-entry transition maps enter, and keeps the
    phase's events in program order: the reads in slot order
    (tracked position and step id per slot) and the noise hits on
    tracked entries in time order (position, time ``epoch + 1``, step
    id).  :meth:`read_levels` walks them for a whole chunk of instances
    in monoid *id space*, jumping each entry over the epochs since its
    last event with the power table ``POW[block fold, k]``.  Per entry
    the walk meets its events in the (time, hit-before-read, seq) order
    of the batch engine's node sort, so every composition and every read
    level is the same; the differential suite pins it end to end.

    Preconditions (checked by the caller): no mitigations (every slot
    executes) and value-equal FSM specs on both PHTs (noise and execute
    steps then use the same transition table, so an event's step id
    depends only on its outcome).  ``ct_flat`` is the monoid's compose
    table as flat int64, which the owning structure builds once.
    """

    def __init__(
        self,
        monoid,
        ct_flat: np.ndarray,
        initial_levels: np.ndarray,
        idx: np.ndarray,
        outcomes: np.ndarray,
        noise_idx: np.ndarray,
        noise_out: np.ndarray,
        noise_epoch: np.ndarray,
        d: int,
        n_entries: int,
        last_read: np.ndarray,
    ) -> None:
        R2, n_slots = idx.shape
        self.d = d
        # Sorted unique entries via a presence mask (idx < n_entries).
        present = np.zeros(n_entries, dtype=bool)
        present[idx.ravel()] = True
        tracked = np.flatnonzero(present)
        self.n_tracked = len(tracked)
        pos_table = np.full(n_entries, -1, dtype=np.int64)
        pos_table[tracked] = np.arange(self.n_tracked)
        self.pos_table = pos_table
        oid = monoid.outcome_ids.astype(np.int64)

        # Reads: every slot of every repetition executes (their times
        # are _last_read's).
        self.read_pos = pos_table[idx]
        self.read_step = oid[outcomes.astype(np.int64)]

        # Noise hits on tracked entries, pruned to each entry's last
        # read: a hit lands at time epoch + 1 and is kept iff that is no
        # later than its entry's last read (a later one changes no read).
        # Untracked entries keep last read -1, so none of their hits stay.
        # last_read is _last_read(idx, d, n_entries); hits the noise
        # kernels already pruned by it pass unchanged.
        keep = np.flatnonzero(noise_epoch < last_read[noise_idx])
        self.hit_pos = pos_table[noise_idx[keep]]
        self.hit_time = noise_epoch[keep] + 1
        self.hit_step = oid[noise_out[keep].astype(np.int64)]
        self.n_nodes = R2 * n_slots + len(keep)

        self.v0 = initial_levels[tracked].astype(np.int64)
        # Jumps span at most 2R epochs; the monoid's shared table grows
        # to cover them.
        pow_table = monoid.power_table(R2 + 1)
        self._pow_flat = pow_table.ravel()
        self._pow_k = pow_table.shape[1]
        self._ct_flat = ct_flat
        self._ct_size = len(monoid.maps)
        self._maps_flat = monoid.maps.astype(np.int64).ravel()
        self._n_levels = monoid.n_levels
        # Per-plan memo for the kernel layer (the numpy backend keeps
        # its entry-sorted schedule here).
        self._kcache: dict = {}

    def read_levels(self, lift0: np.ndarray) -> np.ndarray:
        """Read-before-write levels for a chunk of instances.

        ``lift0`` is ``(chunk, n_tracked)`` monoid ids — each instance's
        block fold per tracked entry; the result is
        ``(chunk, R2, n_slots)`` levels, matching ``_read_levels`` row
        for row (dispatched through :func:`repro.kernels.read_levels_ids`).
        """
        return kernels.read_levels_ids(
            np.ascontiguousarray(lift0, dtype=np.int64),
            self.read_pos,
            self.read_step,
            self.d,
            self.hit_pos,
            self.hit_time,
            self.hit_step,
            self.v0,
            self._pow_flat,
            self._pow_k,
            self._ct_flat,
            self._ct_size,
            self._maps_flat,
            self._n_levels,
            cache=self._kcache,
        )


class _SharedStructure:
    """Everything a stability campaign shares across its trials."""

    def __init__(
        self,
        template: PhysicalCore,
        target_address: int,
        plan: TrialPlan,
        rng_digest: Optional[str],
        block_branches: int,
    ) -> None:
        predictor = template.predictor
        bimodal = predictor.bimodal.pht
        gshare = predictor.gshare.pht
        fsm = bimodal.fsm
        sel = predictor.selector
        bit = predictor.bit
        T = int(target_address)
        R = plan.repetitions
        R2 = 2 * R

        self.plan = plan
        self.rng_digest = rng_digest
        self.block_branches = int(block_branches)
        self.fsm = fsm
        self.monoid = fsm.transition_monoid()
        # The compose table as int64, once: the summary kernel takes it
        # 2-D and both phase-2 plans flat.
        self._ct = self.monoid.compose_table.astype(np.int64)
        self.d = fsm.n_levels
        self.R = R
        self.R2 = R2
        self.n_b = bimodal.n_entries
        self.n_g = gshare.n_entries
        # Block-branch PHT indices go through the preset's index hash,
        # which the summary kernel takes as an integer encoding.
        self.shift_b = kernel_shift(predictor.bimodal.index_hash, self.n_b)
        self.shift_g = kernel_shift(predictor.gshare.index_hash, self.n_g)
        self.ghr_len = predictor.ghr.length
        self.target = T
        self.tb = predictor.bimodal.index(T, 0, None)
        self.n_sel = sel.n_entries
        self.tsel = T % sel.n_entries
        self.n_sets = bit.n_sets
        self.tag_mask = bit._tag_mask
        self.tset = T % bit.n_sets
        self.ttag = (T // bit.n_sets) & bit._tag_mask
        self.sel_initial = sel._initial
        self.sel_max = sel.max_counter
        self.sel_threshold = sel.gshare_threshold
        self.sel_val0 = int(sel.counters[self.tsel])
        self.bit_valid0 = bool(bit.valid[self.tset])
        self.bit_tag0 = int(bit.tags[self.tset])

        # Phase 1 — identical for every trial — straight off the
        # plan's noise stream in two kernel passes, since the tracked
        # gshare entries depend on the gaps' GHR tails: the addresses
        # and outcomes first, then the gshare indices and nudges.
        # Every slot reads the target's bimodal entry (the closed form's
        # unmitigated index, checked below), last at the final probe,
        # time R2.  ghr_end
        # is only consumed by repetitions with an empty noise gap, which
        # the support predicate excludes, so a placeholder is exact here.
        last_b = np.full(self.n_b, -1, dtype=np.int64)
        last_b[self.tb] = R2
        start, n = plan.noise_start, plan.n_noise
        tails, noise_tag, hits_b, on_tsel, noise_out = kernels.noise_front(
            start,
            n,
            plan.n_gshare,
            NOISE_REGION,
            plan.offsets,
            self.n_b,
            last_b,
            self.n_sel,
            self.tsel,
            self.n_sets,
            self.tset,
            self.tag_mask,
            self.ghr_len,
            plan.memo,
        )
        _, outcomes, b_idx, g_idx = _closed_form(
            plan, T, predictor, 0, tails
        )
        if not (b_idx == self.tb).all():
            raise RuntimeError(
                "bimodal hits were pruned by entry tb, but the closed "
                "form reads other entries"
            )
        self.outcomes = outcomes
        last_g = _last_read(g_idx, self.d, self.n_g)
        drift, hits_g = kernels.noise_back(
            start,
            n,
            plan.n_gshare,
            NOISE_REGION,
            plan.offsets,
            noise_out,
            on_tsel,
            last_g,
            plan.memo,
        )
        self.drift_tsel = drift
        self.noise_tag = noise_tag

        # Phase-2 plans (one per PHT), from the pruned hits.  Noise hits
        # index the bimodal PHT by plain modulo on every preset, exactly
        # as apply_noise_draw does; only probe and block indices are
        # hashed.
        self.plan_b = _NodePlan(
            self.monoid,
            self._ct.ravel(),
            bimodal.levels,
            b_idx,
            outcomes,
            hits_b[0],
            hits_b[2],
            hits_b[1],
            self.d,
            self.n_b,
            last_b,
        )
        self.plan_g = _NodePlan(
            self.monoid,
            self._ct.ravel(),
            gshare.levels,
            g_idx,
            outcomes,
            hits_g[0],
            hits_g[2],
            hits_g[1],
            self.d,
            self.n_g,
            last_g,
        )

        # Phase-3 shared precomputation.
        self.predicts = fsm._predict_arr
        self.predicts_list = [bool(fsm.predicts(lv)) for lv in range(self.d)]
        self.taken_probe = np.arange(R2) < R  # outcome of both probe slots
        sel1 = np.clip(self.sel_initial + drift, 0, 3)
        self.sel1 = sel1
        self.sel1_up = np.minimum(sel1 + 1, self.sel_max)
        self.sel1_down = np.maximum(sel1 - 1, 0)
        self.out_rows = outcomes.tolist()
        # Invariants of the scalar replay chain, hoisted once per
        # campaign: plain-int lists beat per-repetition numpy scalar
        # indexing by an order of magnitude in the untouched-selector
        # loop.
        self.drift_list = drift.tolist()
        self.noise_list = noise_tag.tolist()
        self._oid = self.monoid.outcome_ids.astype(np.int64)

    # -- per-trial summary --------------------------------------------------

    def summarize(self, seed: int) -> Tuple[int, np.ndarray, bool, int]:
        """One block's campaign-relevant footprint.

        Returns ``(bimodal_id, gshare_ids, tsel_touched, block_tag)``:
        the target bimodal entry's fold id, the fold id per tracked
        gshare entry, whether the block touches the target's selector
        entry, and the last identification tag it writes to the target's
        set (-1 when it never touches that set).
        """
        # Fused kernel: it draws the block ``RandomizationBlock.generate``
        # would, and one pass walks the GHR shift register, folds the
        # target bimodal entry and every tracked gshare entry in monoid
        # id space, and spots the selector/BIT touches (the numpy
        # backend generates the block and runs the same reductions as
        # separate vectorised passes — bit-identical either way).
        return kernels.summarize_block(
            seed,
            self.block_branches,
            DEFAULT_BLOCK_BASE,
            self._oid,
            self._ct,
            self.n_b,
            self.shift_b,
            self.tb,
            self.n_g,
            self.shift_g,
            self.plan_g.pos_table,
            self.ghr_len,
            self.n_sel,
            self.tsel,
            self.n_sets,
            self.tset,
            self.tag_mask,
            self.plan_g.n_tracked,
            self.monoid.IDENTITY,
        )

    # -- phase 3 ------------------------------------------------------------

    def _codes_scalar(
        self, row_b: np.ndarray, row_g: np.ndarray, block_tag: int
    ) -> np.ndarray:
        """Sequential prediction chain for one *untouched-selector*
        instance — the rare case where chooser state carries across
        repetitions, replayed exactly as the batch engine's phase 3.

        All campaign-invariant state (predict booleans, drift and noise
        tags as plain-int lists) is hoisted into ``__init__``; this loop
        only touches python ints and pre-listed rows.
        """
        predicts = self.predicts_list
        d = self.d
        sel_initial = self.sel_initial
        sel_max = self.sel_max
        threshold = self.sel_threshold
        ttag = self.ttag
        sel_val = self.sel_val0
        bit_valid = self.bit_valid0
        bit_tag = self.bit_tag0
        drift_list = self.drift_list
        noise_list = self.noise_list
        out_rows = self.out_rows
        codes = np.empty(self.R2, dtype=np.int64)
        b_rows = row_b.tolist()
        g_rows = row_g.tolist()
        for r in range(self.R2):
            row_out = out_rows[r]
            rb = b_rows[r]
            rg = g_rows[r]
            for j in range(d):
                if not (bit_valid and bit_tag == ttag):
                    sel_val = sel_initial
                else:
                    taken = bool(row_out[j])
                    bimodal_ok = predicts[rb[j]] == taken
                    gshare_ok = predicts[rg[j]] == taken
                    if bimodal_ok != gshare_ok:
                        sel_val = (
                            min(sel_max, sel_val + 1)
                            if gshare_ok
                            else max(0, sel_val - 1)
                        )
                bit_valid = True
                bit_tag = ttag
            if block_tag >= 0:
                bit_valid = True
                bit_tag = block_tag
            value = sel_val + drift_list[r]
            sel_val = 0 if value < 0 else (3 if value > 3 else value)
            if noise_list[r] >= 0:
                bit_valid = True
                bit_tag = noise_list[r]
            code = 0
            for slot, j in enumerate((d, d + 1)):
                taken = bool(row_out[j])
                known = bit_valid and bit_tag == ttag
                bimodal_taken = predicts[rb[j]]
                gshare_taken = predicts[rg[j]]
                predicted = (
                    gshare_taken
                    if known and sel_val >= threshold
                    else bimodal_taken
                )
                if predicted != taken:
                    code |= 2 >> slot
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
            codes[r] = code
        return codes

    def assess_chunk(
        self,
        seeds: Sequence[int],
        pre_trial: Optional[Callable[[int], None]],
    ) -> List[BlockAssessment]:
        """Assess one chunk of block seeds through the stacked pipeline.

        ``pre_trial`` runs first, per seed in order, on the calling
        thread.  The rows are then split into contiguous ranges, one per
        usable CPU while each range keeps at least
        :data:`THREAD_FLOOR_BRANCHES` block branches (one range below
        that).  Each range runs the whole pipeline for its rows —
        generate, summarize, read levels, probe codes — and writes its
        row slice of the chunk's arrays; the calling thread runs the
        first range and the others run on threads joined before this
        returns.  Rows are independent, so the result does not depend
        on the split.
        """
        chunk = len(seeds)
        lift_b = np.empty((chunk, 1), dtype=np.int64)
        lift_g = np.empty((chunk, self.plan_g.n_tracked), dtype=np.int64)
        touched = np.empty(chunk, dtype=bool)
        block_tags = np.empty(chunk, dtype=np.int64)
        codes = np.empty((chunk, self.R2), dtype=np.int64)
        if pre_trial is not None:
            for seed in seeds:
                pre_trial(seed)

        def run_rows(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                (
                    lift_b[i, 0], lift_g[i], touched[i], block_tags[i]
                ) = self.summarize(seeds[i])
            self._codes(
                lift_b[lo:hi],
                lift_g[lo:hi],
                touched[lo:hi],
                block_tags[lo:hi],
                codes[lo:hi],
            )

        _run_ranges(run_rows, _row_ranges(chunk, self.block_branches))

        out: List[BlockAssessment] = []
        counts_tt = np.stack(
            [(codes[:, : self.R] == c).sum(axis=1) for c in range(4)], axis=1
        )
        counts_nn = np.stack(
            [(codes[:, self.R:] == c).sum(axis=1) for c in range(4)], axis=1
        )
        # max over (count, pattern): patterns are in lexicographic order,
        # so scaling counts by 4 and adding the code reproduces the
        # scalar tie-break exactly.
        rank = np.arange(4)[None, :]
        best_tt = np.argmax(counts_tt * 4 + rank, axis=1)
        best_nn = np.argmax(counts_nn * 4 + rank, axis=1)
        for i, seed in enumerate(seeds):
            out.append(
                BlockAssessment(
                    seed=seed,
                    tt_pattern=_PATTERNS[best_tt[i]],
                    tt_frequency=int(counts_tt[i, best_tt[i]]) / self.R,
                    nn_pattern=_PATTERNS[best_nn[i]],
                    nn_frequency=int(counts_nn[i, best_nn[i]]) / self.R,
                )
            )
        return out

    def _codes(
        self,
        lift_b: np.ndarray,
        lift_g: np.ndarray,
        touched: np.ndarray,
        block_tags: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """Phases 2 and 3 for a run of rows: read levels from the rows'
        block folds, then fill ``codes`` with each repetition's probe
        code.  The read arrays live only for this call."""
        read_b = self.plan_b.read_levels(lift_b)
        read_g = self.plan_g.read_levels(lift_g)
        d = self.d

        fast = np.nonzero(touched)[0]
        if len(fast):
            # The block resets the target's chooser entry every
            # repetition, so nothing carries between repetitions and the
            # whole chain vectorises: chooser after noise drift is a
            # shared (R2,) vector, and the per-instance part is just the
            # identification tag entering the first probe.
            pred_b1 = self.predicts[read_b[fast, :, d]]
            pred_g1 = self.predicts[read_g[fast, :, d]]
            pred_b2 = self.predicts[read_b[fast, :, d + 1]]
            pred_g2 = self.predicts[read_g[fast, :, d + 1]]
            taken = self.taken_probe[None, :]
            tag1 = np.where(
                self.noise_tag[None, :] >= 0,
                self.noise_tag[None, :],
                np.where(
                    block_tags[fast, None] >= 0,
                    block_tags[fast, None],
                    self.ttag,
                ),
            )
            known1 = tag1 == self.ttag
            use_gshare1 = known1 & (self.sel1[None, :] >= self.sel_threshold)
            miss1 = np.where(use_gshare1, pred_g1, pred_b1) != taken
            b_ok = pred_b1 == taken
            g_ok = pred_g1 == taken
            sel2 = np.where(
                known1,
                np.where(
                    b_ok != g_ok,
                    np.where(
                        g_ok, self.sel1_up[None, :], self.sel1_down[None, :]
                    ),
                    self.sel1[None, :],
                ),
                self.sel_initial,
            )
            # Probe 1 re-identifies the branch, so probe 2 always knows it.
            miss2 = np.where(
                sel2 >= self.sel_threshold, pred_g2, pred_b2
            ) != taken
            codes[fast] = miss1 * 2 + miss2

        for i in np.nonzero(~touched)[0]:
            codes[i] = self._codes_scalar(
                read_b[i], read_g[i], int(block_tags[i])
            )


def manycore_supported(
    core: PhysicalCore, gaps: Optional[np.ndarray] = None
) -> Optional[str]:
    """Why the manycore closed-form engine is inexact for ``core``.

    Returns ``None`` when supported, else the fallback reason —
    ``"mitigation"`` or ``"unshared_structure"``; the conditions live in
    the shared predicate home,
    :func:`repro.core.support.manycore_fallback_reason`.  The preset's
    index hash is not among them: the engine hashes probe and block
    indices through :mod:`repro.bpu.hashes`, so every zoo preset runs
    here.
    """
    return manycore_fallback_reason(core, gaps)


def assess_planned(
    core: PhysicalCore,
    seed: int,
    target_address: int,
    plan: TrialPlan,
    *,
    block_branches: int,
    spy: Process,
) -> BlockAssessment:
    """One trial with its own pre-drawn plan: the engine's N=1 case.

    Bit-identical to generating block ``seed``, compiling it on ``core``
    and running :func:`~repro.core.calibration.assess_block_batch` with
    ``plan`` — but the block is never compiled: a
    :class:`_SharedStructure` built from the fresh ``core`` and ``plan``
    summarises the block in id space, and the core's state and RNG are
    left untouched (an unmitigated compile draws nothing either).  When
    :func:`manycore_supported` names a reason, that reference path runs
    instead, counted as a ``"manycore"`` scalar fallback.
    """
    gaps = plan.offsets[1:] - plan.offsets[:-1]
    reason = manycore_supported(core, gaps)
    if reason is not None:
        obs.record_scalar_fallback("manycore", reason)
        block = RandomizationBlock.generate(seed, n_branches=block_branches)
        compiled = block.compile(core, spy)
        return assess_block_batch(
            core, spy, compiled, target_address, plan=plan
        )
    shared = _SharedStructure(
        core, target_address, plan, None, block_branches
    )
    assessment = shared.assess_chunk([seed], None)[0]
    _trace_assessment("manycore", target_address, assessment)
    return assessment


class ManycoreCampaignPool:
    """A ``TrialPool``-shaped adapter running trials on the SoA engine.

    The default engine of
    :func:`~repro.core.calibration.stability_experiment`: ``map(fn,
    seeds)`` returns the bit-identical :class:`BlockAssessment` list the
    trial closure ``fn`` would produce, but never calls ``fn``.  Two
    modes, chosen once per campaign:

    * ``"shared"`` — an unmitigated, deterministic factory with
      value-equal FSM specs and no empty noise gap: one
      :class:`_SharedStructure` for the whole campaign, assessed a chunk
      of seeds at a time, each chunk's rows split across the usable
      CPUs on threads (see :meth:`_SharedStructure.assess_chunk`).
    * ``"per_payload"`` — anything else: each payload runs on its own
      core.  The cores the mode check built (the template, plus the
      probe when the factory is nondeterministic) are banked and used
      first, so payload ``i`` runs on factory core ``i`` exactly as the
      per-trial closure does.  A mitigated core runs
      :func:`~repro.core.calibration.reference_trial` (its compile may
      draw from the core RNG); any other core draws its plan and runs
      :func:`assess_planned`.  Reference-path payloads are counted as
      ``"manycore"`` scalar fallbacks.

    Composes with :class:`~repro.resilience.ResumableCampaign`
    unchanged — assessments are pure functions of the block seed either
    way, so checkpoints written by one backend resume under the other.
    """

    def __init__(
        self,
        core_factory: Callable[[], PhysicalCore],
        target_address: int,
        *,
        block_branches: int,
        repetitions: int,
        noise: Optional[NoiseModel] = None,
        pre_trial: Optional[Callable[[int], None]] = None,
        chunk_size: int = DEFAULT_CHUNK,
        spy: Optional[Process] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.core_factory = core_factory
        self.target_address = int(target_address)
        self.block_branches = int(block_branches)
        self.repetitions = int(repetitions)
        self.noise = noise
        self.pre_trial = pre_trial
        self.chunk_size = int(chunk_size)
        self._shared: Optional[_SharedStructure] = None
        self._built = False
        self._banked: List[PhysicalCore] = []
        self._spy = spy

    @property
    def rng_digest(self) -> Optional[str]:
        """Stream-position digest every trial's factory RNG ends at.

        ``None`` in per-payload mode, where each core ends at its own.
        """
        self._ensure_built()
        return self._shared.rng_digest if self._shared else None

    def _get_spy(self) -> Process:
        if self._spy is None:
            self._spy = Process("manycore-spy")
        return self._spy

    def _draw_plan(self, core: PhysicalCore) -> TrialPlan:
        return draw_trial_plan(
            core.rng, core, repetitions=self.repetitions, noise=self.noise
        )

    def _ensure_built(self) -> None:
        if self._built:
            return
        self._built = True
        _GROUP_STATS["campaigns"] += 1
        template = self.core_factory()
        if manycore_supported(template) is not None:
            self._banked = [template]
            return
        # One extra factory call checks the shared-plan premise: every
        # trial's fresh core must start from the same RNG position.
        probe = self.core_factory()
        if (
            rng_state_digest(probe.rng) != rng_state_digest(template.rng)
            or probe.config.name != template.config.name
        ):
            self._banked = [template, probe]
            return
        plan = self._draw_plan(template)
        if manycore_supported(template, plan.offsets[1:] - plan.offsets[:-1]):
            return
        self._shared = _SharedStructure(
            template,
            self.target_address,
            plan,
            rng_state_digest(template.rng),
            self.block_branches,
        )

    def _assess_payload(self, seed: int) -> BlockAssessment:
        """One per-payload trial, on the next banked or fresh core."""
        if self.pre_trial is not None:
            self.pre_trial(seed)
        core = self._banked.pop(0) if self._banked else self.core_factory()
        if manycore_supported(core) == "mitigation":
            obs.record_scalar_fallback("manycore", "mitigation")
            _GROUP_STATS["scalar"] += 1
            return reference_trial(
                core,
                self._get_spy(),
                seed,
                self.target_address,
                block_branches=self.block_branches,
                repetitions=self.repetitions,
                noise=self.noise,
            )
        plan = self._draw_plan(core)
        gaps = plan.offsets[1:] - plan.offsets[:-1]
        _GROUP_STATS[
            "scalar" if manycore_supported(core, gaps) else "per_payload"
        ] += 1
        return assess_planned(
            core,
            seed,
            self.target_address,
            plan,
            block_branches=self.block_branches,
            spy=self._get_spy(),
        )

    def map(self, fn: Callable[[int], BlockAssessment], payloads) -> List:
        """``[fn(seed) for seed in payloads]`` through the SoA engine,
        without calling ``fn``."""
        payloads = list(payloads)
        if not payloads:
            return []
        self._ensure_built()
        _GROUP_STATS["map_calls"] += 1
        _GROUP_STATS["payloads"] += len(payloads)
        if self._shared is None:
            return [self._assess_payload(seed) for seed in payloads]
        _GROUP_STATS["shared"] += len(payloads)
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "calibration",
                "manycore_dispatch",
                address=self.target_address,
                trials=len(payloads),
                chunk=self.chunk_size,
                nodes_bimodal=self._shared.plan_b.n_nodes,
                nodes_gshare=self._shared.plan_g.n_nodes,
            )
        results: List[BlockAssessment] = []
        for start in range(0, len(payloads), self.chunk_size):
            results.extend(
                self._shared.assess_chunk(
                    payloads[start:start + self.chunk_size], self.pre_trial
                )
            )
        return results
