"""Pre-attack calibration: choosing the randomisation block (paper §6.2).

The attacker cannot set a PHT entry directly — the randomisation block
rewrites the whole table.  But a block's effect on a given entry is
reproducible, so the attacker generates candidate blocks and keeps one
that (a) leaves the *target* entry in the desired state and (b) does so
*stably* under system noise.  The paper's stability experiment (10 000
candidate blocks x 1000 probes each, Figure 4) defines the methodology:

* for each candidate block, repeatedly execute the block and probe the
  target address, separately with ``TT`` and ``NN`` probe variants;
* a block is *stable* if the most frequent probe pattern occurs at least
  85% of the time for **both** variants;
* stable pattern pairs decode to a PHT state via the Table 1 dictionary;
  anything else is ``unknown`` (too noisy) — and an always-``HH``/``HH``
  signature is ``dirty`` (2-level predictor interference).

"Finding the appropriate randomization code is a one-time effort by the
attacker and can be performed during the pre-attack stage.  This is a
key element of BranchScope."

Two execution engines implement the assessment:

* :func:`assess_block` — the scalar reference: every scramble branch,
  block application, noise gap and probe runs through
  :meth:`~repro.cpu.core.PhysicalCore.execute_branch` /
  :meth:`~repro.core.randomizer.CompiledBlock.apply`.
* :func:`assess_block_batch` — the vectorised fast path
  (:mod:`repro.core.calibration_batch`): a *replay* engine that tracks
  only the handful of predictor entries the probes can observe and
  evolves them with numpy table operations, while consuming the
  identical generator streams (observation draws *and* the core RNG's
  timing draws) and making the identical mitigation hook calls.  It is
  therefore a bit-exact drop-in — same :class:`BlockAssessment`, same
  post-call core/RNG/mitigation state — pinned by the differential
  tests in ``tests/test_calibration_batch.py``.  Whenever a mitigation
  perturbs the observation itself (stochastic FSM, noisy counters) or a
  custom timing model is installed, it transparently runs the scalar
  engine instead.

:func:`find_block` optionally fans independent candidates across a
:class:`repro.parallel.TrialPool` (``workers=`` kwarg) with per-candidate
generators spawned via ``np.random.SeedSequence`` from one entropy draw,
so search outcomes are bit-identical at any worker count.
:func:`stability_experiment` runs on the manycore engine
(:mod:`repro.core.manycore`), with :func:`reference_trial` as its
per-trial reference.  Both searches accept
``checkpoint=`` (a path or :class:`repro.resilience.CheckpointStore`):
progress then persists through crash-safe atomic checkpoints and a
killed campaign resumes bit-identically (see
:mod:`repro.resilience.checkpoint` and MODELING.md §10).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.patterns import DecodedState, decode_state
from repro.core.support import (
    batch_assess_fallback_reason,
    batch_assess_supported,
    scalar_engine_forced,
)
from repro.core.prime_probe import probe_pair
from repro.core.randomizer import (
    PAPER_BLOCK_BRANCHES,
    CompiledBlock,
    RandomizationBlock,
)
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.parallel import TrialPool, resolve_workers, spawn_seeds
from repro.resilience.checkpoint import (
    ResumableCampaign,
    as_store,
    verify_fingerprint,
)
from repro.system.noise import (
    NoiseDraw,
    NoiseModel,
    apply_noise_draw,
    draw_noise,
    inject_noise,
)

__all__ = [
    "BlockAssessment",
    "CalibrationError",
    "SearchStats",
    "TrialPlan",
    "assess_block",
    "assess_block_batch",
    "draw_trial_plan",
    "find_block",
    "reference_trial",
    "stability_experiment",
]

#: Paper §6.2: "the most frequent prediction pattern in both variations
#: of the probing code occurs more than 85% of the time".
STABILITY_THRESHOLD = 0.85


class CalibrationError(RuntimeError):
    """No candidate block produced the requested stable state."""


@dataclass(frozen=True)
class SearchStats:
    """How a :func:`find_block` search spent its effort.

    Returned alongside the block via ``find_block(..., with_stats=True)``.
    ``assessed`` is ``None`` on the pooled path (a cancelled-early fan-out
    does not report how many trials ran); ``scalar_fallbacks`` counts
    fallbacks observed *in this process* — trials running in forked
    workers keep their own counters, so ``scalar_engine_forced`` is the
    portable signal that the fast engine was disabled for the search.
    """

    #: Candidate seeds examined (serial) or submitted to the pool.
    candidates: int
    #: Full stability assessments actually run (``None`` when pooled).
    assessed: Optional[int]
    #: Scalar-engine fallbacks recorded in this process during the search.
    scalar_fallbacks: int
    #: True when the fallback predicate disables the batch engine for
    #: every assessment of this search (mitigation/timing on the core).
    scalar_engine_forced: bool
    #: Worker count the search resolved to.
    workers: int


def _trace_assessment(
    engine: str, target_address: int, assessment: "BlockAssessment"
) -> None:
    """Emit the per-assessment "calibration" event (no-op untraced)."""
    tracer = obs.TRACER
    if tracer is not None:
        tracer.emit(
            "calibration",
            "block_assessed",
            engine=engine,
            address=target_address,
            seed=assessment.seed,
            tt=f"{assessment.tt_pattern}:{assessment.tt_frequency:.3f}",
            nn=f"{assessment.nn_pattern}:{assessment.nn_frequency:.3f}",
            stable=assessment.stable,
        )


@dataclass(frozen=True)
class BlockAssessment:
    """Stability statistics of one candidate block at one target address."""

    seed: int
    #: Most frequent TT-probe pattern and its relative frequency.
    tt_pattern: str
    tt_frequency: float
    #: Most frequent NN-probe pattern and its relative frequency.
    nn_pattern: str
    nn_frequency: float

    @property
    def stable(self) -> bool:
        """Paper's stability criterion: both dominant patterns >= 85%."""
        return (
            self.tt_frequency >= STABILITY_THRESHOLD
            and self.nn_frequency >= STABILITY_THRESHOLD
        )

    def decoded(self, fsm) -> DecodedState:
        """State implied by the dominant patterns (UNKNOWN if unstable)."""
        if not self.stable:
            return DecodedState.UNKNOWN
        return decode_state(fsm, self.tt_pattern, self.nn_pattern)


def _dominant_counts(counts: Dict[str, int], total: int) -> Tuple[str, float]:
    """Dominant pattern from a ``{pattern: count}`` table.

    Ties break on ``(count, pattern)`` — lexicographically largest
    pattern wins among equals — so the result is a pure function of the
    counts, not of observation order.  (``Counter.most_common`` breaks
    ties by insertion order, which differs between the scalar engine's
    chronological counting and a vectorised engine's histogram.)
    """
    pattern, count = max(counts.items(), key=lambda item: (item[1], item[0]))
    return pattern, count / total


def _dominant(patterns: Sequence[str]) -> Tuple[str, float]:
    return _dominant_counts(Counter(patterns), len(patterns))


@dataclass(frozen=True)
class TrialPlan:
    """All randomness one block assessment consumes, pre-drawn in bulk.

    The scalar engine interleaves observation draws with the core RNG's
    timing draws, so a per-repetition draw loop is the only way to stay
    on its historical stream — and per-call :class:`~numpy.random.Generator`
    overhead then dominates the vectorised engine.  A trial plan breaks
    that floor: :func:`draw_trial_plan` draws every scramble outcome and
    the whole noise stream of all ``2 x repetitions`` repetitions in a
    handful of vectorised generator calls up front.  Both engines accept
    a plan (``plan=`` on :func:`assess_block` / :func:`assess_block_batch`)
    and produce identical assessments from the same plan, which is what
    the pooled candidate searches hand their per-trial generators.
    """

    #: ``(2 * repetitions, fsm.n_levels)`` random scramble outcomes.
    scrambles: np.ndarray
    #: ``(2 * repetitions + 1,)`` prefix offsets into the noise arrays.
    offsets: np.ndarray
    #: One bulk :class:`~repro.system.noise.NoiseDraw` holding every
    #: gap's noise stream back to back.
    bulk: NoiseDraw

    @property
    def repetitions(self) -> int:
        return len(self.scrambles) // 2

    def gap(self, r: int) -> int:
        return int(self.offsets[r + 1] - self.offsets[r])

    def noise_draw(self, r: int) -> NoiseDraw:
        """Repetition ``r``'s noise gap as zero-copy views of the bulk."""
        lo, hi = int(self.offsets[r]), int(self.offsets[r + 1])
        return NoiseDraw(
            hi - lo,
            self.bulk.addresses[lo:hi],
            self.bulk.outcomes[lo:hi],
            self.bulk.gshare_indices[lo:hi],
            self.bulk.nudges[lo:hi],
        )


def draw_trial_plan(
    rng: np.random.Generator,
    core: PhysicalCore,
    *,
    repetitions: int = 100,
    noise: Optional[NoiseModel] = None,
) -> TrialPlan:
    """Pre-draw one assessment's randomness from ``rng`` (seven calls)."""
    noise = noise if noise is not None else NoiseModel.isolated()
    fsm = core.predictor.bimodal.pht.fsm
    n_reps = 2 * repetitions
    scrambles = rng.integers(0, 2, size=(n_reps, fsm.n_levels))
    gaps = noise.gap_array(rng, n_reps)
    offsets = np.zeros(n_reps + 1, dtype=np.int64)
    np.cumsum(gaps, out=offsets[1:])
    bulk = draw_noise(
        rng, int(offsets[-1]), core.predictor.gshare.pht.n_entries
    )
    return TrialPlan(scrambles=scrambles, offsets=offsets, bulk=bulk)


def assess_block(
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
    """Measure a block's probe-pattern stability at ``target_address``.

    Each repetition first *scrambles* the target entry to a random level
    (by executing the spy's own branch at the target address with random
    outcomes — during an attack the entry's pre-block state is whatever
    the victim and earlier probes left behind, so a usable block must pin
    the entry regardless), then applies the block, lets the configured
    system noise hit the BPU, and probes.  TT and NN variants are
    measured in separate repetitions (each must start from a freshly
    prepared state).  The surrounding core state is checkpointed and
    restored.

    With ``plan`` given (a pre-drawn :class:`TrialPlan`), the scramble
    and noise randomness comes from the plan instead of ``rng`` and
    ``repetitions``/``noise`` are taken from it — the draw-call pattern
    on the live generators changes, but the simulated machine semantics
    are exactly the same.
    """
    if plan is not None:
        assessment = _assess_block_plan(
            core, spy, compiled, target_address, plan
        )
        _trace_assessment("scalar", target_address, assessment)
        return assessment
    rng = rng if rng is not None else core.rng
    noise = noise if noise is not None else NoiseModel.isolated()
    fsm = core.predictor.bimodal.pht.fsm
    checkpoint = core.checkpoint()
    observations = {}
    for outcomes in ((True, True), (False, False)):
        patterns: List[str] = []
        for _ in range(repetitions):
            for taken in rng.integers(0, 2, size=fsm.n_levels):
                core.execute_branch(spy, target_address, bool(taken))
            compiled.apply(core, spy)
            inject_noise(core, noise.gap_branches(rng), rng)
            patterns.append(
                probe_pair(core, spy, target_address, outcomes).pattern
            )
        observations[outcomes] = _dominant(patterns)
    core.restore(checkpoint)
    tt_pattern, tt_freq = observations[(True, True)]
    nn_pattern, nn_freq = observations[(False, False)]
    assessment = BlockAssessment(
        seed=compiled.block.seed,
        tt_pattern=tt_pattern,
        tt_frequency=tt_freq,
        nn_pattern=nn_pattern,
        nn_frequency=nn_freq,
    )
    _trace_assessment("scalar", target_address, assessment)
    return assessment


def _assess_block_plan(
    core: PhysicalCore,
    spy: Process,
    compiled: CompiledBlock,
    target_address: int,
    plan: TrialPlan,
) -> BlockAssessment:
    """Scalar assessment consuming a pre-drawn :class:`TrialPlan`."""
    checkpoint = core.checkpoint()
    observations = {}
    r = 0
    for outcomes in ((True, True), (False, False)):
        patterns: List[str] = []
        for _ in range(plan.repetitions):
            for taken in plan.scrambles[r]:
                core.execute_branch(spy, target_address, bool(taken))
            compiled.apply(core, spy)
            apply_noise_draw(core, plan.noise_draw(r))
            patterns.append(
                probe_pair(core, spy, target_address, outcomes).pattern
            )
            r += 1
        observations[outcomes] = _dominant(patterns)
    core.restore(checkpoint)
    tt_pattern, tt_freq = observations[(True, True)]
    nn_pattern, nn_freq = observations[(False, False)]
    return BlockAssessment(
        seed=compiled.block.seed,
        tt_pattern=tt_pattern,
        tt_frequency=tt_freq,
        nn_pattern=nn_pattern,
        nn_frequency=nn_freq,
    )


def assess_block_batch(
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
    """Vectorised :func:`assess_block` — bit-identical result and state.

    All repetitions of both probe variants are computed by the replay
    engine in :mod:`repro.core.calibration_batch`, which consumes the
    same generator streams and makes the same mitigation hook calls as
    the scalar reference — so the returned assessment, the post-call
    core state *and* the RNG stream positions are all identical, and
    callers may mix the two engines freely.  When a mitigation perturbs
    the observation itself (a stochastic FSM, a noisy counter — the
    :func:`~repro.core.support.batch_scan_supported` predicate, same
    contract as the §6.3 batch scan) or the core runs a custom
    :class:`~repro.cpu.timing.TimingModel` subclass (whose draw pattern
    the replay could not mirror), this transparently runs the scalar
    engine instead.  Every registered index hash runs batched.

    With a pre-drawn ``plan`` there is no stream to replay — the result
    is pinned to :func:`assess_block` with the same plan, the engine
    skips the per-repetition draw loop *and* the timing-draw replay
    entirely (this is the trial fast path), and a custom timing
    model no longer forces the scalar fallback.
    """
    if not batch_assess_supported(core, plan):
        obs.record_scalar_fallback(
            "calibration_batch",
            batch_assess_fallback_reason(core, plan) or "custom_timing",
        )
        return assess_block(
            core,
            spy,
            compiled,
            target_address,
            repetitions=repetitions,
            noise=noise,
            rng=rng,
            plan=plan,
        )
    from repro.core.calibration_batch import batch_assess

    assessment = batch_assess(
        core,
        spy,
        compiled,
        target_address,
        repetitions=repetitions,
        noise=noise,
        rng=rng,
        plan=plan,
    )
    _trace_assessment("batch", target_address, assessment)
    return assessment


def find_block(
    core: PhysicalCore,
    spy: Process,
    target_address: int,
    desired_state: DecodedState,
    *,
    block_branches: int = PAPER_BLOCK_BRANCHES,
    repetitions: int = 60,
    max_candidates: int = 64,
    noise: Optional[NoiseModel] = None,
    seed_start: int = 0,
    rng: Optional[np.random.Generator] = None,
    workers: Optional[int] = None,
    with_stats: bool = False,
    checkpoint=None,
    resume: bool = True,
):
    """Search candidate blocks until one stably yields ``desired_state``.

    "The attacker can randomly generate the blocks of code that randomize
    the PHT until the block is found that leaves the target PHT entry in
    the desired state" (§6.2).  Candidates whose transition-map row does
    not *pin* the target entry to the desired state are discarded with a
    cheap analytical check before the full stability assessment runs,
    and surviving candidates compile through the process-wide
    compiled-block cache (see :meth:`RandomizationBlock.compile`), so
    repeated searches over the same seed range cost one compile each.

    By default (``workers=None`` and no ``REPRO_TRIAL_WORKERS``) the
    search walks candidates serially with assessments chained on ``rng``
    (default the core RNG) — the historical behaviour, bit-for-bit.
    Assessments run the batch engine, a bit-exact drop-in for the
    scalar :func:`assess_block` oracle that falls back to it where the
    core needs it.

    With ``workers`` given (or the env var set), candidates become
    independent trials fanned across a
    :class:`~repro.parallel.TrialPool`: each assesses with its own
    generator spawned from a single entropy draw on ``rng``, and the
    returned block is the first stable candidate *in seed order* at any
    worker count (which may differ from the serial walk's pick — the
    pooled trials draw different observation streams).  Under
    mitigations each pooled trial runs against its own deep copy of the
    core, so candidate assessment never advances mitigation state
    (rekey clocks, partition bookkeeping) of the caller's core.

    With ``with_stats=True`` the return value is a
    ``(CompiledBlock, SearchStats)`` pair surfacing how many candidates
    and assessments the search consumed and whether (and how often, in
    this process) the batch engine fell back to the scalar path.

    With ``checkpoint`` given (a path or
    :class:`~repro.resilience.CheckpointStore`), the search becomes
    crash-safe and resumable: the entropy draw and the index reached are
    persisted after every wave, so a killed search re-run with the same
    arguments (``resume=True``) skips already-cleared candidates and
    returns the identical block.  Checkpointing forces the pooled,
    trial-plan path even at one worker — candidate outcomes must be pure
    functions of the candidate index to survive a resume, which the
    serial rng-chained walk is not.

    Raises :class:`CalibrationError` after ``max_candidates`` failures.
    """
    fsm = core.predictor.bimodal.pht.fsm
    desired_name = desired_state.value
    n_workers = resolve_workers(workers)
    pooled = checkpoint is not None or not (
        workers is None and n_workers == 1
    )
    # Every pooled assessment carries a plan, so only the mitigation
    # part of the fallback predicate can disable the batch engine
    # there; the serial path (no plan) also falls back on a custom
    # timing model.
    scalar_forced = scalar_engine_forced(core, pooled=pooled)
    fallbacks_before = obs.scalar_fallback_counts().get("calibration_batch", 0)
    tracer = obs.TRACER
    if tracer is not None:
        tracer.emit(
            "calibration",
            "search_start",
            address=target_address,
            desired=desired_state.value,
            max_candidates=max_candidates,
            workers=n_workers,
            engine="scalar" if scalar_forced else "batch",
        )

    def _finish(compiled: CompiledBlock, candidates: int, assessed):
        if tracer is not None:
            tracer.emit(
                "calibration",
                "search_done",
                address=target_address,
                seed=compiled.block.seed,
                candidates=candidates,
            )
        if not with_stats:
            return compiled
        fallbacks = (
            obs.scalar_fallback_counts().get("calibration_batch", 0)
            - fallbacks_before
        )
        return compiled, SearchStats(
            candidates=candidates,
            assessed=assessed,
            scalar_fallbacks=fallbacks,
            scalar_engine_forced=scalar_forced,
            workers=n_workers,
        )

    if not pooled:
        assessed = 0
        for count, seed in enumerate(
            range(seed_start, seed_start + max_candidates), start=1
        ):
            block = RandomizationBlock.generate(
                seed, n_branches=block_branches
            )
            row = block.entry_fold(core, spy, target_address)
            if not (row == row[0]).all():
                continue
            if fsm.public_state(int(row[0])).name != desired_name:
                continue
            compiled = block.compile(core, spy)
            assessment = assess_block_batch(
                core,
                spy,
                compiled,
                target_address,
                repetitions=repetitions,
                noise=noise,
                rng=rng,
            )
            assessed += 1
            if assessment.stable and assessment.decoded(fsm) is desired_state:
                return _finish(compiled, count, assessed)
        raise CalibrationError(
            f"no stable block for {desired_state} at {target_address:#x} "
            f"in {max_candidates} candidates"
        )

    fingerprint = {
        "experiment": "find_block",
        "target_address": target_address,
        "desired_state": desired_state.value,
        "block_branches": block_branches,
        "repetitions": repetitions,
        "max_candidates": max_candidates,
        "noise": repr(noise),
        "seed_start": seed_start,
    }
    store = as_store(checkpoint) if checkpoint is not None else None
    state = None
    if store is not None:
        if not resume:
            store.clear()
        else:
            state = verify_fingerprint(store, store.load(), fingerprint)
    # The entropy draw always happens (the caller's stream position must
    # not depend on whether a checkpoint existed); a resumed search then
    # overrides it with the checkpointed value so its per-candidate
    # streams — and therefore its outcome — match the interrupted run's.
    entropy_rng = rng if rng is not None else core.rng
    entropy = int(entropy_rng.integers(np.iinfo(np.int64).max))
    next_index = 0
    if state is not None:
        entropy = state["entropy"]
        next_index = state["next_index"]
        if state.get("complete"):
            winner_seed = state.get("winner_seed")
            if winner_seed is None:
                raise CalibrationError(
                    f"no stable block for {desired_state} at "
                    f"{target_address:#x} in {max_candidates} candidates "
                    f"(checkpointed exhaustion)"
                )
            block = RandomizationBlock.generate(
                winner_seed, n_branches=block_branches
            )
            return _finish(block.compile(core, spy), max_candidates, None)
    children = spawn_seeds(entropy, max_candidates)

    def trial(payload: Tuple[int, np.random.SeedSequence]):
        candidate_seed, child = payload
        # A private copy keeps the caller's core (RNG position,
        # mitigation clocks) untouched whether the trial runs in-process
        # or in a forked worker — one entropy draw is the whole search's
        # footprint on the caller.
        trial_core = copy.deepcopy(core)
        block = RandomizationBlock.generate(
            candidate_seed, n_branches=block_branches
        )
        row = block.entry_fold(trial_core, spy, target_address)
        if not (row == row[0]).all():
            return None
        if fsm.public_state(int(row[0])).name != desired_name:
            return None
        compiled = block.compile(trial_core, spy)
        plan = draw_trial_plan(
            np.random.default_rng(child),
            trial_core,
            repetitions=repetitions,
            noise=noise,
        )
        assessment = assess_block_batch(
            trial_core, spy, compiled, target_address, plan=plan
        )
        if assessment.stable and assessment.decoded(fsm) is desired_state:
            return compiled
        return None

    pool = TrialPool(n_workers)
    payloads = list(
        zip(range(seed_start, seed_start + max_candidates), children)
    )
    if store is None:
        winner = pool.find_first(trial, payloads)
    else:
        # Same wave walk as find_first, with a checkpoint per wave —
        # identical winner, but a SIGKILL costs at most one wave.
        def save(index: int, complete: bool, winner_seed=None) -> None:
            store.save(
                {
                    "fingerprint": fingerprint,
                    "entropy": entropy,
                    "next_index": index,
                    "complete": complete,
                    "winner_seed": winner_seed,
                }
            )

        if state is None:
            save(0, False)  # pin the entropy before any wave runs
        wave = n_workers * 4
        winner = None
        for start in range(next_index, max_candidates, wave):
            for result in pool.map(trial, payloads[start:start + wave]):
                if result is not None:
                    winner = result
                    break
            if winner is not None:
                save(start, True, winner.block.seed)
                break
            save(start + wave, False)
        if winner is None:
            save(max_candidates, True)
    if winner is None:
        raise CalibrationError(
            f"no stable block for {desired_state} at {target_address:#x} "
            f"in {max_candidates} candidates"
        )
    return _finish(winner, max_candidates, None)


def reference_trial(
    core: PhysicalCore,
    spy: Process,
    block_seed: int,
    target_address: int,
    *,
    block_branches: int,
    repetitions: int,
    noise: Optional[NoiseModel] = None,
) -> BlockAssessment:
    """One Figure 4 trial on ``core``, the per-trial reference.

    Generate block ``block_seed``, compile it, draw the trial plan and
    run :func:`assess_block_batch`.  The compile comes before the plan
    draw because a mitigated core's compile draws from ``core.rng``.
    """
    block = RandomizationBlock.generate(block_seed, n_branches=block_branches)
    compiled = block.compile(core, spy)
    plan = draw_trial_plan(
        core.rng, core, repetitions=repetitions, noise=noise
    )
    return assess_block_batch(core, spy, compiled, target_address, plan=plan)


def stability_experiment(
    core_factory: Callable[[], PhysicalCore],
    target_address: int,
    *,
    n_blocks: int = 400,
    block_branches: int = 20_000,
    repetitions: int = 100,
    noise: Optional[NoiseModel] = None,
    seed_start: int = 0,
    checkpoint=None,
    checkpoint_interval: Optional[int] = None,
    resume: bool = True,
    fingerprint_extra: Optional[Dict[str, object]] = None,
    pool: Optional[TrialPool] = None,
    pre_trial: Optional[Callable[[int], None]] = None,
    backend: str = "manycore",
) -> List[BlockAssessment]:
    """The Figure 4 experiment: stability scatter over many random blocks.

    Scaled down from the paper's 10 000 blocks x 1000 probes by default;
    the bench passes its own sizes.  A fresh core per candidate keeps
    candidates independent, as the paper's iterations are — and makes
    each trial fully self-contained (its observation stream is the fresh
    core's own seeded RNG), so the assessment list is a pure function of
    the arguments, whichever engine computes it.

    Because every trial is a pure function of its block seed, the sweep
    is also trivially resumable: ``checkpoint`` (a path or
    :class:`~repro.resilience.CheckpointStore`) persists results every
    ``checkpoint_interval`` trials through
    :class:`~repro.resilience.ResumableCampaign`, and a killed run
    re-invoked with the same arguments returns the bit-identical list
    while re-running only uncheckpointed trials.  ``fingerprint_extra``
    folds caller-side identity (the core factory's preset and seed,
    which this function cannot see inside the closure) into the
    checkpoint fingerprint so a parameter change is a
    :class:`~repro.resilience.CheckpointMismatch`, not a silent splice.
    ``pre_trial`` runs inside the trial before any work — the chaos
    harness and the ``repro campaign`` CLI use it to slow or fault
    trials without touching the result.

    The default engine, :class:`~repro.core.manycore.ManycoreCampaignPool`,
    assesses the campaign in one process, splitting big chunks' rows
    across the usable CPUs on threads; a campaign that cannot share one
    structure (a mitigation, a nondeterministic factory, ...) runs each
    payload on its own core, counted under the ``"manycore"``
    scalar-fallback key.  ``backend="process"`` names the per-trial
    reference: :func:`reference_trial` on a fresh core per seed, on
    ``pool`` (a caller-built :class:`~repro.parallel.TrialPool`, e.g. one
    carrying a fault injector) or on ``TrialPool()``, which follows
    ``REPRO_TRIAL_WORKERS``.  Both return the bit-identical list, so a
    campaign checkpointed under one backend resumes under the other.
    """
    if backend not in ("process", "manycore"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "manycore" and pool is not None:
        raise ValueError("backend='manycore' already supplies the pool")
    spy = Process("stability-spy")

    def trial(block_seed: int) -> BlockAssessment:
        if pre_trial is not None:
            pre_trial(block_seed)
        return reference_trial(
            core_factory(),
            spy,
            block_seed,
            target_address,
            block_branches=block_branches,
            repetitions=repetitions,
            noise=noise,
        )

    if backend == "manycore":
        from repro.core.manycore import ManycoreCampaignPool

        trial_pool = ManycoreCampaignPool(
            core_factory,
            target_address,
            block_branches=block_branches,
            repetitions=repetitions,
            noise=noise,
            pre_trial=pre_trial,
            spy=spy,
        )
    else:
        trial_pool = pool if pool is not None else TrialPool()
    payloads = list(range(seed_start, seed_start + n_blocks))
    if checkpoint is None:
        return trial_pool.map(trial, payloads)
    fingerprint = {
        "experiment": "stability_experiment",
        "target_address": target_address,
        "n_blocks": n_blocks,
        "block_branches": block_branches,
        "repetitions": repetitions,
        "noise": repr(noise),
        "seed_start": seed_start,
    }
    if fingerprint_extra:
        fingerprint.update(fingerprint_extra)
    campaign = ResumableCampaign(
        checkpoint,
        fingerprint=fingerprint,
        interval=checkpoint_interval,
        resume=resume,
    )
    return campaign.map(trial_pool, trial, payloads)
