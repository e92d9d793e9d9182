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

Every assessment consumes a pre-drawn :class:`TrialPlan` — the plan is
the only source of trial randomness — and two engines run it:

* :func:`assess_block` — the scalar reference: every scramble branch,
  block application, noise gap and probe runs through
  :meth:`~repro.cpu.core.PhysicalCore.execute_branch` /
  :meth:`~repro.core.randomizer.CompiledBlock.apply`.
* :func:`assess_block_batch` — the vectorised fast path
  (:mod:`repro.core.calibration_batch`): it tracks only the handful of
  predictor entries the probes can observe and evolves them with numpy
  table operations, returning the same :class:`BlockAssessment` from the
  same plan while leaving the predictor and the core RNG untouched —
  pinned by the differential tests in ``tests/test_calibration_batch.py``.  Whenever a
  mitigation perturbs the observation itself (stochastic FSM, noisy
  counters) it runs the scalar engine instead.

:func:`find_block` walks candidates in seed order as independent
trials, each with a generator spawned via ``np.random.SeedSequence``
from one entropy draw, so the block it picks and the caller's RNG
position it leaves are the same with or without a checkpoint.
:func:`stability_experiment` runs on the manycore engine
(:mod:`repro.core.manycore`), with :func:`reference_trial` as its
per-trial reference.  Both searches accept
``checkpoint=`` (a file path): progress then persists as an append-only
:class:`~repro.resilience.ShardLog` and a killed campaign resumes
bit-identically (see :mod:`repro.resilience.checkpoint` and MODELING.md
§10).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.patterns import DecodedState, decode_state
from repro.core.support import (
    batch_scan_fallback_reason,
    batch_scan_supported,
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
from repro.parallel import TrialPool, spawn_seeds
from repro.resilience.checkpoint import ResumableCampaign, ShardLog
from repro.system.noise import (
    NOISE_REGION,
    NoiseDraw,
    NoiseModel,
    apply_noise_draw,
    draw_noise_at,
    pcg64_state,
    pcg64_stream,
)

__all__ = [
    "BlockAssessment",
    "CalibrationError",
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

#: Candidates :func:`find_block` assesses between two checkpoints.
CHECKPOINT_WAVE = 4


class CalibrationError(RuntimeError):
    """No candidate block produced the requested stable state."""


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

    def to_state(self) -> Dict[str, object]:
        """Plain-data form for checkpoint logs (floats round-trip
        exactly through JSON)."""
        return {
            "seed": int(self.seed),
            "tt_pattern": self.tt_pattern,
            "tt_frequency": float(self.tt_frequency),
            "nn_pattern": self.nn_pattern,
            "nn_frequency": float(self.nn_frequency),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "BlockAssessment":
        return cls(**state)


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

    :func:`draw_trial_plan` draws every scramble outcome and the whole
    noise stream of all ``2 x repetitions`` repetitions in a handful of
    vectorised generator calls up front, so no engine makes a
    per-repetition generator call.  Both engines take a plan (``plan=``
    on :func:`assess_block` / :func:`assess_block_batch`) and produce
    identical assessments from the same plan.

    The noise is kept as where it starts in the generator's PCG64
    stream: :attr:`bulk` draws it with numpy on first use, and the
    manycore engine reads what it needs straight off the stream
    (:func:`repro.kernels.noise_front`), never allocating the arrays.
    """

    #: ``(2 * repetitions, fsm.n_levels)`` random scramble outcomes.
    scrambles: np.ndarray
    #: ``(2 * repetitions + 1,)`` prefix offsets into the noise arrays.
    offsets: np.ndarray
    #: The PCG64 position the noise draw starts at, as the plain value
    #: :func:`~repro.system.noise.pcg64_stream` reads.
    noise_start: Tuple[int, int, int, int]
    #: The noise's gshare index range (the core's gshare PHT size); its
    #: addresses span ``NOISE_REGION``.
    n_gshare: int
    #: Memo holding the plan's numpy noise draw once made.
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def repetitions(self) -> int:
        return len(self.scrambles) // 2

    @property
    def n_noise(self) -> int:
        """Noise branches over all gaps."""
        return int(self.offsets[-1])

    @property
    def bulk(self) -> NoiseDraw:
        """One :class:`~repro.system.noise.NoiseDraw` holding every
        gap's noise stream back to back (drawn once, on first use)."""
        return draw_noise_at(
            self.noise_start, self.n_noise, self.n_gshare, NOISE_REGION,
            self.memo,
        )[0]

    def gap(self, r: int) -> int:
        return int(self.offsets[r + 1] - self.offsets[r])

    def noise_draw(self, r: int) -> NoiseDraw:
        """Repetition ``r``'s noise gap as zero-copy views of the bulk."""
        lo, hi = int(self.offsets[r]), int(self.offsets[r + 1])
        bulk = self.bulk
        return NoiseDraw(
            hi - lo,
            bulk.addresses[lo:hi],
            bulk.outcomes[lo:hi],
            bulk.gshare_indices[lo:hi],
            bulk.nudges[lo:hi],
        )


def draw_trial_plan(
    rng: np.random.Generator,
    core: PhysicalCore,
    *,
    repetitions: int = 100,
    noise: Optional[NoiseModel] = None,
) -> TrialPlan:
    """Pre-draw one assessment's randomness from ``rng`` (a PCG64
    generator).

    The scrambles and gaps are drawn here; the noise is recorded where
    it starts, and ``rng`` is moved to exactly where drawing it would
    leave it (:func:`repro.kernels.noise_advance`) — the one place a
    kernel's end position is written back into a caller's generator.
    """
    noise = noise if noise is not None else NoiseModel.isolated()
    fsm = core.predictor.bimodal.pht.fsm
    n_reps = 2 * repetitions
    scrambles = rng.integers(0, 2, size=(n_reps, fsm.n_levels))
    gaps = noise.gap_array(rng, n_reps)
    offsets = np.zeros(n_reps + 1, dtype=np.int64)
    np.cumsum(gaps, out=offsets[1:])
    start = pcg64_stream(rng)
    n_gshare = core.predictor.gshare.pht.n_entries
    memo: dict = {}
    end = kernels.noise_advance(
        start, int(offsets[-1]), n_gshare, NOISE_REGION, memo
    )
    rng.bit_generator.state = pcg64_state(end)
    return TrialPlan(
        scrambles=scrambles,
        offsets=offsets,
        noise_start=start,
        n_gshare=n_gshare,
        memo=memo,
    )


def assess_block(
    core: PhysicalCore,
    spy: Process,
    compiled: CompiledBlock,
    target_address: int,
    *,
    plan: TrialPlan,
) -> BlockAssessment:
    """Measure a block's probe-pattern stability at ``target_address``.

    Each repetition first *scrambles* the target entry to a random level
    (by executing the spy's own branch at the target address with random
    outcomes — during an attack the entry's pre-block state is whatever
    the victim and earlier probes left behind, so a usable block must pin
    the entry regardless), then applies the block, lets the configured
    system noise hit the BPU, and probes.  TT and NN variants are
    measured in separate repetitions (each must start from a freshly
    prepared state).  The scramble outcomes, the noise and the number of
    repetitions all come from ``plan``.  The surrounding core state is
    checkpointed and restored, the core RNG stream included (every
    executed branch draws its timing from it).
    """
    checkpoint = core.checkpoint()
    rng_state = core.rng.bit_generator.state
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
    core.rng.bit_generator.state = rng_state
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


def assess_block_batch(
    core: PhysicalCore,
    spy: Process,
    compiled: CompiledBlock,
    target_address: int,
    *,
    plan: TrialPlan,
) -> BlockAssessment:
    """Vectorised :func:`assess_block`: the same assessment from the
    same ``plan``.

    The engine in :mod:`repro.core.calibration_batch` writes no
    predictor state and draws from no generator, so the predictor and
    the core RNG are left exactly as found.  When a mitigation
    perturbs the observation itself (a stochastic FSM, a noisy counter —
    the :func:`~repro.core.support.batch_scan_supported` predicate, same
    contract as the §6.3 batch scan) this runs the scalar engine instead
    and counts the fallback.  Every registered index hash runs batched.
    """
    if not batch_scan_supported(core):
        obs.record_scalar_fallback(
            "calibration_batch", batch_scan_fallback_reason(core)
        )
        return assess_block(core, spy, compiled, target_address, plan=plan)
    from repro.core.calibration_batch import batch_assess

    assessment = batch_assess(core, spy, compiled, target_address, plan)
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
    checkpoint=None,
    resume: bool = True,
) -> CompiledBlock:
    """Search candidate blocks until one stably yields ``desired_state``.

    "The attacker can randomly generate the blocks of code that randomize
    the PHT until the block is found that leaves the target PHT entry in
    the desired state" (§6.2).  Candidates whose transition-map row does
    not *pin* the target entry to the desired state are discarded with a
    cheap analytical check before the full stability assessment runs,
    and surviving candidates compile through the process-wide
    compiled-block cache (see :meth:`RandomizationBlock.compile`), so
    repeated searches over the same seed range cost one compile each.

    Candidates are independent trials, walked in seed order until the
    first stable one.  Each trial draws its :class:`TrialPlan` from a
    generator spawned from one entropy draw on ``rng`` (default the
    core RNG) and assesses with :func:`assess_block_batch`.  The entropy
    draw is the search's whole footprint on ``rng``: each trial runs
    against its own deep copy of the core, so candidate assessment never
    advances mitigation state (rekey clocks, partition bookkeeping) of
    the caller's core.

    With ``checkpoint`` given (a file path), the search becomes
    crash-safe and resumable: a :class:`~repro.resilience.ShardLog`
    record of the entropy draw, the index reached and the winner (if
    any) is appended after every :data:`CHECKPOINT_WAVE` candidates and
    at the end, and the last record wins, so a killed search re-run with
    the same arguments (``resume=True``) skips already-cleared
    candidates and returns the identical block.

    Raises :class:`CalibrationError` after ``max_candidates`` failures.
    """
    fsm = core.predictor.bimodal.pht.fsm
    desired_name = desired_state.value
    tracer = obs.TRACER
    if tracer is not None:
        tracer.emit(
            "calibration",
            "search_start",
            address=target_address,
            desired=desired_state.value,
            max_candidates=max_candidates,
            engine="batch" if batch_scan_supported(core) else "scalar",
        )

    def _finish(compiled: CompiledBlock) -> CompiledBlock:
        if tracer is not None:
            tracer.emit(
                "calibration",
                "search_done",
                address=target_address,
                seed=compiled.block.seed,
                candidates=compiled.block.seed - seed_start + 1,
            )
        return compiled

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
    log = ShardLog(checkpoint, fingerprint) if checkpoint is not None else None
    records = {}
    if log is not None:
        if resume:
            records = log.load()
        else:
            log.clear()
    # The entropy draw always happens (the caller's stream position must
    # not depend on whether a checkpoint existed); a resumed search then
    # overrides it with the checkpointed value so its per-candidate
    # streams — and therefore its outcome — match the interrupted run's.
    entropy_rng = rng if rng is not None else core.rng
    entropy = int(entropy_rng.integers(np.iinfo(np.int64).max))
    next_index = 0
    if records:
        next_index = max(records)
        entropy = records[next_index]["entropy"]
        winner_seed = records[next_index]["winner_seed"]
        if winner_seed is not None:
            block = RandomizationBlock.generate(
                winner_seed, n_branches=block_branches
            )
            return _finish(block.compile(core, spy))
        if next_index >= max_candidates:
            raise CalibrationError(
                f"no stable block for {desired_state} at "
                f"{target_address:#x} in {max_candidates} candidates "
                f"(checkpointed exhaustion)"
            )
    children = spawn_seeds(entropy, max_candidates)

    def trial(index: int) -> Optional[CompiledBlock]:
        # A private copy keeps the caller's core (RNG position,
        # mitigation clocks) untouched — one entropy draw is the whole
        # search's footprint on the caller.
        trial_core = copy.deepcopy(core)
        block = RandomizationBlock.generate(
            seed_start + index, n_branches=block_branches
        )
        row = block.entry_fold(trial_core, spy, target_address)
        if not (row == row[0]).all():
            return None
        if fsm.public_state(int(row[0])).name != desired_name:
            return None
        compiled = block.compile(trial_core, spy)
        plan = draw_trial_plan(
            np.random.default_rng(children[index]),
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

    def save(next_index: int, winner_seed: Optional[int] = None) -> None:
        if log is not None:
            record = {"entropy": entropy, "winner_seed": winner_seed}
            log.append([(next_index, record)])

    if not records:
        save(0)  # pin the entropy before any candidate runs
    winner = None
    for index in range(next_index, max_candidates):
        winner = trial(index)
        if winner is not None:
            save(index, winner.block.seed)
            break
        if (index + 1) % CHECKPOINT_WAVE == 0:
            save(index + 1)
    else:
        save(max_candidates)
    if winner is None:
        raise CalibrationError(
            f"no stable block for {desired_state} at {target_address:#x} "
            f"in {max_candidates} candidates"
        )
    return _finish(winner)


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
    is also trivially resumable: ``checkpoint`` (a file path) appends
    each assessment's ``to_state()`` every ``checkpoint_interval``
    trials through :class:`~repro.resilience.ResumableCampaign`, and a
    killed run re-invoked with the same arguments returns the
    bit-identical list while re-running only uncheckpointed trials.  ``fingerprint_extra``
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
    reference: :func:`reference_trial` on a fresh core per seed, in a
    plain loop (:class:`~repro.parallel.TrialPool`).  Both return the
    bit-identical list, so a campaign checkpointed under one backend
    resumes under the other.
    """
    if backend not in ("process", "manycore"):
        raise ValueError(f"unknown backend {backend!r}")
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
        trial_pool = TrialPool()
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
        result_type=BlockAssessment,
    )
    return campaign.map(trial_pool, trial, payloads)
