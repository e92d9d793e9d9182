"""Differential tests for the vectorised calibration engine.

Three invariants are pinned here:

* **plan mode** — both engines produce identical assessments from the
  same pre-drawn :class:`TrialPlan` on every preset (the fold-hash
  ``oryon_like`` included) and under every mitigation stack, and the
  batch engine leaves the core untouched (checkpoint-equal
  before/after, same core RNG position) and ends with the same
  mitigation hook state as the scalar engine; observation mitigations
  fall back to the scalar engine;
* **engine agreement** — the per-trial ``stability_experiment``
  reference, the scalar engine and the default manycore engine return
  bit-identical results;
* **one calibration walk** — ``find_block`` picks the same block and
  leaves the caller's RNG at the same position whether or not it
  checkpoints its walk.
"""

import numpy as np
import pytest

from repro.bpu.presets import haswell, oryon_like, sandy_bridge, skylake
from repro.core.calibration import (
    assess_block,
    assess_block_batch,
    draw_trial_plan,
    find_block,
    stability_experiment,
)
from repro.core.calibration import _dominant
from repro.core.patterns import DecodedState
from repro.core.randomizer import RandomizationBlock
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.mitigations import (
    BpuPartitioning,
    BtbFlushOnContextSwitch,
    NoisyPerformanceCounters,
    NoisyTimer,
    PhtIndexRandomization,
    StaticPredictionForSensitiveBranches,
    StochasticFSM,
)
from repro.obs import trace as obs
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import NoiseModel
from tests.conftest import scalar_stability

PRESETS = {
    "skylake": skylake,
    "haswell": haswell,
    "sandy_bridge": sandy_bridge,
    "oryon_like": oryon_like,
}

TARGET = 0x7F0000001234

#: Batch-engine mitigation stacks; each entry is ``core -> [mitigations]``.
STACKS = {
    "none": lambda core: [],
    "static": lambda core: [StaticPredictionForSensitiveBranches()],
    "rekey": lambda core: [
        PhtIndexRandomization(np.random.default_rng(5), rekey_period=37)
    ],
    "partition": lambda core: [
        BpuPartitioning.by_process(core.predictor.bimodal.pht.n_entries)
    ],
    "timer+btb": lambda core: [
        NoisyTimer(sigma=25.0),
        BtbFlushOnContextSwitch(),
    ],
    "kitchen": lambda core: [
        PhtIndexRandomization(np.random.default_rng(9), rekey_period=13),
        NoisyTimer(sigma=10.0),
    ],
}


#: Observation mitigations: the batch engine falls back to the scalar one.
FALLBACK_STACKS = {
    "noisy_counters": lambda core: [NoisyPerformanceCounters(1)],
    "stochastic_fsm": lambda core: [StochasticFSM(0.25)],
}

#: ``(preset, stack, protect)`` inputs of the plan-mode mitigation test:
#: every preset under every stack (skylake cases keep the bare stack
#: name as their id), a protected target branch, and the fallbacks.
MITIGATED_CASES = [
    pytest.param(
        preset,
        stack,
        False,
        id=stack if preset == "skylake" else f"{stack}-{preset}",
    )
    for preset in sorted(PRESETS)
    for stack in sorted(STACKS)
] + [
    pytest.param("skylake", "static", True, id="static-protected"),
] + [
    pytest.param("haswell", stack, False, id=f"{stack}-haswell")
    for stack in sorted(FALLBACK_STACKS)
]


def build(preset_name, stack_name, *, protect=False, seed=3):
    core = PhysicalCore(PRESETS[preset_name]().scaled(256), seed=seed)
    spy = Process("spy", pid=90001)
    if protect:
        spy.protect_branch(TARGET)
    for mitigation in {**STACKS, **FALLBACK_STACKS}[stack_name](core):
        core.install_mitigation(mitigation)
    block = RandomizationBlock.generate(7, n_branches=1500)
    compiled = block.compile(core, spy)
    # Warm history: the engines must agree from arbitrary prior state,
    # not just a pristine core.
    for k, taken in enumerate([1, 0, 1, 1, 0, 1]):
        core.execute_branch(spy, TARGET + (k % 3), bool(taken))
    return core, spy, compiled


def eq(a, b):
    """Deep equality across the nested checkpoint structures."""
    if isinstance(a, dict):
        return set(a) == set(b) and all(eq(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(eq(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestPlanDifferential:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize(
        "noise_name", ["silent", "isolated", "noisy"]
    )
    def test_same_plan_same_assessment(self, preset_name, noise_name):
        noise = getattr(NoiseModel, noise_name)()

        core1, spy1, compiled1 = build(preset_name, "none", seed=11)
        plan1 = draw_trial_plan(
            np.random.default_rng(42), core1, repetitions=30, noise=noise
        )
        scalar = assess_block(core1, spy1, compiled1, TARGET, plan=plan1)

        core2, spy2, compiled2 = build(preset_name, "none", seed=11)
        before = core2.checkpoint()
        digest = rng_state_digest(core2.rng)
        plan2 = draw_trial_plan(
            np.random.default_rng(42), core2, repetitions=30, noise=noise
        )
        obs.reset_scalar_fallbacks()
        batch = assess_block_batch(core2, spy2, compiled2, TARGET, plan=plan2)
        after = core2.checkpoint()

        assert "calibration_batch" not in obs.scalar_fallback_counts()
        assert rng_state_digest(core2.rng) == digest
        assert batch == scalar
        # Plan-mode batch assessment is a pure function: the core is
        # left exactly as found.
        assert eq(before, after)

    @pytest.mark.parametrize(
        "preset_name, stack_name, protect", MITIGATED_CASES
    )
    def test_under_mitigation_stacks(self, preset_name, stack_name, protect):
        obs.reset_scalar_fallbacks()
        assessments = []
        for engine in (assess_block, assess_block_batch):
            core, spy, compiled = build(
                preset_name, stack_name, protect=protect, seed=11
            )
            plan = draw_trial_plan(
                np.random.default_rng(42),
                core,
                repetitions=30,
                noise=NoiseModel.isolated(),
            )
            assessments.append(engine(core, spy, compiled, TARGET, plan=plan))
        assert assessments[0] == assessments[1]
        fallbacks = obs.scalar_fallback_counts().get("calibration_batch", 0)
        assert fallbacks == (stack_name in FALLBACK_STACKS)

    @pytest.mark.parametrize("stack_name", sorted(STACKS))
    def test_leaves_core_as_found(self, stack_name):
        """Under every mitigation stack both engines restore the full
        core state and leave the mitigation hooks in the same state (a
        rekeying defense advances through the assessment on both), and
        both engines leave the core RNG stream where it was."""
        hook_keys = []
        for engine in (assess_block, assess_block_batch):
            core, spy, compiled = build("skylake", stack_name, seed=11)
            before = core.checkpoint()
            plan = draw_trial_plan(
                np.random.default_rng(42),
                core,
                repetitions=24,
                noise=NoiseModel.isolated(),
            )
            digest = rng_state_digest(core.rng)
            engine(core, spy, compiled, TARGET, plan=plan)
            assert eq(before, core.checkpoint())
            assert rng_state_digest(core.rng) == digest, engine.__name__
            hook_keys.append(core.mitigations.pht_key(spy))
        assert hook_keys[0] == hook_keys[1]

    def test_plan_repetitions_property(self):
        core, _, _ = build("haswell", "none")
        plan = draw_trial_plan(
            np.random.default_rng(0),
            core,
            repetitions=12,
            noise=NoiseModel.silent(),
        )
        assert plan.repetitions == 12


SMALL_STABILITY = dict(
    n_blocks=8,
    block_branches=1200,
    repetitions=16,
    noise=NoiseModel.isolated(),
)


def small_factory():
    return PhysicalCore(haswell().scaled(16), seed=6)


def small_stability(**kwargs):
    return stability_experiment(
        small_factory, 0x30_0006D, **SMALL_STABILITY, **kwargs
    )


class TestStabilityEngines:
    def test_stability_engines_agree(self):
        reference = small_stability(backend="process")
        assert len(reference) == 8
        assert scalar_stability(
            small_factory, 0x30_0006D, **SMALL_STABILITY
        ) == reference
        assert small_stability() == reference


class TestOneCalibrationWalk:
    """``find_block`` has one walk: checkpointing it (a save every
    ``CHECKPOINT_WAVE`` candidates) changes neither the pick nor the
    caller's RNG position."""

    @pytest.mark.parametrize("desired", [DecodedState.SN, DecodedState.ST])
    @pytest.mark.parametrize("preset_name", ["haswell", "skylake"])
    def test_checkpointed_walk_matches_plain_walk(
        self, tmp_path, preset_name, desired
    ):
        outcomes = set()
        for checkpoint in (None, tmp_path / "walk.ckpt"):
            core = PhysicalCore(PRESETS[preset_name]().scaled(16), seed=9)
            compiled = find_block(
                core,
                Process("spy", pid=90002),
                0x30_0006D,
                desired,
                block_branches=4000,
                repetitions=16,
                noise=NoiseModel.isolated(),
                checkpoint=checkpoint,
            )
            outcomes.add((compiled.block.seed, rng_state_digest(core.rng)))
        assert len(outcomes) == 1


class TestDominantTieBreak:
    def test_tie_breaks_on_pattern_not_order(self):
        assert _dominant(["MM", "HH"]) == _dominant(["HH", "MM"])
        pattern, share = _dominant(["HH", "MM"])
        assert pattern == "MM"  # lexicographically largest among equals
        assert share == 0.5

    def test_majority_wins(self):
        assert _dominant(["HH", "HH", "MM"]) == ("HH", 2 / 3)

    def test_four_way_tie(self):
        pattern, share = _dominant(["MM", "MH", "HM", "HH"])
        assert pattern == "MM"
        assert share == 0.25
