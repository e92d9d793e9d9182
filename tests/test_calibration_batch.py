"""Differential tests for the vectorised calibration engine.

Three invariants are pinned here:

* **replay mode** — :func:`assess_block_batch` called with the scalar
  signature (``repetitions=``/``noise=``) is a bit-exact drop-in for
  :func:`assess_block`: same :class:`BlockAssessment`, same post-call
  core state, same RNG stream position, same mitigation hook state —
  on every preset (the fold-hash ``oryon_like`` included) and under
  every fast-path-safe mitigation stack;
* **plan mode** — both engines produce identical assessments from the
  same pre-drawn :class:`TrialPlan`, and the batch engine leaves the
  core untouched (checkpoint-equal before/after);
* **worker-count determinism** — the per-trial ``stability_experiment``
  reference and ``find_block`` return bit-identical results at any
  worker count, and the default manycore engine matches them.
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
from repro.parallel import TrialPool, fork_available
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

#: Fast-path-safe mitigation stacks; each entry is ``core -> [mitigations]``.
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


def build(preset_name, stack_name, *, protect=False, seed=3):
    core = PhysicalCore(PRESETS[preset_name]().scaled(256), seed=seed)
    spy = Process("spy", pid=90001)
    if protect:
        spy.protect_branch(TARGET)
    for mitigation in STACKS[stack_name](core):
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


def run_replay(engine, preset_name, stack_name, *, protect=False, rng=None):
    core, spy, compiled = build(preset_name, stack_name, protect=protect)
    assessment = engine(
        core,
        spy,
        compiled,
        TARGET,
        repetitions=24,
        noise=NoiseModel.isolated(),
        rng=rng() if rng is not None else None,
    )
    state = core.checkpoint()
    stream_position = core.rng.integers(1 << 62)
    hook_key = core.mitigations.pht_key(spy)
    return assessment, state, stream_position, hook_key


class TestReplayDifferential:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize("stack_name", sorted(STACKS))
    def test_batch_is_bit_exact_drop_in(self, preset_name, stack_name):
        scalar = run_replay(assess_block, preset_name, stack_name)
        obs.reset_scalar_fallbacks()
        batch = run_replay(assess_block_batch, preset_name, stack_name)
        assert "calibration_batch" not in obs.scalar_fallback_counts()
        assert batch[0] == scalar[0]  # assessment
        assert eq(batch[1], scalar[1])  # full core state
        assert batch[2] == scalar[2]  # core RNG stream position
        assert batch[3] == scalar[3]  # mitigation hook state

    def test_protected_target_branch(self):
        scalar = run_replay(assess_block, "skylake", "static", protect=True)
        batch = run_replay(
            assess_block_batch, "skylake", "static", protect=True
        )
        assert batch[0] == scalar[0]
        assert eq(batch[1], scalar[1])

    def test_decoupled_observation_rng(self):
        rng = lambda: np.random.default_rng(123)
        scalar = run_replay(assess_block, "haswell", "rekey", rng=rng)
        batch = run_replay(assess_block_batch, "haswell", "rekey", rng=rng)
        assert batch[0] == scalar[0]
        assert eq(batch[1], scalar[1])
        assert batch[2:] == scalar[2:]

    @pytest.mark.parametrize(
        "mitigation",
        [NoisyPerformanceCounters(1), StochasticFSM(0.25)],
        ids=["noisy_counters", "stochastic_fsm"],
    )
    def test_observation_mitigations_fall_back_scalar_exact(self, mitigation):
        """Unsupported mitigations: batch == scalar via the fallback,
        consuming the identical core RNG stream."""
        results = []
        for engine in (assess_block, assess_block_batch):
            core, spy, compiled = build("haswell", "none")
            core.install_mitigation(mitigation)
            assessment = engine(
                core,
                spy,
                compiled,
                TARGET,
                repetitions=16,
                noise=NoiseModel.isolated(),
            )
            results.append((assessment, core.rng.integers(1 << 62)))
        assert results[0] == results[1]


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
        "stack_name", ["static", "rekey", "partition", "timer+btb"]
    )
    def test_under_mitigation_stacks(self, stack_name):
        noise = NoiseModel.isolated()
        assessments = []
        for engine in (assess_block, assess_block_batch):
            core, spy, compiled = build("skylake", stack_name, seed=11)
            plan = draw_trial_plan(
                np.random.default_rng(42), core, repetitions=30, noise=noise
            )
            assessments.append(engine(core, spy, compiled, TARGET, plan=plan))
        assert assessments[0] == assessments[1]

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


class TestWorkerDeterminism:
    def test_stability_experiment_bit_identical(self):
        serial = small_stability(backend="process", pool=TrialPool(1))
        assert len(serial) == 8
        # TrialPool() follows REPRO_TRIAL_WORKERS, so a pool smoke run
        # forks the per-trial closure here.
        assert small_stability(backend="process") == serial
        if not fork_available():
            pytest.skip("platform cannot fork workers")
        assert small_stability(backend="process", pool=TrialPool(4)) == serial

    def test_stability_engines_agree(self):
        reference = small_stability(backend="process", pool=TrialPool(1))
        assert scalar_stability(
            small_factory, 0x30_0006D, **SMALL_STABILITY
        ) == reference
        assert small_stability() == reference

    @pytest.mark.skipif(
        not fork_available(), reason="platform cannot fork workers"
    )
    def test_find_block_pooled_worker_invariant(self):
        blocks = []
        for workers in (1, 3):
            core = PhysicalCore(haswell().scaled(16), seed=9)
            compiled = find_block(
                core,
                Process("spy"),
                0x30_0006D,
                DecodedState.SN,
                block_branches=2000,
                repetitions=16,
                noise=NoiseModel.isolated(),
                rng=np.random.default_rng(17),
                workers=workers,
            )
            blocks.append(compiled.block.seed)
        assert blocks[0] == blocks[1]


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
