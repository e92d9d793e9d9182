"""Manycore struct-of-arrays backend: differential and unit coverage.

The contract under test is *bit-identity*: the manycore engine must
return exactly the assessment list (and leave exactly the caller-visible
RNG positions) that the per-trial path produces, across presets, noise
models, checkpoint interruptions, and every fallback branch.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.bpu.fsm import _power_table, monoid_closure
from repro.bpu.presets import (
    firestorm_like,
    haswell,
    oryon_like,
    sandy_bridge,
    skylake,
    tage_like,
)
from repro.core.calibration import (
    assess_block_batch,
    draw_trial_plan,
    stability_experiment,
)
from repro.core import manycore
from repro.core.manycore import (
    ManycoreCampaignPool,
    _SharedStructure,
    assess_planned,
    group_batch_stats,
    manycore_supported,
    reset_group_batch_stats,
)
from repro.core.randomizer import RandomizationBlock
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.mitigations.noisy_counters import NoisyPerformanceCounters
from repro.mitigations.stochastic_fsm import StochasticFSM
from repro.obs import trace as obs
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import NoiseModel
from tests.conftest import scalar_stability

TARGET = 0x30_0006D
#: A target the ``oryon_like`` fold hash moves at scale 16 (512-entry
#: tables, fold shift 9): ``(T >> 9) % 512 == 5``, so its probe indices
#: differ from the modulo ones.  ``TARGET``'s are equal (``== 0``).
FOLD_TARGET = 0x30_0A6D

ALL_PRESETS = [
    skylake,
    haswell,
    sandy_bridge,
    tage_like,
    firestorm_like,
    oryon_like,
]


def small_factory(preset, seed=7, factor=16):
    config = preset().scaled(factor)
    return lambda: PhysicalCore(config, seed=seed)


@pytest.fixture(autouse=True)
def _clean_fallback_counts():
    obs.reset_scalar_fallbacks()
    yield
    obs.reset_scalar_fallbacks()


class TestDifferential:
    """backend='manycore' == backend='process', bit for bit."""

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_all_presets(self, preset):
        """Against the scalar engine, and with no engine falling back on
        any preset — the fold-hash ``oryon_like`` included."""
        factory = small_factory(preset)
        kwargs = dict(
            n_blocks=10,
            block_branches=2500,
            repetitions=12,
            noise=NoiseModel.isolated(),
        )
        reference = scalar_stability(factory, FOLD_TARGET, **kwargs)
        batch = stability_experiment(
            factory, FOLD_TARGET, backend="process", **kwargs
        )
        reset_group_batch_stats()
        manycore = stability_experiment(
            factory, FOLD_TARGET, backend="manycore", **kwargs
        )
        assert batch == reference
        assert manycore == reference
        assert obs.scalar_fallback_counts() == {}
        assert group_batch_stats()["shared"] == 10

    def test_fold_preset_grouped_mode(self):
        """A mixed-seed ``oryon_like`` factory (cores 7,3,7,3,7,9) runs
        every payload on its own core through the N=1 engine, with no
        fallback, and equals the scalar engine."""
        config = oryon_like().scaled(16)
        n = config.bimodal_entries
        assert (FOLD_TARGET ^ (FOLD_TARGET >> 9)) % n != FOLD_TARGET % n

        def make_factory():
            seeds = iter([7, 3, 7, 3, 7, 9])
            return lambda: PhysicalCore(config, seed=next(seeds))

        kwargs = dict(
            n_blocks=6,
            block_branches=2000,
            repetitions=8,
            noise=NoiseModel.isolated(),
            seed_start=20,
        )
        reference = scalar_stability(make_factory(), FOLD_TARGET, **kwargs)
        reset_group_batch_stats()
        per_payload = stability_experiment(
            make_factory(), FOLD_TARGET, backend="manycore", **kwargs
        )
        assert per_payload == reference
        assert "manycore" not in obs.scalar_fallback_counts()
        stats = group_batch_stats()
        assert (stats["per_payload"], stats["shared"], stats["scalar"]) == (
            6, 0, 0
        )

    def test_untouched_selector_path(self):
        """Blocks too small to touch the target's chooser entry exercise
        the sequential phase-3 chain; results must still match."""
        factory = small_factory(skylake, factor=4)
        kwargs = dict(
            n_blocks=16,
            block_branches=300,
            repetitions=8,
            noise=NoiseModel.noisy(),
            seed_start=100,
        )
        config = skylake().scaled(4)
        missed = sum(
            not (
                RandomizationBlock.generate(s, n_branches=300).addresses
                % config.selector_entries
                == TARGET % config.selector_entries
            ).any()
            for s in range(100, 116)
        )
        assert missed > 0  # the scenario actually covers the slow path
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference

    def test_quiesced_noise(self):
        factory = small_factory(haswell)
        kwargs = dict(
            n_blocks=8,
            block_branches=2000,
            repetitions=10,
            noise=NoiseModel.quiesced(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            stability_experiment(
                small_factory(skylake), TARGET, n_blocks=1, backend="gpu"
            )


class TestRNGDiscipline:
    def test_shared_plan_digest_matches_scalar_stream(self):
        """Every scalar trial leaves its factory core's RNG at the same
        position; the pool's shared draw must land exactly there."""
        for preset in (skylake, oryon_like):
            factory = small_factory(preset)
            pool = ManycoreCampaignPool(
                factory,
                TARGET,
                block_branches=2000,
                repetitions=12,
                noise=NoiseModel.isolated(),
            )
            core = factory()
            draw_trial_plan(
                core.rng, core, repetitions=12, noise=NoiseModel.isolated()
            )
            assert pool.rng_digest == rng_state_digest(core.rng)

    def test_nondeterministic_factory_groups_per_payload(self):
        """Distinct-seed cores run per payload, each on the N=1 engine
        (never the caller's fn), and the assessments stay bit-identical
        to the process backend running the same factory-call
        sequence."""
        config = skylake().scaled(16)

        def make_factory():
            seeds = iter(range(1000))
            return lambda: PhysicalCore(config, seed=next(seeds))

        kwargs = dict(
            n_blocks=3,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.isolated(),
            seed_start=1,
        )
        reference = stability_experiment(
            make_factory(), TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        reset_group_batch_stats()
        manycore = stability_experiment(
            make_factory(), TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert "manycore" not in obs.scalar_fallback_counts()
        assert group_batch_stats()["per_payload"] == 3

    @pytest.mark.parametrize("variant", ["mitigation", "unequal_fsm"])
    def test_nondeterministic_reference_path_keeps_core_order(self, variant):
        """Cores seeded 100, 101, ... that need the reference path (a
        mitigation, or value-unequal FSM specs): trial ``i`` must run on
        factory core ``i``, as in the process backend — the cores built
        to pick the mode are banked, not discarded."""
        config = haswell().scaled(16)

        def make_factory():
            seeds = iter(range(100, 1000))

            def factory():
                core = PhysicalCore(config, seed=next(seeds))
                if variant == "mitigation":
                    core.mitigations.install(NoisyPerformanceCounters())
                else:
                    pht = core.predictor.gshare.pht
                    pht.fsm = dataclasses.replace(
                        pht.fsm, name=pht.fsm.name + "-gshare"
                    )
                return core

            return factory

        assert manycore_supported(make_factory()()) is not None
        kwargs = dict(
            n_blocks=4,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.noisy(),
        )
        reference = stability_experiment(
            make_factory(), TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        reset_group_batch_stats()
        manycore = stability_experiment(
            make_factory(), TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts()["manycore"] == 4
        assert group_batch_stats()["scalar"] == 4

    def test_nondeterministic_factory_never_calls_fn(self):
        seeds = iter(range(1000))
        config = skylake().scaled(16)

        def factory():
            return PhysicalCore(config, seed=next(seeds))

        pool = ManycoreCampaignPool(
            factory, TARGET, block_branches=1500, repetitions=6
        )

        def fail(_seed):
            raise AssertionError("per-payload mode must not call fn")

        out = pool.map(fail, [1, 2, 3])
        assert len(out) == 3 and all(a is not None for a in out)
        assert "manycore" not in obs.scalar_fallback_counts()


class TestFallbacks:
    @pytest.mark.parametrize(
        "mitigation", [NoisyPerformanceCounters, StochasticFSM]
    )
    def test_mitigated_core_uses_scalar_path(self, mitigation):
        config = skylake().scaled(16)

        def factory():
            core = PhysicalCore(config, seed=3)
            core.mitigations.install(mitigation())
            return core

        kwargs = dict(
            n_blocks=4,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.isolated(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts()["manycore"] == 4

    def test_zero_gap_noise_uses_scalar_path(self):
        factory = small_factory(skylake)
        kwargs = dict(
            n_blocks=4,
            block_branches=1500,
            repetitions=6,
            noise=NoiseModel.silent(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        manycore = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert manycore == reference
        assert obs.scalar_fallback_counts()["manycore"] == 4

    def test_supported_predicate(self):
        core = PhysicalCore(skylake().scaled(16), seed=0)
        assert manycore_supported(core) is None
        assert manycore_supported(core, np.array([3, 0, 5])) == (
            "unshared_structure"
        )
        core.mitigations.install(StochasticFSM())
        assert manycore_supported(core) == "mitigation"


class TestSummaryDigest:
    def test_index_hash_keys_persisted_summaries(self):
        """Two geometries that differ only in ``index_hash`` summarise
        the same block differently — even at a target below the table
        size, where both hashes agree on every probe index and hence on
        the target and tracked entries."""
        target = 0x6D
        structures = {}
        for index_hash in ("mod", "fold"):
            config = dataclasses.replace(
                oryon_like().scaled(16), index_hash=index_hash
            )
            core = PhysicalCore(config, seed=7)
            plan = draw_trial_plan(
                core.rng, core, repetitions=6, noise=NoiseModel.isolated()
            )
            structures[index_hash] = _SharedStructure(
                core, target, plan, rng_state_digest(core.rng), 2000
            )
        mod, fold = structures["mod"], structures["fold"]
        assert mod.tb == fold.tb
        assert np.array_equal(mod.plan_g.pos_table, fold.plan_g.pos_table)
        assert mod.summarize(3)[1].tolist() != fold.summarize(3)[1].tolist()


class TestPowerTable:
    """The doubled power table equals the one-step-at-a-time loop."""

    #: Column counts around every doubling boundary (columns ``m..2m-2``
    #: fill from column ``m-1``), plus a paper-scale ``2R + 1``.
    K_MAX = (0, 1, 2, 3, 4, 5, 8, 9, 2 * 1000 + 1)

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_matches_naive_loop(self, preset):
        core = PhysicalCore(preset().scaled(16), seed=0)
        monoid = core.predictor.bimodal.pht.fsm.transition_monoid()
        size = len(monoid.maps)
        elements = np.arange(size)
        for k_max in self.K_MAX:
            naive = np.empty((size, k_max + 1), dtype=np.int64)
            naive[:, 0] = monoid.IDENTITY
            for k in range(1, k_max + 1):
                naive[:, k] = monoid.compose_table[naive[:, k - 1], elements]
            doubled = _power_table(
                monoid.compose_table, monoid.IDENTITY, k_max
            )
            assert doubled.dtype == np.int64
            assert np.array_equal(doubled, naive), (preset.__name__, k_max)

    @staticmethod
    def _fresh_monoid():
        """A skylake monoid object no other test has grown a table on."""
        spec = skylake().fsm
        return monoid_closure.__wrapped__(
            spec.n_levels,
            (tuple(spec.next_on_not_taken), tuple(spec.next_on_taken)),
        )

    def test_one_table_per_monoid_grown_on_demand(self):
        monoid = self._fresh_monoid()
        table = monoid.power_table(10)
        assert table.shape[1] == 11
        assert not table.flags.writeable
        # A smaller request reuses the table; a larger one regrows it.
        assert monoid.power_table(4) is table
        grown = monoid.power_table(2 * 1000 + 1)
        assert grown.shape[1] == 2 * 1000 + 2
        assert monoid.power_table(50) is grown
        assert np.array_equal(
            grown,
            _power_table(monoid.compose_table, monoid.IDENTITY, 2 * 1000 + 1),
        )
        # Structures use the cached monoid's own table.
        core = PhysicalCore(skylake().scaled(16), seed=0)
        plan = draw_trial_plan(
            core.rng, core, repetitions=6, noise=NoiseModel.isolated()
        )
        shared = _SharedStructure(core, TARGET, plan, None, 2000)
        cached = shared.monoid.power_table(0)
        assert np.shares_memory(shared.plan_g._pow_flat, cached)
        assert shared.plan_g._pow_k == cached.shape[1] >= 2 * 6 + 2

    def test_racing_threads_never_see_a_partial_table(self):
        monoid = self._fresh_monoid()
        reference = _power_table(monoid.compose_table, monoid.IDENTITY, 4001)
        got = {}

        def grow(k_max):
            for step in range(20):
                k = k_max + step * 100
                got[(k_max, step)] = (k, monoid.power_table(k))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=grow, args=(k,))
                for k in (1, 500, 1000, 2000)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 80
        for k, table in got.values():
            assert table.shape[1] > k
            assert np.array_equal(table, reference[:, : table.shape[1]])


class TestAssessPlanned:
    """The N=1 entry point against the plan-mode batch reference."""

    def _reference(self, core_factory, seed, plan):
        core = core_factory()
        spy = Process("spy")
        compiled = RandomizationBlock.generate(seed, n_branches=1500).compile(
            core, spy
        )
        assessment = assess_block_batch(core, spy, compiled, TARGET, plan=plan)
        return assessment, rng_state_digest(core.rng)

    @pytest.mark.parametrize(
        "noise", [NoiseModel.isolated, NoiseModel.noisy, NoiseModel.silent]
    )
    def test_matches_batch_reference(self, noise):
        factory = small_factory(skylake)
        plan = draw_trial_plan(
            np.random.default_rng(5), factory(), repetitions=8, noise=noise()
        )
        core = factory()
        got = assess_planned(
            core, 11, TARGET, plan, block_branches=1500, spy=Process("spy")
        )
        assert (got, rng_state_digest(core.rng)) == self._reference(
            factory, 11, plan
        )
        silent = noise is NoiseModel.silent
        assert obs.scalar_fallback_counts().get("manycore", 0) == int(silent)

    def test_mitigated_core_falls_back(self):
        config = skylake().scaled(16)

        def factory():
            core = PhysicalCore(config, seed=3)
            core.mitigations.install(StochasticFSM())
            return core

        plan = draw_trial_plan(
            np.random.default_rng(5),
            factory(),
            repetitions=8,
            noise=NoiseModel.isolated(),
        )
        core = factory()
        got = assess_planned(
            core, 11, TARGET, plan, block_branches=1500, spy=Process("spy")
        )
        assert (got, rng_state_digest(core.rng)) == self._reference(
            factory, 11, plan
        )
        assert obs.scalar_fallback_counts()["manycore"] == 1


class TestCheckpointing:
    def _kwargs(self):
        return dict(
            n_blocks=9,
            block_branches=2000,
            repetitions=10,
            noise=NoiseModel.isolated(),
        )

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        factory = small_factory(haswell)
        expected = stability_experiment(
            factory, TARGET, backend="process", **self._kwargs()
        )
        store = tmp_path / "campaign.ckpt"

        calls = {"n": 0}

        def dying_pre_trial(seed: int) -> None:
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("injected crash")

        with pytest.raises(RuntimeError):
            stability_experiment(
                factory,
                TARGET,
                backend="manycore",
                checkpoint=store,
                checkpoint_interval=3,
                pre_trial=dying_pre_trial,
                **self._kwargs(),
            )
        resumed = stability_experiment(
            factory,
            TARGET,
            backend="manycore",
            checkpoint=store,
            checkpoint_interval=3,
            resume=True,
            **self._kwargs(),
        )
        assert resumed == expected

    def test_resume_across_backends(self, tmp_path):
        """A campaign interrupted under the process backend finishes
        under manycore with the identical list (and vice versa)."""
        factory = small_factory(haswell)
        expected = stability_experiment(
            factory, TARGET, backend="process", **self._kwargs()
        )
        store = tmp_path / "campaign.ckpt"
        calls = {"n": 0}

        def dying_pre_trial(seed: int) -> None:
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("injected crash")

        with pytest.raises(RuntimeError):
            stability_experiment(
                factory,
                TARGET,
                backend="process",
                checkpoint=store,
                checkpoint_interval=3,
                pre_trial=dying_pre_trial,
                **self._kwargs(),
            )
        resumed = stability_experiment(
            factory,
            TARGET,
            backend="manycore",
            checkpoint=store,
            checkpoint_interval=3,
            resume=True,
            **self._kwargs(),
        )
        assert resumed == expected


class TestCodesScalarHoist:
    """The untouched-selector chain's campaign invariants are hoisted
    into ``_SharedStructure.__init__`` — a perf regression guard for
    the plain-int-list fast path."""

    def _shared(self):
        pool = ManycoreCampaignPool(
            small_factory(skylake, factor=4),
            TARGET,
            block_branches=300,
            repetitions=64,
            noise=NoiseModel.noisy(),
        )
        pool._ensure_built()
        assert pool._shared is not None
        return pool._shared

    def test_invariants_hoisted_as_plain_lists(self):
        shared = self._shared()
        assert type(shared.drift_list) is list
        assert all(type(v) is int for v in shared.drift_list)
        assert type(shared.noise_list) is list
        assert all(type(v) is int for v in shared.noise_list)
        assert type(shared.predicts_list) is list
        assert all(type(v) is bool for v in shared.predicts_list)
        assert type(shared.out_rows) is list

    def test_chain_makes_no_invariant_conversions(self, monkeypatch):
        """While the chain runs it makes no FSM ``predicts`` call, no
        ``drift_tsel``/``noise_tag`` conversion and no
        ``outcomes.tolist``: it reads only the hoisted lists."""
        shared = self._shared()
        calls = []

        class Watched(np.ndarray):
            def __getitem__(self, key):
                calls.append("getitem")
                return super().__getitem__(key)

            def __iter__(self):
                calls.append("iter")
                return super().__iter__()

            def tolist(self):
                calls.append("tolist")
                return super().tolist()

        fsm_type = type(shared.fsm)
        predicts = fsm_type.predicts

        def counting_predicts(fsm, level):
            calls.append("predicts")
            return predicts(fsm, level)

        monkeypatch.setattr(fsm_type, "predicts", counting_predicts)
        for name in ("drift_tsel", "noise_tag", "outcomes"):
            monkeypatch.setattr(
                shared, name, getattr(shared, name).view(Watched)
            )
        rng = np.random.default_rng(0)
        shape = (shared.R2, shared.d + 2)
        row_b = rng.integers(0, shared.d, size=shape)
        row_g = rng.integers(0, shared.d, size=shape)
        for block_tag in (-1, shared.ttag):
            shared._codes_scalar(row_b, row_g, block_tag)
        assert calls == []
        # The watches are live: the per-call rebuild the hoist removed
        # trips each of them.
        [bool(shared.fsm.predicts(lv)) for lv in range(shared.d)]
        [int(v) for v in shared.drift_tsel]
        [int(v) for v in shared.noise_tag]
        shared.outcomes.tolist()
        assert {"predicts", "iter", "tolist"} <= set(calls)


def _never(seed):
    raise AssertionError("the manycore pool never calls fn")


@pytest.fixture
def split_log(monkeypatch):
    """Every chunk's row ranges, in order, as ``_run_ranges`` gets them."""
    log = []
    run_ranges = manycore._run_ranges

    def logged(work, ranges):
        log.append(list(ranges))
        return run_ranges(work, ranges)

    monkeypatch.setattr(manycore, "_run_ranges", logged)
    return log


def _force_threads(monkeypatch, cpus=3):
    """Split even tiny chunks across ``cpus`` threads."""
    monkeypatch.setattr(manycore, "THREAD_FLOOR_BRANCHES", 1)
    monkeypatch.setattr(manycore, "usable_cpus", lambda: cpus)


class TestThreadedRows:
    """A chunk's rows split across threads give the serial result."""

    KWARGS = dict(block_branches=2500, repetitions=12)

    def _pool(self, preset=skylake, target=TARGET, **kwargs):
        return ManycoreCampaignPool(
            small_factory(preset),
            target,
            noise=NoiseModel.isolated(),
            **self.KWARGS,
            **kwargs,
        )

    def test_row_ranges(self, monkeypatch):
        monkeypatch.setattr(manycore, "usable_cpus", lambda: 2)
        floor = manycore.THREAD_FLOOR_BRANCHES
        # Below two floors' worth of branches the chunk stays whole.
        assert manycore._row_ranges(4, 20_000) == [(0, 4)]
        assert manycore._row_ranges(1, 10 * floor) == [(0, 1)]
        assert manycore._row_ranges(64, 100_000) == [(0, 32), (32, 64)]
        monkeypatch.setattr(manycore, "usable_cpus", lambda: 1)
        assert manycore._row_ranges(64, 100_000) == [(0, 64)]

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_all_presets_match_scalar_oracle(
        self, preset, monkeypatch, split_log
    ):
        _force_threads(monkeypatch)
        noise = NoiseModel.isolated()
        factory = small_factory(preset)
        reference = scalar_stability(
            factory, FOLD_TARGET, n_blocks=10, noise=noise, **self.KWARGS
        )
        pool = self._pool(preset, FOLD_TARGET)
        assert pool.map(_never, range(10)) == reference
        assert split_log == [[(0, 3), (3, 6), (6, 10)]]
        # The oracle's trial order on a fresh core: generate, compile,
        # plan draw.
        core = factory()
        RandomizationBlock.generate(0, n_branches=2500).compile(
            core, Process("spy")
        )
        draw_trial_plan(core.rng, core, repetitions=12, noise=noise)
        assert pool.rng_digest == rng_state_digest(core.rng)
        assert obs.scalar_fallback_counts() == {}

    def test_untouched_selector_rows(self, monkeypatch, split_log):
        """Helper threads also run the sequential phase-3 chain."""
        _force_threads(monkeypatch, cpus=4)
        factory = small_factory(skylake, factor=4)
        kwargs = dict(
            n_blocks=16,
            block_branches=300,
            repetitions=8,
            noise=NoiseModel.noisy(),
            seed_start=100,
        )
        reference = scalar_stability(factory, TARGET, **kwargs)
        assert (
            stability_experiment(factory, TARGET, backend="manycore", **kwargs)
            == reference
        )
        assert len(split_log[0]) == 4

    def test_helper_exception_propagates(self, monkeypatch, split_log):
        _force_threads(monkeypatch)
        baseline = threading.active_count()
        raised_on = []
        summarize = _SharedStructure.summarize

        def failing(shared, seed):
            if seed == 9:  # the last row: the last helper's range
                raised_on.append(threading.get_ident())
                raise RuntimeError("injected summarize failure")
            return summarize(shared, seed)

        monkeypatch.setattr(_SharedStructure, "summarize", failing)
        with pytest.raises(RuntimeError, match="injected summarize"):
            self._pool().map(_never, range(10))
        assert raised_on and raised_on[0] != threading.get_ident()
        assert len(split_log[0]) == 3
        assert threading.active_count() == baseline

    def test_pre_trial_in_seed_order_on_caller(self, monkeypatch, split_log):
        _force_threads(monkeypatch)
        seen = []
        pool = self._pool(
            pre_trial=lambda seed: seen.append((seed, threading.get_ident()))
        )
        pool.map(_never, range(5, 15))
        assert seen == [(seed, threading.get_ident()) for seed in range(5, 15)]
        assert len(split_log[0]) == 3
