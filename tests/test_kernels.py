"""Kernel backends and heterogeneous-group batching: differential suite.

Three contracts are pinned here:

* **Backend bit-identity** — every available kernel backend (numpy,
  cffi) returns bit-identical results for every op, on every
  shipped preset, and no op moves any RNG stream, so assessments *and*
  stream-position digests are backend-independent.
* **Hash conformance** — for every registered index hash, every
  backend's block summary equals a naive per-branch loop over
  :func:`repro.bpu.hashes.apply_hash`, and a hash without a kernel
  encoding fails loudly instead of being replayed as a modulo.
* **Mixed structure == per-trial** — a campaign whose cores differ
  (a mixed-seed factory) runs per payload, and one with distinct but
  value-equal FSM instances shares one structure; either equals the
  per-trial process reference payload for payload, including under
  checkpoint kill/resume.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import kernels
from repro.kernels import dispatch
from repro.bpu.hashes import (
    INDEX_HASHES,
    apply_hash,
    fold_history,
    kernel_shift,
)
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
from repro.core.manycore import (
    ManycoreCampaignPool,
    _NodePlan,
    _SharedStructure,
    assess_planned,
    group_batch_stats,
    manycore_supported,
    reset_group_batch_stats,
)
from repro.core.randomizer import (
    DEFAULT_BLOCK_BASE,
    RandomizationBlock,
    clear_compile_cache,
    compile_cache_info,
)
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.kernels.numpy_backend import _node_order
from repro.obs import trace as obs
from repro.resilience.checkpoint import rng_state_digest
from repro.system.noise import NoiseModel

TARGET = 0x30_0006D

ALL_PRESETS = [skylake, haswell, sandy_bridge, oryon_like]
ZOO_PRESETS = ALL_PRESETS + [tage_like, firestorm_like]

#: Backends that can load in this interpreter; numpy is always first.
BACKENDS = kernels.available_backends()


@pytest.fixture(autouse=True)
def _clean_state():
    obs.reset_scalar_fallbacks()
    reset_group_batch_stats()
    kernels.set_backend(None)
    yield
    kernels.set_backend(None)
    obs.reset_scalar_fallbacks()


def _monoid_inputs(preset, n=4096, n_out=37):
    core = PhysicalCore(preset().scaled(16), seed=11)
    monoid = core.predictor.bimodal.pht.fsm.transition_monoid()
    rng = np.random.default_rng(42)
    outcomes = rng.integers(0, 2, size=n).astype(bool)
    ids = monoid.outcome_id_sequence(outcomes).astype(np.int64)
    positions = rng.integers(-1, n_out, size=n).astype(np.int64)
    return monoid, ids, positions


class TestOpDifferential:
    """Every op x every backend x every preset, against numpy."""

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fold_and_reduce(self, preset, backend):
        monoid, ids, positions = _monoid_inputs(preset)
        kernels.set_backend("numpy")
        ref_fold = np.asarray(
            kernels.fold_ids(
                positions, ids, monoid.compose_table, 37, monoid.IDENTITY
            )
        )
        ref_reduce = int(
            kernels.reduce_ids(ids, monoid.compose_table, monoid.IDENTITY)
        )
        assert kernels.set_backend(backend) == backend
        got_fold = np.asarray(
            kernels.fold_ids(
                positions, ids, monoid.compose_table, 37, monoid.IDENTITY
            )
        )
        got_reduce = int(
            kernels.reduce_ids(ids, monoid.compose_table, monoid.IDENTITY)
        )
        assert got_reduce == ref_reduce
        assert np.array_equal(got_fold, ref_fold)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fold_edge_cases(self, backend):
        monoid, ids, _ = _monoid_inputs(skylake, n=64)
        kernels.set_backend(backend)
        none = np.empty(0, dtype=np.int64)
        empty = np.asarray(
            kernels.fold_ids(
                none, none, monoid.compose_table, 5, monoid.IDENTITY
            )
        )
        assert empty.shape == (5,) and (empty == monoid.IDENTITY).all()
        skipped = np.asarray(
            kernels.fold_ids(
                np.full(64, -1, dtype=np.int64),
                ids,
                monoid.compose_table,
                5,
                monoid.IDENTITY,
            )
        )
        assert (skipped == monoid.IDENTITY).all()
        assert (
            int(
                kernels.reduce_ids(
                    none, monoid.compose_table, monoid.IDENTITY
                )
            )
            == monoid.IDENTITY
        )

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_summarize_and_read_levels(self, preset):
        pool = ManycoreCampaignPool(
            lambda: PhysicalCore(preset().scaled(16), seed=7),
            TARGET,
            block_branches=2500,
            repetitions=10,
            noise=NoiseModel.noisy(),
        )
        pool._ensure_built()
        shared = pool._shared
        assert shared is not None
        rng = np.random.default_rng(3)
        lift = rng.integers(
            0,
            len(shared.monoid.maps),
            size=(5, shared.plan_g.n_tracked),
        ).astype(np.int64)
        per_backend = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            summaries = [shared.summarize(seed) for seed in range(4)]
            reads = shared.plan_g.read_levels(lift)
            per_backend[backend] = (summaries, reads)
        ref_summaries, ref_reads = per_backend["numpy"]
        for backend in BACKENDS:
            summaries, reads = per_backend[backend]
            for got, ref in zip(summaries, ref_summaries):
                assert int(got[0]) == int(ref[0])
                assert np.array_equal(got[1], ref[1])
                assert bool(got[2]) == bool(ref[2])
                assert int(got[3]) == int(ref[3])
            assert np.array_equal(reads, ref_reads)


class TestNodeOrder:
    """The numpy backend's fused-key node sort is ``lexsort`` over the
    four keys."""

    def _nodes(self, rng, n_reads, n_hits, p_span, t_span):
        p = rng.integers(0, p_span, n_reads + n_hits)
        t = rng.integers(0, t_span, n_reads + n_hits)
        read = np.concatenate(
            [np.ones(n_reads, np.int64), np.zeros(n_hits, np.int64)]
        )
        seq = np.concatenate([np.arange(n_reads), np.arange(n_hits)])
        return p, t, read, seq

    def test_matches_lexsort(self):
        rng = np.random.default_rng(3)
        for n_reads, n_hits, p_span, t_span in (
            (0, 0, 1, 1),
            (14, 0, 1, 3),
            (700, 3000, 40, 101),
            (2000, 50, 2, 2001),
        ):
            p, t, read, seq = self._nodes(rng, n_reads, n_hits, p_span, t_span)
            assert np.array_equal(
                _node_order(p, t, read, seq, p_span, t_span),
                np.lexsort((seq, read, t, p)),
            )

    def test_oversized_spans_take_lexsort(self):
        rng = np.random.default_rng(4)
        p, t, read, seq = self._nodes(rng, 50, 50, 7, 5)
        # Spans past int64 headroom must not overflow the fused key.
        assert np.array_equal(
            _node_order(p, t, read, seq, 2**40, 2**30),
            np.lexsort((seq, read, t, p)),
        )


def _naive_read_levels(
    monoid, initial, idx, outcomes, noise_idx, noise_out, noise_epoch, d,
    tracked, lift,
):
    """Phase 2 one epoch at a time, in level space, from the unpruned
    inputs: at each epoch boundary every tracked entry takes its block
    fold, then the noise hits landing there step it in order, then the
    reads at that time (the previous repetition's probe slots, then this
    one's scramble slots) record and step it."""
    R2, n_slots = idx.shape
    maps = monoid.maps
    oid = monoid.outcome_ids
    out = np.empty((len(lift), R2, n_slots), dtype=np.int64)
    for c, row in enumerate(lift):
        fold = dict(zip(tracked.tolist(), row.tolist()))
        level = {e: int(initial[e]) for e in fold}
        for t in range(R2 + 1):
            if t:
                for e in level:
                    level[e] = int(maps[fold[e], level[e]])
            for i in np.flatnonzero(noise_epoch + 1 == t):
                e = int(noise_idx[i])
                if e in level:
                    level[e] = int(maps[oid[int(noise_out[i])], level[e]])
            slots = [(t - 1, j) for j in range(d, n_slots)] if t else []
            if t < R2:
                slots += [(t, j) for j in range(d)]
            for r, j in slots:
                e = int(idx[r, j])
                out[c, r, j] = level[e]
                level[e] = int(maps[oid[int(outcomes[r, j])], level[e]])
    return out


class TestReadLevelsWalk:
    """Manycore phase 2: the cffi program-order walk equals the numpy
    entry-sorted scan, and both equal an epoch-by-epoch level model."""

    @pytest.mark.parametrize("chunk", [1, 5])
    @pytest.mark.parametrize("noise", ["noisy", "isolated"])
    @pytest.mark.parametrize("preset", ZOO_PRESETS)
    def test_walk_equals_entry_sorted(self, preset, noise, chunk):
        core = PhysicalCore(preset().scaled(16), seed=7)
        plan = draw_trial_plan(
            core.rng, core, repetitions=10, noise=getattr(NoiseModel, noise)()
        )
        shared = _SharedStructure(core, TARGET, plan, None, 2000)
        rng = np.random.default_rng(11)
        for node_plan in (shared.plan_b, shared.plan_g):
            lift = rng.integers(
                0, len(shared.monoid.maps), size=(chunk, node_plan.n_tracked)
            )
            reads = {}
            for backend in BACKENDS:
                kernels.set_backend(backend)
                reads[backend] = node_plan.read_levels(lift)
            for backend in BACKENDS:
                assert reads[backend].shape == (chunk, 20, shared.d + 2)
                assert np.array_equal(reads[backend], reads["numpy"])

    @staticmethod
    def _plan_inputs(R, n_entries=12, n_noise=300, seed=0):
        monoid = skylake().fsm.transition_monoid()
        d = monoid.n_levels
        rng = np.random.default_rng(seed)
        R2 = 2 * R
        return dict(
            monoid=monoid,
            initial=rng.integers(0, d, size=2 * n_entries),
            idx=rng.integers(0, n_entries, size=(R2, d + 2)),
            outcomes=rng.integers(0, 2, size=(R2, d + 2)).astype(bool),
            noise_idx=rng.integers(0, 2 * n_entries, size=n_noise),
            noise_out=rng.integers(0, 2, size=n_noise).astype(bool),
            noise_epoch=np.sort(rng.integers(0, R2, size=n_noise)),
            d=d,
            n_entries=2 * n_entries,
        )

    def _check(self, inputs, chunk=3, seed=1):
        """Every backend and the level model agree; returns the plan."""
        plan = _NodePlan(
            inputs["monoid"],
            inputs["monoid"].compose_table.astype(np.int64).ravel(),
            inputs["initial"], inputs["idx"],
            inputs["outcomes"], inputs["noise_idx"], inputs["noise_out"],
            inputs["noise_epoch"], inputs["d"], inputs["n_entries"],
        )
        tracked = np.flatnonzero(plan.pos_table >= 0)
        lift = np.random.default_rng(seed).integers(
            0, len(inputs["monoid"].maps), size=(chunk, len(tracked))
        )
        expected = _naive_read_levels(
            inputs["monoid"], inputs["initial"], inputs["idx"],
            inputs["outcomes"], inputs["noise_idx"], inputs["noise_out"],
            inputs["noise_epoch"], inputs["d"], tracked, lift,
        )
        for backend in BACKENDS:
            kernels.set_backend(backend)
            assert np.array_equal(plan.read_levels(lift), expected), backend
        return plan

    def test_random_plan_matches_level_model(self):
        plan = self._check(self._plan_inputs(R=8))
        assert len(plan.hit_pos) > 0

    def test_same_time_reads_take_zero_jumps(self):
        """Every slot of every repetition reads one of two entries, so
        most reads follow another at the same time (k = 0)."""
        inputs = self._plan_inputs(R=6)
        inputs["idx"] = inputs["idx"] % 2
        self._check(inputs)

    def test_hits_after_last_read_are_pruned(self):
        """Entry 0 is read only in repetition 0; the many noise hits on it
        afterwards are dropped from the plan and change no read."""
        inputs = self._plan_inputs(R=6)
        idx = inputs["idx"]
        idx[idx == 0] = 1
        idx[0, 0] = 0
        late = np.arange(3, 2 * 6)
        inputs["noise_idx"] = np.concatenate(
            [inputs["noise_idx"], np.zeros(len(late), dtype=np.int64)]
        )
        inputs["noise_out"] = np.concatenate(
            [inputs["noise_out"], np.ones(len(late), dtype=bool)]
        )
        inputs["noise_epoch"] = np.concatenate([inputs["noise_epoch"], late])
        order = np.argsort(inputs["noise_epoch"], kind="stable")
        for key in ("noise_idx", "noise_out", "noise_epoch"):
            inputs[key] = inputs[key][order]
        plan = self._check(inputs)
        entry0 = plan.pos_table[0]
        assert entry0 >= 0
        assert not (plan.hit_pos == entry0).any()
        R2, n_slots = inputs["idx"].shape
        assert plan.n_nodes == R2 * n_slots + len(plan.hit_pos)

    def test_no_hit_on_a_tracked_entry(self):
        inputs = self._plan_inputs(R=5)
        inputs["noise_idx"] = inputs["noise_idx"] % 12 + 12
        plan = self._check(inputs)
        assert len(plan.hit_pos) == 0
        assert plan.n_nodes == inputs["idx"].size

    def test_long_plan_grows_the_cached_power_table(self):
        inputs = self._plan_inputs(R=1, n_noise=0)
        monoid = inputs["monoid"]
        before = monoid.power_table(0).shape[1]
        R = before // 2 + 8
        inputs = self._plan_inputs(R=R, n_entries=4, n_noise=400)
        plan = self._check(inputs, chunk=2)
        assert monoid.power_table(0).shape[1] >= 2 * R + 2 > before
        assert plan._pow_k >= 2 * R + 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_threads_on_one_plan(self, backend):
        """Concurrent calls share no scratch: identical arrays, equal to
        a serial call."""
        inputs = self._plan_inputs(R=200, n_entries=40, n_noise=3000)
        plan = _NodePlan(
            inputs["monoid"],
            inputs["monoid"].compose_table.astype(np.int64).ravel(),
            inputs["initial"], inputs["idx"],
            inputs["outcomes"], inputs["noise_idx"], inputs["noise_out"],
            inputs["noise_epoch"], inputs["d"], inputs["n_entries"],
        )
        lift = np.random.default_rng(2).integers(
            0, len(inputs["monoid"].maps), size=(8, plan.n_tracked)
        )
        kernels.set_backend(backend)
        results = [None, None]

        def run(k):
            results[k] = [plan.read_levels(lift) for _ in range(5)]

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        serial = plan.read_levels(lift)
        for got in results[0] + results[1]:
            assert np.array_equal(got, serial)


def _naive_summary(
    hash_name, addresses, outcomes, oid, ct, n_b, tb, n_g, pos_table,
    ghr_len, n_sel, tsel, n_sets, tset, tag_mask, n_tracked, identity,
):
    """The block summary one branch at a time, indices via apply_hash."""
    bim = identity
    g_acc = [identity] * n_tracked
    ghr, touched, block_tag = 0, False, -1
    for a, taken in zip(addresses.tolist(), outcomes.tolist()):
        o = int(oid[int(taken)])
        if apply_hash(hash_name, a, n_b) == tb:
            bim = int(ct[bim, o])
        folded = fold_history(ghr, ghr_len, n_g)
        p = int(pos_table[apply_hash(hash_name, a ^ folded, n_g)])
        if p >= 0:
            g_acc[p] = int(ct[g_acc[p], o])
        ghr = ((ghr << 1) | int(taken)) & ((1 << ghr_len) - 1)
        if a % n_sel == tsel:
            touched = True
        if a % n_sets == tset:
            block_tag = (a // n_sets) & tag_mask
    return bim, g_acc, touched, block_tag


def _summary_cases():
    """Table shapes x block sizes x block seeds.  The original fixture
    (3,000 branches from seed 17) keeps the shape's bare id."""
    shapes = [
        # Both index widths are 9 bits: a 14-bit history takes two
        # folds, 8 bits one and 24 bits three.
        ("pow2", 1024, 512, 14, "some"),
        ("non_pow2", 1000, 768, 14, "some"),
        ("pow2_ghr8", 1024, 512, 8, "some"),
        ("pow2_ghr24", 1024, 512, 24, "some"),
        ("pow2_untracked", 1024, 512, 14, "none"),
        ("pow2_all_tracked", 1024, 512, 14, "all"),
    ]
    # Odd sizes start the outcome draw on a word's high half.
    for name, *shape in shapes:
        for n in (1, 2, 3, 2999, 3000):
            for seed in (0, 17, 2**32 - 1, 2**63 + 5):
                case = name if (n, seed) == (3000, 17) else (
                    f"{name}-n{n}-seed{seed}"
                )
                yield pytest.param(*shape, n, seed, id=case)


class TestHashConformance:
    """Kernel hash encodings == :func:`apply_hash`, on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("hash_name", sorted(INDEX_HASHES))
    @pytest.mark.parametrize(
        "n_b,n_g,ghr_len,tracking,n_branches,seed", list(_summary_cases())
    )
    def test_summarize_matches_naive_loop(
        self, backend, hash_name, n_b, n_g, ghr_len, tracking, n_branches,
        seed,
    ):
        monoid = skylake().fsm.transition_monoid()
        ct = monoid.compose_table
        oid = monoid.outcome_ids.astype(np.int64)
        block = RandomizationBlock.generate(seed, n_branches=n_branches)
        rng = np.random.default_rng(5)
        n_tracked = {"some": 40, "none": 0, "all": n_g}[tracking]
        tracked = rng.choice(n_g, size=n_tracked, replace=False)
        # Track the first branch's gshare entry (its history is empty),
        # so even a one-branch block folds some tracked entry.
        first = int(apply_hash(hash_name, int(block.addresses[0]), n_g))
        if n_tracked and first not in tracked:
            tracked[0] = first
        pos_table = np.full(n_g, -1, dtype=np.int64)
        pos_table[tracked] = np.arange(n_tracked)
        # A target entry the block actually hits under this hash.
        last = n_branches - 1
        tb = int(
            apply_hash(hash_name, int(block.addresses[min(123, last)]), n_b)
        )
        n_sel, n_sets, tag_mask = 256, 128, 4095
        tsel = int(block.addresses[min(7, last)]) % n_sel
        tset = int(block.addresses[min(9, last)]) % n_sets
        expected = _naive_summary(
            hash_name, block.addresses, block.outcomes, oid, ct, n_b, tb,
            n_g, pos_table, ghr_len, n_sel, tsel, n_sets, tset, tag_mask,
            n_tracked, monoid.IDENTITY,
        )
        assert kernels.set_backend(backend) == backend
        bim, g_ids, touched, block_tag = kernels.summarize_block(
            seed, n_branches, DEFAULT_BLOCK_BASE, oid, ct,
            n_b, kernel_shift(hash_name, n_b), tb,
            n_g, kernel_shift(hash_name, n_g), pos_table, ghr_len,
            n_sel, tsel, n_sets, tset, tag_mask, n_tracked,
            monoid.IDENTITY,
        )
        # One id per tracked entry: no scratch slot leaks into the result.
        assert len(g_ids) == n_tracked
        assert int(bim) == expected[0]
        assert [int(v) for v in g_ids] == expected[1]
        assert bool(touched) == expected[2]
        assert int(block_tag) == expected[3]
        # The fixture exercises the fold: some tracked entry and the
        # target entry both see branches.
        assert expected[0] != monoid.IDENTITY
        assert n_tracked == 0 or any(
            v != monoid.IDENTITY for v in expected[1]
        )

    @pytest.mark.parametrize("hash_name", sorted(INDEX_HASHES))
    @pytest.mark.parametrize("n_branches", [100_000, 100_001])
    def test_paper_size_block_matches_across_backends(
        self, hash_name, n_branches
    ):
        """A full Fig. 4 block: every backend's summary == numpy's."""
        config = skylake()
        monoid = config.fsm.transition_monoid()
        n_b, n_g = config.bimodal_entries, config.gshare_entries
        pos_table = np.full(n_g, -1, dtype=np.int64)
        tracked = np.random.default_rng(2).choice(n_g, 900, replace=False)
        pos_table[tracked] = np.arange(900)
        args = (
            2**63 + 5, n_branches, DEFAULT_BLOCK_BASE,
            monoid.outcome_ids.astype(np.int64), monoid.compose_table,
            n_b, kernel_shift(hash_name, n_b), 77, n_g,
            kernel_shift(hash_name, n_g), pos_table, config.ghr_bits, 4096,
            11, 512, 5, 0xFFFF, 900, monoid.IDENTITY,
        )
        summaries = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            summaries[backend] = kernels.summarize_block(*args)
        ref = summaries["numpy"]
        for got in summaries.values():
            assert int(got[0]) == int(ref[0])
            assert np.array_equal(got[1], ref[1])
            assert bool(got[2]) == bool(ref[2])
            assert int(got[3]) == int(ref[3])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_branches", [0, -1])
    def test_empty_block_rejected(self, backend, n_branches):
        monoid = skylake().fsm.transition_monoid()
        kernels.set_backend(backend)
        with pytest.raises(ValueError, match="at least one branch"):
            kernels.summarize_block(
                3, n_branches, DEFAULT_BLOCK_BASE,
                monoid.outcome_ids.astype(np.int64), monoid.compose_table,
                64, 0, 0, 64, 0, np.zeros(64, dtype=np.int64), 8, 64, 0,
                64, 0, 0xFF, 64, monoid.IDENTITY,
            )

    @pytest.mark.parametrize("n_entries", [512, 1000, 8192])
    def test_every_registered_hash_has_a_kernel_encoding(self, n_entries):
        mixed = np.random.default_rng(1).integers(0, 1 << 40, size=4096)
        for name in INDEX_HASHES:
            shift = kernel_shift(name, n_entries)
            encoded = mixed ^ (mixed >> shift) if shift > 0 else mixed
            assert np.array_equal(
                encoded % n_entries, apply_hash(name, mixed, n_entries)
            ), name

    def test_unencoded_hash_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(
            INDEX_HASHES, "xor3", lambda mixed, n: (mixed ^ (mixed >> 3)) % n
        )
        with pytest.raises(NotImplementedError, match="xor3"):
            kernel_shift("xor3", 64)
        # The manycore engine refuses the preset rather than silently
        # summarising its blocks with a modulo.
        config = dataclasses.replace(skylake().scaled(16), index_hash="xor3")
        pool = ManycoreCampaignPool(
            lambda: PhysicalCore(config, seed=7),
            TARGET,
            block_branches=500,
            repetitions=4,
        )
        with pytest.raises(NotImplementedError, match="xor3"):
            pool.map(lambda seed: None, [0])


class TestEndToEndDifferential:
    """Whole campaigns and trials are backend-independent, RNG included."""

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_campaign_and_stream_digest(self, preset):
        config = preset().scaled(16)
        factory = lambda: PhysicalCore(config, seed=7)  # noqa: E731
        kwargs = dict(
            n_blocks=8,
            block_branches=2000,
            repetitions=10,
            noise=NoiseModel.isolated(),
        )
        results = {}
        digests = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            results[backend] = stability_experiment(
                factory, TARGET, backend="manycore", **kwargs
            )
            pool = ManycoreCampaignPool(
                factory,
                TARGET,
                block_branches=2000,
                repetitions=10,
                noise=NoiseModel.isolated(),
            )
            digests[backend] = pool.rng_digest
        for backend in BACKENDS:
            assert results[backend] == results["numpy"]
            assert digests[backend] == digests["numpy"]

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_batch_trial_and_core_rng(self, preset):
        """The batch engine's replay (read_levels_maps) is also pinned,
        along with the core RNG's final stream position."""
        config = preset().scaled(16)
        outs = {}
        for backend in BACKENDS:
            kernels.set_backend(backend)
            core = PhysicalCore(config, seed=9)
            spy = Process("spy")
            block = RandomizationBlock.generate(5, n_branches=1500)
            compiled = block.compile(core, spy)
            assessment = assess_block_batch(
                core,
                spy,
                compiled,
                TARGET,
                repetitions=8,
                noise=NoiseModel.noisy(),
            )
            outs[backend] = (assessment, rng_state_digest(core.rng))
        for backend in BACKENDS:
            assert outs[backend] == outs["numpy"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_manycore_trial_leaves_core_rng(self, backend):
        """The summary op draws from its own generator: a manycore
        trial leaves the core's RNG where it found it."""
        factory = lambda: PhysicalCore(skylake().scaled(16), seed=9)  # noqa: E731
        plan = draw_trial_plan(
            np.random.default_rng(5), factory(), repetitions=8,
            noise=NoiseModel.isolated(),
        )
        kernels.set_backend(backend)
        core = factory()
        before = rng_state_digest(core.rng)
        assess_planned(
            core, 11, TARGET, plan, block_branches=1501, spy=Process("spy")
        )
        assert rng_state_digest(core.rng) == before
        assert obs.scalar_fallback_counts().get("manycore", 0) == 0


class TestGroupedCampaigns:
    """Mixed-structure campaigns == per-trial reference."""

    def test_mixed_seed_factory_groups(self):
        """Cores seeded 7,3,7,3,7,9: every payload runs the N=1 engine
        on its own core, with no fallback, and the list equals the
        process backend running the same factory-call sequence."""
        config = skylake().scaled(16)
        seq = [7, 3, 7, 3, 7, 9]

        def make_factory():
            seeds = iter(seq)
            return lambda: PhysicalCore(config, seed=next(seeds))

        kwargs = dict(
            n_blocks=6,
            block_branches=2000,
            repetitions=8,
            noise=NoiseModel.isolated(),
            seed_start=20,
        )
        reference = stability_experiment(
            make_factory(), TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        reset_group_batch_stats()
        per_payload = stability_experiment(
            make_factory(), TARGET, backend="manycore", **kwargs
        )
        assert per_payload == reference
        assert "manycore" not in obs.scalar_fallback_counts()
        stats = group_batch_stats()
        assert stats["per_payload"] == 6
        assert stats["shared"] == 0
        assert stats["scalar"] == 0

    def test_equal_spec_distinct_fsm_instances_grouped(self):
        """Distinct FSM instances with value-equal specs share one
        transition monoid, so the campaign runs one shared structure."""
        config = skylake().scaled(16)

        def factory():
            core = PhysicalCore(config, seed=5)
            pht = core.predictor.gshare.pht
            pht.fsm = dataclasses.replace(pht.fsm)
            return core

        assert manycore_supported(factory()) is None
        kwargs = dict(
            n_blocks=6,
            block_branches=2000,
            repetitions=8,
            noise=NoiseModel.isolated(),
        )
        reference = stability_experiment(
            factory, TARGET, backend="process", **kwargs
        )
        obs.reset_scalar_fallbacks()
        reset_group_batch_stats()
        shared = stability_experiment(
            factory, TARGET, backend="manycore", **kwargs
        )
        assert shared == reference
        assert "manycore" not in obs.scalar_fallback_counts()
        stats = group_batch_stats()
        assert stats["shared"] == 6
        assert stats["per_payload"] == 0
        assert stats["scalar"] == 0

    def test_grouped_kill_resume_bit_identical(self, tmp_path):
        config = haswell().scaled(16)

        def factory():
            core = PhysicalCore(config, seed=5)
            pht = core.predictor.gshare.pht
            pht.fsm = dataclasses.replace(pht.fsm)
            return core

        kwargs = dict(
            n_blocks=9,
            block_branches=2000,
            repetitions=10,
            noise=NoiseModel.isolated(),
        )
        expected = stability_experiment(
            factory, TARGET, backend="process", **kwargs
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
                **kwargs,
            )
        resumed = stability_experiment(
            factory,
            TARGET,
            backend="manycore",
            checkpoint=store,
            checkpoint_interval=3,
            resume=True,
            **kwargs,
        )
        assert resumed == expected


class TestCompileCacheKeying:
    """The compiled-block LRU is keyed on the active kernel backend."""

    @pytest.mark.skipif(
        len(BACKENDS) < 2, reason="needs two loadable kernel backends"
    )
    def test_backend_switch_is_a_distinct_entry(self):
        clear_compile_cache()
        core = PhysicalCore(skylake().scaled(16), seed=1)
        spy = Process("spy")
        block = RandomizationBlock.generate(3, n_branches=1000)
        kernels.set_backend(BACKENDS[0])
        block.compile(core, spy)
        assert compile_cache_info()["misses"] == 1
        block.compile(core, spy)
        assert compile_cache_info()["hits"] == 1
        kernels.set_backend(BACKENDS[1])
        block.compile(core, spy)
        info = compile_cache_info()
        assert info["misses"] == 2
        assert info["size"] == 2
        # Switching back revalidates against the original entry, which
        # was not evicted by the other backend's insert.
        kernels.set_backend(BACKENDS[0])
        block.compile(core, spy)
        assert compile_cache_info()["hits"] == 2
        clear_compile_cache()


class TestDispatch:
    def test_env_knob_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "numpy")
        assert kernels.set_backend(None) == "numpy"

    def test_invalid_env_warns_and_uses_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "cuda")
        with pytest.warns(RuntimeWarning, match="auto selection"):
            installed = kernels.set_backend(None)
        assert installed in BACKENDS

    def test_unknown_explicit_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("gpu")

    def test_unavailable_backend_falls_back_loudly(self, monkeypatch):
        from repro.kernels import cffi_backend

        def unavailable():
            raise ImportError("no C compiler")

        monkeypatch.setattr(cffi_backend, "load", unavailable)
        obs.reset_scalar_fallbacks()
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            installed = kernels.set_backend("cffi")
        assert installed == "numpy"
        assert obs.scalar_fallback_counts()["kernel_init"] == 1
        assert "cffi" in kernels.backend_init_errors()

    def test_stream_canary_passes_wherever_cffi_builds(self):
        """A wrong fused draw must fail here, not just drop cffi from
        ``BACKENDS`` and leave the differential tests numpy-only."""
        from repro.kernels import cffi_backend

        try:
            cffi_backend._load_lib()
        except Exception as exc:  # no cffi or no C compiler
            pytest.skip(f"cffi extension unavailable: {exc}")
        cffi_backend._check_stream()

    @pytest.mark.skipif("cffi" not in BACKENDS, reason="needs cffi")
    def test_stream_canary_falls_back_loudly(self, monkeypatch):
        """A fused draw that leaves numpy's stream is refused at load,
        under auto too, so digests stay on the numpy reference."""
        from repro.kernels import cffi_backend

        real = cffi_backend._pcg_state

        def shifted(seed):
            state, inc = real(seed)
            return state ^ (1 << 100), inc

        monkeypatch.setattr(cffi_backend, "_pcg_state", shifted)
        monkeypatch.setattr(cffi_backend, "_stream_checked", False)
        obs.reset_scalar_fallbacks()
        with obs.tracing() as tracer:
            with pytest.warns(RuntimeWarning, match="falling back to numpy"):
                installed = kernels.set_backend("auto")
            events = tracer.events()
        assert installed == "numpy"
        assert obs.scalar_fallback_counts()["kernel_init"] == 1
        assert [
            e.args["reason"] for e in events if e.name == "scalar_engine"
        ] == ["cffi_stream_mismatch"]
        assert "StreamMismatch" in kernels.backend_init_errors()["cffi"]

    def test_dispatch_counts_increment(self):
        kernels.set_backend("numpy")
        kernels.reset_kernel_dispatch_counts()
        monoid, ids, _ = _monoid_inputs(skylake, n=32)
        kernels.reduce_ids(ids, monoid.compose_table, monoid.IDENTITY)
        assert kernels.kernel_dispatch_counts() == {"numpy": 1}

    def test_dispatch_counts_exact_under_threads(self):
        """The manycore engine dispatches from several threads at once:
        8 threads x 10k dispatches must lose no increment."""
        kernels.set_backend("numpy")
        kernels.reset_kernel_dispatch_counts()

        def dispatch_many():
            for _ in range(10_000):
                dispatch._dispatch()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often enough to race
        try:
            threads = [
                threading.Thread(target=dispatch_many) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert kernels.kernel_dispatch_counts() == {"numpy": 80_000}

    def test_warmup_reports_active_backend(self):
        assert kernels.warmup() == kernels.active_backend()
