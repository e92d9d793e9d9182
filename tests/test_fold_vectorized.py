"""Vectorized transition-map fold vs the reference loop, and the
compiled-block cache.

The randomisation-block fast path folds 100k outcomes through the
prediction FSM via :class:`repro.bpu.fsm.TransitionMonoid` (map
composition + segmented scan).  These tests pin it, entry for entry,
to the obvious step-once-per-branch reference implementation
(:meth:`RandomizationBlock.fold_map_reference`) across all three
microarchitecture presets, with and without the §10.2 index-key and
partitioning mitigations.
"""

import numpy as np
import pytest

from repro.bpu import PRESETS
from repro.bpu.fsm import skylake_fsm, textbook_2bit_fsm
from repro.bpu.hashes import apply_hash, fold_history
from repro.cpu import PhysicalCore, Process
from repro.core.randomizer import (
    RandomizationBlock,
    clear_compile_cache,
    compile_cache_info,
)
from repro.mitigations import BpuPartitioning, PhtIndexRandomization

BLOCK_N = 4000

FSMS = [textbook_2bit_fsm(), skylake_fsm()]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestTransitionMonoid:
    @pytest.mark.parametrize("fsm", FSMS, ids=lambda f: f.name)
    def test_identity_is_id_zero(self, fsm):
        monoid = fsm.transition_monoid()
        assert monoid.IDENTITY == 0
        assert (monoid.maps[0] == np.arange(fsm.n_levels)).all()

    @pytest.mark.parametrize("fsm", FSMS, ids=lambda f: f.name)
    def test_outcome_maps_match_step_table(self, fsm):
        monoid = fsm.transition_monoid()
        for outcome in (0, 1):
            assert (
                monoid.maps[monoid.outcome_ids[outcome]]
                == fsm.step_table[outcome]
            ).all()

    @pytest.mark.parametrize("fsm", FSMS, ids=lambda f: f.name)
    def test_compose_table_is_function_composition(self, fsm):
        monoid = fsm.transition_monoid()
        size = len(monoid.maps)
        for a in range(size):
            for b in range(size):
                composed = monoid.maps[monoid.compose(a, b)]
                assert (composed == monoid.maps[b][monoid.maps[a]]).all()

    @pytest.mark.parametrize("fsm", FSMS, ids=lambda f: f.name)
    def test_reduce_matches_sequential_stepping(self, fsm):
        monoid = fsm.transition_monoid()
        rng = np.random.default_rng(3)
        for length in (0, 1, 2, 7, 100, 333):
            outcomes = rng.integers(0, 2, size=length)
            final = monoid.maps[
                monoid.reduce(monoid.outcome_id_sequence(outcomes))
            ]
            expected = np.arange(fsm.n_levels)
            for out in outcomes:
                expected = np.array(
                    [fsm.step(int(level), bool(out)) for level in expected]
                )
            assert (final == expected).all()

    @pytest.mark.parametrize("fsm", FSMS, ids=lambda f: f.name)
    def test_fold_table_matches_per_branch_stepping(self, fsm):
        monoid = fsm.transition_monoid()
        rng = np.random.default_rng(11)
        n_entries = 13  # deliberately not a power of two
        indices = rng.integers(0, n_entries, size=800)
        outcomes = rng.integers(0, 2, size=800).astype(bool)
        table = monoid.fold_table(indices, outcomes, n_entries)
        expected = np.tile(
            np.arange(fsm.n_levels, dtype=np.int8), (n_entries, 1)
        )
        for idx, out in zip(indices, outcomes):
            expected[idx] = fsm.step_table[int(out), expected[idx]]
        assert (table == expected).all()

    def test_fold_table_empty_stream_is_identity(self):
        monoid = textbook_2bit_fsm().transition_monoid()
        table = monoid.fold_table(
            np.array([], dtype=np.int64), np.array([], dtype=bool), 8
        )
        assert (table == np.arange(4, dtype=np.int8)).all()

    def test_monoid_is_cached_per_spec(self):
        assert (
            textbook_2bit_fsm().transition_monoid()
            is textbook_2bit_fsm().transition_monoid()
        )


def _reference_maps(block, core, process):
    """Recompute both compiled PHT maps with the reference loop fold."""
    key = core.mitigations.pht_key(process)
    partition = core.mitigations.partition(process)
    fsm = core.predictor.bimodal.pht.fsm
    n_bimodal = core.predictor.bimodal.pht.n_entries
    bimodal_ref = block.fold_map_reference(
        block._mapped_indices(
            key,
            partition,
            n_bimodal,
            index_hash=core.predictor.bimodal.index_hash,
        ),
        n_bimodal,
        fsm.n_levels,
        fsm.step_table,
    )
    n_gshare = core.predictor.gshare.pht.n_entries
    ghr_len = core.predictor.ghr.length
    trajectory = fold_history(
        block.ghr_trajectory(ghr_len), ghr_len, n_gshare
    )
    mixed = block.addresses ^ trajectory ^ key
    if partition is None:
        gshare_indices = apply_hash(
            core.predictor.gshare.index_hash, mixed, n_gshare
        ).astype(np.int64)
    else:
        gshare_indices = (
            partition.offset + (mixed % partition.size)
        ).astype(np.int64)
    gshare_ref = block.fold_map_reference(
        gshare_indices, n_gshare, fsm.n_levels, fsm.step_table
    )
    return bimodal_ref, gshare_ref


@pytest.mark.parametrize("preset", sorted(PRESETS), ids=str)
@pytest.mark.parametrize("mitigation", ["none", "key", "partition"])
class TestFoldDifferential:
    def _core(self, preset, mitigation):
        core = PhysicalCore(PRESETS[preset]().scaled(16), seed=2)
        if mitigation == "key":
            core.install_mitigation(
                PhtIndexRandomization(np.random.default_rng(9))
            )
        elif mitigation == "partition":
            core.install_mitigation(
                BpuPartitioning.by_process(
                    core.predictor.bimodal.pht.n_entries, n_partitions=4
                )
            )
        return core

    def test_compiled_maps_match_reference(self, preset, mitigation):
        core = self._core(preset, mitigation)
        spy = Process("spy")
        block = RandomizationBlock.generate(17, n_branches=BLOCK_N)
        compiled = block.compile(core, spy)
        bimodal_ref, gshare_ref = _reference_maps(block, core, spy)
        assert (compiled.bimodal_map == bimodal_ref).all()
        assert (compiled.gshare_map == gshare_ref).all()

    def test_entry_fold_matches_reference_row(self, preset, mitigation):
        core = self._core(preset, mitigation)
        spy = Process("spy")
        block = RandomizationBlock.generate(23, n_branches=BLOCK_N)
        bimodal_ref, _ = _reference_maps(block, core, spy)
        key = core.mitigations.pht_key(spy)
        partition = core.mitigations.partition(spy)
        for address in (0x0, 0x30_0006D, 0x12345):
            row = block.entry_fold(core, spy, address)
            index = core.predictor.bimodal.index(address, key, partition)
            assert (row == bimodal_ref[index]).all()


class TestCompileCache:
    def test_identical_compiles_share_one_artifact(self):
        core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        spy = Process("spy")
        block = RandomizationBlock.generate(5, n_branches=500)
        first = block.compile(core, spy)
        second = block.compile(core, spy)
        assert first is second
        info = compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_shared_across_cores_of_same_config(self):
        config = PRESETS["haswell"]().scaled(16)
        block = RandomizationBlock.generate(5, n_branches=500)
        spy = Process("spy")
        a = block.compile(PhysicalCore(config, seed=1), spy)
        b = block.compile(PhysicalCore(config, seed=2), spy)
        assert a is b

    def test_key_partition_and_config_invalidate(self):
        block = RandomizationBlock.generate(5, n_branches=500)
        spy = Process("spy")
        plain_core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        plain = block.compile(plain_core, spy)

        keyed_core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        keyed_core.install_mitigation(
            PhtIndexRandomization(np.random.default_rng(4))
        )
        assert block.compile(keyed_core, spy) is not plain

        part_core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        part_core.install_mitigation(
            BpuPartitioning.by_process(
                part_core.predictor.bimodal.pht.n_entries, n_partitions=4
            )
        )
        assert block.compile(part_core, spy) is not plain

        other_config = PhysicalCore(PRESETS["skylake"]().scaled(16), seed=1)
        assert block.compile(other_config, spy) is not plain

    def test_different_blocks_do_not_alias(self):
        core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        spy = Process("spy")
        a = RandomizationBlock.generate(5, n_branches=500).compile(core, spy)
        b = RandomizationBlock.generate(6, n_branches=500).compile(core, spy)
        assert a is not b
        assert compile_cache_info()["misses"] == 2

    def test_cache_is_bounded_lru(self, monkeypatch):
        import repro.core.randomizer as randomizer

        monkeypatch.setattr(randomizer, "COMPILE_CACHE_MAXSIZE", 2)
        core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        spy = Process("spy")
        blocks = [
            RandomizationBlock.generate(seed, n_branches=200)
            for seed in range(3)
        ]
        first = blocks[0].compile(core, spy)
        blocks[1].compile(core, spy)
        blocks[2].compile(core, spy)  # evicts blocks[0]
        assert compile_cache_info()["size"] == 2
        assert blocks[0].compile(core, spy) is not first

    def test_clear_compile_cache(self):
        core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        RandomizationBlock.generate(5, n_branches=200).compile(
            core, Process("spy")
        )
        clear_compile_cache()
        info = compile_cache_info()
        assert info == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "maxsize": info["maxsize"],
        }

    def test_tiered_stats_without_a_store(self):
        """A repeat compile is one hit after one miss."""
        core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        spy = Process("spy")
        block = RandomizationBlock.generate(5, n_branches=200)
        block.compile(core, spy)
        block.compile(core, spy)
        info = compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_cached_apply_still_reproducible(self):
        """A cache-shared artifact behaves identically on reuse."""
        core = PhysicalCore(PRESETS["haswell"]().scaled(16), seed=1)
        spy = Process("spy")
        block = RandomizationBlock.generate(5, n_branches=500)
        compiled = block.compile(core, spy)
        checkpoint = core.checkpoint()
        compiled.apply(core, spy)
        first = core.predictor.bimodal.pht.snapshot()
        core.restore(checkpoint)
        again = block.compile(core, spy)
        assert again is compiled
        again.apply(core, spy)
        assert (core.predictor.bimodal.pht.snapshot() == first).all()
