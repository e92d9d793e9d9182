"""Hybrid predictor: composition, selection logic, collisions."""

import numpy as np
import pytest

from repro.bpu import Component, haswell, skylake
from repro.bpu.fsm import State
from repro.bpu.partition import Partition
from tests.conftest import bimodal_state


@pytest.fixture
def predictor():
    return haswell().scaled(16).build()


class TestColdBranchRule:
    def test_new_branch_uses_bimodal(self, predictor):
        prediction = predictor.predict(0x400100)
        assert prediction.cold
        assert prediction.component is Component.BIMODAL

    def test_known_branch_consults_selector(self, predictor):
        predictor.execute(0x400100, True)
        prediction = predictor.predict(0x400100)
        assert not prediction.cold

    def test_cold_execution_resets_chooser(self, predictor):
        address = 0x400100
        # Drive the chooser toward gshare...
        predictor.execute(address, True)
        for _ in range(predictor.selector.max_counter + 1):
            predictor.selector.update(
                address, bimodal_correct=False, gshare_correct=True
            )
        assert predictor.selector.choose(address) is Component.GSHARE
        # ...then evict and re-execute: chooser is back to the bias.
        predictor.bit.evict(address)
        predictor.execute(address, True)
        assert predictor.selector.choose(address) is Component.BIMODAL


class TestTraining:
    def test_execute_updates_bimodal_entry(self, predictor):
        address = 0x400200
        before = bimodal_state(predictor, address)
        predictor.execute(address, True)
        after = bimodal_state(predictor, address)
        assert after >= before

    def test_saturating_training(self, predictor):
        address = 0x400200
        for _ in range(4):
            predictor.execute(address, True)
        assert bimodal_state(predictor, address) is State.ST

    def test_ghr_records_outcomes(self, predictor):
        predictor.execute(0x1, True)
        predictor.execute(0x2, False)
        predictor.execute(0x3, True)
        assert predictor.ghr.value & 0b111 == 0b101

    def test_taken_branch_with_target_allocates_btb(self, predictor):
        predictor.execute(0x400300, True, target=0x400400)
        assert predictor.btb.lookup(0x400300).target == 0x400400

    def test_not_taken_branch_does_not_allocate_btb(self, predictor):
        predictor.execute(0x400300, False, target=0x400400)
        assert predictor.btb.lookup(0x400300) is None

    def test_gshare_entry_depends_on_history(self, predictor):
        address = 0x400500
        predictor.ghr.set(0)
        i0 = predictor.gshare.index(address)
        predictor.ghr.set(0b1010)
        i1 = predictor.gshare.index(address)
        assert i0 != i1


class TestCollisions:
    def test_same_address_same_entry(self, predictor):
        """The attack's core assumption: identical virtual addresses from
        different processes share a bimodal PHT entry."""
        assert predictor.bimodal.index(0x30_0006D) == predictor.bimodal.index(
            0x30_0006D
        )

    def test_congruent_addresses_collide(self, predictor):
        n = predictor.bimodal.pht.n_entries
        assert predictor.bimodal.index(0x100) == predictor.bimodal.index(
            0x100 + n
        )

    def test_byte_granularity(self, predictor):
        """Adjacent byte addresses map to different entries (§6.3)."""
        assert predictor.bimodal.index(0x100) != predictor.bimodal.index(0x101)

    def test_key_breaks_collisions(self, predictor):
        """The §10.2 index-randomisation mitigation in action."""
        assert predictor.bimodal.index(0x100, key=0) != predictor.bimodal.index(
            0x100, key=0x5A5A
        )

    def test_partition_confines_indices(self, predictor):
        part = Partition(offset=16, size=32)
        for address in range(0, 5000, 97):
            idx = predictor.bimodal.index(address, partition=part)
            assert 16 <= idx < 48


class TestSnapshotRestore:
    def test_roundtrip_covers_all_structures(self, predictor):
        predictor.execute(0x1, True, target=0x2)
        predictor.execute(0x3, False)
        snap = predictor.snapshot()
        predictor.execute(0x1, False)
        predictor.execute(0x5, True, target=0x6)
        predictor.restore(snap)
        after = predictor.snapshot()
        assert (snap["bimodal"] == after["bimodal"]).all()
        assert (snap["gshare"] == after["gshare"]).all()
        assert snap["ghr"] == after["ghr"]
        assert (snap["selector"] == after["selector"]).all()
        assert (snap["bit"][0] == after["bit"][0]).all()
        assert (snap["bit"][1] == after["bit"][1]).all()


class TestLearningHandover:
    def test_gshare_takes_over_irregular_pattern(self):
        """Condensed Figure 2: an irregular pattern migrates to gshare."""
        predictor = skylake().build()
        rng = np.random.default_rng(5)
        pattern = rng.integers(0, 2, 10).astype(bool)
        address = 0x401000
        components = []
        for _ in range(15):
            for taken in pattern:
                components.append(
                    predictor.execute(address, bool(taken)).component
                )
        assert components[0] is Component.BIMODAL
        assert components[-1] is Component.GSHARE

    def test_handover_improves_accuracy(self):
        predictor = skylake().build()
        rng = np.random.default_rng(9)
        pattern = rng.integers(0, 2, 10).astype(bool)
        address = 0x401000
        first_pass_hits = sum(
            predictor.execute(address, bool(t)).taken == bool(t)
            for t in pattern
        )
        for _ in range(12):
            for taken in pattern:
                predictor.execute(address, bool(taken))
        last_pass_hits = sum(
            predictor.execute(address, bool(t)).taken == bool(t)
            for t in pattern
        )
        assert last_pass_hits == len(pattern)
        assert last_pass_hits > first_pass_hits
