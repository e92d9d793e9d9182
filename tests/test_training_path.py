"""Regression tests for the consolidated training path.

Three bugs are pinned here:

* ``GSharePredictor.update`` used to ignore ``partition`` (and recompute
  the index), so a partitioned context could train outside its slice;
* ``PhysicalCore.execute_branch`` used to re-implement the hybrid
  training sequence inline, drifting from ``HybridPredictor.update``;
* ``PhysicalCore.restore`` kept counter files of processes first seen
  after ``checkpoint()``, so rollback was not a true rollback.
"""

import numpy as np
import pytest

from repro.bpu import haswell
from repro.bpu.fsm import State, textbook_2bit_fsm
from repro.bpu.ghr import GlobalHistoryRegister
from repro.bpu.gshare import GSharePredictor
from repro.bpu.partition import Partition
from repro.bpu.pht import PatternHistoryTable
from repro.cpu import CounterKind, PhysicalCore, Process
from repro.mitigations import BpuPartitioning
from repro.mitigations.base import Mitigation
from tests.conftest import bimodal_state


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=7)


class TestGsharePartitionedTraining:
    def test_update_confines_training_to_partition(self):
        fsm = textbook_2bit_fsm()
        pht = PatternHistoryTable(64, fsm)
        gshare = GSharePredictor(pht, GlobalHistoryRegister(8))
        part = Partition(offset=16, size=16)
        before = pht.snapshot()
        for address in range(0x1000, 0x1040, 3):
            gshare.update(address, True, partition=part)
        changed = np.flatnonzero(pht.snapshot() != before)
        assert changed.size > 0
        assert changed.min() >= 16 and changed.max() < 32

    def test_update_prefers_recorded_index(self):
        fsm = textbook_2bit_fsm()
        pht = PatternHistoryTable(64, fsm)
        gshare = GSharePredictor(pht, GlobalHistoryRegister(8))
        before = pht.snapshot()
        gshare.update(0x1234, True, index=5)
        changed = np.flatnonzero(pht.snapshot() != before)
        assert list(changed) == [5]

    def test_partitioned_process_trains_in_slice_end_to_end(self, core):
        core.install_mitigation(
            BpuPartitioning.by_process(
                core.predictor.bimodal.pht.n_entries, n_partitions=4
            )
        )
        spy = Process("spy")
        part = core.mitigations.partition(spy)
        gshare_before = core.predictor.gshare.pht.snapshot()
        bimodal_before = core.predictor.bimodal.pht.snapshot()
        rng = np.random.default_rng(1)
        for address in range(0x400000, 0x400400, 7):
            core.execute_branch(spy, address, bool(rng.integers(0, 2)))
        lo, hi = part.offset, part.offset + part.size
        for before, pht in (
            (gshare_before, core.predictor.gshare.pht),
            (bimodal_before, core.predictor.bimodal.pht),
        ):
            changed = np.flatnonzero(pht.snapshot() != before)
            assert changed.size > 0
            assert changed.min() >= lo and changed.max() < hi


class TestSingleTrainingPath:
    def test_execute_branch_resolves_through_hybrid_update(self, core):
        """The core delegates training; it must not duplicate it inline."""
        calls = []
        original = core.predictor.update

        def recording(address, taken, prediction, **kwargs):
            calls.append((address, taken, prediction, kwargs))
            return original(address, taken, prediction, **kwargs)

        core.predictor.update = recording
        record = core.execute_branch(Process("spy"), 0x400100, True)
        assert len(calls) == 1
        address, taken, prediction, kwargs = calls[0]
        assert address == 0x400100 and taken is True
        assert prediction is record.prediction
        assert kwargs["train_outcome"] is True

    def test_train_outcome_corrupts_only_pht(self, core):
        class AlwaysFlip(Mitigation):
            name = "always-flip"

            def update_outcome(self, rng, taken):
                return not taken

        core.install_mitigation(AlwaysFlip())
        spy = Process("spy")
        address = 0x400200
        record = core.execute_branch(spy, address, True)
        # PHT trained with the corrupted (not-taken) outcome: WN -> SN.
        assert bimodal_state(core.predictor, address) is State.SN
        # Architectural side still saw the true outcome.
        assert core.predictor.ghr.value & 1 == 1
        assert record.taken is True
        assert core.predictor.btb.lookup(address) is not None

    def test_default_train_outcome_is_architectural(self, core):
        spy = Process("spy")
        address = 0x400300
        core.execute_branch(spy, address, True)
        assert bimodal_state(core.predictor, address) is State.WT


class TestRestoreRollback:
    def test_post_checkpoint_process_counters_roll_back(self, core):
        veteran = Process("veteran")
        core.execute_branch(veteran, 0x400100, True)
        checkpoint = core.checkpoint()
        core.execute_branch(veteran, 0x400100, True)
        newcomer = Process("newcomer")
        core.execute_branch(newcomer, 0x400200, False)
        assert core.read_counter(newcomer, CounterKind.BRANCHES) == 1
        core.restore(checkpoint)
        # The newcomer was never seen before the checkpoint: a true
        # rollback leaves it with a fresh, zeroed counter file.
        assert core.read_counter(newcomer, CounterKind.BRANCHES) == 0
        assert core.read_counter(veteran, CounterKind.BRANCHES) == 1

    def test_restore_is_idempotent_for_known_processes(self, core):
        veteran = Process("veteran")
        core.execute_branch(veteran, 0x400100, True)
        checkpoint = core.checkpoint()
        core.restore(checkpoint)
        core.restore(checkpoint)
        assert core.read_counter(veteran, CounterKind.BRANCHES) == 1
