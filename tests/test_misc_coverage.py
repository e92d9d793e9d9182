"""Coverage for remaining paths: BTB timing in the core, workload noise,
partitions, gshare update ordering, covert config validation."""

import pytest

from repro.bpu import haswell
from repro.bpu.ghr import GlobalHistoryRegister
from repro.bpu.gshare import GSharePredictor
from repro.bpu.partition import Partition
from repro.bpu.pht import PatternHistoryTable
from repro.bpu.fsm import State, textbook_2bit_fsm
from repro.cpu import PhysicalCore, Process
from repro.workloads import BiasedWorkload, MixedWorkload


def run_workload_noise(core, workload, n: int) -> None:
    """Exact-path noise: execute ``n`` branches of a structured workload
    (:mod:`repro.workloads`) as a co-runner process."""
    process = Process("noise-workload")
    stream = workload.branches()
    for _ in range(n):
        address, taken = next(stream)
        core.execute_branch(process, address, taken)


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=151)


class TestBtbTimingInCore:
    def test_first_taken_execution_is_btb_miss(self, core):
        process = Process("p")
        record = core.execute_branch(process, 0x1000, True)
        assert record.btb_miss

    def test_repeat_taken_execution_hits_btb(self, core):
        process = Process("p")
        core.execute_branch(process, 0x1000, True)
        record = core.execute_branch(process, 0x1000, True)
        assert not record.btb_miss

    def test_not_taken_never_btb_miss(self, core):
        process = Process("p")
        record = core.execute_branch(process, 0x1000, False)
        assert not record.btb_miss

    def test_btb_conflict_restores_miss(self, core):
        process = Process("p")
        n_sets = core.predictor.btb.n_sets
        core.execute_branch(process, 0x1000, True)
        core.execute_branch(process, 0x1000 + n_sets, True)  # evicts
        record = core.execute_branch(process, 0x1000, True)
        assert record.btb_miss

    def test_explicit_target_respected(self, core):
        process = Process("p")
        core.execute_branch(process, 0x2000, True, target=0x9999)
        assert core.predictor.btb.lookup(0x2000).target == 0x9999
        # Same target again: a hit.
        record = core.execute_branch(process, 0x2000, True, target=0x9999)
        assert not record.btb_miss
        # Different target (indirect-ish): charged as a miss.
        record = core.execute_branch(process, 0x2000, True, target=0x7777)
        assert record.btb_miss


class TestWorkloadNoise:
    def test_perturbs_predictor_state(self, core):
        before = core.predictor.bimodal.pht.snapshot()
        run_workload_noise(core, MixedWorkload.typical(seed=9), 800)
        assert (core.predictor.bimodal.pht.snapshot() != before).any()

    def test_structured_noise_parks_entries_in_strong_states(self, core):
        """Biased co-runners saturate the entries they own — unlike
        uniform noise, which leaves a mix of weak states."""
        workload = BiasedWorkload(0x61_0000, seed=2, bias=0.98)
        run_workload_noise(core, workload, 2000)
        pht = core.predictor.bimodal.pht
        touched = {
            pht.state((0x61_0000 + 4 * i) % pht.n_entries)
            for i in range(16)
        }
        strong = touched & {State.SN, State.ST}
        assert len(strong) >= len(touched) // 2


class TestGshareUpdateOrdering:
    def test_update_trains_entry_that_predicted(self):
        """GHR must not shift before the gshare PHT trains."""
        fsm = textbook_2bit_fsm()
        ghr = GlobalHistoryRegister(8)
        gshare = GSharePredictor(PatternHistoryTable(64, fsm), ghr)
        ghr.set(0b1010)
        index_at_prediction = gshare.index(0x123)
        gshare.update(0x123, True)
        # The trained entry is the one indexed under the old history.
        assert gshare.pht.level(index_at_prediction) != fsm.level_for(
            State.WN
        )


class TestPartition:
    def test_confine(self):
        partition = Partition(offset=10, size=5)
        assert partition.confine(0) == 10
        assert partition.confine(7) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(offset=0, size=0)


class TestCovertConfigValidation:
    def test_unknown_measurement_pattern_is_counters_path(self, core):
        """Any measurement string other than 'timing' uses counters."""
        from repro.core.covert import CovertChannel, CovertConfig
        from repro.system.scheduler import NoiseSetting

        channel = CovertChannel.for_processes(
            core,
            Process("victim"),
            Process("spy"),
            setting=NoiseSetting.SILENT,
            config=CovertConfig(block_branches=6000),
        )
        assert channel.transmit([1, 0, 1]) == [1, 0, 1]
