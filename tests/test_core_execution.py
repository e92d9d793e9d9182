"""PhysicalCore: branch execution, counters, checkpointing, mitigation hooks."""

import numpy as np
import pytest

from repro.bpu import haswell
from repro.bpu.fsm import State
from repro.cpu import CounterKind, PhysicalCore, Process
from repro.mitigations import (
    NoisyPerformanceCounters,
    StaticPredictionForSensitiveBranches,
    StochasticFSM,
)
from tests.conftest import bimodal_state


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=11)


@pytest.fixture
def process():
    return Process("worker")


class TestExecution:
    def test_execution_record_fields(self, core, process):
        record = core.execute_branch(process, 0x400100, True)
        assert record.pid == process.pid
        assert record.address == 0x400100
        assert record.taken is True
        assert record.hit == (record.predicted_taken == record.taken)
        assert record.latency >= 1
        assert record.cold_fetch  # first ever fetch misses the i-cache

    def test_second_execution_is_warm(self, core, process):
        core.execute_branch(process, 0x400100, True)
        record = core.execute_branch(process, 0x400100, True)
        assert not record.cold_fetch

    def test_counters_accumulate(self, core, process):
        for _ in range(5):
            core.execute_branch(process, 0x400100, True)
        counters = core.counters_for(process)
        assert counters.read(CounterKind.BRANCHES) == 5
        assert counters.read(CounterKind.CYCLES) == core.clock.now

    def test_misprediction_counted(self, core, process):
        index = core.predictor.bimodal.index(0x400100)
        core.predictor.bimodal.pht.set_state(index, State.SN)
        record = core.execute_branch(process, 0x400100, True)
        assert record.mispredicted
        assert (
            core.counters_for(process).read(CounterKind.BRANCH_MISSES) == 1
        )

    def test_counters_are_per_process(self, core):
        a, b = Process("a"), Process("b")
        core.execute_branch(a, 0x1, True)
        assert core.counters_for(a).read(CounterKind.BRANCHES) == 1
        assert core.counters_for(b).read(CounterKind.BRANCHES) == 0

    def test_bpu_state_is_shared_between_processes(self, core):
        """The channel itself: process A's branch trains the entry
        process B's colliding branch is predicted from."""
        a, b = Process("a"), Process("b")
        address = 0x400100
        for _ in range(4):
            core.execute_branch(a, address, True)
        record = core.execute_branch(b, address, True)
        assert record.prediction.bimodal_taken is True

    def test_clock_advances_by_latency(self, core, process):
        t0 = core.clock.now
        record = core.execute_branch(process, 0x1, False)
        assert core.clock.now == t0 + record.latency

    def test_execute_branches_convenience(self, core, process):
        records = [
            core.execute_branch(process, address, taken)
            for address, taken in [(0x1, True), (0x2, False), (0x3, True)]
        ]
        assert [r.address for r in records] == [0x1, 0x2, 0x3]

    def test_rng_and_seed_mutually_exclusive(self):
        with pytest.raises(ValueError):
            PhysicalCore(
                haswell().scaled(16),
                rng=np.random.default_rng(0),
                seed=1,
            )

    def test_seeded_cores_are_deterministic(self):
        config = haswell().scaled(16)
        latencies = []
        for _ in range(2):
            core = PhysicalCore(config, seed=99)
            process = Process("p")
            latencies.append(
                [core.execute_branch(process, 0x1, True).latency for _ in range(20)]
            )
        assert latencies[0] == latencies[1]


class TestCheckpoint:
    def test_restore_recovers_predictor_and_clock(self, core, process):
        core.execute_branch(process, 0x1, True)
        checkpoint = core.checkpoint()
        state_before = bimodal_state(core.predictor, 0x1)
        for _ in range(5):
            core.execute_branch(process, 0x1, False)
        core.restore(checkpoint)
        assert bimodal_state(core.predictor, 0x1) is state_before
        assert core.clock.now == checkpoint["clock"]

    def test_restore_recovers_counters(self, core, process):
        core.execute_branch(process, 0x1, True)
        checkpoint = core.checkpoint()
        core.execute_branch(process, 0x1, True)
        core.restore(checkpoint)
        assert core.counters_for(process).read(CounterKind.BRANCHES) == 1

    def test_restore_handles_processes_created_later(self, core):
        checkpoint = core.checkpoint()
        late = Process("late")
        core.execute_branch(late, 0x1, True)
        core.restore(checkpoint)  # must not raise
        assert core.counters_for(late).read(CounterKind.BRANCHES) in (0, 1)


class TestMitigationHooks:
    def test_static_prediction_bypasses_bpu(self, core, process):
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        address = 0x400100
        process.protect_branch(address)
        state_before = bimodal_state(core.predictor, address)
        record = core.execute_branch(process, address, True)
        assert record.static
        assert record.prediction is None
        assert not record.predicted_taken  # static not-taken
        assert bimodal_state(core.predictor, address) is state_before
        assert not core.predictor.bit.contains(address)

    def test_static_prediction_only_for_marked_branches(self, core, process):
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        record = core.execute_branch(process, 0x400100, True)
        assert not record.static

    def test_noisy_counters_perturb_reads(self, core, process):
        core.install_mitigation(NoisyPerformanceCounters(magnitude=5))
        core.counters_for(process).increment(CounterKind.BRANCH_MISSES, 100)
        reads = {
            core.read_counter(process, CounterKind.BRANCH_MISSES)
            for _ in range(50)
        }
        assert len(reads) > 1
        assert all(95 <= r <= 105 for r in reads)

    def test_stochastic_fsm_corrupts_training(self, core, process):
        core.install_mitigation(StochasticFSM(flip_prob=1.0))
        address = 0x400100
        # With flip_prob=1 every update trains a random direction, so
        # saturating with taken outcomes must not reliably reach ST.
        outcomes = []
        for trial in range(20):
            idx = core.predictor.bimodal.index(address)
            core.predictor.bimodal.pht.set_state(idx, State.WN)
            for _ in range(4):
                core.execute_branch(process, address, True)
            outcomes.append(bimodal_state(core.predictor, address))
        assert any(state is not State.ST for state in outcomes)
