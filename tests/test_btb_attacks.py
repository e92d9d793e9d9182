"""Prior-work BTB attacks (paper §11) and the BTB-flush defense."""

import pytest

from repro.bpu import haswell
from repro.core.btb_attacks import (
    btb_direction_spy,
    btb_locate_branch,
    calibrate_btb_threshold,
)
from repro.cpu import PhysicalCore, Process
from repro.mitigations import BtbFlushOnContextSwitch
from repro.system.scheduler import AttackScheduler, NoiseSetting


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=81)


@pytest.fixture
def spy():
    return Process("spy")


def silent_scheduler(core):
    return AttackScheduler(core, NoiseSetting.SILENT)


class TestCalibration:
    def test_miss_slower_than_hit(self, core, spy):
        calibration = calibrate_btb_threshold(core, spy, samples=200)
        assert calibration.miss_mean > calibration.hit_mean
        assert (
            calibration.hit_mean
            < calibration.threshold
            < calibration.miss_mean
        )

    def test_gap_matches_timing_model(self, core, spy):
        calibration = calibrate_btb_threshold(core, spy, samples=400)
        gap = calibration.miss_mean - calibration.hit_mean
        assert gap == pytest.approx(core.timing.btb_miss_penalty, rel=0.3)


class TestDirectionSpy:
    @pytest.mark.parametrize("direction", [True, False])
    def test_infers_constant_direction(self, core, spy, direction):
        victim = Process("victim")
        address = 0x30_0006D
        calibration = calibrate_btb_threshold(core, spy, samples=300)
        inferred = btb_direction_spy(
            core,
            spy,
            address,
            lambda: core.execute_branch(victim, address, direction),
            calibration,
            trials=10,
            scheduler=silent_scheduler(core),
        )
        assert inferred == direction

    def test_defeated_by_btb_flush(self, core, spy):
        """The defense that motivates BranchScope: flush the BTB on
        context switch and the direction signal is gone (always reads
        'evicted')."""
        victim = Process("victim")
        address = 0x30_0006D
        calibration = calibrate_btb_threshold(core, spy, samples=300)
        core.install_mitigation(BtbFlushOnContextSwitch())
        inferred_not_taken = btb_direction_spy(
            core,
            spy,
            address,
            lambda: core.execute_branch(victim, address, False),
            calibration,
            trials=10,
            scheduler=silent_scheduler(core),
        )
        # Not-taken should have read False; with flushing every probe
        # sees a miss, so it reads True — information destroyed.
        assert inferred_not_taken is True


class TestLocateBranch:
    def test_finds_victim_set(self, core, spy):
        victim = Process("victim")
        true_address = 0x12345
        calibration = calibrate_btb_threshold(core, spy, samples=300)
        counter = {"n": 0}

        def trigger():
            counter["n"] += 1
            core.execute_branch(victim, true_address, True)

        n_sets = core.predictor.btb.n_sets
        candidates = [true_address - 7, true_address, true_address + 13]
        scores = btb_locate_branch(
            core,
            spy,
            trigger,
            candidates,
            calibration,
            trials=8,
            scheduler=silent_scheduler(core),
        )
        assert scores[0].candidate_address % n_sets == true_address % n_sets
        assert scores[0].evicted

    def test_candidates_deduplicated(self, core, spy):
        calibration = calibrate_btb_threshold(core, spy, samples=100)
        n_sets = core.predictor.btb.n_sets
        scores = btb_locate_branch(
            core,
            spy,
            lambda: None,
            [0x100, 0x100 + n_sets, 0x101],
            calibration,
            trials=2,
            scheduler=silent_scheduler(core),
        )
        assert len(scores) == 2


class TestBtbFlushDefense:
    def test_flush_fires_on_stage_gap(self, core):
        defense = BtbFlushOnContextSwitch()
        core.install_mitigation(defense)
        core.predictor.btb.allocate(0x1, 0x2)
        scheduler = silent_scheduler(core)
        scheduler.stage_gap()
        assert defense.flush_count == 1
        assert core.predictor.btb.lookup(0x1) is None
