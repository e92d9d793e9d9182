"""Pre-attack calibration: stability assessment and block search."""

import numpy as np
import pytest

from repro.bpu import haswell
from repro.core.calibration import (
    BlockAssessment,
    CalibrationError,
    assess_block,
    draw_trial_plan,
    find_block,
    stability_experiment,
)
from repro.core.patterns import DecodedState
from repro.core.randomizer import RandomizationBlock
from repro.cpu import PhysicalCore, Process
from repro.system.noise import NoiseModel
from tests.conftest import pins_entry, target_entry_map

ADDRESS = 0x30_0006D
BLOCK_N = 8000


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=31)


@pytest.fixture
def spy():
    return Process("spy")


class TestBlockAssessment:
    def test_stability_criterion(self):
        stable = BlockAssessment(0, "MM", 0.9, "HH", 0.92)
        unstable = BlockAssessment(0, "MM", 0.8, "HH", 0.92)
        assert stable.stable and not unstable.stable

    def test_decoded_unknown_when_unstable(self):
        fsm = haswell().fsm
        assessment = BlockAssessment(0, "MM", 0.5, "HH", 0.5)
        assert assessment.decoded(fsm) is DecodedState.UNKNOWN

    def test_decoded_state_when_stable(self):
        fsm = haswell().fsm
        assessment = BlockAssessment(0, "MM", 0.95, "HH", 0.95)
        assert assessment.decoded(fsm) is DecodedState.SN


class TestAssessBlock:
    def test_pinning_block_is_stable_without_noise(self, core, spy):
        compiled = self._find_pinning(core, spy)
        plan = draw_trial_plan(
            np.random.default_rng(0),
            core,
            repetitions=25,
            noise=NoiseModel.silent(),
        )
        assessment = assess_block(core, spy, compiled, ADDRESS, plan=plan)
        assert assessment.stable
        assert assessment.tt_frequency == 1.0
        assert assessment.nn_frequency == 1.0

    def test_assessment_restores_core_state(self, core, spy):
        compiled = self._find_pinning(core, spy)
        plan = draw_trial_plan(
            np.random.default_rng(0),
            core,
            repetitions=10,
            noise=NoiseModel.silent(),
        )
        checkpoint = core.checkpoint()
        assess_block(core, spy, compiled, ADDRESS, plan=plan)
        after = core.checkpoint()
        assert (
            checkpoint["predictor"]["bimodal"] == after["predictor"]["bimodal"]
        ).all()
        assert checkpoint["clock"] == after["clock"]

    @staticmethod
    def _find_pinning(core, spy):
        for seed in range(100):
            block = RandomizationBlock.generate(seed, n_branches=BLOCK_N)
            row = block.entry_fold(core, spy, ADDRESS)
            if (row == row[0]).all():
                return block.compile(core, spy)
        raise AssertionError("no pinning block in 100 seeds")


class TestFindBlock:
    def test_finds_block_for_each_strong_state(self, core, spy):
        for desired in (DecodedState.SN, DecodedState.ST):
            compiled = find_block(
                core,
                spy,
                ADDRESS,
                desired,
                block_branches=BLOCK_N,
                repetitions=15,
                max_candidates=300,
                noise=NoiseModel.silent(),
            )
            assert pins_entry(compiled, core, ADDRESS)
            row = target_entry_map(compiled, core, ADDRESS)
            fsm = core.predictor.bimodal.pht.fsm
            assert fsm.public_state(int(row[0])).name == desired.value

    def test_raises_when_no_candidate_works(self, core, spy):
        with pytest.raises(CalibrationError):
            find_block(
                core,
                spy,
                ADDRESS,
                DecodedState.SN,
                block_branches=50,  # far too small to pin anything
                repetitions=5,
                max_candidates=5,
                noise=NoiseModel.silent(),
            )


class TestStabilityExperiment:
    def test_produces_one_assessment_per_block(self):
        assessments = stability_experiment(
            lambda: PhysicalCore(haswell().scaled(16), seed=31),
            ADDRESS,
            n_blocks=6,
            block_branches=BLOCK_N,
            repetitions=10,
            noise=NoiseModel.silent(),
        )
        assert len(assessments) == 6
        assert len({a.seed for a in assessments}) == 6

    def test_majority_of_blocks_stable_like_figure4(self):
        """Figure 4a's qualitative claim: most blocks are stable."""
        assessments = stability_experiment(
            lambda: PhysicalCore(haswell().scaled(16), seed=31),
            ADDRESS,
            n_blocks=10,
            block_branches=BLOCK_N,
            repetitions=12,
            noise=NoiseModel.quiesced(),
        )
        stable = sum(a.stable for a in assessments)
        assert stable >= 5
