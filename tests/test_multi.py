"""Multi-branch spying (§6.3's aggressive attack)."""

import numpy as np
import pytest

from repro.bpu import haswell, skylake
from repro.core.calibration import CalibrationError
from repro.core.multi import MultiBranchScope
from repro.cpu import PhysicalCore, Process
from repro.system.scheduler import NoiseSetting
from tests.conftest import pins_entry

ADDRESSES = [0x30_0006D, 0x40_1100, 0x40_A210]
SMALL_BLOCK = 8000


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=111)


@pytest.fixture
def spy():
    return Process("spy")


class TestCalibration:
    def test_finds_block_pinning_all_targets(self, core, spy):
        scope = MultiBranchScope(
            core, spy, ADDRESSES,
            setting=NoiseSetting.SILENT, block_branches=SMALL_BLOCK,
        )
        compiled = scope.calibrate()
        for address in ADDRESSES:
            assert pins_entry(compiled, core, address)

    def test_every_plan_decodable(self, core, spy):
        scope = MultiBranchScope(
            core, spy, ADDRESSES,
            setting=NoiseSetting.SILENT, block_branches=SMALL_BLOCK,
        )
        for plan in scope.plans:
            assert set(plan.dictionary) == {"MM", "MH", "HM", "HH"}
            assert set(plan.dictionary.values()) == {0, 1}

    def test_raises_when_impossible(self, core, spy):
        scope = MultiBranchScope(
            core, spy, ADDRESSES,
            setting=NoiseSetting.SILENT, block_branches=50,
        )
        with pytest.raises(CalibrationError):
            scope.calibrate(max_candidates=5)

    def test_aliasing_addresses_rejected(self, core, spy):
        n = core.predictor.bimodal.pht.n_entries
        with pytest.raises(ValueError):
            MultiBranchScope(core, spy, [0x100, 0x100 + n])

    def test_empty_addresses_rejected(self, core, spy):
        with pytest.raises(ValueError):
            MultiBranchScope(core, spy, [])


class TestSpyEpisode:
    def _scope_and_victim(self, core, spy, setting=NoiseSetting.SILENT):
        victim = Process("victim")
        scope = MultiBranchScope(
            core, spy, ADDRESSES,
            setting=setting, block_branches=SMALL_BLOCK,
        )
        return scope, victim

    def test_recovers_all_directions_in_one_episode(self, core, spy):
        scope, victim = self._scope_and_victim(core, spy)
        rng = np.random.default_rng(3)
        for _ in range(15):
            directions = {
                a: bool(rng.integers(0, 2)) for a in ADDRESSES
            }

            def trigger():
                for address, taken in directions.items():
                    core.execute_branch(victim, address, taken)

            recovered = scope.spy_episode(trigger)
            assert recovered == directions

    def test_execution_order_inside_episode_is_irrelevant(self, core, spy):
        scope, victim = self._scope_and_victim(core, spy)
        directions = {ADDRESSES[0]: True, ADDRESSES[1]: False,
                      ADDRESSES[2]: True}

        def trigger_reversed():
            for address in reversed(ADDRESSES):
                core.execute_branch(victim, address, directions[address])

        assert scope.spy_episode(trigger_reversed) == directions

    def test_low_error_under_isolated_noise(self, core, spy):
        scope, victim = self._scope_and_victim(
            core, spy, setting=NoiseSetting.ISOLATED
        )
        rng = np.random.default_rng(4)
        wrong = total = 0
        for _ in range(25):
            directions = {a: bool(rng.integers(0, 2)) for a in ADDRESSES}

            def trigger():
                for address, taken in directions.items():
                    core.execute_branch(victim, address, taken)

            recovered = scope.spy_episode(trigger)
            for address in ADDRESSES:
                total += 1
                wrong += recovered[address] != directions[address]
        assert wrong / total < 0.15

    def test_spy_episodes_plural(self, core, spy):
        scope, victim = self._scope_and_victim(core, spy)

        def trigger():
            for address in ADDRESSES:
                core.execute_branch(victim, address, True)

        episodes = [scope.spy_episode(trigger) for _ in range(3)]
        assert len(episodes) == 3
        assert all(all(e.values()) for e in episodes)

    def test_works_on_skylake_fsm(self, spy):
        """The ST-side undecodability must be handled by calibration."""
        core = PhysicalCore(skylake().scaled(16), seed=112)
        victim = Process("victim")
        scope = MultiBranchScope(
            core, spy, ADDRESSES[:2],
            setting=NoiseSetting.SILENT, block_branches=SMALL_BLOCK,
        )
        fsm = core.predictor.bimodal.pht.fsm
        for plan in scope.plans:
            # No plan may rely on a Skylake ST-side pinned level.
            assert not (
                fsm.predicts(plan.pinned_level)
                and plan.pinned_level >= 3
            )
        directions = {ADDRESSES[0]: False, ADDRESSES[1]: True}

        def trigger():
            for address, taken in directions.items():
                core.execute_branch(victim, address, taken)

        assert scope.spy_episode(trigger) == directions
