"""SMT covert channel, branch poisoning, and the early-exit comparator."""

import numpy as np
import pytest

from repro.bpu import haswell, skylake
from repro.core.attack import BranchScope
from repro.core.covert import error_rate
from repro.core.covert_smt import SMTConfig, SMTCovertChannel
from repro.core.poisoning import (
    poison_branch,
    poisoning_experiment,
)
from repro.cpu import PhysicalCore, Process
from repro.system.noise import NoiseModel
from repro.system.scheduler import AttackScheduler, NoiseSetting
from repro.victims.compare import EarlyExitComparatorVictim, crack_secret
from tests.conftest import bimodal_state


class TestSMTCovertChannel:
    def _channel(self, **kwargs):
        core = PhysicalCore(haswell().scaled(16), seed=91)
        victim = Process("victim")
        spy = Process("spy")
        channel = SMTCovertChannel.establish(
            core, victim, spy, noise=NoiseModel.silent(), **kwargs
        )
        return core, channel

    def test_transmits_with_interleaving_victim(self):
        _, channel = self._channel()
        bits = np.random.default_rng(0).integers(0, 2, 120).tolist()
        received = channel.transmit(bits)
        assert error_rate(bits, received) < 0.05

    def test_higher_interleave_rate_still_works(self):
        _, channel = self._channel(
            config=SMTConfig(victim_rate=2.5, samples_per_bit=7)
        )
        bits = np.random.default_rng(1).integers(0, 2, 80).tolist()
        received = channel.transmit(bits)
        assert error_rate(bits, received) < 0.10

    def test_single_sample_noisier_than_voted(self):
        _, voted = self._channel(
            config=SMTConfig(victim_rate=1.5, samples_per_bit=5)
        )
        _, single = self._channel(
            config=SMTConfig(victim_rate=1.5, samples_per_bit=1)
        )
        bits = np.random.default_rng(2).integers(0, 2, 150).tolist()
        voted_err = error_rate(bits, voted.transmit(bits))
        single_err = error_rate(bits, single.transmit(bits))
        assert voted_err <= single_err

    def test_no_victim_activity_outside_transmission(self):
        core, channel = self._channel()
        assert channel._current_bit is None
        channel.transmit_bit(1)
        assert channel._current_bit is None


class TestPoisoning:
    def test_poison_saturates_entry(self):
        from repro.bpu.fsm import State

        core = PhysicalCore(haswell().scaled(16), seed=92)
        attacker = Process("attacker")
        address = 0x30_0006D
        poison_branch(core, attacker, address, True)
        assert bimodal_state(core.predictor, address) is State.ST
        poison_branch(core, attacker, address, False)
        assert bimodal_state(core.predictor, address) is State.SN

    @pytest.mark.parametrize("direction", [True, False])
    def test_poisoning_forces_mispredictions(self, direction):
        core = PhysicalCore(haswell().scaled(16), seed=92)
        result = poisoning_experiment(
            core,
            Process("attacker"),
            Process("victim"),
            0x30_0006D,
            direction,
            rounds=100,
            scheduler=AttackScheduler(core, NoiseSetting.SILENT),
        )
        assert result.baseline_misprediction_rate < 0.05
        assert result.poisoned_misprediction_rate > 0.9
        # Poisoning inflates the victim's misprediction rate over 10x.
        assert result.poisoned_misprediction_rate > (
            10 * result.baseline_misprediction_rate
        )

    def test_skylake_strength_must_cover_levels(self):
        """The 5-level Skylake counter needs >= 5 pushes to pin from any
        state; the default strength must still force mispredictions."""
        core = PhysicalCore(skylake().scaled(16), seed=93)
        result = poisoning_experiment(
            core,
            Process("attacker"),
            Process("victim"),
            0x30_0006D,
            True,
            rounds=60,
            scheduler=AttackScheduler(core, NoiseSetting.SILENT),
        )
        assert result.poisoned_misprediction_rate > 0.9


class TestComparatorVictim:
    def test_check_plans_early_exit(self):
        victim = EarlyExitComparatorVictim([1, 2, 3])
        victim.submit_guess([1, 9, 3])
        # Two branches: match at 0 (taken), mismatch at 1 (not-taken).
        assert len(victim._pending) == 2
        assert victim.last_result is False

    def test_full_match(self):
        victim = EarlyExitComparatorVictim([1, 2, 3])
        victim.submit_guess([1, 2, 3])
        assert len(victim._pending) == 3
        assert victim.last_result is True

    def test_step_executes_directions(self):
        core = PhysicalCore(haswell().scaled(16), seed=94)
        victim = EarlyExitComparatorVictim([7, 7])
        victim.submit_guess([7, 0])
        directions = []
        original = core.execute_branch

        def recording(process, address, taken, target=None):
            directions.append(taken)
            return original(process, address, taken, target)

        core.execute_branch = recording
        while not victim.check_finished:
            victim.step(core)
        assert directions == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyExitComparatorVictim([])
        victim = EarlyExitComparatorVictim([1])
        with pytest.raises(ValueError):
            victim.submit_guess([1, 2])
        with pytest.raises(RuntimeError):
            victim.step(PhysicalCore(haswell().scaled(16), seed=0))


class TestCrackSecret:
    def test_recovers_pin(self):
        core = PhysicalCore(haswell().scaled(16), seed=95)
        secret = [3, 1, 4, 1, 5]
        victim = EarlyExitComparatorVictim(secret)
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=NoiseSetting.SILENT,
            block_branches=8000,
        )
        recovered = crack_secret(
            attack, victim, core, alphabet=list(range(10))
        )
        assert recovered == secret

    def test_recovers_under_isolated_noise(self):
        # Over many core seeds: a misread position must never crash the
        # cracker (the check then ends before the position under test),
        # and most seeds still recover most of the secret.
        secret = [9, 0, 2]
        good = 0
        for seed in range(40):
            core = PhysicalCore(haswell().scaled(16), seed=seed)
            victim = EarlyExitComparatorVictim(secret)
            attack = BranchScope(
                core,
                Process("spy"),
                victim.branch_address,
                setting=NoiseSetting.ISOLATED,
                block_branches=8000,
            )
            recovered = crack_secret(
                attack, victim, core, alphabet=list(range(10))
            )
            matches = sum(a == b for a, b in zip(recovered, secret))
            good += matches >= 2
        assert good >= 20
