"""High-level BranchScope facade against real victims."""

import numpy as np
import pytest

from repro.bpu import haswell, skylake
from repro.bpu.fsm import State
from repro.core.attack import BranchScope
from repro.cpu import PhysicalCore, Process
from repro.system.scheduler import NoiseSetting
from repro.victims import SecretBitArrayVictim
from tests.conftest import target_entry_map

SMALL_BLOCK = 8000


def make_attack(preset=haswell, setting=NoiseSetting.SILENT, seed=42, bits=None):
    core = PhysicalCore(preset().scaled(16), seed=seed)
    secret = bits if bits is not None else (
        np.random.default_rng(3).integers(0, 2, 80).tolist()
    )
    victim = SecretBitArrayVictim(secret)
    spy = Process("spy")
    attack = BranchScope(
        core,
        spy,
        victim.branch_address,
        setting=setting,
        block_branches=SMALL_BLOCK,
    )
    return core, victim, attack


class TestSpyOnBranch:
    def test_recovers_single_direction(self):
        core, victim, attack = make_attack(bits=[1])
        spied = attack.spy_on_branch(lambda: victim.execute_next(core))
        assert spied.taken is True
        assert spied.pattern in ("MM", "MH", "HM", "HH")

    def test_recovers_full_secret_silently(self):
        core, victim, attack = make_attack()
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), len(victim)
        )
        truth = [bool(b) for b in victim.reveal_secret()]
        assert recovered == truth

    def test_recovers_secret_on_skylake(self):
        core, victim, attack = make_attack(preset=skylake)
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), len(victim)
        )
        assert recovered == [bool(b) for b in victim.reveal_secret()]

    def test_low_error_with_isolated_noise(self):
        core, victim, attack = make_attack(setting=NoiseSetting.ISOLATED)
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), len(victim)
        )
        truth = [bool(b) for b in victim.reveal_secret()]
        wrong = sum(a != b for a, b in zip(recovered, truth))
        assert wrong / len(truth) < 0.15

    def test_negative_bit_count_rejected(self):
        _, _, attack = make_attack()
        with pytest.raises(ValueError):
            attack.spy_on_bits(lambda: None, -1)


class TestCalibration:
    def test_lazy_calibration(self):
        core, victim, attack = make_attack()
        assert attack._compiled is None
        _ = attack.compiled_block
        assert attack._compiled is not None

    def test_calibrated_block_pins_working_state(self):
        core, victim, attack = make_attack()
        compiled = attack.calibrate()
        row = target_entry_map(compiled, core, attack.address)
        fsm = core.predictor.bimodal.pht.fsm
        assert (row == row[0]).all()
        assert fsm.public_state(int(row[0])) is State.SN

    def test_custom_prime_state(self):
        core = PhysicalCore(haswell().scaled(16), seed=1)
        victim = SecretBitArrayVictim([1, 0, 1, 1, 0, 0, 1, 0])
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=NoiseSetting.SILENT,
            prime_state=State.ST,
            probe_outcomes=(False, False),
            block_branches=SMALL_BLOCK,
        )
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), len(victim)
        )
        assert recovered == [bool(b) for b in victim.reveal_secret()]
