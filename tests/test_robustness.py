"""Failure injection and graceful degradation.

The attack must *degrade*, never crash, when its environment turns
hostile: extreme noise, garbage initial state, silent victims, stacked
defenses, extreme geometries.
"""

import numpy as np
import pytest

from repro.bpu import haswell, skylake
from repro.bpu.fsm import State
from repro.core.attack import BranchScope
from repro.core.calibration import CalibrationError, find_block
from repro.core.covert import CovertChannel, CovertConfig, error_rate
from repro.core.patterns import DecodedState
from repro.cpu import PhysicalCore, Process
from repro.mitigations import (
    BpuPartitioning,
    BtbFlushOnContextSwitch,
    NoisyPerformanceCounters,
    NoisyTimer,
    PhtIndexRandomization,
    StaticPredictionForSensitiveBranches,
    StochasticFSM,
)
from repro.system.noise import NoiseModel, inject_noise
from repro.system.scheduler import NoiseSetting
from repro.victims import SecretBitArrayVictim
from tests.conftest import pins_entry

SMALL_BLOCK = 8000


class TestExtremeNoise:
    def test_attack_survives_noise_storms(self):
        """Under absurd noise the attack returns garbage, not exceptions."""
        core = PhysicalCore(haswell().scaled(16), seed=131)
        secret = np.random.default_rng(1).integers(0, 2, 30).tolist()
        victim = SecretBitArrayVictim(secret)
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=NoiseSetting.SILENT,
            block_branches=SMALL_BLOCK,
        )
        attack.calibrate()
        storm = NoiseModel(
            ambient_branches=20_000, burst_prob=0.5, burst_size=50_000
        )
        attack.scheduler.noise_model = storm
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), 30
        )
        assert len(recovered) == 30
        assert all(isinstance(bit, bool) for bit in recovered)

    def test_storm_error_rate_approaches_coin_flip(self):
        core = PhysicalCore(haswell().scaled(16), seed=132)
        victim = Process("victim")
        spy = Process("spy")
        channel = CovertChannel.for_processes(
            core, victim, spy,
            setting=NoiseSetting.SILENT,
            config=CovertConfig(block_branches=SMALL_BLOCK),
        )
        channel.scheduler.noise_model = NoiseModel(
            ambient_branches=50_000, burst_prob=0.0, burst_size=0
        )
        bits = np.random.default_rng(2).integers(0, 2, 150).tolist()
        received = channel.transmit(bits)
        # Some information may survive, but the channel is badly broken.
        assert error_rate(bits, received) > 0.15


class TestHostileInitialState:
    def test_calibration_with_scrambled_pht(self):
        core = PhysicalCore(haswell().scaled(16), seed=133)
        core.predictor.bimodal.pht.randomize(np.random.default_rng(9))
        core.predictor.gshare.pht.randomize(np.random.default_rng(10))
        compiled = find_block(
            core,
            Process("spy"),
            0x30_0006D,
            DecodedState.SN,
            block_branches=SMALL_BLOCK,
            repetitions=10,
        )
        assert pins_entry(compiled, core, 0x30_0006D)

    def test_attack_after_heavy_prior_activity(self):
        core = PhysicalCore(haswell().scaled(16), seed=134)
        inject_noise(core, 200_000, core.rng)
        secret = [1, 0, 1, 1, 0, 1, 0, 0]
        victim = SecretBitArrayVictim(secret)
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=NoiseSetting.SILENT,
            block_branches=SMALL_BLOCK,
        )
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), len(secret)
        )
        assert [int(b) for b in recovered] == secret


class TestSilentVictim:
    def test_never_triggered_victim_reads_as_prime_state(self):
        """A victim that never runs leaves the primed entry untouched, so
        every recovered bit equals the not-taken decode — no crash, and
        no spurious 'taken' claims."""
        core = PhysicalCore(haswell().scaled(16), seed=135)
        attack = BranchScope(
            core,
            Process("spy"),
            0x30_0006D,
            setting=NoiseSetting.SILENT,
            block_branches=SMALL_BLOCK,
        )
        recovered = attack.spy_on_bits(lambda: None, 20)
        assert recovered == [False] * 20


class TestStackedDefenses:
    def test_all_defenses_at_once(self):
        """Kitchen-sink defense stack: nothing crashes, nothing leaks."""
        core = PhysicalCore(haswell().scaled(16), seed=136)
        core.install_mitigation(
            PhtIndexRandomization(np.random.default_rng(0))
        )
        core.install_mitigation(
            BpuPartitioning.by_process(
                core.predictor.bimodal.pht.n_entries, n_partitions=4
            )
        )
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        core.install_mitigation(NoisyPerformanceCounters(magnitude=2))
        core.install_mitigation(NoisyTimer(sigma=60))
        core.install_mitigation(StochasticFSM(flip_prob=0.2))
        core.install_mitigation(BtbFlushOnContextSwitch())

        secret = np.random.default_rng(3).integers(0, 2, 40).tolist()
        victim = SecretBitArrayVictim(secret)
        victim.process.protect_branch(victim.branch_address)
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=NoiseSetting.SILENT,
            block_branches=SMALL_BLOCK,
        )
        try:
            recovered = attack.spy_on_bits(
                lambda: victim.execute_next(core), 40
            )
        except CalibrationError:
            return  # calibration impossible: defenses win outright
        wrong = sum(
            int(r) != s for r, s in zip(recovered, secret)
        )
        assert wrong / 40 > 0.2


class TestExtremeGeometries:
    def test_tiny_tables_still_function(self):
        config = haswell().scaled(256)  # 64-entry PHT
        core = PhysicalCore(config, seed=137)
        process = Process("p")
        for i in range(200):
            core.execute_branch(process, i * 3, i % 2 == 0)
        assert core.clock.now > 0

    def test_covert_on_tiny_core(self):
        config = haswell().scaled(64)  # 256-entry PHT
        core = PhysicalCore(config, seed=138)
        channel = CovertChannel.for_processes(
            core,
            Process("victim"),
            Process("spy"),
            setting=NoiseSetting.SILENT,
            config=CovertConfig(block_branches=4000),
        )
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        assert channel.transmit(bits) == bits

    def test_one_bit_ghr(self):
        from dataclasses import replace

        config = replace(haswell().scaled(64), ghr_bits=1)
        core = PhysicalCore(config, seed=139)
        process = Process("p")
        for i in range(50):
            core.execute_branch(process, 0x100, i % 3 == 0)
        assert core.predictor.ghr.value in (0, 1)


class TestPolarityAndWorkingPoints:
    def test_inverted_polarity_channel(self):
        core = PhysicalCore(haswell().scaled(16), seed=140)
        channel = CovertChannel.for_processes(
            core,
            Process("victim"),
            Process("spy"),
            setting=NoiseSetting.SILENT,
            config=CovertConfig(block_branches=SMALL_BLOCK, taken_bit=0),
        )
        bits = [1, 0, 0, 1, 1, 0]
        assert channel.transmit(bits) == bits

    @pytest.mark.parametrize(
        "prime,probe",
        [
            (State.SN, (True, True)),
            (State.ST, (False, False)),
            (State.WN, (True, True)),
        ],
    )
    def test_alternative_working_points_haswell(self, prime, probe):
        core = PhysicalCore(haswell().scaled(16), seed=141)
        secret = [1, 0, 1, 1, 0, 1]
        victim = SecretBitArrayVictim(secret)
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=NoiseSetting.SILENT,
            prime_state=prime,
            probe_outcomes=probe,
            block_branches=SMALL_BLOCK,
        )
        recovered = attack.spy_on_bits(
            lambda: victim.execute_next(core), len(secret)
        )
        assert [int(b) for b in recovered] == secret

    def test_ambiguous_working_point_rejected_on_skylake(self):
        core = PhysicalCore(skylake().scaled(16), seed=142)
        with pytest.raises(ValueError):
            BranchScope(
                core,
                Process("spy"),
                0x30_0006D,
                prime_state=State.ST,
                probe_outcomes=(False, False),
                block_branches=SMALL_BLOCK,
            )
