"""Randomisation block: generation, exact execution, compiled fast path."""

import numpy as np
import pytest

from repro.bpu import haswell, skylake
from repro.cpu import PhysicalCore, Process
from repro.core.randomizer import RandomizationBlock
from tests.conftest import pins_entry, target_entry_map

BLOCK_N = 6000


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=5)


@pytest.fixture
def spy():
    return Process("spy")


@pytest.fixture
def block():
    return RandomizationBlock.generate(seed=3, n_branches=BLOCK_N)


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = RandomizationBlock.generate(1, 100)
        b = RandomizationBlock.generate(1, 100)
        assert (a.addresses == b.addresses).all()
        assert (a.outcomes == b.outcomes).all()

    def test_different_seeds_differ(self):
        a = RandomizationBlock.generate(1, 100)
        b = RandomizationBlock.generate(2, 100)
        assert (a.outcomes != b.outcomes).any()

    def test_listing1_address_steps(self, block):
        """je/jne is 2 bytes, optional NOP adds 1: steps are 2 or 3."""
        steps = np.diff(block.addresses)
        assert set(np.unique(steps)).issubset({2, 3})

    def test_addresses_strictly_increase(self, block):
        assert (np.diff(block.addresses) > 0).all()

    def test_outcomes_roughly_balanced(self, block):
        rate = block.outcomes.mean()
        assert 0.45 < rate < 0.55

    def test_len(self, block):
        assert len(block) == BLOCK_N

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            RandomizationBlock.generate(0, 0)


class TestGhrTrajectory:
    def test_first_entry_is_zero_history(self, block):
        assert block.ghr_trajectory(8)[0] == 0

    def test_matches_manual_shift_register(self, block):
        bits = 10
        trajectory = block.ghr_trajectory(bits)
        value = 0
        for i in range(50):
            assert trajectory[i] == value
            value = ((value << 1) | int(block.outcomes[i])) & ((1 << bits) - 1)


class TestCompiledVsExact:
    """The fast path must reproduce the exact path's end state."""

    def _run_both(self, core_factory, block):
        exact = core_factory()
        fast = core_factory()
        spy = Process("spy")
        # Same starting microarchitectural state, scrambled for generality.
        scramble = np.random.default_rng(1)
        exact.predictor.bimodal.pht.randomize(scramble)
        fast.predictor.bimodal.pht.restore(
            exact.predictor.bimodal.pht.snapshot()
        )
        # Compiled path assumes all-zero initial GHR; align the exact run.
        exact.predictor.ghr.clear()
        fast.predictor.ghr.clear()

        compiled = block.compile(fast, spy)
        block.execute(exact, spy)
        compiled.apply(fast, spy)
        return exact, fast

    def test_bimodal_pht_exact_match(self, block):
        exact, fast = self._run_both(
            lambda: PhysicalCore(haswell().scaled(16), seed=5), block
        )
        assert (
            exact.predictor.bimodal.pht.levels
            == fast.predictor.bimodal.pht.levels
        ).all()

    def test_gshare_pht_matches_with_zero_initial_history(self, block):
        exact, fast = self._run_both(
            lambda: PhysicalCore(haswell().scaled(16), seed=5), block
        )
        assert (
            exact.predictor.gshare.pht.levels
            == fast.predictor.gshare.pht.levels
        ).all()

    def test_selector_matches(self, block):
        exact, fast = self._run_both(
            lambda: PhysicalCore(haswell().scaled(16), seed=5), block
        )
        assert (
            exact.predictor.selector.counters
            == fast.predictor.selector.counters
        ).all()

    def test_bit_matches(self, block):
        exact, fast = self._run_both(
            lambda: PhysicalCore(haswell().scaled(16), seed=5), block
        )
        tags_e, valid_e = exact.predictor.bit.snapshot()
        tags_f, valid_f = fast.predictor.bit.snapshot()
        assert (valid_e == valid_f).all()
        assert (tags_e[valid_e] == tags_f[valid_f]).all()

    def test_ghr_matches(self, block):
        exact, fast = self._run_both(
            lambda: PhysicalCore(haswell().scaled(16), seed=5), block
        )
        assert exact.predictor.ghr.value == fast.predictor.ghr.value

    def test_skylake_fsm_also_matches(self, block):
        exact, fast = self._run_both(
            lambda: PhysicalCore(skylake().scaled(16), seed=5), block
        )
        assert (
            exact.predictor.bimodal.pht.levels
            == fast.predictor.bimodal.pht.levels
        ).all()


class TestCompiledBlock:
    def test_apply_rejects_other_config(self, core, spy, block):
        compiled = block.compile(core, spy)
        other = PhysicalCore(skylake().scaled(16), seed=0)
        with pytest.raises(ValueError):
            compiled.apply(other, spy)

    def test_apply_charges_counters_and_clock(self, core, spy, block):
        from repro.cpu.counters import CounterKind

        compiled = block.compile(core, spy)
        compiled.apply(core, spy)
        assert core.clock.now == compiled.cycles
        assert (
            core.counters_for(spy).read(CounterKind.BRANCHES) == BLOCK_N
        )

    def test_entry_fold_matches_compiled_row(self, core, spy, block):
        compiled = block.compile(core, spy)
        for address in (0x30_0006D, 0x12345, 0x0):
            row = block.entry_fold(core, spy, address)
            assert (row == target_entry_map(compiled, core, address)).all()

    def test_pins_entry_detects_constant_rows(self, core, spy, block):
        """On every entry, the compiled block's pin verdict equals the
        analytical one ``find_block`` screens candidates with."""
        compiled = block.compile(core, spy)
        n = core.predictor.bimodal.pht.n_entries
        for address in range(0x400000, 0x400000 + n):
            row = block.entry_fold(core, spy, address)
            assert pins_entry(compiled, core, address) == bool(
                (row == row[0]).all()
            )

    def test_apply_forces_victim_branch_cold(self, core, spy, block):
        """After the block, a previously-seen branch is new again (§5.2)."""
        victim_address = 0x30_0006D
        victim = Process("victim")
        core.execute_branch(victim, victim_address, True)
        assert core.predictor.bit.contains(victim_address)
        compiled = block.compile(core, spy)
        compiled.apply(core, spy)
        assert not core.predictor.bit.contains(victim_address)
        record = core.execute_branch(victim, victim_address, True)
        assert record.prediction.cold

    def test_apply_is_reproducible(self, core, spy, block):
        """Same pre-state + same block => same post-state (§6.2's lever)."""
        compiled = block.compile(core, spy)
        checkpoint = core.checkpoint()
        compiled.apply(core, spy)
        first = core.predictor.bimodal.pht.snapshot()
        core.restore(checkpoint)
        compiled.apply(core, spy)
        assert (core.predictor.bimodal.pht.snapshot() == first).all()
