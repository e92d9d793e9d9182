"""Montgomery ladder: arithmetic correctness and leak structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bpu import haswell
from repro.cpu import PhysicalCore
from repro.victims.montgomery import (
    CurvePoint,
    MontgomeryLadderVictim,
    TinyCurve,
    ladder_scalar_mult,
    montgomery_ladder_pow,
)


class TestLadderPow:
    @given(
        base=st.integers(0, 10_000),
        exponent=st.integers(0, 10_000),
        modulus=st.integers(2, 10_000),
    )
    @settings(max_examples=150)
    def test_matches_builtin_pow(self, base, exponent, modulus):
        assert montgomery_ladder_pow(base, exponent, modulus) == pow(
            base, exponent, modulus
        )

    def test_branch_hook_sees_exponent_bits_msb_first(self):
        bits = []
        exponent = 0b1011001
        montgomery_ladder_pow(3, exponent, 1009, branch_hook=bits.append)
        assert bits == [True, False, True, True, False, False, True]

    def test_validation(self):
        with pytest.raises(ValueError):
            montgomery_ladder_pow(2, 3, 0)
        with pytest.raises(ValueError):
            montgomery_ladder_pow(2, -1, 7)


class TestTinyCurve:
    def setup_method(self):
        self.curve = TinyCurve()
        self.point = self.curve.base_point()

    def test_base_point_on_curve(self):
        assert self.curve.is_on_curve(self.point)

    def test_infinity_is_identity(self):
        inf = CurvePoint.infinity()
        assert self.curve.add(inf, self.point) == self.point
        assert self.curve.add(self.point, inf) == self.point

    def test_inverse_sums_to_infinity(self):
        negated = CurvePoint(self.point.x, (-self.point.y) % self.curve.p)
        assert self.curve.add(self.point, negated).is_infinity

    def test_addition_stays_on_curve(self):
        q = self.curve.double(self.point)
        r = self.curve.add(q, self.point)
        assert self.curve.is_on_curve(q)
        assert self.curve.is_on_curve(r)

    def test_addition_is_commutative(self):
        q = self.curve.double(self.point)
        assert self.curve.add(self.point, q) == self.curve.add(q, self.point)

    @given(k=st.integers(1, 200))
    @settings(max_examples=30)
    def test_ladder_matches_repeated_addition(self, k):
        expected = CurvePoint.infinity()
        for _ in range(k):
            expected = self.curve.add(expected, self.point)
        assert ladder_scalar_mult(self.curve, k, self.point) == expected

    @given(a=st.integers(1, 500), b=st.integers(1, 500))
    @settings(max_examples=30)
    def test_scalar_mult_is_additive(self, a, b):
        pa = ladder_scalar_mult(self.curve, a, self.point)
        pb = ladder_scalar_mult(self.curve, b, self.point)
        pab = ladder_scalar_mult(self.curve, a + b, self.point)
        assert self.curve.add(pa, pb) == pab

    def test_ladder_hook_leaks_scalar_bits(self):
        bits = []
        ladder_scalar_mult(self.curve, 0b1101, self.point, bits.append)
        assert bits == [True, True, False, True]

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            ladder_scalar_mult(self.curve, -1, self.point)


class TestLadderVictim:
    def test_steps_execute_key_bits_as_branches(self):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        victim = MontgomeryLadderVictim(0b1011)
        directions = []
        original = core.execute_branch

        def recording(process, address, taken, target=None):
            directions.append(taken)
            return original(process, address, taken, target)

        core.execute_branch = recording
        while not victim.finished:
            victim.step(core)
        assert directions == [True, False, True, True]

    def test_result_available_after_completion(self):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        victim = MontgomeryLadderVictim(12345, base=7, modulus=99991)
        while not victim.finished:
            victim.step(core)
        assert victim.result == pow(7, 12345, 99991)

    def test_begin_restarts(self):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        victim = MontgomeryLadderVictim(0b101)
        while not victim.finished:
            victim.step(core)
        victim.begin()
        assert not victim.finished

    def test_step_after_finish_raises(self):
        core = PhysicalCore(haswell().scaled(16), seed=3)
        victim = MontgomeryLadderVictim(1)
        victim.step(core)
        with pytest.raises(RuntimeError):
            victim.step(core)

    def test_validation(self):
        with pytest.raises(ValueError):
            MontgomeryLadderVictim(0)

    def test_n_bits(self):
        assert MontgomeryLadderVictim(0b10110).n_bits == 5
