"""Channel-quality metrics."""


import pytest
from hypothesis import given, strategies as st

from repro.analysis import ChannelEstimate, binary_entropy, bsc_capacity


class TestBinaryEntropy:
    def test_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        assert binary_entropy(0.1) == pytest.approx(binary_entropy(0.9))

    def test_validation(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(p=st.floats(0.0, 1.0))
    def test_bounded_by_one_bit(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0


class TestBscCapacity:
    def test_perfect_channel(self):
        assert bsc_capacity(0.0) == 1.0

    def test_destroyed_channel(self):
        assert bsc_capacity(0.5) == 0.0

    def test_paper_operating_point(self):
        """At the paper's ~0.5% error the channel is essentially whole."""
        assert bsc_capacity(0.005) > 0.95

    @given(p=st.floats(0.0, 0.5))
    def test_monotone_in_error_rate(self, p):
        assert bsc_capacity(p) >= bsc_capacity(min(0.5, p + 0.01)) - 1e-9


class TestChannelEstimate:
    def test_rates(self):
        estimate = ChannelEstimate(
            error_rate=0.0, cycles_per_bit=1_000_000.0, clock_hz=2.0e9
        )
        assert estimate.raw_bits_per_second == pytest.approx(2000.0)
        assert estimate.corrected_bits_per_second == pytest.approx(2000.0)

    def test_errors_reduce_corrected_rate(self):
        clean = ChannelEstimate(0.0, 1e6)
        noisy = ChannelEstimate(0.05, 1e6)
        assert (
            noisy.corrected_bits_per_second < clean.corrected_bits_per_second
        )
        assert noisy.raw_bits_per_second == clean.raw_bits_per_second

    def test_describe(self):
        """The three figures that describe an estimate agree."""
        estimate = ChannelEstimate(0.01, 5e5)
        assert estimate.raw_bits_per_second == 4000.0  # 2 GHz / 5e5
        assert estimate.capacity_per_use == bsc_capacity(0.01)
        assert estimate.corrected_bits_per_second == pytest.approx(
            4000.0 * bsc_capacity(0.01)
        )

    def test_invalid_cycles(self):
        with pytest.raises(ValueError):
            _ = ChannelEstimate(0.0, 0.0).raw_bits_per_second

    def test_end_to_end_measurement(self):
        """Estimate the simulated channel's throughput from a real run."""
        import numpy as np

        from repro.bpu import haswell
        from repro.core.covert import CovertChannel, CovertConfig, error_rate
        from repro.cpu import PhysicalCore, Process
        from repro.system.scheduler import NoiseSetting

        core = PhysicalCore(haswell().scaled(16), seed=121)
        channel = CovertChannel.for_processes(
            core,
            Process("victim"),
            Process("spy"),
            setting=NoiseSetting.ISOLATED,
            config=CovertConfig(block_branches=8000),
        )
        bits = np.random.default_rng(0).integers(0, 2, 100).tolist()
        start_cycle = core.clock.now
        received = channel.transmit(bits)
        cycles_per_bit = (core.clock.now - start_cycle) / len(bits)
        estimate = ChannelEstimate(
            error_rate=error_rate(bits, received),
            cycles_per_bit=cycles_per_bit,
        )
        assert estimate.raw_bits_per_second > 0
        assert 0.0 <= estimate.capacity_per_use <= 1.0
