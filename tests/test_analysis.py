"""Statistics and report-formatting helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    binomial_confidence_interval,
    format_table,
    mean_and_std,
    state_distribution,
)
from repro.core.patterns import DecodedState


class TestMeanAndStd:
    def test_basic(self):
        mean, std = mean_and_std([2.0, 4.0])
        assert mean == 3.0 and std == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_and_std([])


class TestBinomialCI:
    def test_contains_point_estimate(self):
        low, high = binomial_confidence_interval(30, 100)
        assert low < 0.3 < high

    def test_bounds_clipped_to_unit_interval(self):
        low, _ = binomial_confidence_interval(0, 10)
        _, high = binomial_confidence_interval(10, 10)
        assert low == 0.0 and high == 1.0

    def test_narrows_with_more_trials(self):
        low_small, high_small = binomial_confidence_interval(5, 50)
        low_big, high_big = binomial_confidence_interval(500, 5000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_confidence_interval(1, 0)
        with pytest.raises(ValueError):
            binomial_confidence_interval(5, 3)

    @given(
        trials=st.integers(1, 500),
        data=st.data(),
    )
    def test_interval_always_valid(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        low, high = binomial_confidence_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0


class TestStateDistribution:
    def test_frequencies_sum_to_one(self):
        states = [DecodedState.SN] * 3 + [DecodedState.DIRTY]
        dist = state_distribution(states)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[DecodedState.SN] == 0.75
        assert dist[DecodedState.WT] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            state_distribution([])


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ["CPU", "error"],
            [["skylake", "0.46%"], ["sb", "2.44%"]],
            title="Table 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        assert "CPU" in lines[1] and "error" in lines[1]
        assert "skylake" in lines[3]
        # Columns align: every row has the separator at the same offset.
        sep_col = lines[1].index("error")
        assert lines[3][sep_col - 2 : sep_col] == "  "

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_no_title(self):
        text = format_table(["a"], [["1"]])
        assert text.splitlines()[0].startswith("a")
