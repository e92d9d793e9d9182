"""Prediction FSMs: textbook two-bit counter and the Skylake variant."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bpu.fsm import (
    FSMSpec,
    State,
    level_dtype,
    skylake_fsm,
    textbook_2bit_fsm,
)
from repro.core.patterns import expected_probe_pattern

ALL_FSMS = [textbook_2bit_fsm, skylake_fsm]

#: The paper's Figure 3: the states predicting taken, and the two
#: saturated ("strong") ones.
TAKEN_STATES = (State.WT, State.ST)
STRONG_STATES = (State.SN, State.ST)


def run(fsm: FSMSpec, level: int, outcomes: str) -> int:
    for ch in outcomes:
        level = fsm.step(level, ch == "T")
    return level


class TestStateEnum:
    def test_taken_states_predict_taken(self):
        for factory in ALL_FSMS:
            fsm = factory()
            for level in range(fsm.n_levels):
                assert fsm.predicts(level) == (
                    fsm.public_state(level) in TAKEN_STATES
                )

    def test_strong_states(self):
        for factory in ALL_FSMS:
            fsm = factory()
            saturated = {fsm.saturate(True), fsm.saturate(False)}
            for level in range(fsm.n_levels):
                assert (level in saturated) == (
                    fsm.public_state(level) in STRONG_STATES
                )

    def test_values_are_ordered(self):
        assert State.SN < State.WN < State.WT < State.ST


class TestTextbookFSM:
    def setup_method(self):
        self.fsm = textbook_2bit_fsm()

    def test_four_levels_map_one_to_one(self):
        assert self.fsm.n_levels == 4
        assert [self.fsm.public_state(i) for i in range(4)] == [
            State.SN,
            State.WN,
            State.WT,
            State.ST,
        ]

    def test_figure3_transitions_taken(self):
        # SN -> WN -> WT -> ST -> ST
        assert run(self.fsm, 0, "T") == 1
        assert run(self.fsm, 1, "T") == 2
        assert run(self.fsm, 2, "T") == 3
        assert run(self.fsm, 3, "T") == 3

    def test_figure3_transitions_not_taken(self):
        # ST -> WT -> WN -> SN -> SN
        assert run(self.fsm, 3, "N") == 2
        assert run(self.fsm, 2, "N") == 1
        assert run(self.fsm, 1, "N") == 0
        assert run(self.fsm, 0, "N") == 0

    def test_predictions_by_level(self):
        assert [self.fsm.predicts(i) for i in range(4)] == [
            False,
            False,
            True,
            True,
        ]

    def test_saturate(self):
        assert self.fsm.saturate(True) == 3
        assert self.fsm.saturate(False) == 0

    def test_not_ambiguous(self):
        assert not self.fsm.taken_states_ambiguous


class TestSkylakeFSM:
    def setup_method(self):
        self.fsm = skylake_fsm()

    def test_five_levels(self):
        assert self.fsm.n_levels == 5

    def test_ttt_saturates(self):
        """Three taken outcomes reach ST, as the paper's TTT prime does."""
        assert self.fsm.public_state(run(self.fsm, 0, "TTT")) is State.ST

    def test_sticky_taken_side(self):
        """Leaving the taken side takes two not-taken outcomes from ST."""
        st = run(self.fsm, 0, "TTT")
        after_one = self.fsm.step(st, False)
        after_two = self.fsm.step(after_one, False)
        assert self.fsm.predicts(after_one)  # still predicts taken
        assert self.fsm.predicts(after_two)  # still predicts taken
        after_three = self.fsm.step(after_two, False)
        assert not self.fsm.predicts(after_three)

    def test_not_taken_side_is_textbook(self):
        assert run(self.fsm, 0, "N") == 0
        wn = run(self.fsm, 0, "NNNT")
        assert self.fsm.public_state(wn) is State.WN

    def test_ambiguity_flag(self):
        assert self.fsm.taken_states_ambiguous


@pytest.mark.parametrize("factory", ALL_FSMS)
class TestTable1:
    """Every row of the paper's Table 1, per FSM.

    Expected observations: column 5 of Table 1, with footnote 1 applied
    for the Skylake FSM (MH -> MM in the TTT/N/NN row).
    """

    ROWS = [
        ("TTT", "T", "TT", "HH", "HH"),
        ("TTT", "T", "NN", "MM", "MM"),
        ("TTT", "N", "TT", "HH", "HH"),
        ("TTT", "N", "NN", "MH", "MM"),  # footnote 1
        ("NNN", "T", "TT", "MH", "MH"),
        ("NNN", "T", "NN", "HH", "HH"),
        ("NNN", "N", "TT", "MM", "MM"),
        ("NNN", "N", "NN", "HH", "HH"),
    ]

    def test_all_rows(self, factory):
        fsm = factory()
        skylake = fsm.taken_states_ambiguous
        for prime, target, probe, textbook_obs, skylake_obs in self.ROWS:
            level = run(fsm, 0, prime + target)
            pattern, _ = expected_probe_pattern(
                fsm, level, [c == "T" for c in probe]
            )
            expected = skylake_obs if skylake else textbook_obs
            assert pattern == expected, (prime, target, probe)

    def test_prime_reaches_strong_states(self, factory):
        fsm = factory()
        assert fsm.public_state(run(fsm, 0, "TTT")) is State.ST
        assert fsm.public_state(run(fsm, 3, "NNN")) is State.SN


@pytest.mark.parametrize("factory", ALL_FSMS)
class TestFSMProperties:
    @given(data=st.data())
    def test_levels_stay_in_range(self, factory, data):
        fsm = factory()
        level = data.draw(st.integers(0, fsm.n_levels - 1))
        outcomes = data.draw(st.lists(st.booleans(), max_size=50))
        for taken in outcomes:
            level = fsm.step(level, taken)
            assert 0 <= level < fsm.n_levels

    @given(data=st.data())
    def test_n_same_outcomes_saturate(self, factory, data):
        """After n_levels identical outcomes the FSM is pinned."""
        fsm = factory()
        level = data.draw(st.integers(0, fsm.n_levels - 1))
        taken = data.draw(st.booleans())
        for _ in range(fsm.n_levels):
            level = fsm.step(level, taken)
        assert level == fsm.saturate(taken)
        # And it stays there.
        assert fsm.step(level, taken) == level

    @given(data=st.data())
    def test_prediction_matches_public_state(self, factory, data):
        fsm = factory()
        level = data.draw(st.integers(0, fsm.n_levels - 1))
        assert fsm.predicts(level) == (
            fsm.public_state(level) in TAKEN_STATES
        )

    @given(data=st.data())
    def test_vectorised_step_matches_scalar(self, factory, data):
        fsm = factory()
        levels = data.draw(
            st.lists(st.integers(0, fsm.n_levels - 1), min_size=1, max_size=20)
        )
        taken = data.draw(st.booleans())
        arr = np.array(levels, dtype=np.int8)
        stepped = fsm.step_table[int(taken), arr]
        assert stepped.tolist() == [fsm.step(l, taken) for l in levels]

    @given(data=st.data())
    def test_vectorised_predict_matches_scalar(self, factory, data):
        fsm = factory()
        levels = data.draw(
            st.lists(st.integers(0, fsm.n_levels - 1), min_size=1, max_size=20)
        )
        arr = np.array(levels, dtype=np.int8)
        assert fsm.predicts_array(arr).tolist() == [
            fsm.predicts(l) for l in levels
        ]

    def test_level_for_roundtrip(self, factory):
        fsm = factory()
        for state in State:
            assert fsm.public_state(fsm.level_for(state)) is state


class TestSpecValidation:
    def test_mismatched_table_lengths_rejected(self):
        with pytest.raises(ValueError):
            FSMSpec(
                name="bad",
                n_levels=2,
                predict_taken=(False,),
                next_on_taken=(1, 1),
                next_on_not_taken=(0, 0),
                to_public=(State.SN, State.ST),
            )

    def test_out_of_range_transition_rejected(self):
        with pytest.raises(ValueError):
            FSMSpec(
                name="bad",
                n_levels=2,
                predict_taken=(False, True),
                next_on_taken=(1, 2),
                next_on_not_taken=(0, 0),
                to_public=(State.SN, State.ST),
            )

    def test_level_for_missing_state(self):
        fsm = FSMSpec(
            name="two-state",
            n_levels=2,
            predict_taken=(False, True),
            next_on_taken=(1, 1),
            next_on_not_taken=(0, 0),
            to_public=(State.SN, State.ST),
        )
        with pytest.raises(ValueError):
            fsm.level_for(State.WT)


def wide_saturating_fsm(n_levels: int = 256) -> FSMSpec:
    """A linear saturating counter with ``n_levels`` levels.

    Exercises the >127-level regime where int8 level storage would
    silently wrap (the taken side saturates at ``n_levels - 1 > 127``).
    """
    top = n_levels - 1
    half = n_levels // 2
    public = [State.SN] + [State.WN] * (half - 1)
    public += [State.WT] * (top - half) + [State.ST]
    return FSMSpec(
        name=f"wide-{n_levels}",
        n_levels=n_levels,
        predict_taken=tuple(i >= half for i in range(n_levels)),
        next_on_taken=tuple(min(i + 1, top) for i in range(n_levels)),
        next_on_not_taken=tuple(max(i - 1, 0) for i in range(n_levels)),
        to_public=tuple(public),
    )


class TestWideCounters:
    """Regression: a 256-level FSM must not wrap int8 level storage."""

    def test_level_dtype_widens_with_n_levels(self):
        assert level_dtype(4) == np.int8
        assert level_dtype(128) == np.int8
        assert level_dtype(129) == np.int16
        assert level_dtype(1 << 20) == np.int32
        with pytest.raises(ValueError):
            level_dtype(0)

    def test_256_level_fsm_saturates_without_wrapping(self):
        fsm = wide_saturating_fsm(256)
        assert fsm.step_table.dtype == np.int16
        level = 0
        for _ in range(300):
            level = fsm.step(level, True)
        assert level == 255  # int8 would have wrapped negative at 128
        assert fsm.public_state(level) is State.ST

    def test_256_level_pht_stores_high_levels(self):
        from repro.bpu.pht import PatternHistoryTable

        pht = PatternHistoryTable(8, wide_saturating_fsm(256))
        assert pht.levels.dtype == np.int16
        pht.set_level(3, 255)
        assert pht.level(3) == 255
        for _ in range(200):
            pht.update(0, True)
        assert pht.level(0) == 200 + pht._initial_level
        snap = pht.snapshot()
        pht.update(3, False)
        pht.restore(snap)
        assert pht.level(3) == 255

    def test_256_level_randomize_covers_high_levels(self):
        from repro.bpu.pht import PatternHistoryTable

        pht = PatternHistoryTable(4096, wide_saturating_fsm(256))
        pht.randomize(np.random.default_rng(0))
        assert int(pht.levels.max()) > 127
        assert int(pht.levels.min()) >= 0

    def test_wide_selector_counters_do_not_wrap(self):
        from repro.bpu.selector import SelectorTable

        sel = SelectorTable(16, initial_counter=0, counter_bits=9)
        assert sel.max_counter == 511
        for _ in range(600):
            sel.update(5, bimodal_correct=False, gshare_correct=True)
        assert sel.counter(5) == 511  # int8 would have wrapped at 128
        assert sel.choose(5).name == "GSHARE"
