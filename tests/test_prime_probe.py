"""Prime/probe primitives through the full core model."""

import pytest

from repro.bpu import haswell, skylake
from repro.bpu.fsm import State
from repro.core.patterns import DecodedState
from repro.core.prime_probe import (
    prime_direct,
    prime_sequence_for,
    probe_pair,
    probe_timed,
    read_entry_state,
)
from repro.cpu import PhysicalCore, Process
from tests.conftest import bimodal_state


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(16), seed=13)


@pytest.fixture
def spy():
    return Process("spy")


ADDRESS = 0x30_0006D


class TestPrimeSequences:
    @pytest.mark.parametrize("preset", [haswell, skylake])
    @pytest.mark.parametrize("state", list(State))
    def test_sequence_reaches_state_from_any_level(self, preset, state):
        fsm = preset().fsm
        outcomes = prime_sequence_for(fsm, state)
        for start in range(fsm.n_levels):
            level = start
            for taken in outcomes:
                level = fsm.step(level, taken)
            assert fsm.public_state(level) is state, (start, state)

    def test_prime_direct_sets_entry(self, core, spy):
        for state in (State.ST, State.SN, State.WN, State.WT):
            prime_direct(core, spy, ADDRESS, state)
            assert bimodal_state(core.predictor, ADDRESS) is state


class TestProbePair:
    def test_probe_is_two_branches(self, core, spy):
        with pytest.raises(ValueError):
            probe_pair(core, spy, ADDRESS, (True,))

    @pytest.mark.parametrize(
        "state,probe,expected",
        [
            (State.ST, (True, True), "HH"),
            (State.ST, (False, False), "MM"),
            (State.SN, (True, True), "MM"),
            (State.SN, (False, False), "HH"),
            (State.WN, (True, True), "MH"),
            (State.WN, (False, False), "HH"),
        ],
    )
    def test_patterns_match_table1(self, core, spy, state, probe, expected):
        """probe_pair through counters reproduces the analytical rows."""
        prime_direct(core, spy, ADDRESS, state)
        # Force 1-level mode for the probe, as the attack does.
        core.predictor.bit.evict(ADDRESS)
        result = probe_pair(core, spy, ADDRESS, probe)
        assert result.pattern == expected

    def test_probe_timed_returns_two_latencies(self, core, spy):
        lat1, lat2 = probe_timed(core, spy, ADDRESS, (True, True))
        assert lat1 >= 1 and lat2 >= 1

    def test_probe_timed_validates_length(self, core, spy):
        with pytest.raises(ValueError):
            probe_timed(core, spy, ADDRESS, (True, True, True))


class TestReadEntryState:
    @pytest.mark.parametrize("state", [State.ST, State.SN, State.WN, State.WT])
    def test_reads_back_primed_state(self, core, spy, state):
        def prepare():
            prime_direct(core, spy, ADDRESS, state)
            core.predictor.bit.evict(ADDRESS)

        decoded = read_entry_state(core, spy, ADDRESS, prepare)
        assert decoded.value == state.name

    def test_restores_surrounding_state(self, core, spy):
        core.execute_branch(spy, 0x999, True)
        checkpoint = core.checkpoint()

        def prepare():
            prime_direct(core, spy, ADDRESS, State.ST)
            core.predictor.bit.evict(ADDRESS)

        read_entry_state(core, spy, ADDRESS, prepare)
        after = core.checkpoint()
        assert (
            checkpoint["predictor"]["bimodal"] == after["predictor"]["bimodal"]
        ).all()

    def test_skylake_post_st_ambiguity(self, spy):
        """Priming ST then one N decodes as ST on Skylake (the quirk)."""
        core = PhysicalCore(skylake().scaled(16), seed=13)

        def prepare():
            prime_direct(core, spy, ADDRESS, State.ST)
            core.execute_branch(spy, ADDRESS, False)
            core.predictor.bit.evict(ADDRESS)

        assert read_entry_state(core, spy, ADDRESS, prepare) is DecodedState.ST
