"""Microarchitecture presets."""

import pytest

from repro.bpu import haswell, sandy_bridge, skylake
from repro.bpu.fsm import State
from repro.bpu.presets import (
    PRESETS,
    firestorm_like,
    oryon_like,
    tage_like,
)
from tests.conftest import bimodal_state


class TestPresetCatalog:
    def test_zoo_roster(self):
        """The three paper CPUs plus the three zoo additions."""
        assert set(PRESETS) == {
            "skylake",
            "haswell",
            "sandy_bridge",
            "tage_like",
            "firestorm_like",
            "oryon_like",
        }

    def test_names_identify_the_parts(self):
        assert "6200U" in skylake().name
        assert "4800MQ" in haswell().name
        assert "2600" in sandy_bridge().name

    def test_paper_pht_size_on_measured_machine(self):
        """§6.3 measured 16384 byte-granular entries."""
        assert skylake().bimodal_entries == 16384
        assert haswell().bimodal_entries == 16384

    def test_sandy_bridge_smaller_tables(self):
        """§7 attributes SB's higher error rates to smaller tables."""
        assert sandy_bridge().bimodal_entries < haswell().bimodal_entries
        assert sandy_bridge().gshare_entries < skylake().gshare_entries

    def test_skylake_fsm_quirk(self):
        assert skylake().fsm.taken_states_ambiguous
        assert not haswell().fsm.taken_states_ambiguous
        assert not sandy_bridge().fsm.taken_states_ambiguous

    def test_unknown_preset_names_the_options(self):
        with pytest.raises(KeyError) as exc:
            PRESETS["sklake"]
        message = str(exc.value)
        assert "sklake" in message
        assert "sandy_bridge" in message
        assert "oryon_like" in message

    def test_zoo_geometries(self):
        """The Arm/TAGE additions model the cited reverse engineering."""
        assert tage_like().fsm.n_levels == 8  # 3-bit counters
        assert tage_like().ghr_bits == 20
        assert firestorm_like().bimodal_entries == 32768
        assert firestorm_like().ghr_bits == 24
        assert oryon_like().index_hash == "fold"
        # Intel presets stay byte-granular plain-modulo indexed.
        for name in ("skylake", "haswell", "sandy_bridge"):
            assert PRESETS[name]().index_hash == "mod"

    def test_zoo_histories_exceed_index_width(self):
        """The zoo additions all need folded history (the point of them)."""
        for factory in (tage_like, firestorm_like, oryon_like):
            config = factory()
            assert config.ghr_bits > config.gshare_entries.bit_length() - 1


class TestBuild:
    @pytest.mark.parametrize("factory", list(PRESETS.values()))
    def test_build_matches_geometry(self, factory):
        config = factory()
        predictor = config.build()
        assert predictor.bimodal.pht.n_entries == config.bimodal_entries
        assert predictor.gshare.pht.n_entries == config.gshare_entries
        assert predictor.ghr.length == config.ghr_bits
        assert len(predictor.selector) == config.selector_entries
        assert len(predictor.bit) == config.bit_sets
        assert len(predictor.btb) == config.btb_sets

    def test_builds_are_independent(self):
        config = haswell()
        a, b = config.build(), config.build()
        a.execute(0x100, True)
        assert bimodal_state(b, 0x100) is State.WN

    def test_initial_state_applied(self):
        from dataclasses import replace

        config = replace(haswell(), initial_state=State.ST)
        predictor = config.build()
        assert bimodal_state(predictor, 0x1234) is State.ST


class TestScaled:
    def test_scaling_divides_tables(self):
        config = haswell().scaled(16)
        assert config.bimodal_entries == 1024
        assert config.selector_entries == 256

    def test_scaling_preserves_fsm_and_history(self):
        config = skylake().scaled(8)
        assert config.fsm.taken_states_ambiguous
        assert config.ghr_bits == skylake().ghr_bits

    def test_scaling_floors_at_four(self):
        config = haswell().scaled(100_000)
        assert config.bimodal_entries >= 4

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            haswell().scaled(0)

    def test_scaled_name_distinct(self):
        assert haswell().scaled(4).name != haswell().name
