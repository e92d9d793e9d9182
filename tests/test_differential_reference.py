"""Differential testing: the BPU against an independent reference model.

``ReferenceHybrid`` re-implements the hybrid predictor's architecture
naively — dictionaries, explicit per-entry FSM objects, no NumPy, no
sharing with the production code beyond the FSM *spec* tables — and a
hypothesis test drives both implementations with the same random branch
sequences, asserting identical predictions and identical observable
state at every step.  Any divergence between the clever and the obvious
implementation is a bug in one of them.

The reference spells out the zoo's model extensions too — the XOR-fold
index hash, folded long history and each preset's FSM — without
importing :mod:`repro.bpu.hashes`, and the suite runs on all six
presets, so a bug shared by the production hash helpers and every fast
engine built on them cannot pass unnoticed.
"""

from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.bpu.fsm import FSMSpec
from repro.bpu.presets import PRESETS


class ReferenceHybrid:
    """Obvious dictionary-based re-implementation of the predictor."""

    def __init__(self, config) -> None:
        self.config = config
        self.fsm: FSMSpec = config.fsm
        initial = self.fsm.level_for(config.initial_state)
        self.bimodal: Dict[int, int] = {}
        self.gshare: Dict[int, int] = {}
        self.selector: Dict[int, int] = {}
        self.bit: Dict[int, int] = {}  # set -> tag
        self.ghr = 0
        self._initial_level = initial
        self._selector_initial = config.selector_initial
        self._selector_max = (1 << config.selector_bits) - 1

    # -- helpers -------------------------------------------------------------

    def _bimodal_level(self, index: int) -> int:
        return self.bimodal.get(index, self._initial_level)

    def _gshare_level(self, index: int) -> int:
        return self.gshare.get(index, self._initial_level)

    def _selector_value(self, index: int) -> int:
        return self.selector.get(index, self._selector_initial)

    def _bit_tag_bits(self) -> int:
        return 12  # BranchIdentificationTable default

    def _index(self, mixed: int, n_entries: int) -> int:
        """PHT index of a mixed address under the preset's hash, spelled
        out: ``"mod"`` is ``x % n``; ``"fold"`` XORs in the next
        ``floor(log2 n)`` bits first, ``(x ^ (x >> floor(log2 n))) % n``."""
        if self.config.index_hash == "mod":
            return mixed % n_entries
        assert self.config.index_hash == "fold", self.config.index_hash
        shift = n_entries.bit_length() - 1  # floor(log2 n)
        return (mixed ^ (mixed >> shift)) % n_entries

    # -- the architecture, spelled out ----------------------------------------

    def execute(self, address: int, taken: bool) -> bool:
        """Execute one branch; returns the final predicted direction."""
        config = self.config
        bimodal_index = self._index(address, config.bimodal_entries)
        # Fold a long history to index width, spelled out independently
        # of repro.bpu.hashes.fold_history: XOR of index-width chunks.
        width = max(1, config.gshare_entries.bit_length() - 1)
        folded, remaining = 0, self.ghr
        while remaining:
            folded ^= remaining & ((1 << width) - 1)
            remaining >>= width
        gshare_index = self._index(address ^ folded, config.gshare_entries)
        selector_index = address % config.selector_entries
        bit_set = address % config.bit_sets
        bit_tag = (address // config.bit_sets) & (
            (1 << self._bit_tag_bits()) - 1
        )

        bimodal_taken = self.fsm.predicts(self._bimodal_level(bimodal_index))
        gshare_taken = self.fsm.predicts(self._gshare_level(gshare_index))
        cold = self.bit.get(bit_set) != bit_tag
        if cold:
            predicted = bimodal_taken
        elif self._selector_value(selector_index) >= self._selector_max:
            predicted = gshare_taken
        else:
            predicted = bimodal_taken

        # Training.
        self.bimodal[bimodal_index] = self.fsm.step(
            self._bimodal_level(bimodal_index), taken
        )
        self.gshare[gshare_index] = self.fsm.step(
            self._gshare_level(gshare_index), taken
        )
        if cold:
            self.selector[selector_index] = self._selector_initial
        else:
            bimodal_correct = bimodal_taken == taken
            gshare_correct = gshare_taken == taken
            if bimodal_correct != gshare_correct:
                value = self._selector_value(selector_index)
                if gshare_correct:
                    value = min(self._selector_max, value + 1)
                else:
                    value = max(0, value - 1)
                self.selector[selector_index] = value
        self.ghr = ((self.ghr << 1) | int(taken)) & (
            (1 << config.ghr_bits) - 1
        )
        self.bit[bit_set] = bit_tag
        return predicted


@st.composite
def branch_sequences(draw):
    """Random branch streams biased to create collisions and patterns."""
    n_addresses = draw(st.integers(1, 6))
    addresses = draw(
        st.lists(
            st.integers(0, 1 << 20),
            min_size=n_addresses,
            max_size=n_addresses,
            unique=True,
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_addresses - 1), st.booleans()
            ),
            max_size=120,
        )
    )
    return [(addresses[i], taken) for i, taken in ops]


@pytest.mark.parametrize(
    "preset", list(PRESETS.values()), ids=list(PRESETS)
)
class TestDifferential:
    @given(sequence=branch_sequences())
    @settings(max_examples=60, deadline=None)
    def test_predictions_match_reference(self, preset, sequence):
        config = preset().scaled(64)
        production = config.build()
        reference = ReferenceHybrid(config)
        for address, taken in sequence:
            expected = reference.execute(address, taken)
            actual = production.execute(address, taken).taken
            assert actual == expected, (address, taken)

    @given(sequence=branch_sequences())
    @settings(max_examples=40, deadline=None)
    def test_observable_state_matches_reference(self, preset, sequence):
        config = preset().scaled(64)
        production = config.build()
        reference = ReferenceHybrid(config)
        for address, taken in sequence:
            reference.execute(address, taken)
            production.execute(address, taken)
        # Compare the full bimodal PHT (the attack's observable)...
        for index in range(config.bimodal_entries):
            assert production.bimodal.pht.level(index) == (
                reference.bimodal.get(
                    index, reference._initial_level
                )
            ), index
        # ...the GHR, and the selector.
        assert production.ghr.value == reference.ghr
        for index in range(config.selector_entries):
            assert production.selector.counters[index] == (
                reference.selector.get(index, config.selector_initial)
            ), index
