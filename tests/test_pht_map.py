"""PHT reverse engineering (paper §6.3, Figure 5, Equations 1-4)."""

from itertools import combinations

import numpy as np
import pytest

from repro.bpu import haswell
from repro.core.patterns import DecodedState
from repro.core.pht_map import (
    _encode,
    estimate_pht_size,
    hamming_ratio_curve,
    scan_states,
    scan_states_reference,
)
from repro.core.randomizer import RandomizationBlock
from repro.cpu import PhysicalCore, Process


@pytest.fixture
def core():
    return PhysicalCore(haswell().scaled(64), seed=41)  # 256-entry PHT


@pytest.fixture
def spy():
    return Process("spy")


@pytest.fixture
def compiled(core, spy):
    block = RandomizationBlock.generate(5, n_branches=4000)
    return block.compile(core, spy)


class TestScanStates:
    def test_states_repeat_with_pht_period(self, core, spy, compiled):
        """Congruent addresses decode to identical states (Figure 5c)."""
        n = core.predictor.bimodal.pht.n_entries
        base = 0x300000
        addresses = list(range(base, base + 2 * n))
        states = scan_states(core, spy, addresses, compiled)
        assert states[:n] == states[n:]

    def test_adjacent_addresses_can_differ(self, core, spy, compiled):
        """Byte-granular indexing: neighbours live in different entries
        (Figure 5a)."""
        base = 0x300000
        states = scan_states(
            core, spy, list(range(base, base + 64)), compiled
        )
        assert len(set(states)) > 1

    def test_scan_restores_core(self, core, spy, compiled):
        checkpoint = core.checkpoint()
        scan_states(core, spy, list(range(0x300000, 0x300040)), compiled)
        after = core.checkpoint()
        assert (
            checkpoint["predictor"]["bimodal"] == after["predictor"]["bimodal"]
        ).all()

    def test_exercise_outcome_shifts_states(self, core, spy, compiled):
        base = 0x300000
        addresses = list(range(base, base + 32))
        plain = scan_states(core, spy, addresses, compiled)
        exercised = scan_states(
            core, spy, addresses, compiled, exercise_outcome=True
        )
        assert plain != exercised

    def test_decodes_mostly_known_states(self, core, spy, compiled):
        states = scan_states(
            core, spy, list(range(0x300000, 0x300100)), compiled
        )
        known = sum(s is not DecodedState.UNKNOWN for s in states)
        assert known / len(states) > 0.9

    @pytest.mark.parametrize("exercise_outcome", [None, True])
    def test_methods_agree(self, core, spy, compiled, exercise_outcome):
        """The batch scan and the scalar reference produce the same
        state vector."""
        addresses = list(range(0x300000, 0x300000 + 96))
        batch = scan_states(
            core,
            spy,
            addresses,
            compiled,
            exercise_outcome=exercise_outcome,
        )
        reference = scan_states_reference(
            core,
            spy,
            addresses,
            compiled,
            exercise_outcome=exercise_outcome,
        )
        assert batch.engine == "batch"
        assert batch == reference


class TestHammingCurve:
    def _states(self, core, spy, compiled, length):
        return scan_states(
            core, spy, list(range(0x300000, 0x300000 + length)), compiled
        )

    def test_ratio_minimal_at_true_period(self, core, spy, compiled):
        n = core.predictor.bimodal.pht.n_entries
        states = self._states(core, spy, compiled, 4 * n)
        curve = hamming_ratio_curve(
            states, [n // 2, n - 3, n, n + 5, 2 * n]
        )
        assert curve[n] == 0.0
        assert curve[n] <= min(curve.values())

    def test_non_period_windows_have_positive_ratio(self, core, spy, compiled):
        n = core.predictor.bimodal.pht.n_entries
        states = self._states(core, spy, compiled, 4 * n)
        curve = hamming_ratio_curve(states, [n - 3, n + 5])
        assert curve[n - 3] > 0.0 and curve[n + 5] > 0.0

    def test_windows_too_large_are_skipped(self):
        states = [DecodedState.SN] * 10
        curve = hamming_ratio_curve(states, [6])  # only one subvector fits
        assert curve == {}

    def test_matches_scalar_reference(self):
        """The vectorised curve equals a per-pair scalar recomputation,
        including the sampled-pair RNG draws (same order, same values)."""
        rng = np.random.default_rng(17)
        states = [
            list(DecodedState)[i]
            for i in rng.integers(0, len(DecodedState), size=230)
        ]
        windows = [3, 5, 8, 16, 40]
        max_pairs = 12
        curve = hamming_ratio_curve(
            states,
            windows,
            rng=np.random.default_rng(99),
            max_pairs=max_pairs,
        )
        reference_rng = np.random.default_rng(99)
        encoded = _encode(states)
        expected = {}
        for w in windows:
            n_sub = len(encoded) // w
            if n_sub < 2:
                continue
            subvectors = encoded[: n_sub * w].reshape(n_sub, w)
            all_pairs = list(combinations(range(n_sub), 2))
            if len(all_pairs) > max_pairs:
                chosen = reference_rng.choice(
                    len(all_pairs), size=max_pairs, replace=False
                )
                pairs = [all_pairs[i] for i in chosen]
            else:
                pairs = all_pairs
            distances = [
                int((subvectors[a] != subvectors[b]).sum()) for a, b in pairs
            ]
            expected[w] = float(np.mean(distances)) / w
        assert curve == expected


class TestEstimateSize:
    def test_recovers_true_pht_size(self, core, spy, compiled):
        """Equation 4 recovers the table size — the paper's 16384 result,
        here against a scaled-down 256-entry table."""
        n = core.predictor.bimodal.pht.n_entries
        states = scan_states(
            core,
            spy,
            list(range(0x300000, 0x300000 + 4 * n)),
            compiled,
        )
        estimate = estimate_pht_size(
            states, windows=[2 ** k for k in range(3, 11)]
        )
        assert estimate == n

    def test_multiple_minima_pick_smallest_window(self):
        # A vector with period 4 has zero ratio at windows 4 and 8.
        pattern = [
            DecodedState.SN,
            DecodedState.ST,
            DecodedState.WN,
            DecodedState.WT,
        ] * 8
        assert estimate_pht_size(pattern, windows=[4, 8]) == 4

    def test_too_short_scan_raises(self):
        with pytest.raises(ValueError):
            estimate_pht_size([DecodedState.SN] * 3, windows=[16])
