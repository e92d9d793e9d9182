"""Shared engine-support predicates (:mod:`repro.core.support`).

Each vectorised engine gates itself on the same observation-hook
condition through this one module, so the unit tests pin the
predicates directly and then cross-check that the engines' historical entry points still re-export
them.  The preset's index hash is deliberately not a condition: every
engine is hash-aware.
"""

import numpy as np
import pytest

from repro.bpu.presets import PRESETS, haswell, oryon_like
from repro.core.support import (
    batch_scan_fallback_reason,
    batch_scan_supported,
    manycore_fallback_reason,
    observation_hooks_clean,
)
from repro.cpu.core import PhysicalCore
from repro.mitigations.noisy_counters import NoisyPerformanceCounters
from repro.mitigations.pht_randomization import PhtIndexRandomization
from repro.mitigations.static_prediction import (
    StaticPredictionForSensitiveBranches,
)
from repro.mitigations.stochastic_fsm import StochasticFSM


def _core(factory=haswell, **kwargs):
    return PhysicalCore(factory().scaled(16), seed=3, **kwargs)


class TestObservationHooks:
    def test_clean_core(self):
        assert observation_hooks_clean(_core())

    def test_index_hooks_do_not_disqualify(self):
        core = _core()
        core.install_mitigation(
            PhtIndexRandomization(np.random.default_rng(1))
        )
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        assert observation_hooks_clean(core)

    @pytest.mark.parametrize(
        "mitigation",
        [
            lambda: NoisyPerformanceCounters(magnitude=2),
            lambda: StochasticFSM(flip_prob=0.1),
        ],
        ids=["noisy_counters", "stochastic_fsm"],
    )
    def test_observation_hooks_disqualify(self, mitigation):
        core = _core()
        core.install_mitigation(mitigation())
        assert not observation_hooks_clean(core)
        assert not batch_scan_supported(core)
        assert batch_scan_fallback_reason(core) == "mitigation"


def _no_fallback_anywhere(core) -> None:
    assert batch_scan_supported(core)
    assert batch_scan_fallback_reason(core) is None
    assert manycore_fallback_reason(core) is None


class TestIndexHash:
    def test_mod_presets_batchable(self):
        for name in ("skylake", "haswell", "sandy_bridge", "tage_like"):
            core = _core(PRESETS[name])
            assert core.predictor.bimodal.index_hash == "mod"
            _no_fallback_anywhere(core)

    def test_fold_preset_has_no_fallback_reason(self):
        core = _core(oryon_like)
        assert core.predictor.bimodal.index_hash == "fold"
        assert core.predictor.gshare.index_hash == "fold"
        _no_fallback_anywhere(core)


class TestTimingAndPlan:
    def test_base_timing_supported(self):
        core = _core()
        assert batch_scan_supported(core)
        assert batch_scan_fallback_reason(core) is None


class TestManycore:
    def test_clean_core_supported(self):
        assert manycore_fallback_reason(_core()) is None

    def test_any_mitigation_disqualifies(self):
        core = _core()
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        assert manycore_fallback_reason(core) == "mitigation"

    def test_empty_noise_gap_disqualifies(self):
        core = _core()
        assert manycore_fallback_reason(core, np.array([3, 2, 1])) is None
        assert (
            manycore_fallback_reason(core, np.array([3, 0, 1]))
            == "unshared_structure"
        )


class TestReExports:
    """The engines' historical entry points resolve to the shared home."""

    def test_batch_probe_reexport(self):
        from repro.core import batch_probe

        assert batch_probe.batch_scan_supported is batch_scan_supported

    def test_core_package_reexport(self):
        from repro import core

        assert core.batch_scan_supported is batch_scan_supported
        assert core.manycore_fallback_reason is manycore_fallback_reason
