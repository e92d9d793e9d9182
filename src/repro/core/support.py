"""Shared engine-support predicates.

Every vectorised engine in the repo (the §6.3 batch probe scan, the
calibration batch assessor, the manycore struct-of-arrays campaign
backend) is an *exactness-gated* fast path: it runs only when it can be
bit-identical to the scalar reference, and falls back otherwise.  This
module is the single home of the gating conditions, so a new
disqualifier is added exactly once and every engine picks it up.

One condition gates the per-trial engines: a mitigation overriding
``perturb_counter`` (noisy counters) or ``update_outcome`` (stochastic
FSM) makes the probe observation stochastic, and no batch engine can
replay it.  Every calibration assessment carries a pre-drawn trial
plan, so the batch assessor shares the §6.3 batch scan's predicate;
the manycore engine adds its own structural conditions.

The preset's PHT index hash is *not* a condition: every engine computes
probe/target and block-branch indices through :mod:`repro.bpu.hashes`
(numpy engines via ``apply_hash``, compiled kernels via
``kernel_shift``), so the zoo's ``"fold"`` presets run every fast path.

The reason strings (``"mitigation"``, ``"unshared_structure"``) feed
``repro.obs.record_scalar_fallback`` so operators can see *why* an
engine degraded, not just that it did.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cpu.core import PhysicalCore
from repro.mitigations.base import Mitigation

__all__ = [
    "OBSERVATION_HOOKS",
    "observation_hooks_clean",
    "batch_scan_supported",
    "batch_scan_fallback_reason",
    "manycore_fallback_reason",
]

#: Hooks whose override makes the probe observation stochastic; any
#: mitigation overriding one of these forces the scalar reference path.
OBSERVATION_HOOKS = ("perturb_counter", "update_outcome")


def observation_hooks_clean(core: PhysicalCore) -> bool:
    """No installed mitigation overrides an observation hook."""
    for mitigation in core.mitigations:
        for hook in OBSERVATION_HOOKS:
            if getattr(type(mitigation), hook) is not getattr(Mitigation, hook):
                return False
    return True


def batch_scan_supported(core: PhysicalCore) -> bool:
    """Whether the batch probe engine is exact for this core.

    True iff no installed mitigation overrides a hook that perturbs the
    probe *observation* (counter noise) or the training outcome
    (stochastic FSM).  Index/suppression mitigation hooks are handled
    exactly by the engine's pre-pass and do not disqualify, and neither
    does any registered index hash.
    """
    return observation_hooks_clean(core)


def batch_scan_fallback_reason(core: PhysicalCore) -> Optional[str]:
    """Why the batch probe engine would fall back (``None`` = it won't)."""
    if not observation_hooks_clean(core):
        return "mitigation"
    return None


def manycore_fallback_reason(
    core: PhysicalCore, gaps: Optional[np.ndarray] = None
) -> Optional[str]:
    """Why the manycore closed-form engine is inexact for ``core``.

    Returns ``None`` when supported, else the fallback reason:

    * ``"mitigation"`` — any installed mitigation (index hooks would
      have to run per branch per instance; observation hooks fail
      :func:`observation_hooks_clean` as in the per-trial engines);
    * ``"unshared_structure"`` — the two PHTs' FSM specs are not
      value-equal (they would need different transition algebras) or
      ``gaps`` contains an empty noise gap (the closed-form GHR then
      depends on the per-block ``ghr_end``).
    """
    if len(core.mitigations) > 0 or not observation_hooks_clean(core):
        return "mitigation"
    if core.predictor.bimodal.pht.fsm != core.predictor.gshare.pht.fsm:
        return "unshared_structure"
    if gaps is not None and bool((np.asarray(gaps) == 0).any()):
        return "unshared_structure"
    return None
