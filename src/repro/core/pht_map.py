"""PHT reverse engineering (paper §6.3, Figure 5, Equations 1-4).

Knowing PHT entry states for a *range* of addresses lets the attacker spy
on several victim branches per episode and reverse-engineer the table
itself.  The paper's method:

1. Execute the randomisation code to set the PHTs to a block-specific
   pattern.
2. Place a branch at each virtual address in a range and execute it.
3. Decode the PHT state behind each address with the two-variant probe
   dictionary, producing a state vector ``V`` (Equation 1).
4. Exploit the fact that a modulo index makes the state pattern repeat
   with period equal to the table size: for each window size ``w``,
   split ``V`` into ``w``-sized subvectors (Equation 2) and compute the
   mean pairwise Hamming distance (Equation 3, sampled over random pairs
   for speed, as the paper does with "100 random permutations").  The
   window minimising the distance/size ratio is the PHT size
   (Equation 4); on the paper's machine the minimum lands at
   ``w = 2^14 = 16384`` entries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.batch_probe import (
    batch_decode_states,
    batch_probe_signatures,
    batch_scan_supported,
)
from repro.core.patterns import DecodedState, decode_state
from repro.core.support import batch_scan_fallback_reason
from repro.core.prime_probe import probe_pair
from repro.core.randomizer import CompiledBlock
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.obs import trace as obs

__all__ = [
    "ScanResult",
    "scan_states",
    "scan_states_reference",
    "hamming_ratio_curve",
    "estimate_pht_size",
]


class ScanResult(List[DecodedState]):
    """A scan's state vector, annotated with how it was computed.

    Behaves exactly like a plain list (equality, slicing — slices are
    plain lists — iteration), with two extra attributes: ``engine``
    (``"batch"`` or ``"reference"``) and ``scalar_fallbacks`` — how many
    times this call routed the scan to the scalar reference (0 or 1;
    1 exactly when an installed mitigation makes the batch engine
    inexact).
    """

    engine: str = "batch"
    scalar_fallbacks: int = 0

    def __init__(self, states, *, engine: str, scalar_fallbacks: int = 0):
        super().__init__(states)
        self.engine = engine
        self.scalar_fallbacks = scalar_fallbacks


def scan_states(
    core: PhysicalCore,
    spy: Process,
    addresses: Sequence[int],
    compiled_block: CompiledBlock,
    *,
    exercise_outcome: Optional[bool] = None,
) -> List[DecodedState]:
    """Decode the PHT state behind every address in ``addresses``.

    Implements §6.3's scan: apply the randomisation block, optionally
    place-and-execute a branch at every address (the paper's step 2),
    then decode each address's PHT entry with the two-variant probe
    dictionary.

    The batch engine (:mod:`repro.core.batch_probe`) computes every
    address's probe signatures at once from the prepared predictor
    arrays whenever it is exact for the installed mitigations
    (:func:`~repro.core.batch_probe.batch_scan_supported`); otherwise
    the scan runs :func:`scan_states_reference`, the scalar
    probe/restore loop, and counts a scalar fallback.  The two engines
    return identical state vectors — pinned differentially in
    ``tests/test_batch_probe.py``.

    The returned :class:`ScanResult` is a plain list of states that
    additionally records which engine ran (``.engine``) and whether a
    mitigation forced the scan off the batch engine
    (``.scalar_fallbacks``).
    """
    if not batch_scan_supported(core):
        obs.record_scalar_fallback(
            "batch_probe", batch_scan_fallback_reason(core) or "mitigation"
        )
        return ScanResult(
            scan_states_reference(
                core,
                spy,
                addresses,
                compiled_block,
                exercise_outcome=exercise_outcome,
            ),
            engine="reference",
            scalar_fallbacks=1,
        )

    checkpoint = core.checkpoint()
    compiled_block.apply(core, spy)
    if exercise_outcome is not None:
        # Kept scalar: the paper's step 2 is a genuine state preparation
        # (its training effects feed the probes), not an observation.
        for address in addresses:
            core.execute_branch(spy, int(address), bool(exercise_outcome))
    fsm = core.predictor.bimodal.pht.fsm
    signatures = batch_probe_signatures(core, spy, addresses)
    core.restore(checkpoint)
    tracer = obs.TRACER
    if tracer is not None:
        tracer.emit(
            "probe",
            "scan",
            cycle=core.clock.now,
            pid=spy.pid,
            addresses=len(addresses),
            engine="batch",
        )
    return ScanResult(batch_decode_states(fsm, *signatures), engine="batch")


def scan_states_reference(
    core: PhysicalCore,
    spy: Process,
    addresses: Sequence[int],
    compiled_block: CompiledBlock,
    *,
    exercise_outcome: Optional[bool] = None,
) -> List[DecodedState]:
    """Scalar §6.3 scan: simulate every probe, restore between them.

    Because probing is destructive, each address's TT and NN probe
    variants run against a restored copy of the prepared state.  This is
    the batch engine's differential reference and the fallback
    :func:`scan_states` takes under mitigations the batch engine cannot
    reproduce.
    """
    checkpoint = core.checkpoint()
    compiled_block.apply(core, spy)
    if exercise_outcome is not None:
        for address in addresses:
            core.execute_branch(spy, int(address), bool(exercise_outcome))
    prepared = core.checkpoint()
    fsm = core.predictor.bimodal.pht.fsm

    states: List[DecodedState] = []
    for address in addresses:
        tt = probe_pair(core, spy, int(address), (True, True)).pattern
        core.restore(prepared)
        nn = probe_pair(core, spy, int(address), (False, False)).pattern
        core.restore(prepared)
        states.append(decode_state(fsm, tt, nn))
    core.restore(checkpoint)
    return states


def _encode(states: Sequence[DecodedState]) -> np.ndarray:
    codes = {state: i for i, state in enumerate(DecodedState)}
    return np.array([codes[s] for s in states], dtype=np.int8)


def hamming_ratio_curve(
    states: Sequence[DecodedState],
    windows: Iterable[int],
    *,
    rng: Optional[np.random.Generator] = None,
    max_pairs: int = 100,
) -> Dict[int, float]:
    """Mean pairwise Hamming distance / window size, per window size.

    Equation 3's ``H(w)`` computed over at most ``max_pairs`` random
    subvector pairs (all pairs when fewer exist), divided by ``w`` so
    window sizes are comparable (the ratio the paper plots in Figure 5b).
    Windows that do not fit at least two subvectors are skipped.

    Pair enumeration and Hamming distances are vectorised:
    ``np.triu_indices`` lists (a, b) pairs in the same row-major order as
    ``itertools.combinations``, so the sampled-pair RNG draw — and hence
    the curve — is unchanged from the scalar implementation.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    encoded = _encode(states)
    curve: Dict[int, float] = {}
    for w in windows:
        w = int(w)
        n_sub = len(encoded) // w
        if w < 1 or n_sub < 2:
            continue
        subvectors = encoded[: n_sub * w].reshape(n_sub, w)
        first, second = np.triu_indices(n_sub, k=1)
        if len(first) > max_pairs:
            chosen = rng.choice(len(first), size=max_pairs, replace=False)
            first = first[chosen]
            second = second[chosen]
        distances = (subvectors[first] != subvectors[second]).sum(axis=1)
        curve[w] = float(distances.mean()) / w
    return curve


def estimate_pht_size(
    states: Sequence[DecodedState],
    *,
    windows: Optional[Iterable[int]] = None,
    rng: Optional[np.random.Generator] = None,
    max_pairs: int = 100,
) -> int:
    """Equation 4: the window size minimising the Hamming ratio.

    Defaults to testing every window from 2 to half the scan length.  On
    ties or multiple local minima the smallest window wins, per the
    paper ("the value with lowest value of w is selected").
    """
    if windows is None:
        windows = range(2, len(states) // 2 + 1)
    curve = hamming_ratio_curve(
        states, windows, rng=rng, max_pairs=max_pairs
    )
    if not curve:
        raise ValueError("scan too short for any window size")
    best_ratio = min(curve.values())
    return min(w for w, ratio in curve.items() if ratio == best_ratio)
