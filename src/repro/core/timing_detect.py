"""Detecting branch predictor events with the timestamp counter (paper §8).

Without access to performance counters, the spy times its probe branches
with ``rdtscp``: a mispredicted branch costs a pipeline restart, so its
latency distribution sits visibly above the correctly-predicted one
(Figure 7).  Complications the paper measures and we reproduce:

* the **first** execution of a branch is polluted by instruction-fetch
  effects — 20-30% detection error (Figure 8, upper curve);
* the **second** (warm) execution detects reliably: ~10% error from a
  single measurement, approaching zero as ~10 measurements are averaged
  (Figure 8, lower curve);
* each PHT state leaves a distinct latency signature on the two probe
  executions (Figure 9), so the whole attack works timer-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.bpu.fsm import State
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.cpu.timing import TimingModel

__all__ = [
    "LatencySamples",
    "TimingCalibration",
    "latency_experiment",
    "timing_error_rate",
    "probe_state_latencies",
    "calibrate_timing",
]


@dataclass(frozen=True)
class LatencySamples:
    """Latencies from the §8 double-execution protocol.

    ``first``/``second`` are per-trial latencies of the first (cold) and
    second (warm) executions of the branch instance.
    """

    first: np.ndarray
    second: np.ndarray


def _state_for(taken: bool, correct: bool) -> State:
    """PHT state that makes a ``taken`` branch (in)correctly predicted."""
    if correct:
        return State.ST if taken else State.SN
    return State.SN if taken else State.ST


def latency_experiment(
    core: PhysicalCore,
    process: Process,
    address: int,
    *,
    n: int = 10_000,
    taken: bool,
    correct: bool,
) -> LatencySamples:
    """Collect Figure 7 latency samples through the full core model.

    Each trial mimics the paper's protocol: the branch line is flushed
    from the i-cache, the colliding PHT entry is driven to a state that
    makes the prediction hit or miss, and the branch executes twice with
    the same outcome — latencies of both executions are recorded.  The
    branch is evicted from the identification table before each execution
    so the 1-level predictor is in effect, as in the attack.
    """
    pht = core.predictor.bimodal.pht
    index = core.predictor.bimodal.index(address)
    state = _state_for(taken, correct)
    first = np.empty(n, dtype=np.int64)
    second = np.empty(n, dtype=np.int64)
    for i in range(n):
        core.icache.evict(address)
        pht.set_state(index, state)
        core.predictor.bit.evict(address)
        first[i] = core.execute_branch(process, address, taken).latency
        # Keep the second execution's correctness identical: a saturating
        # counter stays on the same prediction side after one same-side
        # miss (ST -N-> WT still predicts taken), but re-arming makes the
        # protocol explicit and FSM-agnostic.
        pht.set_state(index, state)
        core.predictor.bit.evict(address)
        second[i] = core.execute_branch(process, address, taken).latency
    return LatencySamples(first=first, second=second)


def timing_error_rate(
    timing: TimingModel,
    rng: np.random.Generator,
    *,
    n_measurements: int,
    measurement: int,
    trials: int = 2_000,
    taken: bool = True,
) -> float:
    """Figure 8: detection error vs. number of averaged measurements.

    Per the paper: collect hit latencies ``H`` and miss latencies ``M``
    for the chosen execution (1st = cold, 2nd = warm); a detection error
    occurs when the averaged hit latency is not below the averaged miss
    latency.  This operates directly on the latency channel (the
    :class:`TimingModel`), which is exactly what the measurement
    instrument sees; :func:`latency_experiment` validates that the full
    core path produces the same distributions.
    """
    if measurement not in (1, 2):
        raise ValueError("measurement is 1 (first/cold) or 2 (second/warm)")
    cold = measurement == 1
    hits = timing.sample_many(
        rng, trials * n_measurements, mispredicted=False, cold=cold, taken=taken
    ).reshape(trials, n_measurements)
    misses = timing.sample_many(
        rng, trials * n_measurements, mispredicted=True, cold=cold, taken=taken
    ).reshape(trials, n_measurements)
    errors = hits.mean(axis=1) >= misses.mean(axis=1)
    return float(errors.mean())


def probe_state_latencies(
    core: PhysicalCore,
    process: Process,
    address: int,
    *,
    n: int = 2_000,
) -> Dict[str, Dict[State, Tuple[float, float, float, float]]]:
    """Figure 9: probe latencies as a function of the primed PHT state.

    For each architectural state and each probe variant (two not-taken
    branches / two taken branches), returns
    ``(mean_first, std_first, mean_second, std_second)`` of the two probe
    executions' latencies.  Keys of the outer dict: ``"NN"`` and ``"TT"``.
    """
    pht = core.predictor.bimodal.pht
    index = core.predictor.bimodal.index(address)
    results: Dict[str, Dict[State, Tuple[float, float, float, float]]] = {}
    for label, outcome in (("NN", False), ("TT", True)):
        per_state: Dict[State, Tuple[float, float, float, float]] = {}
        for state in State:
            first = np.empty(n, dtype=np.int64)
            second = np.empty(n, dtype=np.int64)
            for i in range(n):
                pht.set_state(index, state)
                core.predictor.bit.evict(address)
                # Warm probes: the attack always measures warm branches
                # (the spy's probe code ran moments earlier).
                core.icache.fetch(address)
                first[i] = core.execute_branch(process, address, outcome).latency
                core.predictor.bit.evict(address)
                second[i] = core.execute_branch(process, address, outcome).latency
            per_state[state] = (
                float(first.mean()),
                float(first.std()),
                float(second.mean()),
                float(second.std()),
            )
        results[label] = per_state
    return results


@dataclass(frozen=True)
class TimingCalibration:
    """Hit/miss latency decision threshold for timer-based probing."""

    hit_mean: float
    miss_mean: float
    threshold: float

    def is_miss(self, latency: int) -> bool:
        """Classify one warm probe latency as a misprediction."""
        return latency >= self.threshold


def calibrate_timing(
    core: PhysicalCore,
    process: Process,
    *,
    scratch_address: int = 0x7_0000_0001,
    n: int = 3_000,
) -> TimingCalibration:
    """Learn the hit/miss decision threshold on a scratch branch.

    The spy calibrates on its *own* branch (whose outcome it controls) —
    an entirely attacker-legal pre-attack step.  Uses warm (second)
    executions, the only ones the attack relies on (§8).
    """
    hit = latency_experiment(
        core, process, scratch_address, n=n, taken=True, correct=True
    ).second
    miss = latency_experiment(
        core, process, scratch_address, n=n, taken=True, correct=False
    ).second
    hit_mean = float(hit.mean())
    miss_mean = float(miss.mean())
    return TimingCalibration(
        hit_mean=hit_mean,
        miss_mean=miss_mean,
        threshold=(hit_mean + miss_mean) / 2.0,
    )
