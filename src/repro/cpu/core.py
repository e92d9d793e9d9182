"""Physical core: shared BPU + execution of branch instructions.

This is the stage on which the whole attack plays out.  One
:class:`PhysicalCore` owns a single :class:`~repro.bpu.hybrid.HybridPredictor`
(the BPU is shared at the physical-core level, paper §3), a cycle clock,
a timing model, an instruction cache and a per-process performance
counter file.  Victim, spy and noise processes all execute their branches
through :meth:`PhysicalCore.execute_branch`; whatever they do to the
shared predictor state is visible to everyone else — that is the channel.

Mitigations from :mod:`repro.mitigations` hook into execution here: index
randomisation and partitioning change which PHT entry a process touches,
static-prediction protection bypasses the BPU entirely for marked
branches, the stochastic-FSM defense corrupts training updates, and the
noisy counter/timer defenses fuzz what the attacker reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.bpu.hybrid import HybridPredictor, Prediction
from repro.bpu.presets import PredictorConfig
from repro.cpu.clock import CycleClock
from repro.cpu.counters import CounterKind, PerformanceCounters
from repro.cpu.icache import InstructionCache
from repro.cpu.process import Process
from repro.cpu.timing import TimingModel
from repro.cpu.tsc import TimestampCounter
from repro.mitigations.base import Mitigation, MitigationStack
from repro.obs import trace as obs

__all__ = ["BranchExecution", "PhysicalCore"]


@dataclass(frozen=True)
class BranchExecution:
    """Everything observable (and some things not) about one branch.

    ``latency`` is the *observable* rdtscp-bracketed measurement in cycles
    (already passed through any noisy-timer mitigation); attacker code
    must treat it as its timing channel.  ``mispredicted`` is ground truth
    that an attacker may only learn via its own performance counters.
    """

    pid: int
    address: int
    taken: bool
    #: Final predicted direction.
    predicted_taken: bool
    #: True iff prediction matched the actual outcome.
    hit: bool
    #: The full prediction record, or None for statically handled
    #: (mitigation-protected) branches.
    prediction: Optional[Prediction]
    #: Whether the instruction fetch missed the i-cache (first execution).
    cold_fetch: bool
    #: Observable latency in cycles.
    latency: int
    #: Cycle the branch started executing.
    start_cycle: int
    #: True when the static-prediction mitigation handled this branch.
    static: bool = False
    #: True when a taken branch had no (or a wrong) BTB target — the
    #: front-end redirect the BTB-based prior-work attacks time.
    btb_miss: bool = False

    @property
    def mispredicted(self) -> bool:
        """Convenience inverse of :attr:`hit`."""
        return not self.hit


class PhysicalCore:
    """One physical core with two SMT contexts sharing a BPU."""

    def __init__(
        self,
        config: PredictorConfig,
        *,
        timing: Optional[TimingModel] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Build a core from a microarchitecture preset.

        Exactly one of ``rng``/``seed`` may be given; with neither, a
        fresh nondeterministic generator is used (tests always pass a
        seed).
        """
        if rng is not None and seed is not None:
            raise ValueError("pass either rng or seed, not both")
        self.config = config
        self.predictor: HybridPredictor = config.build()
        self.timing = timing or TimingModel()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.clock = CycleClock()
        self.tsc = TimestampCounter(self.clock)
        self.icache = InstructionCache()
        self.mitigations = MitigationStack()
        self._counters: Dict[int, PerformanceCounters] = {}

    # -- process / counter management ---------------------------------------

    def counters_for(self, process: Process) -> PerformanceCounters:
        """The raw (simulator-side) counter file of ``process``."""
        if process.pid not in self._counters:
            self._counters[process.pid] = PerformanceCounters()
        return self._counters[process.pid]

    def read_counter(self, process: Process, kind: CounterKind) -> int:
        """Attacker-side counter read: exact unless a noisy-counter
        mitigation is installed."""
        value = self.counters_for(process).read(kind)
        perturbed = self.mitigations.perturb_counter(self.rng, value)
        tracer = obs.TRACER
        if tracer is not None and perturbed != value:
            tracer.emit(
                "mitigation",
                "counter_perturbed",
                cycle=self.clock.now,
                pid=process.pid,
                kind=kind.name,
                raw=int(value),
                observed=int(perturbed),
            )
        return perturbed

    def install_mitigation(self, mitigation: Mitigation) -> None:
        """Activate a §10 defense on this core."""
        self.mitigations.install(mitigation)

    # -- branch execution -----------------------------------------------------

    #: Taken branches without an explicit target jump here-relative; any
    #: fixed displacement works, the BTB only needs *a* target to cache.
    DEFAULT_TARGET_OFFSET = 0x40

    def execute_branch(
        self,
        process: Process,
        address: int,
        taken: bool,
        target: Optional[int] = None,
    ) -> BranchExecution:
        """Execute one conditional branch of ``process`` at ``address``.

        Runs the full predict → resolve → train pipeline against the
        shared BPU, charges the modelled latency to the clock, and
        updates the process's performance counters.  ``target`` is the
        branch's taken-target; conditional branches have a static target,
        so a deterministic default is supplied when omitted.
        """
        address = int(address)
        taken = bool(taken)
        if target is None:
            target = address + self.DEFAULT_TARGET_OFFSET
        start_cycle = self.clock.now
        cold_fetch = not self.icache.fetch(address)

        btb_miss = False
        train_outcome = taken
        if self.mitigations.suppresses_prediction(process, address):
            # §10.2 "Removing prediction for sensitive branches": static
            # not-taken prediction, no BPU state is read or written.
            predicted = False
            hit = predicted == taken
            prediction: Optional[Prediction] = None
            static = True
            btb_miss = taken  # unpredicted target: always a late redirect
        else:
            key = self.mitigations.pht_key(process)
            partition = self.mitigations.partition(process)
            prediction = self.predictor.predict(address, key, partition)
            predicted = prediction.taken
            hit = predicted == taken
            # A taken branch pays the late-redirect cost when the BTB
            # held no (or the wrong) target for it.
            btb_miss = taken and prediction.target != target
            # The stochastic-FSM defense may train with a corrupted
            # outcome; the *architectural* outcome (and thus hit/miss,
            # GHR ordering, BTB allocation) still uses the true one, so
            # only PHT contents become unreliable for the attacker.
            train_outcome = self.mitigations.update_outcome(self.rng, taken)
            self.predictor.update(
                address,
                taken,
                prediction,
                target=target,
                train_outcome=train_outcome,
            )
            static = False

        latency = self.timing.sample(
            self.rng,
            mispredicted=not hit,
            cold=cold_fetch,
            taken=taken,
            btb_miss=btb_miss,
        )
        self.clock.advance(latency)
        observable_latency = self.mitigations.perturb_timing(self.rng, latency)

        counters = self.counters_for(process)
        counters.increment(CounterKind.BRANCHES)
        if not hit:
            counters.increment(CounterKind.BRANCH_MISSES)
        counters.increment(CounterKind.CYCLES, latency)

        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "branch",
                "execute",
                cycle=start_cycle,
                pid=process.pid,
                address=address,
                taken=taken,
                predicted=predicted,
                mispredicted=not hit,
                static=static,
                cold=cold_fetch,
                btb_miss=btb_miss,
                dur=latency,
            )
            if static:
                tracer.emit(
                    "mitigation",
                    "static_prediction",
                    cycle=start_cycle,
                    pid=process.pid,
                    address=address,
                )
            elif train_outcome != taken:
                tracer.emit(
                    "mitigation",
                    "training_corrupted",
                    cycle=start_cycle,
                    pid=process.pid,
                    address=address,
                    taken=taken,
                    trained=train_outcome,
                )
            metrics = tracer.metrics
            if metrics is not None:
                metrics.counter(
                    "repro_branches_total",
                    "conditional branches executed",
                    labels=("pid",),
                ).inc(pid=process.pid)
                if not hit:
                    metrics.counter(
                        "repro_branch_misses_total",
                        "mispredicted conditional branches",
                        labels=("pid",),
                    ).inc(pid=process.pid)

        return BranchExecution(
            pid=process.pid,
            address=address,
            taken=taken,
            predicted_taken=predicted,
            hit=hit,
            prediction=prediction,
            cold_fetch=cold_fetch,
            latency=observable_latency,
            start_cycle=start_cycle,
            static=static,
            btb_miss=btb_miss,
        )

    # -- checkpointing ----------------------------------------------------------

    def checkpoint(self) -> dict:
        """Deep copy of all microarchitectural state.

        Used by experiments that need to probe many addresses from one
        prepared state (the §6.3 PHT scan probes destructively, so each
        probe runs against a restored copy).  Does not capture the RNG:
        noise stays fresh across restores, as it would across repeated
        physical runs.

        The checkpoint is a tree of plain copies (arrays, tuples of
        arrays, dicts, integers); :meth:`restore` copies them back, so
        one checkpoint can be restored any number of times, into this
        core or into another core of the same config.
        """
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "snapshot",
                "checkpoint",
                cycle=self.clock.now,
                processes=len(self._counters),
            )
        return {
            "predictor": self.predictor.snapshot(),
            "icache": self.icache.snapshot(),
            "clock": self.clock.snapshot(),
            "counters": {
                pid: counters.snapshot()
                for pid, counters in self._counters.items()
            },
        }

    def restore(self, checkpoint: dict) -> None:
        """Restore state captured by :meth:`checkpoint`.

        A true rollback: counter files of processes first seen *after*
        the checkpoint are dropped, so nothing accumulated since leaks
        through (a fresh zeroed file is allocated on next use).
        """
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit("snapshot", "restore", cycle=self.clock.now)
        self.predictor.restore(checkpoint["predictor"])
        self.icache.restore(checkpoint["icache"])
        self.clock.restore(checkpoint["clock"])
        for pid in list(self._counters):
            if pid not in checkpoint["counters"]:
                del self._counters[pid]
        for pid, snapshot in checkpoint["counters"].items():
            if pid not in self._counters:
                self._counters[pid] = PerformanceCounters()
            self._counters[pid].restore(snapshot)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PhysicalCore(config={self.config.name!r}, cycle={self.clock.now})"
