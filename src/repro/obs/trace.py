"""Structured tracing: typed events in a bounded ring buffer.

The paper's attack reads the machine through narrow observation channels
(misprediction counters §7, ``rdtscp`` timing §8); this module gives the
*simulator* an equally principled readout.  Instrumented layers — branch
execution, predictor training, probe classification, checkpoint/restore,
pool dispatch, mitigation hooks, engine-fallback decisions — emit typed
:class:`TraceEvent` records into a process-wide :class:`Tracer`.

Zero-overhead disabled path
---------------------------
The module-level singleton :data:`TRACER` is ``None`` unless tracing was
explicitly enabled.  Hot paths read it through the module object and
gate on a single truthiness test::

    from repro.obs import trace as obs

    tracer = obs.TRACER
    if tracer is not None:
        tracer.emit("branch", "execute", cycle=..., pid=..., ...)

so a disabled run pays two attribute reads and one ``is not None`` per
instrumented operation — nothing else.
``tests/test_obs.py::TestDisabledTracerCost`` pins that bound exactly:
with tracing off, a plan-mode calibration trial and a batch PHT scan
make zero calls into ``repro.obs``.  ``perfbench``'s untraced workloads
measure the hot paths end to end with tracing off.

Determinism
-----------
An enabled tracer only *reads* simulator state and appends to a Python
ring buffer: it never draws from any RNG and never writes predictor
state, so a traced run is bit-identical to an untraced one
(``tests/test_obs.py`` pins this differentially across all presets).

Events are bounded by a ring buffer (``collections.deque`` with
``maxlen``); once full, the oldest events fall off and
:attr:`Tracer.dropped` counts the loss — tracing can be left on for a
full fig4-scale sweep without unbounded memory growth.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CATEGORIES",
    "TraceEvent",
    "Tracer",
    "TRACER",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "tracing",
    "record_scalar_fallback",
    "scalar_fallback_counts",
    "reset_scalar_fallbacks",
    "record_resilience_event",
    "resilience_event_counts",
    "reset_resilience_events",
]

#: Event taxonomy (see MODELING.md §9 for what each layer emits).
CATEGORIES = frozenset(
    {
        "branch",      # one conditional branch through the core pipeline
        "bpu",         # PHT / selector state transitions during training
        "probe",       # a stage-3 probe classified to an H/M pattern
        "calibration", # §6.2 block assessments and search decisions
        "covert",      # covert-channel bits sent/decoded
        "snapshot",    # checkpoint/restore, journal replay vs full copy
        "pool",        # TrialPool dispatch and per-chunk latency
        "mitigation",  # a §10 defense hook actually altered something
        "fallback",    # a vectorised engine fell back to the scalar path
        "resilience",  # fault recovery: retries, degradation, rollbacks
    }
)

#: Default ring-buffer capacity (events).
DEFAULT_CAPACITY = 65_536


class TraceEvent(NamedTuple):
    """One structured trace record.

    ``cycle`` is simulated time (the core's cycle clock) where the
    emitter has one, else ``None``; ``seq`` is the tracer's own
    monotonic sequence number and orders events globally.
    """

    seq: int
    cycle: Optional[int]
    category: str
    name: str
    level: str
    pid: Optional[int]
    args: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (what the JSONL exporter writes)."""
        return {
            "seq": self.seq,
            "cycle": self.cycle,
            "cat": self.category,
            "name": self.name,
            "level": self.level,
            "pid": self.pid,
            "args": self.args,
        }


class Tracer:
    """Process-wide event sink with category filtering and a ring buffer.

    Parameters
    ----------
    capacity:
        Ring-buffer size in events.  ``0`` keeps no events (metrics-only
        sessions still want the emit path for counters).
    categories:
        Iterable of category names to record, or ``None`` for all of
        :data:`CATEGORIES`.  Unknown names raise ``ValueError`` so typos
        cannot silently disable instrumentation.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` rode along
        by the instrumented layers (branch counters, fallback counters,
        pool latencies).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        categories: Optional[Iterable[str]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if categories is None:
            wanted: Set[str] = set(CATEGORIES)
        else:
            wanted = set(categories)
            unknown = wanted - CATEGORIES
            if unknown:
                raise ValueError(
                    f"unknown trace categories: {sorted(unknown)}; "
                    f"known: {sorted(CATEGORIES)}"
                )
        self.capacity = int(capacity)
        self.categories = wanted
        self.metrics = metrics
        self._buffer: deque = deque(maxlen=self.capacity)
        self._seq = 0
        self._emitted = 0
        self._counts: Dict[str, int] = {}

    # -- emission -----------------------------------------------------------

    def wants(self, category: str) -> bool:
        """Whether events of ``category`` would be recorded."""
        return category in self.categories

    def emit(
        self,
        category: str,
        name: str,
        *,
        cycle: Optional[int] = None,
        pid: Optional[int] = None,
        level: str = "info",
        **args: Any,
    ) -> None:
        """Record one event (dropped silently if the category is filtered)."""
        if category not in self.categories:
            return
        event = TraceEvent(self._seq, cycle, category, name, level, pid, args)
        self._seq += 1
        self._emitted += 1
        self._counts[category] = self._counts.get(category, 0) + 1
        self._buffer.append(event)

    # -- introspection ------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events accepted (including any since dropped)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events lost to the ring buffer's bound."""
        return self._emitted - len(self._buffer)

    @property
    def category_counts(self) -> Dict[str, int]:
        """Accepted-event count per category (copy)."""
        return dict(self._counts)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (copy)."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        """Drop retained events and reset the drop accounting (the
        sequence number keeps running so event identity stays unique)."""
        self._buffer.clear()
        self._emitted = 0
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(capacity={self.capacity}, events={len(self._buffer)}, "
            f"dropped={self.dropped})"
        )


#: The process-wide tracer, or ``None`` when tracing is disabled.  Hot
#: paths must read this through the module (``obs.TRACER``) so
#: :func:`enable_tracing` / :func:`disable_tracing` take effect.
TRACER: Optional[Tracer] = None


def enable_tracing(
    capacity: int = DEFAULT_CAPACITY,
    categories: Optional[Iterable[str]] = None,
    *,
    metrics: Optional[MetricsRegistry] = None,
    collect_metrics: bool = False,
) -> Tracer:
    """Install (and return) the process-wide tracer.

    ``collect_metrics=True`` attaches a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` when none was passed.
    Re-enabling replaces any previous tracer.
    """
    global TRACER
    if metrics is None and collect_metrics:
        metrics = MetricsRegistry()
    TRACER = Tracer(capacity, categories, metrics)
    return TRACER


def disable_tracing() -> Optional[Tracer]:
    """Uninstall the process-wide tracer; returns it for post-mortem use."""
    global TRACER
    tracer, TRACER = TRACER, None
    return tracer


def get_tracer() -> Optional[Tracer]:
    """The active process-wide tracer, or ``None``."""
    return TRACER


@contextlib.contextmanager
def tracing(
    capacity: int = DEFAULT_CAPACITY,
    categories: Optional[Iterable[str]] = None,
    *,
    metrics: Optional[MetricsRegistry] = None,
    collect_metrics: bool = False,
):
    """Context manager: trace the body, restoring the previous tracer.

    Yields the installed :class:`Tracer` (read events off it before the
    block exits, or keep the reference — it survives deactivation).
    """
    global TRACER
    previous = TRACER
    tracer = enable_tracing(
        capacity, categories, metrics=metrics, collect_metrics=collect_metrics
    )
    try:
        yield tracer
    finally:
        TRACER = previous


# -- scalar-engine fallback accounting --------------------------------------
#
# The vectorised engines (the §6.3 batch-probe scan, the §6.2 batch
# calibration trial) silently fall back to the scalar reference whenever
# an observation-perturbing mitigation or custom timing model makes them
# inexact.  That is correct — but a mitigation stack disabling the
# 10-250x fast paths should never be *invisible*, so fallbacks are always
# counted here (tracing on or off) and additionally emit a warning-level
# trace event plus a labelled metrics counter when observability is on.

_SCALAR_FALLBACKS: Dict[str, int] = {}


def record_scalar_fallback(engine: str, reason: str, n: int = 1) -> None:
    """Record that ``engine`` routed ``n`` operations to the scalar path."""
    _SCALAR_FALLBACKS[engine] = _SCALAR_FALLBACKS.get(engine, 0) + n
    tracer = TRACER
    if tracer is not None:
        tracer.emit(
            "fallback",
            "scalar_engine",
            level="warning",
            engine=engine,
            reason=reason,
            count=n,
        )
        if tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_scalar_fallbacks_total",
                "vectorised-engine operations routed to the scalar path",
                labels=("engine",),
            ).inc(n, engine=engine)


def scalar_fallback_counts() -> Dict[str, int]:
    """Cumulative scalar-fallback count per engine (copy)."""
    return dict(_SCALAR_FALLBACKS)


def reset_scalar_fallbacks() -> None:
    """Zero the cumulative fallback counters (tests/benches)."""
    _SCALAR_FALLBACKS.clear()


# -- resilience-event accounting ---------------------------------------------
#
# The supervised trial pool and the checkpoint store recover from worker
# crashes, hangs, corrupted result frames and torn checkpoint files
# without changing experiment results — which makes the *recovery itself*
# the only observable.  A campaign silently limping along on retries or
# serial degradation is a health problem the operator must be able to
# see, so every recovery action is always counted here (tracing on or
# off), and additionally emits a warning-level "resilience" trace event
# plus a labelled metrics counter when observability is enabled.

_RESILIENCE_EVENTS: Dict[str, int] = {}


def record_resilience_event(kind: str, detail: str = "", n: int = 1) -> None:
    """Record ``n`` fault-recovery actions of ``kind``.

    Kinds in use: ``worker_crash``, ``worker_hang``, ``chunk_corrupt``,
    ``chunk_retry``, ``degrade_serial``, ``checkpoint_rollback``,
    ``campaign_resume``, ``env_workers_invalid``.
    """
    _RESILIENCE_EVENTS[kind] = _RESILIENCE_EVENTS.get(kind, 0) + n
    tracer = TRACER
    if tracer is not None:
        tracer.emit(
            "resilience",
            kind,
            level="warning",
            detail=detail,
            count=n,
        )
        if tracer.metrics is not None:
            tracer.metrics.counter(
                "repro_resilience_events_total",
                "fault-recovery actions taken by the resilience subsystem",
                labels=("kind",),
            ).inc(n, kind=kind)


def resilience_event_counts() -> Dict[str, int]:
    """Cumulative fault-recovery count per kind (copy)."""
    return dict(_RESILIENCE_EVENTS)


def reset_resilience_events() -> None:
    """Zero the cumulative resilience counters (tests/benches)."""
    _RESILIENCE_EVENTS.clear()
