"""``repro.obs`` — tracing, metrics and run-provenance observability.

The attack in the paper is read out entirely through observation
channels; this subsystem gives the *simulator* the same courtesy.  Four
parts:

* :mod:`repro.obs.trace` — a process-wide :class:`~repro.obs.trace.Tracer`
  with typed events, category filtering, a bounded ring buffer and a
  zero-overhead disabled path (hot layers gate on a single
  ``obs.TRACER is not None`` test);
* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms with
  snapshot/diff and a text renderer (scraped from ``repro serve``'s
  ``/metrics``);
* :mod:`repro.obs.manifest` — :class:`~repro.obs.manifest.RunManifest`
  provenance records (preset, seeds, env knobs, git SHA, wall time,
  result digests) written next to every benchmark result;
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` output, so
  a calibration run or covert-channel transmit opens in Perfetto.

Quick start::

    from repro import obs

    with obs.tracing(collect_metrics=True) as tracer:
        channel.transmit(bits)
    obs.write_jsonl(tracer, "transmit.jsonl")
    obs.write_chrome_trace(tracer.events(), "transmit.chrome.json")
    print(tracer.metrics.render_text())

See MODELING.md §9 for the event taxonomy and overhead budget.
"""

from repro.obs.export import (
    read_jsonl,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.manifest import RunManifest, git_revision, sha256_text
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    CATEGORIES,
    TraceEvent,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    record_resilience_event,
    record_scalar_fallback,
    reset_resilience_events,
    reset_scalar_fallbacks,
    resilience_event_counts,
    scalar_fallback_counts,
    tracing,
)

__all__ = [
    "CATEGORIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunManifest",
    "TraceEvent",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "git_revision",
    "read_jsonl",
    "record_resilience_event",
    "record_scalar_fallback",
    "reset_resilience_events",
    "reset_scalar_fallbacks",
    "resilience_event_counts",
    "scalar_fallback_counts",
    "sha256_text",
    "summarize",
    "to_chrome_trace",
    "tracing",
    "write_chrome_trace",
    "write_jsonl",
]
