"""Trace exporters: JSONL on disk, Chrome ``trace_event`` for Perfetto.

Two output shapes:

* **JSONL** — one JSON object per line, headed by a ``trace-meta``
  record carrying the ring-buffer accounting.  This is the archival
  format the CLI's ``--trace`` flag writes and the ``repro trace``
  subcommand reads back.
* **Chrome trace** — the ``trace_event`` JSON-object format
  (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
  events with a duration (branch executions carry their modelled
  latency) become complete ``"ph": "X"`` slices, everything else becomes
  an instant ``"ph": "i"`` event.  Simulated cycles map to microseconds,
  so a covert-channel transmit or calibration run opens directly in
  Perfetto / ``chrome://tracing`` with stage structure visible on the
  timeline.

Events without a cycle timestamp (pool dispatch, resilience checkpoints)
are placed at the previous event's timestamp so file order is preserved.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.trace import TraceEvent, Tracer

__all__ = [
    "events_to_dicts",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "summarize",
]

EventLike = Union[TraceEvent, Dict[str, Any]]


def events_to_dicts(events: Iterable[EventLike]) -> List[Dict[str, Any]]:
    """Normalise a mixed event stream to plain dict records."""
    out = []
    for event in events:
        out.append(event.to_dict() if isinstance(event, TraceEvent) else event)
    return out


def write_jsonl(
    source: Union[Tracer, Sequence[EventLike]],
    path,
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a trace to ``path`` as JSON lines; returns the path.

    Accepts a :class:`Tracer` (its events plus drop accounting) or a
    plain event sequence.  The first line is a ``trace-meta`` record.
    """
    if isinstance(source, Tracer):
        events = events_to_dicts(source.events())
        header = {
            "type": "trace-meta",
            "events": len(events),
            "emitted": source.emitted,
            "dropped": source.dropped,
            "capacity": source.capacity,
            "categories": sorted(source.categories),
        }
    else:
        events = events_to_dicts(source)
        header = {
            "type": "trace-meta",
            "events": len(events),
            "emitted": len(events),
            "dropped": 0,
            "capacity": None,
            "categories": sorted({e["cat"] for e in events}),
        }
    header.update(meta or {})
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return path


def read_jsonl(path) -> tuple:
    """Read a JSONL trace; returns ``(meta, events)``.

    Tolerates a missing meta header (every line an event), so hand-built
    files summarise too.
    """
    meta: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "trace-meta":
                meta = record
            else:
                events.append(record)
    return meta, events


def to_chrome_trace(
    events: Iterable[EventLike], *, process_name: str = "repro"
) -> Dict[str, Any]:
    """Convert events to a Chrome ``trace_event`` JSON object.

    ``pid`` maps to the trace's *tid* (one track per simulated process)
    under a single Perfetto process; the simulated cycle count maps to
    microseconds.
    """
    records = events_to_dicts(events)
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    last_ts = 0
    for record in records:
        cycle = record.get("cycle")
        ts = last_ts if cycle is None else int(cycle)
        last_ts = ts
        args = dict(record.get("args") or {})
        args["seq"] = record.get("seq")
        args["level"] = record.get("level", "info")
        entry: Dict[str, Any] = {
            "name": f"{record['cat']}.{record['name']}",
            "cat": record["cat"],
            "ts": ts,
            "pid": 1,
            "tid": int(record.get("pid") or 0),
            "args": args,
        }
        duration = args.get("dur")
        if isinstance(duration, (int, float)) and duration > 0:
            entry["ph"] = "X"
            entry["dur"] = int(duration)
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Iterable[EventLike], path, *, process_name: str = "repro"
) -> Path:
    """Write the Chrome-trace JSON for ``events`` to ``path``."""
    path = Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(events, process_name=process_name))
    )
    return path


def summarize(
    events: Sequence[EventLike], meta: Optional[Dict[str, Any]] = None
) -> str:
    """Human-readable digest of a trace (the CLI's ``trace summary``)."""
    records = events_to_dicts(events)
    lines: List[str] = []
    meta = meta or {}
    total = len(records)
    lines.append(f"events retained : {total}")
    if meta:
        lines.append(
            f"emitted/dropped : {meta.get('emitted', total)}"
            f"/{meta.get('dropped', 0)} (capacity {meta.get('capacity')})"
        )
    cycles = [r["cycle"] for r in records if r.get("cycle") is not None]
    if cycles:
        lines.append(
            f"cycle span      : {min(cycles)} .. {max(cycles)} "
            f"({max(cycles) - min(cycles)} cycles)"
        )
    by_cat: Dict[str, int] = {}
    by_level: Dict[str, int] = {}
    for record in records:
        by_cat[record["cat"]] = by_cat.get(record["cat"], 0) + 1
        level = record.get("level", "info")
        by_level[level] = by_level.get(level, 0) + 1
    if by_cat:
        lines.append("per category    :")
        for cat in sorted(by_cat):
            lines.append(f"  {cat:<12} {by_cat[cat]}")
    warnings = [
        r for r in records if r.get("level") == "warning"
    ]
    if warnings:
        lines.append(f"warnings        : {len(warnings)}")
        for record in warnings[:10]:
            args = record.get("args") or {}
            detail = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
            lines.append(f"  {record['cat']}.{record['name']} ({detail})")
        if len(warnings) > 10:
            lines.append(f"  ... and {len(warnings) - 10} more")
    return "\n".join(lines)
