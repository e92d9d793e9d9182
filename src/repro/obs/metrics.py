"""Metrics registry: labelled counters, gauges and histograms.

A minimal in-process metrics facility in the Prometheus idiom, sized for
the simulator: experiments register *families* (a metric name plus a
fixed tuple of label names) and record against concrete label values.
Snapshots are plain nested data, two snapshots diff into the deltas an
experiment produced, and :meth:`MetricsRegistry.render_text` renders the
exposition-format-style text the CLI prints after a ``--metrics`` run.

Label hygiene is enforced at the family boundary: re-registering a name
with a different type or label set raises, and every record call must
supply exactly the declared labels — so a counter can never silently
fork into incompatible series (``tests/test_obs.py`` pins this).
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (powers of four cover cycle
#: latencies through pool chunk times in seconds when scaled).
DEFAULT_BUCKETS = (
    0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _check_name(name: str, what: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid {what} name {name!r}")
    return name


class _Family:
    """Shared plumbing: a named metric with a fixed label-name tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str]) -> None:
        self.name = _check_name(name, "metric")
        self.help = help
        self.label_names = tuple(_check_name(l, "label") for l in labels)
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"duplicate label names in {name!r}")
        # Record calls are read-modify-writes and may come from several
        # threads (the manycore engine dispatches kernels off-thread).
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        """Validate and canonicalise one record call's labels."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{list(self.label_names)}, got {sorted(labels)}"
            )
        return tuple((name, str(labels[name])) for name in self.label_names)

    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        return (self.kind, self.label_names)


class Counter(_Family):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._values)


class Gauge(_Family):
    """A value that can go anywhere, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = value

    def add(self, amount: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)

    def series(self) -> Dict[LabelKey, float]:
        return dict(self._values)


class Histogram(_Family):
    """Cumulative-bucket histogram with sum/count/min/max per series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds
        self._series: Dict[LabelKey, Dict[str, object]] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                    "min": value,
                    "max": value,
                }
                self._series[key] = series
            counts: List[int] = series["counts"]  # type: ignore[assignment]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1  # +Inf bucket
            series["sum"] += value  # type: ignore[operator]
            series["count"] += 1  # type: ignore[operator]
            series["min"] = min(series["min"], value)  # type: ignore[type-var]
            series["max"] = max(series["max"], value)  # type: ignore[type-var]

    def series(self) -> Dict[LabelKey, Dict[str, object]]:
        return {
            key: {
                "counts": list(data["counts"]),  # type: ignore[arg-type]
                "sum": data["sum"],
                "count": data["count"],
                "min": data["min"],
                "max": data["max"],
            }
            for key, data in self._series.items()
        }


class MetricsRegistry:
    """A namespace of metric families with get-or-create registration."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        # Two threads registering one name must get one family.
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, labels: Sequence[str], **kw):
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                family = cls(name, help, labels, **kw)
                self._families[name] = family
                return family
        if existing.signature() != (cls.kind, tuple(labels)):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{existing.kind} with labels "
                f"{list(existing.label_names)}"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    # -- snapshot / diff ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-data copy of every family's current series."""
        out: Dict[str, Dict] = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "labels": list(family.label_names),
                "series": {
                    self._render_labels(key): value
                    for key, value in family.series().items()
                },
            }
        return out

    @staticmethod
    def diff(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, Dict]:
        """Per-series deltas of counters/gauges between two snapshots.

        Histograms diff on ``count``/``sum`` only (bucket deltas rarely
        matter for the "what did this experiment cost" question).
        """
        out: Dict[str, Dict] = {}
        for name, data in after.items():
            prior = before.get(name, {"series": {}})
            series_delta: Dict[str, object] = {}
            for labels, value in data["series"].items():
                prev = prior["series"].get(labels)
                if data["kind"] == "histogram":
                    prev = prev or {"count": 0, "sum": 0.0}
                    series_delta[labels] = {
                        "count": value["count"] - prev["count"],
                        "sum": value["sum"] - prev["sum"],
                    }
                else:
                    series_delta[labels] = value - (prev or 0)
            out[name] = {"kind": data["kind"], "series": series_delta}
        return out

    @staticmethod
    def _render_labels(key: LabelKey) -> str:
        if not key:
            return ""
        return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"

    def render_text(self) -> str:
        """Exposition-format text dump of every series.

        Real scrapers enforce two details the first cut of this method
        missed: every histogram must expose a cumulative ``_bucket``
        series ending in ``le="+Inf"`` (whose value equals ``_count``),
        and the payload must end with a newline.
        """
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            series = family.series()
            if not series:
                continue
            for key in sorted(series):
                label_text = self._render_labels(key)
                value = series[key]
                if family.kind == "histogram":
                    bounds = [f"{b:.6g}" for b in family.buckets] + ["+Inf"]
                    cumulative = 0
                    for bound, count in zip(bounds, value["counts"]):
                        cumulative += count
                        bucket_labels = self._render_labels(
                            tuple(key) + (("le", bound),)
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_count{label_text} {value['count']}"
                    )
                    lines.append(
                        f"{family.name}_sum{label_text} {value['sum']:.6g}"
                    )
                else:
                    lines.append(f"{family.name}{label_text} {value:.6g}")
        return "\n".join(lines) + "\n" if lines else ""
