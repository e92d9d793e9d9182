"""Outside-in span tracing: time calls into the program's layers.

Nothing under ``src/`` is edited.  :class:`SpanRecorder` replaces a
layer's public function or method with a timing wrapper for the life of
a ``with recorder.installed():`` block and puts the original back
on exit.  A function is replaced in *every* loaded module that binds it
(``from x import f`` copies the reference), so calls reach the wrapper
whichever module they come from.

Each wrapped call becomes one span ``(layer, thread, depth, start,
end, self)``.  Self time is the span's duration minus the time of the
spans it directly encloses in the same thread; spans in other threads
(worker threads, HTTP handler threads) never subtract, so per-layer
self times are per-thread busy time and may sum past the wall clock
when threads overlap.  The spans stay in memory and are written out
once, at the end (:meth:`SpanRecorder.write_jsonl`).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: Span tuple fields, in order (also the JSONL record keys).
SPAN_FIELDS = ("layer", "thread", "depth", "start", "end", "self_s")

#: ``(layer, "module:attribute.path")`` of every wrapped entry point.
#: A layer may list several targets (both aggregate classes share
#: ``aggregate.*``).  The transport client is handled separately, since
#: its layer name depends on the endpoint argument.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("kernels.summarize_block", "repro.kernels.dispatch:summarize_block"),
    ("kernels.read_levels_ids", "repro.kernels.dispatch:read_levels_ids"),
    ("kernels.fold_ids", "repro.kernels.dispatch:fold_ids"),
    ("kernels.reduce_ids", "repro.kernels.dispatch:reduce_ids"),
    ("kernels.read_levels_maps", "repro.kernels.dispatch:read_levels_maps"),
    ("manycore.map", "repro.core.manycore:ManycoreCampaignPool.map"),
    ("randomizer.compile", "repro.core.randomizer:RandomizationBlock.compile"),
    ("randomizer.generate", "repro.core.randomizer:RandomizationBlock.generate"),
    ("calibration.stability_experiment",
     "repro.core.calibration:stability_experiment"),
    ("calibration.draw_trial_plan", "repro.core.calibration:draw_trial_plan"),
    ("calibration.assess_block_batch",
     "repro.core.calibration:assess_block_batch"),
    ("calibration.assess_block", "repro.core.calibration:assess_block"),
    ("calibration.decode", "repro.core.calibration:BlockAssessment.decoded"),
    ("service.run_shard", "repro.service.campaign:run_shard"),
    ("service.run_trial", "repro.service.campaign:run_trial"),
    ("aggregate.add_trial", "repro.service.aggregate:CampaignAggregate.add_trial"),
    ("aggregate.add_trial",
     "repro.service.aggregate:RecordListAggregate.add_trial"),
    ("aggregate.merge", "repro.service.aggregate:CampaignAggregate.merge"),
    ("aggregate.merge", "repro.service.aggregate:RecordListAggregate.merge"),
    ("aggregate.to_state", "repro.service.aggregate:CampaignAggregate.to_state"),
    ("aggregate.to_state",
     "repro.service.aggregate:RecordListAggregate.to_state"),
    ("aggregate.from_state",
     "repro.service.aggregate:CampaignAggregate.from_state"),
    ("aggregate.from_state",
     "repro.service.aggregate:RecordListAggregate.from_state"),
    ("store.get", "repro.store:ContentStore.get"),
    ("store.put", "repro.store:ContentStore.put"),
    ("checkpoint.save_campaign", "repro.service.scheduler:save_campaign"),
    ("transport.digest", "repro.service.transport:aggregate_state_digest"),
    ("coordinator.handle", "repro.service.coordinator:Coordinator.handle"),
    ("worker.run_worker", "repro.service.worker:run_worker"),
    ("scheduler.submit", "repro.service.scheduler:CampaignService.submit"),
    ("scheduler.run_wave", "repro.service.scheduler:CampaignService.run_wave"),
    ("parallel.pool.map", "repro.parallel.pool:TrialPool.map"),
    ("fuzz.run_fuzz", "repro.fuzz.campaign:run_fuzz"),
    ("fuzz.plan_generation", "repro.fuzz.campaign:plan_generation"),
    ("fuzz.oracle_run", "repro.fuzz.oracle:PresetOracle.run"),
    ("fuzz.infer_observe", "repro.fuzz.infer:HypothesisLattice.observe"),
)

#: Layers whose argument and result arrays are summed into ``.bytes``.
BYTE_LAYERS = frozenset(
    layer for layer, _ in LAYERS if layer.startswith("kernels.")
)

#: Span layer of a benchmark unit (the harness itself, not a layer).
UNIT_LAYER = "harness.unit"


def _array_bytes(values: Iterable[Any]) -> int:
    total = 0
    for value in values:
        if isinstance(value, (tuple, list)):
            total += _array_bytes(value)
        else:
            total += int(getattr(value, "nbytes", 0))
    return total


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute)`` for a ``module:path`` target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, int, float, float, float]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.turnarounds: List[float] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time the enclosed block as one span of ``layer``."""
        stack = self._stack()
        depth = len(stack)
        children = [0.0]
        stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            record = (
                layer, threading.get_ident(), depth, start, end,
                duration - children[0],
            )
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        recorder = self
        with_bytes = layer in BYTE_LAYERS

        def wrapper(*args, **kwargs):
            with recorder.span(layer):
                result = fn(*args, **kwargs)
            if with_bytes:
                moved = _array_bytes(args) + _array_bytes(kwargs.values())
                moved += _array_bytes((result,))
                with recorder._lock:
                    recorder.bytes[layer] += moved
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _wrap_transport_call(self, fn: Callable) -> Callable:
        """``TransportClient.call``: one layer per endpoint, plus the
        claim-to-upload shard turnaround and empty-claim count."""
        recorder = self
        local = self._local

        def call(client, endpoint, payload):
            start = time.perf_counter()
            with recorder.span(f"transport.{endpoint}"):
                reply = fn(client, endpoint, payload)
            end = time.perf_counter()
            if endpoint == "claim":
                if isinstance(reply, dict) and reply.get("work") is None:
                    recorder.count("leases.claim_empty")
                else:
                    local.claimed_at = start
            elif endpoint == "upload":
                claimed_at = getattr(local, "claimed_at", None)
                if claimed_at is not None:
                    with recorder._lock:
                        recorder.turnarounds.append(end - claimed_at)
                    local.claimed_at = None
            return reply

        call.__wrapped__ = fn
        return call

    def _wrap_transport_post(self, fn: Callable) -> Callable:
        """``TransportClient._post``: counts wire bytes only (untimed)."""
        recorder = self

        def post(client, endpoint, body):
            reply = fn(client, endpoint, body)
            with recorder._lock:
                recorder.bytes[f"transport.{endpoint}"] += len(body) + len(
                    reply or b""
                )
            return reply

        post.__wrapped__ = fn
        return post

    # -- install / uninstall ------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every :data:`LAYERS` target for the duration of the block."""
        from repro.service.transport import TransportClient

        undo: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, raw: Any, new: Any) -> None:
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)

        try:
            for layer, target in LAYERS:
                owner, attr, raw = _resolve(target)
                if isinstance(raw, (classmethod, staticmethod)):
                    patch(owner, attr, raw,
                          type(raw)(self._wrap(layer, raw.__func__)))
                elif isinstance(owner, type):
                    patch(owner, attr, raw, self._wrap(layer, raw))
                else:
                    wrapped = self._wrap(layer, raw)
                    for module in list(sys.modules.values()):
                        if getattr(module, attr, None) is raw:
                            patch(module, attr, raw, wrapped)
            patch(TransportClient, "call", TransportClient.call,
                  self._wrap_transport_call(TransportClient.call))
            patch(TransportClient, "_post", TransportClient._post,
                  self._wrap_transport_post(TransportClient._post))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- reduction ----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "bytes"}}`` over every span."""
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "bytes": 0}
        )
        for layer, _, _, _, _, self_s in self.spans:
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += self_s
        for layer, moved in self.bytes.items():
            totals[layer]["bytes"] += moved
        return dict(totals)

    def unattributed_share(self, main_thread: int) -> float:
        """Share of unit wall time that no layer span covers.

        A unit span in ``main_thread`` is covered by the union of its
        direct children there and of every top-level span of any other
        thread (worker and HTTP handler threads) that overlaps it.
        """
        units = [s for s in self.spans if s[0] == UNIT_LAYER]
        covering = sorted(
            (s[3], s[4])
            for s in self.spans
            if s[0] != UNIT_LAYER
            and ((s[1] == main_thread and s[2] == 1)
                 or (s[1] != main_thread and s[2] == 0))
        )
        total = uncovered = 0.0
        for _, _, _, start, end, _ in units:
            total += end - start
            covered, cursor = 0.0, start
            for lo, hi in covering:
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            uncovered += (end - start) - covered
        return uncovered / total if total > 0 else 0.0

    def turnaround_p50(self) -> float:
        return statistics.median(self.turnarounds) if self.turnarounds else 0.0

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, record))) + "\n")


def layer_field(
    totals: Dict[str, Dict[str, float]], layer: str, field: str
) -> float:
    """One field of :meth:`SpanRecorder.layer_totals`; 0 if never called."""
    return float(totals.get(layer, {}).get(field, 0))
