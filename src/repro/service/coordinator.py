"""The multi-host coordinator: leased shard dispatch over the wire.

``repro serve --port N`` runs this instead of the in-process scheduler:
the coordinator owns the service root (spool, results, checkpoints,
content store) and the :class:`~repro.service.leases.LeaseTable`, and
*workers own the compute* — pull-based ``repro worker --connect URL``
processes claim shard leases, run the trials, and upload exact
aggregates.  Nothing here executes a trial.

The robustness story is a layering of guarantees already proven
one-host:

* **durability** is the filesystem's, unchanged — job files, atomic
  result writes, per-campaign PR 5 checkpoints, the content-addressed
  store.  The lease table is deliberately *soft state*: a coordinator
  SIGKILL loses only the in-flight leases, and a restarted coordinator
  rebuilds every completed shard from checkpoints + store at
  :meth:`submit` time while workers' retries re-claim the rest;
* **liveness** is the lease table's — a worker SIGKILL just means its
  lease expires and the shard requeues (bounded by ``max_attempts``);
* **exactness** is the aggregate layer's — shard states merge
  associatively/commutatively, so *who* computed a shard, in *what*
  order uploads land, and *how often* a shard was recomputed cannot
  change the merged digest.  Uploads are verified
  (:func:`~repro.service.transport.aggregate_state_digest` recomputed
  server-side) and idempotent; a digest that disagrees with a recorded
  completion is quarantined to ``root/quarantine/`` and counted, never
  merged.

The campaign registry, fair share, submit-time recovery and the
record of an accepted shard are the
:class:`~repro.service.scheduler.CampaignBook`'s, shared with the
in-process scheduler: a claim leases ``book.pick(pending keys)``.  This
class keeps the lease table, upload verification and quarantine, and
the spool and result files.

See MODELING.md §15 for the protocol, state machine and failure matrix.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Optional

from repro import store as repro_store
from repro.ioutil import atomic_write_text
from repro.obs import trace as obs
from repro.service.campaign import CampaignSpec
from repro.service.leases import LeaseTable, publish_lease_metrics
from repro.service.scheduler import CampaignBook, CampaignState
from repro.service.server import (
    pending_jobs,
    service_dirs,
    submit_job,
    write_result,
    write_store_stats,
)
from repro.service.transport import (
    CoordinatorServer,
    aggregate_state_digest,
)

__all__ = ["Coordinator", "run_coordinator"]


class Coordinator:
    """Lease-dispatching campaign authority over one service root.

    Thread-safety: every public entry point (the HTTP handler's
    ``handle``, the serve loop's ``scan_spool``/``tick``) serialises on
    one re-entrant lock — the lease table and campaign states are only
    ever touched under it.
    """

    def __init__(
        self,
        root,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 6,
        store_bytes: Optional[int] = None,
        log=print,
    ) -> None:
        self.dirs = service_dirs(root)
        self.store = repro_store.ContentStore(
            self.dirs["store"],
            max_bytes=(
                store_bytes if store_bytes is not None
                else repro_store.DEFAULT_MAX_BYTES
            ),
        )
        self.leases = LeaseTable(
            lease_seconds=lease_seconds, max_attempts=max_attempts
        )
        self.book = CampaignBook(self.store, self.dirs["checkpoints"])
        self.log = log
        self.lock = threading.RLock()

    # -- wire dispatch -------------------------------------------------------

    def handle(self, endpoint: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One wire request, already unframed; returns the JSON reply.

        Every endpoint is idempotent: a duplicated or retried-after-
        response-loss request converges to the same final state
        (``submit`` re-registers a no-op, ``claim`` hands out a fresh
        lease for a shard the lost one will merely expire on, ``renew``
        of a stale lease is a clean ``ok: false``, ``upload`` is the
        lease table's byte-identical completion check).
        """
        with self.lock:
            if endpoint == "submit":
                spec = CampaignSpec.from_dict(payload["spec"])
                return {"campaign": self.submit(spec)}
            if endpoint == "claim":
                return self.claim(str(payload.get("worker", "")))
            if endpoint == "renew":
                deadline = self.leases.renew(
                    str(payload.get("lease_id", "")),
                    str(payload.get("worker", "")),
                )
                return {"ok": deadline is not None, "deadline": deadline}
            if endpoint == "upload":
                return self.upload(payload)
            raise KeyError(endpoint)

    # -- campaign registry ---------------------------------------------------

    def submit(self, spec: CampaignSpec) -> str:
        """Register a campaign; idempotent per spec (same id, no-op).

        Recovery happens in :meth:`CampaignBook.submit`: checkpointed
        shards restore, store-held shards complete — both land in the
        lease table as pre-completed with their canonical digests, so
        workers are only ever offered the genuinely missing work.  The
        spec is also (re)written to the spool, making a network
        submission as durable as a local one.
        """
        with self.lock:
            state, new = self.book.submit(spec)
            cid = state.campaign_id
            if not new:
                return cid
            submit_job(self.dirs["root"], spec)
            self.leases.add_campaign(
                cid,
                len(state.shards),
                done=[
                    (i, aggregate_state_digest(agg.to_state()))
                    for i, agg in state.done.items()
                ],
            )
            self.log(
                f"campaign {cid} tenant={spec.tenant} "
                f"shards={len(state.shards)} "
                f"resumed={state.resumed_shards} "
                f"cached={state.cached_shards}"
            )
            if state.complete:
                self._finish(state)
            return cid

    def scan_spool(self) -> int:
        """Register every parseable spool job; returns how many are new."""
        with self.lock:
            new = 0
            for spec in pending_jobs(self.dirs["root"], log=self.log):
                if spec.campaign_id() not in self.book.campaigns:
                    self.submit(spec)
                    new += 1
            return new

    # -- the lease protocol --------------------------------------------------

    def claim(self, worker: str) -> Dict[str, Any]:
        """Lease the fair-share-next pending shard to ``worker``.

        The empty-handed reply carries the coordinator's drain state so
        a ``--once`` worker knows whether to exit (``complete``), fail
        (``stuck`` — some shard exhausted its attempts), or poll again
        (work is merely leased out right now).
        """
        with self.lock:
            self.leases.expire()
            key = self.book.pick(self.leases.pending_keys())
            lease = (
                self.leases.claim(worker, key) if key is not None else None
            )
            publish_lease_metrics(self.leases)
            if lease is None:
                return {
                    "work": None,
                    "complete": self.drained(),
                    "stuck": self.stuck(),
                }
            state = self.book.campaigns[lease.campaign_id]
            lo, hi = state.shards[lease.shard_index]
            return {
                "work": {
                    "campaign": lease.campaign_id,
                    "shard": lease.shard_index,
                    "lo": lo,
                    "hi": hi,
                    "lease_id": lease.lease_id,
                    "lease_seconds": self.leases.lease_seconds,
                    "attempt": lease.attempt,
                    "spec": state.spec.to_dict(),
                }
            }

    def upload(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Accept (or reject) one shard aggregate from a worker.

        The framed wire already guarantees the payload arrived intact;
        this verifies the *content*: the digest the worker claims must
        match a server-side recomputation over the state dict, and the
        lease table's completion check must not contradict an earlier
        completion.  Either failure quarantines the upload to
        ``root/quarantine/`` — kept on disk for the operator, kept out
        of the merge.
        """
        with self.lock:
            cid = str(payload.get("campaign", ""))
            shard_index = int(payload.get("shard", -1))
            agg_state = payload.get("state")
            claimed = str(payload.get("digest", ""))
            worker = str(payload.get("worker", ""))
            state = self.book.campaigns.get(cid)
            if state is None or not 0 <= shard_index < len(state.shards):
                return {"status": "unknown"}
            actual = aggregate_state_digest(agg_state)
            if actual != claimed:
                obs.record_resilience_event(
                    "upload_digest_invalid",
                    detail=f"{cid}#{shard_index} worker={worker}",
                )
                self._quarantine(payload)
                return {"status": "quarantined"}
            verdict = self.leases.complete(
                cid, shard_index, claimed, worker=worker
            )
            if verdict == "mismatch":
                # complete() already counted lease_digest_mismatch.
                self._quarantine(payload)
                return {"status": "quarantined"}
            if verdict == "accepted":
                aggregate = state.aggregate_cls.from_state(agg_state)
                self.book.finish([(cid, shard_index, aggregate)])
                if state.complete:
                    self._finish(state)
            publish_lease_metrics(self.leases)
            return {"status": verdict}

    def _quarantine(self, payload: Dict[str, Any]) -> None:
        qdir = self.dirs["root"] / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        name = (
            f"{payload.get('campaign', 'unknown')}-"
            f"{payload.get('shard', 'x')}-"
            f"{payload.get('worker', 'anon')}.json"
        )
        atomic_write_text(
            qdir / name,
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
        )
        self.log(f"quarantined upload {name}")

    def _finish(self, state: CampaignState) -> None:
        result = state.result()
        write_result(self.dirs, state.campaign_id, result)
        self.log(
            f"campaign {state.campaign_id} digest: {result['digest']}"
        )

    # -- loop hooks ----------------------------------------------------------

    def tick(self) -> None:
        """Expire stale leases and refresh the health gauges."""
        with self.lock:
            self.leases.expire()
            publish_lease_metrics(self.leases)

    def drained(self) -> bool:
        """Every known campaign complete (a fresh root counts as drained)."""
        with self.lock:
            return all(
                state.complete for state in self.book.campaigns.values()
            )

    def stuck(self) -> bool:
        """Some shard exhausted its attempts and nothing can finish it.

        Only *failed* shards with no pending or leased siblings count —
        a late upload can still heal a failed shard, so ``stuck`` is
        advisory (the ``--once`` exit path), not a hard stop.
        """
        with self.lock:
            if not self.leases.has_failed():
                return False
            counts = self.leases.state_counts()
            return counts["pending"] == 0 and counts["leased"] == 0

    def status(self) -> Dict[str, Any]:
        """The ``GET /status`` body: drain state, lease counts, campaigns."""
        with self.lock:
            return {
                "campaigns": {
                    cid: {
                        "tenant": state.spec.tenant,
                        "shards": len(state.shards),
                        "done": len(state.done),
                        "complete": state.complete,
                    }
                    for cid, state in self.book.campaigns.items()
                },
                "leases": self.leases.state_counts(),
                "complete": self.drained(),
                "stuck": self.stuck(),
            }

    def write_store_stats(self) -> None:
        with self.lock:
            write_store_stats(self.dirs, self.store)


def run_coordinator(
    root,
    *,
    port: int = 0,
    host: str = "127.0.0.1",
    once: bool = False,
    poll_seconds: float = 0.5,
    lease_seconds: float = 30.0,
    max_attempts: int = 6,
    store_bytes: Optional[int] = None,
    linger_seconds: float = 2.0,
    log=print,
) -> int:
    """Serve the lease protocol over a spool root until drained/forever.

    ``port=0`` binds an ephemeral port; the chosen URL is written
    atomically to ``root/coordinator.json`` so workers (and the CI
    smoke) can discover it without parsing logs.  ``once`` exits 0 when
    every campaign is complete — after ``linger_seconds`` of continuing
    to answer ``/claim`` with ``complete: true``, so idle workers shut
    down cleanly instead of hitting a dead socket — or 1 when the queue
    is stuck (a shard exhausted ``max_attempts``).  Metrics collection
    is always on: the protocol port doubles as the ``/metrics`` scrape
    target.
    """
    if obs.TRACER is None or obs.TRACER.metrics is None:
        obs.enable_tracing(collect_metrics=True)
    coordinator = Coordinator(
        root,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        store_bytes=store_bytes,
        log=log,
    )
    server = CoordinatorServer(coordinator, port=port, host=host)
    try:
        atomic_write_text(
            coordinator.dirs["root"] / "coordinator.json",
            json.dumps(
                {"url": server.url, "pid": os.getpid()}, sort_keys=True
            )
            + "\n",
        )
        log(f"coordinator listening on {server.url}")
        while True:
            coordinator.scan_spool()
            coordinator.tick()
            if once:
                if coordinator.stuck():
                    log("coordinator: queue stuck (attempts exhausted)")
                    return 1
                if coordinator.drained():
                    # Keep answering complete:true long enough for the
                    # last idle worker to poll once more and exit 0.
                    deadline = time.monotonic() + linger_seconds
                    while time.monotonic() < deadline:
                        time.sleep(min(0.1, poll_seconds))
                    log("coordinator: drained")
                    return 0
            time.sleep(poll_seconds)
    finally:
        coordinator.write_store_stats()
        server.close()
