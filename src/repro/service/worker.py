"""The pull-based campaign worker behind ``repro worker --connect``.

A worker is the simplest possible citizen of the lease protocol: a
loop of *claim → run → upload*, carrying no durable state of its own.
Everything that makes the fleet robust lives elsewhere — the
coordinator's lease table absorbs worker crashes, the transport client
absorbs network faults, and the exact aggregates make any schedule of
workers merge to the single-host digest — which is exactly why a
worker is safe to SIGKILL at any instant: the most it can lose is work
someone else will redo identically.

What the worker *does* own:

* **heartbeats** — long shards renew their lease from the
  :func:`run_shard` pre-trial hook (every third of the lease term), so
  a slow-but-alive worker is never mistaken for a dead one.  Renewal
  is best-effort: a failed renewal just means the shard may be
  re-dispatched, and idempotent completion makes the duplicate
  harmless;
* **terminal verdicts** — a quarantined upload raises
  :exc:`~repro.service.transport.LeaseQuarantinedError` (CLI exit 4:
  this worker computed a different answer than the recorded one, which
  for exact arithmetic means *this worker is broken*); retry
  exhaustion surfaces as
  :exc:`~repro.service.transport.CoordinatorUnreachable` (CLI exit 5),
  except for a ``--once`` worker whose coordinator drained and left.

``repro serve`` without ``--port`` runs one of these in a thread,
against its own coordinator over loopback HTTP.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Callable, Dict, Optional

from repro.service.campaign import CampaignSpec, run_shard
from repro.service.transport import (
    CoordinatorUnreachable,
    LeaseQuarantinedError,
    TransportClient,
    TransportError,
    aggregate_state_digest,
)

__all__ = ["default_worker_id", "run_worker"]


def default_worker_id() -> str:
    """``<hostname>-<pid>`` — unique per live process, stable within it."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _renewing_pre_trial(
    client: TransportClient,
    lease_id: str,
    worker_id: str,
    lease_seconds: float,
    *,
    trial_delay: float = 0.0,
) -> Callable[[int], None]:
    """A ``run_shard`` pre-trial hook that keeps the lease alive.

    Renews every ``lease_seconds / 3`` — early enough that one missed
    renewal (a transport fault) still leaves two chances before expiry.
    """
    interval = max(lease_seconds / 3.0, 0.05)
    last = [time.monotonic()]

    def pre_trial(_index: int) -> None:
        if trial_delay > 0:
            time.sleep(trial_delay)
        now = time.monotonic()
        if now - last[0] < interval:
            return
        last[0] = now
        try:
            client.call(
                "renew", {"lease_id": lease_id, "worker": worker_id}
            )
        except TransportError:
            # Best-effort: an unrenewable lease expires and the shard
            # requeues; our late upload is an idempotent duplicate.
            pass

    return pre_trial


def run_worker(
    connect: str,
    *,
    worker_id: Optional[str] = None,
    once: bool = False,
    poll_seconds: float = 0.5,
    retries: int = 5,
    trial_delay: float = 0.0,
    fault_injector=None,
    log=print,
) -> int:
    """Claim, run and upload shards from the coordinator at ``connect``.

    Returns the process exit code: with ``once``, 0 as soon as the
    coordinator reports the queue drained; without it the loop serves
    forever (campaigns submitted later included) until interrupted.
    A shard's trials run in this process, in index order; run more
    workers for more processes.  ``fault_injector`` threads a
    :class:`~repro.resilience.NetworkFaultInjector` into the transport
    (the chaos suite's hook).  Raises
    :exc:`~repro.service.transport.LeaseQuarantinedError` /
    :exc:`~repro.service.transport.CoordinatorUnreachable` for the CLI
    to map to exit codes 4 / 5.
    """
    client = TransportClient(
        connect, retries=retries, fault_injector=fault_injector
    )
    me = worker_id if worker_id else default_worker_id()
    had_contact = False
    try:
        while True:
            reply = client.call("claim", {"worker": me})
            had_contact = True
            work = reply.get("work")
            if work is None:
                if once and reply.get("complete"):
                    log(f"worker {me}: queue drained, exiting")
                    return 0
                if once and reply.get("stuck"):
                    log(f"worker {me}: queue stuck, giving up")
                    raise CoordinatorUnreachable(
                        "queue stuck: a shard exhausted its attempts"
                    )
                # Nothing *claimable* is not nothing *left*: in-flight
                # leases may yet expire and requeue, so an idle worker
                # keeps polling — the claim reply's drain flags (above)
                # are what end a --once worker, and a service-mode
                # worker outlives drains to serve future campaigns.
                time.sleep(poll_seconds)
                continue
            _run_one(client, me, work, trial_delay, log)
    except CoordinatorUnreachable:
        if once and had_contact:
            # The coordinator drained and left between our polls — the
            # fleet's normal end-of-campaign shutdown order.
            log(f"worker {me}: coordinator gone after drain, exiting")
            return 0
        raise


def _run_one(
    client: TransportClient,
    me: str,
    work: Dict[str, Any],
    trial_delay: float,
    log,
) -> None:
    """Run one leased shard end to end and upload its aggregate."""
    spec = CampaignSpec.from_dict(work["spec"])
    lo, hi = int(work["lo"]), int(work["hi"])
    pre_trial = _renewing_pre_trial(
        client,
        str(work["lease_id"]),
        me,
        float(work.get("lease_seconds", 30.0)),
        trial_delay=trial_delay,
    )
    aggregate = run_shard(spec, lo, hi, pre_trial=pre_trial)
    state = aggregate.to_state()
    reply = client.call(
        "upload",
        {
            "campaign": work["campaign"],
            "shard": work["shard"],
            "lease_id": work["lease_id"],
            "worker": me,
            "state": state,
            "digest": aggregate_state_digest(state),
        },
    )
    status = reply.get("status")
    if status == "quarantined":
        raise LeaseQuarantinedError(
            f"upload of {work['campaign']}#{work['shard']} quarantined: "
            f"digest disagrees with the recorded completion"
        )
    log(
        f"worker {me}: shard {work['campaign']}#{work['shard']} "
        f"[{lo},{hi}) {status}"
    )
