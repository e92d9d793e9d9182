"""Shard leases: time-bounded exclusive claims with exact recovery.

A distributed campaign cannot *assign* work the way the in-process
scheduler does — a worker that claimed a shard may be SIGKILLed, lose
its network, or stall indefinitely, and the coordinator can never tell
which.  The classic answer is a **lease**: a claim expires unless
renewed, an expired shard is requeued for someone else, and completion
is idempotent so the original worker turning up late (or a duplicated
upload) cannot corrupt the result.

:class:`LeaseTable` is that state machine, kept deliberately pure (no
I/O, injectable clock) so the tests can walk every transition without
sleeping:

``pending`` ──claim──▶ ``leased`` ──complete──▶ ``done``
    ▲                      │
    └──expire (requeue)────┘            attempts > max_attempts ──▶ ``failed``

Invariants the table enforces:

* **at-most-one active lease per shard** — a claim hands out a fresh
  lease id; stale ids (an expired lease the worker still holds) renew
  and complete as no-ops/late-completions, never as a second owner;
* **bounded retries** — each claim increments the shard's attempt
  count; expiry past ``max_attempts`` parks the shard as ``failed``
  (surfaced as a ``lease_exhausted`` resilience event) instead of
  requeueing forever;
* **idempotent completion** — the first completion records the
  aggregate's canonical digest; any later completion with the *same*
  digest is a ``duplicate`` no-op, while a *different* digest is a
  ``mismatch`` the coordinator quarantines (two exact computations of
  one shard can only differ if something is broken — exactness is what
  makes this check possible at all);
* **late completion heals** — a shard whose lease expired (or that
  already failed) still accepts a valid completion: the work is a pure
  function of the spec, so a straggler's answer is as good as anyone's;
* **finished campaigns retire** — :meth:`~LeaseTable.retire` keeps only
  their shards' digests, outside everything the claim path scans, so a
  claim costs the same after a thousand campaigns as after one.

The table also keeps a per-worker last-heartbeat ledger (claims,
renewals and completions all count), published together with the
state counts as the ``repro_service_leases{state}`` /
``repro_service_queue_depth`` / ``repro_service_worker_last_heartbeat``
gauges by :func:`publish_lease_metrics`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import trace as obs

__all__ = [
    "Lease",
    "LeaseTable",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "publish_lease_metrics",
]

#: Shard lifecycle states (the ``repro_service_leases`` gauge labels).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
STATES = (PENDING, LEASED, DONE, FAILED)

#: A shard's identity inside the table.
ShardKey = Tuple[str, int]


@dataclass(frozen=True)
class Lease:
    """One live claim of one shard by one worker."""

    lease_id: str
    campaign_id: str
    shard_index: int
    worker: str
    #: 1-based claim count of this shard (includes this claim).
    attempt: int
    #: Wall-clock deadline; the coordinator requeues past it.
    deadline: float


class _Shard:
    __slots__ = ("state", "attempts", "lease", "digest")

    def __init__(self) -> None:
        self.state = PENDING
        self.attempts = 0
        self.lease: Optional[Lease] = None
        self.digest: Optional[str] = None


class LeaseTable:
    """Deadline-tracked shard claims with idempotent completion.

    Not thread-safe by itself — the coordinator serialises access under
    its own lock (one lock, one table; a lock per method here would
    invite lost updates across check-then-act sequences).
    """

    def __init__(
        self,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 6,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.clock = clock
        #: Insertion-ordered registry of the shards of every campaign
        #: not yet retired (dicts preserve order).
        self._shards: Dict[ShardKey, _Shard] = {}
        #: Live lease id -> its shard: all :meth:`expire` walks.
        self._leases: Dict[str, ShardKey] = {}
        #: Recorded digests of retired campaigns' shards, out of every
        #: scan but still judging a late completion (:meth:`complete`).
        self._retired: Dict[ShardKey, str] = {}
        self._lease_counter = 0
        #: worker -> wall time of its last sign of life.
        self._heartbeats: Dict[str, float] = {}

    # -- registration --------------------------------------------------------

    def add_campaign(
        self,
        campaign_id: str,
        n_shards: int,
        *,
        done: Iterable[Tuple[int, str]] = (),
    ) -> None:
        """Register a campaign's shards; ``done`` pre-completes
        ``(shard_index, digest)`` pairs recovered from a checkpoint or
        served from the store.  Idempotent per campaign; registering a
        retired campaign again forgets its retired digests."""
        for index in range(n_shards):
            self._retired.pop((campaign_id, index), None)
            self._shards.setdefault((campaign_id, index), _Shard())
        for index, digest in done:
            shard = self._shards[(campaign_id, index)]
            shard.state = DONE
            shard.digest = digest

    def retire(self, campaign_id: str, n_shards: int) -> None:
        """Move a finished campaign (every shard done) out of the
        registry the claim path scans, keeping each shard's digest so a
        late upload is still a ``duplicate`` or a ``mismatch``."""
        for index in range(n_shards):
            key = (campaign_id, index)
            self._retired[key] = self._shards.pop(key).digest

    # -- internals -----------------------------------------------------------

    def _touch(self, worker: Optional[str]) -> None:
        if worker:
            self._heartbeats[worker] = self.clock()

    def _release(self, shard: _Shard) -> None:
        if shard.lease is not None:
            self._leases.pop(shard.lease.lease_id, None)
            shard.lease = None

    # -- lifecycle -----------------------------------------------------------

    def expire(self) -> List[ShardKey]:
        """Requeue (or fail) every shard whose lease deadline passed.

        Returns the requeued/failed shard keys.  Called by the
        coordinator before every claim and on every tick, so expiry
        needs no background thread; it walks the live leases only, so
        its cost does not grow with the shards already done.
        """
        now = self.clock()
        expired: List[ShardKey] = [
            key
            for key in self._leases.values()
            if self._shards[key].lease.deadline <= now
        ]
        for key in expired:
            shard = self._shards[key]
            lease = shard.lease
            self._release(shard)
            if shard.attempts >= self.max_attempts:
                shard.state = FAILED
                obs.record_resilience_event(
                    "lease_exhausted",
                    detail=(
                        f"{key[0]}#{key[1]} after {shard.attempts} attempts"
                    ),
                )
            else:
                shard.state = PENDING
                obs.record_resilience_event(
                    "lease_expired",
                    detail=(
                        f"{key[0]}#{key[1]} worker={lease.worker} "
                        f"attempt={lease.attempt}"
                    ),
                )
        return expired

    def claim(self, worker: str, key: ShardKey) -> Optional[Lease]:
        """Lease the pending shard ``key`` to ``worker`` (the caller
        picks it, e.g. by fair share).  ``None`` when ``key`` is not
        pending."""
        self.expire()
        self._touch(worker)
        shard = self._shards.get(key)
        if shard is None or shard.state != PENDING:
            return None
        shard.attempts += 1
        self._lease_counter += 1
        lease = Lease(
            lease_id=f"L{self._lease_counter}",
            campaign_id=key[0],
            shard_index=key[1],
            worker=worker,
            attempt=shard.attempts,
            deadline=self.clock() + self.lease_seconds,
        )
        shard.state = LEASED
        shard.lease = lease
        self._leases[lease.lease_id] = key
        return lease

    def renew(self, lease_id: str, worker: str = "") -> Optional[float]:
        """Extend a live lease; returns the new deadline, or ``None``
        for a stale/unknown lease (the worker should expect its shard
        to be re-dispatched and rely on idempotent completion)."""
        self._touch(worker)
        key = self._leases.get(lease_id)
        if key is None:
            return None
        shard = self._shards[key]
        if shard.lease is None or shard.lease.lease_id != lease_id:
            return None
        deadline = self.clock() + self.lease_seconds
        shard.lease = Lease(
            lease_id=lease_id,
            campaign_id=key[0],
            shard_index=key[1],
            worker=shard.lease.worker,
            attempt=shard.lease.attempt,
            deadline=deadline,
        )
        return deadline

    def complete(
        self,
        campaign_id: str,
        shard_index: int,
        digest: str,
        *,
        worker: str = "",
    ) -> str:
        """Record a shard completion; returns the verdict:

        * ``"accepted"`` — first completion (including a late one from
          an expired lease, or a recovery of a ``failed`` shard);
        * ``"duplicate"`` — already done with a byte-identical digest
          (idempotent no-op), retired campaigns included;
        * ``"mismatch"`` — already done with a *different* digest; the
          caller must quarantine the new payload, not merge it;
        * ``"unknown"`` — no such shard.
        """
        self._touch(worker)
        key = (campaign_id, shard_index)
        shard = self._shards.get(key)
        # A shard's digest is set exactly when it is done.
        recorded = self._retired.get(key) if shard is None else shard.digest
        if recorded is not None:
            if recorded == digest:
                return "duplicate"
            obs.record_resilience_event(
                "lease_digest_mismatch",
                detail=f"{campaign_id}#{shard_index} worker={worker}",
            )
            return "mismatch"
        if shard is None:
            return "unknown"
        self._release(shard)
        shard.state = DONE
        shard.digest = digest
        return "accepted"

    # -- inspection ----------------------------------------------------------

    def pending_keys(self) -> List[ShardKey]:
        return [
            key
            for key, shard in self._shards.items()
            if shard.state == PENDING
        ]

    def knows(self, campaign_id: str, shard_index: int) -> bool:
        """Whether the shard is registered, retired or not."""
        key = (campaign_id, shard_index)
        return key in self._shards or key in self._retired

    def state_counts(self) -> Dict[str, int]:
        """Shards by state; ``done`` counts retired campaigns' too."""
        counts = {state: 0 for state in STATES}
        counts[DONE] = len(self._retired)
        for shard in self._shards.values():
            counts[shard.state] += 1
        return counts

    def worker_heartbeats(self) -> Dict[str, float]:
        return dict(self._heartbeats)

    def has_failed(self) -> bool:
        return any(s.state == FAILED for s in self._shards.values())


def publish_lease_metrics(table: LeaseTable) -> None:
    """Refresh the lease/queue health gauges from one table's state.

    No-op unless metrics collection is enabled (the coordinator turns it
    on), matching the repo-wide zero-overhead-when-disabled contract.
    """
    tracer = obs.TRACER
    if tracer is None or tracer.metrics is None:
        return
    metrics = tracer.metrics
    counts = table.state_counts()
    leases = metrics.gauge(
        "repro_service_leases",
        "campaign shards by lease state",
        labels=("state",),
    )
    for state in STATES:
        leases.set(counts[state], state=state)
    metrics.gauge(
        "repro_service_queue_depth",
        "shards pending a worker claim",
    ).set(counts[PENDING])
    heartbeat = metrics.gauge(
        "repro_service_worker_last_heartbeat",
        "unix time of each worker's last claim/renew/upload",
        labels=("worker",),
    )
    for worker, stamp in table.worker_heartbeats().items():
        heartbeat.set(stamp, worker=worker)
