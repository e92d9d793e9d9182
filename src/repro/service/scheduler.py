"""The campaign book and the in-process wave scheduler.

:class:`CampaignBook` is the record of submitted campaigns that both
schedulers keep: the registry, the least-dispatched fair-share
ledger (:meth:`~CampaignBook.pick`), submit-time recovery (load the
shard log, then serve pending shards from the
:class:`~repro.store.ContentStore`) and the record of a finished shard
(:meth:`~CampaignBook.finish`: a disk-only store put, then one
:func:`save_campaign` append to each touched campaign's shard log).

:class:`CampaignService` drives the book's campaigns in process, one
fair-share *wave* at a time: each wave runs the one shard
:meth:`CampaignBook.pick` chooses, then records it; the fuzzer drives
its generations this way.  A SIGKILL costs at most the shard in flight,
and each campaign resumes independently.  ``repro serve`` is the leased
:class:`~repro.service.coordinator.Coordinator`; it keeps the same kind
of book, so a campaign checkpointed by one scheduler finishes under
the other, and it drops each campaign from its book once the result
is written.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import trace as obs
from repro.resilience.checkpoint import ShardLog
from repro.service.campaign import (
    CampaignSpec,
    plan_shards,
    run_shard,
    shard_store_key,
    stored_shard,
)
from repro.store import ContentStore

__all__ = [
    "CampaignBook",
    "CampaignService",
    "CampaignState",
    "campaign_checkpoint",
    "save_campaign",
]


class CampaignState:
    """One submitted campaign's progress: shards done, pending, merged."""

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.campaign_id = spec.campaign_id()
        self.shards: List[Tuple[int, int]] = plan_shards(spec)
        #: Aggregate class from the spec's workload — every checkpoint
        #: restore, store probe and merge dispatches through it.
        self.aggregate_cls: type = spec.workload_impl().aggregate
        self.done: Dict[int, Any] = {}
        #: The durable record of ``done`` (``None``: not checkpointed).
        self.log: Optional[ShardLog] = None
        self.resumed_shards = 0
        self.cached_shards = 0

    @property
    def complete(self) -> bool:
        return len(self.done) == len(self.shards)

    def pending(self) -> List[int]:
        return [
            i for i in range(len(self.shards)) if i not in self.done
        ]

    def aggregate(self) -> Any:
        """Exact merge of every shard, in shard order (order is moot —
        the merge is commutative — but fixed for readability)."""
        return self.aggregate_cls.merged(
            [self.done[i] for i in range(len(self.shards))]
        )

    def result(self) -> Dict[str, Any]:
        aggregate = self.aggregate()
        return {
            "campaign": self.campaign_id,
            "name": self.spec.name,
            "tenant": self.spec.tenant,
            "spec": self.spec.to_dict(),
            "shards": len(self.shards),
            "resumed_shards": self.resumed_shards,
            "cached_shards": self.cached_shards,
            **aggregate.summary(),
        }


def campaign_checkpoint(
    checkpoint_dir, spec: CampaignSpec
) -> Optional[ShardLog]:
    """The campaign's shard log (``<campaign_id>.ckpt``), or ``None``
    when checkpointing is disabled."""
    if checkpoint_dir is None:
        return None
    return ShardLog(
        Path(checkpoint_dir) / f"{spec.campaign_id()}.ckpt",
        spec.fingerprint(),
    )


def save_campaign(
    state: "CampaignState", shards: Iterable[Tuple[int, Dict[str, Any]]]
) -> None:
    """Durably append the just-finished ``(shard index, to_state())``
    pairs of ``state`` to its shard log (one fsync'd write; a no-op
    without a log)."""
    if state.log is not None:
        state.log.append(shards)


class CampaignBook:
    """The campaign record both schedulers share.

    It owns the campaign registry, the fair-share ledger, submit-time
    recovery and the record of a finished shard, so the in-process
    :class:`CampaignService` and the leased
    :class:`~repro.service.coordinator.Coordinator` recover, share and
    publish identically: a campaign checkpointed by one is resumable by
    the other.  ``store`` (a :class:`~repro.store.ContentStore`) and
    ``checkpoint_dir`` may each be ``None`` to disable that tier.
    """

    def __init__(
        self, store: Optional[ContentStore] = None, checkpoint_dir=None
    ) -> None:
        self.store = store
        self.checkpoint_dir = checkpoint_dir
        self.campaigns: Dict[str, CampaignState] = {}
        #: Shards dispatched per tenant (the fair-share ledger).
        self.tenant_dispatched: Dict[str, int] = {}

    def pick(
        self, keys: Iterable[Tuple[str, int]]
    ) -> Optional[Tuple[str, int]]:
        """Fair share: the first ``(campaign, shard)`` key of the tenant
        with the fewest dispatches (ties: tenant name), counted as
        dispatched; ``None`` when ``keys`` is empty.  A tenant with one
        small campaign is never starved behind one with fifty."""
        first: Dict[str, Tuple[str, int]] = {}
        for key in keys:
            first.setdefault(self.campaigns[key[0]].spec.tenant, key)
        if not first:
            return None
        tenant = min(
            first, key=lambda t: (self.tenant_dispatched.get(t, 0), t)
        )
        self.tenant_dispatched[tenant] = (
            self.tenant_dispatched.get(tenant, 0) + 1
        )
        return first[tenant]

    def submit(
        self, spec: CampaignSpec, resume: bool = True
    ) -> Tuple[CampaignState, bool]:
        """Register a campaign; returns ``(state, new)``.

        A known campaign is returned as is.  A new one first restores
        its checkpoint (``resume=False`` clears it instead; a checkpoint
        of another spec raises
        :class:`~repro.resilience.CheckpointMismatch`), then completes
        every pending shard the store holds and appends those to the
        shard log — a fully cached campaign finishes here without
        dispatching a trial.
        """
        state = CampaignState(spec)
        known = self.campaigns.get(state.campaign_id)
        if known is not None:
            return known, False
        log = state.log = campaign_checkpoint(self.checkpoint_dir, spec)
        if log is not None and not resume:
            log.clear()
        elif log is not None:
            for i, agg_state in log.load().items():
                state.done[i] = state.aggregate_cls.from_state(agg_state)
            state.resumed_shards = len(state.done)
            if state.resumed_shards:
                obs.record_resilience_event(
                    "campaign_resume",
                    detail=state.campaign_id,
                    n=state.resumed_shards,
                )
        cached = []
        if self.store is not None:
            for i in state.pending():
                lo, hi = state.shards[i]
                aggregate = stored_shard(
                    self.store,
                    shard_store_key(spec, lo, hi),
                    state.aggregate_cls,
                )
                if aggregate is not None:
                    state.done[i] = aggregate
                    cached.append((i, aggregate.to_state()))
        state.cached_shards = len(cached)
        self.campaigns[state.campaign_id] = state
        if cached:
            save_campaign(state, cached)
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "pool",
                "campaign_submitted",
                campaign=state.campaign_id,
                tenant=spec.tenant,
                shards=len(state.shards),
                resumed=state.resumed_shards,
                cached=state.cached_shards,
            )
        return state, True

    def finish(self, triples: Iterable[Tuple[str, int, Any]]) -> None:
        """Record finished ``(campaign, shard, aggregate)`` triples.

        Each aggregate's ``to_state()``, taken once, goes to the store's
        disk tier only (the campaign state already holds the aggregate,
        and a later read still fills the memory tier) and to the shard
        log: every touched campaign appends its new shards in one
        fsync'd write, so they are durable when this returns.
        """
        touched: Dict[str, List[Tuple[int, Dict[str, Any]]]] = {}
        for cid, shard_index, aggregate in triples:
            state = self.campaigns[cid]
            state.done[shard_index] = aggregate
            agg_state = aggregate.to_state()
            touched.setdefault(cid, []).append((shard_index, agg_state))
            if self.store is not None:
                lo, hi = state.shards[shard_index]
                self.store.put(
                    shard_store_key(state.spec, lo, hi),
                    agg_state,
                    memory=False,
                )
        for cid in sorted(touched):
            save_campaign(self.campaigns[cid], touched[cid])


class CampaignService:
    """Fair-share execution of concurrent campaigns over shared substrate.

    Parameters
    ----------
    store:
        Shared :class:`~repro.store.ContentStore` for shard aggregates.
        ``None`` disables persistent caching.
    checkpoint_dir:
        Directory for per-campaign shard logs
        (``<campaign_id>.ckpt``).  ``None`` disables checkpointing.
    pre_trial:
        Hook run inside each trial before any work — the chaos harness
        and ``repro serve --trial-delay`` use it; excluded from all
        fingerprints and store keys, so a delayed run digests
        identically to an undelayed one.
    """

    def __init__(
        self,
        *,
        store: Optional[ContentStore] = None,
        checkpoint_dir=None,
        pre_trial: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.pre_trial = pre_trial
        self.book = CampaignBook(store, checkpoint_dir)

    def submit(self, spec: CampaignSpec, *, resume: bool = True) -> str:
        """Register a campaign (:meth:`CampaignBook.submit`); returns
        its id.  Idempotent per spec."""
        return self.book.submit(spec, resume)[0].campaign_id

    def run_wave(self) -> int:
        """Run one fair-share wave; returns the shards completed (0 or 1).

        A wave is the shard :meth:`CampaignBook.pick` chooses among the
        pending ones, run in process.  The unit of crash-safety: the
        shard is checkpointed (and published to the store) before the
        method returns.
        """
        key = self.book.pick(
            (cid, i)
            for cid, state in self.book.campaigns.items()
            for i in state.pending()
        )
        if key is None:
            return 0
        cid, shard_index = key
        state = self.book.campaigns[cid]
        lo, hi = state.shards[shard_index]
        aggregate = run_shard(state.spec, lo, hi, pre_trial=self.pre_trial)
        self.book.finish([(cid, shard_index, aggregate)])
        return 1

    def run_until_complete(self) -> Dict[str, Dict[str, Any]]:
        """Drive every submitted campaign to completion; returns results."""
        while any(
            not state.complete for state in self.book.campaigns.values()
        ):
            if self.run_wave() == 0:  # pragma: no cover - defensive
                raise RuntimeError("no progress: pending shards undispatchable")
        return self.results()

    def results(self) -> Dict[str, Dict[str, Any]]:
        """Results of every *complete* campaign, by campaign id."""
        return {
            cid: state.result()
            for cid, state in self.book.campaigns.items()
            if state.complete
        }

    def campaign(self, campaign_id: str) -> CampaignState:
        return self.book.campaigns[campaign_id]

    def __len__(self) -> int:
        return len(self.book.campaigns)
