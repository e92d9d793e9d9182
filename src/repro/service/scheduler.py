"""The campaign book and the in-process wave scheduler.

:class:`CampaignBook` is the one record of submitted campaigns that
both schedulers share: the registry, the least-dispatched fair-share
ledger (:meth:`~CampaignBook.pick`), submit-time recovery (restore the
checkpoint, then serve pending shards from the
:class:`~repro.store.ContentStore`) and the record of a finished shard
(:meth:`~CampaignBook.finish`: a disk-only store put, then one
:func:`save_campaign` per touched campaign).  Lookups and writes happen
in the parent; forked shard workers never touch the store.

:class:`CampaignService` drives the book's campaigns in cooperative
*waves*: each wave picks up to ``workers`` pending shards and fans them
across one shared supervised :class:`~repro.parallel.TrialPool` with
``chunk_size=1``, so every shard is its own forked, heartbeat-supervised
worker.  Wave-based dispatch rather than threads because the pool's
pre-fork function handoff is a process global: one ``map`` call at a
time is the engine's contract, and a wave of mixed-tenant shards inside
that one call *is* the concurrency.  A SIGKILL costs at most one wave
of any campaign, and each campaign resumes independently.  The leased
:class:`~repro.service.coordinator.Coordinator` keeps the same book.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import trace as obs
from repro.parallel import TrialPool
from repro.resilience.checkpoint import CheckpointStore, verify_fingerprint
from repro.service.campaign import (
    CampaignSpec,
    plan_shards,
    run_shard,
    shard_store_key,
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
    checkpoint_dir, campaign_id: str
) -> Optional[CheckpointStore]:
    """The campaign's checkpoint store, or ``None`` when disabled."""
    if checkpoint_dir is None:
        return None
    checkpoint_dir = Path(checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    return CheckpointStore(checkpoint_dir / f"{campaign_id}.ckpt")


def save_campaign(checkpoint_dir, state: "CampaignState") -> None:
    """Checkpoint a campaign's finished shards (atomic, fingerprinted)."""
    ckpt = campaign_checkpoint(checkpoint_dir, state.campaign_id)
    if ckpt is None:
        return
    ckpt.save(
        {
            "fingerprint": state.spec.fingerprint(),
            "done": {
                i: agg.to_state() for i, agg in state.done.items()
            },
            "complete": state.complete,
        }
    )


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
        every pending shard the store holds and, if the store served
        any, re-saves the checkpoint — a fully cached campaign finishes
        here without dispatching a trial.
        """
        state = CampaignState(spec)
        known = self.campaigns.get(state.campaign_id)
        if known is not None:
            return known, False
        ckpt = campaign_checkpoint(self.checkpoint_dir, state.campaign_id)
        if ckpt is not None and not resume:
            ckpt.clear()
        elif ckpt is not None:
            saved = verify_fingerprint(ckpt, ckpt.load(), spec.fingerprint())
            for i, agg_state in (saved or {}).get("done", {}).items():
                state.done[int(i)] = state.aggregate_cls.from_state(agg_state)
            state.resumed_shards = len(state.done)
            if state.resumed_shards:
                obs.record_resilience_event(
                    "campaign_resume",
                    detail=state.campaign_id,
                    n=state.resumed_shards,
                )
        if self.store is not None:
            for i in state.pending():
                lo, hi = state.shards[i]
                found, value = self.store.get(shard_store_key(spec, lo, hi))
                if found and isinstance(value, state.aggregate_cls):
                    state.done[i] = value
                    state.cached_shards += 1
        self.campaigns[state.campaign_id] = state
        if state.cached_shards:
            save_campaign(self.checkpoint_dir, state)
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

        Each aggregate goes to the store's disk tier only (the campaign
        state already holds it, and a later read still fills the memory
        tier); then every touched campaign is checkpointed once.
        """
        touched: Dict[str, CampaignState] = {}
        for cid, shard_index, aggregate in triples:
            state = touched[cid] = self.campaigns[cid]
            state.done[shard_index] = aggregate
            if self.store is not None:
                lo, hi = state.shards[shard_index]
                self.store.put(
                    shard_store_key(state.spec, lo, hi),
                    aggregate,
                    memory=False,
                )
        for cid in sorted(touched):
            save_campaign(self.checkpoint_dir, touched[cid])


class CampaignService:
    """Fair-share execution of concurrent campaigns over shared substrate.

    Parameters
    ----------
    workers:
        Worker processes of the shared pool (``None`` defers to
        ``REPRO_TRIAL_WORKERS``; see :func:`repro.parallel.
        resolve_workers`).  Ignored when ``pool`` is given.
    pool:
        A caller-built :class:`~repro.parallel.TrialPool` (e.g. one
        carrying a fault injector).  Must use ``chunk_size=1`` — each
        payload is a whole shard.
    store:
        Shared :class:`~repro.store.ContentStore` for shard aggregates.
        ``None`` disables persistent caching.
    checkpoint_dir:
        Directory for per-campaign checkpoint files
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
        workers: Optional[Any] = None,
        pool: Optional[TrialPool] = None,
        store: Optional[ContentStore] = None,
        checkpoint_dir=None,
        pre_trial: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.pool = pool if pool is not None else TrialPool(
            workers, chunk_size=1
        )
        self.pre_trial = pre_trial
        self.book = CampaignBook(store, checkpoint_dir)

    def submit(self, spec: CampaignSpec, *, resume: bool = True) -> str:
        """Register a campaign (:meth:`CampaignBook.submit`); returns
        its id.  Idempotent per spec."""
        return self.book.submit(spec, resume)[0].campaign_id

    def run_wave(self) -> int:
        """Dispatch one fair-share wave; returns the shards completed.

        A wave is up to ``workers`` :meth:`CampaignBook.pick` calls over
        the pending shards.  The unit of crash-safety: every campaign a
        wave touched is checkpointed (and its shards published to the
        store) before the method returns.
        """
        campaigns = self.book.campaigns
        keys = [
            (cid, i)
            for cid, state in campaigns.items()
            for i in state.pending()
        ]
        wave: List[Tuple[str, int]] = []
        while keys and len(wave) < max(1, self.pool.workers):
            wave.append(self.book.pick(keys))
            keys.remove(wave[-1])
        if not wave:
            return 0
        specs = {cid: campaigns[cid].spec for cid, _ in wave}
        shards = {cid: campaigns[cid].shards for cid, _ in wave}
        pre_trial = self.pre_trial

        def shard_fn(payload: Tuple[str, int]) -> Any:
            cid, shard_index = payload
            lo, hi = shards[cid][shard_index]
            return run_shard(specs[cid], lo, hi, pre_trial=pre_trial)

        results = self.pool.map(shard_fn, wave)
        self.book.finish(
            (cid, shard_index, aggregate)
            for (cid, shard_index), aggregate in zip(wave, results)
        )
        return len(wave)

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
