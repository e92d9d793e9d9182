"""The multi-tenant campaign scheduler: one pool, one store, N campaigns.

:class:`CampaignService` accepts any number of concurrent campaign
submissions and drives them to completion in cooperative *waves*: each
wave picks up to ``workers`` pending shards — round-robin by the tenant
with the fewest shards dispatched so far (fair share), submission order
breaking ties — and fans them across one shared supervised
:class:`~repro.parallel.TrialPool` with ``chunk_size=1``, so every
shard is its own forked, heartbeat-supervised worker.  Wave-based
dispatch rather than threads because the pool's pre-fork function
handoff is a process global: one ``map`` call at a time is the engine's
contract, and a wave of mixed-tenant shards inside that one call *is*
the concurrency.

Between waves the scheduler merges finished shard aggregates (exact
merge — shard layout cannot change the result), publishes them to the
shared :class:`~repro.store.ContentStore`, and checkpoints every
touched campaign through its own PR 5
:class:`~repro.resilience.CheckpointStore` — so a SIGKILL costs at most
one wave of any campaign, and each campaign resumes independently.

Cache discipline: shard lookups happen in the parent at submit time
(store hits complete shards before any dispatch — a re-submitted
campaign costs zero trials), writes happen in the parent after
collection (single writer, accountable stats).  Forked shard workers
never touch the store.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    "CampaignService",
    "CampaignState",
    "campaign_checkpoint",
    "restore_campaign",
    "save_campaign",
    "serve_campaign_from_store",
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
        self.dispatched = 0
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


# -- shared recovery helpers --------------------------------------------------
#
# Module-level so both front ends — the in-process CampaignService and
# the network Coordinator (repro.service.coordinator) — recover a
# campaign identically: same checkpoint format, same fingerprint check,
# same store-probe.  A campaign checkpointed by one is resumable by the
# other.


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


def restore_campaign(
    checkpoint_dir, state: "CampaignState", *, resume: bool = True
) -> None:
    """Rebuild finished shards from the campaign's checkpoint, if any.

    ``resume=False`` clears the checkpoint instead.  A fingerprint
    mismatch (the spec changed under the checkpoint) restores nothing.
    """
    ckpt = campaign_checkpoint(checkpoint_dir, state.campaign_id)
    if ckpt is None:
        return
    if not resume:
        ckpt.clear()
        return
    saved = verify_fingerprint(
        ckpt, ckpt.load(), state.spec.fingerprint()
    )
    if saved is None:
        return
    for i, agg_state in saved.get("done", {}).items():
        state.done[int(i)] = state.aggregate_cls.from_state(agg_state)
    state.resumed_shards = len(state.done)
    if state.resumed_shards:
        obs.record_resilience_event(
            "campaign_resume",
            detail=state.campaign_id,
            n=state.resumed_shards,
        )


def serve_campaign_from_store(
    store: Optional[ContentStore], state: "CampaignState"
) -> None:
    """Complete every pending shard the content store already holds."""
    if store is None:
        return
    for i in state.pending():
        lo, hi = state.shards[i]
        found, value = store.get(shard_store_key(state.spec, lo, hi))
        if found and isinstance(value, state.aggregate_cls):
            state.done[i] = value
            state.cached_shards += 1


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
        self.store = store
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.pre_trial = pre_trial
        self._campaigns: "OrderedDict[str, CampaignState]" = OrderedDict()
        #: Shards dispatched per tenant (the fair-share ledger).
        self._tenant_dispatched: Dict[str, int] = {}

    # -- internals ----------------------------------------------------------

    def _next_wave(self) -> List[Tuple[str, int]]:
        """Pick up to ``workers`` pending shards, fair-share by tenant.

        Each pick goes to the pending tenant with the fewest shards
        dispatched so far (ties: campaign submission order), then
        rotates — a tenant with one small campaign is not starved behind
        a tenant with fifty large ones.
        """
        pending: Dict[str, List[Tuple[str, int]]] = {}
        for cid, state in self._campaigns.items():
            for shard_index in state.pending():
                pending.setdefault(state.spec.tenant, []).append(
                    (cid, shard_index)
                )
        wave: List[Tuple[str, int]] = []
        capacity = max(1, self.pool.workers)
        while pending and len(wave) < capacity:
            tenant = min(
                pending,
                key=lambda t: (self._tenant_dispatched.get(t, 0), t),
            )
            wave.append(pending[tenant].pop(0))
            self._tenant_dispatched[tenant] = (
                self._tenant_dispatched.get(tenant, 0) + 1
            )
            if not pending[tenant]:
                del pending[tenant]
        return wave

    # -- API ----------------------------------------------------------------

    def submit(self, spec: CampaignSpec, *, resume: bool = True) -> str:
        """Register a campaign; returns its id.  Idempotent per spec.

        Resumes from the campaign's checkpoint (when a checkpoint dir is
        configured) and completes any shard the shared store already
        holds — a fully-cached campaign finishes at submit time without
        dispatching a trial.
        """
        state = CampaignState(spec)
        if state.campaign_id in self._campaigns:
            return state.campaign_id
        restore_campaign(self.checkpoint_dir, state, resume=resume)
        serve_campaign_from_store(self.store, state)
        self._campaigns[state.campaign_id] = state
        if state.cached_shards and self.checkpoint_dir is not None:
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
        return state.campaign_id

    def run_wave(self) -> int:
        """Dispatch one fair-share wave; returns the shards completed.

        The unit of crash-safety: every campaign a wave touched is
        checkpointed (and its shards published to the store) before the
        method returns.
        """
        wave = self._next_wave()
        if not wave:
            return 0
        specs = {
            cid: self._campaigns[cid].spec for cid, _ in wave
        }
        shards = {
            cid: self._campaigns[cid].shards for cid, _ in wave
        }
        pre_trial = self.pre_trial

        def shard_fn(payload: Tuple[str, int]) -> Any:
            cid, shard_index = payload
            lo, hi = shards[cid][shard_index]
            return run_shard(specs[cid], lo, hi, pre_trial=pre_trial)

        results = self.pool.map(shard_fn, wave)
        touched = set()
        for (cid, shard_index), aggregate in zip(wave, results):
            state = self._campaigns[cid]
            state.done[shard_index] = aggregate
            state.dispatched += 1
            touched.add(cid)
            if self.store is not None:
                # Disk only: state.done already holds the aggregate, and
                # a later read still fills the memory tier.
                lo, hi = state.shards[shard_index]
                self.store.put(
                    shard_store_key(state.spec, lo, hi),
                    aggregate,
                    memory=False,
                )
        for cid in sorted(touched):
            save_campaign(self.checkpoint_dir, self._campaigns[cid])
        return len(wave)

    def run_until_complete(self) -> Dict[str, Dict[str, Any]]:
        """Drive every submitted campaign to completion; returns results."""
        while any(
            not state.complete for state in self._campaigns.values()
        ):
            if self.run_wave() == 0:  # pragma: no cover - defensive
                raise RuntimeError("no progress: pending shards undispatchable")
        return self.results()

    def results(self) -> Dict[str, Dict[str, Any]]:
        """Results of every *complete* campaign, by campaign id."""
        return {
            cid: state.result()
            for cid, state in self._campaigns.items()
            if state.complete
        }

    def campaign(self, campaign_id: str) -> CampaignState:
        return self._campaigns[campaign_id]

    def __len__(self) -> int:
        return len(self._campaigns)
