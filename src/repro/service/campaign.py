"""Campaign specs, the shard planner, and the shard trial executor.

A service campaign is the Figure-4 stability workload as a *pure
function of a plain-data spec*: every trial builds a fresh core from the
spec's preset and assesses its candidate block on the manycore engine's
N=1 case (:func:`~repro.core.manycore.assess_planned`) with a
:class:`~repro.core.calibration.TrialPlan` drawn from an RNG spawned
off the spec seed **keyed by the trial's global index**::

    np.random.SeedSequence(spec.seed, spawn_key=(index,))

``SeedSequence(e).spawn(n)[i]`` is exactly ``SeedSequence(e,
spawn_key=(i,))``, so a shard covering indices ``[lo, hi)`` draws the
same per-trial streams the unsharded run draws for those indices, so
the *shard layout* is irrelevant.  Combined with the exact mergeable
aggregates (:mod:`repro.service.aggregate`), a campaign split into any
number of shards digests bit-identically to the serial run, RNG stream
positions included (each trial record embeds its core RNG's post-run
digest).

Shard results are content-addressed: :func:`shard_store_key` derives a
:mod:`repro.store` key from the result-shaping spec fields plus the
index range, so a re-submitted campaign — or a different tenant's
identical one — is served from the store without dispatching a single
trial.  The store holds each aggregate's ``to_state()``;
:func:`stored_shard` turns an entry back into an aggregate, or into a
miss when it does not decode.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bpu.presets import PRESETS
from repro.core.calibration import draw_trial_plan
from repro.core.manycore import assess_planned
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process
from repro.resilience.checkpoint import rng_state_digest
from repro.service.aggregate import CampaignAggregate
from repro.service.workload import Workload, get_workload, register_workload
from repro.store import ContentStore, store_key
from repro.system.noise import NoiseModel

__all__ = [
    "CampaignSpec",
    "plan_shards",
    "run_campaign",
    "run_shard",
    "run_trial",
    "shard_store_key",
    "stored_shard",
]

#: Noise environments a spec may name (plain strings keep specs JSON).
NOISE_PRESETS: Dict[str, Callable[[], NoiseModel]] = {
    "isolated": NoiseModel.isolated,
    "noisy": NoiseModel.noisy,
    "quiesced": NoiseModel.quiesced,
    "silent": NoiseModel.silent,
}


@dataclass(frozen=True)
class CampaignSpec:
    """Plain-data description of one stability campaign.

    Everything is a JSON-representable primitive so specs round-trip
    through job files, store keys and checkpoint fingerprints without
    ambiguity.  ``tenant`` and ``shards`` shape *scheduling*, not
    results, so they are excluded from :meth:`key_parts` — two tenants
    submitting the same science share one cache entry.
    """

    #: Caller-facing label; results are filed under the campaign id.
    name: str = "campaign"
    #: Fair-share scheduling bucket.
    tenant: str = "default"
    #: Predictor preset (``repro.bpu.presets.PRESETS`` key).
    preset: str = "skylake"
    #: ``PredictorConfig.scaled`` divisor (1 = full-size tables).
    scale: int = 16
    #: Core seed; also the root entropy of the per-trial plan streams.
    seed: int = 7
    #: Target PHT address under calibration.
    target_address: int = 0x4200
    #: Campaign size: candidate blocks assessed.
    n_blocks: int = 64
    #: Branches per randomisation block.
    block_branches: int = 2_000
    #: Probe repetitions per variant per block.
    repetitions: int = 40
    #: Noise environment name (:data:`NOISE_PRESETS` key).
    noise: str = "isolated"
    #: First block seed; trial ``i`` uses ``seed_start + i``.
    seed_start: int = 0
    #: Requested shard count (scheduling hint; results are invariant).
    shards: int = 4
    #: Workload family (:mod:`repro.service.workload` registry key):
    #: what one trial *is* and what aggregate shards fold into.
    workload: str = "stability"
    #: Workload-specific parameters as a canonical JSON object string
    #: (a string keeps the spec frozen/hashable; result-shaping, so it
    #: joins :meth:`key_parts`).  The fuzzer puts its generation's
    #: program descriptors here.
    params: str = "{}"

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.noise not in NOISE_PRESETS:
            raise ValueError(f"unknown noise model {self.noise!r}")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        try:
            get_workload(self.workload)
        except KeyError as exc:
            raise ValueError(str(exc)) from exc
        try:
            decoded = json.loads(self.params)
        except json.JSONDecodeError as exc:
            raise ValueError(f"params is not valid JSON: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ValueError("params must encode a JSON object")

    # -- identity -----------------------------------------------------------

    def key_parts(self) -> Dict[str, Any]:
        """The result-shaping fields (scheduling knobs excluded)."""
        return {
            "preset": self.preset,
            "scale": self.scale,
            "seed": self.seed,
            "target_address": self.target_address,
            "n_blocks": self.n_blocks,
            "block_branches": self.block_branches,
            "repetitions": self.repetitions,
            "noise": self.noise,
            "seed_start": self.seed_start,
            "workload": self.workload,
            "params": self.params,
        }

    def content_key(self) -> str:
        return store_key("campaign", **self.key_parts())

    def campaign_id(self) -> str:
        """Stable, filename-safe id: label plus content-hash suffix."""
        safe = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in self.name
        )
        return f"{safe}-{self.content_key().rsplit('-', 1)[1][:12]}"

    def fingerprint(self) -> Dict[str, Any]:
        """Checkpoint fingerprint: the science plus the shard layout."""
        parts = self.key_parts()
        parts["experiment"] = "service_campaign"
        parts["shards"] = self.shards
        return parts

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def noise_model(self) -> NoiseModel:
        return NOISE_PRESETS[self.noise]()

    def workload_impl(self) -> Workload:
        """The resolved :class:`~repro.service.workload.Workload`."""
        return get_workload(self.workload)

    def build_core(self) -> PhysicalCore:
        config = PRESETS[self.preset]()
        if self.scale != 1:
            config = config.scaled(self.scale)
        return PhysicalCore(config, seed=self.seed)


def plan_shards(
    spec: CampaignSpec, n_shards: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Split ``[0, n_blocks)`` into contiguous ``(lo, hi)`` index ranges.

    Sizes differ by at most one trial; a shard count above ``n_blocks``
    clamps so no shard is empty.  The split affects only scheduling —
    the determinism contract makes results identical for every split.
    """
    n = n_shards if n_shards is not None else spec.shards
    if n < 1:
        raise ValueError("shard count must be >= 1")
    n = min(n, spec.n_blocks)
    base, extra = divmod(spec.n_blocks, n)
    shards: List[Tuple[int, int]] = []
    lo = 0
    for index in range(n):
        hi = lo + base + (1 if index < extra else 0)
        shards.append((lo, hi))
        lo = hi
    return shards


def shard_store_key(spec: CampaignSpec, lo: int, hi: int) -> str:
    """Content key of one shard's aggregate in the persistent store."""
    return store_key("shard_result", lo=lo, hi=hi, **spec.key_parts())


def stored_shard(
    store: ContentStore, key: str, aggregate_cls: type
) -> Optional[Any]:
    """The shard aggregate ``store`` holds under ``key``, or ``None``.

    An entry that does not decode as ``aggregate_cls`` (a state an
    older schema wrote) is a miss like an absent one: the shard is
    recomputed and its put overwrites the entry.
    """
    found, state = store.get(key)
    if not found:
        return None
    try:
        return aggregate_cls.from_state(state)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def run_trial(
    spec: CampaignSpec,
    index: int,
    *,
    pre_trial: Optional[Callable[[int], None]] = None,
) -> Dict[str, Any]:
    """Trial ``index`` of a campaign, dispatched by the spec's workload.

    Pure function of ``(spec, index)`` whatever the workload; the
    returned record is plain JSON data.
    """
    return spec.workload_impl().run_trial(spec, index, pre_trial=pre_trial)


def _stability_trial(
    spec: CampaignSpec,
    index: int,
    *,
    pre_trial: Optional[Callable[[int], None]] = None,
) -> Dict[str, Any]:
    """The Figure-4 stability trial: one block assessed on a fresh core.

    The scramble/noise randomness comes from the index-keyed spawned
    stream, the core is rebuilt from the spec, and the block is assessed
    without being compiled (the exact generate -> compile ->
    ``assess_block_batch`` fallback runs only where the manycore engine
    names a reason); ``rng_digest`` pins the core generator's exact
    post-trial stream position into the campaign digest.
    """
    if pre_trial is not None:
        pre_trial(index)
    core = spec.build_core()
    child = np.random.SeedSequence(spec.seed, spawn_key=(index,))
    plan = draw_trial_plan(
        np.random.default_rng(child),
        core,
        repetitions=spec.repetitions,
        noise=spec.noise_model(),
    )
    assessment = assess_planned(
        core,
        spec.seed_start + index,
        spec.target_address,
        plan,
        block_branches=spec.block_branches,
        spy=Process("service-spy"),
    )
    fsm = core.predictor.bimodal.pht.fsm
    return {
        "index": index,
        "seed": spec.seed_start + index,
        "tt_pattern": assessment.tt_pattern,
        "tt_frequency": float(assessment.tt_frequency),
        "nn_pattern": assessment.nn_pattern,
        "nn_frequency": float(assessment.nn_frequency),
        "stable": bool(assessment.stable),
        "state": assessment.decoded(fsm).value,
        "rng_digest": rng_state_digest(core.rng),
    }


def run_shard(
    spec: CampaignSpec,
    lo: int,
    hi: int,
    *,
    pre_trial: Optional[Callable[[int], None]] = None,
):
    """Fold trials ``[lo, hi)`` into the workload's aggregate, in
    index order (memory O(1) in the trial count)."""
    acc = spec.workload_impl().aggregate()
    for index in range(lo, hi):
        acc.add_trial(run_trial(spec, index, pre_trial=pre_trial))
    return acc


def run_campaign(
    spec: CampaignSpec,
    *,
    n_shards: Optional[int] = None,
    store: Optional[ContentStore] = None,
    pre_trial: Optional[Callable[[int], None]] = None,
):
    """Run a whole campaign shard by shard and merge the aggregates.

    The simple single-campaign entry point (the CLI bench and the
    property tests use it); :class:`~repro.service.scheduler.
    CampaignService` is the multi-tenant scheduler over the same
    pieces.  With a ``store``, shard aggregates hit the persistent
    cache: a warm re-run merges stored shards without running a trial.
    """
    aggregate_cls = spec.workload_impl().aggregate
    parts: List[Any] = []
    for lo, hi in plan_shards(spec, n_shards):
        key = shard_store_key(spec, lo, hi)
        part = None
        if store is not None:
            part = stored_shard(store, key, aggregate_cls)
        if part is None:
            part = run_shard(spec, lo, hi, pre_trial=pre_trial)
            if store is not None:
                store.put(key, part.to_state())
        parts.append(part)
    return aggregate_cls.merged(parts)


register_workload(
    Workload(
        name="stability",
        run_trial=_stability_trial,
        aggregate=CampaignAggregate,
    )
)
