"""``repro.service`` — the sharded, cached, multi-tenant campaign layer.

Above the per-process machinery (resumable checkpoints, the manycore
engine and compiled kernels), this package turns a campaign *spec* into
a long-running service workload, and it is the one way to spread
trials over processes, on one host or many:

* :mod:`repro.service.campaign` — :class:`CampaignSpec` (a plain-data,
  content-addressable description of a campaign), the shard planner,
  and the per-trial / per-shard executors whose results are
  bit-identical at any shard count;
* :mod:`repro.service.workload` — the workload registry: a spec names
  its trial family (``"stability"``, ``"fuzz"``, …) and the registry
  maps the name to its trial function and aggregate class, so new
  tenant families plug in without touching the scheduler;
* :mod:`repro.service.aggregate` — exact mergeable streaming
  accumulators (:class:`CampaignAggregate`): count/sum/M2 moments over
  rationals, integer histogram sketches, and an XOR-combined multiset
  digest, so merged shard results are byte-identical to the unsharded
  run however the campaign was split; plus the record-preserving
  :class:`RecordListAggregate` for workloads whose consumers need raw
  per-trial records back (the fuzzer's inference step);
* :mod:`repro.service.scheduler` — :class:`CampaignBook`, the
  campaign record (registry, per-tenant fair share, submit-time
  recovery from checkpoint and :class:`~repro.store.ContentStore`, the
  finished-shard record), and :class:`CampaignService`, which runs a
  book's campaigns in process, one fair-share shard per wave (what
  ``run_fuzz`` runs on);
* :mod:`repro.service.server` — the spool-directory files behind
  ``repro serve`` / ``repro submit``;
* :mod:`repro.service.transport` / :mod:`repro.service.leases` /
  :mod:`repro.service.coordinator` / :mod:`repro.service.worker` — the
  one server: SHA-256-framed JSON over stdlib HTTP, a
  deadline-and-retry lease table with idempotent completion, the
  coordinator every ``repro serve`` runs (leasing from a book), and
  the pull-based worker.  ``repro serve`` alone runs one worker thread
  over loopback HTTP; N processes are ``repro serve --port 0`` plus N
  ``repro worker --connect``.  The merged digest is bit-identical
  whether a campaign ran in one process, across N workers, or through
  worker SIGKILLs and network fault storms.

See MODELING.md §13 for the architecture and the sharding determinism
contract, §14 for the fuzz workload riding on it, and §15 for the
multi-host transport, lease state machine and failure matrix.
"""

from repro.service.aggregate import (
    CampaignAggregate,
    HistogramSketch,
    MomentAccumulator,
    RecordListAggregate,
)
from repro.service.campaign import (
    CampaignSpec,
    plan_shards,
    run_campaign,
    run_shard,
    run_trial,
    shard_store_key,
)
from repro.service.coordinator import Coordinator, run_coordinator
from repro.service.leases import Lease, LeaseTable
from repro.service.scheduler import CampaignService
from repro.service.server import pending_jobs, submit_job
from repro.service.transport import (
    CoordinatorServer,
    CoordinatorUnreachable,
    LeaseQuarantinedError,
    TransportClient,
    TransportError,
)
from repro.service.worker import run_worker
from repro.service.workload import (
    Workload,
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "CampaignAggregate",
    "CampaignService",
    "CampaignSpec",
    "Coordinator",
    "CoordinatorServer",
    "CoordinatorUnreachable",
    "HistogramSketch",
    "Lease",
    "LeaseQuarantinedError",
    "LeaseTable",
    "MomentAccumulator",
    "RecordListAggregate",
    "TransportClient",
    "TransportError",
    "Workload",
    "get_workload",
    "pending_jobs",
    "plan_shards",
    "register_workload",
    "run_campaign",
    "run_coordinator",
    "run_shard",
    "run_trial",
    "run_worker",
    "shard_store_key",
    "submit_job",
    "workload_names",
]
