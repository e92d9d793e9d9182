"""``repro.resilience`` — fault injection and crash-safe recovery.

Production-scale campaigns (the ROADMAP north star) run for hours across
many workers; this subsystem makes every failure mode along the way both
*survivable* and *testable*:

* :mod:`repro.resilience.faults` — a deterministic, seeded network
  fault-injection harness that drops, delays, duplicates and truncates
  :mod:`repro.service.transport` requests as a pure function of a seed,
  so chaos storms against the lease protocol are reproducible;
* :mod:`repro.resilience.checkpoint` — :class:`ShardLog`, the one
  checkpoint format: an append-only log of canonical-JSON records, each
  behind its own SHA-256 (one fsync'd append per finished shard, trial
  batch or search wave), and :class:`ResumableCampaign`, the
  checkpointed ``pool.map`` behind ``--resume`` on the benches and the
  ``repro campaign`` CLI;
* worker crashes and hangs are absorbed by the lease table
  (:mod:`repro.service.leases`: expiry, requeue, upload digest checks,
  quarantine), which the faults here and SIGKILLed ``repro worker``
  processes exercise.

See MODELING.md §10 for the fault taxonomy and determinism guarantees.
"""

from repro.resilience.checkpoint import (
    CheckpointMismatch,
    ResumableCampaign,
    ShardLog,
    rng_state_digest,
)
from repro.resilience.faults import (
    NetworkFaultInjector,
    NetworkFaultSpec,
)

__all__ = [
    "CheckpointMismatch",
    "NetworkFaultInjector",
    "NetworkFaultSpec",
    "ResumableCampaign",
    "ShardLog",
    "rng_state_digest",
]
