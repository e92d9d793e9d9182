"""``repro.resilience`` — fault injection and crash-safe recovery.

Production-scale campaigns (the ROADMAP north star) run for hours across
many workers; this subsystem makes every failure mode along the way both
*survivable* and *testable*:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  fault-injection harness: crash/hang/corrupt a
  :class:`~repro.parallel.TrialPool` worker, flip bytes in checkpoint
  files, and drop/delay/duplicate/truncate
  :mod:`repro.service.transport` requests, all as a pure function of a
  seed so chaos runs are reproducible;
* :mod:`repro.resilience.checkpoint` — atomic (temp + fsync + rename)
  SHA-256-verified campaign checkpoints with automatic rollback to the
  last good generation, and :class:`ResumableCampaign`, the
  checkpointed ``pool.map`` behind ``--resume`` on the benches and the
  ``repro campaign`` CLI; and :class:`ShardLog`, the campaign
  service's append-only shard log (one fsync'd, digested record per
  finished shard);
* the supervised execution layer itself lives in
  :mod:`repro.parallel.pool` (heartbeat + deadline detection, retry
  with exponential backoff, graceful serial degradation) — the faults
  here are its test vectors.

See MODELING.md §10 for the fault taxonomy and determinism guarantees.
"""

from repro.resilience.checkpoint import (
    CheckpointCorruption,
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    ResumableCampaign,
    ShardLog,
    rng_state_digest,
    verify_fingerprint,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    NetworkFaultInjector,
    NetworkFaultSpec,
)

__all__ = [
    "CheckpointCorruption",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointStore",
    "FaultInjector",
    "FaultSpec",
    "NetworkFaultInjector",
    "NetworkFaultSpec",
    "ResumableCampaign",
    "ShardLog",
    "rng_state_digest",
    "verify_fingerprint",
]
