"""Spool-directory files behind ``repro serve`` / ``repro submit``.

The service's durable interface is the filesystem — the one transport
that is kill-proof, inspectable with ``ls``, and already crash-safe
through :mod:`repro.ioutil`.  A service *root* directory holds::

    root/
      jobs/         <campaign_id>.json   — submitted specs (atomic writes)
      results/      <campaign_id>.json   — completed campaign results
      checkpoints/  <campaign_id>.ckpt   — per-campaign shard logs (the
                                           one durable record; fsync'd
                                           append per finished shard)
      store/        ...                  — content-addressed shard results
                                           (a recomputable cache, no fsync)
      store-stats.json                   — store traffic snapshot (artifact)
      coordinator.json                   — the serving coordinator's URL

``repro submit`` drops a spec into ``jobs/``; ``repro serve`` runs the
:mod:`~repro.service.coordinator`, which registers every job whose
result does not exist yet, leases its shards to workers and writes
results atomically.  Job files are never deleted — *a result file
existing* is the completion marker — so a SIGKILL at any instant
leaves either (job, no result): resubmitted and resumed from its
checkpoint on restart; or (job, result): done.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro import store as repro_store
from repro.ioutil import atomic_write_text
from repro.obs import trace as obs
from repro.service.campaign import CampaignSpec

__all__ = [
    "pending_jobs",
    "service_dirs",
    "submit_job",
    "write_result",
    "write_store_stats",
]


def service_dirs(root: Union[str, Path]) -> Dict[str, Path]:
    """Create (if needed) and return the service's directory layout."""
    root = Path(root)
    dirs = {
        "root": root,
        "jobs": root / "jobs",
        "results": root / "results",
        "checkpoints": root / "checkpoints",
        "store": root / "store",
    }
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    return dirs


def submit_job(root: Union[str, Path], spec: CampaignSpec) -> Path:
    """Queue ``spec`` in the spool; returns the job file path.

    Atomic write — a concurrently polling server sees either no job or
    the whole job.  Submitting an identical spec twice is a no-op (same
    campaign id, same file content).
    """
    dirs = service_dirs(root)
    path = dirs["jobs"] / f"{spec.campaign_id()}.json"
    atomic_write_text(path, spec.to_json() + "\n")
    return path


def pending_jobs(
    root: Union[str, Path], *, log=None
) -> List[CampaignSpec]:
    """Specs queued in the spool whose results do not exist yet.

    A job file that fails to parse — torn partial write from a
    non-atomic client, foreign file, hand-edited JSON — is *quarantined*
    (renamed to ``<job>.json.corrupt``, out of every future glob),
    counted on the always-on ``spool_corrupt`` resilience counter, and
    warned about via ``log``; it can never crash or wedge the service
    loop.  Quarantining rather than skipping matters for the polling
    loop: a skipped-but-present bad file would be re-parsed (and
    re-logged) every poll forever.
    """
    dirs = service_dirs(root)
    specs = []
    for path in sorted(dirs["jobs"].glob("*.json")):
        if (dirs["results"] / path.name).exists():
            continue
        try:
            specs.append(CampaignSpec.from_json(path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            quarantine = path.with_name(path.name + ".corrupt")
            try:
                path.rename(quarantine)
            except OSError:  # pragma: no cover - racing unlink
                continue
            obs.record_resilience_event(
                "spool_corrupt", detail=path.name
            )
            if log is not None:
                log(
                    f"warning: malformed job {path.name} quarantined "
                    f"to {quarantine.name}: {exc}"
                )
    return specs


def write_result(
    dirs: Dict[str, Path], campaign_id: str, result: Dict[str, Any]
) -> Path:
    """Atomically publish one campaign's result (the completion marker)."""
    path = dirs["results"] / f"{campaign_id}.json"
    atomic_write_text(
        path, json.dumps(result, sort_keys=True, indent=2) + "\n"
    )
    return path


def write_store_stats(
    dirs: Dict[str, Path], store: repro_store.ContentStore
) -> None:
    """Snapshot the store's traffic counters beside the spool."""
    stats = dict(store.stats_dict())
    stats["disk_bytes"] = store.total_bytes()
    atomic_write_text(
        dirs["root"] / "store-stats.json",
        json.dumps(stats, sort_keys=True, indent=2) + "\n",
    )
