"""Spool-directory front end: ``repro serve`` / ``repro submit``.

The service's wire protocol is the filesystem — the one transport that
is kill-proof, inspectable with ``ls``, and already crash-safe through
:mod:`repro.ioutil`.  A service *root* directory holds::

    root/
      jobs/         <campaign_id>.json   — submitted specs (atomic writes)
      results/      <campaign_id>.json   — completed campaign results
      checkpoints/  <campaign_id>.ckpt   — per-campaign PR 5 checkpoints
      store/        ...                  — content-addressed shard results
      store-stats.json                   — store traffic snapshot (artifact)

``repro submit`` drops a spec into ``jobs/``; ``repro serve`` polls the
spool, submits every job whose result does not exist yet to a
:class:`~repro.service.CampaignService`, runs the fleet to completion,
and writes results atomically.  Job files are never deleted — *a result
file existing* is the completion marker — so a SIGKILL at any instant
leaves either (job, no result): resubmitted and resumed from its
checkpoint on restart; or (job, result): done.  ``--once`` drains the
spool and exits (the CI smoke mode); otherwise the loop polls forever.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import store as repro_store
from repro.ioutil import atomic_write_text
from repro.obs import trace as obs
from repro.service.campaign import CampaignSpec
from repro.service.scheduler import CampaignService

__all__ = [
    "pending_jobs",
    "serve",
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


def serve(
    root: Union[str, Path],
    *,
    workers: Optional[Any] = None,
    once: bool = False,
    poll_seconds: float = 0.5,
    metrics_port: Optional[int] = None,
    store_bytes: Optional[int] = None,
    trial_delay: float = 0.0,
    log=print,
) -> int:
    """Run the campaign service over a spool directory.

    Drains ``root/jobs`` batch by batch: each batch of pending jobs is
    submitted to a fresh :class:`CampaignService` sharing the root's
    persistent store and checkpoint directory, run to completion, and
    its results written.  ``once`` exits when the spool is empty
    (returns 0); otherwise the loop polls forever.  ``metrics_port``
    starts the :mod:`repro.obs.http` endpoint (port 0 picks a free
    port) and enables metrics collection for the process.

    ``trial_delay`` sleeps inside every trial — the chaos knob the CI
    SIGKILL smoke uses to widen the kill window; it is excluded from
    every fingerprint and store key, so a delayed-then-killed campaign
    resumes to the undelayed reference digest.
    """
    dirs = service_dirs(root)
    store = repro_store.ContentStore(
        dirs["store"],
        max_bytes=(
            store_bytes if store_bytes is not None
            else repro_store.DEFAULT_MAX_BYTES
        ),
    )

    metrics_server = None
    if metrics_port is not None:
        from repro.obs import trace as obs_trace
        from repro.obs.http import MetricsServer

        if obs_trace.TRACER is None or obs_trace.TRACER.metrics is None:
            obs_trace.enable_tracing(collect_metrics=True)
        metrics_server = MetricsServer(port=metrics_port)
        log(f"serving metrics on http://127.0.0.1:{metrics_server.port}/metrics")

    pre_trial = None
    if trial_delay > 0:

        def pre_trial(index: int) -> None:
            time.sleep(trial_delay)

    try:
        while True:
            specs = pending_jobs(root, log=log)
            if not specs:
                if once:
                    break
                time.sleep(poll_seconds)
                continue
            service = CampaignService(
                workers=workers,
                store=store,
                checkpoint_dir=dirs["checkpoints"],
                pre_trial=pre_trial,
            )
            for spec in specs:
                cid = service.submit(spec)
                state = service.campaign(cid)
                log(
                    f"campaign {cid} tenant={spec.tenant} "
                    f"shards={len(state.shards)} "
                    f"resumed={state.resumed_shards} "
                    f"cached={state.cached_shards}"
                )
            for cid, result in service.run_until_complete().items():
                write_result(dirs, cid, result)
                log(f"campaign {cid} digest: {result['digest']}")
            write_store_stats(dirs, store)
    finally:
        write_store_stats(dirs, store)
        if metrics_server is not None:
            metrics_server.close()
    return 0
