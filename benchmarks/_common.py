"""Shared benchmark-harness helpers: result emission with provenance.

Every emitted table/figure gets a ``results/<name>.manifest.json``
written beside it by :func:`write_result` — a
:class:`repro.obs.manifest.RunManifest` recording the env knob
(``REPRO_BENCH_SCALE``), the active
fold-kernel backend and its dispatch counts, the manycore pool's
group-batching stats, the git revision, the interpreter/numpy versions
and a SHA-256 digest of the result text, so a committed number can
always be traced back to the configuration that produced it.

Run ``PYTHONPATH=src python benchmarks/_common.py`` to *backfill*
manifests for already-committed result files that predate this harness
(their manifests carry ``source: "backfill"`` — digest and code version
are current, per-run seeds and wall time are unknown).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro import kernels
from repro.core.manycore import group_batch_stats
from repro.ioutil import atomic_write_text
from repro.obs import RunManifest

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(
    name: str,
    text: str,
    *,
    duration_seconds: Optional[float] = None,
    results_dir: Optional[Path] = None,
    extra: Optional[dict] = None,
) -> Path:
    """Write ``results/<name>.txt`` plus its run manifest; returns the path.

    Both the result text and the manifest land atomically (temp + fsync
    + rename) so a bench killed mid-emission — the whole point of the
    resilience layer's ``--resume`` — can never leave a torn result file
    that a later resumed run would silently trust.
    """
    results_dir = results_dir or RESULTS_DIR
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{name}.txt"
    body = text + "\n"
    atomic_write_text(path, body)
    manifest_extra = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        # Which fold-kernel backend produced these numbers, plus how
        # the manycore pool dispatched its payloads — a committed
        # result is attributable to its execution path, not just its
        # env knobs.
        "kernels": {
            "backend": kernels.active_backend(),
            "dispatch_counts": kernels.kernel_dispatch_counts(),
        },
        "group_batching": group_batch_stats(),
    }
    if extra:
        manifest_extra.update(extra)
    manifest = RunManifest.capture(
        name,
        duration_seconds=duration_seconds,
        extra=manifest_extra,
    )
    manifest.add_result(path.name, body)
    manifest.write(results_dir / f"{name}.manifest.json")
    return path


def backfill_manifests(results_dir: Optional[Path] = None) -> int:
    """Write ``source="backfill"`` manifests for committed result files.

    Only fills gaps — result files that already have a manifest are left
    alone.  Returns the number of manifests written.
    """
    results_dir = results_dir or RESULTS_DIR
    written = 0
    for result in sorted(results_dir.glob("*.txt")):
        manifest_path = results_dir / f"{result.stem}.manifest.json"
        if manifest_path.exists():
            continue
        manifest = RunManifest.capture(result.stem, source="backfill")
        manifest.add_result(result.name, result.read_text())
        manifest.write(manifest_path)
        written += 1
    return written


if __name__ == "__main__":
    count = backfill_manifests()
    print(f"backfilled {count} manifest(s) into {RESULTS_DIR}")
