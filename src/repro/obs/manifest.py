"""Run manifests: provenance records written next to every result.

Three perf PRs committed benchmark numbers to ``benchmarks/results/``
with no record of the seed, preset, scale knob or code version that
produced them — a reproduction repo reproducing *itself* badly.  A
:class:`RunManifest` captures that provenance in one JSON document:

* the experiment identity (``name``, preset, seed),
* the environment knob that changes workload size
  (``REPRO_BENCH_SCALE``),
* the code version (git SHA, dirty flag, package version),
* wall time and a SHA-256 digest per result artifact.

The benchmark harness (``benchmarks/_common.py``) writes
``results/<name>.manifest.json`` beside every emitted table; the CLI's
``--trace`` runs write one next to the trace file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.ioutil import atomic_write_text

__all__ = ["RunManifest", "git_revision", "sha256_text"]

SCHEMA_VERSION = 1

#: Environment knobs that change what a run computes (recorded verbatim;
#: absent variables are recorded as null so their absence is provenance
#: too).
ENV_KNOBS = ("REPRO_BENCH_SCALE",)


def sha256_text(text: str) -> str:
    """Digest of a result artifact's text (newline-normalised)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_revision(cwd: Optional[Path] = None) -> Optional[Dict[str, Any]]:
    """Best-effort ``{"sha": ..., "dirty": ...}`` of the working tree.

    Returns ``None`` when git (or a repository) is unavailable — a
    manifest must never fail a run over provenance it cannot collect.
    """
    try:
        cwd = cwd or Path(__file__).resolve().parent
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return None


@dataclass
class RunManifest:
    """Provenance of one experiment/benchmark run (JSON-serialisable)."""

    name: str
    created_unix: float
    #: "run" for manifests written by the run itself; "backfill" for
    #: manifests reconstructed from an already-committed result file
    #: (digest and code version are current, seeds/wall time unknown).
    source: str = "run"
    preset: Optional[str] = None
    seed: Optional[int] = None
    env: Dict[str, Optional[str]] = field(default_factory=dict)
    git: Optional[Dict[str, Any]] = None
    python: str = ""
    numpy: str = ""
    repro_version: str = ""
    duration_seconds: Optional[float] = None
    #: Result-file name -> SHA-256 of its text contents.
    results: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def capture(
        cls,
        name: str,
        *,
        source: str = "run",
        preset: Optional[str] = None,
        seed: Optional[int] = None,
        duration_seconds: Optional[float] = None,
        results: Optional[Dict[str, str]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """Build a manifest, collecting environment and code version."""
        import numpy

        try:
            from repro import __version__ as repro_version
        except Exception:  # pragma: no cover - circular-import guard
            repro_version = ""
        return cls(
            name=name,
            created_unix=time.time(),
            source=source,
            preset=preset,
            seed=seed,
            env={knob: os.environ.get(knob) for knob in ENV_KNOBS},
            git=git_revision(),
            python=platform.python_version(),
            numpy=numpy.__version__,
            repro_version=repro_version,
            duration_seconds=duration_seconds,
            results=dict(results or {}),
            extra=dict(extra or {}),
        )

    def add_result(self, filename: str, text: str) -> None:
        """Record (and digest) one result artifact."""
        self.results[filename] = sha256_text(text)

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> Path:
        """Atomically write the manifest JSON to ``path``; returns the path.

        Atomic (temp + fsync + rename, :mod:`repro.ioutil`) so a crash
        mid-write can never leave a torn manifest beside a good result —
        readers see the old manifest or the new one, nothing between.
        """
        path = Path(path)
        atomic_write_text(path, self.to_json())
        return path

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))
