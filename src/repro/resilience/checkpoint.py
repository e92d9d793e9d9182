"""Crash-safe resumable experiment checkpoints (temp + fsync + rename).

The paper's campaigns are long: Figure 4 alone is 10,000 blocks x 1,000
probes (~30 min at full scale in this repro), the Table 2/3 sweeps run
millions of bits at paper size.  A SIGKILL'd worker box, an OOM reaper
or a torn file must not cost the whole run, so campaign progress is
persisted through three layers:

* :class:`CheckpointStore` — one checkpoint file, written atomically via
  :mod:`repro.ioutil` and framed with a magic header plus a SHA-256
  digest of the payload.  Every ``save`` first demotes the current file
  to ``<path>.prev``, so there is always a *last good* generation;
  ``load`` verifies the digest and **automatically rolls back** to the
  previous generation when the current one is torn or bit-flipped
  (quarantining the corrupt file as ``<path>.corrupt`` for forensics,
  and counting the rollback on the always-on resilience counters).
* :class:`ResumableCampaign` — a checkpointed ``pool.map``: trial
  results accumulate in batches, each batch boundary saves a checkpoint
  (results so far, the campaign fingerprint, and — when the campaign
  owns a generator — the exact RNG stream position), and a resumed run
  skips completed trials and restores the stream position, so the final
  result list is **bit-identical** to an uninterrupted run.  A
  fingerprint mismatch (same file, different experiment parameters)
  raises :class:`CheckpointMismatch` instead of silently mixing results.
* the wiring in :func:`repro.core.calibration.stability_experiment`,
  :func:`repro.core.calibration.find_block`,
  :meth:`repro.core.covert.CovertChannel.trial_sweep`, the
  fig4/table2/table3 benches (``--resume``) and the ``repro campaign``
  CLI.

Determinism contract: a campaign is resumable bit-identically iff each
trial is a pure function of its payload index (the
:mod:`repro.parallel` contract already requires this for worker-count
invariance) or all inter-trial RNG state flows through the campaign's
``rng`` (serial campaigns only — the checkpoint then carries the stream
position across the kill).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.ioutil import atomic_write_bytes, frame, fsync_directory, unframe
from repro.obs import trace as obs

__all__ = [
    "CheckpointError",
    "CheckpointCorruption",
    "CheckpointMismatch",
    "CheckpointStore",
    "ResumableCampaign",
    "rng_state_digest",
    "verify_fingerprint",
]

#: File magic; bump the version when the payload schema changes.
MAGIC = b"REPRO-CKPT-1\n"

#: Pickle protocol pinned for stable bytes across interpreter minors.
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures."""


class CheckpointCorruption(CheckpointError):
    """Checkpoint (and any previous generation) failed integrity checks."""


class CheckpointMismatch(CheckpointError):
    """Checkpoint belongs to a different campaign (fingerprint differs)."""


def _encode(state: Dict[str, Any]) -> bytes:
    return frame(MAGIC, pickle.dumps(state, protocol=_PICKLE_PROTOCOL))


def _decode(data: bytes, path: Path) -> Dict[str, Any]:
    try:
        payload = unframe(MAGIC, data)
    except ValueError as exc:  # torn, bit-flipped or foreign file
        raise CheckpointCorruption(f"{path}: {exc}")
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # digest passed but unpicklable → corrupt
        raise CheckpointCorruption(f"{path}: undecodable payload: {exc}")
    if not isinstance(state, dict):
        raise CheckpointCorruption(f"{path}: unexpected payload type")
    return state


def rng_state_digest(rng: np.random.Generator) -> str:
    """Canonical SHA-256 of a generator's exact stream position."""
    state = rng.bit_generator.state

    def plain(obj):
        if isinstance(obj, dict):
            return {k: plain(obj[k]) for k in sorted(obj)}
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer,)):
            return int(obj)
        return obj

    text = json.dumps(plain(state), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Two-generation atomic checkpoint file with integrity verification.

    ``save`` is crash-safe at every instant: the payload is fsync'd
    under a temp name before any rename, the demotion of the current
    generation and the promotion of the new one are single
    ``os.replace`` calls, and a kill between them leaves either
    (current), (current + prev) or (prev only) — ``load`` handles all
    three.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.previous_path = self.path.with_name(self.path.name + ".prev")
        self.corrupt_path = self.path.with_name(self.path.name + ".corrupt")

    def exists(self) -> bool:
        return self.path.exists() or self.previous_path.exists()

    def save(self, state: Dict[str, Any]) -> Path:
        """Persist ``state``; the prior checkpoint becomes the rollback."""
        data = _encode(state)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            os.replace(str(self.path), str(self.previous_path))
            fsync_directory(self.path.parent)
        atomic_write_bytes(self.path, data)
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "resilience",
                "checkpoint_saved",
                path=str(self.path),
                bytes=len(data),
            )
        return self.path

    def load(self) -> Optional[Dict[str, Any]]:
        """The newest intact checkpoint state, or ``None`` if none exists.

        A corrupt current generation triggers automatic rollback: the
        bad file is quarantined as ``<path>.corrupt`` and the previous
        generation is promoted back to current (so subsequent saves
        re-demote it normally).  Raises :class:`CheckpointCorruption`
        only when *no* generation survives verification.
        """
        failures = []
        if self.path.exists():
            try:
                return _decode(self.path.read_bytes(), self.path)
            except CheckpointCorruption as exc:
                failures.append(str(exc))
                os.replace(str(self.path), str(self.corrupt_path))
        if self.previous_path.exists():
            try:
                state = _decode(
                    self.previous_path.read_bytes(), self.previous_path
                )
            except CheckpointCorruption as exc:
                failures.append(str(exc))
            else:
                if failures:  # current was corrupt → this is a rollback
                    obs.record_resilience_event(
                        "checkpoint_rollback", detail=str(self.path)
                    )
                os.replace(str(self.previous_path), str(self.path))
                fsync_directory(self.path.parent)
                return state
        if failures:
            raise CheckpointCorruption(
                "no intact checkpoint generation: " + "; ".join(failures)
            )
        return None

    def clear(self) -> None:
        """Delete every generation (fresh-start semantics)."""
        for path in (self.path, self.previous_path, self.corrupt_path):
            try:
                os.unlink(str(path))
            except OSError:
                pass


def as_store(
    checkpoint: Union[str, Path, CheckpointStore]
) -> CheckpointStore:
    """Coerce a path-or-store argument to a :class:`CheckpointStore`."""
    if isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)


def verify_fingerprint(
    store: CheckpointStore,
    state: Optional[Dict[str, Any]],
    fingerprint: Dict[str, Any],
) -> Optional[Dict[str, Any]]:
    """Reject a checkpoint that belongs to a different experiment.

    Returns ``state`` unchanged when it is ``None`` or carries the
    expected ``fingerprint``; raises :class:`CheckpointMismatch`
    otherwise.  Every resumable surface (``find_block``,
    :class:`ResumableCampaign`, the campaign service) funnels its resume
    decision through here so the mismatch semantics — and the error
    message a user debugs from — stay identical.
    """
    if state is not None and state.get("fingerprint") != fingerprint:
        raise CheckpointMismatch(
            f"{store.path} belongs to a different campaign: checkpointed "
            f"{state.get('fingerprint')!r} vs requested {fingerprint!r}"
        )
    return state


class ResumableCampaign:
    """A checkpointed, resumable ``pool.map`` over independent trials.

    Parameters
    ----------
    checkpoint:
        Path or :class:`CheckpointStore` holding campaign progress.
    fingerprint:
        Plain-data identity of the campaign (experiment name and every
        result-shaping parameter).  A checkpoint whose fingerprint
        differs raises :class:`CheckpointMismatch` on resume rather than
        splicing two different experiments together.
    interval:
        Trials per checkpointed batch; ``None`` picks ~8 checkpoints
        over the campaign.  Smaller loses less work per kill, larger
        amortises the save better.
    rng:
        Optional generator whose exact stream position is saved at every
        batch boundary and restored on resume — required for serial
        campaigns whose trials chain draws on a shared stream.
    resume:
        ``False`` ignores (and clears) any existing checkpoint.
    """

    def __init__(
        self,
        checkpoint: Union[str, Path, CheckpointStore],
        *,
        fingerprint: Dict[str, Any],
        interval: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        resume: bool = True,
    ) -> None:
        if interval is not None and interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.store = as_store(checkpoint)
        self.fingerprint = fingerprint
        self.interval = interval
        self.rng = rng
        self.resume = resume
        #: Trials skipped on the most recent :meth:`map` (resume depth).
        self.last_resumed: int = 0

    # -- internals ----------------------------------------------------------

    def _load_state(self) -> Optional[Dict[str, Any]]:
        if not self.resume:
            self.store.clear()
            return None
        return verify_fingerprint(self.store, self.store.load(), self.fingerprint)

    def _save_state(
        self, results: Dict[int, Any], total: int, complete: bool
    ) -> None:
        state: Dict[str, Any] = {
            "fingerprint": self.fingerprint,
            "results": dict(results),
            "total": total,
            "complete": complete,
        }
        if self.rng is not None:
            state["rng_state"] = self.rng.bit_generator.state
        self.store.save(state)

    # -- API ----------------------------------------------------------------

    def map(
        self,
        pool,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
    ) -> List[Any]:
        """``pool.map(fn, payloads)`` with batch-boundary checkpoints.

        ``pool`` is anything exposing ``map(fn, payloads)`` — a
        :class:`repro.parallel.TrialPool` in practice.  Results are
        returned in payload order; a resumed campaign re-runs only the
        trials no completed checkpoint covers.
        """
        payloads = list(payloads)
        total = len(payloads)
        state = self._load_state()
        results: Dict[int, Any] = {}
        if state is not None:
            if state.get("total") != total:
                raise CheckpointMismatch(
                    f"{self.store.path}: checkpointed campaign has "
                    f"{state.get('total')} trials, requested {total}"
                )
            results = {int(k): v for k, v in state["results"].items()}
            if self.rng is not None and "rng_state" in state:
                self.rng.bit_generator.state = state["rng_state"]
            self.last_resumed = len(results)
            if self.last_resumed:
                obs.record_resilience_event(
                    "campaign_resume",
                    detail=str(self.store.path),
                    n=self.last_resumed,
                )
            if state.get("complete"):
                return [results[i] for i in range(total)]
        else:
            self.last_resumed = 0
        todo = [i for i in range(total) if i not in results]
        interval = self.interval or max(1, -(-total // 8))
        for start in range(0, len(todo), interval):
            batch = todo[start:start + interval]
            out = pool.map(fn, [payloads[i] for i in batch])
            results.update(zip(batch, out))
            self._save_state(results, total, complete=False)
        self._save_state(results, total, complete=True)
        return [results[i] for i in range(total)]
