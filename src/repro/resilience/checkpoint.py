"""Crash-safe resumable experiment checkpoints: one append-only record log.

The paper's campaigns are long: Figure 4 alone is 10,000 blocks x 1,000
probes (~30 min at full scale in this repro), the Table 2/3 sweeps run
millions of bits at paper size.  A SIGKILL'd worker box, an OOM reaper
or a torn file must not cost the whole run, so every checkpoint in the
repro is the same file, a :class:`ShardLog`:

* a magic line, a header record holding the campaign fingerprint, then
  one record per finished unit of work; every record is a line of
  canonical JSON behind its own SHA-256 digest;
* the first write creates the file atomically with the header and the
  first records; every later write is one ``O_APPEND`` plus one
  ``fsync``, so each finished unit is written once;
* a record that fails its digest (a torn tail, a bit flip) is skipped
  and counted, and the log is rewritten without it before the next
  append; a file that is not a log at all (the framed pickle an older
  release wrote) is quarantined as ``<path>.corrupt`` and the run
  starts afresh;
* a header holding another fingerprint (same file, different
  experiment parameters) raises :class:`CheckpointMismatch` instead of
  silently mixing results.

Three writers share it:

* the campaign service (:mod:`repro.service.scheduler`): one record per
  finished shard, holding the shard aggregate's ``to_state()``;
* :class:`ResumableCampaign`, a checkpointed ``pool.map``: one record
  per finished trial, each batch one append, so a resumed run skips the
  finished trials and its result list is **bit-identical** to an
  uninterrupted run's.  It backs
  :func:`repro.core.calibration.stability_experiment`,
  :meth:`repro.core.covert.CovertChannel.trial_sweep`, the
  fig4/table2/table3 benches (``--resume``) and the ``repro campaign``
  CLI;
* :func:`repro.core.calibration.find_block`: one record per
  :data:`~repro.core.calibration.CHECKPOINT_WAVE` candidates, of which
  the last wins.

Determinism contract: a campaign is resumable bit-identically iff each
trial is a pure function of its payload index (the :mod:`repro.parallel`
determinism contract).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.ioutil import append_bytes, atomic_write_bytes, canonical_json
from repro.obs import trace as obs

__all__ = [
    "CheckpointMismatch",
    "ResumableCampaign",
    "ShardLog",
    "rng_state_digest",
]


class CheckpointMismatch(RuntimeError):
    """Checkpoint belongs to a different campaign (fingerprint differs)."""


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


#: First line of a shard log; bump the version when the record schema
#: changes.
SHARD_LOG_MAGIC = b"REPRO-SHARDS-1\n"


def _log_record(obj: Any) -> bytes:
    """One log line: SHA-256 hex of the canonical JSON, a space, the JSON."""
    payload = canonical_json(obj).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return digest + b" " + payload + b"\n"


def _read_record(line: bytes) -> Any:
    """The decoded payload of one log line, or ``None`` if it fails."""
    digest, separator, payload = line[:64], line[64:65], line[65:]
    digest_ok = hashlib.sha256(payload).hexdigest().encode("ascii") == digest
    if separator != b" " or not digest_ok:
        return None
    try:
        return json.loads(payload)
    except ValueError:
        return None


class ShardLog:
    """An append-only, per-record-digested checkpoint log (see the module
    docstring); each record pairs an index (a shard, a trial, a search
    position) with its plain-data state.

    ``fingerprint`` is the campaign's plain-data identity; a log whose
    header holds another raises :class:`CheckpointMismatch` on
    :meth:`load`.  Call :meth:`load` (or :meth:`clear`) before the first
    :meth:`append`: it decides whether the next append creates the file,
    and it removes bad records so no append lands after a torn tail.
    """

    def __init__(self, path, fingerprint: Dict[str, Any]) -> None:
        self.path = Path(path)
        self.corrupt_path = self.path.with_name(self.path.name + ".corrupt")
        #: The fingerprint as the header stores it (JSON round-tripped).
        self.fingerprint = json.loads(canonical_json(fingerprint))
        self._created = False

    def _header(self) -> bytes:
        return SHARD_LOG_MAGIC + _log_record({"fingerprint": self.fingerprint})

    def load(self) -> Dict[int, Any]:
        """Each durable record's state, by index (a later record of the
        same index replaces an earlier one)."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            self._created = False
            return {}
        lines = data.split(b"\n")
        torn_tail = lines.pop()  # b"" when the last record is whole
        header = _read_record(lines[1]) if (
            len(lines) > 1 and lines[0] + b"\n" == SHARD_LOG_MAGIC
        ) else None
        if not isinstance(header, dict) or "fingerprint" not in header:
            # Not a log (an older release's pickle checkpoint) or a
            # header that fails its digest: keep it for forensics, start
            # fresh.
            obs.record_resilience_event(
                "checkpoint_corrupt", detail=str(self.path)
            )
            os.replace(str(self.path), str(self.corrupt_path))
            self._created = False
            return {}
        if header["fingerprint"] != self.fingerprint:
            raise CheckpointMismatch(
                f"{self.path} belongs to a different campaign: checkpointed "
                f"{header['fingerprint']!r} vs requested {self.fingerprint!r}"
            )
        shards: Dict[int, Any] = {}
        good: List[bytes] = []
        bad = 1 if torn_tail else 0
        for line in lines[2:]:
            record = _read_record(line)
            if (
                isinstance(record, dict)
                and isinstance(record.get("shard"), int)
                and "state" in record
            ):
                shards[record["shard"]] = record["state"]
                good.append(line + b"\n")
            else:
                bad += 1
        if bad:
            obs.record_resilience_event(
                "checkpoint_corrupt", detail=str(self.path), n=bad
            )
            if good:
                atomic_write_bytes(self.path, self._header() + b"".join(good))
            else:
                os.unlink(str(self.path))
        self._created = bool(good)
        return shards

    def append(self, shards: Iterable[Tuple[int, Any]]) -> None:
        """Durably record ``(index, state)`` pairs: the first write
        creates the log atomically, later ones are one fsync'd append
        each."""
        data = b"".join(
            _log_record({"shard": index, "state": state})
            for index, state in shards
        )
        if self._created:
            append_bytes(self.path, data)
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self.path, self._header() + data)
        self._created = True

    def clear(self) -> None:
        """Delete the log (fresh-start semantics)."""
        for path in (self.path, self.corrupt_path):
            try:
                os.unlink(str(path))
            except OSError:
                pass
        self._created = False


class ResumableCampaign:
    """A checkpointed, resumable ``pool.map`` over independent trials.

    Parameters
    ----------
    checkpoint:
        Path of the campaign's :class:`ShardLog`.
    fingerprint:
        Plain-data identity of the campaign (experiment name and every
        result-shaping parameter).  The log's header holds it together
        with the trial count, so a checkpoint of another campaign, or of
        this one at another size, raises :class:`CheckpointMismatch` on
        resume rather than splicing two experiments together.
    interval:
        Trials per checkpointed batch; ``None`` picks ~8 batches over
        the campaign.  Smaller loses less work per kill, larger
        amortises the append better.
    resume:
        ``False`` ignores (and clears) any existing checkpoint.
    result_type:
        The class of the trials' results, with ``to_state()`` and
        ``from_state()`` (:class:`~repro.core.calibration.
        BlockAssessment`); ``None`` means the results are plain JSON
        data and are logged as they are (a tuple comes back as a list).
    """

    def __init__(
        self,
        checkpoint,
        *,
        fingerprint: Dict[str, Any],
        interval: Optional[int] = None,
        resume: bool = True,
        result_type: Optional[type] = None,
    ) -> None:
        if interval is not None and interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.path = Path(checkpoint)
        self.fingerprint = fingerprint
        self.interval = interval
        self.resume = resume
        self.result_type = result_type
        #: Trials skipped on the most recent :meth:`map` (resume depth).
        self.last_resumed: int = 0

    def map(
        self,
        pool,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
    ) -> List[Any]:
        """``pool.map(fn, payloads)`` with one log append per batch.

        ``pool`` is anything exposing ``map(fn, payloads)`` — a
        :class:`repro.parallel.TrialPool` or a
        :class:`~repro.core.manycore.ManycoreCampaignPool`.  Results are
        returned in payload order; a resumed campaign re-runs only the
        trials the log does not hold.
        """
        payloads = list(payloads)
        total = len(payloads)
        log = ShardLog(
            self.path, {"campaign": self.fingerprint, "trials": total}
        )
        kind = self.result_type
        results: Dict[int, Any] = {}
        if self.resume:
            for index, state in log.load().items():
                results[index] = kind.from_state(state) if kind else state
        else:
            log.clear()
        self.last_resumed = len(results)
        if self.last_resumed:
            obs.record_resilience_event(
                "campaign_resume", detail=str(self.path), n=self.last_resumed
            )
        todo = [i for i in range(total) if i not in results]
        interval = self.interval or max(1, -(-total // 8))
        for start in range(0, len(todo), interval):
            batch = todo[start:start + interval]
            out = pool.map(fn, [payloads[i] for i in batch])
            log.append(
                (i, result.to_state() if kind else result)
                for i, result in zip(batch, out)
            )
            results.update(zip(batch, out))
        return [results[i] for i in range(total)]
