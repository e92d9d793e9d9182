"""``repro.store`` — content-addressed persistent shard-result cache.

A calibration shard's result is a pure function of ``(campaign spec,
seed range)``.  The campaign service (:mod:`repro.service`) and the
coordinator therefore publish every finished shard aggregate to a
**two-tier content-addressed store** that they are handed explicitly,
so a resubmitted campaign — by the same or another tenant, in this
process or after a restart — is served without running a trial:

* **memory tier** — a bounded LRU of decoded values (cheap repeat hits
  within one process);
* **disk tier** — one file per key under a root directory, written
  through a temp file and ``os.replace`` (:func:`repro.ioutil.
  replace_bytes`) and framed with a SHA-256 digest so a torn or
  bit-flipped artifact reads as a *miss* (quarantine + delete), never
  as silent corruption.  Several processes may share one root and
  write concurrently — the pid-unique temp name plus ``os.replace``
  makes the last whole write win.

The store is a **recomputable cache**: nothing in it is fsync'd.  Every
entry is a pure function of its key, so an entry a power cut loses or
tears costs one recomputation (a torn one is counted as
``store_corrupt``).  The durable record of a campaign's progress is its
shard log (:class:`repro.resilience.checkpoint.ShardLog`).

Keys are ``blake2b`` hexdigests derived by :func:`store_key` from a
*kind* tag plus canonical key parts, so two campaigns (or two users)
asking for the same artifact share one entry.  Values are plain data
(a shard aggregate's ``to_state()``), stored as canonical JSON
(:func:`repro.ioutil.canonical_json`): a read never runs code, and an
entry whose schema a code change outdated fails the caller's
``from_state`` instead of decoding into a stale object.

Eviction is by size budget: when the disk tier exceeds ``max_bytes``,
least-recently-*used* files go first (hits bump the file mtime).  All
traffic is counted on always-on stats (:meth:`ContentStore.stats`) and,
when observability is enabled, on the ``repro_store_requests_total``
metrics counter — so a service operator can watch hit rates per artifact
kind on the ``/metrics`` endpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.ioutil import canonical_json, frame, replace_bytes, unframe
from repro.obs import trace as obs

__all__ = ["ContentStore", "StoreStats", "store_key"]

#: File magic; bump when the value encoding changes (``-1`` held
#: pickles, which now read as corrupt entries).
_MAGIC = b"REPRO-STORE-2\n"

#: Default disk budget: 512 MiB holds thousands of shard results.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Default memory-tier entry bound.
DEFAULT_MEMORY_ENTRIES = 128


def _canonical(part: Any) -> str:
    """Stable text form of one key part (no memory addresses allowed)."""
    if isinstance(part, (str, int, float, bool)) or part is None:
        return repr(part)
    if isinstance(part, bytes):
        return part.hex()
    if isinstance(part, (tuple, list)):
        return "[" + ",".join(_canonical(p) for p in part) + "]"
    if isinstance(part, dict):
        return (
            "{"
            + ",".join(
                f"{_canonical(k)}:{_canonical(part[k])}" for k in sorted(part)
            )
            + "}"
        )
    text = repr(part)
    if " at 0x" in text:  # a default object repr would break key stability
        raise TypeError(
            f"store key part {type(part).__name__} has no stable repr"
        )
    return text


def store_key(kind: str, **parts: Any) -> str:
    """Content key: blake2b over the kind tag and canonical key parts.

    ``kind`` namespaces the artifact family (``"shard_result"`` in-tree)
    and is folded into the digest *and* kept as a readable prefix, so
    the disk tier is browsable and per-kind stats stay attributable.
    """
    digest = hashlib.blake2b(digest_size=20)
    digest.update(kind.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(_canonical(parts).encode("utf-8"))
    return f"{kind}-{digest.hexdigest()}"


class StoreStats:
    """Always-on traffic counters of one :class:`ContentStore`."""

    __slots__ = (
        "memory_hits", "disk_hits", "misses", "puts", "evictions",
        "corrupt", "bytes_written", "bytes_read",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _record_request(kind: str, tier: str) -> None:
    """Metrics-side accounting (no-op unless metrics are collected)."""
    tracer = obs.TRACER
    if tracer is not None and tracer.metrics is not None:
        tracer.metrics.counter(
            "repro_store_requests_total",
            "content-store lookups by artifact kind and serving tier",
            labels=("kind", "tier"),
        ).inc(kind=kind, tier=tier)


class ContentStore:
    """Two-tier (memory LRU + disk) content-addressed artifact store.

    The disk budget is enforced against an in-process upper bound of
    the disk tier's bytes: the first put lists the directory, each put
    adds its size, and only a bound past ``max_bytes`` triggers a scan,
    which evicts and resets the bound to the measured total.  An
    overwrite can only over-count, so the bound never under-evicts.
    Writes by another process sharing the root are counted at this
    process's next scan.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.memory_entries = int(memory_entries)
        self.stats = StoreStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        #: Upper bound of the disk tier's bytes; ``None`` until listed.
        self._disk_bound: Optional[int] = None

    # -- internals ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        # The suffix predates the JSON codec.  Keeping it means an entry
        # an older release wrote under the same key is read, counted as
        # corrupt and removed, rather than left outside the eviction scan.
        return self.root / f"{key}.pkl"

    @staticmethod
    def _kind(key: str) -> str:
        return key.rsplit("-", 1)[0]

    def _remember(self, key: str, value: Any) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _read_disk(self, key: str) -> Tuple[bool, Any]:
        """(found, value) from the disk tier; corruption reads as a miss."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return False, None
        self.stats.bytes_read += len(data)
        try:
            value = json.loads(unframe(_MAGIC, data))
        except ValueError:
            pass
        else:
            # A hit is a "use": bump mtime so the LRU eviction order
            # tracks access, not creation.
            try:
                os.utime(path)
            except OSError:
                pass
            return True, value
        # Torn, bit-flipped or of another format: a content-addressed
        # artifact is always recomputable, so drop it and report a miss.
        self.stats.corrupt += 1
        obs.record_resilience_event("store_corrupt", detail=key)
        try:
            os.unlink(str(path))
        except OSError:
            pass
        return False, None

    # -- API ----------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look up ``key``; returns ``(found, value)``."""
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            _record_request(self._kind(key), "memory")
            return True, self._memory[key]
        found, value = self._read_disk(key)
        if found:
            self.stats.disk_hits += 1
            _record_request(self._kind(key), "disk")
            self._remember(key, value)
            return True, value
        self.stats.misses += 1
        _record_request(self._kind(key), "miss")
        return False, None

    def put(self, key: str, value: Any, *, memory: bool = True) -> None:
        """Write the plain-data ``value`` under ``key`` (atomic, not
        fsync'd; last whole write wins).

        ``memory=False`` writes the disk tier only — for publishers that
        already hold the value themselves: the service's campaign book
        keeps each shard aggregate in its campaign state, so a memory
        copy would only pin it for the store's lifetime.
        A later :meth:`get` still fills the memory tier.
        """
        data = frame(_MAGIC, canonical_json(value).encode("utf-8"))
        replace_bytes(self._path(key), data)
        self.stats.puts += 1
        self.stats.bytes_written += len(data)
        if memory:
            self._remember(key, value)
        if self.max_bytes:
            if self._disk_bound is not None:
                self._disk_bound += len(data)
            if self._disk_bound is None or self._disk_bound > self.max_bytes:
                self.evict_to_budget()

    def contains(self, key: str) -> bool:
        return key in self._memory or self._path(key).exists()

    def total_bytes(self) -> int:
        """Bytes currently held by the disk tier."""
        return sum(size for _, _, size in self._entries())

    def _entries(self) -> Iterable[Tuple[Path, float, int]]:
        for path in self.root.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield path, stat.st_mtime, stat.st_size

    def evict_to_budget(self) -> int:
        """Delete least-recently-used artifacts until under ``max_bytes``.

        Returns the number of files evicted.  Safe against concurrent
        writers: a racing unlink is simply skipped.
        """
        entries = sorted(self._entries(), key=lambda e: (e[1], e[0].name))
        total = sum(size for _, _, size in entries)
        evicted = 0
        for path, _, size in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(str(path))
            except OSError:
                continue
            self._memory.pop(path.stem, None)
            total -= size
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
        self._disk_bound = total
        return evicted

    def clear(self) -> None:
        """Drop both tiers (fresh-start semantics; stats are kept)."""
        self._memory.clear()
        self._disk_bound = None
        for path, _, _ in self._entries():
            try:
                os.unlink(str(path))
            except OSError:
                pass

    def stats_dict(self) -> Dict[str, int]:
        """Plain-data stats snapshot (manifests, result files, tests)."""
        return self.stats.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ContentStore({str(self.root)!r}, "
            f"memory={len(self._memory)}/{self.memory_entries})"
        )
