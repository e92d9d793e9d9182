"""Crash-safe file primitives: atomic replace, durable append, one frame.

Long campaigns die in ugly ways — OOM kills, SIGKILL from a batch
scheduler, a full disk — and a plain ``path.write_text`` caught mid-write
leaves a torn file that poisons every later run reading it.  Everything
in this repo that persists state a future process will trust (benchmark
results and their provenance manifests, campaign checkpoints) goes
through these helpers instead.  :func:`atomic_write_bytes`:

1. write the full payload to a unique temp file *in the target
   directory* (same filesystem, so the final rename is atomic);
2. flush and ``fsync`` the temp file, so the payload is durable before
   the name is;
3. ``os.replace`` onto the destination — readers see either the old
   complete file or the new complete file, never a prefix;
4. best-effort ``fsync`` of the directory, so the rename itself survives
   a power cut (skipped on platforms where directories can't be opened).

:func:`append_bytes` is the second durable primitive: one ``O_APPEND``
write to a file that an atomic write created, then one ``fsync``.  The
campaign shard logs (:class:`repro.resilience.checkpoint.ShardLog`)
grow through it, one fsync per finished shard; a kill mid-append
leaves a torn tail that the log's per-record digest rejects.

:func:`replace_bytes` is steps 1 and 3 alone, with no ``fsync``: for
recomputable caches (the content store, :mod:`repro.store`), where a
file a power cut tears reads as a counted miss, not as lost work.

The same modules share one record frame, ``MAGIC + sha256 hex + "\n"
+ payload`` (:func:`frame` / :func:`unframe`): the content store's
entries and the wire bodies put canonical JSON inside it, so a torn or
bit-flipped record fails the digest check instead of decoding into
something else.  :func:`canonical_json` is the one byte-encoding of
plain data that the store, the wire bodies and the checkpoint logs
digest.

No repro imports — this module sits below ``repro.obs`` and
``repro.resilience`` so both (and the benchmark harness) can use it
without cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Union

__all__ = [
    "append_bytes",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "frame",
    "fsync_directory",
    "replace_bytes",
    "unframe",
]

PathLike = Union[str, Path]


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory's entry table (best effort, POSIX only)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _replace(path: Path, data: bytes, durable: bool) -> Path:
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(str(tmp), str(path))
    except BaseException:
        try:
            os.unlink(str(tmp))
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(path.parent)
    return path


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically and durably replace ``path`` with ``data``; returns
    the path.

    The temp name includes the pid so concurrent writers (processes
    emitting to a shared results dir) never clobber each other's
    in-flight temp file; the last ``os.replace`` wins whole.
    """
    return _replace(Path(path), data, durable=True)


def replace_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``, without any ``fsync``.

    Readers still see a whole old or a whole new file; a power cut may
    lose or tear the new one, so only recomputable caches use it.
    """
    return _replace(Path(path), data, durable=False)


def append_bytes(path: PathLike, data: bytes) -> None:
    """Append ``data`` to the existing file ``path``, then ``fsync`` it.

    The file must already exist (made by :func:`atomic_write_bytes`,
    whose directory fsync made its name durable), so one file fsync
    makes the appended bytes durable.
    """
    fd = os.open(str(path), os.O_WRONLY | os.O_APPEND)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``; returns the path."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def canonical_json(obj: Any) -> str:
    """The one byte-encoding of ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frame(magic: bytes, payload: bytes) -> bytes:
    """``magic + sha256(payload) hex + "\\n" + payload``."""
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return magic + digest + b"\n" + payload


def unframe(magic: bytes, data: bytes) -> bytes:
    """The payload of a :func:`frame` record.

    Raises :exc:`ValueError` naming the first check that failed: bad
    magic, bad digest line, or digest mismatch.
    """
    if not data.startswith(magic):
        raise ValueError("bad magic")
    digest, sep, payload = data[len(magic):].partition(b"\n")
    if not sep or len(digest) != 64:
        raise ValueError("bad digest line")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise ValueError("digest mismatch")
    return payload
