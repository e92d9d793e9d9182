"""Crash-safe file primitives: atomic replace-on-write with fsync.

Long campaigns die in ugly ways — OOM kills, SIGKILL from a batch
scheduler, a full disk — and a plain ``path.write_text`` caught mid-write
leaves a torn file that poisons every later run reading it.  Everything
in this repo that persists state a future process will trust (benchmark
results and their provenance manifests, campaign checkpoints) goes
through these helpers instead:

1. write the full payload to a unique temp file *in the target
   directory* (same filesystem, so the final rename is atomic);
2. flush and ``fsync`` the temp file, so the payload is durable before
   the name is;
3. ``os.replace`` onto the destination — readers see either the old
   complete file or the new complete file, never a prefix;
4. best-effort ``fsync`` of the directory, so the rename itself survives
   a power cut (skipped on platforms where directories can't be opened).

The same modules share one record frame, ``MAGIC + sha256 hex + "\n"
+ payload`` (:func:`frame` / :func:`unframe`): the content store's
entries, the checkpoints and the wire bodies each put their own codec
inside it, so a torn or bit-flipped record fails the digest check
instead of decoding into something else.

No repro imports — this module sits below ``repro.obs`` and
``repro.resilience`` so both (and the benchmark harness) can use it
without cycles.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "frame",
    "fsync_directory",
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


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``; returns the path.

    The temp name includes the pid so concurrent writers (forked trial
    workers emitting to a shared results dir) never clobber each other's
    in-flight temp file; the last ``os.replace`` wins whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(str(tmp), str(path))
    except BaseException:
        try:
            os.unlink(str(tmp))
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``; returns the path."""
    return atomic_write_bytes(path, text.encode("utf-8"))


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
