"""Supervised process-pool trial engine for embarrassingly-parallel runs.

The paper's evaluation is built out of *independent trials*: candidate
blocks in the §6.2 calibration search and the Figure 4 stability
experiment, message transmissions in the Table 2/3 covert-channel
sweeps, parameter cells in the ablation benches.  Each trial simulates
branches against its own core state and returns a small result object,
which is exactly the worker-pool-over-test-cases shape fuzzing harnesses
use at scale.  :class:`TrialPool` provides that engine:

* **fork dispatch** — trials run in ``fork``-context worker processes,
  so the trial function may be any closure over parent state (cores,
  compiled blocks, factories): the function itself is handed to workers
  through a pre-fork module global and is never pickled, only payloads
  and results cross the process boundary;
* **chunked dispatch, ordered collection** — payloads are dispatched in
  index-ordered chunks and results are reassembled in payload order, so
  callers observe exactly the serial loop's result list;
* **supervision** — every chunk runs in its own forked worker whose
  liveness the parent watches (process sentinel + a shared heartbeat the
  worker bumps per trial) and whose result frame is integrity-checked
  (SHA-256 over the pickled results).  A worker that dies, hangs past
  the heartbeat deadline, or returns a corrupted frame gets its chunk
  **requeued with exponential backoff + jitter**; after ``max_retries``
  the pool **degrades gracefully to the serial engine** (the chunk runs
  in-process), surfaced on the always-on resilience counters
  (:func:`repro.obs.trace.resilience_event_counts`) — never silent;
* **serial fallback** — ``workers=1``, platforms without ``fork``
  (``spawn``-only platforms cannot ship closures), and nested pools all
  degrade to a plain in-process loop with identical semantics.

Because a chunk's worker forks fresh for each attempt and copy-on-write
isolates it from the parent, a crashed or killed attempt leaves *no*
partial state behind — the retry replays the chunk from scratch against
unchanged parent memory, which is what makes recovery bit-identical.

Determinism contract
--------------------
Results must be *bit-identical at any worker count, through any number
of injected faults*.  The pool guarantees ordering and clean-slate
retries; the caller must make each trial self-contained:

1. derive per-trial RNGs with :func:`spawn_rngs` (``np.random.
   SeedSequence.spawn`` from the experiment seed) instead of sharing one
   generator across trials — a shared stream's draws would depend on
   trial scheduling;
2. give each trial its own core (a factory or a copy), or only read
   shared state — forked workers see copy-on-write parent state, so a
   trial that *mutates* a shared core would diverge between serial and
   parallel runs (and between a first attempt and its retry).

``tests/test_parallel.py`` pins the contract; ``tests/test_resilience.py``
pins recovery (injected crash/hang/corruption via
:class:`repro.resilience.FaultInjector` recovers to bit-identical
results); the Figure 4 determinism test asserts that the per-trial
``stability_experiment(backend="process", pool=TrialPool(4))`` equals
``TrialPool(1)`` bit-for-bit.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.obs import trace as obs

__all__ = [
    "TrialPool",
    "SuperviseConfig",
    "RetryExhaustedError",
    "fork_available",
    "resolve_workers",
    "spawn_seeds",
    "spawn_rngs",
    "usable_cpus",
]

#: Environment default for ``workers=None`` — CI's pool smoke job sets
#: this to run every pooled experiment with 2 workers.
WORKERS_ENV = "REPRO_TRIAL_WORKERS"


def fork_available() -> bool:
    """Whether this platform can fork workers (closures need fork)."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset``, cgroup cpusets), else the machine's
    count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[Any] = None) -> int:
    """Resolve a ``workers`` argument to a concrete positive count.

    ``None`` reads :data:`WORKERS_ENV` (default 1 — experiments stay
    serial unless asked); ``"auto"`` or ``0`` means one worker per
    usable CPU (:func:`usable_cpus`).  An explicit invalid argument
    raises; an invalid *environment* value (a typo in a job script must
    not kill an hours-long campaign at import of the pool path) falls
    back to serial with a warning and a resilience-counter entry.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            return _coerce_workers(raw)
        except (ValueError, TypeError):
            warnings.warn(
                f"ignoring invalid {WORKERS_ENV}={raw!r} (want a positive "
                f"integer, 'auto' or 0); running serial",
                RuntimeWarning,
                stacklevel=2,
            )
            obs.record_resilience_event(
                "env_workers_invalid", detail=f"{WORKERS_ENV}={raw!r}"
            )
            return 1
    return _coerce_workers(workers)


def _coerce_workers(workers: Any) -> int:
    if workers in ("auto", 0, "0"):
        return usable_cpus()
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return count


def spawn_seeds(seed: Optional[int], n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child seed sequences of the experiment seed."""
    return list(np.random.SeedSequence(seed).spawn(n))


def spawn_rngs(seed: Optional[int], n: int) -> List[np.random.Generator]:
    """``n`` independent per-trial generators for one experiment seed."""
    return [np.random.default_rng(child) for child in spawn_seeds(seed, n)]


@dataclass(frozen=True)
class SuperviseConfig:
    """How the parent supervises forked chunk workers.

    ``heartbeat_timeout`` is the hang detector: seconds a worker may go
    without completing a trial (workers bump a shared heartbeat per
    trial) before it is killed and its chunk requeued.  ``None``
    disables it — the right default, since no universal bound on one
    trial's runtime exists; campaigns that know theirs (CI chaos jobs,
    the ``repro campaign`` CLI) pass one.
    """

    #: Re-dispatches of one chunk after its first failed attempt.
    max_retries: int = 3
    #: Seconds without worker progress before it counts as hung.
    heartbeat_timeout: Optional[float] = None
    #: First retry delay; doubles per attempt (exponential backoff).
    backoff_base: float = 0.05
    #: Backoff ceiling in seconds.
    backoff_cap: float = 2.0
    #: Max extra delay fraction, drawn deterministically per attempt —
    #: decorrelates retry storms without perturbing results.
    backoff_jitter: float = 0.25
    #: After retry exhaustion: run the chunk serially in the parent
    #: (True) or raise :class:`RetryExhaustedError` (False).
    degrade_serial: bool = True

    def backoff_delay(self, chunk_index: int, attempt: int) -> float:
        """Deterministic backoff-with-jitter delay before ``attempt``."""
        base = min(
            self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1))
        )
        if self.backoff_jitter <= 0:
            return base
        jitter = np.random.default_rng(
            np.random.SeedSequence([chunk_index, attempt, 0xBACC0FF])
        ).random()
        return base * (1.0 + self.backoff_jitter * jitter)


class RetryExhaustedError(RuntimeError):
    """A chunk failed every attempt and serial degradation was disabled."""

    def __init__(self, chunk_index: int, attempts: int, last_fault: str):
        super().__init__(
            f"chunk {chunk_index} failed {attempts} attempts "
            f"(last fault: {last_fault}) and degrade_serial is off"
        )
        self.chunk_index = chunk_index
        self.attempts = attempts
        self.last_fault = last_fault


# The trial function / fault injector of the pool currently dispatching.
# Set immediately before workers fork (so they inherit them) and cleared
# after; _ACTIVE_FN doubles as the reentrancy latch that sends nested
# pools down the serial path.
_ACTIVE_FN: Optional[Callable[[Any], Any]] = None
_ACTIVE_INJECTOR = None  # Optional[repro.resilience.FaultInjector]


def _chunk_worker(conn, heartbeat, chunk_index: int, attempt: int,
                  chunk: Sequence[Any]) -> None:
    """Worker body: run the inherited trial function over one chunk.

    Sends one frame back on ``conn``:

    * ``("ok", pid, elapsed, digest, blob)`` — ``blob`` is the pickled
      result list, ``digest`` its SHA-256; the parent verifies the
      digest before trusting the payload (a worker returning garbage —
      injected here by the corrupt fault, in production by e.g. a
      partial write through a dying interpreter — is requeued, not
      believed);
    * ``("error", pid, payload)`` — the trial function raised; the
      parent re-raises immediately (a clean exception is a bug in the
      experiment, not a fault to retry).

    An injected *crash* exits without sending anything; an injected
    *hang* sleeps without heartbeating, which is what the parent's
    heartbeat deadline exists to catch.
    """
    fn = _ACTIVE_FN
    assert fn is not None, "worker forked without an active trial function"
    # No-op when the parent warmed the kernel layer before forking; a
    # backstop for workers whose parent skipped it (direct use).
    kernels.ensure_initialized()
    injector = _ACTIVE_INJECTOR
    fault = injector.decide(chunk_index, attempt) if injector else None
    if fault == "crash":
        injector.crash()
    if fault == "hang":
        time.sleep(injector.spec.hang_seconds)
    start = time.perf_counter()
    try:
        results = []
        for payload in chunk:
            results.append(fn(payload))
            if heartbeat is not None:
                heartbeat.value = time.monotonic()
    except BaseException as exc:
        try:
            payload = pickle.dumps(exc, protocol=4)
        except Exception:
            payload = pickle.dumps(
                RuntimeError(f"{type(exc).__name__}: {exc}"), protocol=4
            )
        conn.send(("error", os.getpid(), payload))
        conn.close()
        return
    blob = pickle.dumps(results, protocol=4)
    digest = hashlib.sha256(blob).hexdigest()
    if fault == "corrupt":
        blob = injector.corrupt_bytes(blob, chunk_index, attempt)
    conn.send(("ok", os.getpid(), time.perf_counter() - start, digest, blob))
    conn.close()


class _Slot:
    """One in-flight chunk attempt: its process, pipe and heartbeat."""

    __slots__ = ("proc", "conn", "heartbeat", "chunk_index", "attempt",
                 "started")

    def __init__(self, proc, conn, heartbeat, chunk_index, attempt):
        self.proc = proc
        self.conn = conn
        self.heartbeat = heartbeat
        self.chunk_index = chunk_index
        self.attempt = attempt
        self.started = time.monotonic()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()


class TrialPool:
    """Fan a trial function over payloads, preserving payload order."""

    def __init__(
        self,
        workers: Optional[Any] = None,
        *,
        chunk_size: Optional[int] = None,
        supervise: Optional[SuperviseConfig] = None,
        fault_injector=None,
    ) -> None:
        self.workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.supervise = supervise or SuperviseConfig()
        #: Test/CI hook: a :class:`repro.resilience.FaultInjector` that
        #: makes forked workers misbehave on a deterministic schedule.
        #: Never consulted on the serial path.
        self.fault_injector = fault_injector

    # -- internals ----------------------------------------------------------

    def _effective_workers(self, n_payloads: int) -> int:
        if _ACTIVE_FN is not None:  # nested pool: stay in-process
            return 1
        if not fork_available():
            return 1
        return max(1, min(self.workers, n_payloads))

    def _chunks(self, payloads: List[Any], workers: int) -> List[List[Any]]:
        # Several chunks per worker evens out trial-cost variance while
        # keeping dispatch overhead amortised.
        size = self.chunk_size or max(1, -(-len(payloads) // (workers * 4)))
        return [
            payloads[i:i + size] for i in range(0, len(payloads), size)
        ]

    def _spawn(self, ctx, chunks, chunk_index: int, attempt: int) -> _Slot:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        heartbeat = ctx.Value("d", time.monotonic())
        proc = ctx.Process(
            target=_chunk_worker,
            args=(child_conn, heartbeat, chunk_index, attempt,
                  chunks[chunk_index]),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Slot(proc, parent_conn, heartbeat, chunk_index, attempt)

    def _supervised_dispatch(
        self, ctx, fn, chunks: List[List[Any]], workers: int,
        consume: Optional[Callable[[int, List[Any]], None]] = None,
    ) -> List[tuple]:
        """Run every chunk to completion under supervision.

        Returns ``[(worker_pid, elapsed_seconds, results), ...]`` in
        chunk order, so the parent can attribute per-chunk latency to
        workers in its trace (events a forked worker emits into *its*
        tracer die with the worker; the parent is the only durable
        sink).

        With ``consume`` given, each verified chunk's results are handed
        to it the moment the frame arrives (in completion order, not
        chunk order) and are *not* retained — the streaming-reduction
        path, which keeps parent memory at one chunk instead of the
        whole campaign.
        """
        sup = self.supervise
        pending = deque(range(len(chunks)))
        not_before: Dict[int, float] = {}
        attempts: Dict[int, int] = {i: 0 for i in range(len(chunks))}
        done: Dict[int, tuple] = {}
        running: List[_Slot] = []

        def fault(slot: _Slot, kind: str) -> None:
            ci = slot.chunk_index
            slot.close()
            running.remove(slot)
            obs.record_resilience_event(
                f"worker_{kind}" if kind in ("crash", "hang") else kind,
                detail=f"chunk={ci} attempt={slot.attempt}",
            )
            if attempts[ci] > sup.max_retries:
                if not sup.degrade_serial:
                    raise RetryExhaustedError(ci, attempts[ci], kind)
                # Graceful degradation: the chunk runs on the serial
                # engine, in-process.  _ACTIVE_FN is still set, so any
                # pool the trial opens stays serial too.
                obs.record_resilience_event(
                    "degrade_serial", detail=f"chunk={ci}"
                )
                start = time.perf_counter()
                results = [fn(payload) for payload in chunks[ci]]
                elapsed = time.perf_counter() - start
                if consume is not None:
                    consume(ci, results)
                    results = None
                done[ci] = (os.getpid(), elapsed, results)
            else:
                obs.record_resilience_event(
                    "chunk_retry", detail=f"chunk={ci} kind={kind}"
                )
                not_before[ci] = time.monotonic() + sup.backoff_delay(
                    ci, attempts[ci]
                )
                pending.append(ci)

        try:
            while len(done) < len(chunks):
                now = time.monotonic()
                # Launch every eligible pending chunk into a free slot.
                blocked = []
                while pending and len(running) < workers:
                    ci = pending.popleft()
                    if not_before.get(ci, 0.0) > now:
                        blocked.append(ci)
                        continue
                    attempts[ci] += 1
                    running.append(
                        self._spawn(ctx, chunks, ci, attempts[ci] - 1)
                    )
                pending.extend(blocked)
                if not running:
                    if not pending:
                        continue  # everything landed in done via degrade
                    wake = min(not_before.get(ci, now) for ci in pending)
                    time.sleep(max(0.0, min(wake - now, 0.25)))
                    continue
                # Wait for frames (or worker death: EOF wakes us too).
                ready = multiprocessing.connection.wait(
                    [slot.conn for slot in running], timeout=0.05
                )
                for slot in list(running):
                    if slot.conn in ready:
                        try:
                            frame = slot.conn.recv()
                        except (EOFError, OSError):
                            fault(slot, "crash")
                            continue
                        if frame[0] == "error":
                            raise pickle.loads(frame[2])
                        _, pid, elapsed, digest, blob = frame
                        if hashlib.sha256(blob).hexdigest() != digest:
                            fault(slot, "chunk_corrupt")
                            continue
                        results = pickle.loads(blob)
                        if consume is not None:
                            consume(slot.chunk_index, results)
                            results = None
                        done[slot.chunk_index] = (pid, elapsed, results)
                        slot.close()
                        running.remove(slot)
                    elif not slot.proc.is_alive():
                        # Dead — but it may have sent its frame and
                        # exited *after* the wait() snapshot above, so
                        # never declare a crash while the pipe still has
                        # anything to say.  poll() is true both for a
                        # queued frame and for EOF, and the next pass's
                        # wait() disambiguates: recv() returns the frame
                        # or raises EOFError (a real crash).
                        if not slot.conn.poll():
                            fault(slot, "crash")
                    elif (
                        sup.heartbeat_timeout is not None
                        and time.monotonic() - max(
                            slot.heartbeat.value, slot.started
                        ) > sup.heartbeat_timeout
                    ):
                        fault(slot, "hang")
        finally:
            for slot in running:
                slot.close()
        return [done[i] for i in range(len(chunks))]

    def _map_forked(
        self, fn: Callable[[Any], Any], payloads: List[Any], workers: int,
        consume: Optional[Callable[[int, List[Any]], None]] = None,
    ) -> List[Any]:
        global _ACTIVE_FN, _ACTIVE_INJECTOR
        chunks = self._chunks(payloads, workers)
        tracer = obs.TRACER
        if tracer is not None:
            tracer.emit(
                "pool",
                "dispatch",
                payloads=len(payloads),
                chunks=len(chunks),
                workers=workers,
            )
        dispatch_start = time.perf_counter()
        # Resolve and load the kernel backend once in the parent so
        # every forked worker inherits a warm backend instead of racing
        # to build the compiled module N times.
        kernels.warmup()
        _ACTIVE_FN = fn
        _ACTIVE_INJECTOR = self.fault_injector
        try:
            ctx = multiprocessing.get_context("fork")
            chunk_results = self._supervised_dispatch(
                ctx, fn, chunks, workers, consume
            )
        finally:
            _ACTIVE_FN = None
            _ACTIVE_INJECTOR = None
        if tracer is not None:
            wall = time.perf_counter() - dispatch_start
            for i, (worker_pid, elapsed, _results) in enumerate(chunk_results):
                tracer.emit(
                    "pool",
                    "chunk",
                    pid=worker_pid,
                    chunk=i,
                    trials=len(chunks[i]),
                    elapsed_s=round(elapsed, 6),
                )
            tracer.emit(
                "pool",
                "collected",
                payloads=len(payloads),
                workers=workers,
                elapsed_s=round(wall, 6),
            )
            metrics = tracer.metrics
            if metrics is not None:
                hist = metrics.histogram(
                    "repro_pool_chunk_seconds",
                    "wall time of one forked trial chunk",
                )
                for _, elapsed, _results in chunk_results:
                    hist.observe(elapsed)
                metrics.counter(
                    "repro_pool_trials_total",
                    "trials dispatched through forked workers",
                ).inc(len(payloads))
        if consume is not None:
            return []
        return [
            result
            for _, _, results in chunk_results
            for result in results
        ]

    # -- API ----------------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[Any]:
        """``[fn(p) for p in payloads]``, possibly across worker processes.

        Results come back in payload order regardless of which worker
        finished first, through any number of supervised retries.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        workers = self._effective_workers(len(payloads))
        if workers <= 1:
            return [fn(payload) for payload in payloads]
        return self._map_forked(fn, payloads, workers)

    def map_reduce(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        merge: Callable[[Any, Any], Any],
        zero: Any,
    ) -> Any:
        """Fold ``fn`` over payloads without materialising the results.

        ``merge(accumulator, result)`` is applied to each trial result
        and its return value becomes the accumulator; ``zero`` is the
        initial accumulator.  On the forked path chunk results are folded
        the moment each chunk's frame arrives — parent memory stays at
        O(one chunk) instead of O(campaign), which is what lets the
        campaign service stream millions of trials through a handful of
        accumulators.

        Chunks complete in nondeterministic order, so a deterministic
        fold requires ``merge`` to be associative and commutative over
        the trial results (the :mod:`repro.service.aggregate`
        accumulators are exact-rational precisely to meet this).  The
        serial path folds in payload order, same as a plain loop.
        """
        payloads = list(payloads)
        acc = zero
        if not payloads:
            return acc
        workers = self._effective_workers(len(payloads))
        if workers <= 1:
            for payload in payloads:
                acc = merge(acc, fn(payload))
            return acc
        box = {"acc": acc}

        def consume(chunk_index: int, results: List[Any]) -> None:
            for result in results:
                box["acc"] = merge(box["acc"], result)

        self._map_forked(fn, payloads, workers, consume)
        return box["acc"]

    def find_first(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        *,
        predicate: Callable[[Any], bool] = lambda result: result is not None,
    ) -> Optional[Any]:
        """First (in payload order) trial result satisfying ``predicate``.

        The serial path stops at the winner exactly like a search loop;
        the parallel path evaluates wave after wave of payloads and stops
        after the first wave containing a match — later payloads in the
        winning wave are wasted work, but the *returned* result is the
        payload-order first match either way, keeping search outcomes
        independent of the worker count.
        """
        payloads = list(payloads)
        if not payloads:
            return None
        workers = self._effective_workers(len(payloads))
        if workers <= 1:
            for payload in payloads:
                result = fn(payload)
                if predicate(result):
                    return result
            return None
        wave = workers * (self.chunk_size or 4)
        for start in range(0, len(payloads), wave):
            for result in self._map_forked(
                fn, payloads[start:start + wave], workers
            ):
                if predicate(result):
                    return result
        return None
