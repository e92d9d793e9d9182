"""Perf smoke check: fuzz generations/sec + store-served generation reruns.

Every fuzz generation is a ``workload="fuzz"`` campaign dispatched
through the sharded service, so a *warm* rerun of the same generation —
fresh checkpoints, shared store — must be served entirely from shard
results published by the cold run: zero trials dispatched, identical
aggregate digest.  Two numbers matter:

* **generations/sec** — the full closed-loop session rate (oracle
  trials + hypothesis elimination).  Recorded in the manifest with the
  cold session's seconds and the share of them spent in
  ``HypothesisLattice.observe``; reported, not gated.
* **campaign dispatch speedup** — cold vs store-served execution of one
  generation's campaign, the part the store actually serves.  Gated at
  ``--min-speedup`` (CI passes a lower floor for shared-runner noise).

Digest equality is asserted before any timing is trusted, and the warm
rerun of the full session is additionally required to dispatch no
oracle trials at all (the ``pre_trial`` hook counts them) and to read
exactly one disk hit per cold-published shard — the service publishes
shard results to disk only, so a warm session never hits the memory
tier, misses or writes.  The store must be an optimisation, never an
answer-changer.

Run standalone (CI does, failing the job on gross regression)::

    PYTHONPATH=src python benchmarks/bench_fuzz_perf.py

or under pytest alongside the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_fuzz_perf.py
"""

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz import (  # noqa: E402
    HypothesisLattice,
    battery_descriptors,
    run_fuzz,
)
from repro.service import CampaignSpec, CampaignService  # noqa: E402
from repro.store import ContentStore  # noqa: E402

#: Acceptance target: the store-served generation campaign >= 2x faster
#: than its cold run (CI floor 1.5x).  In practice the gap is larger —
#: a warm generation is a handful of store reads.
TARGET_SPEEDUP = 2.0

PRESET = "sandy_bridge"
SEED = 0
SHARDS = 4
BEST_OF = 3


def _generation_spec(descriptors) -> CampaignSpec:
    return CampaignSpec(
        name="bench-fuzz-g0",
        tenant="fuzz",
        preset=PRESET,
        seed=SEED,
        n_blocks=len(descriptors),
        shards=SHARDS,
        workload="fuzz",
        params=json.dumps({"descriptors": descriptors}, sort_keys=True),
    )


def _run_generation(spec: CampaignSpec, store: ContentStore):
    service = CampaignService(workers=None, store=store)
    cid = service.submit(spec)
    service.run_until_complete()
    state = service.campaign(cid)
    return state.aggregate().digest(), state.cached_shards


@contextlib.contextmanager
def _timed_observe(spent: list):
    """Accumulate wall seconds spent in ``HypothesisLattice.observe``."""
    original = HypothesisLattice.observe

    def observe(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    HypothesisLattice.observe = observe
    try:
        yield
    finally:
        HypothesisLattice.observe = original


def _traffic(store: ContentStore, before: dict) -> dict:
    """Store stats accumulated since the ``before`` snapshot."""
    return {
        key: value - before[key] for key, value in store.stats_dict().items()
    }


def measure(best_of: int = BEST_OF) -> dict:
    """Time the full session and the cold/warm generation dispatch."""
    session_times, observe_shares, cold_times, warm_times = [], [], [], []
    stats = {}
    generations = trials = 0
    spec = _generation_spec(battery_descriptors(SEED))
    for _ in range(best_of):
        with tempfile.TemporaryDirectory() as tmp:
            # Full closed-loop session (oracle + elimination), plus the
            # zero-dispatch warm rerun it must support.
            session_store = ContentStore(Path(tmp) / "session-store")
            observe_seconds = []
            with _timed_observe(observe_seconds):
                start = time.perf_counter()
                cold = run_fuzz(
                    PRESET,
                    seed=SEED,
                    shards=SHARDS,
                    store=session_store,
                    checkpoint_dir=Path(tmp) / "ck-cold",
                )
                session_times.append(time.perf_counter() - start)
            observe_shares.append(sum(observe_seconds) / session_times[-1])
            published = session_store.stats_dict()["puts"]
            before = session_store.stats_dict()
            dispatched = []
            warm = run_fuzz(
                PRESET,
                seed=SEED,
                shards=SHARDS,
                store=session_store,
                checkpoint_dir=Path(tmp) / "ck-warm",
                pre_trial=dispatched.append,
            )
            if warm.digest() != cold.digest():
                raise AssertionError(
                    "store-served fuzz session disagrees with the cold "
                    "run — do not trust timings"
                )
            if dispatched:
                raise AssertionError(
                    f"warm session dispatched {len(dispatched)} trials; "
                    "expected zero (store serving is broken)"
                )
            traffic = _traffic(session_store, before)
            expected = dict(
                traffic, memory_hits=0, disk_hits=published, misses=0, puts=0
            )
            if traffic != expected or warm.cached_shards != published:
                raise AssertionError(
                    f"warm session store traffic {traffic} (cached "
                    f"{warm.cached_shards}); expected one disk hit per "
                    f"published shard ({published}) and nothing else"
                )
            if not cold.matches_truth():
                raise AssertionError(
                    "fuzz session failed to recover the true geometry — "
                    "do not trust timings"
                )
            generations = cold.generations_run
            trials = cold.n_trials

            # Campaign dispatch, cold vs store-served, in isolation.
            store = ContentStore(Path(tmp) / "gen-store")
            start = time.perf_counter()
            cold_digest, _ = _run_generation(spec, store)
            cold_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            warm_digest, cached = _run_generation(spec, store)
            warm_times.append(time.perf_counter() - start)
            if warm_digest != cold_digest:
                raise AssertionError(
                    "store-served generation disagrees with its cold run"
                )
            if cached != SHARDS:
                raise AssertionError(
                    f"warm generation served {cached}/{SHARDS} shards "
                    "from the store"
                )
            stats = store.stats_dict()
            if (stats["disk_hits"], stats["memory_hits"]) != (SHARDS, 0):
                raise AssertionError(
                    f"warm generation read {stats['disk_hits']} disk and "
                    f"{stats['memory_hits']} memory hits; expected "
                    f"{SHARDS} and 0"
                )
    best = session_times.index(min(session_times))
    return {
        "preset": PRESET,
        "generations": generations,
        "trials": trials,
        "shards": SHARDS,
        "cold_session_seconds": min(session_times),
        "observe_share": observe_shares[best],
        "generations_per_second": generations / min(session_times),
        "cold_seconds": min(cold_times),
        "warm_seconds": min(warm_times),
        "speedup": min(cold_times) / min(warm_times),
        "store_stats": stats,
    }


def _report(result: dict) -> str:
    stats = result["store_stats"]
    return "\n".join(
        [
            f"fuzz session, {result['preset']}: "
            f"{result['generations']} generation(s), "
            f"{result['trials']} oracle trials in {result['shards']} "
            f"shards, best of {BEST_OF} interleaved",
            f"  full session:         {result['cold_session_seconds']:.3f}s "
            f"({result['generations_per_second']:.2f} generations/s, "
            f"{100 * result['observe_share']:.0f}% in observe); "
            f"warm rerun dispatches 0 trials",
            f"  generation dispatch:  cold {result['cold_seconds']:.3f}s, "
            f"store-served {result['warm_seconds']:.3f}s",
            f"  dispatch speedup:     {result['speedup']:.1f}x "
            f"(target >= {TARGET_SPEEDUP:.0f}x)",
            f"  store traffic:        {stats['memory_hits']} memory hits, "
            f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
            f"{stats['puts']} puts",
        ]
    )


def test_fuzz_perf_smoke(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    from conftest import emit

    emit(
        "fuzz_perf",
        _report(result),
        extra={
            "generations_per_second": result["generations_per_second"],
            "cold_session_seconds": result["cold_session_seconds"],
            "observe_share": result["observe_share"],
            "store_stats": result["store_stats"],
        },
    )
    assert result["speedup"] >= TARGET_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-speedup", type=float, default=TARGET_SPEEDUP,
        help="fail if the store-served generation dispatch is not this "
        "many times faster than its cold run (CI passes a lower floor "
        "to catch gross regressions only)",
    )
    args = parser.parse_args(argv)
    result = measure()
    print(_report(result))
    if result["speedup"] < args.min_speedup:
        print(
            f"FAIL: dispatch speedup {result['speedup']:.1f}x below "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
