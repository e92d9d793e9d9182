"""Perf smoke check: cold vs warm campaign service over the content store.

The sharded campaign service persists every shard aggregate in the
content-addressed ``repro.store``.  A *warm* submission of the same science — by the same
tenant or any other — must therefore be served from the store without
dispatching a single trial.  This bench times the same campaign twice
over one fresh store:

* **cold** — empty store: every shard misses, runs its trials, and is
  published;
* **warm** — identical spec resubmitted: every shard hits.

Digests are compared before any timing is trusted (the cache must be an
optimisation, not an answer-changer), and the store's traffic counters
are recorded in the run manifest, so a committed result shows exactly
how it was served.  Gate: warm must be ``--min-speedup`` times faster
than cold (CI passes a lower floor to absorb shared-runner noise).

Run standalone (CI does, failing the job on gross regression)::

    PYTHONPATH=src python benchmarks/bench_service_perf.py

or under pytest alongside the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_perf.py
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import CampaignSpec, run_campaign  # noqa: E402
from repro.store import ContentStore  # noqa: E402

#: Acceptance target: warm (store-served) campaign >= 3x faster than the
#: cold run (CI floor 2x).  In practice the gap is 1-2 orders of
#: magnitude — warm cost is four store reads — but the smoke campaign is
#: small enough that fixed overheads keep the measured ratio modest.
TARGET_SPEEDUP = 3.0

SPEC = CampaignSpec(
    name="bench",
    n_blocks=48,
    block_branches=2_000,
    repetitions=40,
    shards=4,
)
BEST_OF = 3


def measure(best_of: int = BEST_OF) -> dict:
    """Time cold vs warm service runs over fresh stores.

    Each round uses its own empty store (a cold run is only cold once),
    immediately followed by its warm rerun — interleaving keeps machine
    noise symmetric.  Best-of-N on both sides.
    """
    cold_times, warm_times = [], []
    stats = {}
    for _ in range(best_of):
        with tempfile.TemporaryDirectory() as tmp:
            store = ContentStore(Path(tmp) / "store")
            start = time.perf_counter()
            cold = run_campaign(SPEC, store=store)
            cold_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            warm = run_campaign(SPEC, store=store)
            warm_times.append(time.perf_counter() - start)
            if warm.digest() != cold.digest():
                raise AssertionError(
                    "store-served campaign disagrees with the cold run — "
                    "do not trust timings"
                )
            stats = store.stats_dict()
    return {
        "n_blocks": SPEC.n_blocks,
        "shards": SPEC.shards,
        "cold_seconds": min(cold_times),
        "warm_seconds": min(warm_times),
        "speedup": min(cold_times) / min(warm_times),
        "store_stats": stats,
    }


def _report(result: dict) -> str:
    stats = result["store_stats"]
    return "\n".join(
        [
            f"campaign service, {result['n_blocks']} blocks x "
            f"{SPEC.repetitions} probes in {result['shards']} shards, "
            f"best of {BEST_OF} interleaved",
            f"  cold (empty store):   {result['cold_seconds']:.3f}s",
            f"  warm (store-served):  {result['warm_seconds']:.3f}s",
            f"  warm speedup:         {result['speedup']:.1f}x "
            f"(target >= {TARGET_SPEEDUP:.0f}x)",
            f"  store traffic:        {stats['memory_hits']} memory hits, "
            f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
            f"{stats['puts']} puts",
        ]
    )


def test_service_perf_smoke(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    from conftest import emit

    emit(
        "service_perf",
        _report(result),
        extra={"store_stats": result["store_stats"]},
    )
    assert result["speedup"] >= TARGET_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-speedup", type=float, default=TARGET_SPEEDUP,
        help="fail if the warm (store-served) run is not this many times "
        "faster than the cold run (CI passes 2 to catch gross "
        "regressions only)",
    )
    args = parser.parse_args(argv)
    result = measure()
    print(_report(result))
    if result["speedup"] < args.min_speedup:
        print(
            f"FAIL: warm speedup {result['speedup']:.1f}x below required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
