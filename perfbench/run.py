"""End-to-end calibration-trial benchmark with a per-layer breakdown.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig4-inproc --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing:
``trials_per_s`` (trials per second over the timed units, set-up
excluded, calibrated to a reference machine speed; see README.md),
``setup_s`` (median calibrated set-up time of this process and
``SETUP_SAMPLES - 1`` fresh processes) and ``peak_rss_mb``.
``--trace 1`` alternates untraced units with units whose layer entry
points are wrapped by :mod:`spans`, and reports per-layer calls, self
time and bytes over the traced units plus the tracing overhead (the
ratio of untraced to traced trial rates).

Every run checks its outputs (see :mod:`workloads`); at the default
seed it also compares unit digests against ``expected.json``.  The last
line of standard output is one JSON object; the exit code is 1 when any
check fails.  Provenance (kernel backend, dispatch counts, fallbacks,
store stats, nproc) goes to ``.bench_build/perfbench/runs/`` as a
result file plus run manifest.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: Committed digests for the default seed plus the kernel backend the
#: baseline numbers were taken with.
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0

#: Set-up of this process plus this many fresh processes, median taken.
SETUP_SAMPLES = 3

#: Resilience events that mark a failed or retried operation.
FAILURE_EVENTS = (
    "transport_retry", "lease_expired", "lease_exhausted",
    "lease_digest_mismatch", "upload_digest_invalid", "wire_reject",
    "store_corrupt", "worker_crash", "worker_hang", "chunk_corrupt",
    "worker_degrade_local", "spool_corrupt",
)

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Seconds one pass of the reference work takes on an uncontended core
#: of the machine the baseline was taken on (see README.md).
REFERENCE_NOMINAL_S = 0.0130


def _reference_seconds() -> float:
    """Time one pass of fixed reference work the program never touches:
    a pure-Python arithmetic loop."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def _speed_factor(references) -> float:
    """How much slower than nominal the machine ran the reference work."""
    return statistics.mean(references) / REFERENCE_NOMINAL_S


def _isolate_environment() -> None:
    """Cold, private state: no shared store or pool knobs leak in, and
    the compiled-kernel cache, temporary files and git's repository
    search stay inside the checkout."""
    for knob in ("REPRO_STORE_DIR", "REPRO_STORE_BYTES", "REPRO_TRIAL_WORKERS"):
        os.environ.pop(knob, None)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time, exit")
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    """Set-up time of one fresh process (interpreter start excluded)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-probe",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Counters:
    """Deltas of the program's always-on counters over a window."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.start = self._read()

    def _read(self):
        from repro import kernels
        from repro.core.manycore import group_batch_stats
        from repro.core.randomizer import compile_cache_info
        from repro.obs.trace import (
            resilience_event_counts,
            scalar_fallback_counts,
        )

        stores = self.workload.stores()
        return {
            "dispatch": kernels.kernel_dispatch_counts(),
            "groups": group_batch_stats(),
            "compile": compile_cache_info(),
            "fallbacks": scalar_fallback_counts(),
            "events": resilience_event_counts(),
            "store": {
                key: sum(s.stats_dict()[key] for s in stores)
                for key in ("memory_hits", "disk_hits", "misses", "puts",
                            "bytes_written")
            },
        }

    def delta(self):
        end = self._read()
        return {
            group: {
                key: value - self.start[group].get(key, 0)
                for key, value in end[group].items()
                if isinstance(value, (int, float))
            }
            for group in end
        }


def _timed_unit(workload, recorder=None) -> float:
    """Run the next unit (traced when ``recorder`` is given); its seconds."""
    from spans import UNIT_LAYER

    index = len(workload.units)
    if recorder is None:
        start = time.perf_counter()
        unit = workload.run_unit(index)
        elapsed = time.perf_counter() - start
    else:
        with recorder.installed():
            start = time.perf_counter()
            with recorder.span(UNIT_LAYER):
                unit = workload.run_unit(index)
            elapsed = time.perf_counter() - start
    workload.units.append(unit)
    return elapsed


def _rate(units, seconds) -> float:
    """Trials per second over matching lists of units and unit times."""
    return sum(unit.trials for unit in units) / sum(seconds)


def _add(total, delta):
    """Sum two :meth:`Counters.delta` results (``total`` may be None)."""
    if total is None:
        return delta
    return {
        group: {
            key: total[group].get(key, 0) + value
            for key, value in values.items()
        }
        for group, values in delta.items()
    }


def _expected_failures(workload, size: str, seed: int):
    """Digest mismatches against ``expected.json`` (default seed only)."""
    if seed != DEFAULT_SEED:
        return []
    expected = json.loads(EXPECTED.read_text())[size].get(workload.name, {})
    failures = []
    for key, digest in expected.items():
        index, label = key.split("/", 1)
        if int(index) >= len(workload.units):
            continue
        got = workload.units[int(index)].digests.get(label)
        if got != digest:
            failures.append(f"{workload.name}: unit {key} digest {got} "
                            f"!= expected {digest}")
    return failures


def _store_hit_ratio(store_delta) -> float:
    hits = store_delta["memory_hits"] + store_delta["disk_hits"]
    gets = hits + store_delta["misses"]
    return hits / gets if gets else 0.0


def _layer_metrics(recorder, counters, untraced_rate, traced_rate,
                   failed_ratio):
    """Every per-layer metric of a traced window, with its unit."""
    from spans import layer_field

    totals = recorder.layer_totals()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for op in ("summarize_block", "read_levels_ids", "fold_ids",
               "reduce_ids", "read_levels_maps"):
        layer = f"kernels.{op}"
        put(f"{layer}.calls", layer_field(totals, layer, "calls"), "count")
        put(f"{layer}.self_s", layer_field(totals, layer, "self_s"), "s")
        put(f"{layer}.bytes", layer_field(totals, layer, "bytes"), "B")
    put("manycore.map.self_s", layer_field(totals, "manycore.map", "self_s"),
        "s")
    for kind in ("shared", "grouped", "scalar"):
        put(f"manycore.payloads.{kind}", counters["groups"].get(kind, 0),
            "count")
    compile_calls = layer_field(totals, "randomizer.compile", "calls")
    hits = counters["compile"]["hits"]
    lookups = hits + counters["compile"]["misses"]
    put("randomizer.compile.calls", compile_calls, "count")
    put("randomizer.compile.self_s",
        layer_field(totals, "randomizer.compile", "self_s"), "s")
    put("randomizer.compile.cache_hit_ratio",
        hits / lookups if lookups else 0.0, "ratio")
    put("randomizer.generate.self_s",
        layer_field(totals, "randomizer.generate", "self_s"), "s")
    for op in ("stability_experiment", "draw_trial_plan",
               "assess_block_batch", "assess_block", "decode"):
        put(f"calibration.{op}.self_s",
            layer_field(totals, f"calibration.{op}", "self_s"), "s")
    for engine in ("manycore", "calibration_batch", "batch_probe",
                   "kernel_init"):
        put(f"calibration.scalar_fallbacks.{engine}",
            counters["fallbacks"].get(engine, 0), "count")
    for layer in ("service.run_shard", "service.run_trial",
                  "aggregate.add_trial", "aggregate.merge",
                  "aggregate.to_state", "aggregate.from_state",
                  "coordinator.handle", "transport.digest",
                  "scheduler.submit", "scheduler.run_wave",
                  "parallel.pool.map", "fuzz.run_fuzz",
                  "fuzz.plan_generation", "fuzz.oracle_run",
                  "fuzz.infer_observe"):
        put(f"{layer}.self_s", layer_field(totals, layer, "self_s"), "s")
    for op in ("get", "put"):
        put(f"store.{op}.calls", layer_field(totals, f"store.{op}", "calls"),
            "count")
        put(f"store.{op}.self_s",
            layer_field(totals, f"store.{op}", "self_s"), "s")
    put("store.bytes_written", counters["store"]["bytes_written"], "B")
    put("store.shard_hit_ratio", _store_hit_ratio(counters["store"]),
        "ratio")
    put("checkpoint.save_campaign.calls",
        layer_field(totals, "checkpoint.save_campaign", "calls"), "count")
    put("checkpoint.save_campaign.self_s",
        layer_field(totals, "checkpoint.save_campaign", "self_s"), "s")
    for endpoint in ("submit", "claim", "renew", "upload"):
        layer = f"transport.{endpoint}"
        put(f"{layer}.calls", layer_field(totals, layer, "calls"), "count")
        put(f"{layer}.self_s", layer_field(totals, layer, "self_s"), "s")
        put(f"{layer}.bytes", layer_field(totals, layer, "bytes"), "B")
    events = counters["events"]
    put("transport.retries", events.get("transport_retry", 0), "count")
    put("leases.claim_empty", recorder.counts.get("leases.claim_empty", 0),
        "count")
    put("leases.expired",
        events.get("lease_expired", 0) + events.get("lease_exhausted", 0),
        "count")
    put("leases.requeued", events.get("lease_expired", 0), "count")
    put("worker.idle_s", layer_field(totals, "worker.run_worker", "self_s"),
        "s")
    put("worker.shard_turnaround_p50_s", recorder.turnaround_p50(), "s")
    put("harness.unattributed_share",
        recorder.unattributed_share(threading.get_ident()), "ratio")
    put("harness.trace_overhead_ratio", untraced_rate / traced_rate, "ratio")
    put("harness.failed_ratio", failed_ratio, "ratio")
    put("harness.traced_trials_per_s", traced_rate, "1/s")
    return out


def _report(metrics) -> str:
    return "\n".join(
        f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
    )


def main(argv=None) -> int:
    args = _parse(argv)
    _isolate_environment()
    try:
        from repro import kernels
        from workloads import SIZES, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program ({exc}); run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], tmp)
    try:
        kernels.warmup()
        workload.setup()
        setup_s = time.perf_counter() - T0
        setup_s /= _speed_factor([_reference_seconds() for _ in range(3)])
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, workload, setup_s)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, workload, setup_s: float) -> int:
    from repro import kernels
    from spans import SpanRecorder

    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [
            _probe_setup(args) for _ in range(SETUP_SAMPLES - 1)
        ]

    counters = Counters(workload)
    started = time.perf_counter()
    deadline = started + args.seconds
    recorder = None
    if args.trace:
        # Untraced and traced units alternate, so machine noise hits
        # both sides of the overhead ratio alike.
        recorder = SpanRecorder()
        seconds, window = [], None
        while not seconds or time.perf_counter() < deadline:
            seconds.append(_timed_unit(workload))
            before = Counters(workload)
            seconds.append(_timed_unit(workload, recorder))
            window = _add(window, before.delta())
    else:
        # Reference work before every unit and after the last one tracks
        # the machine's speed over the same window (see README.md).
        seconds, references = [], [_reference_seconds()]
        while not seconds or time.perf_counter() < deadline:
            seconds.append(_timed_unit(workload))
            references.append(_reference_seconds())
    measured_s = time.perf_counter() - started
    run_counters = counters.delta()
    calibration = {}

    failures = workload.check()
    failures += _expected_failures(workload, args.size, args.seed)
    if _store_hit_ratio(run_counters["store"]) != 0:
        failures.append("a service store served a hit: state was not cold")
    events = sum(run_counters["events"].get(k, 0) for k in FAILURE_EVENTS)
    trials = sum(unit.trials for unit in workload.units)
    attempted = trials + workload.extra_attempts
    failed = len(failures) + events
    failed_ratio = failed / attempted

    if args.trace:
        units = workload.units
        metrics = _layer_metrics(
            recorder, window, _rate(units[0::2], seconds[0::2]),
            _rate(units[1::2], seconds[1::2]), failed_ratio)
    else:
        calibration = {
            "wall_trials_per_s": _rate(workload.units, seconds),
            "speed_factor": _speed_factor(references),
        }
        values = {
            "trials_per_s":
                calibration["wall_trials_per_s"] * calibration["speed_factor"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }

    backend = kernels.active_backend()
    recorded = json.loads(EXPECTED.read_text())["kernel_backend"]
    if backend != recorded:
        print(f"WARNING: kernel backend {backend!r} differs from the "
              f"{recorded!r} backend the baseline was measured with; do not "
              "compare these numbers with it", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    report = "\n".join([
        f"workload {workload.name} seed {args.seed} size {args.size} "
        f"trace {args.trace}: {len(workload.units)} units, {trials} trials "
        f"in {measured_s:.3f}s, kernel backend {backend}",
        _report(metrics),
        f"failed_ratio: {failed_ratio:.6g} ratio ({failed}/{attempted})",
        *(f"{key}: {value:.6g}" for key, value in calibration.items()),
    ])
    print(report)
    _write_provenance(args, workload, report, measured_s, backend, recorded,
                      run_counters, setup_samples, calibration, failures,
                      recorder)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _write_provenance(args, workload, report, measured_s, backend, recorded,
                      run_counters, setup_samples, calibration, failures,
                      recorder):
    """Result text + run manifest via the shared harness, spans beside."""
    from _common import write_result

    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-{args.size}-trace{args.trace}"
    write_result(
        name,
        report,
        duration_seconds=measured_s,
        results_dir=runs,
        extra={
            "benchmark": {
                "workload": workload.name,
                "seed": args.seed,
                "size": args.size,
                "trace": args.trace,
                "nproc": os.cpu_count(),
                "kernel_backend_recorded": recorded,
                "kernel_backend_mismatch": backend != recorded,
                "setup_samples_s": setup_samples,
                "calibration": calibration,
                "unit_digests": [unit.digests for unit in workload.units],
                "counters": run_counters,
                "failures": failures,
            },
        },
    )
    if recorder is not None:
        recorder.write_jsonl(runs / f"{name}.spans.jsonl")


if __name__ == "__main__":
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        # One malloc arena, so peak RSS tracks live memory rather than
        # per-thread arena slack (see README.md); glibc reads this only
        # at start-up, hence the re-exec.
        os.environ["MALLOC_ARENA_MAX"] = "1"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
