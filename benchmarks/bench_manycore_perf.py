"""Perf smoke check: the manycore campaign backend vs per-trial assessment.

The struct-of-arrays backend (``stability_experiment(...,
backend="manycore")``) is what makes the full-scale Figure 4 sweep
(10,000 blocks x 1,000 probes) tractable in a single process: instead of
compiling and assessing each candidate block against its own fresh core,
it computes the campaign's shared structure once and advances a whole
chunk of candidates per array operation.  Three configurations run
interleaved, best-of-N:

* the per-trial ``process`` backend (numpy kernels pinned),
* the ``manycore`` backend on the numpy kernel backend, and
* the ``manycore`` backend on the compiled ``cffi`` kernel backend
  when it can load.

Two gates: manycore/numpy must stay ``--min-speedup`` times faster than
the per-trial path, and the compiled kernel backend must keep the
manycore engine ``--min-kernel-speedup`` times faster still (skipped
with a warning when no compiled backend is available — default CI jobs
are numpy-only; the ``kernel-matrix`` job's cffi leg installs cffi).  All
assessment lists are compared for equality before any timing is trusted
(the full differential proof lives in ``tests/test_kernels.py``).

Run standalone (CI does, failing the job on gross regression)::

    PYTHONPATH=src python benchmarks/bench_manycore_perf.py

or under pytest alongside the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_manycore_perf.py
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import kernels  # noqa: E402
from repro.bpu import skylake  # noqa: E402
from repro.core.calibration import stability_experiment  # noqa: E402
from repro.cpu import PhysicalCore  # noqa: E402
from repro.system.noise import NoiseModel  # noqa: E402

#: Acceptance target: manycore campaign >= 3x the per-trial path
#: (CI floor 2x).  At full fig4 scale the gap is wider — the shared
#: structure amortises over far more trials — but the smoke campaign
#: keeps CI fast.
TARGET_SPEEDUP = 3.0

#: Acceptance target: a compiled kernel backend >= 2x the numpy kernels
#: on the manycore campaign (the kernel-matrix CI job passes a lower
#: floor to absorb shared-runner noise).
TARGET_KERNEL_SPEEDUP = 2.0

TARGET = 0x30_0006D
N_BLOCKS = 24
BLOCK_BRANCHES = 20_000
REPETITIONS = 100
BEST_OF = 3


def _compiled_backend():
    """Best loadable compiled backend name, or None (numpy-only host)."""
    available = kernels.available_backends()
    for name in kernels.AUTO_ORDER:
        if name != "numpy" and name in available:
            return name
    return None


def _run(backend: str, kernel_backend: str):
    config = skylake()
    kernels.set_backend(kernel_backend)
    start = time.perf_counter()
    assessments = stability_experiment(
        lambda: PhysicalCore(config, seed=6),
        TARGET,
        n_blocks=N_BLOCKS,
        block_branches=BLOCK_BRANCHES,
        repetitions=REPETITIONS,
        noise=NoiseModel.isolated(),
        backend=backend,
    )
    return time.perf_counter() - start, assessments


def measure(best_of: int = BEST_OF) -> dict:
    """Time the backend/kernel matrix on one campaign.

    Interleaved best-of-N: machine noise hits every configuration
    alike, so a transient stall cannot manufacture (or destroy) a
    speedup.
    """
    compiled = _compiled_backend()
    configs = [
        ("process", "numpy"),
        ("manycore", "numpy"),
    ]
    if compiled is not None:
        configs.append(("manycore", compiled))
        kernels.set_backend(compiled)
        kernels.warmup()  # pay the compile cost outside the timings
    times = {cfg: [] for cfg in configs}
    results = {}
    try:
        for _ in range(best_of):
            for cfg in configs:
                elapsed, assessments = _run(*cfg)
                times[cfg].append(elapsed)
                results[cfg] = assessments
    finally:
        kernels.set_backend(None)

    # Differential sanity: same campaign => same assessment list, on
    # every backend/kernel combination.
    reference = results[("process", "numpy")]
    for cfg, assessments in results.items():
        if assessments != reference:
            raise AssertionError(
                f"{cfg} disagrees with the per-trial reference — "
                "do not trust timings"
            )

    best = {cfg: min(series) for cfg, series in times.items()}
    out = {
        "n_blocks": N_BLOCKS,
        "repetitions": REPETITIONS,
        "compiled_backend": compiled,
        "process_seconds": best[("process", "numpy")],
        "manycore_seconds": best[("manycore", "numpy")],
        "speedup": (
            best[("process", "numpy")] / best[("manycore", "numpy")]
        ),
    }
    if compiled is not None:
        out["manycore_compiled_seconds"] = best[("manycore", compiled)]
        out["kernel_speedup"] = (
            best[("manycore", "numpy")] / best[("manycore", compiled)]
        )
    return out


def _report(result: dict) -> str:
    lines = [
        f"stability campaign, {result['n_blocks']} blocks @ "
        f"{BLOCK_BRANCHES} branches x {result['repetitions']} probes, "
        f"best of {BEST_OF} interleaved",
        f"  per-trial backend (numpy kernels):  "
        f"{result['process_seconds']:.3f}s",
        f"  manycore backend (numpy kernels):   "
        f"{result['manycore_seconds']:.3f}s",
        f"  engine speedup:                     {result['speedup']:.1f}x "
        f"(target >= {TARGET_SPEEDUP:.0f}x)",
    ]
    compiled = result.get("compiled_backend")
    if compiled is not None:
        lines += [
            f"  manycore backend ({compiled} kernels):    "
            f"{result['manycore_compiled_seconds']:.3f}s",
            f"  kernel speedup:                     "
            f"{result['kernel_speedup']:.1f}x "
            f"(target >= {TARGET_KERNEL_SPEEDUP:.0f}x)",
        ]
    else:
        lines.append(
            "  compiled kernels:                   unavailable "
            "(numpy-only host; kernel gate skipped)"
        )
    return "\n".join(lines)


def test_manycore_perf_smoke(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    from conftest import emit

    emit("manycore_perf", _report(result))
    assert result["speedup"] >= TARGET_SPEEDUP
    if result.get("compiled_backend") is not None:
        assert result["kernel_speedup"] >= TARGET_KERNEL_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-speedup", type=float, default=TARGET_SPEEDUP,
        help="fail if the manycore backend is not this many times faster "
        "than the per-trial campaign (CI passes 2 to catch gross "
        "regressions only)",
    )
    parser.add_argument(
        "--min-kernel-speedup", type=float, default=TARGET_KERNEL_SPEEDUP,
        help="fail if the compiled kernel backend is not this many times "
        "faster than numpy kernels on the manycore campaign; skipped "
        "when no compiled backend can load",
    )
    args = parser.parse_args(argv)
    result = measure()
    print(_report(result))
    failed = False
    if result["speedup"] < args.min_speedup:
        print(
            f"FAIL: engine speedup {result['speedup']:.1f}x below required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        failed = True
    if (
        result.get("compiled_backend") is not None
        and result["kernel_speedup"] < args.min_kernel_speedup
    ):
        print(
            f"FAIL: kernel speedup {result['kernel_speedup']:.1f}x below "
            f"required {args.min_kernel_speedup:.1f}x",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
