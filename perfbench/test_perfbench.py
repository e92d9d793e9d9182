"""Smoke test of the benchmark itself, at tiny input sizes.

Runs every workload of ``BENCHMARK.json`` untraced and traced with the
default seed, so each run also checks its unit digests against the
``smoke`` section of ``expected.json``.  Run from the checkout root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0.5",
            "--trace", str(trace), "--size", "smoke",
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        metrics = result["metrics"]
        assert metrics["store.shard_hit_ratio"]["value"] == 0
        assert 0 <= metrics["harness.unattributed_share"]["value"] < 1


def test_every_workload_has_committed_digests():
    expected = json.loads((HERE / "expected.json").read_text())
    for size in ("full", "smoke"):
        for workload in WORKLOADS:
            assert expected[size][workload], (size, workload)


def test_digest_mismatch_is_a_failure():
    sys.path.insert(0, str(HERE))
    import run

    unit = SimpleNamespace(digests={"skylake": "0" * 64})
    stub = SimpleNamespace(name="fig4-inproc", units=[unit])
    assert run._expected_failures(stub, "smoke", run.DEFAULT_SEED)
    assert not run._expected_failures(stub, "smoke", run.DEFAULT_SEED + 1)
