"""Benchmark-harness plumbing.

Every bench regenerates one of the paper's tables or figures (see
DESIGN.md's experiment index): it runs the experiment inside the
pytest-benchmark timer, renders the paper-shaped table/series with
:func:`repro.analysis.format_table`, asserts the reproduction target
(orderings/crossovers, not absolute numbers), and *emits* the rendered
text.  Emitted tables are written to ``benchmarks/results/<name>.txt``
and echoed in the terminal summary so a plain
``pytest benchmarks/ --benchmark-only`` run shows every regenerated
result.

Set ``REPRO_BENCH_SCALE`` (default 1.0) to scale experiment sizes up or
down, e.g. ``REPRO_BENCH_SCALE=5 pytest benchmarks/`` for a
closer-to-paper run.

Every emitted result also gets a ``results/<name>.manifest.json``
provenance record (see ``benchmarks/_common.py``).

Long runs are crash-safe: each campaign-shaped bench checkpoints its
progress under ``benchmarks/.checkpoints/`` (an append-only log of
digest-checked records — see :mod:`repro.resilience.checkpoint`), and
re-running with
``pytest benchmarks/ --resume`` picks up a killed run where it stopped,
producing bit-identical results.  Without ``--resume`` any stale
checkpoints are cleared first, so default runs stay fresh.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _common import write_result  # noqa: E402

_EMITTED: List[Tuple[str, str]] = []

#: Where campaign-shaped benches keep their crash-safe progress.
CHECKPOINTS_DIR = Path(__file__).parent / ".checkpoints"


def pytest_addoption(parser):
    parser.addoption(
        "--resume",
        action="store_true",
        default=False,
        help=(
            "resume interrupted benchmark campaigns from "
            "benchmarks/.checkpoints (results are bit-identical to an "
            "uninterrupted run)"
        ),
    )


@pytest.fixture
def campaign_checkpoint(request):
    """Checkpoint kwargs for a campaign-shaped bench.

    Returns a ``factory(name) -> {"checkpoint": ..., "resume": ...}``
    dict ready to splat into :func:`stability_experiment` /
    :meth:`CovertChannel.trial_sweep` /
    :class:`~repro.resilience.ResumableCampaign`.  Checkpoints are
    always written (so *any* run can be killed and later resumed);
    ``--resume`` decides whether pre-existing progress is honoured or
    cleared.
    """
    resume = request.config.getoption("--resume")

    def factory(name: str) -> dict:
        CHECKPOINTS_DIR.mkdir(exist_ok=True)
        path = CHECKPOINTS_DIR / f"{name}.ckpt"
        return {"checkpoint": path, "resume": resume}

    return factory

#: Global size multiplier for experiment workloads.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1) -> int:
    """Apply the REPRO_BENCH_SCALE multiplier to a workload size."""
    return max(minimum, int(n * SCALE))


def emit(name: str, text: str, extra: dict = None) -> None:
    """Record a regenerated table/figure for the terminal summary.

    Writes the rendered text to ``results/<name>.txt`` with a run
    manifest beside it; ``extra`` keys land in the manifest (e.g. the
    service bench records its content-store traffic stats).
    """
    write_result(name, text, extra=extra)
    _EMITTED.append((name, text))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _EMITTED:
        return
    terminalreporter.section("regenerated paper tables & figures")
    for name, text in _EMITTED:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"── {name} " + "─" * max(1, 66 - len(name)))
        for line in text.splitlines():
            terminalreporter.write_line(line)
