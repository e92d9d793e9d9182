"""Understanding the selection logic (paper §5.1, Figure 2).

The experiment that motivates the whole attack: an irregular-but-
repeating outcome sequence from a single branch cannot be predicted by a
1-level predictor (no better than ~50%), but a gshare-style 2-level
predictor learns it — and by watching the misprediction counter while
repeating the sequence, one observes the hybrid predictor *hand the
branch over* to the 2-level component within 5-7 repetitions.

"We initialize an array of 10 bits to a randomly selected state ...
execute a single branch instruction conditional on the array bits, once
for each bit.  We repeat the series of branches 20 times in a row and
record the total number of incorrect predictions in this branch sequence
for each of the iterations."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cpu.core import PhysicalCore
from repro.cpu.counters import CounterKind
from repro.cpu.process import Process

__all__ = ["SelectorLearningResult", "selector_learning_experiment"]

#: Address of the experiment's single conditional branch.
EXPERIMENT_BRANCH_ADDRESS = 0x401136


@dataclass(frozen=True)
class SelectorLearningResult:
    """Average mispredictions per iteration of the repeated pattern."""

    #: Microarchitecture the experiment ran on.
    config_name: str
    #: ``mispredictions[i]`` = mean mispredicts in iteration ``i`` (of
    #: ``pattern_bits`` branches), averaged over runs — Figure 2's y-axis.
    mispredictions: np.ndarray

    @property
    def iterations(self) -> int:
        return len(self.mispredictions)

    def converged_by(self, threshold: float = 0.5) -> Optional[int]:
        """First iteration whose mean misprediction count stays below
        ``threshold`` for the rest of the run, or None."""
        for i in range(self.iterations):
            if (self.mispredictions[i:] < threshold).all():
                return i
        return None


def selector_learning_experiment(
    core_factory,
    *,
    pattern_bits: int = 10,
    iterations: int = 20,
    runs: int = 50,
    seed: int = 0,
    branch_address: int = EXPERIMENT_BRANCH_ADDRESS,
) -> SelectorLearningResult:
    """Run the §5.1 experiment and average over ``runs`` random patterns.

    ``core_factory`` builds a fresh core per run (each run must start
    with an untrained predictor, as each of the paper's runs does).
    Hardware performance counters track mispredictions, "enabling
    accurate measurement with a resolution of a single branch
    misprediction".
    """
    rng = np.random.default_rng(seed)
    totals = np.zeros(iterations, dtype=np.float64)
    config_name = ""
    for _ in range(runs):
        core: PhysicalCore = core_factory()
        config_name = core.config.name
        process = Process("selection-probe")
        pattern = rng.integers(0, 2, size=pattern_bits).astype(bool)
        counters = core.counters_for(process)
        for iteration in range(iterations):
            before = counters.read(CounterKind.BRANCH_MISSES)
            for taken in pattern:
                core.execute_branch(process, branch_address, bool(taken))
            after = counters.read(CounterKind.BRANCH_MISSES)
            totals[iteration] += after - before
    return SelectorLearningResult(
        config_name=config_name, mispredictions=totals / runs
    )
