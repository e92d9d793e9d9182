"""§10.2: "removing or adding noise to the performance counters".

The spy's counter-based probe classifies a branch as mispredicted when
the misprediction counter advanced across it; additive random noise on
counter *reads* (cf. TimeWarp-style fuzzing of measurement mechanisms)
makes that delta unreliable.  ``magnitude`` is the maximum absolute noise
per read; even ±1 is devastating to a delta-of-one measurement, which
the ablation bench quantifies.
"""

from __future__ import annotations


import numpy as np

from repro.mitigations.base import Mitigation

__all__ = ["NoisyPerformanceCounters"]


class NoisyPerformanceCounters(Mitigation):
    """Additive uniform noise on every performance-counter read."""

    name = "noisy-performance-counters"

    def __init__(self, magnitude: int = 2) -> None:
        if magnitude < 0:
            raise ValueError("magnitude cannot be negative")
        self.magnitude = int(magnitude)

    def perturb_counter(self, rng: np.random.Generator, value: int) -> int:
        if self.magnitude == 0:
            return value
        noise = int(rng.integers(-self.magnitude, self.magnitude + 1))
        return max(0, value + noise)
