"""Parallel trial execution (`repro.parallel`).

A supervised process-pool engine for the embarrassingly-parallel layer
of the reproduction — candidate-block assessments, covert-channel
message trials, benchmark sweep cells — with a hard determinism
contract: per-trial RNGs are derived via ``np.random.SeedSequence.spawn``
from the experiment seed, so results are bit-identical at any worker
count, and supervised recovery (crash/hang/corruption retries with
backoff, graceful serial degradation) never changes a result, only when
and where it was computed.
"""

from repro.parallel.pool import (
    RetryExhaustedError,
    SuperviseConfig,
    TrialPool,
    fork_available,
    resolve_workers,
    spawn_rngs,
    spawn_seeds,
    usable_cpus,
)

__all__ = [
    "RetryExhaustedError",
    "SuperviseConfig",
    "TrialPool",
    "fork_available",
    "resolve_workers",
    "spawn_rngs",
    "spawn_seeds",
    "usable_cpus",
]
