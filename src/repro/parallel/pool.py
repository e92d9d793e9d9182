"""The in-process trial pool and per-trial seeding.

The paper's evaluation is built out of *independent trials*: candidate
blocks in the §6.2 calibration search and the Figure 4 stability
experiment, message transmissions in the Table 2/3 covert-channel
sweeps, parameter cells in the ablation benches.  In one process they
run as a plain ordered loop; spreading them over other processes, on
one host or many, is the leased campaign service's job (``repro serve
--port`` plus ``repro worker --connect``, see :mod:`repro.service`).

:class:`TrialPool` is that loop in pool shape: the object
:meth:`repro.resilience.ResumableCampaign.map` and
``stability_experiment(backend="process")`` hand trials to, exactly as
they hand them to the threaded
:class:`~repro.core.manycore.ManycoreCampaignPool`.

Determinism contract
--------------------
A trial must be a pure function of its payload: derive its generator
from :func:`spawn_seeds` (``np.random.SeedSequence.spawn`` from the
experiment seed) rather than sharing one stream, and give it its own
core (a factory or a copy) or only read shared state.  Then a result
does not depend on which trials ran before it, which is what lets a
checkpointed campaign resume, and a leased shard re-run on another
worker, to the bit-identical result.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

__all__ = ["TrialPool", "spawn_seeds", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset``, cgroup cpusets), else the machine's
    count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def spawn_seeds(seed: Optional[int], n: int) -> List[np.random.SeedSequence]:
    """``n`` independent child seed sequences of the experiment seed."""
    return list(np.random.SeedSequence(seed).spawn(n))


class TrialPool:
    """Run a trial function over payloads in process, in payload order."""

    def map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> List[Any]:
        """``[fn(p) for p in payloads]``."""
        return [fn(payload) for payload in payloads]
