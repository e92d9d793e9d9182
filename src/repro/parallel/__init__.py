"""Trial execution (`repro.parallel`).

The in-process :class:`TrialPool` (a plain ordered loop in pool shape)
and per-trial seeding: per-trial generators come from
``np.random.SeedSequence.spawn`` on the experiment seed
(:func:`spawn_seeds`), so each trial is a pure function of its payload.
:func:`usable_cpus` sizes the manycore engine's threads.  Process
fan-out is the leased campaign service's (:mod:`repro.service`).
"""

from repro.parallel.pool import TrialPool, spawn_seeds, usable_cpus

__all__ = ["TrialPool", "spawn_seeds", "usable_cpus"]
