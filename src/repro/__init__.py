"""BranchScope reproduction: directional branch-predictor side channel.

A from-scratch Python implementation of *BranchScope: A New Side-Channel
Attack on Directional Branch Predictor* (Evtyushkin, Riley, Abu-Ghazaleh,
Ponomarev — ASPLOS 2018) on a cycle-level branch-prediction-unit
simulator.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Quick start::

    import numpy as np
    from repro import (
        PhysicalCore, Process, skylake,
        CovertChannel, NoiseSetting, error_rate,
    )

    core = PhysicalCore(skylake(), seed=42)
    channel = CovertChannel.for_processes(
        core, Process("victim"), Process("spy"),
        setting=NoiseSetting.ISOLATED,
    )
    secret = np.random.default_rng(1).integers(0, 2, 64).tolist()
    received = channel.transmit(secret)
    print(f"error rate: {error_rate(secret, received):.3%}")

Package map:

* :mod:`repro.bpu` — hybrid branch predictor substrate (Figure 1),
* :mod:`repro.cpu` — core, clock, counters, timing, processes,
* :mod:`repro.system` — scheduler, noise, ASLR, SGX,
* :mod:`repro.core` — the BranchScope attack itself,
* :mod:`repro.victims` — Listing 2 / Montgomery ladder / libjpeg victims,
* :mod:`repro.mitigations` — the §10 defenses,
* :mod:`repro.analysis` — statistics and reporting helpers,
* :mod:`repro.parallel` — the in-process trial pool and per-trial seeding,
* :mod:`repro.obs` — tracing, metrics and run-provenance manifests.
"""

from repro.bpu import (
    HybridPredictor,
    PredictorConfig,
    State,
    haswell,
    sandy_bridge,
    skylake,
)
from repro.core import (
    BranchScope,
    CovertChannel,
    CovertConfig,
    DecodedState,
    RandomizationBlock,
)
from repro.core.covert import error_rate
from repro.cpu import PhysicalCore, Process
from repro.obs import disable_tracing, enable_tracing, tracing
from repro.system import AttackScheduler, Enclave, MaliciousOS, NoiseSetting

__version__ = "1.0.0"

__all__ = [
    "AttackScheduler",
    "BranchScope",
    "CovertChannel",
    "CovertConfig",
    "DecodedState",
    "Enclave",
    "HybridPredictor",
    "MaliciousOS",
    "NoiseSetting",
    "PhysicalCore",
    "PredictorConfig",
    "Process",
    "RandomizationBlock",
    "State",
    "__version__",
    "disable_tracing",
    "enable_tracing",
    "error_rate",
    "haswell",
    "sandy_bridge",
    "skylake",
    "tracing",
]
