"""``repro.fuzz`` — automated reverse engineering of the predictor zoo.

BranchScope's §6.3 reverse engineering was done by hand: craft a branch
pattern, observe probe outcomes, infer the structure.  This package
automates that methodology in the style of hardware fuzzers
(sca-fuzzer / Revizor): treat a :data:`repro.bpu.presets.PRESETS` entry
as an **opaque oracle** that only answers "did each observed branch
predict correctly?", and drive a hypothesis lattice over candidate
geometries until a single candidate explains every observation.

* :mod:`repro.fuzz.generate` — seeded randomized branch-program
  generation plus the deterministic battery of distinguishing probes
  (collision, FSM-depth and history-period families);
* :mod:`repro.fuzz.oracle` — the opaque preset wrapper (probe hit bits
  out, nothing else);
* :mod:`repro.fuzz.infer` — the hypothesis lattice (table size × index
  hash × FSM variant × history length), simulated exactly by one
  kernel op over every surviving hypothesis
  (:func:`repro.kernels.hypothesis_hits`), with a one-hypothesis
  reference :func:`~repro.fuzz.infer.simulate_program`;
* :mod:`repro.fuzz.workload` — the ``"fuzz"`` campaign workload: each
  generation's programs run as service trials, aggregated into a
  :class:`~repro.service.aggregate.RecordListAggregate`;
* :mod:`repro.fuzz.campaign` — the closed loop: generate → dispatch
  through :class:`~repro.service.CampaignService` → eliminate →
  generate again, checkpointed and store-served like any other tenant.

See ``docs/MODELING.md`` §14 for the design and its soundness argument.
"""

from repro.fuzz.campaign import (
    FuzzVerdict,
    plan_generation,
    run_fuzz,
    true_hypothesis,
)
from repro.fuzz.generate import (
    BranchProgram,
    battery_descriptors,
    program_from_descriptor,
    random_descriptor,
)
from repro.fuzz.infer import (
    FSM_VARIANTS,
    Hypothesis,
    HypothesisLattice,
    default_lattice,
    simulate_program,
)
from repro.fuzz.oracle import PresetOracle

__all__ = [
    "BranchProgram",
    "FSM_VARIANTS",
    "FuzzVerdict",
    "Hypothesis",
    "HypothesisLattice",
    "PresetOracle",
    "battery_descriptors",
    "default_lattice",
    "plan_generation",
    "program_from_descriptor",
    "random_descriptor",
    "run_fuzz",
    "simulate_program",
    "true_hypothesis",
]
