"""The paper's contribution: the BranchScope attack.

Built entirely on attacker-legal operations against the substrate —
executing branches of the spy process, reading the spy's own performance
counters or timestamps, and (re)running victim triggers — exactly the
capabilities of the paper's threat model (§3).

Modules map to the paper's structure:

* :mod:`repro.core.patterns` — probe outcome patterns and the Table 1
  state dictionary (§6.1).
* :mod:`repro.core.randomizer` — the PHT randomisation block (Listing 1,
  §5.2) that forces the 1-level predictor and primes the PHT.
* :mod:`repro.core.prime_probe` — stage 1/3 primitives (§4, §6).
* :mod:`repro.core.calibration` — the pre-attack search for a block that
  leaves the target entry in a desired stable state (§6.2, Figure 4).
* :mod:`repro.core.covert` — the covert channel (§7, Listings 2-3,
  Figure 6, Tables 2-3).
* :mod:`repro.core.timing_detect` — counter-free detection via the
  timestamp counter (§8, Figures 7-9).
* :mod:`repro.core.pht_map` — PHT reverse engineering (§6.3, Figure 5).
* :mod:`repro.core.attack` — the high-level side-channel facade.
* :mod:`repro.core.aslr_attack` — ASLR derandomisation (§9.2).
"""

from repro.core.attack import BranchScope, SpiedBit
from repro.core.batch_probe import (
    batch_decode_states,
    batch_probe_signatures,
    batch_scan_supported,
)
from repro.core.btb_attacks import (
    btb_direction_spy,
    btb_locate_branch,
    calibrate_btb_threshold,
)
from repro.core.calibration import (
    BlockAssessment,
    CalibrationError,
    TrialPlan,
    assess_block,
    assess_block_batch,
    draw_trial_plan,
    find_block,
    stability_experiment,
)
from repro.core.covert import CovertChannel, CovertConfig, build_dictionary
from repro.core.covert_smt import SMTCovertChannel
from repro.core.multi import BranchPlan, MultiBranchScope
from repro.core.patterns import (
    DecodedState,
    ProbeResult,
    decode_state,
    expected_probe_pattern,
)
from repro.core.pht_map import (
    estimate_pht_size,
    hamming_ratio_curve,
    scan_states,
    scan_states_reference,
)
from repro.core.poisoning import poison_branch, poisoning_experiment
from repro.core.prime_probe import prime_direct, prime_sequence_for, probe_pair
from repro.core.randomizer import CompiledBlock, RandomizationBlock
from repro.core.support import (
    batch_scan_fallback_reason,
    manycore_fallback_reason,
)
from repro.core.timing_detect import (
    TimingCalibration,
    latency_experiment,
    probe_state_latencies,
    timing_error_rate,
)

__all__ = [
    "BlockAssessment",
    "BranchPlan",
    "BranchScope",
    "MultiBranchScope",
    "CalibrationError",
    "CompiledBlock",
    "CovertChannel",
    "CovertConfig",
    "DecodedState",
    "ProbeResult",
    "RandomizationBlock",
    "SMTCovertChannel",
    "SpiedBit",
    "TimingCalibration",
    "TrialPlan",
    "assess_block",
    "assess_block_batch",
    "batch_decode_states",
    "batch_probe_signatures",
    "batch_scan_fallback_reason",
    "batch_scan_supported",
    "manycore_fallback_reason",
    "btb_direction_spy",
    "btb_locate_branch",
    "build_dictionary",
    "calibrate_btb_threshold",
    "decode_state",
    "draw_trial_plan",
    "estimate_pht_size",
    "expected_probe_pattern",
    "find_block",
    "hamming_ratio_curve",
    "latency_experiment",
    "poison_branch",
    "poisoning_experiment",
    "prime_direct",
    "prime_sequence_for",
    "probe_pair",
    "probe_state_latencies",
    "scan_states",
    "scan_states_reference",
    "stability_experiment",
    "timing_error_rate",
]
