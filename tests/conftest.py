"""Shared fixtures.

Tests default to *scaled-down* microarchitectures (smaller tables) so
block compilation and calibration stay fast; behaviour-critical tests
that depend on full-size geometry build their own cores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bpu import haswell, sandy_bridge, skylake
from repro.bpu.fsm import State
from repro.bpu.presets import PredictorConfig
from repro.core.calibration import assess_block, draw_trial_plan
from repro.core.randomizer import RandomizationBlock
from repro.cpu import PhysicalCore, Process
from repro.fuzz.generate import BranchProgram, program_from_descriptor


#: Scale factor applied to table sizes for fast tests.
TEST_SCALE = 16

#: Block size that reliably randomises the scaled-down tables.
SMALL_BLOCK = 8_000


def bimodal_state(predictor, address: int) -> State:
    """Architectural state of the bimodal PHT entry behind ``address``
    (simulator ground truth, not attacker-visible)."""
    bimodal = predictor.bimodal
    return bimodal.pht.state(bimodal.index(address))


def target_entry_map(compiled, core: PhysicalCore, address: int) -> np.ndarray:
    """Transition-map row of the bimodal entry ``address`` maps to:
    element ``i`` is the entry's level after ``compiled`` runs from
    level ``i``."""
    index = core.predictor.bimodal.index(
        address, compiled.key, compiled.partition
    )
    return compiled.bimodal_map[index]


def pins_entry(compiled, core: PhysicalCore, address: int) -> bool:
    """Whether ``compiled`` pins the bimodal entry behind ``address``: its
    post-block level does not depend on the level before it."""
    row = target_entry_map(compiled, core, address)
    return bool((row == row[0]).all())


def scalar_stability(
    core_factory,
    target_address,
    *,
    n_blocks,
    block_branches,
    repetitions,
    noise=None,
    seed_start=0,
):
    """The Fig. 4 campaign on the scalar :func:`assess_block` oracle.

    Each trial follows ``stability_experiment``'s closure order —
    fresh core, generate, compile, plan draw — so the result is the
    reference every fast engine must equal, call for call on the
    factory.
    """
    spy = Process("stability-spy")
    out = []
    for seed in range(seed_start, seed_start + n_blocks):
        core = core_factory()
        block = RandomizationBlock.generate(seed, n_branches=block_branches)
        compiled = block.compile(core, spy)
        plan = draw_trial_plan(
            core.rng, core, repetitions=repetitions, noise=noise
        )
        out.append(assess_block(core, spy, compiled, target_address, plan=plan))
    return out


def hybrid_hits(config: PredictorConfig, program) -> tuple:
    """A fuzz program's hit bits on a fresh ``config.build()`` predictor,
    stepped branch by branch through ``HybridPredictor.execute``: the
    reference the compiled ``predictor_hits`` op must equal."""
    predictor = config.build()
    observed = set(program.observed)
    hits = []
    for step, (address, taken) in enumerate(
        zip(program.addresses, program.outcomes)
    ):
        prediction = predictor.execute(address, taken)
        if step in observed:
            hits.append(prediction.taken == taken)
    return tuple(hits)


def chooser_programs(config: PredictorConfig) -> list:
    """Two fully observed programs whose hits hang on the chooser's
    geometry, for the oracle and ``predictor_hits`` differentials.

    * One address alternating taken/not-taken: its bimodal entry is
      wrong at every step and its fresh gshare entries right at every
      not-taken one, so the choice counter climbs from its initial
      value and the step gshare takes over shows that value.
    * Eviction: an address learns a period-3 pattern until gshare
      predicts it, then one branch in its identification-table set,
      whose tag differs in bit 4, runs once, and the address resumes
      cold, forced back to the bimodal PHT with its counter reset.
    """
    address = 0x1234
    alternating = program_from_descriptor(
        {"family": "history", "address": address, "period": 2,
         "repeats": 12}
    )
    pattern = (True, True, False)
    addresses = (address,) * 60 + (address + config.bit_sets * 16,)
    addresses += (address,) * 9
    outcomes = pattern * 20 + (True,) + pattern * 3
    evicted = BranchProgram(
        addresses, outcomes, tuple(range(len(addresses)))
    )
    return [alternating, evicted]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["skylake", "haswell", "sandy_bridge"])
def preset_name(request):
    return request.param


@pytest.fixture
def full_config(preset_name) -> PredictorConfig:
    return {
        "skylake": skylake,
        "haswell": haswell,
        "sandy_bridge": sandy_bridge,
    }[preset_name]()


@pytest.fixture
def small_config(full_config) -> PredictorConfig:
    return full_config.scaled(TEST_SCALE)


@pytest.fixture
def core(small_config) -> PhysicalCore:
    return PhysicalCore(small_config, seed=7)


@pytest.fixture
def haswell_core() -> PhysicalCore:
    """A single deterministic small core for tests that don't need the
    per-preset matrix."""
    return PhysicalCore(haswell().scaled(TEST_SCALE), seed=7)


@pytest.fixture
def skylake_core() -> PhysicalCore:
    return PhysicalCore(skylake().scaled(TEST_SCALE), seed=7)


@pytest.fixture
def spy() -> Process:
    return Process("spy")


@pytest.fixture
def victim() -> Process:
    return Process("victim")
