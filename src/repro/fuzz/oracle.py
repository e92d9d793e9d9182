"""The opaque preset oracle: probe outcomes in, hit bits out.

The fuzzer's entire measurement channel.  A :class:`PresetOracle` wraps
one :data:`repro.bpu.presets.PRESETS` entry and answers exactly one
question per program: *at each observed step, did the predictor's
direction prediction match the architectural outcome?*  Nothing else —
no table contents, no component attribution, no geometry — crosses the
boundary, mirroring what a real attacker measures through the §6.1
prime+probe channel (a hit/miss bit per probe branch).

Each program runs on a **fresh** predictor (power-up state), matching
the paper's per-experiment PHT randomisation discipline: programs are
independent trials, so the service may shard and reorder them freely.

A program runs as one :func:`repro.kernels.predictor_hits` call, the
compiled form of :meth:`repro.bpu.hybrid.HybridPredictor.execute`
stepped over the program.  The op's arguments are read once, from a
predictor the preset's config builds, so they cannot drift from the
Python predictor; no per-branch ``bpu`` trace events are emitted.
"""

from __future__ import annotations

from typing import Tuple

from repro import kernels
from repro.bpu.hashes import kernel_shift
from repro.bpu.presets import PRESETS
from repro.fuzz.generate import BranchProgram

__all__ = ["PresetOracle"]


class PresetOracle:
    """Opaque wrapper around one preset's hybrid predictor.

    Immutable once built, and :meth:`run` is a pure function of the
    program, so one oracle may serve any number of programs, threads
    and campaigns.
    """

    def __init__(self, preset: str, scale: int = 1) -> None:
        config = PRESETS[preset]()
        if scale != 1:
            config = config.scaled(scale)
        predictor = config.build()
        bimodal, gshare = predictor.bimodal, predictor.gshare
        # build() gives both PHTs one FSM and one power-up level; entry
        # 0 of a power-up table holds the initial counter or level.
        fsm = bimodal.pht.fsm
        n_b, n_g = bimodal.pht.n_entries, gshare.pht.n_entries
        # predictor_hits's arguments after the program, in order.
        self._geometry = (
            n_b,
            kernel_shift(bimodal.index_hash, n_b),
            n_g,
            kernel_shift(gshare.index_hash, n_g),
            predictor.ghr.length,
            predictor.selector.n_entries,
            predictor.selector.counter(0),
            predictor.selector.max_counter,
            predictor.bit.n_sets,
            predictor.bit.tag_bits,
            fsm.step_table,
            fsm.predict_taken,
            bimodal.pht.level(0),
        )
        self.preset = preset
        self.scale = scale

    def run(self, program: BranchProgram) -> Tuple[bool, ...]:
        """Execute ``program`` on a fresh predictor; return the hit bits.

        ``hits[j]`` is True iff the prediction at step
        ``program.observed[j]`` matched the architectural outcome.
        """
        hits = kernels.predictor_hits(
            program.addresses, program.outcomes, program.observed,
            *self._geometry,
        )
        return tuple(hits.tolist())
