"""Hypothesis lattice and exact simulation for the fuzzer.

A **hypothesis** names one point in the geometry lattice the fuzzer
searches: direction-table size, PHT index hash, per-entry FSM variant
and global-history length — the four dimensions BranchScope's §6.3
methodology (and the Arm follow-up papers) recover by hand.  The
default lattice is the full cross product (120 candidates), which
includes the true geometry of every :data:`repro.bpu.presets.PRESETS`
entry.

Elimination is *exact simulation*: for each hypothesis the fuzzer runs
the candidate hybrid predictor over the program and predicts the
observed hit bits.  One structural parameter is deliberately **not** in
the lattice: the selector's initial bias (1 or 2 across the zoo).  It
is handled as a nuisance by **dual simulation** — every program is
simulated under both plausible initial biases, and only bits on which
the two runs *agree* may eliminate a hypothesis.  Soundness: the true
geometry simulated under the true bias reproduces the oracle exactly
(the simulator models every structure these program families can
excite — see the family notes in :mod:`repro.fuzz.generate`), so on
any agreed bit the predicted value equals the observation and the true
hypothesis survives every observation.  Disagreeing (selector-
sensitive) bits simply carry no evidence.

The simulator is one kernel op, :func:`repro.kernels.hypothesis_hits`:
a list of programs, concatenated, against a bank of rows (one per
hypothesis: table size, hash shift, history bits and the initial level
of its FSM in one level space shared by all three variants), every
selector bias in the same walk.  :func:`simulate_program` — one
program, one hypothesis, one bias — runs the numpy backend's loop, so
the readable reference and the numpy backend are one function;
``tests/test_fuzz.py`` and ``tests/test_kernels.py`` pin the op on
every backend to it, row for row, on the whole lattice.

:class:`HypothesisLattice` simulates the *surviving* rows only, so an
observation costs in proportion to what is still alive.  ``observe``
walks a generation in chunks: a chunk takes the next program and keeps
adding programs while survivors × chunk steps stays within
:data:`_CHUNK_WORK` (120 × 128), one op call per chunk over the rows
alive at its start.  On the seed-0 battery that is two calls: the 24
short programs over the full lattice, then the six history programs
over the handful left.  A row's signatures and agreed mask depend on
that hypothesis and that program alone, each chunk runs over a
superset of the later survivors, and refutation only clears survivor
bits, so neither skipping dead rows nor grouping programs changes any
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.bpu.fsm import (
    FSMSpec,
    State,
    skylake_fsm,
    textbook_2bit_fsm,
    three_bit_fsm,
)
from repro.bpu.hashes import kernel_shift
from repro.fuzz.generate import (
    CANDIDATE_HISTORY_BITS,
    CANDIDATE_TABLE_SIZES,
    BranchProgram,
)
from repro.kernels import numpy_backend

__all__ = [
    "FSM_VARIANTS",
    "Hypothesis",
    "HypothesisLattice",
    "SELECTOR_INITIALS",
    "default_lattice",
    "simulate_program",
]

#: FSM variant name -> spec factory.  The fuzzer's third dimension.
FSM_VARIANTS: Dict[str, Callable[[], FSMSpec]] = {
    "textbook": textbook_2bit_fsm,
    "skylake": skylake_fsm,
    "three_bit": three_bit_fsm,
}

#: Selector initial biases the zoo uses; the dual-simulation nuisance set.
SELECTOR_INITIALS: Tuple[int, ...] = (1, 2)

#: Saturation value of the 3-bit choice counters (gshare takeover).
_SELECTOR_MAX = 7

#: Work bound of one op call: survivors × steps of the programs
#: simulated together.  120 hypotheses × 128 steps covers the whole
#: lattice over the battery's 24 short programs in one call, and lets
#: the long history programs share a call once a handful survive, so
#: the rows the first call refutes cost nothing on the long programs.
_CHUNK_WORK = 120 * 128


@dataclass(frozen=True)
class Hypothesis:
    """One candidate geometry: the four recoverable dimensions."""

    table_entries: int
    index_hash: str
    fsm_name: str
    ghr_bits: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "table_entries": self.table_entries,
            "index_hash": self.index_hash,
            "fsm_name": self.fsm_name,
            "ghr_bits": self.ghr_bits,
        }


def default_lattice() -> Tuple[Hypothesis, ...]:
    """The full cross product: 4 sizes × 2 hashes × 3 FSMs × 5 histories."""
    return tuple(
        Hypothesis(size, index_hash, fsm_name, ghr_bits)
        for size, index_hash, fsm_name, ghr_bits in product(
            CANDIDATE_TABLE_SIZES,
            ("mod", "fold"),
            sorted(FSM_VARIANTS),
            CANDIDATE_HISTORY_BITS,
        )
    )


@lru_cache(maxsize=None)
def _fsm_space() -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
    """The FSM variants side by side in one level space: the op's step
    table and predictions, and each variant's initial (WN) level there."""
    steps, predicts, init, offset = [], [], {}, 0
    for name in sorted(FSM_VARIANTS):
        fsm = FSM_VARIANTS[name]()
        steps.append(fsm.step_table + offset)
        predicts.append(fsm.predict_taken)
        init[name] = offset + fsm.level_for(State.WN)
        offset += fsm.n_levels
    step_table = np.concatenate(steps, axis=1)
    predict_taken = np.concatenate(predicts)
    # Cached and shared by every caller: never written.
    step_table.flags.writeable = predict_taken.flags.writeable = False
    return step_table, predict_taken, init


def _rows(hypotheses: Sequence[Hypothesis]) -> np.ndarray:
    """The op's row parameters, shape (4, K): table size, hash shift,
    history bits and initial level per hypothesis."""
    init = _fsm_space()[2]
    return np.array(
        [
            [h.table_entries for h in hypotheses],
            [kernel_shift(h.index_hash, h.table_entries) for h in hypotheses],
            [h.ghr_bits for h in hypotheses],
            [init[h.fsm_name] for h in hypotheses],
        ],
        dtype=np.int64,
    )


def _programs(
    programs: Sequence[BranchProgram],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``programs`` concatenated as the op takes them: addresses,
    outcomes, each program's first step and the observed steps."""
    lengths = [len(p) for p in programs]
    starts = np.cumsum([0] + lengths)[:-1]
    n = sum(lengths)
    return (
        np.fromiter(
            chain.from_iterable(p.addresses for p in programs), np.int64, n
        ),
        np.fromiter(
            chain.from_iterable(p.outcomes for p in programs), bool, n
        ),
        starts,
        np.fromiter(
            (
                start + step
                for program, start in zip(programs, starts.tolist())
                for step in program.observed
            ),
            np.int64,
        ),
    )


def _columns(programs: Sequence[BranchProgram]) -> List[int]:
    """Column bounds: program ``i``'s observed steps are the hit-bit
    columns ``bounds[i]`` up to ``bounds[i + 1]``."""
    return np.cumsum([0] + [len(p.observed) for p in programs]).tolist()


def simulate_program(
    program: BranchProgram,
    hypothesis: Hypothesis,
    selector_initial: int,
) -> Tuple[bool, ...]:
    """Reference: the hit bits ``hypothesis`` predicts for ``program``
    under selector bias ``selector_initial``.

    An exact model of :class:`~repro.bpu.hybrid.HybridPredictor` for
    the fuzzer's program families: bimodal and gshare PHTs (both at the
    hypothesis size, behind the hypothesis index hash), the truncated
    and folded GHR, per-address choice counters with the McFarling
    update, and identity-based cold detection (a program address is
    "new" until its first execution — equivalent to the identification
    table for these families, see :mod:`repro.fuzz.generate`).  One row
    of the numpy backend's loop
    (:func:`repro.kernels.numpy_backend.hypothesis_hits`), whatever
    backend is active.
    """
    step_table, predict_taken, _ = _fsm_space()
    hits = numpy_backend.hypothesis_hits(
        *_programs([program]), *_rows([hypothesis]), step_table,
        predict_taken, (selector_initial,), _SELECTOR_MAX,
    )
    return tuple(hits[0, 0].tolist())


class HypothesisLattice:
    """Survivor tracking: hypotheses not yet refuted by any observation.

    ``observe`` applies a list of programs' oracle hits with the dual-
    simulation nuisance masking described in the module docstring;
    ``partition_scores`` ranks *candidate* programs by how finely their
    agreed bits split the current survivors (the fuzzer's generation
    planner maximises it).

    ``hypotheses`` fixes the row order that ``alive`` and
    ``survivors()`` follow.  Programs are simulated only over the
    surviving rows, with one :func:`repro.kernels.hypothesis_hits` call
    per chunk of consecutive programs; a chunk grows while survivors ×
    chunk steps stays within :data:`_CHUNK_WORK`, and ``observe``
    re-reads the survivors between chunks.  Exact: a row's signatures
    and agreed mask depend on that hypothesis alone, and refutation
    only clears ``alive`` bits, so a dead row can never change a
    result.
    """

    def __init__(
        self, hypotheses: Optional[Sequence[Hypothesis]] = None
    ) -> None:
        self.hypotheses: Tuple[Hypothesis, ...] = tuple(
            default_lattice() if hypotheses is None else hypotheses
        )
        if not self.hypotheses:
            raise ValueError("need at least one hypothesis")
        self.alive = np.ones(len(self.hypotheses), dtype=bool)
        self._rows = _rows(self.hypotheses)

    def _masked(
        self, programs: Sequence[BranchProgram]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Survivors' signatures under the low nuisance bias, the agreed
        mask and the lattice rows they belong to, from one op call (both
        biases at once, none when nothing survives); one row per
        survivor, in ascending lattice-row order."""
        rows = np.flatnonzero(self.alive)
        if not len(rows):
            empty = np.zeros((0, _columns(programs)[-1]), dtype=bool)
            return empty, empty, rows
        step_table, predict_taken, _ = _fsm_space()
        by_bias = kernels.hypothesis_hits(
            *_programs(programs), *self._rows[:, rows], step_table,
            predict_taken, SELECTOR_INITIALS, _SELECTOR_MAX,
        )
        return by_bias[0], (by_bias == by_bias[0]).all(axis=0), rows

    def _chunk_end(self, programs: Sequence[BranchProgram], start: int) -> int:
        """End of the chunk that starts at ``programs[start]``: that
        program, then each next one while survivors × chunk steps stays
        within :data:`_CHUNK_WORK`."""
        survivors = int(self.alive.sum())
        steps = len(programs[start])
        end = start + 1
        while end < len(programs) and (
            survivors * (steps + len(programs[end])) <= _CHUNK_WORK
        ):
            steps += len(programs[end])
            end += 1
        return end

    def observe(
        self,
        programs: Sequence[BranchProgram],
        hits: Sequence[Sequence[object]],
    ) -> int:
        """Eliminate hypotheses refuted by each program's ``hits``;
        returns survivors."""
        programs = list(programs)
        if len(hits) != len(programs):
            raise ValueError(
                f"got hit bits for {len(hits)} programs, "
                f"expected {len(programs)}"
            )
        for i, (program, bits) in enumerate(zip(programs, hits)):
            if len(bits) != len(program.observed):
                raise ValueError(
                    f"program {i}: got {len(bits)} hit bits for a "
                    f"program with {len(program.observed)} observed steps"
                )
        columns = _columns(programs)
        observed = np.fromiter(
            chain.from_iterable(hits), dtype=bool, count=columns[-1]
        )
        start = 0
        while start < len(programs) and self.alive.any():
            end = self._chunk_end(programs, start)
            signatures, mask, rows = self._masked(programs[start:end])
            wrong = signatures != observed[columns[start]:columns[end]]
            self.alive[rows[np.any(mask & wrong, axis=1)]] = False
            start = end
        return int(self.alive.sum())

    def partition_scores(self, programs: Sequence[BranchProgram]) -> List[int]:
        """Per program, the distinct agreed-bit signatures among
        survivors (higher = more discriminating; 1 means the program
        cannot eliminate anything, 0 that nothing survives)."""
        programs = list(programs)
        scores: List[int] = []
        start = 0
        while start < len(programs):
            end = self._chunk_end(programs, start)
            signatures, mask, _ = self._masked(programs[start:end])
            keys = np.where(mask, signatures.astype(np.int8), np.int8(2))
            bounds = _columns(programs[start:end])
            scores.extend(
                len({row.tobytes() for row in keys[:, lo:hi]})
                for lo, hi in zip(bounds[:-1], bounds[1:])
            )
            start = end
        return scores

    def survivors(self) -> Tuple[Hypothesis, ...]:
        return tuple(
            h for h, alive in zip(self.hypotheses, self.alive) if alive
        )

    @property
    def converged(self) -> bool:
        return int(self.alive.sum()) == 1
