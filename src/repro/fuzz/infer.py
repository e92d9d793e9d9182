"""Hypothesis lattice and exact simulators for the fuzzer.

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

Two simulator implementations with one contract:

* :func:`simulate_program` — dict-based scalar reference, one
  hypothesis and one bias at a time; the readable spec.
* :class:`HypothesisBank` — all K hypotheses and any set of biases in
  one loop-free pass, as two kinds of monoid scan.  Both PHTs train on
  the architectural outcome, so every bimodal and gshare level before
  every step is an exclusive segmented prefix of FSM transition-monoid
  ids (:class:`~repro.bpu.fsm.TransitionMonoid`) keyed by (index
  column, entry) — one scan per table, bias-independent.  That fixes
  which PHT was right at every step, so the 3-bit choice counter's
  moves (up, down or none) are bias-independent too: one scan per
  (hypothesis, address) over the counter's own 8-state monoid gives
  each counter's prefix *map*, and evaluating it at bias 1 and bias 2
  yields both dual simulations from the same pass.
  ``tests/test_fuzz.py`` pins the two bit-identical on the whole
  lattice.

One bank pass evaluates a *list* of programs: their steps are
concatenated and every scan key carries the program's list position,
so the PHT segments, the history window (zero history at each
program's first step), first-execution ``cold`` and the choice-counter
scans all restart per program, and each observed column reports its
owning program.  A single program is the one-element list.

:class:`HypothesisLattice` runs programs through a bank over the
*surviving* hypotheses only, rebuilt when the survivor set shrinks, so
an observation costs in proportion to what is still alive.  ``observe``
walks a generation in chunks: a chunk takes the next program and keeps
adding programs while survivors × chunk steps stays within
:data:`_CHUNK_WORK` (120 × 128), one pass per chunk, with the survivors
bank rebuilt between chunks.  On the seed-0 battery that is two passes:
the 24 short programs over the full lattice, then the six history
programs over the handful left.  A row's signatures and agreed mask
depend on that hypothesis and that program alone, each chunk runs over
a superset of the later survivors, and refutation only clears survivor
bits, so neither skipping dead rows nor grouping programs changes any
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bpu.fsm import (
    FSMSpec,
    State,
    TransitionMonoid,
    monoid_closure,
    skylake_fsm,
    textbook_2bit_fsm,
    three_bit_fsm,
)
from repro.bpu.hashes import apply_hash, fold_history
from repro.fuzz.generate import (
    CANDIDATE_HISTORY_BITS,
    CANDIDATE_TABLE_SIZES,
    MAX_ADDRESS,
    BranchProgram,
)

__all__ = [
    "FSM_VARIANTS",
    "Hypothesis",
    "HypothesisBank",
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

#: Global-history register width (the widest candidate history).
_GHR_WIDTH = 24

#: Work bound of one lattice pass: survivors × steps of the programs
#: evaluated together.  120 hypotheses × 128 steps covers the whole
#: lattice over the battery's 24 short programs in one pass, and lets
#: the long history programs share a pass once a handful survive; it
#: also caps a pass's transient arrays.
_CHUNK_WORK = 120 * 128

#: Weights packing a window of the last ``_GHR_WIDTH`` outcomes, oldest
#: first, into the history value (newest outcome in bit 0).
_GHR_WEIGHTS = 1 << np.arange(_GHR_WIDTH - 1, -1, -1, dtype=np.int64)


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


def simulate_program(
    program: BranchProgram,
    hypothesis: Hypothesis,
    selector_initial: int,
) -> Tuple[bool, ...]:
    """Scalar reference: the hit bits ``hypothesis`` predicts.

    An exact model of :class:`~repro.bpu.hybrid.HybridPredictor` for
    the fuzzer's program families: bimodal and gshare PHTs (both at the
    hypothesis size, behind the hypothesis index hash), the truncated
    GHR, per-address choice counters with the McFarling update, and
    identity-based cold detection (a program address is "new" until its
    first execution — equivalent to the identification table for these
    families, see :mod:`repro.fuzz.generate`).
    """
    fsm = FSM_VARIANTS[hypothesis.fsm_name]()
    init = fsm.level_for(State.WN)
    n = hypothesis.table_entries
    mask = (1 << hypothesis.ghr_bits) - 1
    bimodal: Dict[int, int] = {}
    gshare: Dict[int, int] = {}
    counters: Dict[int, int] = {}
    seen = set()
    ghr = 0
    observed = set(program.observed)
    hits: List[bool] = []
    for step, (address, taken) in enumerate(
        zip(program.addresses, program.outcomes)
    ):
        bi = int(apply_hash(hypothesis.index_hash, address, n))
        folded = fold_history(ghr & mask, hypothesis.ghr_bits, n)
        gi = int(apply_hash(hypothesis.index_hash, address ^ folded, n))
        b_level = bimodal.get(bi, init)
        g_level = gshare.get(gi, init)
        b_taken = fsm.predicts(b_level)
        g_taken = fsm.predicts(g_level)
        cold = address not in seen
        use_gshare = (
            not cold
            and counters.get(address, selector_initial) >= _SELECTOR_MAX
        )
        predicted = g_taken if use_gshare else b_taken
        if step in observed:
            hits.append(predicted == taken)
        # Resolve: train both PHTs, selector, history, seen-set.
        bimodal[bi] = fsm.step(b_level, taken)
        gshare[gi] = fsm.step(g_level, taken)
        if cold:
            counters[address] = selector_initial
        else:
            b_correct = b_taken == taken
            g_correct = g_taken == taken
            if b_correct != g_correct:
                old = counters.get(address, selector_initial)
                counters[address] = (
                    min(_SELECTOR_MAX, old + 1)
                    if g_correct
                    else max(0, old - 1)
                )
        ghr = ((ghr << 1) | int(taken)) & 0xFFFFFF
        seen.add(address)
    return tuple(hits)


def _distinct(keys: List) -> Tuple[List, np.ndarray]:
    """Sorted distinct ``keys``, plus each key's position among them."""
    distinct = sorted(set(keys))
    return distinct, np.array([distinct.index(key) for key in keys])


def _owners(programs: Sequence[BranchProgram]) -> np.ndarray:
    """List position of the program each observed column belongs to."""
    return np.repeat(
        np.arange(len(programs)),
        np.array([len(p.observed) for p in programs], dtype=np.intp),
    )


def _counter_monoid() -> TransitionMonoid:
    """The choice counter's maps: closure of its down and up moves.

    ``outcome_ids[0]`` is "gshare wrong" (down), ``outcome_ids[1]``
    "gshare right" (up); a step that moves nothing is the identity.
    """
    levels = range(_SELECTOR_MAX + 1)
    return monoid_closure(
        _SELECTOR_MAX + 1,
        (
            tuple(max(0, c - 1) for c in levels),
            tuple(min(_SELECTOR_MAX, c + 1) for c in levels),
        ),
    )


def _exclusive_scan(
    ids: np.ndarray, keys: np.ndarray, compose: np.ndarray, identity
) -> np.ndarray:
    """Exclusive segmented prefix composition of ``ids`` down axis 0.

    Rows are in segment-sorted order: ``keys`` (broadcastable against
    ``ids``) holds each row's segment key, equal keys are contiguous and
    in program order.  Row ``i`` of the result is the composition of
    the rows before it in its segment — ``identity`` for a segment's
    first row — i.e. the map an entry has accumulated just *before*
    step ``i``.  A sparse Hillis-Steele scan over the shifted input,
    as in the numpy kernel backend's ``fold_ids``.
    """
    prefix = np.empty_like(ids)
    prefix[0] = identity
    prefix[1:] = np.where(keys[1:] == keys[:-1], ids[:-1], identity)
    stride = 1
    while stride < len(ids):
        same = keys[stride:] == keys[:-stride]
        if not same.any():
            break
        prefix[stride:] = np.where(
            same, compose[prefix[:-stride], prefix[stride:]], prefix[stride:]
        )
        stride *= 2
    return prefix


class HypothesisBank:
    """All K hypotheses and both nuisance biases in one loop-free pass.

    Both PHTs train on the *architectural* outcome, so the level of
    every bimodal and gshare entry before every step is an exclusive
    segmented prefix of FSM transition-monoid ids keyed by (index
    column, entry) — one scan per table, the three FSM variants side by
    side in one block-diagonal id space, independent of the selector
    bias.  The choice counters then see a bias-independent move
    sequence (up, down or none), so one more scan per (hypothesis,
    address) over the counter monoid yields a prefix *map*; evaluating
    it at each bias gives every bias's simulation from the same pass.
    """

    def __init__(self, hypotheses: Sequence[Hypothesis]) -> None:
        self.hypotheses: Tuple[Hypothesis, ...] = tuple(hypotheses)
        if not self.hypotheses:
            raise ValueError("need at least one hypothesis")
        names, self._variant_of = _distinct(
            [h.fsm_name for h in self.hypotheses]
        )
        # Index columns: the FSM never changes an index, so each table
        # needs one column per distinct (size, hash[, history]).
        self._bimodal_columns, self._bimodal_of = _distinct(
            [(h.table_entries, h.index_hash) for h in self.hypotheses]
        )
        self._gshare_columns, self._gshare_of = _distinct(
            [
                (h.table_entries, h.index_hash, h.ghr_bits)
                for h in self.hypotheses
            ]
        )
        # FSM variants: block-diagonal union of their transition monoids
        # (off-diagonal blocks are never read: a scan segment's ids all
        # come from one variant).
        specs = [FSM_VARIANTS[name]() for name in names]
        monoids = [spec.transition_monoid() for spec in specs]
        offsets = np.cumsum([0] + [len(m.maps) for m in monoids])
        self._compose = np.zeros((offsets[-1], offsets[-1]), dtype=np.int16)
        # Prediction of an entry whose initial (WN) level went through id.
        self._predicts = np.empty(offsets[-1], dtype=bool)
        self._step_ids = np.empty((2, len(names)), dtype=np.int16)
        for v, (spec, monoid) in enumerate(zip(specs, monoids)):
            lo, hi = offsets[v], offsets[v + 1]
            self._compose[lo:hi, lo:hi] = monoid.compose_table + lo
            init = spec.level_for(State.WN)
            self._predicts[lo:hi] = spec.predicts_array(monoid.maps[:, init])
            self._step_ids[:, v] = monoid.outcome_ids + lo
        self._identities = offsets[:-1].astype(np.int16)
        self._counter = _counter_monoid()
        # PHT scan key of entry e in the program at list position p:
        # p * stride + e, so each program's entries are their own segments.
        self._entries_stride = max(h.table_entries for h in self.hypotheses)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def _bimodal_indices(self, addresses: np.ndarray) -> np.ndarray:
        """Bimodal PHT index per step and column, shape (T, columns)."""
        out = np.empty((len(addresses), len(self._bimodal_columns)), np.int32)
        for c, (size, index_hash) in enumerate(self._bimodal_columns):
            out[:, c] = apply_hash(index_hash, addresses, size)
        return out

    def _gshare_indices(
        self, addresses: np.ndarray, outcomes: np.ndarray, position: np.ndarray
    ) -> np.ndarray:
        """gshare PHT index per step and column, shape (T, columns)."""
        # Outcome-determined history before each step, truncated to
        # the widest candidate (24 bits); columns mask it narrower.
        # ``position`` is each step's index in its own program: outcomes
        # from before a program's first step are masked off.
        padded = np.concatenate(
            [np.zeros(_GHR_WIDTH, dtype=np.int64), outcomes[:-1]]
        )
        history = (
            np.lib.stride_tricks.sliding_window_view(padded, _GHR_WIDTH)
            @ _GHR_WEIGHTS
        ) & ((1 << np.minimum(position, _GHR_WIDTH)) - 1)
        out = np.empty((len(addresses), len(self._gshare_columns)), np.int32)
        folds: Dict[Tuple[int, int], np.ndarray] = {}
        for c, (size, index_hash, bits) in enumerate(self._gshare_columns):
            if (size, bits) not in folds:
                folds[size, bits] = addresses ^ fold_history(
                    history & ((1 << bits) - 1), bits, size
                )
            out[:, c] = apply_hash(index_hash, folds[size, bits], size)
        return out

    def _table_predictions(
        self, entries: np.ndarray, column_of: np.ndarray, outcomes: np.ndarray
    ) -> np.ndarray:
        """Each hypothesis's PHT prediction before every step, (T, K),
        from each step's (program, entry) scan key per index column."""
        order = np.argsort(entries, axis=0, kind="stable")
        keys = np.take_along_axis(entries, order, axis=0)[:, :, None]
        # (T, columns, variants) ids: each column once per FSM variant.
        steps = self._step_ids[outcomes[order]]
        prefix = _exclusive_scan(steps, keys, self._compose, self._identities)
        predicts = np.empty(prefix.shape, dtype=bool)
        predicts[order, np.arange(entries.shape[1])] = self._predicts[prefix]
        return predicts[:, column_of, self._variant_of]

    def signatures_by_bias(
        self, programs: Sequence[BranchProgram], biases: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted hit bits of ``programs`` for every selector bias and
        hypothesis, in one pass.

        Returns ``(bits, owner)``: ``bits`` has shape (biases, K,
        observed), with every program's observed steps side by side in
        list order, and ``owner[j]`` is the list position of the program
        that column ``j`` observes.  Each program starts from power-up
        state: the steps are concatenated and every scan key carries the
        program's position, so PHT entries, the history window, first
        executions and choice counters all restart per program.
        """
        biases = [int(b) for b in biases]
        if any(not 0 <= b <= _SELECTOR_MAX for b in biases):
            raise ValueError(f"selector biases must lie in 0..{_SELECTOR_MAX}")
        owner = _owners(programs)
        if not len(owner):
            return np.zeros((len(biases), len(self), 0), dtype=bool), owner
        lengths = [len(p) for p in programs]
        starts = np.cumsum([0] + lengths[:-1]).tolist()
        program_of = np.repeat(np.arange(len(programs)), lengths)
        position = np.arange(len(program_of)) - np.repeat(starts, lengths)
        observed = np.array(
            [
                start + step
                for program, start in zip(programs, starts)
                for step in program.observed
            ],
            dtype=np.intp,
        )
        addresses = np.array(
            [a for p in programs for a in p.addresses], dtype=np.int64
        )
        outcomes = np.array(
            [o for p in programs for o in p.outcomes], dtype=np.int8
        )
        entry_base = program_of[:, None] * self._entries_stride
        b_taken = self._table_predictions(
            self._bimodal_indices(addresses) + entry_base,
            self._bimodal_of,
            outcomes,
        )
        g_taken = self._table_predictions(
            self._gshare_indices(addresses, outcomes, position) + entry_base,
            self._gshare_of,
            outcomes,
        )
        # Choice counters: a non-cold step where exactly one PHT was
        # right moves the counter toward it; cold steps leave the
        # initial bias in place.  Keyed by (program, address).
        _, first, aid = np.unique(
            program_of * MAX_ADDRESS + addresses,
            return_index=True,
            return_inverse=True,
        )
        cold = np.zeros(len(addresses), dtype=bool)
        cold[first] = True
        taken = outcomes.astype(bool)[:, None]
        g_right = g_taken == taken
        moves = np.where(
            (g_right != (b_taken == taken)) & ~cold[:, None],
            self._counter.outcome_ids[g_right.astype(np.intp)],
            self._counter.IDENTITY,
        ).astype(np.int16)
        order = np.argsort(aid, kind="stable")
        prefix = np.empty_like(moves)
        prefix[order] = _exclusive_scan(
            moves[order],
            aid[order, None],
            self._counter.compose_table,
            self._counter.IDENTITY,
        )
        # Counter value before each observed step, at every bias.
        counters = self._counter.maps[:, biases][prefix[observed]]
        use_gshare = ~cold[observed, None, None] & (counters >= _SELECTOR_MAX)
        predicted = np.where(
            use_gshare,
            g_taken[observed, :, None],
            b_taken[observed, :, None],
        )
        hits = predicted == taken[observed, :, None]
        return hits.transpose(2, 1, 0), owner

    def signatures(
        self, programs: Sequence[BranchProgram], selector_initial: int
    ) -> np.ndarray:
        """Predicted hit bits for every hypothesis, shape (K, observed)."""
        return self.signatures_by_bias(programs, (selector_initial,))[0][0]


class HypothesisLattice:
    """Survivor tracking: hypotheses not yet refuted by any observation.

    ``observe`` applies a list of programs' oracle hits with the dual-
    simulation nuisance masking described in the module docstring;
    ``partition_scores`` ranks *candidate* programs by how finely their
    agreed bits split the current survivors (the fuzzer's generation
    planner maximises it).

    ``bank`` is the full lattice's bank: it fixes the row order that
    ``alive`` and ``survivors()`` follow.  Programs are simulated only
    over the surviving rows, by a second bank over exactly those
    hypotheses, built when the survivor set changes and shared by every
    call until it changes again (the full bank serves while everything
    is alive).  Exact: a row's signatures and agreed mask depend on
    that hypothesis alone, and refutation only clears ``alive`` bits,
    so a dead row can never change a result.

    Both methods walk their list in chunks of consecutive programs, one
    bank pass each; a chunk grows while survivors × chunk steps stays
    within :data:`_CHUNK_WORK`, and ``observe`` rebuilds the survivors
    bank between chunks.
    """

    def __init__(
        self, hypotheses: Optional[Sequence[Hypothesis]] = None
    ) -> None:
        self.bank = HypothesisBank(
            default_lattice() if hypotheses is None else hypotheses
        )
        self.alive = np.ones(len(self.bank), dtype=bool)
        # The survivors bank and the rows it covers, ascending; the bank
        # is None once no hypothesis survives (a bank needs at least one).
        self._rows = np.arange(len(self.bank))
        self._survivors: Optional[HypothesisBank] = self.bank

    def _survivors_bank(self) -> Optional[HypothesisBank]:
        """The bank over the current survivors (rows ``self._rows``)."""
        rows = np.flatnonzero(self.alive)
        if not np.array_equal(rows, self._rows):
            self._rows = rows
            self._survivors = (
                HypothesisBank([self.bank.hypotheses[r] for r in rows])
                if len(rows)
                else None
            )
        return self._survivors

    def _masked(
        self, programs: Sequence[BranchProgram]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Survivors' signatures under the low nuisance bias, the agreed
        mask and each column's owning program, from one pass of the bank
        (both biases at once); one row per survivor, in ascending
        lattice-row order."""
        bank = self._survivors_bank()
        if bank is None:
            owner = _owners(programs)
            empty = np.zeros((0, len(owner)), dtype=bool)
            return empty, empty, owner
        by_bias, owner = bank.signatures_by_bias(programs, SELECTOR_INITIALS)
        return by_bias[0], (by_bias == by_bias[0]).all(axis=0), owner

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
        hits: Sequence[Iterable[object]],
    ) -> int:
        """Eliminate hypotheses refuted by each program's ``hits``;
        returns survivors."""
        programs = list(programs)
        observed = [
            np.array([bool(int(h)) for h in bits], dtype=bool) for bits in hits
        ]
        if len(observed) != len(programs):
            raise ValueError(
                f"got hit bits for {len(observed)} programs, "
                f"expected {len(programs)}"
            )
        for i, (program, bits) in enumerate(zip(programs, observed)):
            if bits.shape[0] != len(program.observed):
                raise ValueError(
                    f"program {i}: got {bits.shape[0]} hit bits for a "
                    f"program with {len(program.observed)} observed steps"
                )
        start = 0
        while start < len(programs) and self.alive.any():
            end = self._chunk_end(programs, start)
            signatures, mask, _ = self._masked(programs[start:end])
            wrong = signatures != np.concatenate(observed[start:end])
            self.alive[self._rows[np.any(mask & wrong, axis=1)]] = False
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
            signatures, mask, owner = self._masked(programs[start:end])
            keys = np.where(mask, signatures.astype(np.int8), np.int8(2))
            bounds = np.searchsorted(owner, np.arange(end - start + 1))
            scores.extend(
                len({row.tobytes() for row in keys[:, lo:hi]})
                for lo, hi in zip(bounds[:-1], bounds[1:])
            )
            start = end
        return scores

    def survivors(self) -> Tuple[Hypothesis, ...]:
        return tuple(
            h for h, alive in zip(self.bank.hypotheses, self.alive) if alive
        )

    @property
    def converged(self) -> bool:
        return int(self.alive.sum()) == 1
