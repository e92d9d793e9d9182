"""Prediction finite state machines (paper §6.1, Figure 3).

Each pattern history table (PHT) entry is a small saturating-counter FSM
that produces the taken/not-taken prediction for branches mapping to it.
The paper reverse-engineers two behaviours:

* Haswell and Sandy Bridge follow the *textbook two-bit counter* with four
  states — strongly not-taken (SN), weakly not-taken (WN), weakly taken
  (WT) and strongly taken (ST) — exactly as in Figure 3.
* Skylake exhibits a quirk (Table 1, footnote 1): after priming a counter
  to ST and observing one not-taken outcome, probing with two not-taken
  branches yields *two* mispredictions (``MM``) instead of the textbook
  miss-then-hit (``MH``).  Equivalently, the taken side of the counter is
  "sticky" and the ST and WT states are indistinguishable to a two-probe
  observer.  We model this with a five-level counter whose taken side has
  one extra level (see :func:`skylake_fsm`); the extra level reproduces
  every row of Table 1 including the footnote.

An :class:`FSMSpec` is a pure transition-table description, so the PHT can
store raw integer *levels* in a NumPy array and apply transitions either
scalar-at-a-time (exact simulation) or vectorised (fast randomisation-block
application, see :mod:`repro.core.randomizer`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = [
    "State",
    "FSMSpec",
    "TransitionMonoid",
    "level_dtype",
    "monoid_closure",
    "textbook_2bit_fsm",
    "skylake_fsm",
    "three_bit_fsm",
]


def level_dtype(n_levels: int) -> np.dtype:
    """Smallest signed integer dtype that holds levels ``0..n_levels-1``.

    Every array that stores raw FSM levels — the spec's step table, PHT
    level vectors, transition-monoid maps — must be sized from this, or
    an FSM with more than 127 levels silently wraps in int8.
    """
    if n_levels < 1:
        raise ValueError("an FSM needs at least one level")
    for candidate in (np.int8, np.int16, np.int32, np.int64):
        if n_levels - 1 <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    raise ValueError(f"n_levels {n_levels} exceeds any integer dtype")


class State(enum.IntEnum):
    """Architectural (observable) prediction states of a PHT entry.

    These are the four states the paper reasons about (Figure 3).  FSM
    implementations may use more internal *levels* (e.g. the Skylake
    model), but every level maps onto one of these public states.
    """

    SN = 0  #: strongly not-taken
    WN = 1  #: weakly not-taken
    WT = 2  #: weakly taken
    ST = 3  #: strongly taken


@dataclass(frozen=True)
class FSMSpec:
    """Transition-table description of a prediction FSM.

    The FSM is a linear saturating counter over ``n_levels`` internal
    levels.  Level ``i`` predicts taken iff ``predict_taken[i]``; on an
    actual *taken* outcome the level moves to ``next_on_taken[i]`` and on
    a *not-taken* outcome to ``next_on_not_taken[i]``.  ``to_public[i]``
    maps the level to the observable :class:`State`.

    Instances are immutable and shared; all mutable counter storage lives
    in :class:`repro.bpu.pht.PatternHistoryTable`.
    """

    name: str
    n_levels: int
    predict_taken: Tuple[bool, ...]
    next_on_taken: Tuple[int, ...]
    next_on_not_taken: Tuple[int, ...]
    to_public: Tuple[State, ...]
    #: Whether ST and WT produce identical two-probe observations (the
    #: Skylake quirk).  Consumed by the pattern decoder.
    taken_states_ambiguous: bool = False
    # Cached NumPy lookup tables, derived in __post_init__.
    _predict_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _step_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _public_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_levels
        dtype = level_dtype(n)  # validates n >= 1, widens past 127 levels
        if not (
            len(self.predict_taken)
            == len(self.next_on_taken)
            == len(self.next_on_not_taken)
            == len(self.to_public)
            == n
        ):
            raise ValueError("FSMSpec tables must all have n_levels entries")
        for nxt in (*self.next_on_taken, *self.next_on_not_taken):
            if not 0 <= nxt < n:
                raise ValueError(f"transition target {nxt} out of range")
        predict = np.array(self.predict_taken, dtype=bool)
        # step[outcome, level]: outcome 0 = not-taken, 1 = taken.
        step = np.array(
            [self.next_on_not_taken, self.next_on_taken], dtype=dtype
        )
        public = np.array([int(s) for s in self.to_public], dtype=np.int8)
        for arr in (predict, step, public):
            arr.setflags(write=False)
        object.__setattr__(self, "_predict_arr", predict)
        object.__setattr__(self, "_step_arr", step)
        object.__setattr__(self, "_public_arr", public)

    @property
    def step_table(self) -> np.ndarray:
        """Public read-only transition table, ``step_table[outcome, level]``.

        Row 0 is the not-taken transition, row 1 the taken one.  This is
        the supported way for vectorised consumers (noise injection, the
        randomisation-block fold) to read the FSM's transitions; the
        array is immutable so it can be shared freely.
        """
        return self._step_arr

    # -- scalar interface ------------------------------------------------

    def predicts(self, level: int) -> bool:
        """Prediction (taken?) produced by an entry at ``level``."""
        return bool(self._predict_arr[level])

    def step(self, level: int, taken: bool) -> int:
        """Next level after observing an actual outcome ``taken``."""
        return int(self._step_arr[int(taken), level])

    def public_state(self, level: int) -> State:
        """Observable :class:`State` for an internal level."""
        return State(int(self._public_arr[level]))

    def level_for(self, state: State) -> int:
        """A canonical internal level representing ``state``.

        Used when priming an entry to a requested architectural state.
        When several levels map to the same public state (Skylake's two
        weak-taken levels) the *lowest* such level is returned, which is
        the one reachable by the textbook transition sequence.
        """
        for level in range(self.n_levels):
            if self.to_public[level] is state:
                return level
        raise ValueError(f"{self.name} has no level for state {state!r}")

    def saturate(self, taken: bool) -> int:
        """The saturated level reached by many consecutive ``taken`` outcomes."""
        level = 0
        for _ in range(self.n_levels + 1):
            level = self.step(level, taken)
        return level

    # -- vectorised interface ---------------------------------------------

    def predicts_array(self, levels: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predicts` over an array of levels."""
        return self._predict_arr[levels]

    def public_array(self, levels: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`public_state`, as an int8 array of State values."""
        return self._public_arr[levels]

    def transition_monoid(self) -> "TransitionMonoid":
        """The (cached) composition monoid of this FSM's outcome maps.

        See :class:`TransitionMonoid`; used by the randomisation-block
        fast path to fold long outcome sequences without stepping the
        FSM once per branch.
        """
        return _transition_monoid(self)


@dataclass(frozen=True)
class TransitionMonoid:
    """Closure of an FSM's per-outcome transition maps under composition.

    Each branch outcome applies a total function ``level -> level`` to
    the PHT entry it hits.  Folding a sequence of outcomes through the
    FSM is therefore a *composition* of such functions — and because an
    ``n``-level FSM admits at most ``n**n`` distinct functions (far
    fewer are actually reachable from the two generators), every
    reachable composition can be encoded as a small integer id and
    composed via one precomputed table lookup.  That turns the
    randomisation block's 100k-branch fold into a segmented scan over
    ids instead of a pure-Python loop over branches.

    ``maps[i]`` is the level mapping of id ``i`` (id 0 is the identity),
    ``outcome_ids[o]`` the id of a single step with outcome ``o`` (0 =
    not-taken, 1 = taken), and ``compose_table[a, b]`` the id of "apply
    ``a``, then ``b``".  All arrays are immutable.
    """

    n_levels: int
    maps: np.ndarray
    outcome_ids: np.ndarray
    compose_table: np.ndarray
    #: Holds the grown :meth:`power_table` (one slot, replaced whole).
    _powers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: Id of the identity map (fixed by construction).
    IDENTITY = 0

    def power_table(self, k_max: int) -> np.ndarray:
        """Read-only ``POW[element, k]`` with at least ``k_max + 1``
        columns: ``element`` composed ``k`` times.

        Built once per monoid and regrown only when a caller needs more
        columns.  A table is published whole after it is filled, so
        threads racing here may build it twice but never see a partial
        one; each caller keeps the table it was handed.
        """
        table = self._powers.get("pow")
        if table is None or table.shape[1] <= k_max:
            table = _power_table(self.compose_table, self.IDENTITY, k_max)
            table.setflags(write=False)
            self._powers["pow"] = table
        return table

    def compose(self, first, second):
        """Id(s) of ``second ∘ first`` — apply ``first``, then ``second``."""
        return self.compose_table[first, second]

    def outcome_id_sequence(self, outcomes: np.ndarray) -> np.ndarray:
        """Map ids of a boolean/0-1 outcome sequence, elementwise."""
        return self.outcome_ids[np.asarray(outcomes, dtype=np.int64)]

    def reduce(self, ids: np.ndarray) -> int:
        """Compose a sequence of map ids left-to-right into one id.

        Dispatches through :mod:`repro.kernels` — a pairwise tree on the
        numpy backend, a sequential accumulator on the cffi one;
        ids are canonical and composition associative, so the orders
        agree bit for bit.
        """
        from repro import kernels

        return kernels.reduce_ids(ids, self.compose_table, self.IDENTITY)

    def fold_table(
        self,
        indices: np.ndarray,
        outcomes: np.ndarray,
        n_entries: int,
    ) -> np.ndarray:
        """Fold an outcome stream into per-entry transition maps.

        ``indices[i]`` is the table entry branch ``i`` hits and
        ``outcomes[i]`` its direction; the result is the dense map
        ``table[entry, initial_level] -> final_level`` (identity rows
        for untouched entries) — bit-exact with stepping the FSM once
        per branch in program order.

        Dispatches through :mod:`repro.kernels`: the numpy backend
        stable-sorts branches by entry and composes ids with a segmented
        Hillis-Steele scan (``O(N log N)`` vectorised lookups), the
        compiled backend runs one ``O(N)`` accumulator pass; both yield
        the same composed id per entry.
        """
        from repro import kernels

        ids = kernels.fold_ids(
            np.asarray(indices, dtype=np.int64),
            self.outcome_id_sequence(outcomes).astype(np.int64),
            self.compose_table,
            int(n_entries),
            self.IDENTITY,
        )
        # maps[IDENTITY] is the identity row, so untouched entries come
        # out as identity maps exactly as before.
        return self.maps[ids]


def _power_table(
    compose_table: np.ndarray, identity: int, k_max: int
) -> np.ndarray:
    """Dense ``POW[element, k]`` = ``element`` composed ``k`` times.

    Filled by doubling rather than one column per step: with columns
    ``0..m-1`` known, columns ``m..2m-2`` are ``POW[:, m-1] o POW[:,
    1..m-1]`` — exact because powers of one element commute — so a
    ``k_max`` of a few thousand takes ~log2(k_max) gathers.
    """
    size = len(compose_table)
    pow_table = np.empty((size, k_max + 1), dtype=np.int64)
    pow_table[:, 0] = identity
    if k_max >= 1:
        pow_table[:, 1] = np.arange(size)
    m = 2
    while m <= k_max:
        hi = min(2 * m - 1, k_max + 1)
        pow_table[:, m:hi] = compose_table[
            pow_table[:, m - 1:m], pow_table[:, 1:hi - m + 1]
        ]
        m = hi
    return pow_table


#: Safety valve for degenerate FSM specs: the composition table is
#: quadratic in the monoid size, so refuse to materialise huge ones
#: (the shipped counters generate well under a hundred maps).
_MONOID_SIZE_LIMIT = 1024


@functools.lru_cache(maxsize=None)
def monoid_closure(
    n_levels: int, generators: Tuple[Tuple[int, ...], ...]
) -> TransitionMonoid:
    """Close ``generators`` (level maps on ``range(n_levels)``) under
    composition.

    ``outcome_ids[g]`` of the result is the id of ``generators[g]``, so
    an FSM's monoid lists its not-taken map first and its taken map
    second.
    """
    identity = tuple(range(n_levels))
    ids = {identity: 0}
    order = [identity]
    frontier = [identity]
    while frontier:
        fresh = []
        for mapping in frontier:
            for gen in generators:
                composed = tuple(gen[level] for level in mapping)
                if composed not in ids:
                    ids[composed] = len(order)
                    order.append(composed)
                    fresh.append(composed)
        if len(order) > _MONOID_SIZE_LIMIT:
            raise RuntimeError(
                f"{n_levels}-level transition monoid exceeds "
                f"{_MONOID_SIZE_LIMIT} maps"
            )
        frontier = fresh
    maps = np.array(order, dtype=level_dtype(n_levels))
    outcome_ids = np.array([ids[g] for g in generators], dtype=np.int64)
    size = len(order)
    compose_table = np.empty((size, size), dtype=np.int16)
    for a, first in enumerate(order):
        for b, second in enumerate(order):
            compose_table[a, b] = ids[tuple(second[level] for level in first)]
    for arr in (maps, outcome_ids, compose_table):
        arr.setflags(write=False)
    return TransitionMonoid(
        n_levels=n_levels,
        maps=maps,
        outcome_ids=outcome_ids,
        compose_table=compose_table,
    )


@functools.lru_cache(maxsize=None)
def _transition_monoid(spec: FSMSpec) -> TransitionMonoid:
    return monoid_closure(
        spec.n_levels,
        (tuple(spec.next_on_not_taken), tuple(spec.next_on_taken)),
    )


def textbook_2bit_fsm() -> FSMSpec:
    """The textbook two-bit saturating counter (paper Figure 3).

    Levels 0..3 correspond directly to SN, WN, WT, ST.  Matches observed
    behaviour on Haswell and Sandy Bridge (Table 1).
    """
    return FSMSpec(
        name="textbook-2bit",
        n_levels=4,
        predict_taken=(False, False, True, True),
        next_on_taken=(1, 2, 3, 3),
        next_on_not_taken=(0, 0, 1, 2),
        to_public=(State.SN, State.WN, State.WT, State.ST),
        taken_states_ambiguous=False,
    )


def skylake_fsm() -> FSMSpec:
    """Five-level counter modelling the Skylake quirk (Table 1 footnote 1).

    The taken side saturates fast but drains slowly: a taken outcome from
    WT(2) jumps straight to ST(4), while leaving the taken side takes two
    not-taken outcomes through a *sticky* intermediate level —
    ST(4) -> 3 -> WT(2) -> WN(1) -> SN(0).  Consequences, matching the
    paper exactly (all eight Table 1 rows are checked in
    ``tests/test_fsm.py``):

    * Prime ``TTT`` saturates (0 -> 1 -> 2 -> 4).  Target ``N`` (-> 3),
      probe ``NN``: level 3 predicts taken (miss, -> 2), level 2 predicts
      taken (miss, -> 1) — observation ``MM`` instead of the textbook
      ``MH`` (footnote 1).
    * ST and the post-ST weak-taken level are indistinguishable by
      two-probe observation: from both level 4 and level 3, probe ``NN``
      yields ``MM`` and probe ``TT`` yields ``HH`` — the paper's "ST and
      WT states indistinguishable on that processor".
    * The not-taken side is textbook, so the ``NNN``-prime rows of
      Table 1 are unchanged and the attack remains possible by priming to
      SN (paper §6.1: "the attacker can always pick a PHT randomization
      code that places the target PHT entry into a state without such
      ambiguity").
    """
    return FSMSpec(
        name="skylake-5level",
        n_levels=5,
        predict_taken=(False, False, True, True, True),
        next_on_taken=(1, 2, 4, 4, 4),
        next_on_not_taken=(0, 0, 1, 2, 3),
        to_public=(State.SN, State.WN, State.WT, State.WT, State.ST),
        taken_states_ambiguous=True,
    )


def three_bit_fsm() -> FSMSpec:
    """Eight-level saturating counter, the TAGE-flavoured FSM variant.

    TAGE-family predictors (and the wide Arm cores dissected in
    arXiv:2411.13900) keep 3-bit saturating counters per tagged entry:
    deeper hysteresis on both sides, so a well-trained direction survives
    three contrary outcomes before the prediction flips.  Levels 0..7
    count monotonically; the weak public states sit at the flip boundary
    (WN = level 3, WT = level 4) and the three saturated levels on each
    side all map to the strong public state, without the Skylake
    sticky-taken asymmetry.  A fuzz probe distinguishes this variant
    from the 2-bit families by how many consecutive contrary outcomes a
    saturated entry absorbs before mispredicting stops.
    """
    return FSMSpec(
        name="three-bit-saturating",
        n_levels=8,
        predict_taken=(False,) * 4 + (True,) * 4,
        next_on_taken=(1, 2, 3, 4, 5, 6, 7, 7),
        next_on_not_taken=(0, 0, 1, 2, 3, 4, 5, 6),
        to_public=(
            State.SN, State.SN, State.SN, State.WN,
            State.WT, State.ST, State.ST, State.ST,
        ),
        taken_states_ambiguous=False,
    )
