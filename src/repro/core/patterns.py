"""Probe outcome patterns and the Table 1 state dictionary (paper §6.1).

The spy's stage-3 probe executes the colliding branch twice with chosen
outcomes and records, for each execution, whether it was predicted
correctly (H) or mispredicted (M).  The two-letter pattern — ``MM``,
``MH``, ``HM`` or ``HH`` — combined across a taken-taken (``TT``) probe
and a not-taken-not-taken (``NN``) probe uniquely identifies the FSM
state the entry was in (Table 1), with two special cases:

* ``dirty``: both probe variants fully hit (``HH``/``HH``) — the
  randomisation code had no effect and the 2-level predictor is covering
  the branch (paper §6.2).
* ``unknown``: any signature not in the dictionary, treated as noise.

On Skylake the sticky-taken FSM makes ST and WT produce the same
signature; :func:`decode_state` reports ST for it (see
:func:`repro.bpu.fsm.skylake_fsm`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.bpu.fsm import FSMSpec, State

__all__ = [
    "ProbeResult",
    "DecodedState",
    "expected_probe_pattern",
    "state_signatures",
    "decode_state",
]


@dataclass(frozen=True)
class ProbeResult:
    """Hit/miss observations of one two-branch probe."""

    first_hit: bool
    second_hit: bool

    @property
    def pattern(self) -> str:
        """Two-letter pattern in the paper's notation (M=miss, H=hit)."""
        return ("H" if self.first_hit else "M") + (
            "H" if self.second_hit else "M"
        )

    @staticmethod
    def from_pattern(pattern: str) -> "ProbeResult":
        """Parse a two-letter pattern string.

        Only tests call it.  It stays as the checked inverse of
        :attr:`pattern`, the parser of the paper's notation that the
        rendering is tested against.
        """
        if len(pattern) != 2 or any(c not in "MH" for c in pattern):
            raise ValueError(f"bad probe pattern {pattern!r}")
        return ProbeResult(pattern[0] == "H", pattern[1] == "H")


class DecodedState(enum.Enum):
    """What the two-variant probe dictionary can say about a PHT entry."""

    SN = "SN"
    WN = "WN"
    WT = "WT"
    ST = "ST"
    #: Probes always predicted correctly: the 2-level predictor covers the
    #: branch and the PHT randomisation had no effect (paper §6.2).
    DIRTY = "dirty"
    #: Signature not in the dictionary (system noise).
    UNKNOWN = "unknown"

    @staticmethod
    def from_state(state: State) -> "DecodedState":
        """The decoded value corresponding to an architectural state."""
        return DecodedState(state.name)


def expected_probe_pattern(
    fsm: FSMSpec, start_level: int, outcomes: Sequence[bool]
) -> Tuple[str, int]:
    """Predict the H/M pattern of executing a lone branch through an FSM.

    Starting from ``start_level``, executes one branch per entry of
    ``outcomes`` (True = taken), assuming the FSM alone decides the
    prediction (the 1-level mode the attack forces).  Returns the pattern
    string and the final level.  This is the analytical model behind
    every row of Table 1.
    """
    level = start_level
    letters = []
    for taken in outcomes:
        hit = fsm.predicts(level) == bool(taken)
        letters.append("H" if hit else "M")
        level = fsm.step(level, taken)
    return "".join(letters), level


def state_signatures(fsm: FSMSpec) -> Dict[Tuple[str, str], DecodedState]:
    """The (TT-pattern, NN-pattern) → state dictionary for an FSM.

    Computed from the FSM's own transition tables rather than hardcoded,
    so the textbook and Skylake variants each get their correct
    dictionary (this is how the paper's Table 1 footnote falls out
    naturally).  When two architectural states share a signature (ST/WT
    on Skylake) the stronger state wins, matching the paper's observation
    that they are indistinguishable.
    """
    signatures: Dict[Tuple[str, str], DecodedState] = {}
    # Weaker states first so stronger states override shared signatures.
    for state in (State.WN, State.WT, State.SN, State.ST):
        level = fsm.level_for(state)
        tt, _ = expected_probe_pattern(fsm, level, (True, True))
        nn, _ = expected_probe_pattern(fsm, level, (False, False))
        signatures[(tt, nn)] = DecodedState.from_state(state)
    # The dirty case is not an FSM state: both variants fully predicted.
    signatures.setdefault(("HH", "HH"), DecodedState.DIRTY)
    return signatures


def decode_state(
    fsm: FSMSpec, tt_pattern: str, nn_pattern: str
) -> DecodedState:
    """Decode a (TT, NN) probe signature into a PHT entry state."""
    return state_signatures(fsm).get(
        (tt_pattern, nn_pattern), DecodedState.UNKNOWN
    )
