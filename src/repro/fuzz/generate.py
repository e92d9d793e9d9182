"""Branch-program generation for the reverse-engineering fuzzer.

A fuzz *program* is a straight-line sequence of conditional branches —
``(address, outcome)`` pairs — plus the subset of step indices whose
prediction hit/miss the oracle reports.  Programs are described by
plain-JSON **descriptors** so they travel through
:class:`~repro.service.campaign.CampaignSpec.params` unchanged;
:func:`program_from_descriptor` is the single, pure decoder both the
workload trial and the inference side use, guaranteeing the two sides
run byte-identical programs.

Three families cover the lattice's four dimensions:

``collision`` — train address ``A`` taken three times, then probe a
    single taken branch at ``B`` with only the probe observed.  ``B``
    has never executed, so it misses the identification table and is
    forced onto the 1-level predictor (§5.1); the observed bit is then
    *exactly* "do ``A`` and ``B`` collide in the bimodal PHT" — after
    ``TTT`` every FSM variant predicts taken, while a fresh ``WN``
    entry predicts not-taken.  The bit depends only on (table size,
    index hash): a clean separator for 8 of the lattice's classes.
    Constructions: ``B = A + n`` collides under ``mod`` exactly when
    the table has at most ``n`` entries; ``B = A ^ 2 ^ (2 << s)`` (with
    ``s`` the fold shift for a candidate size) collides under ``fold``
    but not ``mod``; high-bit additive probes split fold sizes.

``fsm`` — one fresh address, ``a`` taken then ``b`` not-taken, every
    step observed.  The hit sequence traces the per-entry FSM through
    saturation and decay, separating the 2-bit textbook, the
    taken-sticky Skylake and the 3-bit deep-hysteresis variants.

``history`` — one fresh address, a repeating period-``p`` pattern
    (``p-1`` taken, one not-taken), every step observed.  gshare can
    learn the pattern only when the global history covers a full
    period (``ghr_bits >= p - 1``); once the selector hands the branch
    over, the not-taken steps start hitting.  Periods chosen one past
    each candidate history length separate the GHR classes.

Program addresses stay below ``2**24``: the fold hash for the largest
candidate table reads address bits up to ~27, and keeping addresses
well inside that range keeps the constructions' collision behaviour
exact (see :mod:`repro.bpu.hashes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.bpu.hashes import _fold_shift

__all__ = [
    "BranchProgram",
    "battery_descriptors",
    "program_from_descriptor",
    "random_descriptor",
    "CANDIDATE_TABLE_SIZES",
    "CANDIDATE_HISTORY_BITS",
    "MAX_ADDRESS",
]

#: Table sizes the lattice considers (and the battery probes).
CANDIDATE_TABLE_SIZES: Tuple[int, ...] = (4096, 8192, 16384, 32768)

#: History lengths the lattice considers.
CANDIDATE_HISTORY_BITS: Tuple[int, ...] = (12, 14, 16, 20, 24)

#: Exclusive upper bound on program addresses (see module docstring).
MAX_ADDRESS: int = 1 << 24

#: Battery base address for the deterministic collision constructions.
_BASE: int = 0x041A35


@dataclass(frozen=True)
class BranchProgram:
    """One straight-line branch sequence plus its observation points."""

    #: Branch address per step.
    addresses: Tuple[int, ...]
    #: Architectural outcome per step (True = taken).
    outcomes: Tuple[bool, ...]
    #: Step indices whose prediction hit/miss the oracle reports,
    #: strictly increasing.
    observed: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.addresses) != len(self.outcomes):
            raise ValueError("addresses and outcomes must align")
        if self.addresses and not (
            0 <= min(self.addresses) and max(self.addresses) < MAX_ADDRESS
        ):
            raise ValueError(f"addresses must lie in [0, {MAX_ADDRESS})")
        if list(self.observed) != sorted(set(self.observed)):
            raise ValueError("observed indices must be strictly increasing")
        if self.observed and not (
            0 <= self.observed[0] and self.observed[-1] < len(self.addresses)
        ):
            raise ValueError("observed index out of range")

    def __len__(self) -> int:
        return len(self.addresses)


def program_from_descriptor(desc: Dict[str, Any]) -> BranchProgram:
    """Decode a plain-JSON descriptor into its branch program (pure)."""
    family = desc["family"]
    if family == "collision":
        train = int(desc["train"])
        probe = int(desc["probe"])
        return BranchProgram(
            addresses=(train, train, train, probe),
            outcomes=(True, True, True, True),
            observed=(3,),
        )
    if family == "fsm":
        address = int(desc["address"])
        a = int(desc["taken"])
        b = int(desc["not_taken"])
        if not (1 <= a <= 5 and 1 <= b <= 6):
            raise ValueError("fsm family: taken in 1..5, not_taken in 1..6")
        n = a + b
        return BranchProgram(
            addresses=(address,) * n,
            outcomes=(True,) * a + (False,) * b,
            observed=tuple(range(n)),
        )
    if family == "history":
        address = int(desc["address"])
        period = int(desc["period"])
        repeats = int(desc["repeats"])
        if period < 2 or repeats < 1:
            raise ValueError("history family: period >= 2, repeats >= 1")
        pattern = (True,) * (period - 1) + (False,)
        n = period * repeats
        return BranchProgram(
            addresses=(address,) * n,
            outcomes=pattern * repeats,
            observed=tuple(range(n)),
        )
    raise ValueError(f"unknown program family {family!r}")


def _collision(train: int, probe: int) -> Dict[str, Any]:
    return {
        "family": "collision",
        "train": int(train) % MAX_ADDRESS,
        "probe": int(probe) % MAX_ADDRESS,
    }


def battery_descriptors(seed: int = 0) -> List[Dict[str, Any]]:
    """The deterministic generation-0 probe battery.

    Covers every lattice dimension at once: additive and fold-designed
    collision pairs (table size × index hash), a seeded handful of
    random collision pairs for robustness, FSM prime/decay sweeps, and
    history-period sweeps.  Deterministic given ``seed``.
    """
    descs: List[Dict[str, Any]] = []
    # Additive probes: B = A + n collides (mod) iff table <= n entries.
    for n in CANDIDATE_TABLE_SIZES:
        descs.append(_collision(_BASE, _BASE + n))
    # Fold-designed probes: B = A ^ 2 ^ (2 << s) fold-collides at the
    # size whose fold shift is s, while mod always differs (bit 1 flips).
    for n in CANDIDATE_TABLE_SIZES:
        s = _fold_shift(n)
        descs.append(_collision(_BASE, _BASE ^ 2 ^ (2 << s)))
    # High-bit additive probes: invisible to mod for every candidate
    # size, fold-visible only where the fold window still reaches.
    descs.append(_collision(_BASE, _BASE + (1 << 22)))
    descs.append(_collision(_BASE, _BASE + (1 << 23)))
    # Seeded random pairs: belt-and-braces against a construction that
    # happens to degenerate for some (size, hash) pair.
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(999,)))
    for _ in range(8):
        descs.append(random_descriptor(rng, family="collision"))
    # FSM prime/decay sweeps (single fresh address each).
    for i, (a, b) in enumerate([(1, 2), (2, 3), (3, 4), (4, 6), (5, 6), (2, 6)]):
        descs.append(
            {
                "family": "fsm",
                "address": 0x051000 + 0x40 * i,
                "taken": a,
                "not_taken": b,
            }
        )
    # History periods: one past each candidate GHR length (and one at
    # the bottom that every candidate can learn).
    for i, period in enumerate([13, 14, 16, 18, 22, 26]):
        descs.append(
            {
                "family": "history",
                "address": 0x062000 + 0x40 * i,
                "period": period,
                "repeats": 12,
            }
        )
    return descs


def random_descriptor(rng: np.random.Generator, family: str = None) -> Dict[str, Any]:
    """Draw one random program descriptor from ``rng``.

    ``family`` restricts the draw; by default the three families are
    drawn with collision weighted highest (it is the cheapest probe and
    the one whose diversity matters most).
    """
    if family is None:
        family = rng.choice(
            ["collision", "fsm", "history"], p=[0.5, 0.25, 0.25]
        )
    if family == "collision":
        train = int(rng.integers(0, MAX_ADDRESS))
        style = int(rng.integers(0, 3))
        if style == 0:
            # Additive at a random power-of-two stride.
            probe = train + (1 << int(rng.integers(10, 24)))
        elif style == 1:
            # XOR of a random low/high bit pair.
            probe = train ^ (1 << int(rng.integers(1, 24)))
        else:
            probe = int(rng.integers(0, MAX_ADDRESS))
        if probe % MAX_ADDRESS == train:
            probe = train ^ 1
        return _collision(train, probe)
    if family == "fsm":
        return {
            "family": "fsm",
            "address": int(rng.integers(0, MAX_ADDRESS)),
            "taken": int(rng.integers(1, 6)),
            "not_taken": int(rng.integers(1, 7)),
        }
    if family == "history":
        return {
            "family": "history",
            "address": int(rng.integers(0, MAX_ADDRESS)),
            "period": int(rng.integers(3, 28)),
            "repeats": int(rng.integers(6, 13)),
        }
    raise ValueError(f"unknown program family {family!r}")
