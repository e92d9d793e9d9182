"""System noise: background branch activity on the shared BPU.

Table 2 evaluates the covert channel in two settings: an *isolated*
physical core (only OS housekeeping perturbs the predictor) and a *noisy*
one (normal system activity runs on the sibling hardware thread).  Either
way the noise is other code executing branches through the same shared
predictor; each such branch lands on a PHT entry determined by its
address and nudges that entry's FSM — occasionally the entry the attack
is using, which is what produces bit errors.

Two implementations are provided:

* :func:`noise_branches` generates explicit ``(address, taken)`` pairs to
  feed :meth:`~repro.cpu.core.PhysicalCore.execute_branch` — the exact
  path, used in tests and small experiments.
* :func:`inject_noise` applies the *aggregate* effect of ``n`` random
  branches directly to the predictor arrays with vectorised NumPy — the
  fast path used inside long covert-channel runs.  A property test
  (``tests/test_noise.py``) checks the two produce statistically
  indistinguishable per-entry effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.cpu.core import PhysicalCore

__all__ = [
    "NoiseModel",
    "NoiseDraw",
    "noise_branches",
    "draw_noise",
    "draw_noise_at",
    "gap_tails",
    "pcg64_state",
    "pcg64_stream",
    "apply_noise_draw",
    "inject_noise",
    "apply_fsm_steps",
]

#: Address range noise branches are drawn from: a large, unrelated shared
#: library / kernel text region.
NOISE_REGION = (0x7F0000000000, 0x7F0000400000)


@dataclass(frozen=True)
class NoiseModel:
    """How much foreign branch activity hits the BPU between attack stages.

    ``ambient_branches`` models steady OS housekeeping; with probability
    ``burst_prob`` a scheduling burst of ``burst_size`` extra branches
    (timer interrupt, kworker, another process's timeslice) lands in the
    gap.  The Table 2 presets are :meth:`isolated` and :meth:`noisy`.
    """

    ambient_branches: int = 60
    burst_prob: float = 0.02
    burst_size: int = 2500

    @staticmethod
    def isolated() -> "NoiseModel":
        """Table 2's "isolated physical core" setting."""
        return NoiseModel(ambient_branches=60, burst_prob=0.02, burst_size=2500)

    @staticmethod
    def noisy() -> "NoiseModel":
        """Table 2's "no restrictions / with noise" setting."""
        return NoiseModel(ambient_branches=180, burst_prob=0.05, burst_size=3500)

    @staticmethod
    def quiesced() -> "NoiseModel":
        """An attacker-controlled OS suppressing other work (paper §9.2,
        Table 3's SGX-isolated setting)."""
        return NoiseModel(ambient_branches=4, burst_prob=0.001, burst_size=400)

    @staticmethod
    def silent() -> "NoiseModel":
        """No noise at all — for deterministic unit tests."""
        return NoiseModel(ambient_branches=0, burst_prob=0.0, burst_size=0)

    def gap_branches(self, rng: np.random.Generator) -> int:
        """Sample how many foreign branches execute in one stage gap."""
        n = 0
        if self.ambient_branches > 0:
            n += int(rng.poisson(self.ambient_branches))
        if self.burst_size > 0 and rng.random() < self.burst_prob:
            n += self.burst_size
        return n

    def gap_array(self, rng: np.random.Generator, n_gaps: int) -> np.ndarray:
        """Sample ``n_gaps`` stage gaps in two vectorised draws.

        Statistically identical to ``n_gaps`` :meth:`gap_branches` calls
        but orders of magnitude cheaper — per-call :class:`Generator`
        overhead dominates scalar draws.  The *stream* differs from the
        scalar call sequence, so use this only where a caller owns the
        whole generator (pre-drawn trial plans), never to replay a
        scalar engine's draws.
        """
        gaps = np.zeros(n_gaps, dtype=np.int64)
        if self.ambient_branches > 0:
            gaps += rng.poisson(self.ambient_branches, size=n_gaps)
        if self.burst_size > 0:
            gaps[rng.random(size=n_gaps) < self.burst_prob] += self.burst_size
        return gaps


def noise_branches(
    rng: np.random.Generator,
    n: int,
    region: Tuple[int, int] = NOISE_REGION,
) -> Iterator[Tuple[int, bool]]:
    """Yield ``n`` random foreign branches as ``(address, taken)`` pairs."""
    low, high = region
    addresses = rng.integers(low, high, size=n)
    outcomes = rng.integers(0, 2, size=n).astype(bool)
    for address, taken in zip(addresses, outcomes):
        yield int(address), bool(taken)


def apply_fsm_steps(
    levels: np.ndarray,
    step_table: np.ndarray,
    indices: np.ndarray,
    outcomes: np.ndarray,
) -> None:
    """Apply a sequence of FSM steps ``(indices[i], outcomes[i])`` in order.

    Equivalent to a Python loop of ``levels[idx] = step[out, levels[idx]]``
    but vectorised: duplicate indices are resolved by processing the k-th
    occurrence of each index in round k, preserving per-entry ordering
    (cross-entry ordering is irrelevant — entries are independent).
    """
    if len(indices) == 0:
        return
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    sorted_out = outcomes[order].astype(np.int8)
    is_first = np.ones(len(sorted_idx), dtype=bool)
    is_first[1:] = sorted_idx[1:] != sorted_idx[:-1]
    positions = np.arange(len(sorted_idx))
    group_start = np.maximum.accumulate(np.where(is_first, positions, 0))
    occurrence = positions - group_start
    for round_no in range(int(occurrence.max()) + 1):
        mask = occurrence == round_no
        idx = sorted_idx[mask]
        out = sorted_out[mask]
        levels[idx] = step_table[out, levels[idx]]


@dataclass(frozen=True)
class NoiseDraw:
    """All randomness one noise gap consumes, drawn up front.

    Splitting the draw (:func:`draw_noise`) from the state mutation
    (:func:`apply_noise_draw`) lets the scalar and batch calibration
    engines consume the *identical* generator call sequence: the batch
    engine never mutates predictor state, but it must draw exactly what
    the scalar reference draws to stay bit-compatible.
    """

    n: int
    addresses: np.ndarray
    outcomes: np.ndarray
    gshare_indices: np.ndarray
    nudges: np.ndarray


def draw_noise(
    rng: np.random.Generator,
    n: int,
    n_gshare_entries: int,
    region: Tuple[int, int] = NOISE_REGION,
) -> NoiseDraw:
    """Draw the randomness of one ``n``-branch noise gap.

    Generator calls happen in the exact order the seed ``inject_noise``
    made them (addresses, outcomes, gshare indices, selector nudges), so
    any caller mixing this with other draws on the same generator sees
    an unchanged stream.  ``n <= 0`` draws nothing.
    """
    if n <= 0:
        empty = np.empty(0, dtype=np.int64)
        return NoiseDraw(0, empty, np.empty(0, dtype=bool), empty, empty)
    low, high = region
    addresses = rng.integers(low, high, size=n)
    outcomes = rng.integers(0, 2, size=n).astype(bool)
    gshare_indices = rng.integers(0, n_gshare_entries, size=n)
    nudges = rng.integers(-1, 2, size=n)
    return NoiseDraw(int(n), addresses, outcomes, gshare_indices, nudges)


def pcg64_stream(rng: np.random.Generator) -> Tuple[int, int, int, int]:
    """A PCG64 generator's exact stream position as a plain value.

    ``(state, inc, has_uint32, uinteger)``: the 128-bit LCG state and
    increment, plus the 32-bit half-word ``next_uint32`` keeps buffered
    (whether one is pending, and its value, which stays put once used).
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(
            f"a noise stream needs a PCG64 generator, not "
            f"{type(bit_generator).__name__}"
        )
    state = bit_generator.state
    return (
        int(state["state"]["state"]),
        int(state["state"]["inc"]),
        int(state["has_uint32"]),
        int(state["uinteger"]),
    )


def pcg64_state(stream: Tuple[int, int, int, int]) -> dict:
    """The ``bit_generator.state`` dict of a :func:`pcg64_stream` value."""
    state, inc, has_uint32, uinteger = stream
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def draw_noise_at(
    stream: Tuple[int, int, int, int],
    n: int,
    n_gshare_entries: int,
    region: Tuple[int, int] = NOISE_REGION,
    cache: Optional[dict] = None,
) -> Tuple[NoiseDraw, Tuple[int, int, int, int]]:
    """:func:`draw_noise` from a :func:`pcg64_stream` position.

    Returns the draw and the position it ends at.  With ``cache`` (a
    memo dict owned by the draw's one stream, e.g. a trial plan's) the
    pair is drawn at most once.
    """
    hit = cache.get("noise") if cache is not None else None
    if hit is None:
        bit_generator = np.random.PCG64()
        bit_generator.state = pcg64_state(stream)
        rng = np.random.Generator(bit_generator)
        hit = (draw_noise(rng, n, n_gshare_entries, region), pcg64_stream(rng))
        if cache is not None:
            cache["noise"] = hit
    return hit


def gap_tails(
    outcomes: np.ndarray, offsets: np.ndarray, ghr_len: int
) -> np.ndarray:
    """The GHR each noise gap leaves: its last ``ghr_len`` outcomes,
    folded MSB-first, as :func:`apply_noise_draw` sets it (0 for an
    empty gap, which leaves the GHR alone).

    ``offsets`` are the gaps' prefix offsets into ``outcomes``.  Each
    gap's tail is gathered as one right-aligned window; a short gap
    zeroes its (high-bit) pad columns, matching the fold of just the
    gap's own outcomes.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    gaps = offsets[1:] - offsets[:-1]
    total = int(offsets[-1])
    if not total:
        return np.zeros(len(gaps), dtype=np.int64)
    cols = np.arange(ghr_len)
    window_lo = offsets[1:] - np.minimum(gaps, ghr_len)
    gather = (offsets[1:] - ghr_len)[:, None] + cols
    valid = gather >= window_lo[:, None]
    bits = (outcomes[np.clip(gather, 0, total - 1)] & valid).astype(np.int64)
    return bits @ (1 << cols[::-1])


def inject_noise(
    core: PhysicalCore,
    n: int,
    rng: np.random.Generator,
    region: Tuple[int, int] = NOISE_REGION,
) -> None:
    """Fast path: apply the aggregate BPU effect of ``n`` foreign branches.

    Perturbs the bimodal PHT (the attack's observable), the gshare PHT and
    GHR (2-level pollution), the branch identification table (evictions)
    and the selector, and advances the clock.  Performance counters of the
    noise source are not modelled — no attack reads them.
    """
    apply_noise_draw(
        core,
        draw_noise(rng, n, core.predictor.gshare.pht.n_entries, region),
    )


def apply_noise_draw(core: PhysicalCore, draw: NoiseDraw) -> None:
    """Apply one pre-drawn noise gap (see :class:`NoiseDraw`) to ``core``."""
    n = draw.n
    if n <= 0:
        return
    predictor = core.predictor
    step_table = predictor.bimodal.pht.fsm.step_table

    addresses = draw.addresses
    outcomes = draw.outcomes

    bimodal_idx = (addresses % predictor.bimodal.pht.n_entries).astype(np.int64)
    apply_fsm_steps(predictor.bimodal.pht.levels, step_table, bimodal_idx, outcomes)

    # gshare indices are effectively uniform anyway (PC xor evolving GHR).
    gshare_idx = draw.gshare_indices
    apply_fsm_steps(predictor.gshare.pht.levels, step_table, gshare_idx, outcomes)

    # The last branches leave their history in the GHR.
    tail = outcomes[-predictor.ghr.length:]
    ghr_value = 0
    for bit in tail:
        ghr_value = (ghr_value << 1) | int(bit)
    predictor.ghr.set(ghr_value)

    # Identification-table insertions (may evict attack/victim branches).
    bit_table = predictor.bit
    sets = (addresses % bit_table.n_sets).astype(np.int64)
    tags = ((addresses // bit_table.n_sets) & bit_table._tag_mask).astype(np.int64)
    bit_table.valid[sets] = True
    bit_table.tags[sets] = tags

    # Selector drift: each noise branch nudges its choice counter at
    # random (its own bimodal/gshare accuracies are uncorrelated).  The
    # clip squeezes *every* entry into [0, 3], also untouched entries a
    # wider-counter selector left above 3.
    sel = predictor.selector
    sel_idx = (addresses % sel.n_entries).astype(np.int64)
    nudges = draw.nudges
    drift = np.zeros(sel.n_entries, dtype=np.int64)
    np.add.at(drift, sel_idx, nudges)
    np.copyto(
        sel.counters,
        np.clip(sel.counters.astype(np.int64) + drift, 0, 3),
        casting="unsafe",
    )

    core.clock.advance(int(n))
