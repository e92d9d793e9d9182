"""Exact mergeable streaming aggregation for sharded campaigns.

A sharded campaign must satisfy two contracts at once:

1. **memory O(shards), not O(trials)** — the service never materialises
   per-trial result lists; each shard folds its trials into a small
   accumulator and the scheduler merges accumulators;
2. **bit-identical at any shard count** — the merged result (and its
   digest) must not depend on how the campaign was split or in which
   order shard frames arrived.

Floating-point Welford/Chan merging fails contract 2: ``(a+b)+c`` and
``a+(b+c)`` differ in the last ulp, so a 4-shard run would digest
differently from a 7-shard run.  These accumulators therefore carry
their sums as :class:`fractions.Fraction` — exact rationals, for which
addition is genuinely associative and commutative, so any grouping of
the same trials reaches the *identical* canonical state.  Floats appear
only at finalisation (:meth:`MomentAccumulator.mean` /
:meth:`~MomentAccumulator.variance`), computed once from the exact sums
— every shard split finalises from the same rationals and hence to the
same bits.  (Python floats convert to ``Fraction`` exactly, so no
precision is lost on the way in either.)

The per-trial identity is kept the same way: each trial record hashes to
a SHA-256 and the aggregate XORs them together — a commutative multiset
digest, invariant under sharding and arrival order, that still detects
any changed, missing or duplicated trial.  Histograms are integer bucket
counts (vector addition merges them), and categorical tallies are plain
``dict`` counters.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CampaignAggregate",
    "HistogramSketch",
    "MomentAccumulator",
    "RecordListAggregate",
    "trial_digest",
]

#: Probe-pattern frequencies live in [0, 1]; 20 equal buckets resolve
#: the 0.85 stability threshold cleanly (bucket edge at 0.85).
DEFAULT_EDGES: Tuple[float, ...] = tuple(i / 20 for i in range(1, 21))


def _fraction_token(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class MomentAccumulator:
    """Exact count/sum/M2 accumulator over rationals.

    ``add`` and ``merge`` commute and associate exactly (rational
    arithmetic), so a tree of shard merges reaches the same canonical
    ``(n, Σx, Σx²)`` as the serial fold.  ``M2 = Σx² − (Σx)²/n`` — the
    centred second moment of Welford/Chan — is derived at finalisation
    rather than carried, which keeps the merge a plain addition.
    """

    __slots__ = ("n", "total", "total_sq")

    def __init__(
        self,
        n: int = 0,
        total: Fraction = Fraction(0),
        total_sq: Fraction = Fraction(0),
    ) -> None:
        self.n = n
        self.total = Fraction(total)
        self.total_sq = Fraction(total_sq)

    def add(self, value: float) -> None:
        exact = Fraction(value)
        self.n += 1
        self.total += exact
        self.total_sq += exact * exact

    def merge(self, other: "MomentAccumulator") -> None:
        self.n += other.n
        self.total += other.total
        self.total_sq += other.total_sq

    def mean(self) -> Optional[float]:
        return float(self.total / self.n) if self.n else None

    def variance(self) -> Optional[float]:
        """Population variance, exact until the final division."""
        if not self.n:
            return None
        m2 = self.total_sq - self.total * self.total / self.n
        return float(m2 / self.n)

    def state_token(self) -> str:
        return (
            f"{self.n}:{_fraction_token(self.total)}"
            f":{_fraction_token(self.total_sq)}"
        )

    def to_state(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "total": _fraction_token(self.total),
            "total_sq": _fraction_token(self.total_sq),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MomentAccumulator":
        return cls(
            int(state["n"]),
            Fraction(state["total"]),
            Fraction(state["total_sq"]),
        )


class HistogramSketch:
    """Fixed-edge integer histogram; merging is bucket-wise addition.

    ``edges`` are upper bounds of the finite buckets; one overflow
    bucket catches everything above the last edge (values here are
    frequencies in [0, 1], so it stays empty unless the edges change).
    """

    __slots__ = ("edges", "counts")

    def __init__(
        self,
        edges: Sequence[float] = DEFAULT_EDGES,
        counts: Optional[Sequence[int]] = None,
    ) -> None:
        self.edges = tuple(float(e) for e in edges)
        if counts is None:
            counts = [0] * (len(self.edges) + 1)
        if len(counts) != len(self.edges) + 1:
            raise ValueError("counts must have len(edges) + 1 buckets")
        self.counts = [int(c) for c in counts]

    def add(self, value: float) -> None:
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "HistogramSketch") -> None:
        if self.edges != other.edges:
            raise ValueError("cannot merge sketches with different edges")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]

    def to_state(self) -> Dict[str, Any]:
        return {"edges": list(self.edges), "counts": list(self.counts)}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "HistogramSketch":
        return cls(state["edges"], state["counts"])


def trial_digest(record: Dict[str, Any]) -> bytes:
    """Canonical SHA-256 of one trial record (sorted-key JSON)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).digest()


def xor_digests(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two 32-byte digests (the multiset-digest combine),
    as one big-integer XOR."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        32, "big"
    )


class CampaignAggregate:
    """Streaming summary of one campaign's trial records.

    Holds everything the service reports per campaign — trial count,
    stability rate, exact moments and histograms of both probe-pattern
    frequencies, categorical tallies of dominant patterns and decoded
    states, and the XOR multiset digest of the raw records (each of
    which embeds its trial's post-run RNG stream digest, so the
    campaign digest pins generator positions too).  ``merge`` combines
    two disjoint shards; every field's merge is associative and
    commutative, making the result independent of the shard layout —
    the property ``tests/test_service.py`` pins at 1/2/4/7 shards.
    """

    __slots__ = (
        "n_trials", "stable_trials", "tt_freq", "nn_freq",
        "tt_hist", "nn_hist", "pattern_counts", "state_counts", "xor",
    )

    def __init__(self) -> None:
        self.n_trials = 0
        self.stable_trials = 0
        self.tt_freq = MomentAccumulator()
        self.nn_freq = MomentAccumulator()
        self.tt_hist = HistogramSketch()
        self.nn_hist = HistogramSketch()
        self.pattern_counts: Dict[str, int] = {}
        self.state_counts: Dict[str, int] = {}
        self.xor = bytes(32)

    # -- accumulation -------------------------------------------------------

    def add_trial(self, record: Dict[str, Any]) -> None:
        self.n_trials += 1
        if record["stable"]:
            self.stable_trials += 1
        self.tt_freq.add(record["tt_frequency"])
        self.nn_freq.add(record["nn_frequency"])
        self.tt_hist.add(record["tt_frequency"])
        self.nn_hist.add(record["nn_frequency"])
        pattern = f"{record['tt_pattern']}|{record['nn_pattern']}"
        self.pattern_counts[pattern] = self.pattern_counts.get(pattern, 0) + 1
        state = record["state"]
        self.state_counts[state] = self.state_counts.get(state, 0) + 1
        self.xor = xor_digests(self.xor, trial_digest(record))

    def merge(self, other: "CampaignAggregate") -> None:
        self.n_trials += other.n_trials
        self.stable_trials += other.stable_trials
        self.tt_freq.merge(other.tt_freq)
        self.nn_freq.merge(other.nn_freq)
        self.tt_hist.merge(other.tt_hist)
        self.nn_hist.merge(other.nn_hist)
        for counts, theirs in (
            (self.pattern_counts, other.pattern_counts),
            (self.state_counts, other.state_counts),
        ):
            for key, count in theirs.items():
                counts[key] = counts.get(key, 0) + count
        self.xor = xor_digests(self.xor, other.xor)

    # -- finalisation -------------------------------------------------------

    def digest(self) -> str:
        """Canonical SHA-256 of the aggregate's exact state.

        Built from the rational tokens (not the finalised floats) and
        the sorted tallies, so two aggregates digest equal iff their
        exact states are equal — the bit-identity the shard property
        test asserts.
        """
        payload = json.dumps(
            {
                "n": self.n_trials,
                "stable": self.stable_trials,
                "tt": self.tt_freq.state_token(),
                "nn": self.nn_freq.state_token(),
                "tt_hist": self.tt_hist.counts,
                "nn_hist": self.nn_hist.counts,
                "patterns": sorted(self.pattern_counts.items()),
                "states": sorted(self.state_counts.items()),
                "xor": self.xor.hex(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> Dict[str, Any]:
        """Human/JSON-facing summary (floats finalised here, once)."""
        return {
            "n_trials": self.n_trials,
            "stable_trials": self.stable_trials,
            "stable_fraction": (
                self.stable_trials / self.n_trials if self.n_trials else None
            ),
            "tt_frequency_mean": self.tt_freq.mean(),
            "tt_frequency_variance": self.tt_freq.variance(),
            "nn_frequency_mean": self.nn_freq.mean(),
            "nn_frequency_variance": self.nn_freq.variance(),
            "tt_histogram": self.tt_hist.to_state(),
            "nn_histogram": self.nn_hist.to_state(),
            "state_counts": dict(sorted(self.state_counts.items())),
            "top_patterns": sorted(
                self.pattern_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )[:8],
            "digest": self.digest(),
        }

    # -- checkpoint round-trip ----------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        return {
            "n_trials": self.n_trials,
            "stable_trials": self.stable_trials,
            "tt_freq": self.tt_freq.to_state(),
            "nn_freq": self.nn_freq.to_state(),
            "tt_hist": self.tt_hist.to_state(),
            "nn_hist": self.nn_hist.to_state(),
            "pattern_counts": dict(self.pattern_counts),
            "state_counts": dict(self.state_counts),
            "xor": self.xor.hex(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "CampaignAggregate":
        agg = cls()
        agg.n_trials = int(state["n_trials"])
        agg.stable_trials = int(state["stable_trials"])
        agg.tt_freq = MomentAccumulator.from_state(state["tt_freq"])
        agg.nn_freq = MomentAccumulator.from_state(state["nn_freq"])
        agg.tt_hist = HistogramSketch.from_state(state["tt_hist"])
        agg.nn_hist = HistogramSketch.from_state(state["nn_hist"])
        agg.pattern_counts = dict(state["pattern_counts"])
        agg.state_counts = dict(state["state_counts"])
        agg.xor = bytes.fromhex(state["xor"])
        return agg

    @classmethod
    def merged(
        cls, parts: Sequence["CampaignAggregate"]
    ) -> "CampaignAggregate":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CampaignAggregate(n={self.n_trials}, "
            f"stable={self.stable_trials}, digest={self.digest()[:12]})"
        )


class RecordListAggregate:
    """Record-preserving aggregate for workloads that need raw trials back.

    The stability workload only ever reads moment summaries, but the
    fuzzer's consumer is an *inference* step: it must replay every
    per-trial record (program descriptor + observed probe hits) against
    its hypothesis lattice.  This aggregate therefore keeps the records
    themselves, keyed by trial index so that merging shards is a plain
    disjoint dict union — associative, commutative, and loudly rejecting
    a duplicated index (which would mean the scheduler dispatched the
    same trial twice).  Records must be plain JSON (the same contract
    the stability trial obeys), which makes the checkpoint round-trip a
    literal copy and keeps the XOR multiset digest well-defined.
    """

    __slots__ = ("_records", "xor")

    def __init__(self) -> None:
        self._records: Dict[int, Dict[str, Any]] = {}
        self.xor = bytes(32)

    @property
    def n_trials(self) -> int:
        return len(self._records)

    # -- accumulation -------------------------------------------------------

    def add_trial(self, record: Dict[str, Any]) -> None:
        index = int(record["index"])
        if index in self._records:
            raise ValueError(f"duplicate trial index {index}")
        self._records[index] = record
        self.xor = xor_digests(self.xor, trial_digest(record))

    def merge(self, other: "RecordListAggregate") -> None:
        overlap = self._records.keys() & other._records.keys()
        if overlap:
            raise ValueError(
                f"duplicate trial indices in merge: {sorted(overlap)[:8]}"
            )
        self._records.update(other._records)
        self.xor = xor_digests(self.xor, other.xor)

    # -- finalisation -------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """All trial records, sorted by index (shard-layout invariant)."""
        return [self._records[i] for i in sorted(self._records)]

    def digest(self) -> str:
        """Canonical SHA-256 over the index-sorted records."""
        payload = json.dumps(
            {"records": self.records(), "xor": self.xor.hex()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> Dict[str, Any]:
        return {
            "n_trials": self.n_trials,
            "indices": sorted(self._records),
            "digest": self.digest(),
        }

    # -- checkpoint round-trip ----------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        return {
            "records": {str(i): r for i, r in self._records.items()},
            "xor": self.xor.hex(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RecordListAggregate":
        agg = cls()
        agg._records = {
            int(i): record for i, record in state["records"].items()
        }
        agg.xor = bytes.fromhex(state["xor"])
        return agg

    @classmethod
    def merged(
        cls, parts: Sequence["RecordListAggregate"]
    ) -> "RecordListAggregate":
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RecordListAggregate(n={self.n_trials}, "
            f"digest={self.digest()[:12]})"
        )
