"""PHT randomisation block — Listing 1 and paper §5.2/§6.2.

The attacker's stage-1 tool is a long, one-time-generated block of
conditional branches with randomly chosen directions and NOP-jittered
addresses.  Executing it:

* drives most PHT entries to a block-specific state (priming),
* evicts the victim's branch from the BPU's recent-branch state, forcing
  it back into 1-level mode (§5.2), and
* destroys any useful 2-level history (random pattern, random GHR).

The paper found 100 000 branches sufficient; the block-size ablation
bench sweeps this (smaller blocks rarely *pin* the target entry — their
effect on it depends on its prior level — which is exactly why the paper
needs so many branches).  Directions and placements are randomised
**once** at generation time ("the outcome patterns are randomized only
once (when the block is generated) and are not re-randomized during
execution"), which is what makes a block's effect on a given PHT entry
reproducible — the property the §6.2 calibration search exploits.

Fast path
---------
A covert-channel run executes the block once per transmitted bit; at
100k simulated branches per bit that is infeasible in pure Python, so
:meth:`RandomizationBlock.compile` precomputes the block's effect
analytically.  No simulation is required because every block branch sits
at a unique, fresh address and therefore executes *cold* (it always
misses the branch identification table):

* **bimodal PHT** (the attack's observable): an exact per-entry
  *transition map* ``final_level = map[entry, initial_level]`` — folding
  the block's per-entry outcome subsequence through the FSM is exact for
  any starting PHT contents;
* **gshare PHT**: the same fold, using the block's GHR trajectory, which
  is fully determined by the block's own outcomes after the first
  ``ghr_bits`` branches (the fold assumes an all-zero initial history,
  so at most ``ghr_bits`` of the 100k updates land on a different entry
  than an exact run — quantified in ``tests/test_randomizer.py``);
* **selector**: every touched entry is *reset* to the initial bias
  (cold-branch allocation semantics — see
  :meth:`repro.bpu.selector.SelectorTable.reset_entry`);
* **identification table**: block tags are inserted in program order
  (last write per set wins);
* **GHR**: the block's final ``ghr_bits`` outcomes;
* **clock / spy counters**: charged a deterministic per-branch estimate
  (cold fetch + ~50% mispredictions); only counter *deltas* around probe
  branches are ever read, so absolute drift is unobservable.

The folds themselves run vectorised: each outcome is a transition *map*
on FSM levels, maps compose through the FSM's precomputed
:class:`~repro.bpu.fsm.TransitionMonoid` table, and a segmented scan
reduces each entry's map sequence in ``O(N log N)`` array ops instead
of a pure-Python loop over 100k branches (bit-exact with the reference
loop, see ``tests/test_fold_vectorized.py``).  Compiled blocks are
additionally memoised in a bounded LRU keyed on ``(block fingerprint,
core config, key, partition, timing model)`` so calibration searches
and covert-channel benches never recompile an identical block.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import kernels
from repro.bpu.hashes import apply_hash, fold_history
from repro.cpu.core import BranchExecution, PhysicalCore
from repro.cpu.counters import CounterKind
from repro.cpu.process import Process
from repro.obs import trace as obs

__all__ = [
    "RandomizationBlock",
    "CompiledBlock",
    "PAPER_BLOCK_BRANCHES",
    "COMPILE_CACHE_MAXSIZE",
    "clear_compile_cache",
    "compile_cache_info",
]

#: Default virtual address the generated block is "linked" at — an
#: otherwise unused region of the spy's address space.
DEFAULT_BLOCK_BASE = 0x10000000

#: Paper §5.2: "executing 100,000 branch instructions is sufficient".
PAPER_BLOCK_BRANCHES = 100_000

#: Bound on the compiled-block cache below.  Each compiled 16k-entry
#: block holds a few MB of transition maps, so the cache is LRU-bounded
#: rather than unbounded.
COMPILE_CACHE_MAXSIZE = 64

# (block fingerprint, core geometry, key, partition, timing) -> CompiledBlock.
_compile_cache: "OrderedDict[tuple, CompiledBlock]" = OrderedDict()
_compile_cache_stats: Dict[str, int] = {"hits": 0, "misses": 0}


def clear_compile_cache() -> None:
    """Empty the process-wide compiled-block cache and its statistics.

    Only tests call it: it is their isolation hook (a test that counts
    compiles starts from a cold cache), and it lives here because the
    cache does.
    """
    _compile_cache.clear()
    for stat in _compile_cache_stats:
        _compile_cache_stats[stat] = 0


@functools.lru_cache(maxsize=32)
def _entry_indices(n_entries: int) -> np.ndarray:
    """Read-only ``arange(n_entries)`` shared by every
    :meth:`CompiledBlock.apply` gather (one allocation per table size
    instead of two per application)."""
    indices = np.arange(n_entries, dtype=np.int64)
    indices.setflags(write=False)
    return indices


def compile_cache_info() -> Dict[str, int]:
    """Hit/miss/size statistics of the compiled-block cache."""
    return {
        **_compile_cache_stats,
        "size": len(_compile_cache),
        "maxsize": COMPILE_CACHE_MAXSIZE,
    }


def _record_compile_lookup(tier: str) -> None:
    """Mirror a compile-cache lookup onto the metrics registry."""
    tracer = obs.TRACER
    if tracer is not None and tracer.metrics is not None:
        tracer.metrics.counter(
            "repro_compile_cache_total",
            "compiled-block cache lookups by serving tier",
            labels=("tier",),
        ).inc(tier=tier)
    _compile_cache_stats["misses" if tier == "miss" else "hits"] += 1


@dataclass(frozen=True)
class RandomizationBlock:
    """An immutable, reproducible block of randomised branches."""

    #: Seed that generated this block (the attacker's "block identity"
    #: during the §6.2 calibration search).
    seed: int
    #: Virtual addresses of the branch instructions, in program order.
    addresses: np.ndarray
    #: Branch directions, in program order (True = taken).
    outcomes: np.ndarray

    @staticmethod
    def generate(
        seed: int,
        n_branches: int = PAPER_BLOCK_BRANCHES,
        base_address: int = DEFAULT_BLOCK_BASE,
    ) -> "RandomizationBlock":
        """Generate a block per Listing 1.

        Each ``je``/``jne`` is two bytes; a NOP is inserted (or not)
        between consecutive branches at random, so the address step is 2
        or 3 bytes ("randomizing memory locations of these instructions
        by either placing or not placing a NOP instruction between
        them").  Directions are uniform random with no inter-branch
        dependencies.
        """
        if n_branches <= 0:
            raise ValueError("block needs at least one branch")
        rng = np.random.default_rng(seed)
        steps = rng.integers(2, 4, size=n_branches)
        steps[0] = 0
        addresses = base_address + np.cumsum(steps)
        outcomes = rng.integers(0, 2, size=n_branches).astype(bool)
        return RandomizationBlock(
            seed=seed, addresses=addresses, outcomes=outcomes
        )

    def __len__(self) -> int:
        return len(self.addresses)

    def fingerprint(self) -> str:
        """Content hash of the block (cached); the compile-cache identity.

        Covers addresses and outcomes, so two blocks share compiled
        artifacts only when their effect is genuinely identical —
        ``seed`` alone would not protect directly constructed blocks.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.ascontiguousarray(self.addresses).tobytes())
            digest.update(np.ascontiguousarray(self.outcomes).tobytes())
            cached = f"{self.seed}:{len(self)}:{digest.hexdigest()}"
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- exact path -----------------------------------------------------------

    def execute(
        self, core: PhysicalCore, process: Process
    ) -> List[BranchExecution]:
        """Execute every branch through the full core model (exact, slow)."""
        return [
            core.execute_branch(process, int(address), bool(taken))
            for address, taken in zip(self.addresses, self.outcomes)
        ]

    # -- fast path ------------------------------------------------------------

    def ghr_trajectory(self, ghr_bits: int) -> np.ndarray:
        """GHR value seen by each branch, assuming all-zero initial history.

        ``trajectory[i]`` is the register contents when branch ``i``
        predicts — i.e. the outcomes of branches ``i-ghr_bits .. i-1``
        (the shift register is a sliding window, so the value is a
        weighted sum of the last ``ghr_bits`` outcomes with the most
        recent in the least-significant bit).
        """
        n = len(self.outcomes)
        # Branch i sees outcomes[i-ghr_bits .. i-1]; left-padding with
        # ghr_bits zeros makes every window full-width, so the whole
        # trajectory is one sliding-window matmul against the bit weights
        # (most recent outcome in the least-significant bit).
        padded = np.zeros(n - 1 + ghr_bits, dtype=np.int64)
        if n > 1:
            padded[ghr_bits:] = self.outcomes[:-1]
        windows = np.lib.stride_tricks.sliding_window_view(padded, ghr_bits)
        weights = np.left_shift(
            np.int64(1), np.arange(ghr_bits - 1, -1, -1, dtype=np.int64)
        )
        return windows[:n] @ weights

    def _mapped_indices(
        self,
        key: int,
        partition,
        n_entries: int,
        xor: int = 0,
        index_hash: str = "mod",
    ) -> np.ndarray:
        """Vectorised PHT indices for every block branch."""
        mixed = self.addresses ^ xor ^ key
        if partition is not None:
            return (partition.offset + (mixed % partition.size)).astype(
                np.int64
            )
        return apply_hash(index_hash, mixed, n_entries).astype(np.int64)

    def entry_fold(
        self, core: PhysicalCore, process: Process, address: int
    ) -> np.ndarray:
        """Fast per-entry fold: the transition-map row for one address.

        Element ``i`` of the result is the bimodal entry's final level if
        it entered the block at level ``i``.  Used by the calibration
        search to discard non-pinning candidate blocks without paying for
        a full :meth:`compile`.
        """
        key = core.mitigations.pht_key(process)
        partition = core.mitigations.partition(process)
        predictor = core.predictor
        monoid = predictor.bimodal.pht.fsm.transition_monoid()
        n_entries = predictor.bimodal.pht.n_entries
        target = predictor.bimodal.index(address, key, partition)
        indices = self._mapped_indices(
            key, partition, n_entries, index_hash=predictor.bimodal.index_hash
        )
        ids = monoid.outcome_id_sequence(self.outcomes[indices == target])
        return monoid.maps[monoid.reduce(ids)].copy()

    def compile(self, core: PhysicalCore, process: Process) -> "CompiledBlock":
        """Precompute this block's effect on ``core`` for ``process``.

        The result is bound to the core's geometry and the process's
        mitigation view (index key / partition); see the module docstring
        for what is exact and what is approximate.

        Results are memoised in a process-wide LRU cache keyed on
        ``(block fingerprint, core config, key, partition, timing
        model, kernel backend)`` — everything the compiled artifact
        depends on — so the §6.2 calibration search and the
        covert-channel benches stop recompiling identical blocks.
        Backends are bit-identical, but keying on the active one keeps a
        ``set_backend`` switch mid-process honest: a cached artifact is
        always attributable to the backend that built it, which is what
        the per-backend differential suite pins.  Cached
        :class:`CompiledBlock` instances are immutable and safe to share
        across cores of the same configuration.
        """
        key = core.mitigations.pht_key(process)
        partition = core.mitigations.partition(process)
        cache_key = (
            self.fingerprint(),
            core.config,
            key,
            partition,
            core.timing,
            kernels.active_backend(),
        )
        cached = _compile_cache.get(cache_key)
        if cached is not None:
            _compile_cache.move_to_end(cache_key)
            _record_compile_lookup("memory")
            return cached

        _record_compile_lookup("miss")

        predictor = core.predictor
        monoid = predictor.bimodal.pht.fsm.transition_monoid()

        bimodal_indices = self._mapped_indices(
            key,
            partition,
            predictor.bimodal.pht.n_entries,
            index_hash=predictor.bimodal.index_hash,
        )
        bimodal_map = monoid.fold_table(
            bimodal_indices, self.outcomes, predictor.bimodal.pht.n_entries
        )

        ghr_bits = predictor.ghr.length
        gshare_n = predictor.gshare.pht.n_entries
        # Long history folds down to index width before mixing — must
        # match the scalar predictor's gshare.index() bit for bit.
        trajectory = fold_history(
            self.ghr_trajectory(ghr_bits), ghr_bits, gshare_n
        )
        mixed = self.addresses ^ trajectory ^ key
        if partition is None:
            gshare_indices = apply_hash(
                predictor.gshare.index_hash, mixed, gshare_n
            ).astype(np.int64)
        else:
            gshare_indices = (
                partition.offset + (mixed % partition.size)
            ).astype(np.int64)
        gshare_map = monoid.fold_table(gshare_indices, self.outcomes, gshare_n)

        # Final GHR = the block's last ghr_bits outcomes (newest in the
        # LSB); at most ghr_bits bits enter, so no mask is needed.
        tail = self.outcomes[-ghr_bits:].astype(np.int64)
        final_ghr = int(
            tail
            @ np.left_shift(
                np.int64(1), np.arange(len(tail) - 1, -1, -1, dtype=np.int64)
            )
        )

        selector = predictor.selector
        selector_touched = np.unique(self.addresses % selector.n_entries)

        bit_table = predictor.bit
        bit_sets = (self.addresses % bit_table.n_sets).astype(np.int64)
        bit_tags = (
            (self.addresses // bit_table.n_sets) & bit_table._tag_mask
        ).astype(np.int64)

        # Deterministic cost estimate: every block branch fetches cold
        # and ~half mispredict (random outcomes vs. randomised PHT).
        timing = core.timing
        per_branch = (
            timing.base_latency
            + timing.cold_penalty
            + 0.5 * timing.miss_penalty
            + 0.5 * timing.taken_extra
        )
        n = len(self)
        for arr in (bimodal_map, gshare_map, selector_touched, bit_sets, bit_tags):
            arr.setflags(write=False)
        compiled = CompiledBlock(
            block=self,
            config_name=core.config.name,
            key=key,
            partition=partition,
            bimodal_map=bimodal_map,
            gshare_map=gshare_map,
            selector_touched=selector_touched,
            bit_sets=bit_sets,
            bit_tags=bit_tags,
            ghr_end=final_ghr,
            cycles=int(n * per_branch),
            mispredictions=n // 2,
        )
        _compile_cache[cache_key] = compiled
        while len(_compile_cache) > COMPILE_CACHE_MAXSIZE:
            _compile_cache.popitem(last=False)
        return compiled

    def fold_map_reference(
        self,
        indices: np.ndarray,
        n_entries: int,
        n_levels: int,
        step_table: np.ndarray,
    ) -> np.ndarray:
        """Fold the block into ``map[entry, initial] -> final`` levels.

        Reference implementation: steps the FSM once per branch in
        program order, exactly as the hardware would.  The production
        fold is :meth:`repro.bpu.fsm.TransitionMonoid.fold_table`; the
        differential tests in ``tests/test_fold_vectorized.py`` assert
        entry-for-entry equality between the two.  Only tests call it; it
        stays here, beside the block it folds, because it is the
        reference those tests check the production fold against.
        """
        fold = np.tile(
            np.arange(n_levels, dtype=step_table.dtype), (n_entries, 1)
        )
        outcomes = self.outcomes.astype(np.int64)
        for idx, out in zip(indices, outcomes):
            fold[idx, :] = step_table[out, fold[idx, :]]
        return fold


@dataclass(frozen=True)
class CompiledBlock:
    """A block's precomputed effect, bound to one core geometry."""

    block: RandomizationBlock
    config_name: str
    key: int
    partition: Optional[object]
    bimodal_map: np.ndarray
    gshare_map: np.ndarray
    selector_touched: np.ndarray
    bit_sets: np.ndarray
    bit_tags: np.ndarray
    ghr_end: int
    cycles: int
    mispredictions: int

    def apply(self, core: PhysicalCore, process: Process) -> None:
        """Apply the block's effect to ``core`` as if ``process`` ran it."""
        if core.config.name != self.config_name:
            raise ValueError(
                "compiled block bound to config "
                f"{self.config_name!r}, core is {core.config.name!r}"
            )
        predictor = core.predictor
        bimodal = predictor.bimodal.pht
        gshare = predictor.gshare.pht
        bimodal.levels = self.bimodal_map[
            _entry_indices(bimodal.n_entries), bimodal.levels
        ]
        gshare.levels = self.gshare_map[
            _entry_indices(gshare.n_entries), gshare.levels
        ]
        selector = predictor.selector
        selector.counters[self.selector_touched] = selector._initial
        bit_table = predictor.bit
        bit_table.valid[self.bit_sets] = True
        bit_table.tags[self.bit_sets] = self.bit_tags
        predictor.ghr.restore(self.ghr_end)
        core.clock.advance(self.cycles)
        counters = core.counters_for(process)
        counters.increment(CounterKind.BRANCHES, len(self.block))
        counters.increment(CounterKind.BRANCH_MISSES, self.mispredictions)
        counters.increment(CounterKind.CYCLES, self.cycles)
