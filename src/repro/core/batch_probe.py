"""Vectorised batch-probe engine for the §6.3 PHT scan.

The scalar scan decodes one address at a time: probe the colliding branch
twice taken-taken, restore, probe twice not-taken-not-taken, restore.
With exact performance counters each probe's H/M pattern is a *pure
function of the microarchitectural state the probe starts from* — the
counter bracket reports exactly the architectural hit/miss of each
execution, and nothing random enters the prediction path (timing noise
perturbs latencies, never directions).  Every address probes the same
restored "prepared" state, so all four per-address probe executions can
be computed for the whole address range at once with NumPy table lookups
against the live predictor arrays, skipping the simulate/restore cycle
entirely.

What a probe execution does, per the scalar pipeline
(:meth:`repro.cpu.core.PhysicalCore.execute_branch` /
:meth:`repro.bpu.hybrid.HybridPredictor.predict`):

1. mitigation hooks decide static suppression, index key and partition;
2. the prediction reads one bimodal entry, one gshare entry (under the
   current GHR), the branch-identification table and — for known
   branches — the selector;
3. training steps both PHT entries, trains or resets the selector,
   shifts the outcome into the GHR and inserts the branch into the
   identification table.

The engine replays exactly this, two branches deep, as array expressions:
branch 2 of a probe reads branch 1's writes through explicit
``same-index`` forwarding instead of mutating any table.  Bit-exactness
against the scalar loop is pinned by ``tests/test_batch_probe.py`` across
every preset and the fast-path-safe mitigations.

Exactness boundary
------------------
Two mitigation hooks can make the observation itself stochastic:
``perturb_counter`` (noisy performance counters, §10.2) breaks the
"pattern == architectural hit/miss" identity, and ``update_outcome``
(stochastic FSM, §10.2) draws from the core RNG inside training.
:func:`batch_scan_supported` detects either override and the scan falls
back to the scalar reference.  Every other shipped mitigation is safe:
static prediction, PHT index randomisation and BPU partitioning act on
the *index/suppression* hooks — which the engine replays through a
pre-pass honouring the scalar call order and multiplicity, so stateful
keys (e.g. the rekey-period counter of
:class:`~repro.mitigations.pht_randomization.PhtIndexRandomization`)
evolve identically — and the noisy timer only perturbs latencies.

The one deliberate divergence: the batch path never samples the timing
model, so the core RNG ends at a different position than after a scalar
scan.  Checkpoints intentionally exclude the RNG (noise stays fresh
across restores), patterns never depend on it, and the scalar scan's own
restores already leave the RNG wherever the probes happened to move it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.bpu.hashes import apply_hash, fold_history
from repro.core.patterns import DecodedState, state_signatures
from repro.core.support import batch_scan_supported
from repro.cpu.core import PhysicalCore
from repro.cpu.process import Process

__all__ = [
    "batch_scan_supported",
    "batch_probe_signatures",
    "batch_decode_states",
]

# The support predicate (one shared home for every engine's gating
# conditions, repro.core.support) is re-exported here because this
# engine is its original owner and existing callers import it from
# here.  It has no index-hash condition: unpartitioned PHT indices go
# through the preset's repro.bpu.hashes entry, as the scalar
# predictors' do, so the zoo's "fold" presets scan batched too.


def _collect_hooks(
    core: PhysicalCore, spy: Process, addresses: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Replay the scalar probe loop's mitigation hook calls.

    The scalar scan executes, per address, four probe branches — TT
    first and second, then NN first and second — and each execution
    calls ``suppresses_prediction`` once and, unless suppressed,
    ``pht_key`` and ``partition`` once.  Stateful mitigations (the
    rekey-period index randomisation) depend on exactly this call
    sequence, so the pre-pass makes the identical calls in the identical
    order and records the outcome per (slot, address).

    Returns ``(static, key, confined, offset, size)``, each of shape
    ``(4, n_addresses)``; ``confined`` marks executions under a
    partition, whose ``offset``/``size`` then replace the preset's
    index hash (as :meth:`~repro.bpu.partition.Partition.confine` does
    in the scalar predictors).
    """
    n = len(addresses)
    static = np.zeros((4, n), dtype=bool)
    key = np.zeros((4, n), dtype=np.int64)
    confined = np.zeros((4, n), dtype=bool)
    offset = np.zeros((4, n), dtype=np.int64)
    size = np.ones((4, n), dtype=np.int64)
    stack = core.mitigations
    if len(stack) == 0:
        return static, key, confined, offset, size
    for i in range(n):
        address = int(addresses[i])
        for slot in range(4):
            if stack.suppresses_prediction(spy, address):
                static[slot, i] = True
                continue
            key[slot, i] = stack.pht_key(spy)
            partition = stack.partition(spy)
            if partition is not None:
                confined[slot, i] = True
                offset[slot, i] = partition.offset
                size[slot, i] = partition.size
    return static, key, confined, offset, size


def _pht_index(
    mixed: np.ndarray,
    hooks: Tuple[np.ndarray, ...],
    slot: int,
    index_hash: str,
    n_entries: int,
) -> np.ndarray:
    """Per-address PHT index of one probe execution slot: the
    partition's slice where one is in force, else the preset's hash."""
    _, _, confined, offset, size = hooks
    index = apply_hash(index_hash, mixed, n_entries)
    if confined[slot].any():
        index = np.where(
            confined[slot], offset[slot] + mixed % size[slot], index
        )
    return index


def _probe_variant(
    core: PhysicalCore,
    addresses: np.ndarray,
    outcome: bool,
    hooks: Tuple[np.ndarray, ...],
    slot1: int,
    slot2: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hit flags of one two-branch probe variant, for every address.

    Reads the live predictor arrays (the prepared scan state) without
    mutating them; branch 2 observes branch 1's would-be writes through
    same-index forwarding, exactly mirroring one scalar ``probe_pair``
    against a restored checkpoint.
    """
    predictor = core.predictor
    bimodal = predictor.bimodal.pht
    gshare = predictor.gshare.pht
    selector = predictor.selector
    bit = predictor.bit
    o = int(bool(outcome))

    static_all, key_all = hooks[0], hooks[1]
    hash_b = predictor.bimodal.index_hash
    hash_g = predictor.gshare.index_hash
    n_b = bimodal.n_entries
    levels_b = bimodal.levels
    levels_g = gshare.levels
    step_b = bimodal.fsm.step_table
    step_g = gshare.fsm.step_table
    h = predictor.ghr.value
    ghr_len = predictor.ghr.length
    ghr_mask = (1 << ghr_len) - 1
    n_g = gshare.n_entries
    hf = fold_history(h, ghr_len, n_g)

    # -- branch 1 -----------------------------------------------------------
    st1 = static_all[slot1]
    key1 = key_all[slot1]
    bi1 = _pht_index(addresses ^ key1, hooks, slot1, hash_b, n_b)
    gi1 = _pht_index(addresses ^ hf ^ key1, hooks, slot1, hash_g, n_g)
    lvl_b1 = levels_b[bi1]
    lvl_g1 = levels_g[gi1]
    bt1 = bimodal.fsm.predicts_array(lvl_b1)
    gt1 = gshare.fsm.predicts_array(lvl_g1)

    sets = addresses % bit.n_sets
    tags = (addresses // bit.n_sets) & bit._tag_mask
    cold1 = ~(bit.valid[sets] & (bit.tags[sets] == tags))
    c0 = selector.counters[addresses % selector.n_entries].astype(np.int64)
    use_gshare1 = ~cold1 & (c0 >= selector.max_counter)

    pred1 = np.where(st1, False, np.where(use_gshare1, gt1, bt1))
    hit1 = pred1 == bool(o)
    updated1 = ~st1

    # Functional post-branch-1 state (only where branch 1 trained).
    stepped_b1 = step_b[o, lvl_b1]
    stepped_g1 = step_g[o, lvl_g1]
    agree = (bt1 == bool(o)) == (gt1 == bool(o))
    mcfarling = np.clip(
        c0 + np.where(agree, 0, np.where(gt1 == bool(o), 1, -1)),
        0,
        selector.max_counter,
    )
    c1 = np.where(updated1, np.where(cold1, selector._initial, mcfarling), c0)
    h2 = np.where(updated1, ((h << 1) | o) & ghr_mask, h)
    hf2 = fold_history(h2, ghr_len, n_g)
    cold2 = np.where(updated1, False, cold1)

    # -- branch 2 -----------------------------------------------------------
    st2 = static_all[slot2]
    key2 = key_all[slot2]
    bi2 = _pht_index(addresses ^ key2, hooks, slot2, hash_b, n_b)
    gi2 = _pht_index(addresses ^ hf2 ^ key2, hooks, slot2, hash_g, n_g)
    lvl_b2 = np.where(updated1 & (bi2 == bi1), stepped_b1, levels_b[bi2])
    lvl_g2 = np.where(updated1 & (gi2 == gi1), stepped_g1, levels_g[gi2])
    bt2 = bimodal.fsm.predicts_array(lvl_b2)
    gt2 = gshare.fsm.predicts_array(lvl_g2)
    use_gshare2 = ~cold2 & (c1 >= selector.max_counter)

    pred2 = np.where(st2, False, np.where(use_gshare2, gt2, bt2))
    hit2 = pred2 == bool(o)
    return hit1, hit2


def batch_probe_signatures(
    core: PhysicalCore, spy: Process, addresses: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TT and NN probe hit flags for every address, against current state.

    Returns ``(tt1, tt2, nn1, nn2)`` boolean arrays: the per-execution
    hit flags the scalar ``probe_pair`` would report for the taken-taken
    and not-taken-not-taken variants, each run against the core's
    *current* (prepared) state.  The core is not mutated — callers
    restore their own checkpoint as the scalar scan does.

    Only valid when :func:`batch_scan_supported` holds; the caller is
    responsible for falling back otherwise.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    hooks = _collect_hooks(core, spy, addresses)
    tt1, tt2 = _probe_variant(core, addresses, True, hooks, 0, 1)
    nn1, nn2 = _probe_variant(core, addresses, False, hooks, 2, 3)
    return tt1, tt2, nn1, nn2


def _signature_lut(fsm) -> List[DecodedState]:
    """16-entry (tt1, tt2, nn1, nn2)-bit-coded Table 1 dictionary."""
    lut = [DecodedState.UNKNOWN] * 16
    for (tt, nn), state in state_signatures(fsm).items():
        code = (
            (tt[0] == "H") * 8
            | (tt[1] == "H") * 4
            | (nn[0] == "H") * 2
            | (nn[1] == "H")
        )
        lut[code] = state
    return lut


def batch_decode_states(
    fsm,
    tt1: np.ndarray,
    tt2: np.ndarray,
    nn1: np.ndarray,
    nn2: np.ndarray,
) -> List[DecodedState]:
    """Decode per-address probe signatures via the Table 1 dictionary.

    Equivalent to :func:`repro.core.patterns.decode_state` on each
    address's (TT, NN) pattern pair; unknown signatures decode to
    :attr:`DecodedState.UNKNOWN` exactly as the scalar path does.
    """
    lut = _signature_lut(fsm)
    codes = (
        tt1.astype(np.int64) * 8 + tt2 * 4 + nn1 * 2 + nn2
    )
    return [lut[code] for code in codes.tolist()]
