"""Differential tests for the batch-probe scan engine and core restores.

Two invariants are pinned here:

* the vectorised batch scan (:mod:`repro.core.batch_probe`) returns
  exactly the state vector of the scalar probe/restore loop, on every
  preset (the fold-hash ``oryon_like`` included) and under every
  fast-path-safe mitigation;
* restoring a checkpoint undoes every change made since it — scalar
  branches, external bulk writes (compiled blocks, noise), repeated and
  out-of-order restores, cross-core restores — leaving the core equal to
  an un-churned twin and to the checkpoint's ``state_digest``.
"""

import numpy as np
import pytest

from repro.bpu.presets import haswell, oryon_like, sandy_bridge, skylake
from repro.core.batch_probe import batch_probe_signatures, batch_scan_supported
from repro.core.pht_map import scan_states, scan_states_reference
from repro.core.prime_probe import probe_pair
from repro.core.randomizer import RandomizationBlock
from repro.cpu.core import PhysicalCore
from repro.cpu.counters import CounterKind
from repro.cpu.process import Process
from repro.mitigations import (
    BpuPartitioning,
    NoisyPerformanceCounters,
    NoisyTimer,
    PhtIndexRandomization,
    StaticPredictionForSensitiveBranches,
    StochasticFSM,
)
from repro.resilience.checkpoint import rng_state_digest
from repro.snapshot import state_digest
from repro.system.noise import inject_noise

PRESETS = {
    "skylake": skylake,
    "haswell": haswell,
    "sandy_bridge": sandy_bridge,
    "oryon_like": oryon_like,
}

SCAN_BASE = 0x4000
SCAN_LEN = 300


def make_core(preset_name, seed=7):
    return PhysicalCore(PRESETS[preset_name]().scaled(256), seed=seed)


def install(core, spy, mitigation_name):
    """Install one named fast-path-safe mitigation configuration."""
    n_entries = core.predictor.bimodal.pht.n_entries
    if mitigation_name == "none":
        return
    if mitigation_name == "partitioning":
        core.install_mitigation(
            BpuPartitioning.by_process(n_entries, n_partitions=4)
        )
    elif mitigation_name == "pht_randomization":
        # rekey_period small enough to rekey mid-scan, exercising the
        # hook pre-pass's call-order fidelity.
        core.install_mitigation(
            PhtIndexRandomization(np.random.default_rng(3), rekey_period=50)
        )
    elif mitigation_name == "static_prediction":
        core.install_mitigation(StaticPredictionForSensitiveBranches())
        for address in range(SCAN_BASE, SCAN_BASE + SCAN_LEN, 7):
            spy.protect_branch(address)
    elif mitigation_name == "noisy_timer":
        core.install_mitigation(NoisyTimer(sigma=25.0))
    elif mitigation_name == "stacked":
        core.install_mitigation(
            BpuPartitioning.by_process(n_entries, n_partitions=4)
        )
        core.install_mitigation(
            PhtIndexRandomization(np.random.default_rng(9), rekey_period=80)
        )
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(mitigation_name)


def scan_pair(preset_name, mitigation_name, exercise_outcome):
    """Run reference and batch scans on twin seeded cores."""
    results = []
    for engine in ("reference", "batch"):
        core = make_core(preset_name)
        spy = Process("spy")
        install(core, spy, mitigation_name)
        block = RandomizationBlock.generate(5, n_branches=3000)
        compiled = block.compile(core, spy)
        addresses = list(range(SCAN_BASE, SCAN_BASE + SCAN_LEN, 3))
        if engine == "reference":
            states = scan_states_reference(
                core,
                spy,
                addresses,
                compiled,
                exercise_outcome=exercise_outcome,
            )
        else:
            states = scan_states(
                core,
                spy,
                addresses,
                compiled,
                exercise_outcome=exercise_outcome,
            )
            assert states.engine == "batch"
        results.append((states, core))
    return results


def assert_cores_equal(a: PhysicalCore, b: PhysicalCore) -> None:
    """Every piece of checkpointable microarchitectural state matches."""
    pa, pb = a.predictor, b.predictor
    np.testing.assert_array_equal(pa.bimodal.pht.levels, pb.bimodal.pht.levels)
    np.testing.assert_array_equal(pa.gshare.pht.levels, pb.gshare.pht.levels)
    np.testing.assert_array_equal(pa.selector.counters, pb.selector.counters)
    assert pa.ghr.value == pb.ghr.value
    np.testing.assert_array_equal(pa.bit.tags, pb.bit.tags)
    np.testing.assert_array_equal(pa.bit.valid, pb.bit.valid)
    np.testing.assert_array_equal(pa.btb.tags, pb.btb.tags)
    np.testing.assert_array_equal(pa.btb.targets, pb.btb.targets)
    np.testing.assert_array_equal(pa.btb.valid, pb.btb.valid)
    np.testing.assert_array_equal(a.icache.tags, b.icache.tags)
    np.testing.assert_array_equal(a.icache.valid, b.icache.valid)
    assert a.clock.now == b.clock.now
    assert set(a._counters) == set(b._counters)
    for pid, counters in a._counters.items():
        assert counters.sample() == b._counters[pid].sample()


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    @pytest.mark.parametrize(
        "mitigation_name",
        [
            "none",
            "partitioning",
            "pht_randomization",
            "static_prediction",
            "noisy_timer",
            "stacked",
        ],
    )
    @pytest.mark.parametrize("exercise_outcome", [None, True, False])
    def test_identical_state_vectors(
        self, preset_name, mitigation_name, exercise_outcome
    ):
        (ref_states, _), (batch_states, _) = scan_pair(
            preset_name, mitigation_name, exercise_outcome
        )
        assert ref_states == batch_states

    def test_auto_dispatches_to_batch_result(self):
        core = make_core("skylake")
        spy = Process("spy")
        block = RandomizationBlock.generate(5, n_branches=3000)
        compiled = block.compile(core, spy)
        addresses = list(range(SCAN_BASE, SCAN_BASE + 128))
        auto = scan_states(core, spy, addresses, compiled)
        batch = scan_states(core, spy, addresses, compiled)
        assert auto.engine == batch.engine == "batch"
        assert auto == batch

    def test_batch_scan_restores_core(self):
        core = make_core("haswell")
        spy = Process("spy")
        block = RandomizationBlock.generate(5, n_branches=3000)
        compiled = block.compile(core, spy)
        pristine = make_core("haswell")
        result = scan_states(
            core,
            spy,
            list(range(SCAN_BASE, SCAN_BASE + 128)),
            compiled,
        )
        assert result.engine == "batch"
        assert_cores_equal(core, pristine)


class TestFoldPresetSignatures:
    """``oryon_like`` (fold index hash): the raw per-execution hit flags
    of :func:`batch_probe_signatures` equal scalar ``probe_pair`` runs
    against the restored prepared state, and the batch call leaves the
    core RNG where it found it."""

    @pytest.mark.parametrize(
        "mitigation_name", ["none", "partitioning", "pht_randomization"]
    )
    def test_signatures_match_scalar_probes(self, mitigation_name):
        addresses = list(range(SCAN_BASE, SCAN_BASE + SCAN_LEN, 3))
        prepared = []
        for _ in range(2):
            core = make_core("oryon_like")
            spy = Process("spy")
            install(core, spy, mitigation_name)
            block = RandomizationBlock.generate(5, n_branches=3000)
            block.compile(core, spy).apply(core, spy)
            for address in addresses[::5]:
                core.execute_branch(spy, address, True)
            prepared.append((core, spy))

        core, spy = prepared[0]
        digest = rng_state_digest(core.rng)
        batch = batch_probe_signatures(core, spy, addresses)
        assert rng_state_digest(core.rng) == digest

        core, spy = prepared[1]
        mark = core.checkpoint()
        scalar = [[], [], [], []]
        for address in addresses:
            for variant, outcome in ((0, True), (2, False)):
                probe = probe_pair(core, spy, address, (outcome, outcome))
                core.restore(mark)
                scalar[variant].append(probe.first_hit)
                scalar[variant + 1].append(probe.second_hit)
        for got, expected in zip(batch, scalar):
            assert got.tolist() == expected


class TestFallback:
    @pytest.mark.parametrize(
        "mitigation", [NoisyPerformanceCounters(1), StochasticFSM(0.25)]
    )
    def test_observation_mitigations_disable_batch(self, mitigation):
        core = make_core("skylake")
        core.install_mitigation(mitigation)
        assert not batch_scan_supported(core)

    def test_safe_mitigations_keep_batch(self):
        core = make_core("skylake")
        spy = Process("spy")
        install(core, spy, "stacked")
        core.install_mitigation(NoisyTimer(sigma=10.0))
        assert batch_scan_supported(core)

    def test_auto_falls_back_to_exact_scalar(self):
        """Under a stochastic mitigation, auto equals the scalar reference
        exactly (same core RNG stream, same draws)."""
        states = []
        for _ in range(2):
            core = make_core("haswell")
            core.install_mitigation(StochasticFSM(0.5))
            spy = Process("spy")
            compiled = RandomizationBlock.generate(5, n_branches=1000).compile(
                core, spy
            )
            addresses = list(range(SCAN_BASE, SCAN_BASE + 64))
            states.append(scan_states(core, spy, addresses, compiled))
        reference_core = make_core("haswell")
        reference_core.install_mitigation(StochasticFSM(0.5))
        spy = Process("spy")
        compiled = RandomizationBlock.generate(5, n_branches=1000).compile(
            reference_core, spy
        )
        reference = scan_states_reference(
            reference_core, spy, list(range(SCAN_BASE, SCAN_BASE + 64)), compiled
        )
        assert states[0] == states[1] == reference


def twin_cores(preset_name="haswell", seed=11):
    return make_core(preset_name, seed), make_core(preset_name, seed)


def twin_spies():
    """Same-pid spy processes, so twin cores' counter files compare equal."""
    return Process("spy", pid=90001), Process("spy", pid=90001)


def churn(core, spy, rng_seed=23, n=200):
    """Deterministically touch every component a restore must undo."""
    rng = np.random.default_rng(rng_seed)
    addresses = rng.integers(0x9000, 0x9000 + 4096, size=n)
    outcomes = rng.integers(0, 2, size=n).astype(bool)
    for address, taken in zip(addresses, outcomes):
        core.execute_branch(spy, int(address), bool(taken))


def assert_restored(core, twin, digest):
    """``core`` equals its un-churned ``twin`` and the checkpoint digest."""
    assert_cores_equal(core, twin)
    assert state_digest(core.checkpoint()) == digest


class TestDeltaRestoreEqualsFullCopy:
    """Restoring a checkpoint undoes the delta — every change since it —
    so the core again equals the full copy the checkpoint holds."""

    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_scalar_churn(self, preset_name):
        core, twin = twin_cores(preset_name)
        spy, twin_spy = twin_spies()
        churn(core, spy, rng_seed=1)
        churn(twin, twin_spy, rng_seed=1)
        snap = core.checkpoint()
        digest = state_digest(snap)
        churn(core, spy, rng_seed=2)
        core.restore(snap)
        assert_restored(core, twin, digest)

    def test_compiled_block_apply_between(self):
        """CompiledBlock.apply writes the tables in bulk (and replaces the
        PHT level arrays); a restore across it must still be exact."""
        core, twin = twin_cores()
        spy, _ = twin_spies()
        block = RandomizationBlock.generate(5, n_branches=3000)
        snap = core.checkpoint()
        digest = state_digest(snap)
        block.compile(core, spy).apply(core, spy)
        churn(core, spy, rng_seed=3, n=50)
        core.restore(snap)
        assert_restored(core, twin, digest)

    def test_inject_noise_between(self):
        core, twin = twin_cores()
        spy, twin_spy = twin_spies()
        churn(core, spy, rng_seed=4, n=40)
        churn(twin, twin_spy, rng_seed=4, n=40)
        snap = core.checkpoint()
        digest = state_digest(snap)
        inject_noise(core, 500, np.random.default_rng(5))
        core.restore(snap)
        assert_restored(core, twin, digest)

    def test_mark_reusable_across_repeated_restores(self):
        core, twin = twin_cores()
        spy, _ = twin_spies()
        snap = core.checkpoint()
        digest = state_digest(snap)
        for round_seed in (6, 7, 8):
            churn(core, spy, rng_seed=round_seed, n=60)
            core.restore(snap)
            assert_restored(core, twin, digest)

    def test_older_then_newer_restore(self):
        """Restoring an older checkpoint leaves a newer one restorable."""
        core, twin = twin_cores()
        pristine = make_core("haswell", 11)
        spy, twin_spy = twin_spies()
        old = core.checkpoint()
        old_digest = state_digest(old)
        churn(core, spy, rng_seed=9, n=60)
        churn(twin, twin_spy, rng_seed=9, n=60)
        new = core.checkpoint()
        new_digest = state_digest(new)
        core.restore(old)
        assert_restored(core, pristine, old_digest)
        core.restore(new)
        assert_restored(core, twin, new_digest)

    def test_large_churn_restores(self):
        """A churn touching more entries than a scan probe does (1,500
        branches) restores exactly too."""
        core, twin = twin_cores()
        spy, _ = twin_spies()
        snap = core.checkpoint()
        digest = state_digest(snap)
        churn(core, spy, rng_seed=10, n=1500)
        core.restore(snap)
        assert_restored(core, twin, digest)

    def test_cross_core_restore(self):
        """A checkpoint restores into a different core of the same config."""
        source, target = twin_cores()
        spy = Process("spy", pid=90001)
        churn(source, spy, rng_seed=12, n=80)
        snapshot = source.checkpoint()
        digest = state_digest(snapshot)
        churn(target, Process("spy", pid=90001), rng_seed=13, n=80)
        target.restore(snapshot)
        assert_restored(target, source, digest)

    def test_counter_restore(self):
        core = PhysicalCore(haswell().scaled(64), seed=0)
        spy = Process("spy")
        core.execute_branch(spy, 0x100, True)
        counters = core.counters_for(spy)
        snapshot = counters.snapshot()
        # Unmoved file: restore keeps the contents.
        counters.restore(snapshot)
        assert counters.read(CounterKind.BRANCHES) == 1
        counters.increment(CounterKind.BRANCHES)
        counters.restore(snapshot)
        assert counters.read(CounterKind.BRANCHES) == 1
        # The snapshot is a copy: restoring it again is still correct.
        counters.increment(CounterKind.BRANCHES, 5)
        counters.restore(snapshot)
        assert counters.read(CounterKind.BRANCHES) == 1
