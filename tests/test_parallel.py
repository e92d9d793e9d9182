"""Contract tests for the process-pool trial engine (repro.parallel).

The pool's promise is *serial semantics at any worker count*: ordered
results, payload-order-first search, closures over parent state, serial
fallback for nested pools, and SeedSequence-derived per-trial streams.
The Figure 4 / covert-sweep determinism tests that build on this live in
``tests/test_calibration_batch.py`` and below (``trial_sweep``).
"""

import os

import numpy as np
import pytest

from repro.bpu import haswell
from repro.core.covert import CovertChannel, CovertConfig
from repro.cpu import PhysicalCore, Process
from repro.parallel import (
    TrialPool,
    fork_available,
    resolve_workers,
    spawn_rngs,
    spawn_seeds,
    usable_cpus,
)
from repro.parallel.pool import WORKERS_ENV
from repro.snapshot import state_digest
from repro.system.scheduler import NoiseSetting

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork workers"
)


def square(payload):
    return payload * payload


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3
        assert TrialPool().workers == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(2) == 2

    @pytest.mark.parametrize("auto", ["auto", 0, "0"])
    def test_auto_means_cpu_count(self, auto):
        """One worker per CPU this process may run on."""
        assert resolve_workers(auto) == usable_cpus()

    def test_auto_follows_affinity(self, monkeypatch):
        """A process pinned to 2 of 64 CPUs gets 2 workers, not 64."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5})
        assert usable_cpus() == 2
        assert resolve_workers("auto") == 2

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == 6

    @pytest.mark.parametrize("bad", [-1, "-2"])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            TrialPool(2, chunk_size=0)


class TestSpawnSeeds:
    def test_deterministic_and_independent(self):
        rngs_a = spawn_rngs(42, 4)
        rngs_b = spawn_rngs(42, 4)
        draws_a = [rng.integers(1 << 62) for rng in rngs_a]
        draws_b = [rng.integers(1 << 62) for rng in rngs_b]
        assert draws_a == draws_b
        # Sibling streams differ from each other.
        assert len(set(draws_a)) == len(draws_a)

    def test_seed_matters(self):
        a = [rng.integers(1 << 62) for rng in spawn_rngs(1, 3)]
        b = [rng.integers(1 << 62) for rng in spawn_rngs(2, 3)]
        assert a != b

    def test_spawn_seeds_are_seed_sequences(self):
        seeds = spawn_seeds(5, 2)
        assert all(isinstance(s, np.random.SeedSequence) for s in seeds)


class TestMap:
    def test_empty(self):
        assert TrialPool(4).map(square, []) == []

    def test_serial_matches_comprehension(self):
        payloads = list(range(17))
        assert TrialPool(1).map(square, payloads) == [
            p * p for p in payloads
        ]

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("chunk_size", [None, 1, 4])
    def test_parallel_results_ordered(self, workers, chunk_size):
        payloads = list(range(23))
        pool = TrialPool(workers, chunk_size=chunk_size)
        assert pool.map(square, payloads) == [p * p for p in payloads]

    @needs_fork
    def test_closure_over_parent_state(self):
        """Trial functions may close over unpicklable parent state."""
        table = np.arange(64) * 3
        lookup = {"offset": 7}

        def trial(i):
            return int(table[i]) + lookup["offset"]

        assert TrialPool(3).map(trial, range(10)) == [
            i * 3 + 7 for i in range(10)
        ]

    @needs_fork
    def test_more_workers_than_payloads(self):
        assert TrialPool(8).map(square, [2, 3]) == [4, 9]

    @needs_fork
    def test_nested_pool_degrades_to_serial(self):
        """A pool inside a forked worker must not fork again."""

        def outer(i):
            inner = TrialPool(4)
            return inner.map(square, range(i + 1))

        assert TrialPool(2).map(outer, range(4)) == [
            [j * j for j in range(i + 1)] for i in range(4)
        ]


class TestFindFirst:
    def test_empty(self):
        assert TrialPool(2).find_first(square, []) is None

    def test_serial_stops_at_winner(self):
        calls = []

        def trial(i):
            calls.append(i)
            return i if i >= 3 else None

        assert TrialPool(1).find_first(trial, range(10)) == 3
        assert calls == [0, 1, 2, 3]

    def test_no_match(self):
        assert TrialPool(1).find_first(lambda i: None, range(5)) is None

    @needs_fork
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_returns_payload_order_first(self, workers):
        # Payloads 3, 5, 6 all match; the payload-order first must win
        # regardless of which worker finishes first.
        def trial(i):
            return i if i in (3, 5, 6) else None

        pool = TrialPool(workers, chunk_size=1)
        assert pool.find_first(trial, range(12)) == 3

    @needs_fork
    def test_custom_predicate(self):
        result = TrialPool(2).find_first(
            square, range(10), predicate=lambda r: r > 25
        )
        assert result == 36


class TestSnapshotPickling:
    """Checkpoints cross the worker boundary as plain copies."""

    @needs_fork
    def test_checkpoint_as_worker_result(self):
        config = haswell().scaled(64)
        core = PhysicalCore(config, seed=3)
        spy = Process("spy")

        def trial(i):
            core.execute_branch(spy, 0x100 + i, True)
            checkpoint = core.checkpoint()
            return checkpoint, state_digest(checkpoint)

        results = TrialPool(2, chunk_size=1).map(trial, range(4))
        assert len(results) == 4
        assert len({digest for _, digest in results}) == 4
        for checkpoint, digest in results:
            fresh = PhysicalCore(config, seed=0)
            fresh.restore(checkpoint)
            assert state_digest(fresh.checkpoint()) == digest


def build_channel():
    core = PhysicalCore(haswell().scaled(16), seed=20)
    return CovertChannel.for_processes(
        core,
        Process("victim"),
        Process("spy"),
        setting=NoiseSetting.NOISY,
        config=CovertConfig(block_branches=8000),
    )


class TestTrialSweep:
    def payloads(self):
        rng = np.random.default_rng(8)
        return [rng.integers(0, 2, 40).tolist() for _ in range(6)]

    def test_worker_count_invariant(self):
        """Received bits and cycle costs match at any worker count."""
        results = {}
        for workers in (1, 3) if fork_available() else (1,):
            channel = build_channel()
            received = channel.trial_sweep(self.payloads(), workers=workers)
            results[workers] = (received, channel.last_sweep_cycles)
        first = next(iter(results.values()))
        assert all(value == first for value in results.values())
        received, cycles = first
        assert len(received) == 6 and len(cycles) == 6
        assert all(c > 0 for c in cycles)

    def test_channel_state_restored(self):
        channel = build_channel()
        before = channel.core.checkpoint()
        rng_state_before = channel.core.rng.bit_generator.state
        channel.trial_sweep(self.payloads(), workers=1)
        after = channel.core.checkpoint()

        def eq(a, b):
            if isinstance(a, dict):
                return set(a) == set(b) and all(eq(a[k], b[k]) for k in a)
            if isinstance(a, tuple):
                return len(a) == len(b) and all(
                    eq(x, y) for x, y in zip(a, b)
                )
            if isinstance(a, np.ndarray):
                return np.array_equal(a, b)
            return a == b

        assert eq(before, after)
        assert channel.core.rng.bit_generator.state == rng_state_before

    def test_sweep_decodes_noisy_channel(self):
        channel = build_channel()
        payloads = self.payloads()
        received = channel.trial_sweep(payloads, seed=5)
        errors = sum(
            sum(1 for a, b in zip(sent, got) if a != b)
            for sent, got in zip(payloads, received)
        )
        total = sum(len(p) for p in payloads)
        assert errors / total < 0.1

    def test_empty_sweep(self):
        channel = build_channel()
        assert channel.trial_sweep([]) == []
        assert channel.last_sweep_cycles == []
