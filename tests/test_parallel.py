"""Contract tests for the in-process trial pool (repro.parallel).

The pool's promise is the plain loop's semantics in pool shape: ordered
results, closures over parent state, nesting, and SeedSequence-derived
per-trial streams.  The Figure 4 / covert-sweep determinism tests that
build on this live in ``tests/test_calibration_batch.py`` and below
(``trial_sweep``).
"""

import os

import numpy as np
import pytest

from repro.bpu import haswell
from repro.core.covert import CovertChannel, CovertConfig
from repro.cpu import PhysicalCore, Process
from repro.parallel import TrialPool, spawn_seeds, usable_cpus
from repro.system.scheduler import NoiseSetting


def square(payload):
    return payload * payload


def spawn_rngs(seed, n):
    return [np.random.default_rng(child) for child in spawn_seeds(seed, n)]


class TestUsableCpus:
    def test_follows_affinity(self, monkeypatch):
        """A process pinned to 2 of 64 CPUs may use 2, not 64."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5})
        assert usable_cpus() == 2

    def test_without_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == 6


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
        assert TrialPool().map(square, []) == []

    def test_serial_matches_comprehension(self):
        payloads = list(range(17))
        assert TrialPool().map(square, payloads) == [
            p * p for p in payloads
        ]

    def test_closure_over_parent_state(self):
        """Trial functions may close over unpicklable parent state."""
        table = np.arange(64) * 3
        lookup = {"offset": 7}

        def trial(i):
            return int(table[i]) + lookup["offset"]

        assert TrialPool().map(trial, range(10)) == [
            i * 3 + 7 for i in range(10)
        ]

    def test_trial_exception_propagates(self):
        """A raising trial is an experiment bug: it fails the map."""

        def boom(x):
            if x == 3:
                raise ValueError("bad trial")
            return x

        with pytest.raises(ValueError, match="bad trial"):
            TrialPool().map(boom, range(6))

    def test_nested_pool_degrades_to_serial(self):
        """A pool inside a trial runs in process like the outer one."""

        def outer(i):
            return TrialPool().map(square, range(i + 1))

        assert TrialPool().map(outer, range(4)) == [
            [j * j for j in range(i + 1)] for i in range(4)
        ]


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

    def test_sweep_is_reproducible(self):
        """Received bits and cycle costs are a pure function of the
        payloads and the seed: two fresh channels agree."""
        results = []
        for _ in range(2):
            channel = build_channel()
            received = channel.trial_sweep(self.payloads())
            results.append((received, channel.last_sweep_cycles))
        assert results[0] == results[1]
        received, cycles = results[0]
        assert len(received) == 6 and len(cycles) == 6
        assert all(c > 0 for c in cycles)

    def test_channel_state_restored(self):
        channel = build_channel()
        before = channel.core.checkpoint()
        rng_state_before = channel.core.rng.bit_generator.state
        channel.trial_sweep(self.payloads())
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
