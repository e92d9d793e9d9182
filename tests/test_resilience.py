"""Chaos suite: the resilience subsystem under injected failure.

Every recovery assertion is *bit-identical results*, not mere survival:
a SIGKILL'd campaign must resume to exactly the uninterrupted run's
output, a corrupted checkpoint must roll back to the last good
generation.  Transport faults against the lease protocol are stormed in
``tests/test_transport.py``.
"""

import pickle

import numpy as np
import pytest

from repro.bpu import haswell
from repro.core.calibration import find_block, stability_experiment
from repro.core.covert import CovertChannel, CovertConfig
from repro.core.patterns import DecodedState
from repro.cpu import PhysicalCore, Process
from repro.obs import reset_resilience_events, resilience_event_counts
from repro.parallel import TrialPool
from repro.resilience import (
    CheckpointCorruption,
    CheckpointMismatch,
    CheckpointStore,
    ResumableCampaign,
    rng_state_digest,
)
from repro.service.transport import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    BACKOFF_JITTER,
    backoff_delay,
)
from repro.snapshot import state_digest
from repro.system.scheduler import NoiseSetting


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_resilience_events()
    yield
    reset_resilience_events()


def square(x):
    return x * x


# ---------------------------------------------------------------------------
# Torn-file simulator


def corrupt_file(path, seed: int = 0) -> int:
    """Flip one seed-chosen byte of the file at ``path`` in place (the
    non-atomic write a torn checkpoint is); returns the offset.  An
    empty file raises ``ValueError``: nothing flipped means nothing
    corrupted, which a recovery test must notice."""
    data = bytearray(open(path, "rb").read())
    if not data:
        raise ValueError(f"cannot corrupt empty file {path}")
    offset = int(np.random.default_rng(seed).integers(len(data)))
    data[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(data)
    return offset


class TestCorruptFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"A" * 100)
        offset = corrupt_file(path, seed=1)
        data = path.read_bytes()
        assert data[offset] != ord("A")
        assert sum(1 for b in data if b != ord("A")) == 1

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_file(path, seed=1)


class TestBackoff:
    """The transport client's retry schedule."""

    def test_delay_grows_and_caps(self):
        assert (BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER) == (
            0.02, 0.5, 0.25
        )
        delays = [backoff_delay(0, a) for a in range(1, 9)]
        for attempt, delay in enumerate(delays, start=1):
            base = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
            assert base <= delay <= base * (1 + BACKOFF_JITTER)
        assert delays[:5] == sorted(delays[:5])
        assert max(delays) <= BACKOFF_CAP * (1 + BACKOFF_JITTER)

    def test_jitter_is_deterministic_and_bounded(self):
        d1 = backoff_delay(3, 2)
        d2 = backoff_delay(3, 2)
        assert d1 == d2
        base = BACKOFF_BASE * 2
        assert base <= d1 <= base * (1 + BACKOFF_JITTER)
        # Different requests decorrelate.
        assert backoff_delay(4, 2) != d1


# ---------------------------------------------------------------------------
# Checkpoint store


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        assert store.load() is None
        state = {"fingerprint": {"x": 1}, "results": {0: [1, 2]}}
        store.save(state)
        assert store.load() == state

    def test_two_generations_and_rollback_on_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        store.save({"gen": 1})
        store.save({"gen": 2})
        assert store.previous_path.exists()
        corrupt_file(store.path, seed=5)
        assert store.load() == {"gen": 1}
        # The torn file is quarantined for forensics, and the event is
        # on the always-on counters.
        assert store.corrupt_path.exists()
        assert resilience_event_counts().get("checkpoint_rollback", 0) == 1
        # The promoted generation is now current: saving continues.
        store.save({"gen": 3})
        assert store.load() == {"gen": 3}

    def test_both_generations_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        store.save({"gen": 1})
        store.save({"gen": 2})
        corrupt_file(store.path, seed=5)
        corrupt_file(store.previous_path, seed=6)
        with pytest.raises(CheckpointCorruption):
            store.load()

    def test_truncated_file_rolls_back(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        store.save({"gen": 1})
        store.save({"gen": 2})
        data = store.path.read_bytes()
        store.path.write_bytes(data[: len(data) // 2])
        assert store.load() == {"gen": 1}

    def test_foreign_file_detected(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        store.path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointCorruption, match="bad magic"):
            store.load()

    def test_hand_built_checkpoint_reads_as_a_state(self, tmp_path):
        """The file layout is pinned: ``REPRO-CKPT-1\\n``, the SHA-256 hex
        of the pickle, a newline, then the protocol-4 pickle."""
        import hashlib

        state = {"fingerprint": {"x": 1}, "done": {0: {"n": 3}}}
        payload = pickle.dumps(state, protocol=4)
        data = (
            b"REPRO-CKPT-1\n"
            + hashlib.sha256(payload).hexdigest().encode("ascii")
            + b"\n"
            + payload
        )
        store = CheckpointStore(tmp_path / "c.ckpt")
        store.path.write_bytes(data)
        assert store.load() == state
        store.save(state)
        assert store.path.read_bytes() == data

    def test_clear_removes_all_generations(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        store.save({"gen": 1})
        store.save({"gen": 2})
        store.clear()
        assert not store.exists()
        assert store.load() is None


class TestRngStateDigest:
    def test_same_position_same_digest(self):
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        assert rng_state_digest(a) == rng_state_digest(b)
        a.random(5)
        b.random(5)
        assert rng_state_digest(a) == rng_state_digest(b)

    def test_advanced_stream_differs(self):
        a = np.random.default_rng(3)
        before = rng_state_digest(a)
        a.random()
        assert rng_state_digest(a) != before


class TestStateDigest:
    def test_delta_and_full_checkpoints_digest_identically(self):
        """Taking a checkpoint leaves the state alone: back-to-back
        checkpoints digest identically."""
        core = PhysicalCore(haswell().scaled(16), seed=5)
        spy = Process("spy")
        for i in range(40):
            core.execute_branch(spy, 0x400 + i, i % 3 == 0)
        first = core.checkpoint()
        second = core.checkpoint()
        assert state_digest(first) == state_digest(second)

    def test_digest_tracks_machine_state(self):
        core = PhysicalCore(haswell().scaled(16), seed=5)
        spy = Process("spy")
        before = state_digest(core.checkpoint())
        core.execute_branch(spy, 0x400, True)
        after = state_digest(core.checkpoint())
        assert before != after


# ---------------------------------------------------------------------------
# Resumable campaigns


class _KillAfter:
    """A pool wrapper that dies (like SIGKILL mid-batch) after N maps."""

    def __init__(self, inner, allowed_batches):
        self.inner = inner
        self.allowed = allowed_batches

    def map(self, fn, payloads):
        if self.allowed <= 0:
            raise KeyboardInterrupt("simulated kill")
        self.allowed -= 1
        return self.inner.map(fn, payloads)


class TestResumableCampaign:
    FP = {"experiment": "unit", "n": 20}

    def test_uninterrupted_map_matches_plain(self, tmp_path):
        campaign = ResumableCampaign(
            tmp_path / "c.ckpt", fingerprint=self.FP, interval=5
        )
        out = campaign.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert campaign.last_resumed == 0

    def test_killed_campaign_resumes_bit_identically(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        first = ResumableCampaign(store, fingerprint=self.FP, interval=4)
        with pytest.raises(KeyboardInterrupt):
            first.map(_KillAfter(TrialPool(), 2), square, range(20))
        second = ResumableCampaign(store, fingerprint=self.FP, interval=4)
        out = second.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert second.last_resumed == 8
        assert resilience_event_counts().get("campaign_resume", 0) >= 1

    def test_completed_campaign_short_circuits(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        ResumableCampaign(store, fingerprint=self.FP, interval=5).map(
            TrialPool(), square, range(20)
        )
        calls = []

        def spy_fn(x):
            calls.append(x)
            return square(x)

        out = ResumableCampaign(store, fingerprint=self.FP, interval=5).map(
            TrialPool(), spy_fn, range(20)
        )
        assert out == [square(i) for i in range(20)]
        assert calls == []

    def test_fingerprint_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        ResumableCampaign(store, fingerprint=self.FP).map(
            TrialPool(), square, range(20)
        )
        other = dict(self.FP, n=21)
        with pytest.raises(CheckpointMismatch):
            ResumableCampaign(store, fingerprint=other).map(
                TrialPool(), square, range(20)
            )

    def test_total_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        ResumableCampaign(store, fingerprint=self.FP).map(
            TrialPool(), square, range(20)
        )
        with pytest.raises(CheckpointMismatch):
            ResumableCampaign(store, fingerprint=self.FP).map(
                TrialPool(), square, range(10)
            )

    def test_resume_false_clears_and_restarts(self, tmp_path):
        store = CheckpointStore(tmp_path / "c.ckpt")
        first = ResumableCampaign(store, fingerprint=self.FP, interval=4)
        with pytest.raises(KeyboardInterrupt):
            first.map(_KillAfter(TrialPool(), 1), square, range(20))
        fresh = ResumableCampaign(
            store, fingerprint=self.FP, interval=4, resume=False
        )
        out = fresh.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert fresh.last_resumed == 0

    def test_rng_stream_position_survives_the_kill(self, tmp_path):
        """Serial campaigns chaining draws resume mid-stream exactly."""

        def run(campaign, rng, kill_after=None):
            def trial(_i):
                return float(rng.random())

            pool = TrialPool()
            if kill_after is not None:
                pool = _KillAfter(pool, kill_after)
            return campaign.map(pool, trial, range(12))

        fp = {"experiment": "rng-chain"}
        ref_rng = np.random.default_rng(9)
        ref = run(
            ResumableCampaign(
                tmp_path / "a.ckpt", fingerprint=fp, interval=3, rng=ref_rng
            ),
            ref_rng,
        )
        store = CheckpointStore(tmp_path / "b.ckpt")
        killed_rng = np.random.default_rng(9)
        with pytest.raises(KeyboardInterrupt):
            run(
                ResumableCampaign(
                    store, fingerprint=fp, interval=3, rng=killed_rng
                ),
                killed_rng,
                kill_after=2,
            )
        resumed_rng = np.random.default_rng(9)  # cold process restart
        out = run(
            ResumableCampaign(
                store, fingerprint=fp, interval=3, rng=resumed_rng
            ),
            resumed_rng,
        )
        assert out == ref
        assert rng_state_digest(resumed_rng) == rng_state_digest(ref_rng)


# ---------------------------------------------------------------------------
# Experiment wiring (find_block / stability_experiment / trial_sweep)


def _mkcore(seed=31):
    return PhysicalCore(haswell().scaled(16), seed=seed)


class TestExperimentResume:
    def test_find_block_checkpoint_equals_plain_and_resumes(self, tmp_path):
        spy = Process("spy")
        kwargs = dict(max_candidates=24)
        core_a = _mkcore()
        plain = find_block(core_a, spy, 0x400, DecodedState.ST, **kwargs)
        core_b = _mkcore()
        ckpt = find_block(
            core_b, spy, 0x400, DecodedState.ST,
            checkpoint=tmp_path / "fb.ckpt", **kwargs
        )
        assert ckpt.block.seed == plain.block.seed
        core_c = _mkcore()
        resumed = find_block(
            core_c, spy, 0x400, DecodedState.ST,
            checkpoint=tmp_path / "fb.ckpt", **kwargs
        )
        assert resumed.block.seed == plain.block.seed
        # Caller RNG position is checkpoint-independent.
        draws = {c.rng.integers(1 << 30) for c in (core_a, core_b, core_c)}
        assert len(draws) == 1

    def test_find_block_checkpoint_parameter_change_raises(self, tmp_path):
        spy = Process("spy")
        find_block(
            _mkcore(), spy, 0x400, DecodedState.ST,
            max_candidates=24, checkpoint=tmp_path / "fb.ckpt",
        )
        with pytest.raises(CheckpointMismatch):
            find_block(
                _mkcore(), spy, 0x404, DecodedState.ST,
                max_candidates=24, checkpoint=tmp_path / "fb.ckpt",
            )

    def test_stability_experiment_kill_and_resume(self, tmp_path):
        def factory():
            return PhysicalCore(haswell().scaled(16), seed=7)

        kwargs = dict(
            n_blocks=9, block_branches=400, repetitions=15,
            backend="process",
        )
        ref = stability_experiment(factory, 0x400, **kwargs)
        store = CheckpointStore(tmp_path / "st.ckpt")

        count = {"n": 0}

        def dying_pre_trial(_seed):
            count["n"] += 1
            if count["n"] > 5:
                raise KeyboardInterrupt("simulated kill")

        with pytest.raises(KeyboardInterrupt):
            stability_experiment(
                factory, 0x400, checkpoint=store, checkpoint_interval=3,
                pre_trial=dying_pre_trial, **kwargs
            )
        resumed = stability_experiment(
            factory, 0x400, checkpoint=store, checkpoint_interval=3, **kwargs
        )
        assert resumed == ref
        assert resilience_event_counts().get("campaign_resume", 0) >= 1

    def test_stability_fingerprint_extra_distinguishes_campaigns(
        self, tmp_path
    ):
        def factory():
            return PhysicalCore(haswell().scaled(16), seed=7)

        kwargs = dict(
            n_blocks=6, block_branches=400, repetitions=10, backend="process"
        )
        store = CheckpointStore(tmp_path / "st.ckpt")
        stability_experiment(
            factory, 0x400, checkpoint=store,
            fingerprint_extra={"core_seed": 7}, **kwargs
        )
        with pytest.raises(CheckpointMismatch):
            stability_experiment(
                factory, 0x400, checkpoint=store,
                fingerprint_extra={"core_seed": 8}, **kwargs
            )

    def test_trial_sweep_kill_and_resume(self, tmp_path):
        def build_channel():
            core = PhysicalCore(haswell().scaled(16), seed=20)
            return CovertChannel.for_processes(
                core,
                Process("victim"),
                Process("spy"),
                setting=NoiseSetting.NOISY,
                config=CovertConfig(block_branches=8000),
            )

        rng = np.random.default_rng(8)
        payloads = [rng.integers(0, 2, 30).tolist() for _ in range(6)]
        ref_channel = build_channel()
        ref = ref_channel.trial_sweep(payloads, seed=0)
        store = CheckpointStore(tmp_path / "cov.ckpt")
        killed = build_channel()
        transmit = killed.transmit
        sent = []

        def dying_transmit(bits):
            # Dies (like SIGKILL) on the fifth message: two batches of
            # two are checkpointed by then.
            if len(sent) == 4:
                raise KeyboardInterrupt("simulated kill")
            sent.append(bits)
            return transmit(bits)

        killed.transmit = dying_transmit
        with pytest.raises(KeyboardInterrupt):
            killed.trial_sweep(
                payloads, seed=0, checkpoint=store, checkpoint_interval=2,
            )
        resumed_channel = build_channel()
        resumed = resumed_channel.trial_sweep(
            payloads, seed=0, checkpoint=store, checkpoint_interval=2,
        )
        assert resumed == ref
        assert resumed_channel.last_sweep_cycles == ref_channel.last_sweep_cycles


# ---------------------------------------------------------------------------
# CLI exit codes


class TestCliExitCodes:
    CAMPAIGN = [
        "campaign", "--blocks", "4", "--branches", "300",
        "--repetitions", "10",
    ]

    def test_success_is_zero(self, tmp_path, capsys):
        from repro.cli import main

        code = main(self.CAMPAIGN + ["--checkpoint", str(tmp_path / "c")])
        assert code == 0
        assert "result digest" in capsys.readouterr().out

    def test_corrupt_checkpoint_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_CHECKPOINT_CORRUPT, main

        ckpt = tmp_path / "c"
        ckpt.write_bytes(b"garbage")
        (tmp_path / "c.prev").write_bytes(b"garbage")
        code = main(self.CAMPAIGN + ["--checkpoint", str(ckpt)])
        assert code == EXIT_CHECKPOINT_CORRUPT == 4
        assert "checkpoint error" in capsys.readouterr().err

    def test_mismatched_checkpoint_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_CHECKPOINT_CORRUPT, main

        ckpt = str(tmp_path / "c")
        assert main(self.CAMPAIGN + ["--checkpoint", ckpt]) == 0
        code = main(self.CAMPAIGN + ["--checkpoint", ckpt, "--seed", "99"])
        assert code == EXIT_CHECKPOINT_CORRUPT

    def test_fresh_clears_mismatched_checkpoint(self, tmp_path):
        from repro.cli import main

        ckpt = str(tmp_path / "c")
        assert main(self.CAMPAIGN + ["--checkpoint", ckpt]) == 0
        code = main(
            self.CAMPAIGN + ["--checkpoint", ckpt, "--seed", "99", "--fresh"]
        )
        assert code == 0

    def test_keyboard_interrupt_exit_code(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "campaign", interrupted)
        code = cli.main(self.CAMPAIGN)
        assert code == cli.EXIT_INTERRUPTED == 130
        assert "re-run the same command to resume" in capsys.readouterr().err

    def test_campaign_runs_the_shared_manycore_engine(self, capsys):
        """``repro campaign`` prints the per-trial reference's digest, and
        runs every block through the manycore engine's shared structure."""
        import hashlib

        from repro.bpu.presets import PRESETS
        from repro.cli import main
        from repro.core.manycore import group_batch_stats

        shared_before = group_batch_stats()["shared"]
        assert main(self.CAMPAIGN) == 0
        assert group_batch_stats()["shared"] == shared_before + 4
        reference = stability_experiment(
            lambda: PhysicalCore(PRESETS["haswell"](), seed=31),
            0x400,
            n_blocks=4,
            block_branches=300,
            repetitions=10,
            backend="process",
        )
        digest = hashlib.sha256(repr(reference).encode()).hexdigest()
        assert f"result digest: {digest}" in capsys.readouterr().out

    def test_campaign_default_block_size_finds_stable_blocks(self, capsys):
        """At its default ``--branches`` a block randomises the full PHT,
        so the Fig. 4 command reports stable blocks."""
        import re

        from repro.cli import main

        assert main(["campaign", "--blocks", "8"]) == 0
        stable = re.search(r"(\d+) stable", capsys.readouterr().out)
        assert int(stable.group(1)) > 0

    def test_campaign_resume_digest_matches(self, tmp_path, capsys):
        from repro.cli import main

        args = self.CAMPAIGN + ["--checkpoint", str(tmp_path / "c")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        def digest(text):
            return [
                line for line in text.splitlines()
                if line.startswith("result digest")
            ]

        assert digest(first) == digest(second)
        assert "resumed" in second


# ---------------------------------------------------------------------------
# Atomic emission


class TestAtomicEmission:
    def test_atomic_write_replaces_without_temp_litter(self, tmp_path):
        from repro.ioutil import atomic_write_text

        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_manifest_write_is_atomic(self, tmp_path):
        from repro.obs import RunManifest

        manifest = RunManifest.capture("unit-test")
        out = manifest.write(tmp_path / "m.json")
        assert out.exists()
        loaded = RunManifest.load(out)
        assert loaded.name == "unit-test"
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_write_result_emits_result_and_manifest(self, tmp_path):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
        try:
            from _common import write_result
        finally:
            sys.path.pop(0)

        path = write_result("unit_atomic", "hello", results_dir=tmp_path)
        assert path.read_text() == "hello\n"
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["unit_atomic.manifest.json", "unit_atomic.txt"]

    def test_unframe_names_the_first_failed_check(self):
        from repro.ioutil import frame, unframe

        data = frame(b"M\n", b"payload")
        assert unframe(b"M\n", data) == b"payload"
        cases = (
            (b"X\n" + data[2:], "bad magic"),
            (b"M\nabc\npayload", "bad digest line"),
            (data[:20], "bad digest line"),
            (data[:-1], "digest mismatch"),
        )
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                unframe(b"M\n", bad)
