"""Chaos suite: the resilience subsystem under injected failure.

Every recovery assertion is *bit-identical results*, not mere survival:
a SIGKILL'd campaign must resume to exactly the uninterrupted run's
output, and a torn, bit-flipped or foreign checkpoint must cost at most
the records that fail their checks.  Transport faults against the lease
protocol are stormed in ``tests/test_transport.py``.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.bpu import haswell
from repro.core.calibration import (
    CHECKPOINT_WAVE,
    find_block,
    stability_experiment,
)
from repro.core.covert import CovertChannel, CovertConfig
from repro.core.patterns import DecodedState
from repro.cpu import PhysicalCore, Process
from repro.obs import reset_resilience_events, resilience_event_counts
from repro.parallel import TrialPool
from repro.resilience import (
    CheckpointMismatch,
    ResumableCampaign,
    ShardLog,
    rng_state_digest,
)
from repro.resilience.checkpoint import SHARD_LOG_MAGIC
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
# Checkpoint logs written by the last release


def write_parent_checkpoint(path, state) -> None:
    """Write ``state`` as the last release's checkpoint did:
    ``REPRO-CKPT-1\\n``, the SHA-256 hex of a protocol-4 pickle, a
    newline, then the pickle."""
    payload = pickle.dumps(state, protocol=4)
    path.write_bytes(
        b"REPRO-CKPT-1\n"
        + hashlib.sha256(payload).hexdigest().encode("ascii")
        + b"\n"
        + payload
    )


class TestCheckpointLog:
    """The one checkpoint format, below its writers: records round-trip,
    the layout is pinned, and a torn or foreign file costs only what
    fails its checks."""

    FP = {"experiment": "unit"}

    def test_append_load_round_trip(self, tmp_path):
        log = ShardLog(tmp_path / "c.ckpt", self.FP)
        assert log.load() == {}
        log.append([(0, {"n": 1}), (1, [2, 3])])
        log.append([(0, {"n": 4})])  # a later record of an index wins
        assert ShardLog(tmp_path / "c.ckpt", self.FP).load() == {
            0: {"n": 4}, 1: [2, 3],
        }

    def test_hand_built_log_reads_as_records(self, tmp_path):
        """The file layout is pinned: ``REPRO-SHARDS-1\\n``, then one line
        per record, each the SHA-256 hex of its canonical JSON, a space
        and the JSON; the header record holds the fingerprint."""

        def line(obj):
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(text.encode()).hexdigest()
            return f"{digest} {text}\n".encode()

        data = (
            b"REPRO-SHARDS-1\n"
            + line({"fingerprint": self.FP})
            + line({"shard": 3, "state": {"x": 0.1}})
        )
        path = tmp_path / "c.ckpt"
        path.write_bytes(data)
        assert ShardLog(path, self.FP).load() == {3: {"x": 0.1}}
        path.unlink()
        log = ShardLog(path, self.FP)
        log.load()
        log.append([(3, {"x": 0.1})])
        assert path.read_bytes() == data

    def test_truncated_file_keeps_whole_records(self, tmp_path):
        log = ShardLog(tmp_path / "c.ckpt", self.FP)
        log.load()
        log.append([(i, i) for i in range(4)])
        data = log.path.read_bytes()
        log.path.write_bytes(data[: len(data) - 30])
        assert ShardLog(log.path, self.FP).load() == {0: 0, 1: 1, 2: 2}
        assert resilience_event_counts()["checkpoint_corrupt"] == 1

    def test_foreign_file_is_quarantined(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        log = ShardLog(path, self.FP)
        assert log.load() == {}
        assert not path.exists()
        assert log.corrupt_path.read_bytes() == b"not a checkpoint at all"
        assert resilience_event_counts()["checkpoint_corrupt"] == 1
        log.append([(0, 1)])  # the run starts a fresh log
        assert ShardLog(path, self.FP).load() == {0: 1}

    def test_clear_removes_log_and_quarantine(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"junk")
        log = ShardLog(path, self.FP)
        log.load()
        log.append([(0, 1)])
        log.clear()
        assert not path.exists() and not log.corrupt_path.exists()
        assert log.load() == {}


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
        store = tmp_path / "c.ckpt"
        first = ResumableCampaign(store, fingerprint=self.FP, interval=4)
        with pytest.raises(KeyboardInterrupt):
            first.map(_KillAfter(TrialPool(), 2), square, range(20))
        second = ResumableCampaign(store, fingerprint=self.FP, interval=4)
        out = second.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert second.last_resumed == 8
        assert resilience_event_counts().get("campaign_resume", 0) >= 1

    def test_completed_campaign_short_circuits(self, tmp_path):
        store = tmp_path / "c.ckpt"
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
        store = tmp_path / "c.ckpt"
        ResumableCampaign(store, fingerprint=self.FP).map(
            TrialPool(), square, range(20)
        )
        other = dict(self.FP, n=21)
        with pytest.raises(CheckpointMismatch):
            ResumableCampaign(store, fingerprint=other).map(
                TrialPool(), square, range(20)
            )

    def test_total_mismatch_raises(self, tmp_path):
        store = tmp_path / "c.ckpt"
        ResumableCampaign(store, fingerprint=self.FP).map(
            TrialPool(), square, range(20)
        )
        with pytest.raises(CheckpointMismatch):
            ResumableCampaign(store, fingerprint=self.FP).map(
                TrialPool(), square, range(10)
            )

    def test_resume_false_clears_and_restarts(self, tmp_path):
        store = tmp_path / "c.ckpt"
        first = ResumableCampaign(store, fingerprint=self.FP, interval=4)
        with pytest.raises(KeyboardInterrupt):
            first.map(_KillAfter(TrialPool(), 1), square, range(20))
        fresh = ResumableCampaign(
            store, fingerprint=self.FP, interval=4, resume=False
        )
        out = fresh.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert fresh.last_resumed == 0

    def _killed(self, path, batches):
        """The log a campaign leaves when killed after ``batches``."""
        campaign = ResumableCampaign(path, fingerprint=self.FP, interval=4)
        with pytest.raises(KeyboardInterrupt):
            campaign.map(_KillAfter(TrialPool(), batches), square, range(20))
        return path.read_bytes()

    def test_one_record_per_trial_one_append_per_batch(self, tmp_path):
        path = tmp_path / "c.ckpt"
        data = self._killed(path, 2)
        lines = data.split(b"\n")
        assert lines[0] + b"\n" == SHARD_LOG_MAGIC
        header = json.loads(lines[1][65:])
        assert header == {
            "fingerprint": {"campaign": self.FP, "trials": 20}
        }
        records = [json.loads(line[65:]) for line in lines[2:] if line]
        assert records == [{"shard": i, "state": i * i} for i in range(8)]

    def test_torn_tail_costs_one_trial(self, tmp_path):
        path = tmp_path / "c.ckpt"
        data = self._killed(path, 2)
        path.write_bytes(data[:-7])
        campaign = ResumableCampaign(path, fingerprint=self.FP, interval=4)
        out = campaign.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert campaign.last_resumed == 7
        assert resilience_event_counts()["checkpoint_corrupt"] == 1

    def test_bit_flipped_record_is_skipped(self, tmp_path):
        path = tmp_path / "c.ckpt"
        data = bytearray(self._killed(path, 2))
        lines = bytes(data).split(b"\n")
        # Magic, header, eight trial records: flip a byte of the third.
        data[sum(len(line) + 1 for line in lines[:4]) + 70] ^= 0x01
        path.write_bytes(bytes(data))
        calls = []

        def spy_fn(x):
            calls.append(x)
            return square(x)

        campaign = ResumableCampaign(path, fingerprint=self.FP, interval=4)
        out = campaign.map(TrialPool(), spy_fn, range(20))
        assert out == [square(i) for i in range(20)]
        assert campaign.last_resumed == 7
        assert calls == [2] + list(range(8, 20))
        assert resilience_event_counts()["checkpoint_corrupt"] == 1

    def test_parent_checkpoint_is_quarantined(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_parent_checkpoint(path, {
            "fingerprint": self.FP,
            "results": {i: square(i) for i in range(8)},
            "total": 20,
            "complete": False,
        })
        campaign = ResumableCampaign(path, fingerprint=self.FP, interval=4)
        out = campaign.map(TrialPool(), square, range(20))
        assert out == [square(i) for i in range(20)]
        assert campaign.last_resumed == 0
        assert path.with_name("c.ckpt.corrupt").exists()
        assert path.read_bytes().startswith(SHARD_LOG_MAGIC)
        assert resilience_event_counts()["checkpoint_corrupt"] == 1


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

    def test_find_block_killed_mid_search_resumes(self, tmp_path, monkeypatch):
        import repro.core.calibration as calibration

        spy = Process("spy")
        kwargs = dict(max_candidates=24)
        plain = find_block(_mkcore(), spy, 0x400, DecodedState.ST, **kwargs)
        assert plain.block.seed > CHECKPOINT_WAVE

        def dying_assess(*args, **kw):
            # Dies (like SIGKILL) at the first candidate that passes the
            # analytical check: the winner, past the first wave.
            raise KeyboardInterrupt("simulated kill")

        path = tmp_path / "fb.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(calibration, "assess_block_batch", dying_assess)
            with pytest.raises(KeyboardInterrupt):
                find_block(
                    _mkcore(), spy, 0x400, DecodedState.ST,
                    checkpoint=path, **kwargs
                )
        # The entropy pin and the first wave's record.
        assert path.read_bytes().count(b"\n") == 4
        resumed = find_block(
            _mkcore(), spy, 0x400, DecodedState.ST, checkpoint=path, **kwargs
        )
        assert resumed.block.seed == plain.block.seed

    def test_parent_checkpoints_are_quarantined(self, tmp_path):
        """A checkpoint the last release wrote at a ``find_block``,
        ``stability_experiment`` or ``trial_sweep`` path is moved aside
        as ``<path>.corrupt``, and the run returns the uninterrupted
        result."""
        spy = Process("spy")
        plain = find_block(
            _mkcore(), spy, 0x400, DecodedState.ST, max_candidates=24
        )
        fb = tmp_path / "fb.ckpt"
        write_parent_checkpoint(fb, {"entropy": 1, "next_index": 0})
        found = find_block(
            _mkcore(), spy, 0x400, DecodedState.ST, max_candidates=24,
            checkpoint=fb,
        )
        assert found.block.seed == plain.block.seed

        def factory():
            return PhysicalCore(haswell().scaled(16), seed=7)

        kwargs = dict(n_blocks=4, block_branches=400, repetitions=10)
        ref = stability_experiment(factory, 0x400, **kwargs)
        st = tmp_path / "st.ckpt"
        write_parent_checkpoint(st, {"results": {0: ref[0]}, "total": 4})
        assert stability_experiment(
            factory, 0x400, checkpoint=st, **kwargs
        ) == ref

        channel = CovertChannel.for_processes(
            _mkcore(20), Process("victim"), Process("spy"),
            config=CovertConfig(block_branches=8000),
        )
        payloads = [[1, 0, 1, 1], [0, 0, 1, 0]]
        sweep = channel.trial_sweep(payloads)
        cov = tmp_path / "cov.ckpt"
        write_parent_checkpoint(cov, {"results": {0: ([0] * 4, 0)}})
        assert channel.trial_sweep(payloads, checkpoint=cov) == sweep
        for path in (fb, st, cov):
            assert path.with_name(path.name + ".corrupt").exists()
            assert path.read_bytes().startswith(SHARD_LOG_MAGIC)
        assert resilience_event_counts()["checkpoint_corrupt"] == 3

    def test_stability_experiment_kill_and_resume(self, tmp_path):
        def factory():
            return PhysicalCore(haswell().scaled(16), seed=7)

        kwargs = dict(
            n_blocks=9, block_branches=400, repetitions=15,
            backend="process",
        )
        ref = stability_experiment(factory, 0x400, **kwargs)
        store = tmp_path / "st.ckpt"

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
        store = tmp_path / "st.ckpt"
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
        store = tmp_path / "cov.ckpt"
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
        """A corrupt checkpoint is quarantined; the run exits 0 with the
        uninterrupted digest."""
        from repro.cli import main

        assert main(self.CAMPAIGN) == 0
        reference = capsys.readouterr().out.splitlines()[-1]
        ckpt = tmp_path / "c"
        ckpt.write_bytes(b"garbage")
        code = main(self.CAMPAIGN + ["--checkpoint", str(ckpt)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == reference
        assert reference.startswith("result digest")
        assert (tmp_path / "c.corrupt").read_bytes() == b"garbage"

    def test_mismatched_checkpoint_exit_code(self, tmp_path, capsys):
        from repro.cli import EXIT_CHECKPOINT_CORRUPT, main

        ckpt = str(tmp_path / "c")
        assert main(self.CAMPAIGN + ["--checkpoint", ckpt]) == 0
        code = main(self.CAMPAIGN + ["--checkpoint", ckpt, "--seed", "99"])
        assert code == EXIT_CHECKPOINT_CORRUPT == 4
        assert "checkpoint error" in capsys.readouterr().err

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
