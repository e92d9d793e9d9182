"""Tests for ``repro.service`` — sharded campaigns, scheduler, spool, serve.

The load-bearing property is **shard invariance**: a campaign split into
any number of shards digests bit-identically to the unsharded run (RNG
stream positions included), which is what makes the content-addressed
shard cache and the fair-share scheduler pure optimisations.  The
SIGKILL test drives the real CLI in a subprocess and checks a killed,
restarted service converges to the uninterrupted reference digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.bpu.presets import PRESETS
from repro.core.calibration import (
    assess_block,
    assess_block_batch,
    draw_trial_plan,
)
from repro.core.randomizer import (
    RandomizationBlock,
    clear_compile_cache,
    compile_cache_info,
)
from repro.cpu.process import Process
from repro.obs import trace as obs
from repro.ioutil import canonical_json
from repro.obs import resilience_event_counts
from repro.obs.metrics import MetricsRegistry
from repro.resilience.checkpoint import (
    SHARD_LOG_MAGIC,
    CheckpointMismatch,
    ShardLog,
    rng_state_digest,
)
from repro.service import (
    CampaignAggregate,
    CampaignService,
    CampaignSpec,
    HistogramSketch,
    MomentAccumulator,
    pending_jobs,
    plan_shards,
    run_campaign,
    run_coordinator,
    run_trial,
    submit_job,
)
from repro.service.aggregate import xor_digests
from repro.service.campaign import NOISE_PRESETS, _stability_trial
from repro.service.coordinator import Coordinator
from repro.service.transport import METRICS_CONTENT_TYPE, CoordinatorServer
from repro.store import ContentStore

#: Small-but-nondegenerate campaign used throughout (7 trials so the
#: 7-shard split exercises one-trial shards).
SMALL = dict(
    scale=32, n_blocks=7, block_branches=300, repetitions=6, shards=1
)


def small_spec(**overrides) -> CampaignSpec:
    params = dict(SMALL)
    params.update(overrides)
    return CampaignSpec(**params)


class TestAccumulators:
    def test_moment_accumulator_is_exact(self):
        acc = MomentAccumulator()
        for v in (0.1, 0.2, 0.7):
            acc.add(v)
        # Sums are exact rationals of the float inputs, not float sums.
        expected = sum(Fraction(v) for v in (0.1, 0.2, 0.7))
        assert acc.total == expected
        assert acc.mean() == float(expected / 3)

    def test_moment_merge_equals_serial_fold(self):
        values = [i / 7 for i in range(20)]
        serial = MomentAccumulator()
        for v in values:
            serial.add(v)
        left, right = MomentAccumulator(), MomentAccumulator()
        for v in values[:11]:
            left.add(v)
        for v in values[11:]:
            right.add(v)
        left.merge(right)
        assert left.state_token() == serial.state_token()
        assert left.variance() == serial.variance()

    def test_moment_state_round_trip(self):
        acc = MomentAccumulator()
        acc.add(0.3)
        again = MomentAccumulator.from_state(acc.to_state())
        assert again.state_token() == acc.state_token()

    def test_histogram_merge_and_edge_mismatch(self):
        a, b = HistogramSketch(), HistogramSketch()
        a.add(0.84)  # last bucket <= 0.85: stability threshold resolves
        b.add(0.86)
        a.merge(b)
        assert sum(a.counts) == 2
        with pytest.raises(ValueError, match="different edges"):
            a.merge(HistogramSketch(edges=(0.5, 1.0)))

    @pytest.mark.parametrize(
        "a, b",
        [
            (bytes(32), bytes(32)),
            (bytes(range(32)), bytes(32)),
            (bytes(range(32)), bytes(range(31, -1, -1))),
            (b"\xff" * 32, bytes(range(0, 256, 8))),
            (b"\x80" + bytes(30) + b"\x01", b"\x01" + bytes(30) + b"\x80"),
        ],
    )
    def test_xor_digests_equals_bytewise_xor(self, a, b):
        """The multiset-digest combine is the per-byte XOR, leading zero
        bytes and both ends of the digest included."""
        expected = bytes(x ^ y for x, y in zip(a, b))
        assert xor_digests(a, b) == expected
        assert len(xor_digests(a, b)) == 32
        assert xor_digests(xor_digests(a, b), b) == a

    def test_aggregate_state_round_trip_preserves_digest(self):
        spec = small_spec()
        agg = CampaignAggregate()
        for i in range(3):
            agg.add_trial(run_trial(spec, i))
        again = CampaignAggregate.from_state(agg.to_state())
        assert again.digest() == agg.digest()
        assert again.summary() == agg.summary()


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown preset"):
            CampaignSpec(preset="pentium")
        with pytest.raises(ValueError, match="unknown noise"):
            CampaignSpec(noise="cosmic")
        with pytest.raises(ValueError, match="shards"):
            CampaignSpec(shards=0)

    def test_scheduling_knobs_do_not_shape_content(self):
        base = small_spec()
        assert (
            replace(base, shards=5).content_key() == base.content_key()
        )
        other_tenant = small_spec(tenant="acme")
        assert other_tenant.content_key() == base.content_key()
        # But the science does.
        assert small_spec(seed=8).content_key() != base.content_key()

    def test_json_round_trip(self):
        spec = small_spec(name="round trip!", tenant="acme")
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert "-" in spec.campaign_id()
        assert " " not in spec.campaign_id()

    def test_plan_shards(self):
        spec = small_spec(n_blocks=7)
        assert plan_shards(spec, 1) == [(0, 7)]
        shards = plan_shards(spec, 3)
        assert shards == [(0, 3), (3, 5), (5, 7)]
        # Clamp: never more shards than trials.
        assert len(plan_shards(spec, 100)) == 7
        with pytest.raises(ValueError):
            plan_shards(spec, 0)


class TestShardInvariance:
    @pytest.mark.parametrize("preset", ["skylake", "haswell"])
    def test_digest_is_shard_count_invariant(self, preset):
        spec = small_spec(preset=preset)
        reference = run_campaign(spec, n_shards=1)
        for n_shards in (2, 4, 7):
            split = run_campaign(spec, n_shards=n_shards)
            assert split.digest() == reference.digest(), (
                f"{preset} campaign digest changed at {n_shards} shards"
            )
        assert reference.n_trials == spec.n_blocks

    def test_trial_records_embed_rng_positions(self):
        spec = small_spec()
        record = run_trial(spec, 3)
        assert len(record["rng_digest"]) == 64
        # Pure function of (spec, index): bit-for-bit reproducible.
        assert run_trial(spec, 3) == record


class TestTrialEngineDifferential:
    """A service trial (the manycore engine's N=1 case) against the
    per-trial reference: generate -> compile -> assess with the same
    plan.  The plan-mode batch assessor is the exact fallback, so its
    record must match field for field, ``rng_digest`` included; the
    scalar engine must match on every science field (its timing draws
    advance the core RNG, which the batch and manycore paths never do).
    """

    SCIENCE = (
        "tt_pattern", "tt_frequency", "nn_pattern", "nn_frequency",
        "stable", "state",
    )

    @staticmethod
    def _reference(spec, index, assess):
        core = spec.build_core()
        spy = Process("reference-spy")
        block = RandomizationBlock.generate(
            spec.seed_start + index, n_branches=spec.block_branches
        )
        compiled = block.compile(core, spy)
        child = np.random.SeedSequence(spec.seed, spawn_key=(index,))
        plan = draw_trial_plan(
            np.random.default_rng(child),
            core,
            repetitions=spec.repetitions,
            noise=spec.noise_model(),
        )
        assessment = assess(core, spy, compiled, spec.target_address, plan=plan)
        fsm = core.predictor.bimodal.pht.fsm
        record = {
            "index": index,
            "seed": spec.seed_start + index,
            "tt_pattern": assessment.tt_pattern,
            "tt_frequency": float(assessment.tt_frequency),
            "nn_pattern": assessment.nn_pattern,
            "nn_frequency": float(assessment.nn_frequency),
            "stable": bool(assessment.stable),
            "state": assessment.decoded(fsm).value,
            "rng_digest": rng_state_digest(core.rng),
        }
        gaps = plan.offsets[1:] - plan.offsets[:-1]
        return record, bool((gaps == 0).any())

    @pytest.mark.parametrize("scale", [1, 16])
    @pytest.mark.parametrize("noise", sorted(NOISE_PRESETS))
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_records_and_rng_digest_match_reference(self, preset, noise, scale):
        spec = small_spec(preset=preset, noise=noise, scale=scale, n_blocks=3)
        for index in range(spec.n_blocks):
            obs.reset_scalar_fallbacks()
            clear_compile_cache()
            record = _stability_trial(spec, index)
            info = compile_cache_info()
            compiles = info["hits"] + info["misses"]
            fallbacks = obs.scalar_fallback_counts().get("manycore", 0)

            batch, zero_gap = self._reference(spec, index, assess_block_batch)
            scalar, _ = self._reference(spec, index, assess_block)
            assert record == batch
            assert {k: record[k] for k in self.SCIENCE} == {
                k: scalar[k] for k in self.SCIENCE
            }
            # Supported trials never compile; an empty noise gap (always
            # under "silent") takes the counted, exact fallback.
            assert noise != "silent" or zero_gap
            assert fallbacks == int(zero_gap)
            assert compiles == int(zero_gap)
        obs.reset_scalar_fallbacks()


class TestCampaignStore:
    def test_warm_run_is_served_without_trials(self, tmp_path):
        spec = small_spec()
        store = ContentStore(tmp_path / "store")
        ran = []
        cold = run_campaign(
            spec, n_shards=3, store=store, pre_trial=ran.append
        )
        assert len(ran) == spec.n_blocks
        ran.clear()
        warm = run_campaign(
            spec, n_shards=3, store=store, pre_trial=ran.append
        )
        assert ran == []  # every shard came from the store
        assert warm.digest() == cold.digest()
        stats = store.stats_dict()
        assert stats["memory_hits"] == 3
        assert stats["puts"] == 3

    def test_service_publishes_shard_results_to_disk_only(self, tmp_path):
        """The scheduler keeps each aggregate in its campaign state, so
        its store put skips the memory tier; a same-process resubmission
        is still served whole, from disk."""
        spec = small_spec()
        store = ContentStore(tmp_path / "store")
        cold = CampaignService(store=store)
        cid = cold.submit(spec)
        cold.run_until_complete()
        assert not [k for k in store._memory if k.startswith("shard_result")]
        assert store.stats_dict()["puts"] == spec.shards
        ran = []
        warm = CampaignService(store=store, pre_trial=ran.append)
        assert warm.submit(spec) == cid
        state = warm.campaign(cid)
        assert ran == []
        assert state.cached_shards == spec.shards == len(state.shards)
        assert state.aggregate().digest() == (
            cold.campaign(cid).aggregate().digest()
        )
        stats = store.stats_dict()
        assert stats["disk_hits"] == spec.shards
        assert stats["memory_hits"] == 0

    def test_shard_cache_shared_across_tenants(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        run_campaign(small_spec(tenant="alpha"), n_shards=2, store=store)
        ran = []
        run_campaign(
            small_spec(tenant="beta", name="other"),
            n_shards=2,
            store=store,
            pre_trial=ran.append,
        )
        assert ran == []  # same science, different tenant: shared entries


class TestCampaignService:
    def test_two_tenants_fair_share(self):
        service = CampaignService()
        a = service.submit(small_spec(tenant="alpha", shards=4))
        b = service.submit(
            small_spec(tenant="beta", name="b", seed=11, shards=2)
        )
        # Capacity 1 per wave: the first two waves must serve the two
        # tenants alternately, not drain alpha first.
        service.run_wave()
        service.run_wave()
        assert service.book.tenant_dispatched == {"alpha": 1, "beta": 1}
        results = service.run_until_complete()
        assert set(results) == {a, b}
        assert results[a]["n_trials"] == 7
        assert results[a]["digest"] != results[b]["digest"]

    def test_result_matches_plain_run(self):
        spec = small_spec(shards=3)
        service = CampaignService()
        cid = service.submit(spec)
        result = service.run_until_complete()[cid]
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()
        assert result["shards"] == 3
        assert result["tenant"] == "default"

    def test_submit_is_idempotent(self):
        service = CampaignService()
        spec = small_spec()
        assert service.submit(spec) == service.submit(spec)
        assert len(service) == 1

    def test_checkpoint_resume_after_partial_run(self, tmp_path):
        spec = small_spec(shards=4)
        first = CampaignService(checkpoint_dir=tmp_path / "ck")
        cid = first.submit(spec)
        first.run_wave()  # one shard done, checkpointed
        done_before = len(first.campaign(cid).done)
        assert done_before == 1

        second = CampaignService(checkpoint_dir=tmp_path / "ck")
        assert second.submit(spec) == cid
        state = second.campaign(cid)
        assert state.resumed_shards == done_before
        result = second.run_until_complete()[cid]
        assert result["resumed_shards"] == done_before
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()

    def test_resume_rejects_changed_shard_layout(self, tmp_path):
        spec = small_spec(shards=2)
        first = CampaignService(checkpoint_dir=tmp_path / "ck")
        first.submit(spec)
        first.run_wave()
        second = CampaignService(checkpoint_dir=tmp_path / "ck")
        with pytest.raises(CheckpointMismatch):
            second.submit(replace(spec, shards=3))
        # resume=False clears the stale checkpoint and starts over.
        third = CampaignService(checkpoint_dir=tmp_path / "ck")
        cid = third.submit(replace(spec, shards=3), resume=False)
        assert third.campaign(cid).resumed_shards == 0

    def test_fully_cached_campaign_completes_at_submit(self, tmp_path):
        spec = small_spec(shards=2)
        store = ContentStore(tmp_path / "store")
        cold = CampaignService(store=store)
        cid = cold.submit(spec)
        reference = cold.run_until_complete()[cid]

        served = CampaignService(store=store)
        assert served.submit(spec) == cid
        state = served.campaign(cid)
        assert state.complete
        assert state.cached_shards == 2
        assert served.results()[cid]["digest"] == reference["digest"]


class TestMetricsServer:
    """The coordinator's serve port is the scrape port: ``/metrics``
    renders the live registry as Prometheus text, other GETs are 404."""

    def test_serves_prometheus_text(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", "test counter", labels=("kind",)
        ).inc(kind="unit")
        coord = Coordinator(tmp_path, log=lambda *args: None)
        with obs.tracing(metrics=registry), CoordinatorServer(coord) as server:
            with urllib.request.urlopen(
                f"{server.url}/metrics", timeout=5
            ) as response:
                body = response.read().decode("utf-8")
                assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
        assert "repro_test_total" in body
        assert 'kind="unit"' in body

    def test_other_paths_404(self, tmp_path):
        coord = Coordinator(tmp_path, log=lambda *args: None)
        with CoordinatorServer(coord) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/other", timeout=5)
            assert err.value.code == 404


class TestSpool:
    def test_submit_load_round_trip(self, tmp_path):
        spec = small_spec(name="queued")
        path = submit_job(tmp_path, spec)
        assert path.exists()
        assert pending_jobs(tmp_path) == [spec]
        # Malformed spool entries are skipped, not fatal.
        (tmp_path / "jobs" / "broken.json").write_text("{nope")
        assert pending_jobs(tmp_path) == [spec]

    def test_serve_once_drains_and_writes_results(self, tmp_path):
        """``repro serve --once`` without ``--port``: the coordinator and
        its own worker thread drain two tenants to the ``run_campaign``
        digests, and nothing they started outlives the call."""
        root = tmp_path / "svc"
        spec_a = small_spec(name="a", tenant="alpha", shards=2)
        spec_b = small_spec(name="b", tenant="beta", seed=11, shards=2)
        submit_job(root, spec_a)
        submit_job(root, spec_b)
        logs = []
        threads = set(threading.enumerate())
        tracer = obs.TRACER
        assert run_coordinator(
            root, once=True, local_worker=True, poll_seconds=0.05,
            log=logs.append,
        ) == 0
        deadline = time.time() + 10
        while set(threading.enumerate()) - threads and time.time() < deadline:
            time.sleep(0.02)
        assert set(threading.enumerate()) <= threads
        assert obs.TRACER is tracer  # metrics collection ended with it
        url = json.loads((root / "coordinator.json").read_text())["url"]
        assert url.startswith("http://127.0.0.1:")
        results = sorted((root / "results").glob("*.json"))
        assert len(results) == 2
        by_name = {
            json.loads(p.read_text())["name"]: json.loads(p.read_text())
            for p in results
        }
        for spec in (spec_a, spec_b):
            assert by_name[spec.name]["digest"] == run_campaign(
                spec, n_shards=1
            ).digest()
        assert sum("digest:" in line for line in logs) == 2
        stats = json.loads((root / "store-stats.json").read_text())
        # The store holds shard results only: two campaigns x two shards.
        stored = sorted(p.name for p in (root / "store").iterdir())
        assert len(stored) == 4
        assert all(
            name.startswith("shard_result-") and name.endswith(".pkl")
            for name in stored
        )
        assert stats["puts"] == 4
        assert stats["disk_bytes"] == stats["bytes_written"]
        assert pending_jobs(root) == []  # completed jobs are not reloaded

        # Warm restart over the same root: all shards come from the store.
        for path in results:
            path.unlink()
        for ck in (root / "checkpoints").glob("*"):
            ck.unlink()
        assert run_coordinator(
            root, once=True, local_worker=True, poll_seconds=0.05,
            log=logs.append,
        ) == 0
        rerun = json.loads(
            (root / "results" / results[0].name).read_text()
        )
        assert rerun["cached_shards"] == rerun["shards"]
        assert rerun["digest"] == by_name[rerun["name"]]["digest"]

    @pytest.mark.parametrize("once", [True, False])
    def test_failing_local_worker_fails_serve(
        self, tmp_path, monkeypatch, once
    ):
        """An exception in the local worker ends ``repro serve`` with
        that exception, in ``--once`` and in serve-forever mode."""
        from repro.service import worker as worker_module

        def broken(*args, **kwargs):
            raise RuntimeError("shard exploded")

        monkeypatch.setattr(worker_module, "run_shard", broken)
        submit_job(tmp_path, small_spec())
        outcome = []

        def serve() -> None:
            try:
                run_coordinator(
                    tmp_path, once=once, local_worker=True,
                    poll_seconds=0.05, log=lambda *a: None,
                )
            except RuntimeError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "serve hung on a failed worker"
        assert [str(exc) for exc in outcome] == ["shard exploded"]


def count_fsyncs(monkeypatch) -> list:
    """Record every ``os.fsync`` call from here on (one entry each)."""
    calls: list = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def log_record_bytes(obj) -> int:
    """Size of one shard-log line: digest, space, canonical JSON, newline."""
    return 64 + 1 + len(canonical_json(obj).encode("utf-8")) + 1


def logged_shards(data: bytes) -> list:
    """Shard indices recorded in a log's bytes (header lines skipped)."""
    return [
        json.loads(line[65:])["shard"]
        for line in data.split(b"\n")[2:]
        if line
    ]


class TestShardLog:
    """The campaign checkpoint is an append-only, per-record-digested
    shard log: one fsync per finished shard, linear growth, and every
    torn, flipped or foreign file resumes to the reference digest."""

    def _partial(self, tmp_path, spec, waves, store=None):
        """A service that ran ``waves`` one-shard waves, and its log."""
        service = CampaignService(
            store=store, checkpoint_dir=tmp_path / "ck"
        )
        cid = service.submit(spec)
        for _ in range(waves):
            service.run_wave()
        return service.campaign(cid), tmp_path / "ck" / f"{cid}.ckpt"

    def _resume(self, tmp_path, spec, store=None):
        service = CampaignService(
            store=store, checkpoint_dir=tmp_path / "ck"
        )
        cid = service.submit(spec)
        state = service.campaign(cid)
        result = service.run_until_complete()[cid]
        return state, result

    def test_one_fsync_per_shard_and_none_in_the_store(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(shards=4)
        store = ContentStore(tmp_path / "store")
        service = CampaignService(
            store=store, checkpoint_dir=tmp_path / "ck"
        )
        cid = service.submit(spec)
        calls = count_fsyncs(monkeypatch)
        put = store.put
        put_fsyncs = []

        def counted_put(*args, **kwargs):
            before = len(calls)
            put(*args, **kwargs)
            put_fsyncs.append(len(calls) - before)

        monkeypatch.setattr(store, "put", counted_put)
        per_wave = []
        for _ in range(4):
            before = len(calls)
            assert service.run_wave() == 1
            per_wave.append(len(calls) - before)
        # The first shard creates the log (file + directory); every
        # later shard is one fsync'd append.
        assert per_wave == [2, 1, 1, 1]
        assert put_fsyncs == [0, 0, 0, 0]
        assert service.results()[cid]["digest"] == run_campaign(
            spec, n_shards=1
        ).digest()

    def test_one_fsync_per_accepted_upload(self, tmp_path, monkeypatch):
        from repro.service.campaign import run_shard
        from repro.service.transport import aggregate_state_digest

        spec = small_spec(shards=4)
        coord = Coordinator(tmp_path, log=lambda *args: None)
        coord.submit(spec)
        calls = count_fsyncs(monkeypatch)
        finish = coord.book.finish
        per_finish = []

        def counted_finish(triples):
            before = len(calls)
            finish(triples)
            per_finish.append(len(calls) - before)

        monkeypatch.setattr(coord.book, "finish", counted_finish)
        while not coord.drained():
            work = coord.claim("w")["work"]
            agg_state = run_shard(spec, work["lo"], work["hi"]).to_state()
            reply = coord.upload({
                "campaign": work["campaign"],
                "shard": work["shard"],
                "worker": "w",
                "state": agg_state,
                "digest": aggregate_state_digest(agg_state),
            })
            assert reply["status"] == "accepted"
        assert per_finish == [2, 1, 1, 1]

    def test_log_grows_by_one_record_per_shard(self, tmp_path):
        spec = small_spec(shards=4)
        service = CampaignService(checkpoint_dir=tmp_path / "ck")
        cid = service.submit(spec)
        state = service.campaign(cid)
        path = tmp_path / "ck" / f"{cid}.ckpt"
        size = len(SHARD_LOG_MAGIC) + log_record_bytes(
            {"fingerprint": spec.fingerprint()}
        )
        previous = b""
        for _ in range(4):
            assert service.run_wave() == 1
            (shard,) = set(state.done) - set(logged_shards(previous))
            size += log_record_bytes(
                {"shard": shard, "state": state.done[shard].to_state()}
            )
            data = path.read_bytes()
            assert len(data) == size
            assert data.startswith(previous)  # appended, never rewritten
            previous = data

    def test_torn_tail_resumes_and_is_cut_before_the_next_append(
        self, tmp_path
    ):
        spec = small_spec(shards=4)
        _, path = self._partial(tmp_path, spec, waves=3)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        before = resilience_event_counts().get("checkpoint_corrupt", 0)
        service = CampaignService(checkpoint_dir=tmp_path / "ck")
        cid = service.submit(spec)
        assert service.campaign(cid).resumed_shards == 2
        assert resilience_event_counts()["checkpoint_corrupt"] == before + 1
        # The bad record is gone before anything is appended.
        last = data[:-1].rfind(b"\n") + 1
        assert path.read_bytes() == data[:last]
        result = service.run_until_complete()[cid]
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()
        # The finished log is whole: a fresh load sees all four shards.
        again = CampaignService(checkpoint_dir=tmp_path / "ck")
        assert again.campaign(again.submit(spec)).resumed_shards == 4
        assert resilience_event_counts()["checkpoint_corrupt"] == before + 1

    def test_torn_only_record_starts_a_fresh_log(self, tmp_path):
        spec = small_spec(shards=4)
        _, path = self._partial(tmp_path, spec, waves=1)
        path.write_bytes(path.read_bytes()[:-7])
        service = CampaignService(checkpoint_dir=tmp_path / "ck")
        cid = service.submit(spec)
        assert service.campaign(cid).resumed_shards == 0
        assert not path.exists()  # no shard is durable, so no log
        result = service.run_until_complete()[cid]
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()
        again = CampaignService(checkpoint_dir=tmp_path / "ck")
        assert again.campaign(again.submit(spec)).resumed_shards == 4

    def test_bit_flipped_middle_record_is_skipped(self, tmp_path):
        spec = small_spec(shards=4)
        _, path = self._partial(tmp_path, spec, waves=3)
        data = bytearray(path.read_bytes())
        lines = bytes(data).split(b"\n")
        # Magic, header, three shard records: flip a byte of the second.
        offset = sum(len(line) + 1 for line in lines[:3]) + 100
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
        before = resilience_event_counts().get("checkpoint_corrupt", 0)
        state, result = self._resume(tmp_path, spec)
        assert state.resumed_shards == 2
        assert resilience_event_counts()["checkpoint_corrupt"] == before + 1
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()

    def test_pickle_checkpoint_is_quarantined_and_store_serves(
        self, tmp_path
    ):
        spec = small_spec(shards=4)
        store = ContentStore(tmp_path / "store")
        first, path = self._partial(tmp_path, spec, waves=2, store=store)
        # What an earlier release wrote at this path: ``REPRO-CKPT-1``,
        # the SHA-256 hex of a protocol-4 pickle, a newline, the pickle.
        payload = pickle.dumps({
            "fingerprint": spec.fingerprint(),
            "done": {i: agg.to_state() for i, agg in first.done.items()},
            "complete": False,
        }, protocol=4)
        path.write_bytes(
            b"REPRO-CKPT-1\n"
            + hashlib.sha256(payload).hexdigest().encode("ascii")
            + b"\n"
            + payload
        )
        before = resilience_event_counts().get("checkpoint_corrupt", 0)
        state, result = self._resume(tmp_path, spec, store=store)
        assert resilience_event_counts()["checkpoint_corrupt"] == before + 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert state.resumed_shards == 0
        assert state.cached_shards == 2
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()
        assert path.read_bytes().startswith(SHARD_LOG_MAGIC)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        log = ShardLog(tmp_path / "c.ckpt", {"experiment": "a"})
        log.load()
        log.append([(0, {"n": 1})])
        with pytest.raises(CheckpointMismatch):
            ShardLog(tmp_path / "c.ckpt", {"experiment": "b"}).load()
        assert ShardLog(tmp_path / "c.ckpt", {"experiment": "a"}).load() == {
            0: {"n": 1}
        }


@pytest.mark.slow
class TestServiceKillResume:
    def _serve_cmd(self, root: Path, delay: float) -> list:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--root", str(root), "--once",
        ]
        if delay:
            cmd += ["--trial-delay", str(delay)]
        return cmd

    def test_sigkilled_service_resumes_to_reference_digest(self, tmp_path):
        spec = small_spec(name="kill", shards=3, n_blocks=6)
        reference = run_campaign(spec, n_shards=1).digest()

        root = tmp_path / "svc"
        submit_job(root, spec)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        proc = subprocess.Popen(
            self._serve_cmd(root, delay=0.4),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as the first wave has checkpointed: the
            # surviving state is a partial campaign mid-flight.
            ckpt = root / "checkpoints" / f"{spec.campaign_id()}.ckpt"
            deadline = time.time() + 60
            while not ckpt.exists() and time.time() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert ckpt.exists(), "service never wrote a checkpoint"
            assert proc.poll() is None, "service finished before the kill"
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=30)
        assert not (root / "results" / f"{spec.campaign_id()}.json").exists()

        # Restart (no delay): must resume and converge, not recompute
        # into a different answer.
        done = subprocess.run(
            self._serve_cmd(root, delay=0.0),
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(
            (root / "results" / f"{spec.campaign_id()}.json").read_text()
        )
        assert result["digest"] == reference
        assert result["resumed_shards"] + result["cached_shards"] >= 1
