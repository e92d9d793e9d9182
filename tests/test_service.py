"""Tests for ``repro.service`` — sharded campaigns, scheduler, spool, HTTP.

The load-bearing property is **shard invariance**: a campaign split into
any number of shards digests bit-identically to the unsharded run (RNG
stream positions included), which is what makes the content-addressed
shard cache and the fair-share scheduler pure optimisations.  The
SIGKILL test drives the real CLI in a subprocess and checks a killed,
restarted service converges to the uninterrupted reference digest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
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
from repro.obs.http import CONTENT_TYPE, MetricsServer
from repro.obs.metrics import MetricsRegistry
from repro.parallel import TrialPool
from repro.resilience.checkpoint import CheckpointMismatch, rng_state_digest
from repro.service import (
    CampaignAggregate,
    CampaignService,
    CampaignSpec,
    HistogramSketch,
    MomentAccumulator,
    pending_jobs,
    plan_shards,
    run_campaign,
    run_trial,
    serve,
    submit_job,
)
from repro.service.campaign import NOISE_PRESETS, _stability_trial
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
            base.with_shards(5).content_key() == base.content_key()
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

    def test_forked_map_reduce_matches_serial(self):
        spec = small_spec()
        serial = run_campaign(spec, n_shards=1)
        pool = TrialPool(2, chunk_size=2)
        forked = run_campaign(spec, n_shards=1, pool=pool)
        assert forked.digest() == serial.digest()


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
        cold = CampaignService(workers=1, store=store)
        cid = cold.submit(spec)
        cold.run_until_complete()
        assert not [k for k in store._memory if k.startswith("shard_result")]
        assert store.stats_dict()["puts"] == spec.shards
        ran = []
        warm = CampaignService(workers=1, store=store, pre_trial=ran.append)
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
        service = CampaignService(workers=1)
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
        service = CampaignService(workers=1)
        cid = service.submit(spec)
        result = service.run_until_complete()[cid]
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()
        assert result["shards"] == 3
        assert result["tenant"] == "default"

    def test_submit_is_idempotent(self):
        service = CampaignService(workers=1)
        spec = small_spec()
        assert service.submit(spec) == service.submit(spec)
        assert len(service) == 1

    def test_checkpoint_resume_after_partial_run(self, tmp_path):
        spec = small_spec(shards=4)
        first = CampaignService(workers=1, checkpoint_dir=tmp_path / "ck")
        cid = first.submit(spec)
        first.run_wave()  # one shard done, checkpointed
        done_before = len(first.campaign(cid).done)
        assert done_before == 1

        second = CampaignService(workers=1, checkpoint_dir=tmp_path / "ck")
        assert second.submit(spec) == cid
        state = second.campaign(cid)
        assert state.resumed_shards == done_before
        result = second.run_until_complete()[cid]
        assert result["resumed_shards"] == done_before
        assert result["digest"] == run_campaign(spec, n_shards=1).digest()

    def test_resume_rejects_changed_shard_layout(self, tmp_path):
        spec = small_spec(shards=2)
        first = CampaignService(workers=1, checkpoint_dir=tmp_path / "ck")
        first.submit(spec)
        first.run_wave()
        second = CampaignService(workers=1, checkpoint_dir=tmp_path / "ck")
        with pytest.raises(CheckpointMismatch):
            second.submit(spec.with_shards(3))
        # resume=False clears the stale checkpoint and starts over.
        third = CampaignService(workers=1, checkpoint_dir=tmp_path / "ck")
        cid = third.submit(spec.with_shards(3), resume=False)
        assert third.campaign(cid).resumed_shards == 0

    def test_fully_cached_campaign_completes_at_submit(self, tmp_path):
        spec = small_spec(shards=2)
        store = ContentStore(tmp_path / "store")
        cold = CampaignService(workers=1, store=store)
        cid = cold.submit(spec)
        reference = cold.run_until_complete()[cid]

        served = CampaignService(workers=1, store=store)
        assert served.submit(spec) == cid
        state = served.campaign(cid)
        assert state.complete
        assert state.cached_shards == 2
        assert served.results()[cid]["digest"] == reference["digest"]


class TestMetricsServer:
    def test_serves_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total", "test counter", labels=("kind",)
        ).inc(kind="unit")
        with MetricsServer(port=0, registry=registry) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                body = response.read().decode("utf-8")
                assert response.headers["Content-Type"] == CONTENT_TYPE
        assert "repro_test_total" in body
        assert 'kind="unit"' in body

    def test_other_paths_404(self):
        with MetricsServer(port=0, registry=MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/other", timeout=5
                )
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
        root = tmp_path / "svc"
        spec_a = small_spec(name="a", tenant="alpha", shards=2)
        spec_b = small_spec(name="b", tenant="beta", seed=11, shards=2)
        submit_job(root, spec_a)
        submit_job(root, spec_b)
        logs = []
        assert serve(root, workers=1, once=True, log=logs.append) == 0
        results = sorted((root / "results").glob("*.json"))
        assert len(results) == 2
        by_name = {
            json.loads(p.read_text())["name"]: json.loads(p.read_text())
            for p in results
        }
        assert by_name["a"]["digest"] == run_campaign(
            spec_a, n_shards=1
        ).digest()
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
        (root / "checkpoints").mkdir(exist_ok=True)
        for ck in (root / "checkpoints").glob("*"):
            ck.unlink()
        assert serve(root, workers=1, once=True, log=logs.append) == 0
        rerun = json.loads(
            (root / "results" / results[0].name).read_text()
        )
        assert rerun["cached_shards"] == rerun["shards"]
        assert rerun["digest"] == by_name[rerun["name"]]["digest"]


@pytest.mark.slow
class TestServiceKillResume:
    def _serve_cmd(self, root: Path, delay: float) -> list:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--root", str(root), "--once", "--workers", "2",
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
