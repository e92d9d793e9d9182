"""Tests for the multi-host layer: wire framing, leases, coordinator,
worker, and the chaos suite.

The headline invariant under test is the distributed extension of PR
8's shard invariance: the merged campaign digest is **bit-identical**
whether the campaign ran single-host via ``run_campaign``, across N
workers over the HTTP transport, through a deterministic network fault
storm, with leases expiring mid-shard, or with a worker SIGKILLed — the
slow subprocess test at the bottom drives the real CLI through the last
one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import trace as obs
from repro.resilience import NetworkFaultInjector, NetworkFaultSpec
from repro.resilience.faults import (
    DELAY,
    DROP,
    DROP_RESPONSE,
    DUPLICATE,
    TRUNCATE,
)
from repro.service import (
    CampaignService,
    CampaignSpec,
    run_campaign,
    run_worker,
)
from repro.service.coordinator import Coordinator, run_coordinator
from repro.service.leases import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    LeaseTable,
    publish_lease_metrics,
)
from repro.service.server import pending_jobs, service_dirs, submit_job
from repro.service.transport import (
    CoordinatorServer,
    CoordinatorUnreachable,
    LeaseQuarantinedError,
    TransportClient,
    WIRE_MAGIC,
    WireError,
    aggregate_state_digest,
    frame_payload,
    unframe_payload,
)

SMALL = dict(
    scale=32, n_blocks=7, block_branches=300, repetitions=6, shards=3
)


def small_spec(**overrides) -> CampaignSpec:
    params = dict(SMALL)
    params.update(overrides)
    return CampaignSpec(**params)


@pytest.fixture(autouse=True)
def _reset_resilience_counters():
    obs.reset_resilience_events()
    yield
    obs.reset_resilience_events()


# -- wire framing -------------------------------------------------------------


class TestWireFraming:
    def test_round_trip(self):
        payload = {"b": [1, 2], "a": {"x": None, "y": "é"}}
        assert unframe_payload(frame_payload(payload)) == payload

    def test_frame_layout_is_pinned(self):
        import hashlib

        body = b'{"a":[1,2],"b":"x"}'
        assert frame_payload({"b": "x", "a": [1, 2]}) == (
            b"REPRO-WIRE-1\n"
            + hashlib.sha256(body).hexdigest().encode("ascii")
            + b"\n"
            + body
        )

    def test_canonical_bytes_are_key_order_independent(self):
        assert frame_payload({"a": 1, "b": 2}) == frame_payload(
            {"b": 2, "a": 1}
        )

    def test_truncated_frame_rejected(self):
        data = frame_payload({"k": "v" * 100})
        for cut in (len(data) - 1, len(data) // 2, len(WIRE_MAGIC) + 10):
            with pytest.raises(WireError):
                unframe_payload(data[:cut])

    def test_flipped_byte_rejected(self):
        data = bytearray(frame_payload({"k": 123}))
        data[-1] ^= 0xFF
        with pytest.raises(WireError):
            unframe_payload(bytes(data))

    def test_foreign_bytes_rejected(self):
        with pytest.raises(WireError):
            unframe_payload(b'{"plain": "json"}')

    def test_aggregate_state_digest_matches_unframed_identity(self):
        state = {"n": 3, "total": "7/2"}
        assert aggregate_state_digest(state) == aggregate_state_digest(
            dict(reversed(list(state.items())))
        )
        assert aggregate_state_digest(state) != aggregate_state_digest(
            {"n": 4, "total": "7/2"}
        )


# -- network fault oracle -----------------------------------------------------


class TestNetworkFaultInjector:
    def test_decisions_are_pure_in_seed_and_key(self):
        spec = NetworkFaultSpec(
            drop_rate=0.2,
            drop_response_rate=0.2,
            delay_rate=0.2,
            duplicate_rate=0.2,
            truncate_rate=0.2,
        )
        a = NetworkFaultInjector(spec, seed=7)
        b = NetworkFaultInjector(spec, seed=7)
        keys = [(f"claim#{i}", attempt) for i in range(40) for attempt in (0, 1)]
        decisions = [a.decide(*k) for k in keys]
        assert decisions == [b.decide(*k) for k in keys]
        # Full-rate spec faults every request, and all kinds appear.
        assert None not in decisions
        assert {DROP, DROP_RESPONSE, DELAY, DUPLICATE, TRUNCATE} <= set(
            decisions
        )

    def test_different_seeds_differ(self):
        spec = NetworkFaultSpec(drop_rate=0.5)
        keys = [(f"upload#{i}", 0) for i in range(64)]
        a = [NetworkFaultInjector(spec, seed=1).decide(*k) for k in keys]
        b = [NetworkFaultInjector(spec, seed=2).decide(*k) for k in keys]
        assert a != b

    def test_plan_overrides_rates(self):
        spec = NetworkFaultSpec(
            drop_rate=1.0,
            plan={("claim#1", 0): None, ("claim#2", 1): TRUNCATE},
        )
        injector = NetworkFaultInjector(spec, seed=0)
        assert injector.decide("claim#1", 0) is None
        assert injector.decide("claim#2", 1) == TRUNCATE
        assert injector.decide("claim#3", 0) == DROP

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            NetworkFaultSpec(drop_rate=0.7, duplicate_rate=0.4)
        with pytest.raises(ValueError):
            NetworkFaultSpec(plan={("x#1", 0): "meteor"})

    def test_truncate_bytes_always_breaks_the_frame(self):
        injector = NetworkFaultInjector(NetworkFaultSpec(), seed=0)
        data = frame_payload({"k": "v"})
        cut = injector.truncate_bytes(data)
        assert len(cut) < len(data)
        with pytest.raises(WireError):
            unframe_payload(cut)


# -- lease table --------------------------------------------------------------


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLeaseTable:
    def table(self, **kw) -> tuple:
        clock = FakeClock()
        kw.setdefault("lease_seconds", 30.0)
        table = LeaseTable(clock=clock, **kw)
        table.add_campaign("c1", 3)
        return table, clock

    def test_claim_lease_complete_lifecycle(self):
        table, _ = self.table()
        lease = table.claim("w1", ("c1", 0))
        assert (lease.campaign_id, lease.shard_index) == ("c1", 0)
        assert lease.attempt == 1
        assert table.shard_state("c1", 0) == LEASED
        assert table.complete("c1", 0, "d0", worker="w1") == "accepted"
        assert table.shard_state("c1", 0) == DONE
        assert table.state_counts() == {
            PENDING: 2, LEASED: 0, DONE: 1, FAILED: 0,
        }

    def test_expiry_requeues_and_renewal_prevents_it(self):
        table, clock = self.table()
        kept = table.claim("w1", ("c1", 0))
        lost = table.claim("w2", ("c1", 1))
        clock.advance(20)
        assert table.renew(kept.lease_id, "w1") == clock.now + 30.0
        clock.advance(15)  # lost: 35s unrenewed; kept: 15s since renewal
        expired = table.expire()
        assert expired == [("c1", lost.shard_index)]
        assert table.shard_state("c1", lost.shard_index) == PENDING
        assert table.shard_state("c1", kept.shard_index) == LEASED
        assert obs.resilience_event_counts().get("lease_expired") == 1
        # The re-claim is attempt 2, and the stale lease id is dead.
        again = table.claim("w3", ("c1", 1))
        assert again.shard_index == lost.shard_index
        assert again.attempt == 2
        assert table.renew(lost.lease_id, "w2") is None

    def test_bounded_retries_park_shard_as_failed(self):
        table, clock = self.table(max_attempts=2)
        for _ in range(2):
            assert table.claim("w1", ("c1", 0)) is not None
            clock.advance(31)
            table.expire()
        assert table.shard_state("c1", 0) == FAILED
        assert table.claim("w1", ("c1", 0)) is None
        assert table.has_failed()
        assert obs.resilience_event_counts().get("lease_exhausted") == 1
        # A straggler's valid upload still heals the failed shard.
        assert table.complete("c1", 0, "dX") == "accepted"
        assert not table.has_failed()

    def test_duplicate_completion_is_idempotent(self):
        table, _ = self.table()
        table.claim("w1", ("c1", 0))
        assert table.complete("c1", 0, "same") == "accepted"
        assert table.complete("c1", 0, "same") == "duplicate"
        assert table.shard_digest("c1", 0) == "same"
        assert "lease_digest_mismatch" not in obs.resilience_event_counts()

    def test_conflicting_completion_is_a_mismatch(self):
        table, _ = self.table()
        table.claim("w1", ("c1", 0))
        assert table.complete("c1", 0, "first") == "accepted"
        assert table.complete("c1", 0, "second", worker="w2") == "mismatch"
        # The recorded digest is untouched by the loser.
        assert table.shard_digest("c1", 0) == "first"
        assert obs.resilience_event_counts()["lease_digest_mismatch"] == 1

    def test_late_completion_after_expiry_is_accepted(self):
        table, clock = self.table()
        lease = table.claim("w1", ("c1", 0))
        clock.advance(31)
        table.expire()
        assert table.complete(
            "c1", lease.shard_index, "late", worker="w1"
        ) == "accepted"

    def test_unknown_shard(self):
        table, _ = self.table()
        assert table.complete("nope", 0, "d") == "unknown"

    def test_pre_completed_registration(self):
        table, _ = self.table()
        table.add_campaign("c2", 2, done=[(0, "d0")])
        assert table.shard_state("c2", 0) == DONE
        assert table.pending_keys() == [
            ("c1", 0), ("c1", 1), ("c1", 2), ("c2", 1),
        ]

    def test_heartbeats_track_every_verb(self):
        table, clock = self.table()
        lease = table.claim("w1", ("c1", 0))
        t_claim = clock.now
        clock.advance(5)
        table.renew(lease.lease_id, "w2")
        clock.advance(5)
        table.complete("c1", 0, "d", worker="w3")
        beats = table.worker_heartbeats()
        assert beats["w1"] == t_claim
        assert beats["w2"] == t_claim + 5
        assert beats["w3"] == t_claim + 10

    def test_publish_lease_metrics_renders_gauges(self):
        table, _ = self.table()
        table.claim("w1", ("c1", 0))
        table.complete("c1", 0, "d", worker="w1")
        with obs.tracing(collect_metrics=True) as tracer:
            publish_lease_metrics(table)
            text = tracer.metrics.render_text()
        assert 'repro_service_leases{state="pending"} 2' in text
        assert 'repro_service_leases{state="done"} 1' in text
        assert "repro_service_queue_depth 2" in text
        assert 'repro_service_worker_last_heartbeat{worker="w1"}' in text

    def test_validation(self):
        with pytest.raises(ValueError):
            LeaseTable(lease_seconds=0)
        with pytest.raises(ValueError):
            LeaseTable(max_attempts=0)


# -- coordinator + worker end to end ------------------------------------------


def quiet(*args) -> None:
    pass


@pytest.fixture()
def coordinator(tmp_path):
    coord = Coordinator(tmp_path, lease_seconds=10.0, log=quiet)
    with CoordinatorServer(coord) as server:
        yield coord, server


def result_digest(root: Path, spec: CampaignSpec) -> str:
    path = Path(root) / "results" / f"{spec.campaign_id()}.json"
    return json.loads(path.read_text())["digest"]


class TestDistributedCampaign:
    def test_single_worker_matches_single_host_digest(
        self, coordinator, tmp_path
    ):
        coord, server = coordinator
        spec = small_spec()
        reference = run_campaign(spec).digest()
        TransportClient(server.url).call("submit", {"spec": spec.to_dict()})
        assert run_worker(server.url, once=True, log=quiet) == 0
        assert result_digest(tmp_path, spec) == reference
        # The result came through checkpoints + store too: a fresh
        # coordinator over the same root completes it at submit time.
        coord2 = Coordinator(tmp_path, log=quiet)
        assert coord2.submit(spec) == spec.campaign_id()
        assert coord2.drained()

    def test_accepted_upload_publishes_to_disk_only(
        self, coordinator, tmp_path
    ):
        """The coordinator keeps accepted aggregates in its campaign
        state; the store holds them on disk only, and a same-process
        service over that store is served every shard from disk."""
        coord, server = coordinator
        spec = small_spec()
        TransportClient(server.url).call("submit", {"spec": spec.to_dict()})
        assert run_worker(server.url, once=True, log=quiet) == 0
        store = coord.store
        assert not [k for k in store._memory if k.startswith("shard_result")]
        ran = []
        service = CampaignService(workers=1, store=store, pre_trial=ran.append)
        state = service.campaign(service.submit(spec))
        assert ran == []
        assert state.cached_shards == spec.shards == len(state.shards)
        assert state.aggregate().digest() == result_digest(tmp_path, spec)
        assert store.stats_dict()["disk_hits"] == spec.shards
        assert store.stats_dict()["memory_hits"] == 0

    @pytest.mark.parametrize("first", ["service", "coordinator"])
    def test_checkpoint_resumes_across_schedulers(self, tmp_path, first):
        """A campaign checkpointed by one scheduler resumes under the
        other over the same root.  The service runs without a store, so
        the checkpoint, not the store, carries the finished shards."""
        from repro.service.campaign import run_shard

        spec = small_spec(n_blocks=8, shards=4, seed=5)
        checkpoints = service_dirs(tmp_path)["checkpoints"]

        def lease_out(coord: Coordinator):
            """Claim, run and upload one shard; its index (or None)."""
            work = coord.claim("w")["work"]
            if work is None:
                return None
            agg_state = run_shard(spec, work["lo"], work["hi"]).to_state()
            reply = coord.upload(
                {
                    "campaign": work["campaign"],
                    "shard": work["shard"],
                    "worker": "w",
                    "state": agg_state,
                    "digest": aggregate_state_digest(agg_state),
                }
            )
            assert reply["status"] == "accepted"
            return work["shard"]

        if first == "service":
            service = CampaignService(
                workers=1, store=None, checkpoint_dir=checkpoints
            )
            cid = service.submit(spec)
            assert service.run_wave() == service.run_wave() == 1
            finished = set(service.campaign(cid).done)
            coord = Coordinator(tmp_path, log=quiet)
            coord.submit(spec)
            state = coord.book.campaigns[cid]
            resumed = state.resumed_shards
            ran = []
            while not coord.drained():
                ran.append(lease_out(coord))
            digest = result_digest(tmp_path, spec)
        else:
            coord = Coordinator(tmp_path, log=quiet)
            cid = coord.submit(spec)
            finished = {lease_out(coord), lease_out(coord)}
            trials = []
            service = CampaignService(
                workers=1,
                store=None,
                checkpoint_dir=checkpoints,
                pre_trial=trials.append,
            )
            state = service.campaign(service.submit(spec))
            resumed = state.resumed_shards
            digest = service.run_until_complete()[cid]["digest"]
            ran = [
                i
                for i, (lo, hi) in enumerate(state.shards)
                if any(lo <= t < hi for t in trials)
            ]
        assert resumed == len(finished) == 2
        assert state.cached_shards == 0
        assert sorted(ran) == sorted(set(range(4)) - finished)
        assert digest == run_campaign(spec).digest()

    def test_two_workers_fault_storm_matches_reference(
        self, tmp_path
    ):
        spec = small_spec(n_blocks=8, shards=4, seed=9)
        reference = run_campaign(spec).digest()
        coord = Coordinator(tmp_path, lease_seconds=3.0, log=quiet)
        storm = NetworkFaultSpec(
            drop_rate=0.12,
            drop_response_rate=0.12,
            delay_rate=0.10,
            duplicate_rate=0.12,
            truncate_rate=0.12,
            delay_seconds=0.01,
        )
        with CoordinatorServer(coord) as server:
            TransportClient(server.url).call(
                "submit", {"spec": spec.to_dict()}
            )
            codes = {}

            def worker(n: int) -> None:
                codes[n] = run_worker(
                    server.url,
                    worker_id=f"w{n}",
                    once=True,
                    poll_seconds=0.05,
                    retries=8,
                    fault_injector=NetworkFaultInjector(storm, seed=n),
                    log=quiet,
                )

            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert codes == {0: 0, 1: 0}
        assert result_digest(tmp_path, spec) == reference
        # The storm actually bit: retries and wire rejections happened.
        events = obs.resilience_event_counts()
        assert events.get("transport_retry", 0) > 0
        assert events.get("wire_reject", 0) > 0

    def test_abandoned_lease_requeues_to_another_worker(self, tmp_path):
        spec = small_spec()
        reference = run_campaign(spec).digest()
        coord = Coordinator(tmp_path, lease_seconds=0.2, log=quiet)
        with CoordinatorServer(coord) as server:
            client = TransportClient(server.url)
            client.call("submit", {"spec": spec.to_dict()})
            # A "worker" that claims a shard and silently dies.
            claimed = client.call("claim", {"worker": "zombie"})
            assert claimed["work"] is not None
            time.sleep(0.25)
            assert run_worker(
                server.url, worker_id="live", once=True,
                poll_seconds=0.05, log=quiet,
            ) == 0
        assert result_digest(tmp_path, spec) == reference
        assert obs.resilience_event_counts().get("lease_expired", 0) >= 1

    def test_duplicate_upload_is_idempotent_over_the_wire(
        self, coordinator, tmp_path
    ):
        coord, server = coordinator
        spec = small_spec(shards=1)
        client = TransportClient(server.url)
        client.call("submit", {"spec": spec.to_dict()})
        work = client.call("claim", {"worker": "w"})["work"]
        from repro.service.campaign import run_shard

        agg = run_shard(spec, work["lo"], work["hi"])
        state = agg.to_state()
        upload = {
            "campaign": work["campaign"],
            "shard": work["shard"],
            "lease_id": work["lease_id"],
            "worker": "w",
            "state": state,
            "digest": aggregate_state_digest(state),
        }
        assert client.call("upload", upload)["status"] == "accepted"
        assert client.call("upload", upload)["status"] == "duplicate"
        assert result_digest(tmp_path, spec) == run_campaign(spec).digest()

    def test_divergent_upload_is_quarantined(self, coordinator, tmp_path):
        coord, server = coordinator
        spec = small_spec(shards=1)
        client = TransportClient(server.url)
        client.call("submit", {"spec": spec.to_dict()})
        work = client.call("claim", {"worker": "good"})["work"]
        from repro.service.campaign import run_shard

        agg = run_shard(spec, work["lo"], work["hi"])
        state = agg.to_state()
        good = {
            "campaign": work["campaign"],
            "shard": work["shard"],
            "lease_id": work["lease_id"],
            "worker": "good",
            "state": state,
            "digest": aggregate_state_digest(state),
        }
        assert client.call("upload", good)["status"] == "accepted"
        # A broken worker recomputed the shard to a different answer.
        evil_state = json.loads(json.dumps(state))
        evil_state["n_trials"] = 9999
        evil = dict(
            good,
            worker="evil",
            state=evil_state,
            digest=aggregate_state_digest(evil_state),
        )
        assert client.call("upload", evil)["status"] == "quarantined"
        qdir = Path(tmp_path) / "quarantine"
        assert list(qdir.glob("*.json")), "quarantine file missing"
        assert obs.resilience_event_counts()["lease_digest_mismatch"] == 1
        # The merge kept the first answer.
        assert result_digest(tmp_path, spec) == run_campaign(spec).digest()

    def test_upload_with_lying_digest_is_quarantined(
        self, coordinator, tmp_path
    ):
        coord, server = coordinator
        spec = small_spec(shards=1)
        client = TransportClient(server.url)
        client.call("submit", {"spec": spec.to_dict()})
        work = client.call("claim", {"worker": "w"})["work"]
        reply = client.call(
            "upload",
            {
                "campaign": work["campaign"],
                "shard": work["shard"],
                "lease_id": work["lease_id"],
                "worker": "w",
                "state": {"fake": 1},
                "digest": "0" * 64,
            },
        )
        assert reply["status"] == "quarantined"
        assert (
            obs.resilience_event_counts()["upload_digest_invalid"] == 1
        )

    def test_worker_quarantine_raises_terminal_error(self, tmp_path):
        # While the worker is mid-shard (trial_delay stretches it), an
        # impostor completes the same shard with a *valid but
        # different* aggregate (a partial trial range).  The worker's
        # honest upload then contradicts the recorded digest — the
        # coordinator quarantines it and the worker must surface the
        # terminal error (CLI exit 4), not swallow it.
        from repro.service.campaign import run_shard

        spec = small_spec(shards=1)
        coord = Coordinator(tmp_path, log=quiet)
        with CoordinatorServer(coord) as server:
            client = TransportClient(server.url)
            cid = client.call("submit", {"spec": spec.to_dict()})[
                "campaign"
            ]

            def impostor() -> None:
                partial = run_shard(spec, 0, 1).to_state()
                coord.upload(
                    {
                        "campaign": cid,
                        "shard": 0,
                        "worker": "impostor",
                        "state": partial,
                        "digest": aggregate_state_digest(partial),
                    }
                )

            timer = threading.Timer(0.4, impostor)
            timer.start()
            try:
                with pytest.raises(LeaseQuarantinedError):
                    run_worker(
                        server.url, once=True, trial_delay=0.15,
                        log=quiet,
                    )
            finally:
                timer.cancel()
        assert obs.resilience_event_counts()["lease_digest_mismatch"] == 1

    def test_unknown_campaign_upload(self, coordinator):
        coord, server = coordinator
        reply = TransportClient(server.url).call(
            "upload",
            {"campaign": "ghost", "shard": 0, "state": {}, "digest": ""},
        )
        assert reply["status"] == "unknown"

    def test_tenant_fair_share_alternates_claims(self, coordinator):
        coord, server = coordinator
        client = TransportClient(server.url)
        # Distinct seeds: campaign ids are content-addressed (tenant
        # excluded), so identical science would collapse to one id.
        for seed, tenant in ((1, "alice"), (2, "bob")):
            client.call(
                "submit",
                {"spec": small_spec(tenant=tenant, seed=seed).to_dict()},
            )
        tenants = []
        for _ in range(4):
            work = client.call("claim", {"worker": "w"})["work"]
            tenants.append(
                CampaignSpec.from_dict(work["spec"]).tenant
            )
        # Least-dispatched-first alternates: neither tenant gets two
        # claims before the other has one.
        assert sorted(tenants[:2]) == ["alice", "bob"]
        assert sorted(tenants[2:]) == ["alice", "bob"]

    def test_status_and_metrics_served_on_one_port(self, coordinator):
        coord, server = coordinator
        spec = small_spec()
        with obs.tracing(collect_metrics=True):
            TransportClient(server.url).call(
                "submit", {"spec": spec.to_dict()}
            )
            TransportClient(server.url).call("claim", {"worker": "w1"})
            status = unframe_payload(
                urllib.request.urlopen(f"{server.url}/status").read()
            )
            assert status["leases"][LEASED] == 1
            assert status["campaigns"][spec.campaign_id()]["shards"] == 3
            metrics = (
                urllib.request.urlopen(f"{server.url}/metrics")
                .read()
                .decode()
            )
        assert 'repro_service_leases{state="leased"} 1' in metrics
        assert "repro_service_queue_depth 2" in metrics
        assert 'repro_service_worker_last_heartbeat{worker="w1"}' in metrics

    def test_torn_request_gets_400_and_client_retries_past_it(
        self, coordinator
    ):
        coord, server = coordinator
        spec = small_spec()
        # Truncate the first submit attempt; the retry goes through.
        injector = NetworkFaultInjector(
            NetworkFaultSpec(plan={("submit#1", 0): TRUNCATE}), seed=0
        )
        client = TransportClient(server.url, fault_injector=injector)
        reply = client.call("submit", {"spec": spec.to_dict()})
        assert reply["campaign"] == spec.campaign_id()
        events = obs.resilience_event_counts()
        assert events.get("wire_reject", 0) == 1
        assert events.get("transport_retry", 0) == 1

    def test_unreachable_coordinator_exhausts_to_error(self):
        client = TransportClient(
            "http://127.0.0.1:9", retries=1, timeout=0.2
        )
        with pytest.raises(CoordinatorUnreachable):
            client.call("claim", {"worker": "w"})

    def test_worker_degrades_to_local_spool(self, tmp_path):
        spec = small_spec()
        reference = run_campaign(spec).digest()
        submit_job(tmp_path, spec)
        code = run_worker(
            "http://127.0.0.1:9",
            root=tmp_path,
            retries=0,
            once=True,
            log=quiet,
        )
        assert code == 0
        assert result_digest(tmp_path, spec) == reference
        assert (
            obs.resilience_event_counts()["worker_degrade_local"] == 1
        )


# -- spool hardening ----------------------------------------------------------


class TestSpoolQuarantine:
    def test_malformed_job_quarantined_not_fatal(self, tmp_path):
        spec = small_spec()
        submit_job(tmp_path, spec)
        dirs = service_dirs(tmp_path)
        bad = dirs["jobs"] / "torn.json"
        bad.write_text('{"name": "half a spec')
        warnings = []
        specs = pending_jobs(tmp_path, log=warnings.append)
        assert specs == [spec]
        assert not bad.exists()
        assert (dirs["jobs"] / "torn.json.corrupt").exists()
        assert any("torn.json" in w for w in warnings)
        assert obs.resilience_event_counts()["spool_corrupt"] == 1
        # Quarantined files leave the glob: the next poll is clean.
        assert pending_jobs(tmp_path, log=warnings.append) == [spec]
        assert obs.resilience_event_counts()["spool_corrupt"] == 1


# -- the CLI surface ----------------------------------------------------------


class TestWorkerCli:
    def test_worker_verb_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "worker",
                "--connect", "http://127.0.0.1:1",
                "--once",
                "--retries", "0",
                "--worker-id", "w0",
            ]
        )
        assert args.command == "worker"
        assert args.connect == "http://127.0.0.1:1"
        assert args.retries == 0

    def test_serve_port_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--root", "r", "--port", "0", "--lease-seconds", "5"]
        )
        assert args.port == 0
        assert args.lease_seconds == 5.0

    def test_serve_port_runs_the_coordinator(self, monkeypatch, tmp_path):
        from repro.cli import main
        from repro.service import coordinator as coordinator_module

        calls = []

        def fake_run_coordinator(root, **kwargs):
            calls.append((root, kwargs))
            return 0

        monkeypatch.setattr(
            coordinator_module, "run_coordinator", fake_run_coordinator
        )
        root = str(tmp_path)
        code = main(
            [
                "serve", "--root", root, "--once",
                "--port", "0", "--lease-seconds", "5",
            ]
        )
        assert code == 0
        assert len(calls) == 1
        assert calls[0][0] == root
        assert calls[0][1]["port"] == 0
        assert calls[0][1]["lease_seconds"] == 5.0
        assert calls[0][1]["once"] is True

    def test_unreachable_maps_to_exit_5(self):
        from repro.cli import EXIT_RETRY_EXHAUSTED, main

        code = main(
            [
                "worker",
                "--connect", "http://127.0.0.1:9",
                "--retries", "0",
            ]
        )
        assert code == EXIT_RETRY_EXHAUSTED


# -- full-stack chaos: subprocess coordinator + workers, one SIGKILLed --------


def _read_coordinator_url(root: Path, timeout: float = 20.0) -> str:
    deadline = time.time() + timeout
    path = root / "coordinator.json"
    while time.time() < deadline:
        if path.exists():
            try:
                return json.loads(path.read_text())["url"]
            except (ValueError, KeyError):
                pass
        time.sleep(0.05)
    raise AssertionError("coordinator.json never appeared")


@pytest.mark.slow
class TestDistributedSigkill:
    def test_worker_sigkill_resumes_bit_identical(self, tmp_path):
        spec = small_spec(n_blocks=8, shards=4, seed=13)
        reference = run_campaign(spec).digest()
        submit_job(tmp_path, spec)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", str(tmp_path), "--once",
                "--port", "0", "--lease-seconds", "2",
                "--poll", "0.1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            url = _read_coordinator_url(Path(tmp_path))

            def spawn_worker() -> subprocess.Popen:
                return subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--connect", url, "--once",
                        "--poll", "0.1", "--trial-delay", "0.2",
                    ],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                )

            victim = spawn_worker()
            survivor = spawn_worker()
            # Let the victim claim and get mid-shard, then kill it the
            # hard way: no cleanup, lease left dangling.
            time.sleep(1.2)
            victim.kill()
            victim.wait(timeout=30)
            assert survivor.wait(timeout=240) == 0
            assert coordinator.wait(timeout=60) == 0
        finally:
            for proc in (coordinator,):
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=30)
        assert result_digest(tmp_path, spec) == reference
