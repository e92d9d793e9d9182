"""Observability layer: tracing, metrics, manifests, exporters.

The load-bearing property is the last class: a fully-traced run must be
bit-identical to an untraced run — the tracer only reads state, so
enabling it can never change what the simulator computes.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.calibration import (
    assess_block,
    assess_block_batch,
    draw_trial_plan,
    find_block,
)
from repro.core.covert import CovertChannel
from repro.core.patterns import DecodedState
from repro.core.pht_map import scan_states
from repro.core.randomizer import RandomizationBlock
from repro.bpu import haswell, skylake
from repro.cpu import PhysicalCore, Process
from repro.mitigations import NoisyPerformanceCounters
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.system.noise import NoiseModel
from tests.conftest import SMALL_BLOCK


@pytest.fixture(autouse=True)
def _clean_tracer():
    """No test may leak an enabled tracer or fallback counts."""
    obs.disable_tracing()
    obs.reset_scalar_fallbacks()
    yield
    obs.disable_tracing()
    obs.reset_scalar_fallbacks()


class TestTracer:
    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(capacity=10)
        for i in range(25):
            tracer.emit("branch", "execute", i=i)
        assert len(tracer) == 10
        assert tracer.emitted == 25
        assert tracer.dropped == 15
        # Oldest events fell off; the newest survive in order.
        assert [e.args["i"] for e in tracer.events()] == list(range(15, 25))

    def test_category_filtering(self):
        tracer = Tracer(categories={"branch", "pool"})
        tracer.emit("branch", "execute")
        tracer.emit("covert", "bit")
        tracer.emit("pool", "dispatch")
        assert tracer.emitted == 2
        assert [e.category for e in tracer.events()] == ["branch", "pool"]
        assert tracer.wants("branch") and not tracer.wants("covert")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(categories={"branch", "typo"})

    def test_enable_disable_roundtrip(self):
        assert obs.get_tracer() is None
        tracer = obs.enable_tracing(capacity=16)
        assert obs.get_tracer() is tracer
        assert obs.disable_tracing() is tracer
        assert obs.get_tracer() is None

    def test_tracing_context_restores_previous(self):
        outer = obs.enable_tracing()
        with obs.tracing() as inner:
            assert obs.get_tracer() is inner
        assert obs.get_tracer() is outer

    def test_events_carry_sequence_and_level(self):
        tracer = Tracer()
        tracer.emit("fallback", "scalar_engine", level="warning", engine="x")
        (event,) = tracer.events()
        assert event.seq == 0
        assert event.level == "warning"
        assert event.to_dict()["cat"] == "fallback"


class TestMetrics:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "h", labels=("engine",))
        counter.inc(engine="batch")
        counter.inc(3, engine="scalar")
        assert counter.value(engine="batch") == 1
        assert counter.value(engine="scalar") == 3

    def test_label_hygiene_enforced(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", labels=("engine",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()  # missing the declared label
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(engine="x", extra="y")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("hits", labels=("other",))
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("hits", labels=("engine",))
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("n")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_records_exact_under_threads(self):
        """Record calls are read-modify-writes; 8 threads x 10k records
        (each re-fetching its family, as hot paths do) lose none."""
        registry = MetricsRegistry()

        def record_many():
            for _ in range(10_000):
                registry.counter("n", labels=("k",)).inc(k="a")
                registry.gauge("g").add(1)
                registry.histogram("h").observe(0.5)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often enough to race
        try:
            threads = [threading.Thread(target=record_many) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.counter("n", labels=("k",)).value(k="a") == 80_000
        assert registry.gauge("g").value() == 80_000
        (series,) = registry.histogram("h").series().values()
        assert series["count"] == 80_000

    def test_histogram_buckets_and_stats(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        (series,) = hist.series().values()
        assert series["counts"] == [1, 1, 1]  # <=1, <=10, +Inf
        assert series["count"] == 3
        assert series["min"] == 0.5 and series["max"] == 50.0

    def test_snapshot_diff(self):
        registry = MetricsRegistry()
        counter = registry.counter("n", labels=("k",))
        counter.inc(2, k="a")
        before = registry.snapshot()
        counter.inc(5, k="a")
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert delta["n"]["series"]['{k="a"}'] == 5

    def test_render_text_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("n", "things", labels=("k",)).inc(k="a")
        registry.histogram("lat").observe(0.5)
        text = registry.render_text()
        assert "# TYPE n counter" in text
        assert 'n{k="a"} 1' in text
        assert "lat_count 1" in text

    def test_render_text_parses_as_exposition_format(self):
        """Round-trip through a strict line parser of the text format.

        Checks the two properties real scrapers reject on: the payload
        ends in a newline, and every histogram exposes a cumulative
        ``_bucket`` series whose ``le="+Inf"`` sample equals ``_count``.
        """
        registry = MetricsRegistry()
        registry.counter("n", "things", labels=("k",)).inc(k="a")
        hist = registry.histogram(
            "lat", labels=("engine",), buckets=(1.0, 10.0)
        )
        for value in (0.5, 5.0, 50.0):
            hist.observe(value, engine="batch")
        text = registry.render_text()
        assert text.endswith("\n")

        sample_re = re.compile(
            r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
            r'(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*)\})?'
            r' (?P<value>\+Inf|-?[0-9.eE+-]+)$'
        )
        samples = {}
        for line in text[:-1].split("\n"):
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:]", line)
                continue
            match = sample_re.match(line)
            assert match, f"unparseable sample line: {line!r}"
            labels = dict(
                pair.split("=", 1)
                for pair in (match.group("labels") or "").split(",")
                if pair
            )
            samples[(match.group("name"), tuple(sorted(labels.items())))] = (
                float(match.group("value"))
            )

        # Cumulative buckets, +Inf present and equal to _count.
        base = (("engine", '"batch"'),)
        bucket = lambda le: samples[
            ("lat_bucket", tuple(sorted(base + (("le", f'"{le}"'),))))
        ]
        assert bucket("1") == 1.0
        assert bucket("10") == 2.0
        assert bucket("+Inf") == 3.0
        assert bucket("+Inf") == samples[("lat_count", base)]
        assert samples[("lat_sum", base)] == pytest.approx(55.5)


class TestExporters:
    def _traced_events(self):
        tracer = Tracer()
        tracer.emit("branch", "execute", cycle=10, pid=1, dur=17, taken=True)
        tracer.emit("pool", "dispatch", workers=2)
        tracer.emit("fallback", "scalar_engine", level="warning", engine="e")
        return tracer

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._traced_events()
        path = obs.write_jsonl(tracer, tmp_path / "t.jsonl", meta={"run": "x"})
        meta, events = obs.read_jsonl(path)
        assert meta["events"] == 3 and meta["run"] == "x"
        assert [e["name"] for e in events] == [
            "execute", "dispatch", "scalar_engine",
        ]
        assert events[0]["args"]["dur"] == 17

    def test_chrome_trace_is_valid_json(self, tmp_path):
        tracer = self._traced_events()
        path = obs.write_chrome_trace(tracer.events(), tmp_path / "t.json")
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        records = document["traceEvents"]
        assert records[0]["ph"] == "M"  # process-name metadata
        complete = next(r for r in records if r["name"] == "branch.execute")
        assert complete["ph"] == "X" and complete["dur"] == 17
        assert complete["ts"] == 10
        instant = next(r for r in records if r["name"] == "pool.dispatch")
        assert instant["ph"] == "i"
        # Timestampless events inherit the previous timestamp.
        assert instant["ts"] == 10

    def test_summary_counts_and_warnings(self):
        tracer = self._traced_events()
        text = obs.summarize([e.to_dict() for e in tracer.events()])
        assert "events retained : 3" in text
        assert "warnings        : 1" in text
        assert "fallback.scalar_engine" in text


class TestManifest:
    def test_capture_records_env_and_digest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        manifest = obs.RunManifest.capture("fig4", preset="skylake", seed=7)
        manifest.add_result("fig4.txt", "hello\n")
        assert manifest.env == {"REPRO_BENCH_SCALE": "2.5"}
        assert manifest.results["fig4.txt"] == obs.sha256_text("hello\n")
        path = manifest.write(tmp_path / "fig4.manifest.json")
        loaded = obs.RunManifest.load(path)
        assert loaded == manifest

    def test_git_revision_shape(self):
        revision = obs.git_revision()
        if revision is not None:  # repo may be absent in some environments
            assert set(revision) == {"sha", "dirty"}
            assert len(revision["sha"]) == 40


class TestScalarFallbackSurfacing:
    def test_scan_states_reports_engine_and_fallback(self, haswell_core, spy):
        compiled = RandomizationBlock.generate(
            3, n_branches=SMALL_BLOCK
        ).compile(haswell_core, spy)
        addresses = list(range(0x300000, 0x300010))
        clean = scan_states(haswell_core, spy, addresses, compiled)
        assert clean.engine == "batch" and clean.scalar_fallbacks == 0

        haswell_core.install_mitigation(NoisyPerformanceCounters())
        with obs.tracing(collect_metrics=True) as tracer:
            noisy = scan_states(haswell_core, spy, addresses, compiled)
        assert noisy.engine == "reference"
        assert noisy.scalar_fallbacks == 1
        assert obs.scalar_fallback_counts() == {"batch_probe": 1}
        warning = [e for e in tracer.events() if e.level == "warning"]
        assert warning and warning[0].args["engine"] == "batch_probe"
        assert (
            tracer.metrics.counter(
                "repro_scalar_fallbacks_total", labels=("engine",)
            ).value(engine="batch_probe")
            == 1
        )
        # The scan result is still a plain list to every existing caller.
        assert isinstance(noisy, list)
        assert noisy == list(noisy)
        assert len(noisy) == len(addresses)

    def test_assess_block_batch_fallback_counted(self, haswell_core, spy):
        compiled = RandomizationBlock.generate(
            3, n_branches=SMALL_BLOCK
        ).compile(haswell_core, spy)
        haswell_core.install_mitigation(NoisyPerformanceCounters())
        plan = draw_trial_plan(
            np.random.default_rng(0), haswell_core, repetitions=3
        )
        assess_block_batch(haswell_core, spy, compiled, 0x300000, plan=plan)
        assert obs.scalar_fallback_counts() == {"calibration_batch": 1}

    def test_find_block_default_return_unchanged(self, haswell_core, spy):
        block = find_block(
            haswell_core,
            spy,
            0x300000,
            DecodedState.SN,
            block_branches=SMALL_BLOCK,
            repetitions=6,
        )
        assert not isinstance(block, tuple)

    def test_find_block_search_done_counts_candidates(
        self, haswell_core, spy
    ):
        with obs.tracing() as tracer:
            block = find_block(
                haswell_core,
                spy,
                0x300000,
                DecodedState.SN,
                block_branches=SMALL_BLOCK,
                repetitions=6,
                seed_start=3,
            )
        done = [e for e in tracer.events() if e.name == "search_done"]
        assert len(done) == 1
        assert done[0].args["seed"] == block.block.seed
        assert done[0].args["candidates"] == block.block.seed - 3 + 1


class TestDisabledTracerCost:
    """With tracing off, the hot paths make no call into ``repro.obs``:
    the guard is one ``obs.TRACER is not None`` test, never a function
    call.  Counted per call with ``sys.setprofile``, so the bound is
    exact rather than a timing."""

    OBS_DIR = os.path.join(os.path.dirname(obs.__file__), "")

    def _obs_calls(self, run, traced: bool) -> int:
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(
                self.OBS_DIR
            ):
                calls += 1

        previous = sys.getprofile()
        with obs.tracing() if traced else contextlib.nullcontext():
            sys.setprofile(profile)
            try:
                run()
            finally:
                sys.setprofile(previous)
        return calls

    def _assert_untraced_free(self, make_run) -> None:
        assert self._obs_calls(make_run(), traced=False) == 0
        # The hook does see obs calls: a traced run makes some.
        assert self._obs_calls(make_run(), traced=True) > 0

    @pytest.mark.parametrize("repetitions", [50, 500])
    def test_plan_mode_calibration_trial(self, repetitions):
        def make_run():
            core = PhysicalCore(skylake(), seed=11)
            spy = Process("spy")
            compiled = RandomizationBlock.generate(
                7, n_branches=20_000
            ).compile(core, spy)

            def run():
                plan = draw_trial_plan(
                    np.random.default_rng(13),
                    core,
                    repetitions=repetitions,
                    noise=NoiseModel.isolated(),
                )
                assess_block_batch(core, spy, compiled, 0x7F0000001234,
                                   plan=plan)

            return run

        self._assert_untraced_free(make_run)

    @pytest.mark.parametrize("n_addresses", [512, 4096])
    def test_batch_pht_scan(self, n_addresses):
        def make_run():
            core = PhysicalCore(haswell(), seed=1)
            spy = Process("spy")
            compiled = RandomizationBlock.generate(
                7, n_branches=20_000
            ).compile(core, spy)
            addresses = list(range(0x300000, 0x300000 + n_addresses))

            def run():
                assert scan_states(
                    core, spy, addresses, compiled
                ).engine == "batch"

            return run

        self._assert_untraced_free(make_run)


def _channel(core: PhysicalCore) -> CovertChannel:
    from repro.core.covert import CovertConfig

    # Fixed pids so the traced and untraced runs build identical cores
    # (the per-process counter files key on pid).
    return CovertChannel.for_processes(
        core,
        Process("trojan", pid=901),
        Process("spy", pid=902),
        config=CovertConfig(block_branches=SMALL_BLOCK),
    )


class TestTracedRunsAreBitIdentical:
    """Tracing only observes: traced == untraced, state and all."""

    def test_assess_block_identical(self, small_config, spy):
        """Across all three presets (the ``small_config`` matrix)."""
        plain_core = PhysicalCore(small_config, seed=7)
        traced_core = PhysicalCore(small_config, seed=7)
        compiled_plain = RandomizationBlock.generate(
            5, n_branches=SMALL_BLOCK
        ).compile(plain_core, spy)
        compiled_traced = RandomizationBlock.generate(
            5, n_branches=SMALL_BLOCK
        ).compile(traced_core, spy)

        plain = assess_block(
            plain_core, spy, compiled_plain, 0x300000,
            plan=draw_trial_plan(plain_core.rng, plain_core, repetitions=8),
        )
        with obs.tracing(collect_metrics=True) as tracer:
            traced = assess_block(
                traced_core, spy, compiled_traced, 0x300000,
                plan=draw_trial_plan(
                    traced_core.rng, traced_core, repetitions=8
                ),
            )
        assert tracer.emitted > 0
        assert traced == plain
        assert (
            traced_core.rng.bit_generator.state
            == plain_core.rng.bit_generator.state
        )
        _assert_same_core_state(plain_core, traced_core)

    def test_covert_transmit_identical(self, haswell_core):
        plain_core = haswell_core
        traced_core = PhysicalCore(plain_core.config, seed=7)
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        plain = _channel(plain_core).transmit(bits)
        with obs.tracing() as tracer:
            traced = _channel(traced_core).transmit(bits)
        assert traced == plain
        assert (
            traced_core.rng.bit_generator.state
            == plain_core.rng.bit_generator.state
        )
        _assert_same_core_state(plain_core, traced_core)
        covert = [e for e in tracer.events() if e.category == "covert"]
        assert len(covert) == len(bits) + 1

    def test_covert_trace_exports_to_chrome(self, haswell_core, tmp_path):
        with obs.tracing() as tracer:
            _channel(haswell_core).transmit([1, 0, 1])
        path = obs.write_chrome_trace(tracer.events(), tmp_path / "c.json")
        document = json.loads(path.read_text())
        names = {r["name"] for r in document["traceEvents"]}
        assert "covert.transmit" in names and "branch.execute" in names


def _assert_same_core_state(a: PhysicalCore, b: PhysicalCore) -> None:
    snap_a = a.checkpoint()
    snap_b = b.checkpoint()
    assert a.clock.now == b.clock.now
    _assert_same_tree(snap_a, snap_b)


def _assert_same_tree(a, b) -> None:
    assert type(a) is type(b) or (
        isinstance(a, (tuple, list)) and isinstance(b, (tuple, list))
    )
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same_tree(a[key], b[key])
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_tree(x, y)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b
