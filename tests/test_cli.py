"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_preset_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["covert", "--preset", "zen4"])

    def test_defaults(self):
        args = build_parser().parse_args(["covert"])
        assert args.preset == "skylake"
        assert args.setting == "isolated"
        assert args.bits == 500
        assert args.trace is None
        assert args.metrics is False

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_summary_takes_a_file(self):
        args = build_parser().parse_args(["trace", "summary", "run.jsonl"])
        assert args.trace_command == "summary"
        assert args.trace_file == "run.jsonl"

    def test_serve_port_defaults_to_spool_only(self):
        args = build_parser().parse_args(["serve", "--root", "svc"])
        assert args.port is None
        assert args.lease_seconds == 30.0

    def test_serve_accepts_coordinator_flags(self):
        args = build_parser().parse_args(
            ["serve", "--root", "svc", "--port", "0", "--lease-seconds", "5"]
        )
        assert args.port == 0
        assert args.lease_seconds == 5.0

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_worker_defaults(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "http://127.0.0.1:8763"]
        )
        assert args.connect == "http://127.0.0.1:8763"
        assert not hasattr(args, "root")  # no local-spool fallback
        assert args.once is False
        assert args.retries == 5
        assert args.worker_id is None


class TestCommands:
    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "skylake" in out and "sandy_bridge" in out
        assert "16384" in out

    def test_covert_silent(self, capsys):
        assert (
            main(
                [
                    "covert",
                    "--bits", "60",
                    "--setting", "silent",
                    "--preset", "sandy_bridge",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "error rate 0.00%" in out

    def test_attack(self, capsys):
        assert (
            main(
                [
                    "attack",
                    "--bits", "24",
                    "--setting", "silent",
                    "--preset", "haswell",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "24/24 bits correct" in out

    def test_fsm_table_skylake_footnote(self, capsys):
        assert main(["fsm-table", "--preset", "skylake"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(
            l for l in lines if l.startswith("TTT") and " N " in l and "NN" in l
        )
        assert row.rstrip().endswith("MM")  # footnote 1

    def test_fsm_table_haswell_textbook(self, capsys):
        assert main(["fsm-table", "--preset", "haswell"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(
            l for l in lines if l.startswith("TTT") and " N " in l and "NN" in l
        )
        assert row.rstrip().endswith("MH")

    def test_poison(self, capsys):
        assert main(["poison", "--rounds", "40"]) == 0
        out = capsys.readouterr().out
        assert "poisoned" in out


class TestObservabilityFlags:
    COVERT = [
        "covert",
        "--bits", "20",
        "--setting", "silent",
        "--preset", "sandy_bridge",
    ]

    def test_covert_traced_run_writes_trace_and_manifest(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main(self.COVERT + ["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "error rate 0.00%" in out  # result unchanged by tracing
        assert trace.exists()
        manifest = json.loads(
            (tmp_path / "run.manifest.json").read_text()
        )
        assert manifest["name"] == "covert"
        assert manifest["preset"] == "sandy_bridge"
        assert manifest["source"] == "run"
        assert "run.jsonl" in manifest["results"]

    def test_covert_metrics_flag_prints_families(self, capsys):
        assert main(self.COVERT + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "repro_branches_total" in out
        assert "repro_covert_bits_total" in out

    def test_attack_traced(self, tmp_path, capsys):
        trace = tmp_path / "attack.jsonl"
        assert (
            main(
                [
                    "attack",
                    "--bits", "8",
                    "--setting", "silent",
                    "--preset", "haswell",
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        assert "8/8 bits correct" in capsys.readouterr().out
        assert trace.exists()

    def test_trace_summary_and_export(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(self.COVERT + ["--trace", str(trace)])
        capsys.readouterr()

        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "events retained" in out
        assert "covert" in out

        assert main(["trace", "export", str(trace)]) == 0
        capsys.readouterr()
        document = json.loads((tmp_path / "run.chrome.json").read_text())
        assert document["traceEvents"]
        phases = {record["ph"] for record in document["traceEvents"]}
        assert phases <= {"M", "X", "i"}

    def test_tracing_disabled_after_traced_run(self, tmp_path):
        from repro import obs

        main(self.COVERT + ["--trace", str(tmp_path / "t.jsonl")])
        assert obs.get_tracer() is None
