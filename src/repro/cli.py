"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one-line access to the headline demos and
experiments without writing harness code:

.. code-block:: console

    $ python -m repro presets
    $ python -m repro covert --preset skylake --bits 500 --setting noisy
    $ python -m repro attack --preset haswell --bits 64
    $ python -m repro fsm-table --preset skylake
    $ python -m repro pht-size --preset haswell
    $ python -m repro poison

The ``covert`` and ``attack`` experiments accept ``--trace FILE`` (write
a JSONL trace of the run, with a run manifest beside it) and
``--metrics`` (print the run's metric families afterwards); ``repro
trace summary|export`` then digests a written trace or converts it to
Chrome ``trace_event`` JSON for Perfetto.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.analysis import format_table
from repro.bpu.presets import PRESETS
from repro.core.randomizer import PAPER_BLOCK_BRANCHES
from repro.cpu import PhysicalCore, Process
from repro.system.scheduler import NoiseSetting

__all__ = [
    "main",
    "build_parser",
    "EXIT_INTERRUPTED",
    "EXIT_CHECKPOINT_CORRUPT",
    "EXIT_RETRY_EXHAUSTED",
]

#: Exit codes distinguishing the long-run failure modes (MODELING.md §10):
#: user abort (Ctrl-C — progress is checkpointed, re-run to resume), a
#: checkpoint of another campaign (and a worker's quarantined upload),
#: and a worker whose coordinator stayed unreachable through every
#: transport retry.  A corrupt checkpoint is no failure: it is
#: quarantined and the run starts afresh.
EXIT_INTERRUPTED = 130
EXIT_CHECKPOINT_CORRUPT = 4
EXIT_RETRY_EXHAUSTED = 5

_SETTINGS = {
    "isolated": NoiseSetting.ISOLATED,
    "noisy": NoiseSetting.NOISY,
    "quiesced": NoiseSetting.QUIESCED,
    "silent": NoiseSetting.SILENT,
}


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI's argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "BranchScope (ASPLOS'18) reproduction on a simulated branch "
            "predictor"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list the modelled microarchitectures")

    covert = sub.add_parser(
        "covert", help="run the §7 covert channel and report the error rate"
    )
    covert.add_argument("--preset", choices=PRESETS, default="skylake")
    covert.add_argument("--setting", choices=_SETTINGS, default="isolated")
    covert.add_argument("--bits", type=int, default=500)
    covert.add_argument("--seed", type=int, default=42)
    _add_obs_flags(covert)

    attack = sub.add_parser(
        "attack", help="spy on a secret-bit-array victim (Listing 2)"
    )
    attack.add_argument("--preset", choices=PRESETS, default="skylake")
    attack.add_argument("--setting", choices=_SETTINGS, default="isolated")
    attack.add_argument("--bits", type=int, default=64)
    attack.add_argument("--seed", type=int, default=42)
    _add_obs_flags(attack)

    fsm = sub.add_parser(
        "fsm-table", help="regenerate Table 1 for one microarchitecture"
    )
    fsm.add_argument("--preset", choices=PRESETS, default="skylake")

    pht = sub.add_parser(
        "pht-size", help="recover the PHT size via §6.3's Hamming analysis"
    )
    pht.add_argument("--preset", choices=PRESETS, default="haswell")
    pht.add_argument("--seed", type=int, default=8)

    poison = sub.add_parser(
        "poison", help="measure Spectre-style branch poisoning control"
    )
    poison.add_argument("--preset", choices=PRESETS, default="skylake")
    poison.add_argument("--rounds", type=int, default=300)

    campaign = sub.add_parser(
        "campaign",
        help=(
            "run a checkpointed Figure-4 stability campaign (kill it, "
            "re-run the same command, it resumes bit-identically)"
        ),
    )
    campaign.add_argument("--preset", choices=PRESETS, default="haswell")
    campaign.add_argument("--seed", type=int, default=31)
    campaign.add_argument(
        "--address",
        type=lambda s: int(s, 0),
        default=0x400,
        help="target branch address (accepts hex)",
    )
    campaign.add_argument("--blocks", type=int, default=200)
    campaign.add_argument(
        "--branches",
        type=int,
        default=PAPER_BLOCK_BRANCHES,
        help="branches per block (default: the paper's 100k, enough to "
        "randomise the full PHT)",
    )
    campaign.add_argument("--repetitions", type=int, default=50)
    campaign.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="checkpoint file; progress persists across kills",
    )
    campaign.add_argument(
        "--interval",
        type=int,
        default=None,
        help="trials per checkpoint batch (default ~8 checkpoints/run)",
    )
    campaign.add_argument(
        "--fresh",
        action="store_true",
        help="ignore (and clear) any existing checkpoint",
    )
    campaign.add_argument(
        "--trial-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep per trial (chaos/CI hook: makes mid-run kills easy)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help=(
            "reverse-engineer a preset's predictor geometry from probe "
            "signatures alone (generations run through the campaign "
            "service; resumable and store-served over --root)"
        ),
    )
    fuzz.add_argument("--preset", choices=PRESETS, default="sandy_bridge")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--generations", type=int, default=6)
    fuzz.add_argument("--shards", type=int, default=4)
    fuzz.add_argument(
        "--root",
        default=None,
        help=(
            "service root (content store + checkpoints); a re-run over "
            "the same root resumes killed generations and serves "
            "completed ones from the store"
        ),
    )
    fuzz.add_argument(
        "--trial-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep per trial (chaos/CI hook: makes mid-run kills easy)",
    )
    fuzz.add_argument(
        "--expect-truth",
        action="store_true",
        help=(
            "exit nonzero unless the verdict converged to the preset's "
            "true geometry (the closed-loop self-test)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the campaign coordinator over a spool directory "
            "(submit jobs with `repro submit`): it leases shards over "
            "HTTP, to one worker thread of its own or, with --port, to "
            "`repro worker` processes; /status and /metrics are served "
            "on the same port"
        ),
    )
    serve.add_argument(
        "--root",
        required=True,
        metavar="DIR",
        help="service root (jobs/, results/, checkpoints/, store/)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="drain the current job queue and exit (CI mode)",
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="spool poll interval when idle",
    )
    serve.add_argument(
        "--store-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="persistent store disk budget (LRU-evicted above this)",
    )
    serve.add_argument(
        "--trial-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "sleep per trial of the local worker (chaos/CI hook: makes "
            "mid-run kills easy; no effect with --port)"
        ),
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve on this port (0 picks a free one) and start no local "
            "worker: `repro worker --connect` processes run the trials. "
            "Without it the port is ephemeral and one worker thread in "
            "this process runs them. The URL lands in "
            "root/coordinator.json either way"
        ),
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "how long a claimed shard may go without a renewal before "
            "it is requeued to another worker"
        ),
    )

    worker = sub.add_parser(
        "worker",
        help=(
            "pull-based campaign worker: claim shard leases from a "
            "`repro serve` coordinator, run them, upload exact "
            "aggregates (safe to SIGKILL at any instant)"
        ),
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8763",
    )
    worker.add_argument(
        "--once",
        action="store_true",
        help="exit 0 when the coordinator reports the queue drained",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="claim poll interval while the queue is momentarily empty",
    )
    worker.add_argument(
        "--retries",
        type=int,
        default=5,
        metavar="N",
        help="transport retries per request before giving up",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        metavar="NAME",
        help="worker name on the coordinator (default: <host>-<pid>)",
    )
    worker.add_argument(
        "--trial-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep per trial (chaos/CI hook: makes mid-run kills easy)",
    )

    submit = sub.add_parser(
        "submit",
        help=(
            "queue a stability campaign in a spool directory for "
            "`repro serve` (picked up by a running one, too)"
        ),
    )
    submit.add_argument(
        "--root", required=True, metavar="DIR", help="service root directory"
    )
    submit.add_argument("--name", default="campaign")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--preset", choices=PRESETS, default="skylake")
    submit.add_argument(
        "--scale",
        type=int,
        default=16,
        help="predictor table scale divisor (1 = full size)",
    )
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument(
        "--address",
        type=lambda s: int(s, 0),
        default=0x4200,
        help="target branch address (accepts hex)",
    )
    submit.add_argument("--blocks", type=int, default=64)
    submit.add_argument("--branches", type=int, default=2000)
    submit.add_argument("--repetitions", type=int, default=40)
    submit.add_argument(
        "--noise",
        choices=("isolated", "noisy", "quiesced", "silent"),
        default="isolated",
    )
    submit.add_argument("--seed-start", type=int, default=0)
    submit.add_argument("--shards", type=int, default=4)

    trace = sub.add_parser(
        "trace", help="inspect or convert a JSONL trace written by --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="print a digest of a JSONL trace"
    )
    trace_summary.add_argument("trace_file")
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a JSONL trace to Chrome trace_event JSON (Perfetto)",
    )
    trace_export.add_argument("trace_file")
    trace_export.add_argument(
        "-o", "--output",
        help="output path (default: <trace_file> with .chrome.json)",
    )

    return parser


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "write a JSONL trace of the run to FILE (a run manifest is "
            "written beside it)"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the run's metric families",
    )


@contextlib.contextmanager
def _observed_run(args, name: str):
    """Wrap an experiment command in the --trace/--metrics plumbing.

    No-op (tracing stays disabled) when neither flag was given, so the
    untraced CLI path is byte-identical to the historical one.
    """
    from repro import obs

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not trace_path and not want_metrics:
        yield
        return
    started = time.time()
    with obs.tracing(collect_metrics=want_metrics) as tracer:
        yield
    if trace_path:
        path = Path(trace_path)
        obs.write_jsonl(
            tracer, path, meta={"command": name, "preset": args.preset}
        )
        manifest = obs.RunManifest.capture(
            name,
            preset=args.preset,
            seed=args.seed,
            duration_seconds=time.time() - started,
            extra={
                "events_emitted": tracer.emitted,
                "events_dropped": tracer.dropped,
            },
        )
        manifest.add_result(path.name, path.read_text())
        manifest_path = path.with_name(path.stem + ".manifest.json")
        manifest.write(manifest_path)
        print(f"trace written to {path} (manifest {manifest_path})")
    if want_metrics:
        text = tracer.metrics.render_text()
        if text:
            print(text)


def _cmd_presets(args) -> int:
    rows = []
    for name, factory in PRESETS.items():
        config = factory()
        rows.append(
            [
                name,
                config.name,
                config.bimodal_entries,
                config.gshare_entries,
                config.ghr_bits,
                config.fsm.name,
            ]
        )
    print(
        format_table(
            ["preset", "models", "PHT", "gshare", "GHR bits", "FSM"],
            rows,
            title="Modelled microarchitectures (paper §5)",
        )
    )
    return 0


def _cmd_covert(args) -> int:
    from repro.core.covert import CovertChannel, error_rate

    with _observed_run(args, "covert"):
        core = PhysicalCore(PRESETS[args.preset](), seed=args.seed)
        channel = CovertChannel.for_processes(
            core,
            Process("trojan"),
            Process("spy"),
            setting=_SETTINGS[args.setting],
        )
        bits = (
            np.random.default_rng(args.seed).integers(0, 2, args.bits).tolist()
        )
        received = channel.transmit(bits)
        rate = error_rate(bits, received)
        print(
            f"{args.preset} / {args.setting}: transmitted {args.bits} bits, "
            f"error rate {rate:.2%}"
        )
    return 0


def _cmd_attack(args) -> int:
    from repro.core.attack import BranchScope
    from repro.victims import SecretBitArrayVictim

    with _observed_run(args, "attack"):
        core = PhysicalCore(PRESETS[args.preset](), seed=args.seed)
        secret = (
            np.random.default_rng(args.seed).integers(0, 2, args.bits).tolist()
        )
        victim = SecretBitArrayVictim(secret)
        attack = BranchScope(
            core,
            Process("spy"),
            victim.branch_address,
            setting=_SETTINGS[args.setting],
        )
        recovered = [
            int(b)
            for b in attack.spy_on_bits(
                lambda: victim.execute_next(core), args.bits
            )
        ]
        correct = sum(1 for a, b in zip(secret, recovered) if a == b)
        print(f"secret    : {''.join(map(str, secret))}")
        print(f"recovered : {''.join(map(str, recovered))}")
        print(f"{correct}/{args.bits} bits correct")
    return 0


def _cmd_fsm_table(args) -> int:
    from repro.core.prime_probe import probe_pair

    core = PhysicalCore(PRESETS[args.preset](), seed=4)
    process = Process("experimenter")
    address = 0x30_0006D
    rows = []
    for prime in ("TTT", "NNN"):
        for target in ("T", "N"):
            for probe in ("TT", "NN"):
                core.predictor.bit.evict(address)
                core.predictor.bimodal.pht.set_state(
                    core.predictor.bimodal.index(address),
                    core.predictor.bimodal.pht.fsm.public_state(0),
                )
                for ch in prime + target:
                    core.execute_branch(process, address, ch == "T")
                core.predictor.bit.evict(address)
                pattern = probe_pair(
                    core, process, address, [c == "T" for c in probe]
                ).pattern
                rows.append([prime, target, probe, pattern])
    print(
        format_table(
            ["prime", "target", "probe", "observation"],
            rows,
            title=f"Table 1 observations on {args.preset}",
        )
    )
    return 0


def _cmd_pht_size(args) -> int:
    from repro.core.pht_map import estimate_pht_size, scan_states
    from repro.core.randomizer import RandomizationBlock

    core = PhysicalCore(PRESETS[args.preset](), seed=args.seed)
    spy = Process("mapper")
    block = RandomizationBlock.generate(11, n_branches=100_000)
    compiled = block.compile(core, spy)
    scan = 2 * core.predictor.bimodal.pht.n_entries
    states = scan_states(
        core, spy, list(range(0x300000, 0x300000 + scan)), compiled
    )
    windows = [1 << k for k in range(8, scan.bit_length() - 1)]
    estimate = estimate_pht_size(states, windows=windows)
    print(
        f"{args.preset}: recovered PHT size {estimate} entries "
        f"(ground truth {core.predictor.bimodal.pht.n_entries})"
    )
    return 0


def _cmd_poison(args) -> int:
    from repro.core.poisoning import poisoning_experiment

    core = PhysicalCore(PRESETS[args.preset](), seed=17)
    result = poisoning_experiment(
        core,
        Process("attacker"),
        Process("victim"),
        0x40_1A30,
        victim_direction=True,
        rounds=args.rounds,
    )
    print(
        f"victim mispredictions: baseline "
        f"{result.baseline_misprediction_rate:.1%}, poisoned "
        f"{result.poisoned_misprediction_rate:.1%}"
    )
    return 0


def _cmd_campaign(args) -> int:
    import hashlib

    from repro import obs
    from repro.core.calibration import stability_experiment

    preset = PRESETS[args.preset]
    seed = args.seed

    def factory():
        return PhysicalCore(preset(), seed=seed)

    pre_trial = None
    if args.trial_delay > 0:
        delay = args.trial_delay

        def pre_trial(_block_seed: int) -> None:
            time.sleep(delay)

    assessments = stability_experiment(
        factory,
        args.address,
        n_blocks=args.blocks,
        block_branches=args.branches,
        repetitions=args.repetitions,
        checkpoint=args.checkpoint,
        checkpoint_interval=args.interval,
        resume=not args.fresh,
        fingerprint_extra={"preset": args.preset, "seed": seed},
        pre_trial=pre_trial,
    )
    stable = sum(1 for a in assessments if a.stable)
    resumed = obs.resilience_event_counts().get("campaign_resume", 0)
    if resumed:
        print(f"resumed: {resumed} trials recovered from checkpoint")
    print(
        f"{args.preset}: campaign complete — {len(assessments)} blocks, "
        f"{stable} stable"
    )
    digest = hashlib.sha256(repr(assessments).encode()).hexdigest()
    print(f"result digest: {digest}")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import run_fuzz

    pre_trial = None
    if args.trial_delay > 0:
        delay = args.trial_delay

        def pre_trial(_index: int) -> None:
            time.sleep(delay)

    verdict = run_fuzz(
        args.preset,
        seed=args.seed,
        generations=args.generations,
        shards=args.shards,
        root=args.root,
        pre_trial=pre_trial,
        log=print,
    )
    for hypothesis in verdict.survivors:
        print(
            f"survivor: table={hypothesis.table_entries} "
            f"hash={hypothesis.index_hash} fsm={hypothesis.fsm_name} "
            f"ghr={hypothesis.ghr_bits}"
        )
    print(
        f"{args.preset}: {verdict.generations_run} generations, "
        f"{verdict.n_trials} trials, {len(verdict.survivors)} "
        f"hypothesis(es) alive (resumed shards: {verdict.resumed_shards}, "
        f"store-served shards: {verdict.cached_shards})"
    )
    print(f"verdict digest: {verdict.digest()}")
    if args.expect_truth and not verdict.matches_truth():
        print(
            "verdict does not match the preset's true geometry",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    # One server: without --port the coordinator runs its own worker
    # thread over loopback HTTP; with --port, `repro worker` processes
    # do the work and --trial-delay does not apply.
    from repro.service.coordinator import run_coordinator

    return run_coordinator(
        args.root,
        port=0 if args.port is None else args.port,
        local_worker=args.port is None,
        once=args.once,
        poll_seconds=args.poll,
        lease_seconds=args.lease_seconds,
        store_bytes=args.store_bytes,
        trial_delay=args.trial_delay,
    )


def _cmd_worker(args) -> int:
    # The terminal lease-protocol failures map to exit codes here (not
    # in main(), which would drag the service stack into every CLI
    # invocation): a quarantined upload means *this* worker computed a
    # divergent aggregate — the distributed analogue of checkpoint
    # corruption, exit 4 — and an unreachable coordinator past all
    # retries is the distributed retry exhaustion, exit 5.
    from repro.service import (
        CoordinatorUnreachable,
        LeaseQuarantinedError,
        run_worker,
    )

    try:
        return run_worker(
            args.connect,
            worker_id=args.worker_id,
            once=args.once,
            poll_seconds=args.poll,
            retries=args.retries,
            trial_delay=args.trial_delay,
        )
    except LeaseQuarantinedError as exc:
        print(f"repro: worker quarantined: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_CORRUPT
    except CoordinatorUnreachable as exc:
        print(f"repro: coordinator unreachable: {exc}", file=sys.stderr)
        return EXIT_RETRY_EXHAUSTED


def _cmd_submit(args) -> int:
    from repro.service import CampaignSpec, submit_job

    spec = CampaignSpec(
        name=args.name,
        tenant=args.tenant,
        preset=args.preset,
        scale=args.scale,
        seed=args.seed,
        target_address=args.address,
        n_blocks=args.blocks,
        block_branches=args.branches,
        repetitions=args.repetitions,
        noise=args.noise,
        seed_start=args.seed_start,
        shards=args.shards,
    )
    path = submit_job(args.root, spec)
    print(f"submitted {spec.campaign_id()} (tenant {spec.tenant}) -> {path}")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs

    meta, events = obs.read_jsonl(args.trace_file)
    if args.trace_command == "summary":
        print(obs.summarize(events, meta))
        return 0
    # export
    output = args.output
    if output is None:
        source = Path(args.trace_file)
        output = source.with_name(source.stem + ".chrome.json")
    path = obs.write_chrome_trace(events, output)
    print(f"chrome trace written to {path} ({len(events)} events)")
    return 0


_COMMANDS = {
    "presets": _cmd_presets,
    "covert": _cmd_covert,
    "attack": _cmd_attack,
    "fsm-table": _cmd_fsm_table,
    "pht-size": _cmd_pht_size,
    "poison": _cmd_poison,
    "campaign": _cmd_campaign,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "worker": _cmd_worker,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Long-run failure modes map to distinct exit codes so harnesses (and
    the CI chaos-smoke job) can tell them apart: Ctrl-C returns
    :data:`EXIT_INTERRUPTED` (checkpointed progress survives — re-run
    the same command to resume) and a mismatched checkpoint returns
    :data:`EXIT_CHECKPOINT_CORRUPT`.
    ``repro worker`` maps its own terminal failures (see
    :func:`_cmd_worker`): a quarantined upload to
    :data:`EXIT_CHECKPOINT_CORRUPT` and an unreachable coordinator to
    :data:`EXIT_RETRY_EXHAUSTED`.
    """
    from repro.resilience.checkpoint import CheckpointMismatch

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print(
            "repro: interrupted — checkpointed progress is preserved; "
            "re-run the same command to resume",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except CheckpointMismatch as exc:
        print(f"repro: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_CORRUPT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
