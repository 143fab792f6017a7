"""Command-line interface.

Three subcommands:

``run``
    Run the paper's algorithm on a generated topology and print the
    per-stage summary.
``compare``
    Run the algorithm and the baselines on the same instance and print
    the comparison table.
``info``
    Print the generated topology's parameters (n, D, Δ, degrees).
``chaos``
    Run the supervised (self-healing) broadcast under a seeded random
    crash schedule and print the degradation report.
``campaign``
    Checkpointed, resumable fuzz campaigns under worker supervision:
    ``run`` journals every trial to ``--dir`` (fsync'd JSONL + atomic
    manifest), ``resume`` continues after any interruption — including
    ``kill -9`` — with a byte-identical final manifest, ``status``
    inspects a checkpoint directory.  ``run --inject-worker-faults``
    chaos-tests the orchestrator itself.
``serve`` / ``submit`` / ``jobs``
    The long-running service mode: ``serve`` runs a daemon that drains
    a durable spool of submitted jobs onto a persistent supervised
    worker pool with admission control and load shedding (SIGTERM
    drains and exits 143; ``kill -9`` loses nothing), ``submit``
    spools jobs (idempotent by id), ``jobs`` inspects the service
    directory.  ``serve --self-test`` chaos-tests the service itself.

Examples
--------
::

    python -m repro run --topology grid --rows 5 --cols 5 --k 20 --seed 1
    python -m repro run --topology rgg --n 60 --k 100 --preset paper
    python -m repro compare --topology grid --rows 6 --cols 6 --k 200
    python -m repro info --topology tree --branching 3 --depth 4
    python -m repro chaos --topology grid --rows 5 --cols 5 --k 10 \\
        --crash-frac 0.1
    python -m repro chaos --topology grid --rows 5 --cols 5 --k 10 \\
        --crash-frac 0 --byzantine-frac 0.1 --byzantine-mode ack_forge
    python -m repro campaign run --dir sweep --trials 200 --profile medium
    python -m repro campaign resume sweep
    python -m repro campaign status sweep --json
    python -m repro serve --dir jobs-dir --workers 4
    python -m repro submit --dir jobs-dir --kind simulation --seed 7
    python -m repro jobs jobs-dir --json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.baselines import decay_gossip_broadcast, sequential_bgi_broadcast
from repro.core import MultipleMessageBroadcast
from repro.core.config import PRESETS
from repro.experiments.report import render_table
from repro.experiments.workloads import (
    all_nodes_one_packet,
    hotspot_placement,
    single_source_burst,
    uniform_random_placement,
)
from repro.radio.network import RadioNetwork
from repro.radio.rng import make_rng
from repro.resilience.byzantine import BYZANTINE_MODES
from repro.topology import (
    balanced_tree,
    clique,
    graph_summary,
    grid,
    line,
    random_connected_gnp,
    random_geometric,
    ring,
    star,
)


def build_topology(args: argparse.Namespace) -> RadioNetwork:
    """Construct the requested topology from parsed arguments."""
    kind = args.topology
    if kind == "line":
        return line(args.n)
    if kind == "ring":
        return ring(args.n)
    if kind == "star":
        return star(args.n)
    if kind == "clique":
        return clique(args.n)
    if kind == "grid":
        return grid(args.rows, args.cols)
    if kind == "tree":
        return balanced_tree(args.branching, args.depth)
    if kind == "rgg":
        return random_geometric(args.n, seed=args.topology_seed)
    if kind == "gnp":
        return random_connected_gnp(args.n, seed=args.topology_seed)
    raise ValueError(f"unknown topology {kind!r}")


def build_workload(network: RadioNetwork, args: argparse.Namespace):
    """Construct the packet placement from parsed arguments."""
    if args.workload == "uniform":
        return uniform_random_placement(network, args.k, seed=args.seed)
    if args.workload == "single":
        return single_source_burst(network, args.k, source=0, seed=args.seed)
    if args.workload == "hotspot":
        return hotspot_placement(network, args.k, seed=args.seed)
    if args.workload == "all":
        return all_nodes_one_packet(network, seed=args.seed)
    raise ValueError(f"unknown workload {args.workload!r}")


def _add_common(
    parser: argparse.ArgumentParser, topology_required: bool = True
) -> None:
    parser.add_argument(
        "--topology",
        required=topology_required,
        choices=["line", "ring", "star", "clique", "grid", "tree", "rgg", "gnp"],
    )
    parser.add_argument("--n", type=int, default=36,
                        help="node count (line/ring/star/clique/rgg/gnp)")
    parser.add_argument("--rows", type=int, default=6, help="grid rows")
    parser.add_argument("--cols", type=int, default=6, help="grid cols")
    parser.add_argument("--branching", type=int, default=2, help="tree arity")
    parser.add_argument("--depth", type=int, default=4, help="tree depth")
    parser.add_argument("--topology-seed", type=int, default=0,
                        help="seed for random topologies")


def _add_run_args(
    parser: argparse.ArgumentParser, topology_required: bool = True
) -> None:
    _add_common(parser, topology_required=topology_required)
    parser.add_argument("--k", type=int, default=10, help="number of packets")
    parser.add_argument(
        "--workload", default="uniform",
        choices=["uniform", "single", "hotspot", "all"],
    )
    parser.add_argument("--seed", type=int, default=0, help="algorithm seed")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS))
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record the full transcript; write per-node stats and the "
             "first rounds to FILE",
    )


def cmd_info(args: argparse.Namespace) -> int:
    network = build_topology(args)
    summary = graph_summary(network)
    print(render_table(
        ["parameter", "value"],
        [[key, value] for key, value in summary.items()],
        title=f"Topology: {network.name}",
    ))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    network = build_topology(args)
    packets = build_workload(network, args)
    params = PRESETS[args.preset]()

    recorder = None
    run_network = network
    if args.trace:
        from repro.radio.transcript import RecordingNetwork

        recorder = RecordingNetwork(network)
        run_network = recorder

    result = MultipleMessageBroadcast(
        run_network, params=params, seed=args.seed
    ).run(packets)

    if recorder is not None:
        _write_trace_report(args.trace, network, recorder)

    rows = [
        ["n / D / Δ", f"{result.n} / {result.diameter} / {result.max_degree}"],
        ["k", result.k],
        ["stage 1: leader election", result.timing.leader_election],
        ["stage 2: distributed BFS", result.timing.bfs],
        ["stage 3: collection", result.timing.collection],
        ["stage 4: dissemination", result.timing.dissemination],
        ["total rounds", result.total_rounds],
        ["amortized rounds/packet",
         f"{result.amortized_rounds_per_packet:.1f}"],
        ["leader", result.leader],
        ["success", "yes" if result.success else "NO"],
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"Multi-broadcast on {network.name} (preset={args.preset})",
    ))
    return 0 if result.success else 1


def _write_trace_report(path: str, network, recorder) -> None:
    """Write per-node transmission/reception stats and the first rounds
    of a recorded execution to ``path``."""
    from repro.radio.transcript import (
        per_node_receptions,
        per_node_transmissions,
        transcript_to_text,
        verify_transcript,
    )

    tx = per_node_transmissions(recorder.transcript, network.n)
    rx = per_node_receptions(recorder.transcript, network.n)
    violations = verify_transcript(network, recorder.transcript)
    with open(path, "w") as fh:
        fh.write(f"# transcript of {network.name}: "
                 f"{len(recorder.transcript)} busy rounds\n")
        fh.write(f"# model audit: "
                 f"{'OK' if not violations else violations[:3]}\n\n")
        fh.write(render_table(
            ["node", "transmissions", "receptions"],
            [[v, tx[v], rx[v]] for v in range(network.n)],
            title="per-node activity",
        ))
        fh.write("\n\nfirst rounds:\n")
        fh.write(transcript_to_text(recorder.transcript, max_rounds=100))
        fh.write("\n")
    print(f"transcript report written to {path}")


def cmd_compare(args: argparse.Namespace) -> int:
    network = build_topology(args)
    packets = build_workload(network, args)
    params = PRESETS[args.preset]()

    ours = MultipleMessageBroadcast(
        network, params=params, seed=args.seed
    ).run(packets)
    gossip = decay_gossip_broadcast(network, packets, make_rng(args.seed))
    seq_prefix = packets[: min(10, len(packets))]
    seq = sequential_bgi_broadcast(network, seq_prefix, make_rng(args.seed))

    rows = [
        ["this paper", ours.total_rounds,
         f"{ours.amortized_rounds_per_packet:.1f}",
         "yes" if ours.success else "NO"],
        ["gossip (BII-style)", gossip.rounds,
         f"{gossip.amortized_rounds_per_packet:.1f}",
         "yes" if gossip.complete else "NO"],
        [f"sequential BGI (first {len(seq_prefix)})", seq.rounds,
         f"{seq.amortized_rounds_per_packet:.1f}",
         "yes" if seq.complete else "NO"],
    ]
    print(render_table(
        ["algorithm", "rounds", "rounds/packet", "complete"], rows,
        title=f"Comparison on {network.name}, k={len(packets)}",
    ))
    return 0 if ours.success else 1


def _fuzz_topology_spec(args: argparse.Namespace) -> dict:
    """Serializable topology spec from the ``chaos fuzz`` flags."""
    kind = args.fz_topology
    if kind == "grid":
        return {"kind": "grid", "rows": args.fz_rows, "cols": args.fz_cols}
    if kind == "tree":
        return {
            "kind": "tree",
            "branching": args.fz_branching,
            "depth": args.fz_depth,
        }
    if kind in ("rgg", "gnp"):
        return {"kind": kind, "n": args.fz_n, "seed": args.fz_topology_seed}
    return {"kind": kind, "n": args.fz_n}


def _campaign_config_from_args(args: argparse.Namespace):
    from repro.resilience.chaos import CampaignConfig

    return CampaignConfig(
        profile=args.profile,
        topology=_fuzz_topology_spec(args),
        workload={"kind": args.fz_workload, "k": args.fz_k},
        preset=args.fz_preset,
        ablation=args.ablation,
        round_bound_factor=args.round_bound_factor,
    )


def _shrink_and_bundle(config, report, stream, no_shrink: bool):
    """Post-campaign pass: shrink each violating trial and (re)write its
    failure bundle with the minimized campaign attached.

    The bundles themselves were already streamed to disk as the trials
    completed; this pass only enriches them, so an interruption here
    still leaves a replayable artifact per violation.
    """
    from repro.resilience.chaos import (
        ChaosCampaign,
        evaluate_campaign,
        shrink_campaign,
    )
    from repro.resilience.chaos.runner import make_policy

    shrink_sizes = []
    for trial in report.violating:
        campaign = ChaosCampaign.from_json(trial["campaign"])
        shrink = None
        shrunk_verdicts = None
        if not no_shrink:
            shrink = shrink_campaign(
                campaign,
                [v["name"] for v in trial["violations"]],
                preset=config.preset,
                round_bound_factor=config.round_bound_factor,
            )
            _, shrunk_verdicts = evaluate_campaign(
                shrink.shrunk,
                policy=make_policy(shrink.shrunk),
                preset=config.preset,
                round_bound_factor=config.round_bound_factor,
            )
            shrink_sizes.append(shrink.atoms_after)
        stream.attach_shrink(
            trial, shrink=shrink, shrunk_verdicts=shrunk_verdicts
        )
    return shrink_sizes


class _SignalInterrupt(KeyboardInterrupt):
    """KeyboardInterrupt that remembers which signal raised it.

    Subclassing KeyboardInterrupt routes SIGTERM through the exact
    flush-and-checkpoint path SIGINT already takes (the orchestrator
    catches KeyboardInterrupt); ``signum`` survives into
    ``CampaignInterrupted`` so the exit code is ``128 + signum`` for
    both — 130 for SIGINT, 143 for SIGTERM.
    """

    def __init__(self, signum: int) -> None:
        super().__init__()
        self.signum = signum


def _install_sigterm_handler() -> None:
    """Make SIGTERM drain like SIGINT instead of killing mid-write."""
    import signal as _signal

    def _raise(signum, frame):
        raise _SignalInterrupt(signum)

    try:
        _signal.signal(_signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover - non-main thread (embedding)
        pass


def _interrupted_exit(exc) -> int:
    """Signal path: report what was preserved, exit ``128 + signum``."""
    import signal as _signal

    from repro.experiments.orchestrator import CampaignInterrupted

    signum = int(getattr(exc, "signum", _signal.SIGINT))
    if isinstance(exc, CampaignInterrupted):
        done = len(exc.outcome.results)
        if exc.checkpoint_dir is not None:
            print(
                f"interrupted: {done} completed trial(s) checkpointed in "
                f"{exc.checkpoint_dir}; continue with "
                f"'repro campaign resume {exc.checkpoint_dir}'",
                file=sys.stderr,
            )
        else:
            print(
                f"interrupted: {done} completed trial(s) discarded "
                f"(run under 'repro campaign run' or pass "
                f"--checkpoint-dir to keep progress)",
                file=sys.stderr,
            )
    else:
        print("interrupted", file=sys.stderr)
    return 128 + signum


def _emit_fuzz_summary(
    report, stream, shrink_sizes, as_json: bool, title: str, extra=None
) -> None:
    import json

    summary = report.summary()
    summary["artifacts"] = [str(p) for p in stream.paths]
    if shrink_sizes:
        summary["shrunk_atom_sizes"] = shrink_sizes
    if extra:
        summary.update(extra)
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    rows = [
        [key, value if isinstance(value, (int, float)) else str(value)]
        for key, value in summary.items()
    ]
    print(render_table(["metric", "value"], rows, title=title))
    for trial in report.violating:
        names = ", ".join(v["name"] for v in trial["violations"])
        print(f"  seed {trial['seed']}: violated [{names}]")
    for entry in report.quarantined:
        print(
            f"  seed {entry['seed']}: QUARANTINED "
            f"({entry['signature']})"
        )


def cmd_chaos_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.orchestrator import CampaignInterrupted
    from repro.resilience.chaos import ArtifactStream, run_campaign

    _install_sigterm_handler()
    config = _campaign_config_from_args(args)
    stream = ArtifactStream(config, Path(args.artifact_dir))
    try:
        report = run_campaign(
            config,
            trials=args.trials,
            base_seed=args.fz_seed,
            max_workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            on_result=stream,
        )
        shrink_sizes = _shrink_and_bundle(
            config, report, stream, args.no_shrink
        )
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        return _interrupted_exit(exc)

    _emit_fuzz_summary(
        report, stream, shrink_sizes, args.fz_json,
        title=f"Chaos fuzz: {args.trials} trials, "
              f"profile={config.profile}, ablation={config.ablation}",
    )
    return 1 if report.violating or report.quarantined else 0


def cmd_chaos_replay(args: argparse.Namespace) -> int:
    import json

    from repro.resilience.chaos import load_artifact, replay_artifact

    artifact = load_artifact(args.artifact)
    replay = replay_artifact(artifact, which=args.which)
    summary = replay.summary()
    summary["verdicts"] = [v.to_json() for v in replay.verdicts]
    if args.rp_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        rows = [
            ["campaign", args.which],
            ["seed", replay.seed],
            ["violations", ", ".join(
                v.name for v in replay.violations) or "none"],
            ["deterministic", "yes" if replay.deterministic else "NO"],
        ]
        print(render_table(
            ["metric", "value"], rows,
            title=f"Chaos replay: {args.artifact}",
        ))
    return 0 if replay.deterministic else 1


def _orchestrator_from_args(args: argparse.Namespace):
    from repro.experiments.orchestrator import (
        FaultInjection,
        OrchestratorConfig,
    )

    inject = None
    if getattr(args, "inject_worker_faults", False):
        inject = FaultInjection(
            seed=args.inject_seed,
            kill_prob=args.inject_kill_prob,
            hang_prob=args.inject_hang_prob,
            poison_frac=args.inject_poison_frac,
            hang_seconds=args.inject_hang_seconds,
        )
    return OrchestratorConfig(
        num_workers=args.workers,
        max_attempts=args.max_attempts,
        task_timeout=args.task_timeout,
        backoff_base=args.backoff_base,
        backoff_max=args.backoff_max,
        inject=inject,
    )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.orchestrator import CampaignInterrupted
    from repro.resilience.chaos import ArtifactStream, run_campaign

    _install_sigterm_handler()
    config = _campaign_config_from_args(args)
    checkpoint_dir = Path(args.dir)
    artifact_dir = (
        Path(args.artifact_dir) if args.artifact_dir
        else checkpoint_dir / "artifacts"
    )
    stream = ArtifactStream(config, artifact_dir)
    try:
        report = run_campaign(
            config,
            trials=args.trials,
            base_seed=args.fz_seed,
            checkpoint_dir=checkpoint_dir,
            orchestrator=_orchestrator_from_args(args),
            on_result=stream,
        )
        shrink_sizes = _shrink_and_bundle(
            config, report, stream, args.no_shrink
        )
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        return _interrupted_exit(exc)

    _emit_fuzz_summary(
        report, stream, shrink_sizes, args.fz_json,
        title=f"Campaign: {args.trials} trials, "
              f"profile={config.profile}, ablation={config.ablation}",
        extra={
            "checkpoint_dir": str(checkpoint_dir),
            "manifest": str(checkpoint_dir / "manifest.json"),
            "orchestration": report.orchestration,
        },
    )
    return 1 if report.violating or report.quarantined else 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.orchestrator import (
        CampaignInterrupted,
        campaign_header,
    )
    from repro.resilience.chaos import (
        ArtifactStream,
        CampaignConfig,
        resume_campaign,
    )

    _install_sigterm_handler()
    checkpoint_dir = Path(args.dir)
    config = CampaignConfig.from_json(
        campaign_header(checkpoint_dir).spec["config"]
    )
    artifact_dir = (
        Path(args.artifact_dir) if args.artifact_dir
        else checkpoint_dir / "artifacts"
    )
    stream = ArtifactStream(config, artifact_dir)
    try:
        report = resume_campaign(
            checkpoint_dir,
            max_workers=args.workers,
            orchestrator=_orchestrator_from_args(args),
            on_result=stream,
        )
        shrink_sizes = _shrink_and_bundle(
            config, report, stream, args.no_shrink
        )
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        return _interrupted_exit(exc)

    _emit_fuzz_summary(
        report, stream, shrink_sizes, args.fz_json,
        title=f"Campaign resumed: {report.num_trials} trials, "
              f"profile={config.profile}, ablation={config.ablation}",
        extra={
            "checkpoint_dir": str(checkpoint_dir),
            "manifest": str(checkpoint_dir / "manifest.json"),
            "orchestration": report.orchestration,
        },
    )
    return 1 if report.violating or report.quarantined else 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.orchestrator import campaign_status
    from repro.experiments.report import render_status_summary

    status = campaign_status(args.dir)
    if args.fz_json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        rows = [
            [key, value if isinstance(value, (int, float)) else str(value)]
            for key, value in status.items()
            if key not in ("spec", "quarantine_details", "retries",
                           "quarantined_seeds")
        ]
        print(render_status_summary(
            f"Campaign status: {args.dir}",
            rows,
            quarantine=status["quarantine_details"],
            retries=status["retries"],
        ))
    return 0 if status["complete"] else 3


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "run":
        return cmd_campaign_run(args)
    if args.campaign_command == "resume":
        return cmd_campaign_resume(args)
    return cmd_campaign_status(args)


def _parse_job_params(pairs: List[str]) -> dict:
    """``key=value`` pairs; values parse as JSON when they can."""
    import json

    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(
                f"repro submit: --param expects key=value, got {pair!r}"
            )
        key, _, raw = pair.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal as _signal
    import tempfile

    from repro.service import ServiceConfig, ServiceDaemon, run_selftest

    if args.self_test:
        base = args.dir or tempfile.mkdtemp(prefix="repro-serve-selftest-")
        result = run_selftest(
            base,
            log=lambda line: print(line, file=sys.stderr),
        )
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0 if result["ok"] else 1
    if not args.dir:
        print("repro serve: --dir is required", file=sys.stderr)
        return 2

    inject = None
    if args.inject_worker_faults:
        from repro.experiments.orchestrator import FaultInjection

        inject = FaultInjection(
            seed=args.inject_seed,
            kill_prob=args.inject_kill_prob,
            hang_prob=args.inject_hang_prob,
            poison_frac=args.inject_poison_frac,
            hang_seconds=args.inject_hang_seconds,
        )
    config = ServiceConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        queue_policy=args.queue_policy,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_attempts=args.max_attempts,
        task_timeout=args.task_timeout,
        drain_grace=args.drain_grace,
        idle_exit=args.idle_exit,
        inject=inject,
    )
    daemon = ServiceDaemon(args.dir, config)

    def _drain(signum, frame):
        daemon.request_drain(signum)

    try:
        _signal.signal(_signal.SIGTERM, _drain)
        _signal.signal(_signal.SIGINT, _drain)
    except ValueError:  # pragma: no cover - non-main thread (embedding)
        pass

    signum = daemon.run()
    snapshot = daemon.snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        rows = [
            [key, value if isinstance(value, (int, float)) else str(value)]
            for key, value in sorted(snapshot.items())
        ]
        print(render_table(
            ["metric", "value"], rows,
            title=f"Service drained: {args.dir}"
                  if signum else f"Service idle-exit: {args.dir}",
        ))
    return 128 + signum if signum else 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.service import JobSpec, derive_job_id, submit_to_spool

    specs: List[JobSpec] = []
    if args.file:
        data = json.loads(Path(args.file).read_text())
        for entry in data if isinstance(data, list) else [data]:
            specs.append(JobSpec.from_json(entry))
    else:
        params = _parse_job_params(args.param)
        for i in range(args.count):
            seed = args.seed + i
            job_id = (
                args.id if args.id and args.count == 1
                else (f"{args.id}-{i:04d}" if args.id
                      else derive_job_id(args.kind, args.tenant, seed,
                                         params))
            )
            specs.append(JobSpec(
                id=job_id, kind=args.kind, tenant=args.tenant,
                priority=args.priority, seed=seed, params=params,
            ))
    paths = [submit_to_spool(args.dir, spec) for spec in specs]
    if args.json:
        print(json.dumps(
            {"submitted": [s.id for s in specs],
             "spool": [str(p) for p in paths]},
            indent=2, sort_keys=True,
        ))
    else:
        for spec in specs:
            print(f"spooled {spec.id} ({spec.kind}, tenant={spec.tenant})")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.report import render_status_summary
    from repro.service import service_status

    status = service_status(args.dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        rows = [
            [key, value if isinstance(value, (int, float)) else str(value)]
            for key, value in status.items()
            if key not in ("quarantine_details", "retries")
        ]
        print(render_status_summary(
            f"Service jobs: {args.dir}",
            rows,
            quarantine=status["quarantine_details"],
            retries=status["retries"],
        ))
    return 0 if status["complete"] else 3


def cmd_chaos(args: argparse.Namespace) -> int:
    if getattr(args, "chaos_command", None) == "fuzz":
        return cmd_chaos_fuzz(args)
    if getattr(args, "chaos_command", None) == "replay":
        return cmd_chaos_replay(args)
    if args.topology is None:
        print(
            "repro chaos: --topology is required "
            "(or use 'repro chaos fuzz' / 'repro chaos replay')",
            file=sys.stderr,
        )
        return 2

    from repro.resilience import (
        SupervisedBroadcast,
        make_adversary,
        random_byzantine_set,
        random_crash_schedule,
        supervised_metrics,
    )

    network = build_topology(args)
    packets = build_workload(network, args)
    params = PRESETS[args.preset]()

    exclude = set()
    if not args.allow_leader_crash and packets:
        exclude.add(max(p.origin for p in packets))
    if args.crash_round is not None:
        schedule = random_crash_schedule(
            network.n, args.crash_frac, seed=args.seed,
            at_round=args.crash_round, exclude=exclude,
        )
    else:
        schedule = random_crash_schedule(
            network.n, args.crash_frac, seed=args.seed,
            after_stage=args.crash_stage, exclude=exclude,
        )
    adversary = make_adversary(
        jam_prob=args.jam_prob,
        corruption_rate=args.corrupt_rate,
        jam_budget=args.jam_budget,
        seed=args.seed,
    )
    byzantine = None
    if args.byzantine_frac > 0.0:
        # a node cannot both crash and equivocate (schedule.validate
        # rejects the overlap), and the expected leader stays honest —
        # leader capture is the no-auth id_inflation scenario, not the
        # default sweep
        byzantine = random_byzantine_set(
            network.n, args.byzantine_frac, args.byzantine_mode,
            seed=args.seed,
            exclude=exclude | schedule.crashed_ever,
        )
        if byzantine is not None:
            # insiders force the hardened configuration on
            params = params.with_overrides(authentication=True)

    result = SupervisedBroadcast(
        network, schedule=schedule, params=params, seed=args.seed,
        adversary=adversary, byzantine=byzantine,
    ).run(packets)

    if args.json:
        import json

        report = supervised_metrics(result)
        report["n"] = float(network.n)
        report["k"] = float(result.k)
        report["crash_frac"] = float(args.crash_frac)
        report["jam_prob"] = float(args.jam_prob)
        report["corrupt_rate"] = float(args.corrupt_rate)
        report["byzantine_frac"] = float(args.byzantine_frac)
        report["byzantine_mode"] = args.byzantine_mode
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if result.success else 1

    stats = result.fault_stats
    rows = [
        ["n / D / Δ",
         f"{network.n} / {network.diameter} / {network.max_degree}"],
        ["k", result.k],
        ["scheduled crashes", len(schedule.crashed_ever)],
        ["crashes applied", stats.get("crashes", 0)],
        ["survivors", len(result.survivors)],
        ["leader", result.leader],
        ["re-elections", result.reelections],
        ["stage retries", result.retries],
        ["tree repairs", result.repairs_run],
        ["packets lost (origin died)", len(result.packets_lost)],
        ["packets undelivered", len(result.packets_undelivered)],
        ["informed fraction (survivors)",
         f"{result.informed_fraction:.3f}"],
        ["coverage (non-lost / k)", f"{result.coverage:.3f}"],
        ["total rounds", result.total_rounds],
        ["watchdog budget", result.round_budget],
        ["watchdog tripped", "YES" if result.watchdog_tripped else "no"],
        ["tx suppressed", stats.get("tx_suppressed", 0)],
        ["rx suppressed (dead/link/jam/adv)",
         f"{stats.get('rx_suppressed_dead', 0)}"
         f"/{stats.get('rx_suppressed_link', 0)}"
         f"/{stats.get('rx_suppressed_jam', 0)}"
         f"/{stats.get('rx_jammed_adversary', 0)}"],
        ["rx corrupted / discarded",
         f"{stats.get('rx_corrupted', 0)}/{result.corrupt_discarded}"],
        ["mis-decodes", result.mis_decodes],
        ["success", "yes" if result.success else "NO"],
    ]
    if byzantine is not None:
        rows[-1:-1] = [
            ["byzantine insiders",
             f"{stats.get('byzantine_nodes', 0)} ({args.byzantine_mode})"],
            ["blacklisted / suspected",
             f"{len(result.blacklisted)}/{len(result.suspected)}"],
            ["rx discarded (auth gate)", result.byzantine_rx_discarded],
            ["forged acks rejected", result.forged_acks_rejected],
            ["poisoned rows attributed", result.poisoned_rows_attributed],
            ["mis-attributions", result.mis_attributions],
        ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"Supervised broadcast on {network.name} "
              f"(crash-frac={args.crash_frac}, preset={args.preset})",
    ))
    return 0 if result.success else 1


def cmd_dynamic(args: argparse.Namespace) -> int:
    from repro.dynamic import BatchedDynamicBroadcast, poisson_arrivals

    network = build_topology(args)
    params = PRESETS[args.preset]()
    arrivals = poisson_arrivals(
        network, rate=args.rate, horizon=args.horizon, seed=args.seed
    )
    result = BatchedDynamicBroadcast(
        network, params=params, seed=args.seed
    ).run(arrivals)

    rows = [
        ["arrivals", len(arrivals)],
        ["batches", result.num_batches],
        ["mean batch size", f"{result.mean_batch_size:.1f}"],
        ["max batch size", result.max_batch_size],
        ["mean latency (rounds)", f"{result.mean_latency:.0f}"],
        ["max latency (rounds)", result.max_latency],
        ["delivered", result.delivered],
        ["failed", result.failed],
        ["throughput (pkt/round)", f"{result.throughput:.5f}"],
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"Batched dynamic broadcast on {network.name} "
              f"(rate={args.rate}, horizon={args.horizon})",
    ))
    return 0 if result.failed == 0 else 1


def cmd_continuous(args: argparse.Namespace) -> int:
    from repro.coding.packets import required_packet_bits
    from repro.dynamic import (
        ChurnBudget,
        ChurnNetwork,
        ContinuousBroadcast,
        ContinuousPolicy,
        PoissonProcess,
        adversarial_churn_schedule,
        random_churn_schedule,
    )

    base = build_topology(args)
    n = base.n

    byz_nodes: list = []
    if args.byzantine_frac > 0:
        count = max(1, int(args.byzantine_frac * n))
        rng = make_rng(args.seed + 17)
        byz_nodes = sorted(
            int(v) for v in rng.choice(n, size=min(count, n - 1),
                                       replace=False)
        )

    churn = None
    adv_spec = None
    if args.adversarial_churn is not None:
        adv_spec, churn = adversarial_churn_schedule(
            base, args.rounds,
            strategy=args.adversarial_churn,
            budget=ChurnBudget(max_events=args.churn_budget),
            seed=args.churn_seed,
            repair_window=args.repair_window,
            exclude=byz_nodes,
        )
    elif args.leave_frac > 0 or args.join_frac > 0 or args.edge_flips > 0:
        churn = random_churn_schedule(
            base, args.rounds, seed=args.churn_seed,
            leave_frac=args.leave_frac, join_frac=args.join_frac,
            edge_flips=args.edge_flips, rejoin_prob=args.rejoin_prob,
        )
    network = ChurnNetwork(base, churn) if churn is not None else base
    params = PRESETS[args.preset]().with_overrides(
        collection_estimate_factor=0.25, mspg_enabled=False,
    )
    if byz_nodes:
        # insiders need the authenticated fault stack: the continuous
        # driver reads network.byzantine to arm conviction/quarantine
        from repro.resilience.byzantine import ByzantineSet
        from repro.resilience.network import DynamicFaultNetwork
        from repro.resilience.schedule import FaultSchedule

        network = DynamicFaultNetwork(
            network,
            schedule=FaultSchedule(),
            seed=args.seed,
            byzantine=ByzantineSet(
                byz_nodes, args.byzantine_mode, authentication=True,
            ),
        )
        params = params.with_overrides(authentication=True)
    process = PoissonProcess(
        rate=args.rate, size_bits=required_packet_bits(base.n),
        seed=args.seed,
    )
    policy = ContinuousPolicy(
        queue_capacity=args.queue_capacity,
        drop_policy=args.drop_policy,
        slo_rounds=args.slo_rounds,
    )
    result = ContinuousBroadcast(
        network, process, policy=policy,
        params=params,
        seed=args.seed + 1,
    ).run(args.rounds)

    summary = result.summary()
    if adv_spec is not None:
        summary["adversarial_churn"] = adv_spec.to_json()
    if byz_nodes:
        summary["byzantine_nodes"] = byz_nodes
    if args.json:
        import json as _json

        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        churn_note = (
            f"{len(churn.events)} churn events"
            + (f" ({args.adversarial_churn} adversary)"
               if adv_spec is not None else "")
            if churn is not None
            else "static topology"
        )
        rows = [
            ["rounds", summary["rounds"]],
            ["arrivals", summary["arrivals"]],
            ["delivered", summary["delivered"]],
            ["throughput (pkt/round)", f"{summary['throughput']:.5f}"],
            ["dropped (queue/handoff/retry)",
             f"{summary['dropped_queue']}/{summary['dropped_handoff']}"
             f"/{summary['dropped_retry']}"],
            ["rejected (backpressure)", summary["rejected"]],
            ["in flight", summary["in_flight"]],
            ["max queue length", summary["max_queue_len"]],
            ["dispatches / repairs / restructures",
             f"{summary['dispatches']}/{summary['repairs']}"
             f"/{summary['restructures']}"],
            ["handoffs", summary["handoffs"]],
            [f"SLO violations (> {policy.slo_rounds} rounds)",
             summary["slo_violations"]],
            ["latency p50 / p99 (rounds)",
             f"{summary['latency_p50']:.0f} / "
             f"{summary['latency_p99']:.0f}"],
            ["accounting exact",
             "yes" if summary["accounting_exact"] else "NO"],
        ]
        if byz_nodes:
            rows += [
                ["insiders (byzantine)",
                 f"{len(byz_nodes)} ({args.byzantine_mode})"],
                ["convictions", len(summary["convictions"])],
                ["mis-decodes / mis-attributions",
                 f"{summary['mis_decodes']}"
                 f"/{summary['mis_attributions']}"],
                ["dropped (quarantine)", summary["dropped_quarantine"]],
            ]
        print(render_table(
            ["metric", "value"], rows,
            title=f"Continuous broadcast on {base.name} "
                  f"(rate={args.rate}, {churn_note})",
        ))
    failures = []
    if not summary["accounting_exact"]:
        failures.append("accounting identity broken")
    if summary["slo_violations"] > args.max_slo_violations:
        failures.append(
            f"{summary['slo_violations']} SLO violation(s) > "
            f"allowed {args.max_slo_violations}"
        )
    if summary.get("mis_decodes", 0):
        failures.append(f"{summary['mis_decodes']} mis-decode(s)")
    if summary.get("mis_attributions", 0):
        failures.append(
            f"{summary['mis_attributions']} mis-attribution(s)"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _add_fuzz_args(parser: argparse.ArgumentParser) -> None:
    """Trial-defining flags shared by ``chaos fuzz`` and ``campaign run``.

    Dests use the ``fz_`` prefix where the parent ``chaos`` parser has
    already planted a default for the natural name (see the subparser
    comment in :func:`main`); ``campaign run`` reuses them unchanged so
    the two front ends build identical :class:`CampaignConfig`\\ s.
    """
    parser.add_argument("--trials", type=int, default=20,
                        help="number of consecutive fuzz seeds")
    parser.add_argument("--seed", dest="fz_seed", type=int, default=0,
                        help="base seed (trial i uses seed base+i)")
    parser.add_argument("--profile", default="medium",
                        choices=["light", "medium", "heavy"],
                        help="fault-intensity profile")
    parser.add_argument("--topology", dest="fz_topology", default="grid",
                        choices=["line", "ring", "star", "clique", "grid",
                                 "tree", "rgg", "gnp"])
    parser.add_argument("--n", dest="fz_n", type=int, default=16)
    parser.add_argument("--rows", dest="fz_rows", type=int, default=4)
    parser.add_argument("--cols", dest="fz_cols", type=int, default=4)
    parser.add_argument("--branching", dest="fz_branching", type=int,
                        default=2)
    parser.add_argument("--depth", dest="fz_depth", type=int, default=4)
    parser.add_argument("--topology-seed", dest="fz_topology_seed",
                        type=int, default=0)
    parser.add_argument("--k", dest="fz_k", type=int, default=6,
                        help="packets per trial")
    parser.add_argument("--workload", dest="fz_workload", default="uniform",
                        choices=["uniform", "single", "hotspot", "all"])
    parser.add_argument("--preset", dest="fz_preset", default="default",
                        choices=sorted(PRESETS))
    parser.add_argument("--ablation", default="none",
                        choices=["none", "no_repair", "leaky_churn",
                                 "amnesiac_blacklist"],
                        help="run with a known-broken configuration "
                             "(CI sanity check that the fuzzer catches it)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: one "
                             "per CPU, capped at 16)")
    parser.add_argument("--round-bound-factor", type=float, default=200.0,
                        help="liveness oracle: allowed multiple of the "
                             "Theorem 2 round bound for clean runs")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of violating campaigns")
    parser.add_argument("--json", dest="fz_json", action="store_true",
                        help="emit the campaign summary as JSON")


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Execution-policy flags for the supervised campaign orchestrator.

    None of these affect the result manifest — reference and recovery
    runs with different supervision settings stay byte-identical.
    """
    parser.add_argument("--max-attempts", type=int, default=4,
                        help="attempts per seed before quarantine")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-trial wall-clock limit in seconds "
                             "(hung workers are killed and the seed "
                             "retried)")
    parser.add_argument("--backoff-base", type=float, default=0.05,
                        help="first retry delay in seconds (doubles "
                             "per attempt)")
    parser.add_argument("--backoff-max", type=float, default=2.0,
                        help="retry delay ceiling in seconds")
    parser.add_argument("--inject-worker-faults", action="store_true",
                        help="self-test: randomly SIGKILL/hang/poison "
                             "this campaign's own workers to prove the "
                             "supervision layer end to end")
    parser.add_argument("--inject-kill-prob", type=float, default=0.3,
                        help="P(worker kills itself on a seed's first "
                             "attempt)")
    parser.add_argument("--inject-hang-prob", type=float, default=0.0,
                        help="P(worker hangs on a seed's first attempt; "
                             "pair with --task-timeout)")
    parser.add_argument("--inject-poison-frac", type=float, default=0.0,
                        help="fraction of seeds that deterministically "
                             "fail (must end up quarantined)")
    parser.add_argument("--inject-seed", type=int, default=0,
                        help="seed for the injected-fault draws")
    parser.add_argument("--inject-hang-seconds", type=float, default=30.0,
                        help="how long an injected hang sleeps")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiple-message broadcast in radio networks "
                    "(Khabbazian & Kowalski, PODC 2011) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print topology parameters")
    _add_common(info)
    info.set_defaults(func=cmd_info)

    run = sub.add_parser("run", help="run the paper's algorithm")
    _add_run_args(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare against baselines")
    _add_run_args(compare)
    compare.set_defaults(func=cmd_compare)

    chaos = sub.add_parser(
        "chaos",
        help="self-healing broadcast under a random crash schedule, "
             "plus fuzz/replay subcommands",
    )
    _add_run_args(chaos, topology_required=False)
    chaos.add_argument("--crash-frac", type=float, default=0.1,
                       help="fraction of eligible nodes to crash")
    chaos.add_argument("--crash-stage", default="bfs",
                       choices=["election", "bfs", "collection",
                                "dissemination"],
                       help="crash when this stage completes")
    chaos.add_argument("--crash-round", type=int, default=None,
                       help="crash at this absolute round instead of a "
                            "stage boundary")
    chaos.add_argument("--allow-leader-crash", action="store_true",
                       help="let the expected leader be crashed too "
                            "(exercises re-election)")
    chaos.add_argument("--jam-prob", type=float, default=0.0,
                       help="reactive jammer: drop each reception in a "
                            "busy round with this probability")
    chaos.add_argument("--corrupt-rate", type=float, default=0.0,
                       help="corruption channel: flip a bit in each "
                            "delivered packet with this probability")
    chaos.add_argument("--jam-budget", type=int, default=None,
                       help="budgeted jammer: total rounds it may "
                            "fully jam, spent on the busiest rounds")
    chaos.add_argument("--byzantine-frac", type=float, default=0.0,
                       help="fraction of eligible nodes running a "
                            "Byzantine behavior mode (authentication "
                            "is forced on when > 0)")
    chaos.add_argument("--byzantine-mode", default="row_poison",
                       choices=list(BYZANTINE_MODES),
                       help="which insider behavior the Byzantine "
                            "nodes run")
    chaos.add_argument("--json", action="store_true",
                       help="emit the degradation report as JSON "
                            "instead of a table (exit codes unchanged)")
    chaos.set_defaults(func=cmd_chaos)

    # Nested subcommands.  Their flags use private dests (fz_*/rp_*)
    # because the parent chaos parser has already planted defaults for
    # the shared names in the namespace, and argparse skips a
    # subparser default whenever the dest is present.
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=False)
    fuzz = chaos_sub.add_parser(
        "fuzz",
        help="run a seeded fuzzing campaign with invariant oracles",
    )
    _add_fuzz_args(fuzz)
    fuzz.add_argument("--artifact-dir", default="chaos-artifacts",
                      help="directory for failure bundles")
    fuzz.add_argument("--checkpoint-dir", default=None,
                      help="journal progress here; an interrupted "
                           "campaign continues with "
                           "'repro campaign resume DIR'")

    replay = chaos_sub.add_parser(
        "replay",
        help="re-execute a failure artifact bit-for-bit",
    )
    replay.add_argument("artifact", help="path to a failure bundle")
    replay.add_argument("--which", default="original",
                        choices=["original", "shrunk"],
                        help="replay the original or the shrunk campaign")
    replay.add_argument("--json", dest="rp_json", action="store_true",
                        help="emit the replay report as JSON")

    campaign = sub.add_parser(
        "campaign",
        help="checkpointed, resumable fuzz campaigns under worker "
             "supervision (survives kill -9; resume is byte-identical)",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )
    crun = campaign_sub.add_parser(
        "run",
        help="run a supervised campaign, journaling every trial",
    )
    crun.add_argument("--dir", required=True,
                      help="checkpoint directory (journal.jsonl + "
                           "manifest.json)")
    _add_fuzz_args(crun)
    _add_supervision_args(crun)
    crun.add_argument("--artifact-dir", default=None,
                      help="failure-bundle directory "
                           "(default: DIR/artifacts)")
    crun.set_defaults(func=cmd_campaign)

    cresume = campaign_sub.add_parser(
        "resume",
        help="continue an interrupted campaign from its journal",
    )
    cresume.add_argument("dir", help="checkpoint directory")
    cresume.add_argument("--workers", type=int, default=None)
    _add_supervision_args(cresume)
    cresume.add_argument("--artifact-dir", default=None,
                         help="failure-bundle directory "
                              "(default: DIR/artifacts)")
    cresume.add_argument("--no-shrink", action="store_true",
                         help="skip delta-debugging of violating "
                              "campaigns")
    cresume.add_argument("--json", dest="fz_json", action="store_true",
                         help="emit the campaign summary as JSON")
    cresume.set_defaults(func=cmd_campaign)

    cstatus = campaign_sub.add_parser(
        "status",
        help="inspect a checkpoint directory without running anything",
    )
    cstatus.add_argument("dir", help="checkpoint directory")
    cstatus.add_argument("--json", dest="fz_json", action="store_true",
                         help="emit the status as JSON")
    cstatus.set_defaults(func=cmd_campaign)

    dynamic = sub.add_parser(
        "dynamic", help="batched dynamic broadcast under Poisson arrivals"
    )
    _add_common(dynamic)
    dynamic.add_argument("--rate", type=float, default=0.001,
                         help="Poisson arrival rate (packets/round)")
    dynamic.add_argument("--horizon", type=int, default=100_000,
                         help="arrival horizon in rounds")
    dynamic.add_argument("--seed", type=int, default=0)
    dynamic.add_argument("--preset", default="default",
                         choices=sorted(PRESETS))
    dynamic.set_defaults(func=cmd_dynamic)

    cont = sub.add_parser(
        "continuous",
        help="open-ended continuous broadcast under churn with SLOs "
             "and backpressure",
    )
    _add_common(cont)
    cont.add_argument("--rate", type=float, default=0.003,
                      help="Poisson arrival rate (packets/round)")
    cont.add_argument("--rounds", type=int, default=5000,
                      help="rounds to run the open-ended stream")
    cont.add_argument("--seed", type=int, default=0)
    cont.add_argument("--preset", default="default",
                      choices=sorted(PRESETS))
    cont.add_argument("--leave-frac", type=float, default=0.0,
                      help="fraction of nodes that depart over the run")
    cont.add_argument("--join-frac", type=float, default=0.0,
                      help="fraction of extra nodes that join mid-run")
    cont.add_argument("--edge-flips", type=int, default=0,
                      help="number of random edge sever/restore events")
    cont.add_argument("--rejoin-prob", type=float, default=0.8,
                      help="probability a leaver rejoins later")
    cont.add_argument("--churn-seed", type=int, default=0,
                      help="seed for the random churn schedule")
    cont.add_argument("--queue-capacity", type=int, default=16,
                      help="per-node ingress queue bound")
    cont.add_argument("--drop-policy", default="drop_newest",
                      choices=["drop_newest", "drop_oldest", "reject"])
    cont.add_argument("--slo-rounds", type=int, default=4096,
                      help="delivery-latency SLO threshold in rounds")
    cont.add_argument("--byzantine-frac", type=float, default=0.0,
                      help="fraction of nodes acting as authenticated "
                           "insiders (0 disables)")
    cont.add_argument("--byzantine-mode", default="row_poison",
                      help="insider behavior (see repro.resilience."
                           "byzantine.BYZANTINE_MODES)")
    cont.add_argument("--adversarial-churn", default=None,
                      choices=["leader_target", "cut_edges",
                               "partition_sync", "combined"],
                      help="replace random churn with a budgeted "
                           "worst-case schedule of this strategy")
    cont.add_argument("--churn-budget", type=int, default=16,
                      help="adversarial churn: max total events")
    cont.add_argument("--repair-window", type=int, default=64,
                      help="adversarial churn: repair window the "
                           "adversary times itself against")
    cont.add_argument("--max-slo-violations", type=int, default=0,
                      help="exit nonzero when SLO violations exceed "
                           "this count")
    cont.add_argument("--json", action="store_true",
                      help="emit the summary as JSON")
    cont.set_defaults(func=cmd_continuous)

    serve = sub.add_parser(
        "serve",
        help="long-running job service: durable queue, supervised "
             "workers, admission control, load shedding, drain on "
             "SIGTERM (survives kill -9)",
    )
    serve.add_argument("--dir", default=None,
                       help="service directory (journal.jsonl, "
                            "manifest.json, spool/, results/)")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent worker processes")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="bounded dispatch queue depth")
    serve.add_argument("--queue-policy", default="reject",
                       choices=["reject", "drop_oldest"],
                       help="what to do when the queue is full: shed "
                            "the new job, or evict the lowest-priority "
                            "oldest one")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       help="per-tenant admission rate in jobs/sec "
                            "(token bucket; default: unlimited)")
    serve.add_argument("--tenant-burst", type=float, default=8.0,
                       help="per-tenant token-bucket burst size")
    serve.add_argument("--max-attempts", type=int, default=4,
                       help="attempts per job before it is failed")
    serve.add_argument("--task-timeout", type=float, default=None,
                       help="per-job wall-clock limit in seconds")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       help="max seconds to wait for in-flight jobs "
                            "on drain (overdue jobs re-queue on the "
                            "next start)")
    serve.add_argument("--idle-exit", action="store_true",
                       help="exit 0 once spool, queue, and workers are "
                            "all empty (batch mode; default: run "
                            "forever)")
    serve.add_argument("--self-test", action="store_true",
                       help="run the service chaos self-test (worker "
                            "kills, daemon kill -9, torn journal tail, "
                            "duplicate replay) and exit")
    serve.add_argument("--inject-worker-faults", action="store_true",
                       help="self-test: randomly SIGKILL/hang/poison "
                            "this service's own workers")
    serve.add_argument("--inject-kill-prob", type=float, default=0.3)
    serve.add_argument("--inject-hang-prob", type=float, default=0.0)
    serve.add_argument("--inject-poison-frac", type=float, default=0.0)
    serve.add_argument("--inject-seed", type=int, default=0)
    serve.add_argument("--inject-hang-seconds", type=float, default=30.0)
    serve.add_argument("--json", action="store_true",
                       help="emit the final snapshot as JSON")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="spool a job for a running (or future) 'repro serve' "
             "daemon; idempotent by job id",
    )
    submit.add_argument("--dir", required=True,
                        help="service directory (the daemon's --dir)")
    submit.add_argument("--file", default=None,
                        help="JSON file holding one job spec or a list "
                             "of them (overrides the flag-built spec)")
    submit.add_argument("--id", default=None,
                        help="job id / idempotency key (default: "
                             "derived from kind+tenant+seed+params)")
    submit.add_argument("--kind", default="noop",
                        choices=["noop", "simulation", "chaos",
                                 "continuous"])
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=1,
                        help="dispatch priority; in degraded mode the "
                             "lowest priorities are shed first")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--count", type=int, default=1,
                        help="submit N jobs with seeds seed..seed+N-1")
    submit.add_argument("--param", action="append", default=[],
                        help="kind-specific parameter as key=value "
                             "(value parsed as JSON when possible); "
                             "repeatable")
    submit.add_argument("--json", action="store_true")
    submit.set_defaults(func=cmd_submit)

    jobs = sub.add_parser(
        "jobs",
        help="inspect a service directory: counters, accounting "
             "identity, quarantines, retries",
    )
    jobs.add_argument("dir", help="service directory")
    jobs.add_argument("--json", action="store_true",
                      help="emit the status as JSON")
    jobs.set_defaults(func=cmd_jobs)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
