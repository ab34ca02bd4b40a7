"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``synthesize``  — run the aggressive-buffered CTS on a benchmark or a
  generated instance, verify with the mini-SPICE engine, optionally save
  the tree as JSON/DOT/SPICE netlist.
- ``characterize`` — (re)build the delay/slew library for a technology.
- ``bench``       — print one of the paper's tables.

Examples::

    python -m repro synthesize --gsrc r1 --sinks 60
    python -m repro synthesize --random 40 --area 30000 --json tree.json
    python -m repro characterize --wire-scale 10
    python -m repro bench --table 5.2 --scale 30
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clock tree synthesis under aggressive buffer insertion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthesize", help="synthesize and verify a clock tree")
    source = synth.add_mutually_exclusive_group(required=True)
    source.add_argument("--gsrc", metavar="NAME", help="GSRC stand-in (r1..r5)")
    source.add_argument("--ispd", metavar="NAME", help="ISPD stand-in (f11..fnb1)")
    source.add_argument("--random", type=int, metavar="N", help="random instance")
    source.add_argument("--file", metavar="PATH", help="parse a benchmark file")
    synth.add_argument("--sinks", type=int, default=0, help="scale down to N sinks")
    synth.add_argument("--area", type=float, default=40000.0, help="die span (units)")
    synth.add_argument("--seed", type=int, default=1)
    synth.add_argument("--slew-limit", type=float, default=100.0, help="ps")
    synth.add_argument("--hstructure", choices=["reestimate", "correct"])
    synth.add_argument("--router", choices=["profile", "maze"], default="profile")
    synth.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write a resumable snapshot after each topology level",
    )
    synth.add_argument(
        "--resume-from",
        metavar="PATH",
        help="restart synthesis from a checkpoint file (or a checkpoint"
        " directory's latest level); the resumed tree is bit-identical"
        " to an uninterrupted run",
    )
    synth.add_argument(
        "--fault-plan",
        metavar="PLAN",
        help="deterministic fault-injection plan, site:index:mode,..."
        " (testing checkpoint resume; see repro.evalx.faultinject)",
    )
    synth.add_argument("--eval-dt", type=float, default=1.0, help="sim step (ps)")
    synth.add_argument("--json", metavar="PATH", help="save tree as JSON")
    synth.add_argument("--dot", metavar="PATH", help="save tree as Graphviz DOT")
    synth.add_argument("--spice", metavar="PATH", help="save flat SPICE netlist")
    synth.add_argument("--no-eval", action="store_true", help="skip verification")

    char = sub.add_parser("characterize", help="(re)build the delay/slew library")
    char.add_argument("--wire-scale", type=float, default=10.0)
    char.add_argument("--force", action="store_true", help="rebuild even if cached")

    bench = sub.add_parser("bench", help="print one of the paper's tables")
    bench.add_argument("--table", choices=["5.1", "5.2", "5.3"], required=True)
    bench.add_argument("--scale", type=int, default=40, help="sinks per instance")
    bench.add_argument("--full", action="store_true", help="published sizes")

    batch = sub.add_parser(
        "run-batch",
        help="run a manifest of synthesis jobs under supervision"
        " (per-job subprocess, heartbeat watchdog, checkpoint-backed"
        " retry, quarantine; see RESILIENCE.md)",
    )
    batch.add_argument(
        "manifest",
        nargs="?",
        metavar="MANIFEST.json",
        help="batch manifest (jobs, options, policy; repro.jobs.manifest)",
    )
    batch.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="fresh directory for checkpoints, heartbeats, logs and"
        " results (default: <manifest-stem>_run)",
    )
    batch.add_argument(
        "--report",
        metavar="DIR",
        default=None,
        help="summarize an existing run directory's events.jsonl"
        " instead of running a batch",
    )
    batch.add_argument(
        "--job-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per job attempt before SIGKILL"
        " (0 disables; env REPRO_JOB_DEADLINE)",
    )
    batch.add_argument(
        "--job-mem-mb",
        type=float,
        default=None,
        metavar="MIB",
        help="peak-RSS budget per job attempt before SIGKILL"
        " (0 disables; env REPRO_JOB_MEM_MB)",
    )
    batch.add_argument(
        "--job-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per job after the first attempt, each resuming"
        " from the last valid checkpoint, before quarantine"
        " (env REPRO_JOB_RETRIES)",
    )
    batch.add_argument(
        "--heartbeat-stall",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds without a heartbeat change before a job counts as"
        " hung and is killed (0 disables; env REPRO_HEARTBEAT_STALL)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically check determinism and option/CI contracts"
        " (repro-lint; see ANALYSIS.md)",
    )
    from repro.lintx.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _load_instance(args):
    from repro.benchio import gsrc_instance, ispd_instance, random_instance
    from repro.benchio.gsrc import parse_gsrc

    if args.gsrc:
        inst = gsrc_instance(args.gsrc)
    elif args.ispd:
        inst = ispd_instance(args.ispd)
    elif args.random:
        inst = random_instance(args.random, args.area, seed=args.seed)
    else:
        inst = parse_gsrc(Path(args.file))
    if args.sinks:
        inst = inst.scaled_down(args.sinks, seed=args.seed)
    return inst


def _cmd_synthesize(args) -> int:
    from repro.core import AggressiveBufferedCTS, CTSOptions
    from repro.evalx import evaluate_tree
    from repro.tree.export import save_tree_json, tree_to_dot
    from repro.tree.netlist_export import tree_netlist

    inst = _load_instance(args)
    print(f"instance: {inst}")
    options = CTSOptions(
        slew_limit=args.slew_limit * 1e-12,
        hstructure=args.hstructure,
        router=args.router,
        **({} if args.checkpoint_dir is None else {"checkpoint_dir": args.checkpoint_dir}),
        **({} if args.resume_from is None else {"resume_from": args.resume_from}),
        **({} if args.fault_plan is None else {"fault_plan": args.fault_plan}),
    )
    cts = AggressiveBufferedCTS(options=options, blockages=inst.blockages or None)
    result = cts.synthesize(inst.sink_pairs(), inst.source)
    print(result.report())

    violated = False
    if not args.no_eval:
        metrics = evaluate_tree(result.tree, cts.tech, dt=args.eval_dt * 1e-12)
        print(
            f"verified: worst slew {metrics.worst_slew * 1e12:.1f} ps"
            f" (limit {args.slew_limit:.0f}),"
            f" skew {metrics.skew * 1e12:.1f} ps,"
            f" latency {metrics.latency * 1e9:.2f} ns"
        )
        violated = metrics.worst_slew > options.slew_limit
    # Exports come first even on a violation: the failing tree is the
    # one worth inspecting.
    if args.json:
        save_tree_json(result.tree, args.json)
        print(f"tree saved to {args.json}")
    if args.dot:
        Path(args.dot).write_text(tree_to_dot(result.tree))
        print(f"DOT saved to {args.dot}")
    if args.spice:
        Path(args.spice).write_text(tree_netlist(result.tree.root, cts.tech))
        print(f"SPICE netlist saved to {args.spice}")
    if violated:
        print("SLEW CONSTRAINT VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_characterize(args) -> int:
    from repro.charlib import default_library_path, load_default_library
    from repro.tech import default_technology

    tech = default_technology(wire_scale=args.wire_scale)
    library = load_default_library(tech, rebuild=args.force, verbose=True)
    print(f"library for {tech.name}: {len(library.buffer_names)} buffers")
    print(f"cached at {default_library_path(tech)}")
    worst = max(row["rms_error"] for row in library.fit_report())
    print(f"worst fit RMS: {worst * 1e12:.2f} ps")
    return 0


def _cmd_bench(args) -> int:
    from repro.evalx.harness import (
        render_table_5_1,
        render_table_5_2,
        render_table_5_3,
        table_5_1_rows,
        table_5_2_rows,
        table_5_3_rows,
    )

    full = True if args.full else False
    if args.table == "5.1":
        print(render_table_5_1(table_5_1_rows(full=full, scale=args.scale)))
    elif args.table == "5.2":
        print(render_table_5_2(table_5_2_rows(full=full, scale=args.scale)))
    else:
        print(render_table_5_3(table_5_3_rows(full=full, scale=args.scale)))
    return 0


def _cmd_run_batch(args) -> int:
    from repro.jobs import BatchRunner, JobPolicy, load_manifest
    from repro.jobs.runner import run_batch_report

    if args.report is not None:
        print(run_batch_report(args.report))
        return 0
    if not args.manifest:
        print("run-batch needs a MANIFEST.json (or --report DIR)", file=sys.stderr)
        return 2
    manifest = load_manifest(args.manifest)
    # CLI flags outrank the env and the manifest's policy blocks.
    cli_overrides = {
        key: value
        for key, value in (
            ("deadline_s", args.job_deadline),
            ("mem_mb", args.job_mem_mb),
            ("max_retries", args.job_retries),
            ("heartbeat_stall_s", args.heartbeat_stall),
        )
        if value is not None
    }
    run_dir = args.run_dir or f"{Path(args.manifest).stem}_run"
    runner = BatchRunner(
        manifest,
        run_dir,
        policy=JobPolicy(),
        manifest_path=args.manifest,
        final_overrides=cli_overrides,
    )
    batch = runner.run()
    print(run_batch_report(run_dir))
    if batch.quarantined:
        names = ", ".join(o.job_id for o in batch.quarantined)
        print(f"quarantined: {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    from repro.lintx.cli import run

    return run(args)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "synthesize": _cmd_synthesize,
        "characterize": _cmd_characterize,
        "bench": _cmd_bench,
        "run-batch": _cmd_run_batch,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
