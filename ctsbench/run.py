"""End-to-end benchmark of the clock tree synthesis flow.

Usage, from the repository root::

    python3 ctsbench/run.py --workload flow_verified --seed 1 \
        --seconds 25 --trace 0

Runs one workload in this process with the default serial
``CTSOptions`` and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` inputs run in rounds of one
untraced and one traced job, and the metrics are the per-layer ones. Times are scaled
to a reference host speed sampled while they run (``host_speed.py``).
Exits 1 when any job fails a correctness check, 2 when it cannot run at
all. See ``ctsbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".ctsbench_out"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: No run may outlive this, whatever ``--seconds`` asks for.
WALL_LIMIT_S = 150.0

SETUP_CHILD = """
import json, time
from host_speed import HostSpeed
with HostSpeed() as speed:
    t0 = time.perf_counter()
    from repro.charlib.build import load_default_library
    from repro.core import AggressiveBufferedCTS, CTSOptions
    t1 = time.perf_counter()
    library = load_default_library()
    t2 = time.perf_counter()
    AggressiveBufferedCTS(library=library, options=CTSOptions(workers=0))
    t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2, speed.scale()]))
"""


class CannotRun(Exception):
    """The benchmark cannot measure this checkout."""


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise CannotRun(f"no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise CannotRun(f"imported repro from {repro.__file__}, not {package}")


def pinned_environment() -> None:
    """Refuse every ``REPRO_*`` knob: both sides of a comparison must run
    the program's defaults, not whatever the shell happened to export."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        raise CannotRun(f"unset the program's knobs first: {', '.join(knobs)}")


def measure_setup() -> dict[str, float]:
    """Median fresh-process cost of import + library load + flow object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    samples = []
    for __ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    # Times at the reference host speed (see host_speed), as for jobs.
    return {
        "setup_s": statistics.median(sum(s[:3]) * s[3] for s in samples),
        "setup.import_s": statistics.median(s[0] * s[3] for s in samples),
        "charlib.load_s": statistics.median(s[1] * s[3] for s in samples),
        "wall.setup_s": statistics.median(sum(s[:3]) for s in samples),
    }


def environment() -> dict:
    import numpy
    from bench_workloads import cts_options

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "options": dataclasses.asdict(cts_options()),
    }


def guarded(job, log: list, fn, *args):
    """Run one job; an exception is that job's failure, not the run's."""
    from bench_workloads import JobOutput

    try:
        out = fn(*args)
    except Exception as exc:  # the job boundary: record and carry on
        traceback.print_exc(file=sys.stderr)
        out = JobOutput(0.0, 0, failures=[f"{type(exc).__name__}: {exc}"])
    for message in out.failures:
        print(f"job {job} failed: {message}", file=sys.stderr)
    log.append(out)
    return out


def run(args) -> tuple[dict[str, float], int, int]:
    import bench_workloads as bw
    from bench_trace import Tracer

    workload = bw.WORKLOADS[args.workload]
    setup = measure_setup()
    inputs = workload.job_inputs(args.seed)
    work_dir = OUT / f"{workload.name}-seed{args.seed}"
    started = time.perf_counter()
    timed: list = []  # untraced jobs: the end-to-end timings
    traced: list = []
    checks: list = []  # untimed check jobs
    first: dict[int, object] = {}  # input key -> its first job
    tracer = Tracer() if args.trace else None

    def job(inp, traced_job: bool):
        log = traced if traced_job else timed
        out = guarded(
            len(timed) + len(traced),
            log,
            bw.run_job,
            workload,
            inp,
            work_dir / str(inp.key),
            workload.verify,
            workload.exports,
            inp.key not in first,
        )
        reference = first.setdefault(inp.key, out)
        if out.digest != reference.digest:
            out.failures.append("tree digest differs from an earlier job")
            print(f"input {inp.key}: digest changed on repeat", file=sys.stderr)
        return out

    def fits(per_round: float) -> bool:
        elapsed = time.perf_counter() - started
        return elapsed + per_round <= args.seconds and elapsed < WALL_LIMIT_S

    try:
        # Closed loop, one job at a time, cycling through the inputs
        # while the next round is expected to end within the window.
        if tracer is None:
            # Every input runs at least once, so the quality metrics
            # always cover the same trees.
            while len(timed) < len(inputs) or fits(
                statistics.fmean(o.seconds for o in timed)
            ):
                job(inputs[len(timed) % len(inputs)], False)
            if len(timed) == len(inputs):
                # No input repeated: re-synthesize the first one, untimed,
                # to prove that a repeat gives the same tree.
                repeat = guarded(
                    "repeat", checks, bw.run_job, workload, inputs[0],
                    work_dir / "repeat", False, False, False,
                )
                if repeat.digest != first[inputs[0].key].digest:
                    repeat.failures.append("tree digest differs on repeat")
                    print("repeat: digest changed", file=sys.stderr)
        else:
            # Each round runs one input untraced, then traced.
            while not traced or fits(
                statistics.fmean(o.seconds for o in timed)
                + statistics.fmean(o.seconds for o in traced)
            ):
                inp = inputs[len(traced) % len(inputs)]
                job(inp, False)
                with tracer.job(len(traced)):
                    job(inp, True)
        spots = [
            guarded(
                "spot", checks, bw.run_job, workload, spot,
                work_dir / "spot", True, False, False,
            )
            for spot in workload.spot_inputs(args.seed)
        ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    jobs = timed + traced + checks
    failed = sum(1 for o in jobs if o.failures)
    print(
        f"ctsbench: {len(timed)} timed, {len(traced)} traced and"
        f" {len(checks)} check jobs in {time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    firsts = list(first.values())
    verified = firsts if workload.verify else spots

    def quality(key: str, combine=statistics.fmean, outs=firsts) -> float:
        values = [o.quality[key] for o in outs if key in o.quality]
        return combine(values) if values else 0.0

    if tracer is None:
        seconds = [o.seconds for o in timed]
        metrics = {
            "setup_s": setup["setup_s"],
            "job_p50_s": statistics.median(seconds),
            # A job that raised has no time; only a failed run sums to 0.
            "sinks_per_s": sum(o.n_sinks for o in timed) / (sum(seconds) or 1.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "job_ok_pct": 100.0 * (len(jobs) - failed) / len(jobs),
            "wirelength_mst_ratio": quality("wirelength", sum)
            / sum(inp.mst_length() for inp in inputs),
            "buffers": quality("buffers", sum),
            "model_worst_slew_ps": quality("model_worst_slew_ps", statistics.median),
            "spice_worst_slew_ps": quality(
                "spice_worst_slew_ps", statistics.median, verified
            ),
        }
    else:
        metrics = {
            "charlib.load_s": setup["charlib.load_s"],
            "setup.import_s": setup["setup.import_s"],
            "wall.setup_s": setup["wall.setup_s"],
            "wall.job_p50_s": statistics.median(o.wall_seconds for o in timed),
            "host.speed_scale": statistics.fmean(o.speed_scale for o in timed),
            **tracer.layer_metrics(),
            **{key: quality(key) for key in bw.PROGRAM_COUNTS},
            "tree.export_bytes": statistics.fmean(o.export_bytes for o in traced),
            "trace.overhead_pct": 100.0
            * (
                statistics.median(o.seconds for o in traced)
                / statistics.median(o.seconds for o in timed)
                - 1.0
            ),
            "quality.model_skew_ps": quality("model_skew_ps"),
            "quality.spice_skew_ps": quality("spice_skew_ps", outs=verified),
            "quality.spice_latency_ps": quality("spice_latency_ps", outs=verified),
        }
        meta = {"workload": workload.name, "seed": args.seed, **environment()}
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome(trace_path, meta)
        print(f"trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    return metrics, len(jobs), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pinned_environment()
        load_program()
    except (CannotRun, OSError, ValueError) as exc:
        print(f"ctsbench: cannot run: {exc}", file=sys.stderr)
        return 2
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bw.WORKLOADS)}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    print(json.dumps({"environment": environment()}))
    values, attempted, failed = run(args)
    if set(values) != set(units):
        print(
            "ctsbench: metrics do not match BENCHMARK.json:"
            f" {sorted(set(values) ^ set(units))}",
            file=sys.stderr,
        )
        return 2
    for name in units:
        print(f"{name:32s} {values[name]:16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
