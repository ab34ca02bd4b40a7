"""Wall-clock scaling measurements for the synthesis hot paths.

Defines the canonical scaling scenarios — clustered register banks at
50/200/1000/4000 sinks, with and without macro blockages — and times
full synthesis runs with two engines:

- ``vectorized``: the current routing engine (sparse-graph BFS, masked
  blocking, bucketed matching, compiled fit evaluators);
- ``reference``: the retained seed implementations (cell-by-cell
  ``block``, queue BFS, O(n^2) matching, interpreted fit evaluation)
  running inside the per-pair flow — every level merged pair by pair
  on the object walks, the equivalence oracle of the batched kernels.

``collect_scaling`` produces a JSON-ready payload with per-scenario
seconds and reference/vectorized speedups; ``write_scaling_json`` emits
``BENCH_cts_scaling.json``, the perf trajectory artifact every future PR
re-measures. Scenario sizes honor ``REPRO_SCALE`` (CI smoke) and
``REPRO_FULL`` the same way the table benches do; reference runs are
additionally capped at ``REPRO_PERF_REF_CAP`` sinks (default 1000)
because the seed engine is the thing being measured as slow.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path

import repro.charlib.build as charlib_build
import repro.charlib.fitting as fitting
import repro.core.cts as cts_mod
import repro.core.maze_router as maze_router_mod
import repro.core.merge_routing as merge_routing_mod
import repro.core.profile_router as profile_router_mod
import repro.core.routing_common as routing_common_mod
from repro.benchio.generator import clustered_instance
from repro.core import topology
from repro.core.cts import AggressiveBufferedCTS
from repro.core.maze_router import MazeGrid
from repro.core.options import CTSOptions
from repro.charlib.library import DelaySlewLibrary
from repro.core.segment_builder import PathBuilderReference, SegmentTablesReference
from repro.evalx.tables import format_table
from repro.geom.bbox import BBox
from repro.geom.point import Point

#: The canonical scaling ladder (sinks per scenario).
SCALING_SIZES = (50, 200, 1000, 4000)

#: Sink density: die edge grows with sqrt(n) so merge spans stay realistic.
AREA_PER_SQRT_SINK = 1200.0

JSON_NAME = "BENCH_cts_scaling.json"


def full_run_requested() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false")


def scaling_sizes(scale: int | None = None) -> list[int]:
    """The scenario sizes to run, honoring the CI smoke budget."""
    if scale is None:
        if full_run_requested():
            return list(SCALING_SIZES)
        env = os.environ.get("REPRO_SCALE", "")
        scale = int(env) if env else None
    if scale is None:
        return list(SCALING_SIZES)
    return sorted({min(n, scale) for n in SCALING_SIZES})


def reference_size_cap() -> int:
    if full_run_requested():
        return max(SCALING_SIZES)
    return int(os.environ.get("REPRO_PERF_REF_CAP", "1000"))


def default_macros(area: float) -> list[BBox]:
    """A representative macro floorplan: six blocks with routing corridors."""
    return [
        BBox(0.12 * area, 0.10 * area, 0.22 * area, 0.45 * area),
        BBox(0.30 * area, 0.33 * area, 0.43 * area, 0.90 * area),
        BBox(0.57 * area, 0.07 * area, 0.67 * area, 0.53 * area),
        BBox(0.72 * area, 0.60 * area, 0.95 * area, 0.70 * area),
        BBox(0.10 * area, 0.65 * area, 0.25 * area, 0.78 * area),
        BBox(0.50 * area, 0.75 * area, 0.62 * area, 0.95 * area),
    ]


def scaling_scenario(
    n_sinks: int, with_blockages: bool, seed: int = 5
) -> tuple[list[tuple[Point, float]], Point, list[BBox]]:
    """Clustered sinks over a density-constant die, pushed off the macros."""
    area = AREA_PER_SQRT_SINK * (n_sinks**0.5)
    instance = clustered_instance(n_sinks, area, seed=seed)
    blockages = default_macros(area) if with_blockages else []
    clear = 0.03 * area
    sinks: list[tuple[Point, float]] = []
    for p, c in instance.sink_pairs():
        for region in blockages:
            if region.expanded(clear).contains(p):
                near_left = abs(p.x - region.xmin) < abs(p.x - region.xmax)
                x = region.xmin - clear if near_left else region.xmax + clear
                p = Point(x, p.y)
        sinks.append((p, c))
    return sinks, instance.source, blockages


def _ref_branch_slews(self, *args):
    timing = self.branch_component(*args)
    return timing.left_slew, timing.right_slew


def _ref_single_wire_slew(self, drive, load, input_slew, length):
    return self.single_wire(drive, load, input_slew, length).wire_slew


def _ref_single_wire_total_delay(self, drive, load, input_slew, length):
    return self.single_wire(drive, load, input_slew, length).total_delay


def _ref_single_wire_delay_slew(self, drive, load, input_slew, length, include):
    timing = self.single_wire(drive, load, input_slew, length)
    delay = timing.wire_delay + (timing.buffer_delay if include else 0.0)
    return delay, timing.wire_slew


@contextmanager
def reference_engine():
    """Swap in the retained seed implementations for baseline timing.

    Patches the grid kernels, the matching, the level-size gates (so
    every level merges pair by pair), the path builder/tables, the
    fit-evaluator compile flag, and the partial library queries (the seed
    always evaluated the full fit set per component); the caller must
    construct its CTS (and hence its library) inside this context and
    run :meth:`AggressiveBufferedCTS._synthesize` (no SoA mirror) so the
    whole per-pair oracle takes effect.
    """
    builder_mods = (maze_router_mod, merge_routing_mod, profile_router_mod)
    lib_partials = (
        "branch_slews",
        "single_wire_slew",
        "single_wire_total_delay",
        "single_wire_delay_slew",
    )
    saved = (
        MazeGrid.bfs,
        MazeGrid.bfs_many,
        MazeGrid.block,
        cts_mod.greedy_matching,
        cts_mod.BATCH_COMMIT_MIN_PAIRS,
        cts_mod.SHARED_WINDOWS_MIN_PAIRS,
        fitting.COMPILE_SCALAR,
        [(m.PathBuilder, m.SegmentTables) for m in builder_mods],
        [getattr(DelaySlewLibrary, name) for name in lib_partials],
    )
    saved_covering = routing_common_mod.covering_blockages
    saved_lib_cache = dict(charlib_build._DEFAULT_CACHE)
    MazeGrid.bfs = MazeGrid.bfs_reference
    MazeGrid.bfs_many = lambda self, starts: [self.bfs(s) for s in starts]
    MazeGrid.block = MazeGrid.block_reference
    # The seed blocked every region against every window (no cell-cover
    # prefilter); bypass the exact-no-op filter so the baseline pays the
    # seed's cost faithfully.
    routing_common_mod.covering_blockages = lambda grid, blockages: list(blockages)
    cts_mod.greedy_matching = topology.greedy_matching_reference
    # The per-pair flow: no level is large enough to sweep.
    cts_mod.BATCH_COMMIT_MIN_PAIRS = cts_mod.SHARED_WINDOWS_MIN_PAIRS = 1 << 62
    fitting.COMPILE_SCALAR = False
    # The default-library cache holds fits built with compiled evaluators;
    # drop it so the baseline constructs interpreted ones.
    charlib_build._DEFAULT_CACHE.clear()
    for mod in builder_mods:
        mod.PathBuilder = PathBuilderReference
        mod.SegmentTables = SegmentTablesReference
    DelaySlewLibrary.branch_slews = _ref_branch_slews
    DelaySlewLibrary.single_wire_slew = _ref_single_wire_slew
    DelaySlewLibrary.single_wire_total_delay = _ref_single_wire_total_delay
    DelaySlewLibrary.single_wire_delay_slew = _ref_single_wire_delay_slew
    try:
        yield
    finally:
        (
            MazeGrid.bfs,
            MazeGrid.bfs_many,
            MazeGrid.block,
            cts_mod.greedy_matching,
            cts_mod.BATCH_COMMIT_MIN_PAIRS,
            cts_mod.SHARED_WINDOWS_MIN_PAIRS,
            fitting.COMPILE_SCALAR,
            builders,
            partials,
        ) = saved
        routing_common_mod.covering_blockages = saved_covering
        for mod, (pb, st) in zip(builder_mods, builders):
            mod.PathBuilder = pb
            mod.SegmentTables = st
        for name, fn in zip(lib_partials, partials):
            setattr(DelaySlewLibrary, name, fn)
        charlib_build._DEFAULT_CACHE.clear()
        charlib_build._DEFAULT_CACHE.update(saved_lib_cache)


def time_synthesis(
    n_sinks: int,
    with_blockages: bool,
    engine: str = "vectorized",
    seed: int = 5,
    repeats: int = 1,
) -> dict:
    """Synthesize one scaling scenario and report wall-clock seconds.

    ``repeats`` takes the fastest of N runs (noise on shared machines is
    strictly additive, so the minimum is the honest estimate).
    """
    if engine not in ("vectorized", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    sinks, source, blockages = scaling_scenario(n_sinks, with_blockages, seed)

    def run() -> dict:
        best = None
        for _ in range(max(1, repeats)):
            cts = AggressiveBufferedCTS(blockages=blockages or None)
            synthesize = (
                cts._synthesize if engine == "reference" else cts.synthesize
            )
            t0 = time.perf_counter()
            result = synthesize(sinks, source)
            seconds = time.perf_counter() - t0
            if best is None or seconds < best[0]:
                best = (seconds, result)
        seconds, result = best
        stats = result.tree.stats()
        queries = result.commit_queries
        return {
            "n_sinks": n_sinks,
            "blockages": with_blockages,
            "engine": engine,
            "seconds": seconds,
            "route_s": result.phase_seconds.get("route"),
            "commit_s": result.phase_seconds.get("commit"),
            "commit_probes": queries.get("search_probes", 0)
            + queries.get("clamp_probes", 0)
            + queries.get("repair_probes", 0),
            "commit_batch_rounds": queries.get("batched_rounds", 0),
            "commit_batch_rows": queries.get("batched_rows", 0),
            "commit_mean_batch_rows": queries.get("mean_batch_rows", 0.0),
            "levels": result.levels,
            "merges": result.merge_stats.n_merges,
            "buffers": stats["n_buffers"],
            "wirelength": stats["wirelength"],
            "route_sharing": result.route_sharing,
        }

    if engine == "reference":
        with reference_engine():
            return run()
    return run()


def collect_scaling(
    sizes: list[int] | None = None,
    reference_cap: int | None = None,
    seed: int = 5,
) -> dict:
    """Time every scenario; pair vectorized and reference runs.

    Reference runs happen only up to ``reference_cap`` sinks (the seed
    engine is quadratic-ish; timing it at every size would dominate the
    bench). Skipped baselines are recorded as ``null`` seconds so the
    JSON shows what was not measured rather than silently omitting it.
    """
    sizes = sizes if sizes is not None else scaling_sizes()
    cap = reference_cap if reference_cap is not None else reference_size_cap()
    samples: list[dict] = []
    speedups: list[dict] = []
    for with_blockages in (False, True):
        for n in sizes:
            vec = time_synthesis(n, with_blockages, "vectorized", seed, repeats=2)
            samples.append(vec)
            if n <= cap:
                ref = time_synthesis(n, with_blockages, "reference", seed)
                samples.append(ref)
                speedups.append(
                    {
                        "n_sinks": n,
                        "blockages": with_blockages,
                        "vectorized_s": vec["seconds"],
                        "reference_s": ref["seconds"],
                        "speedup": ref["seconds"] / vec["seconds"],
                    }
                )
            else:
                speedups.append(
                    {
                        "n_sinks": n,
                        "blockages": with_blockages,
                        "vectorized_s": vec["seconds"],
                        "reference_s": None,
                        "speedup": None,
                    }
                )
    return {
        "bench": "cts_scaling",
        "sizes": sizes,
        "reference_cap": cap,
        "seed": seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "samples": samples,
        "speedups": speedups,
    }


def checkpoint_resume_equivalence(
    n_sinks: int = 200,
    with_blockages: bool = True,
    seed: int = 5,
    halt_after: int = 2,
) -> dict:
    """Clean and halt-at-level-``halt_after``-then-resume runs of one
    scenario, reduced to signatures.

    A synthesis is killed (injected ``checkpoint:N:halt``) right after
    its ``halt_after``-th per-level snapshot landed, then resumed from
    the checkpoint directory; ``clean_tree == resumed_tree`` asserts the
    restart is bit-identical, including node ids/names created before
    the kill.
    """
    import tempfile

    from repro.evalx.faultinject import SynthesisHalted, reset_plans
    from repro.tree.export import tree_signature
    from repro.tree.nodes import peek_node_id

    sinks, source, blockages = scaling_scenario(n_sinks, with_blockages, seed)
    out: dict = {"n_sinks": n_sinks, "blockages": with_blockages}

    cts = AggressiveBufferedCTS(
        options=CTSOptions(),
        blockages=blockages or None,
    )
    base = peek_node_id()
    clean = cts.synthesize(sinks, source)
    out["clean_tree"] = tree_signature(clean.tree, base)
    out["clean_stats"] = clean.merge_stats
    out["clean_levels"] = clean.levels

    with tempfile.TemporaryDirectory() as ckpt_dir:
        reset_plans()
        base = peek_node_id()
        halted = AggressiveBufferedCTS(
            options=CTSOptions(
                checkpoint_dir=ckpt_dir,
                fault_plan=f"checkpoint:{halt_after - 1}:halt",
            ),
            blockages=blockages or None,
        )
        try:
            halted.synthesize(sinks, source)
            raise RuntimeError("injected halt did not fire")
        except SynthesisHalted:
            pass
        out["checkpoints_written"] = len(os.listdir(ckpt_dir))
        reset_plans()
        resumer = AggressiveBufferedCTS(
            options=CTSOptions(resume_from=ckpt_dir),
            blockages=blockages or None,
        )
        resumed = resumer.synthesize(sinks, source)
    out["resumed_tree"] = tree_signature(resumed.tree, base)
    out["resumed_stats"] = resumed.merge_stats
    out["resumed_levels"] = resumed.levels
    out["resumed_from"] = resumed.resumed_from
    return out


def write_scaling_json(payload: dict, results_dir: str | Path | None = None) -> Path:
    """Emit ``BENCH_cts_scaling.json`` under ``benchmarks/results``."""
    if results_dir is None:
        results_dir = Path(__file__).resolve().parents[3] / "benchmarks" / "results"
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def render_scaling(payload: dict) -> str:
    headers = ["sinks", "blockages", "vectorized[s]", "reference[s]", "speedup"]
    body = []
    for row in payload["speedups"]:
        body.append(
            [
                row["n_sinks"],
                "yes" if row["blockages"] else "no",
                round(row["vectorized_s"], 3),
                "-" if row["reference_s"] is None else round(row["reference_s"], 3),
                "-" if row["speedup"] is None else round(row["speedup"], 1),
            ]
        )
    table = format_table(
        headers,
        body,
        title=(
            "CTS synthesis scaling — vectorized engine vs retained seed"
            " reference (same flow, same scenarios)"
        ),
    )
    return table
