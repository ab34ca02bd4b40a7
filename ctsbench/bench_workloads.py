"""Workloads, jobs and the correctness gate of the CTS benchmark.

A workload turns the benchmark seed into a fixed list of job inputs
(sink lists plus blockages — the program sees nothing else) and says
what one job does with them: synthesize, optionally verify with the
mini-SPICE substrate, optionally export. Inputs are generated here
with the program's public generators, and the macro floorplan and sink
clearance are defined here, so the benchmark does not depend on any
program module that exists only to serve older benches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.benchio import clustered_instance, random_instance
from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.evalx import metrics
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.tree import export, netlist_export
from repro.tree.nodes import peek_node_id
from repro.tree.validate import TreeInvariantError, validate_tree

from host_speed import HostSpeed

#: Die span of ``repro synthesize --random`` (CLI default ``--area``).
CLI_AREA = 40000.0
#: Clustered workloads keep sink density constant: die = this * sqrt(n).
AREA_PER_SQRT_SINK = 1200.0
#: Six macros as (xmin, ymin, xmax, ymax) fractions of the die. Macros
#: that face each other leave a corridor of at least 0.08 of the die,
#: wider than the clearance on both sides.
MACROS = (
    (0.08, 0.12, 0.20, 0.42),
    (0.30, 0.30, 0.42, 0.86),
    (0.56, 0.06, 0.68, 0.50),
    (0.76, 0.58, 0.94, 0.70),
    (0.08, 0.60, 0.20, 0.80),
    (0.54, 0.70, 0.66, 0.94),
)
#: Sinks are kept this fraction of the die away from every macro.
CLEARANCE = 0.03
#: Synthesis-only workloads SPICE-verify this many small trees ...
SPOT_TREES = 3
#: ... of this many sinks each.
SPOT_SINKS = 48
#: The CLI's default verification step (``--eval-dt 1``).
EVAL_DT = 1.0e-12


@dataclass
class JobInput:
    key: int
    sinks: list[tuple[Point, float]]
    source: Point
    blockages: list[BBox]

    def mst_length(self) -> float:
        return rectilinear_mst_length([p for p, __ in self.sinks] + [self.source])


def macro_layout(area: float) -> list[BBox]:
    return [
        BBox(x0 * area, y0 * area, x1 * area, y1 * area)
        for x0, y0, x1, y1 in MACROS
    ]


def clear_of_macros(p: Point, macros: list[BBox], area: float) -> Point:
    """Move ``p`` out of every macro grown by the clearance margin.

    A sink inside a grown macro moves to the nearest of the four points
    just past its sides that lies on the die and outside every grown
    macro. The corridors between macros are wider than two margins, so
    one move suffices.
    """
    margin = CLEARANCE * area
    grown = [m.expanded(margin * (1.0 + 1e-6)) for m in macros]
    hit = next((g for g in grown if g.contains(p)), None)
    if hit is None:
        return p
    exits = sorted(
        (
            (abs(p.x - hit.xmin), Point(hit.xmin, p.y)),
            (abs(hit.xmax - p.x), Point(hit.xmax, p.y)),
            (abs(p.y - hit.ymin), Point(p.x, hit.ymin)),
            (abs(hit.ymax - p.y), Point(p.x, hit.ymax)),
        ),
        key=lambda exit: exit[0],
    )
    for __, q in exits:
        on_die = 0.0 <= q.x <= area and 0.0 <= q.y <= area
        if on_die and not any(g.contains(q, tol=-1e-9 * area) for g in grown):
            return q
    raise ValueError(f"no clear spot near sink at {p}")


def clustered_input(key: int, n_sinks: int, blocked: bool) -> JobInput:
    area = AREA_PER_SQRT_SINK * math.sqrt(n_sinks)
    inst = clustered_instance(n_sinks, area, seed=key)
    macros = macro_layout(area) if blocked else []
    sinks = [
        (clear_of_macros(p, macros, area) if macros else p, c)
        for p, c in inst.sink_pairs()
    ]
    return JobInput(key, sinks, inst.source, macros)


def random_input(key: int, n_sinks: int) -> JobInput:
    inst = random_instance(n_sinks, CLI_AREA, seed=key)
    return JobInput(key, inst.sink_pairs(), inst.source, [])


def rectilinear_mst_length(points: list[Point]) -> float:
    """Length of the rectilinear minimum spanning tree over ``points``.

    A property of the input alone (Prim's algorithm, O(n^2) in numpy),
    used to normalize tree wirelength: the ratio moves exactly with the
    tree on a fixed input but varies far less from one input to the
    next than the raw length does.
    """
    xy = np.array([(p.x, p.y) for p in points])
    reached = np.zeros(len(xy), dtype=bool)
    reached[0] = True
    gap = np.abs(xy - xy[0]).sum(axis=1)
    total = 0.0
    for __ in range(len(xy) - 1):
        candidates = np.where(reached, np.inf, gap)
        j = int(np.argmin(candidates))
        total += float(candidates[j])
        reached[j] = True
        gap = np.minimum(gap, np.abs(xy - xy[j]).sum(axis=1))
    return total


def cts_options() -> CTSOptions:
    """The CLI's defaults, serial, for every workload. Blockages switch
    routing to the maze router by themselves (``uses_maze_router``)."""
    return CTSOptions(workers=0)


@dataclass(frozen=True)
class Workload:
    name: str
    n_sinks: int
    #: Distinct inputs per run; the timed loop cycles through them.
    inputs: int
    clustered: bool
    blocked: bool
    #: Jobs SPICE-verify their tree (``evaluate_tree``) ...
    verify: bool
    #: ... and write it as JSON, DOT and a SPICE netlist.
    exports: bool

    def make_input(self, key: int, n_sinks: int | None = None) -> JobInput:
        n = n_sinks or self.n_sinks
        if self.clustered:
            return clustered_input(key, n, self.blocked)
        return random_input(key, n)

    def job_inputs(self, seed: int) -> list[JobInput]:
        return [self.make_input(seed * 1000 + i) for i in range(self.inputs)]

    def spot_inputs(self, seed: int) -> list[JobInput]:
        """Small inputs for the SPICE spot check of workloads that do
        not verify their own trees (same generator, router and
        blockage layout, scaled down to a size SPICE handles quickly)."""
        if self.verify:
            return []
        return [
            self.make_input(seed * 1000 + 999 - i, SPOT_SINKS)
            for i in range(SPOT_TREES)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flow_verified", n_sinks=300, inputs=2, clustered=False,
            blocked=False, verify=True, exports=True,
        ),
        Workload(
            "synth_maze_blockage", n_sinks=4000, inputs=4, clustered=True,
            blocked=True, verify=False, exports=False,
        ),
        Workload(
            "synth_profile_export", n_sinks=4000, inputs=2, clustered=True,
            blocked=False, verify=False, exports=True,
        ),
    )
}


@dataclass
class JobOutput:
    wall_seconds: float
    n_sinks: int
    #: Reference-speed seconds per measured second (see ``host_speed``).
    speed_scale: float = 1.0
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    export_bytes: int = 0

    @property
    def seconds(self) -> float:
        """The job's wall-clock at the reference host speed."""
        return self.wall_seconds * self.speed_scale


def run_job(
    workload: Workload,
    inp: JobInput,
    out_dir: Path,
    verify: bool,
    export_files: bool,
    check_quality: bool,
) -> JobOutput:
    """One job, timed from sink list to finished outputs, then checked.

    The timed region is what ``repro synthesize`` does after its
    set-up: build the flow object, synthesize, verify (when the
    workload does) and write the exports. Checks run after the clock
    stops; the engine-model and export round-trip checks, whose result
    is fixed by the tree's digest, run only when ``check_quality``.
    """
    options = cts_options()
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "tree.json"
    base_id = peek_node_id()
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        cts = AggressiveBufferedCTS(
            options=options, blockages=inp.blockages or None
        )
        result = cts.synthesize(inp.sinks, inp.source)
        verified = None
        if verify:
            verified = metrics.evaluate_tree(result.tree, cts.tech, dt=EVAL_DT)
        if export_files:
            export.save_tree_json(result.tree, json_path)
            (out_dir / "tree.dot").write_text(export.tree_to_dot(result.tree))
            (out_dir / "tree.sp").write_text(
                netlist_export.tree_netlist(result.tree.root, cts.tech)
            )
        seconds = time.perf_counter() - t0

    out = JobOutput(seconds, len(inp.sinks), speed.scale())
    fail = out.failures
    root = result.tree.root
    signature = export.tree_signature(result.tree, base_id)
    out.digest = export.signature_digest(signature)
    try:
        validate_tree(root, expect_source_root=True)
    except TreeInvariantError as exc:
        fail.append(f"invalid tree: {exc}")
    n_tree_sinks = len(root.sinks())
    if n_tree_sinks != len(inp.sinks):
        fail.append(f"tree has {n_tree_sinks} sinks, input {len(inp.sinks)}")
    limit = options.slew_limit
    if verified is not None:
        if verified.skipped_sinks or verified.n_sinks != len(inp.sinks):
            fail.append(f"SPICE did not reach sinks {verified.skipped_sinks}")
        if verified.worst_slew > limit:
            fail.append(f"SPICE worst slew {verified.worst_slew:.4g} s > limit")
        out.quality.update(
            spice_worst_slew_ps=verified.worst_slew * 1e12,
            spice_skew_ps=verified.skew * 1e12,
            spice_latency_ps=verified.latency * 1e12,
        )
    if export_files:
        out.export_bytes = sum(
            (out_dir / name).stat().st_size
            for name in ("tree.json", "tree.dot", "tree.sp")
        )
    if check_quality:
        model = metrics.engine_metrics(result.tree, cts.engine)
        if model.worst_slew > limit:
            fail.append(f"model worst slew {model.worst_slew:.4g} s > limit")
        stats = result.tree.stats()
        out.quality.update(
            wirelength=stats["wirelength"],
            buffers=stats["n_buffers"],
            model_skew_ps=model.skew * 1e12,
            model_worst_slew_ps=model.worst_slew * 1e12,
        )
        out.quality.update(program_counts(result))
        if export_files:
            loaded = export.load_tree_json(json_path, cts.buffers)
            if export.tree_signature(loaded, base_id) != signature:
                fail.append("exported JSON does not round-trip")
    return out


#: Counters read from ``SynthesisResult`` (see :func:`program_counts`).
PROGRAM_COUNTS = (
    "core.levels",
    "core.binary_search_iters",
    "core.commit.probes",
    "core.commit.reuse_ratio",
    "core.route.windows_served",
    "core.route.tile_reuse_ratio",
)


def program_counts(result) -> dict[str, float]:
    """Counters the program reports on its ``SynthesisResult``."""
    queries = result.commit_queries
    probes = (
        queries["search_probes"]
        + queries["clamp_probes"]
        + queries["repair_probes"]
    )
    reused = queries["reused_checks"]
    sharing = result.route_sharing
    served = sharing["windows_served"]
    values = (
        result.levels,
        result.merge_stats.binary_search_iters,
        probes,
        reused / (reused + probes) if probes else 0.0,
        served,
        sharing["tiles_reused"] / served if served else 0.0,
    )
    return dict(zip(PROGRAM_COUNTS, values))
