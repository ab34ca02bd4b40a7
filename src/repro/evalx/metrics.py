"""Simulated clock tree metrics (worst slew / skew / latency).

The tree is split into buffer stages, and each stage is driven by the
waveform its upstream stage computes at the buffer's input (trimmed to its
transition window), so the composition is electrically exact while every
linear solve stays tiny. All stages run as lanes of one lockstep transient
loop (:mod:`repro.spice.lockstep`); a child stage starts as soon as its
input's transition does. Slew is monitored at *every* node of every stage
— including internal wire nodes — matching the paper's "maximum slew among
all nodes in the clock tree reported by SPICE".
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.spice.lockstep import StageJob, StageOutcome, simulate_stages
from repro.spice.stages import simulate_stage  # noqa: F401  (re-exported for tracing)
from repro.spice.transient import TransientOptions
from repro.tech.technology import Technology
from repro.timing.analysis import LibraryTimingEngine
from repro.timing.waveform import Waveform, ramp_waveform
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import NodeKind, TreeNode
from repro.tree.stages_map import stage_spec_for

#: Default slew of the ideal ramp presented by the clock source.
DEFAULT_SOURCE_SLEW = 60.0e-12


@dataclass
class TreeMetrics:
    """The paper's per-benchmark report (Tables 5.1 / 5.2)."""

    n_sinks: int
    worst_slew: float  # s
    skew: float  # s
    latency: float  # s (max source-to-sink delay)
    min_latency: float  # s
    wirelength: float  # layout units
    n_buffers: int
    sink_arrivals: dict[str, float] = field(default_factory=dict)
    runtime: float = 0.0  # wall-clock seconds of the evaluation
    method: str = "spice"
    #: Sinks whose simulated waveform saturated below the logic threshold
    #: (badly slewed baseline trees): skipped from skew/latency with a
    #: per-node warning instead of aborting the whole evaluation.
    skipped_sinks: list[str] = field(default_factory=list)

    def row(self) -> dict:
        """Flat dict with ps-scaled values, for table rendering."""
        return {
            "sinks": self.n_sinks,
            "worst_slew_ps": self.worst_slew * 1e12,
            "skew_ps": self.skew * 1e12,
            "latency_ns": self.latency * 1e9,
            "buffers": self.n_buffers,
            "wirelength": self.wirelength,
            "skipped_sinks": len(self.skipped_sinks),
        }


def _as_root(tree: ClockTree | TreeNode) -> TreeNode:
    return tree.root if isinstance(tree, ClockTree) else tree


def stage_jobs(
    root: TreeNode,
    tech_for: Callable[[TreeNode], Technology],
    source: Waveform,
) -> tuple[list[StageJob], list[dict[int, TreeNode]]]:
    """The tree's stages as engine jobs, in stack-walk order.

    The walk pops a stage, then pushes the buffers it drives in spec node
    order; jobs are listed in pop order, so each parent precedes its
    children. ``tech_for`` is called once per stage, in that order (Monte
    Carlo draws its per-stage samples there). Also returns each stage's
    map from spec node ids to tree nodes.
    """
    jobs: list[StageJob] = []
    maps: list[dict[int, TreeNode]] = []
    stack: list[tuple[TreeNode, int | None, int]] = [(root, None, 0)]
    while stack:
        stage_root, parent, tap = stack.pop()
        stage_tech = tech_for(stage_root)
        spec, id_map = stage_spec_for(stage_root, stage_tech)
        if not spec.wires and not spec.load_caps and stage_root.kind is NodeKind.SOURCE:
            raise ValueError("source drives nothing")
        index = len(jobs)
        jobs.append(
            StageJob(
                stage_tech,
                spec,
                source=source if parent is None else None,
                parent=parent,
                tap=tap,
                label=stage_root.name,
            )
        )
        maps.append(id_map)
        for node_id, tree_node in id_map.items():
            if tree_node is not stage_root and tree_node.kind is NodeKind.BUFFER:
                stack.append((tree_node, index, node_id))
    return jobs, maps


def sink_arrivals(
    outcomes: list[StageOutcome],
    maps: list[dict[int, TreeNode]],
    threshold: float,
    t_ref: float,
    stacklevel: int = 2,
) -> tuple[dict[str, float], list[str]]:
    """Sink arrivals (s, after ``t_ref``) and saturated sinks, in walk order.

    A badly slewed stage (unbuffered baselines at harsh scales) can
    saturate below the logic threshold; the sink is electrically unusable
    but the rest of the tree is still measurable. Such sinks are skipped
    with a ``RuntimeWarning`` instead of aborting the evaluation.
    """
    arrivals: dict[str, float] = {}
    skipped: list[str] = []
    for outcome, id_map in zip(outcomes, maps):
        for node_id, tree_node in id_map.items():
            if tree_node.kind is not NodeKind.SINK:
                continue
            try:
                arrivals[tree_node.name] = outcome.cross_time(node_id) - t_ref
            except ValueError:
                skipped.append(tree_node.name)
                warnings.warn(
                    f"sink {tree_node.name}: simulated waveform "
                    f"saturates at {outcome.v_final[node_id]:.3f} V, below the "
                    f"{threshold:.3f} V logic threshold; excluded "
                    "from skew/latency",
                    RuntimeWarning,
                    stacklevel=stacklevel + 1,
                )
    return arrivals, skipped


def evaluate_tree(
    tree: ClockTree | TreeNode,
    tech: Technology,
    source_slew: float = DEFAULT_SOURCE_SLEW,
    dt: float = 1.0e-12,
    segment_length: float = 400.0,
) -> TreeMetrics:
    """Simulate the tree with the mini-SPICE substrate and measure it."""
    root = _as_root(tree)
    if root.kind is not NodeKind.SOURCE:
        raise ValueError("evaluate_tree expects a tree rooted at a SOURCE")
    t0 = time.perf_counter()
    source_wave = ramp_waveform(tech.vdd, source_slew, t_start=50.0e-12)
    threshold = tech.logic_threshold_voltage()
    t_ref = source_wave.cross_time(threshold)

    jobs, maps = stage_jobs(root, lambda _: tech, source_wave)
    outcomes = simulate_stages(jobs, TransientOptions(dt=dt), segment_length)
    arrivals, skipped = sink_arrivals(outcomes, maps, threshold, t_ref, stacklevel=2)
    worst_slew = max((o.worst_slew for o in outcomes), default=0.0)

    sinks = root.sinks()
    if set(arrivals) | set(skipped) != {s.name for s in sinks}:
        missing = {s.name for s in sinks} - set(arrivals) - set(skipped)
        raise RuntimeError(f"sinks not reached by simulation: {sorted(missing)}")
    if not arrivals:
        raise RuntimeError(
            "no sink waveform crossed the logic threshold; the tree is"
            " electrically dead"
        )
    values = list(arrivals.values())
    return TreeMetrics(
        n_sinks=len(sinks),
        worst_slew=worst_slew,
        skew=max(values) - min(values),
        latency=max(values),
        min_latency=min(values),
        wirelength=sum(n.wire_to_parent for n in root.walk()),
        n_buffers=len(root.buffers()),
        sink_arrivals=arrivals,
        runtime=time.perf_counter() - t0,
        method="spice",
        skipped_sinks=skipped,
    )


def engine_metrics(
    tree: ClockTree | TreeNode,
    engine: LibraryTimingEngine,
    source_slew: float = DEFAULT_SOURCE_SLEW,
) -> TreeMetrics:
    """Same report computed by the library timing engine (no simulation).

    Used for engine-vs-SPICE accuracy studies and as the fast estimate
    during synthesis experiments.
    """
    root = _as_root(tree)
    t0 = time.perf_counter()
    timing = engine.analyze(root, source_slew)
    arrivals = {s.name: timing.arrivals[s.id].arrival for s in timing.sink_nodes}
    values = list(arrivals.values())
    return TreeMetrics(
        n_sinks=len(timing.sink_nodes),
        worst_slew=timing.worst_slew,
        skew=max(values) - min(values),
        latency=max(values),
        min_latency=min(values),
        wirelength=sum(n.wire_to_parent for n in root.walk()),
        n_buffers=len(root.buffers()),
        sink_arrivals=arrivals,
        runtime=time.perf_counter() - t0,
        method="engine",
    )
