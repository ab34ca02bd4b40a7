"""Span tracer for the benchmark's traced run.

The tracer wraps public callables of the measured program from the
outside (module attributes and class methods, patched for the duration
of one traced job and restored afterwards), so the program itself is
run unmodified and untraced jobs pay nothing. Spans live in memory —
name, start, end, parent span and job id — and are written out once,
as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.spice.circuit import VDD
from repro.spice.stages import INPUT_NODE

#: (span name, module, attribute path) of every wrapped callable. Span
#: names are ``<layer>.<what>``; the layer is the ``repro`` package the
#: callable lives in.
PATCHES = (
    ("core.synthesize", "repro.core.cts", "AggressiveBufferedCTS.synthesize"),
    ("core.matching", "repro.core.cts", "greedy_matching"),
    ("core.prepare", "repro.core.merge_routing", "MergeRouter.prepare"),
    ("core.merge", "repro.core.merge_routing", "MergeRouter.merge"),
    ("core.route", "repro.core.merge_routing", "MergeRouter.route_level"),
    ("core.route", "repro.core.merge_routing", "MergeRouter.route_plan"),
    ("core.commit", "repro.core.merge_routing", "MergeRouter.commit"),
    ("core.commit", "repro.core.merge_routing", "MergeRouter.commit_prepare"),
    ("core.commit", "repro.core.merge_routing", "MergeRouter.commit_finish"),
    ("core.commit", "repro.core.batch_commit", "BatchCommitScheduler.run"),
    ("core.bounds", "repro.core.merge_routing", "MergeRouter.subtree_bounds"),
    ("core.trunk", "repro.core.merge_routing", "MergeRouter.route_trunk"),
    ("core.renumber", "repro.core.parallel_merge", "renumber_subtrees"),
    ("evalx.verify", "repro.evalx.metrics", "evaluate_tree"),
    ("spice.stage", "repro.evalx.metrics", "simulate_stage"),
    ("tree.stage_spec", "repro.evalx.metrics", "stage_spec_for"),
    ("tree.export_json", "repro.tree.export", "save_tree_json"),
    ("tree.export_dot", "repro.tree.export", "tree_to_dot"),
    ("tree.export_spice", "repro.tree.netlist_export", "tree_netlist"),
)

#: Phases of ``core.synthesize``, each reported as ``core.<phase>_s``.
CORE_PHASES = (
    "matching",
    "prepare",
    "merge",
    "route",
    "commit",
    "bounds",
    "renumber",
    "trunk",
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with call-site patching."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.origin = perf_counter()
        self._stack: list[int] = []
        self._job = 0
        #: Totals that spans alone cannot give (SPICE steps, unknowns).
        self.counters = {"steps": 0, "unknowns": 0}

    def _record(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, perf_counter(), 0.0, parent, self._job)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._record(name, fn, *args, **kwargs)
            if name == "spice.stage":
                self._count_stage(result)
            return result

        return traced

    def _count_stage(self, sim) -> None:
        result = sim.result
        known = sum(1 for n in (INPUT_NODE, VDD) if n in result.node_index)
        self.counters["steps"] += len(result.times)
        self.counters["unknowns"] += len(result.node_index) - known

    @contextmanager
    def job(self, job_id: int):
        """Trace one job: install every wrapper, restore them on exit."""
        saved = []
        for name, module, path in PATCHES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self._job = job_id
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def write_chrome(self, path: Path, meta: dict) -> None:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - self.origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 1,
                "tid": s.job,
                "args": {"span": s.sid, "parent": s.parent, "job": s.job},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": meta}))

    def layer_metrics(self) -> dict[str, float]:
        """Per-job span totals, self times and stage latencies.

        Span times are summed over every traced job and divided by the
        number of jobs. A group's time counts only its outermost spans, so
        ``MergeRouter.route_plan`` inside ``route_level`` is not counted
        twice. Self time is a span's duration minus its children's.
        """
        jobs = sorted({s.job for s in self.spans}) or [0]
        per_job = 1.0 / len(jobs)
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds

        def nested_in_same(s: Span) -> bool:
            p = s.parent
            while p is not None:
                if self.spans[p].name == s.name:
                    return True
                p = self.spans[p].parent
            return False

        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            layer = s.name.split(".", 1)[0]
            self_time[layer] = (
                self_time.get(layer, 0.0) + s.seconds - child_time[s.sid]
            )
            if not nested_in_same(s):
                totals[s.name] = totals.get(s.name, 0.0) + s.seconds

        synth_children = sum(
            s.seconds
            for s in self.spans
            if s.parent is not None
            and self.spans[s.parent].name == "core.synthesize"
        )
        out = {
            f"core.{phase}_s": totals.get(f"core.{phase}", 0.0) * per_job
            for phase in ("synthesize",) + CORE_PHASES
        }
        out["core.prepare.calls"] = calls.get("core.prepare", 0) * per_job
        out["core.bounds.calls"] = calls.get("core.bounds", 0) * per_job
        synth = totals.get("core.synthesize", 0.0)
        unattributed = synth - synth_children
        out["core.unattributed_s"] = unattributed * per_job
        out["core.unattributed_pct"] = 100.0 * unattributed / synth if synth else 0.0

        verify = totals.get("evalx.verify", 0.0)
        stage = totals.get("spice.stage", 0.0)
        spec = totals.get("tree.stage_spec", 0.0)
        out["evalx.verify_s"] = verify * per_job
        out["spice.stage_s"] = stage * per_job
        out["tree.stage_spec_s"] = spec * per_job
        out["evalx.verify_other_s"] = (verify - stage - spec) * per_job
        stages = calls.get("tree.stage_spec", 0)
        sim_calls = calls.get("spice.stage", 0)
        steps = self.counters["steps"]
        unknowns = self.counters["unknowns"]
        out["spice.stages"] = stages * per_job
        out["spice.sim_calls"] = sim_calls * per_job
        out["spice.resim_ratio"] = (sim_calls - stages) / stages if stages else 0.0
        out["spice.steps"] = steps * per_job
        out["spice.unknowns"] = unknowns * per_job
        out["spice.steps_per_s"] = steps / stage if stage else 0.0
        stage_ms = sorted(
            s.seconds * 1e3 for s in self.spans if s.name == "spice.stage"
        )
        if len(stage_ms) >= 2:
            cuts = statistics.quantiles(stage_ms, n=100, method="inclusive")
            out["spice.stage_p50_ms"] = statistics.median(stage_ms)
            out["spice.stage_p99_ms"] = cuts[98]
        else:
            out["spice.stage_p50_ms"] = stage_ms[0] if stage_ms else 0.0
            out["spice.stage_p99_ms"] = out["spice.stage_p50_ms"]

        for kind in ("json", "dot", "spice"):
            out[f"tree.export_{kind}_s"] = (
                totals.get(f"tree.export_{kind}", 0.0) * per_job
            )
        for layer in ("core", "evalx", "spice", "tree"):
            out[f"{layer}.self_s"] = self_time.get(layer, 0.0) * per_job
        return out
