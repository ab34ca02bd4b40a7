"""Top-level aggressive-buffered clock tree synthesis (Sec. 4.1, Fig. 4.1).

The flow: level 0 holds the sinks; each level pairs the current sub-trees
with the greedy nearest-neighbor matching and merge-routes every pair,
optionally running H-structure re-estimation/correction on pairs of
merge-rooted sub-trees; odd levels promote a max-latency seed node. The
loop ends when one sub-tree remains, which becomes the network under the
clock SOURCE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.charlib.build import load_default_library
from repro.charlib.library import DelaySlewLibrary
from repro.core.hstructure import correct_pairing, reestimate_pairing
from repro.core.merge_routing import MergeRouter, MergeStats
from repro.core.options import CTSOptions
from repro.core.routing_common import uses_maze_router
from repro.core.topology import EdgeCost, SubTree, greedy_matching
from repro.geom.bbox import BBox
from repro.geom.point import Point, centroid
from repro.tech.buffers import BufferLibrary
from repro.tech.presets import cts_buffer_library, default_technology
from repro.tech.technology import Technology
from repro.timing.analysis import LibraryTimingEngine
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import TreeNode, make_sink, set_tree_recorder
from repro.tree.validate import validate_tree

#: Smallest topology level, in pairs, whose commits advance in lockstep
#: through the batched scheduler (:mod:`repro.core.batch_commit`); below
#: it the lockstep bookkeeping costs more than it saves.
BATCH_COMMIT_MIN_PAIRS = 4

#: Smallest maze-routed level, in pairs, that routes through the
#: shared-window batcher (:mod:`repro.core.grid_cache`). It pays from
#: the first co-routed pair (one curve round either way), so any level
#: with two routable pairs sweeps. Profile-only runs have no windows to
#: share and sweep only for the batched commit.
SHARED_WINDOWS_MIN_PAIRS = 2


@dataclass
class SynthesisResult:
    """A synthesized clock tree plus flow diagnostics."""

    tree: ClockTree
    options: CTSOptions
    runtime: float
    n_flippings: int
    merge_stats: MergeStats
    levels: int
    #: Wall-clock of the route and commit phases plus commit-query totals
    #: and shared-window routing counters (diagnostics — excluded from
    #: cross-mode equivalence comparisons).
    phase_seconds: dict = field(default_factory=dict)
    commit_queries: dict = field(default_factory=dict)
    route_sharing: dict = field(default_factory=dict)
    #: The completed topology level this run restarted after, when it
    #: resumed from a checkpoint; None for a fresh synthesis.
    resumed_from: int | None = None

    def report(self) -> str:
        stats = self.tree.stats()
        lines = [
            f"clock tree: {stats['n_sinks']} sinks, {stats['n_buffers']} buffers,"
            f" wirelength {stats['wirelength']:.0f} units, {self.levels} levels",
            f"buffer mix: {stats['buffers']}",
            f"synthesis time: {self.runtime:.2f} s;"
            f" flippings: {self.n_flippings};"
            f" snaked merges: {self.merge_stats.n_snaked}",
        ]
        if self.resumed_from is not None:
            lines.append(f"resumed from checkpoint after level {self.resumed_from}")
        return "\n".join(lines)


class AggressiveBufferedCTS:
    """The paper's synthesis flow, reusable across benchmarks."""

    def __init__(
        self,
        tech: Technology | None = None,
        buffers: BufferLibrary | None = None,
        library: DelaySlewLibrary | None = None,
        options: CTSOptions | None = None,
        blockages: list[BBox] | None = None,
    ):
        self.tech = tech or default_technology()
        self.buffers = buffers or cts_buffer_library()
        self.library = library or load_default_library(self.tech)
        self.options = options or CTSOptions()
        self.engine = LibraryTimingEngine(
            self.library, self.tech, self.options.virtual_drive
        )
        self.router = MergeRouter(
            self.tech,
            self.library,
            self.buffers,
            self.engine,
            self.options,
            blockages,
        )
        self._cost = EdgeCost(self.options, self.router._delay_per_unit)

    # ------------------------------------------------------------------

    def synthesize(
        self,
        sinks: list[tuple[Point, float]],
        source_location: Point | None = None,
    ) -> SynthesisResult:
        """Synthesize a clock tree over ``(location, capacitance)`` sinks.

        The run executes with a structure-of-arrays mirror of the
        in-flight tree installed (:class:`repro.core.soa_tree.SoaTree`):
        every node creation / attach / detach is echoed into flat numpy
        columns, and the commit phase's bounds-bucket prefill,
        forced-stage-buffer decisions and checkpoint frames read the
        columns instead of walking node objects. :meth:`_synthesize`
        alone runs the same flow on the object walks (the tests'
        equivalence oracle).
        """
        if len(sinks) < 1:
            raise ValueError("need at least one sink")
        from repro.core.soa_tree import SoaTree

        soa = SoaTree()
        previous = set_tree_recorder(soa)
        self.engine.attach_soa(soa)
        try:
            return self._synthesize(sinks, source_location)
        finally:
            set_tree_recorder(previous)
            self.engine.attach_soa(None)

    def _synthesize(
        self,
        sinks: list[tuple[Point, float]],
        source_location: Point | None = None,
    ) -> SynthesisResult:
        t0 = time.perf_counter()
        resumed_from: int | None = None
        if self.options.resume_from is not None:
            level, center, n_flips, n_levels = self._resume(sinks)
            resumed_from = n_levels
        else:
            level = [self._leaf(pt, cap, i) for i, (pt, cap) in enumerate(sinks)]
            center = centroid([s.point for s in level])
            n_flips = 0
            n_levels = 0
        while len(level) > 1:
            n_levels += 1
            self.router.reset_grid_cache()
            pairs, seed = greedy_matching(level, center, self._cost)
            next_level: list[SubTree] = [seed] if seed else []
            maze = uses_maze_router(self.options, self.router.blockages)
            use_batch = len(pairs) >= BATCH_COMMIT_MIN_PAIRS
            use_shared = maze and len(pairs) >= SHARED_WINDOWS_MIN_PAIRS
            if use_batch or use_shared:
                merged_level, level_flips = self._merge_level_swept(pairs, use_batch)
                n_flips += level_flips
                next_level.extend(merged_level)
            else:
                for a, b in pairs:
                    merged = self._merge_pair(a, b)
                    n_flips += merged[1]
                    next_level.extend(merged[0])
            level = next_level
            if self.options.checkpoint_dir is not None:
                self._write_checkpoint(n_levels, level, n_flips, center, sinks)
            self._level_pulse(n_levels)
        root = level[0].root
        if source_location is None:
            source_location = root.location
        root, trunk_wire = self.router.route_trunk(root, source_location)
        tree = ClockTree.from_network(source_location, root, trunk_wire)
        if self.options.validate_every_merge:
            validate_tree(tree.root, expect_source_root=True)
        return SynthesisResult(
            tree=tree,
            options=self.options,
            runtime=time.perf_counter() - t0,
            n_flippings=n_flips,
            merge_stats=self.router.stats,
            levels=n_levels,
            phase_seconds=dict(self.router.phase_seconds),
            commit_queries=self.router.commit_queries.as_dict(),
            route_sharing=self.router.route_sharing.as_dict(),
            resumed_from=resumed_from,
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def _write_checkpoint(
        self,
        n_levels: int,
        level: list[SubTree],
        n_flips: int,
        center: Point,
        sinks: list[tuple[Point, float]],
    ) -> None:
        """Snapshot the flow after one completed topology level."""
        from repro.core.checkpoint import write_checkpoint

        write_checkpoint(
            self.options.checkpoint_dir,
            level=n_levels,
            subtrees=level,
            n_flips=n_flips,
            center=center,
            options=self.options,
            sinks=sinks,
            merge_stats=self.router.stats,
            commit_queries=self.router.commit_queries,
            route_sharing=self.router.route_sharing,
            soa=self.engine._soa,
        )
        if self.options.fault_plan:
            from repro.evalx.faultinject import active_plan

            # ``checkpoint:N:halt`` simulates a kill right after the N-th
            # snapshot landed; SynthesisHalted is a BaseException, so no
            # ``except Exception`` on the way out can swallow it.
            active_plan(self.options.fault_plan).consult("checkpoint")

    def _level_pulse(self, n_levels: int) -> None:
        """Prove liveness after one completed topology level.

        Stamps ``options.heartbeat_file`` (atomically, content changes
        every level) so the job supervisor's staleness watchdog can tell
        a slow level from a hung process. The ``job_hang``/``job_oom``
        fault sites live here — right where a real hang would silence
        the heartbeat — so chaos tests exercise the watchdog for real.
        """
        if self.options.heartbeat_file is not None:
            from repro.jobs.heartbeat import stamp_heartbeat

            stamp_heartbeat(
                self.options.heartbeat_file, f"level:{n_levels}"
            )
        if self.options.fault_plan:
            from repro.evalx.faultinject import active_plan

            plan = active_plan(self.options.fault_plan)
            plan.consult("job_hang")
            plan.consult("job_oom")

    def _resume(
        self, sinks: list[tuple[Point, float]]
    ) -> tuple[list[SubTree], Point, int, int]:
        """Rebuild the level-loop state from ``options.resume_from``.

        Decoded nodes take fresh ids (names are structural, so ids need
        not match the uninterrupted run's), and the timing engine's
        memoized caches are dropped (memoization is order-independent,
        so recomputed entries are bit-identical).
        """
        from repro.core.checkpoint import load_checkpoint

        state = load_checkpoint(
            self.options.resume_from, sinks, self.options, self.buffers
        )
        self.engine.clear_cache()
        self.router.stats = state.merge_stats
        self.router.commit_queries = state.commit_queries
        # ``route_sharing`` is aliased by the router's grid cache — merge
        # the saved counters in rather than swapping the object out.
        self.router.route_sharing.merge(state.route_sharing)
        return (
            state.subtrees,
            Point(*state.center),
            state.n_flips,
            state.levels_done,
        )

    # ------------------------------------------------------------------
    # Swept level merging
    # ------------------------------------------------------------------

    def _merge_level_swept(
        self,
        pairs: list[tuple[SubTree, SubTree]],
        batch_commit: bool,
    ) -> tuple[list[SubTree], int]:
        """Merge one level in phase sweeps instead of pair by pair.

        Three sweeps, each in pair order: (1) the stateful prepare phase
        (H-structure pairs take the full per-pair path here, since their
        re-pairing decisions interleave routing); (2) the pure route
        phase, batched across the level by :meth:`MergeRouter.route_level`;
        (3) the stateful commit phase — every pair's commit state machine
        advanced in lockstep by the batched scheduler when
        ``batch_commit``, pair by pair otherwise. Nodes are created in a
        different order than merging pair by pair would create them; the
        trees are the same, and names are structural, so nothing depends
        on that order.
        """
        n_flips = 0
        prepared: list[tuple[str, object]] = []
        for a, b in pairs:
            if self._is_hstructure_pair(a, b):
                merged, flips = self._merge_pair(a, b)
                n_flips += flips
                prepared.append(("done", merged))
            else:
                prepared.append(("plan", (a, b, self.router.prepare(a.root, b.root))))

        plans = [
            payload[2] if kind == "plan" else None
            for kind, payload in prepared
        ]
        routes = self.router.route_level(plans)

        if batch_commit:
            roots = self._commit_level_batched(prepared, routes)
        else:
            roots = self._commit_level_scalar(prepared, routes)

        merged_level: list[SubTree] = []
        for i, (kind, payload) in enumerate(prepared):
            if kind == "done":
                merged_level.extend(payload)
            else:
                a, b, __ = payload
                merged_level.append(self._subtree(roots[i], (a.root, b.root)))
        return merged_level, n_flips

    def _commit_level_scalar(self, prepared, routes) -> dict[int, TreeNode]:
        """Commit a swept level pair by pair."""
        return {
            i: self.router.commit(payload[2], routes[i])
            for i, (kind, payload) in enumerate(prepared)
            if kind == "plan"
        }

    def _commit_level_batched(self, prepared, routes) -> dict[int, TreeNode]:
        """Commit a swept level in lockstep through the batched scheduler.

        Chain materialization (``commit_prepare``) happens in pair order;
        the scheduler then advances all state machines together, one
        vectorized library round per step.
        """
        from repro.core.batch_commit import BatchCommitScheduler

        t0 = time.perf_counter()
        order = [i for i, (kind, __) in enumerate(prepared) if kind == "plan"]
        states = [
            self.router.commit_prepare(prepared[i][1][2], routes[i])
            for i in order
        ]
        BatchCommitScheduler(self.router).run(states)
        roots = {
            i: self.router.commit_finish(states[pos])
            for pos, i in enumerate(order)
        }
        self.router.phase_seconds["commit"] += time.perf_counter() - t0
        return roots

    # ------------------------------------------------------------------

    def _leaf(self, point: Point, cap: float, index: int) -> SubTree:
        node = make_sink(point, cap, name=f"s{index}")
        return SubTree(node, self.router.subtree_bounds(node))

    def _subtree(
        self, root: TreeNode, parts: tuple[TreeNode, TreeNode] | None
    ) -> SubTree:
        return SubTree(root, self.router.subtree_bounds(root), parts)

    def _is_hstructure_pair(self, a: SubTree, b: SubTree) -> bool:
        """Whether this pair goes through H-structure re-pairing.

        Shared by the per-pair and swept level paths — the swept path
        must route exactly the pairs the per-pair flow would, or the
        bit-identical guarantee breaks.
        """
        return bool(self.options.hstructure and a.parts and b.parts)

    def _merge_pair(
        self, a: SubTree, b: SubTree
    ) -> tuple[list[SubTree], int]:
        """Merge one matched pair; H-structure checking may split it into
        two replacement sub-trees that are then merged normally."""
        if self._is_hstructure_pair(a, b):
            mode = self.options.hstructure
            if mode == "reestimate":
                outcome = reestimate_pairing(self.router, self._cost, a, b)
            else:
                outcome = correct_pairing(self.router, a, b)
            root = self.router.merge(outcome.left_root, outcome.right_root)
            merged = self._subtree(root, (outcome.left_root, outcome.right_root))
            return [merged], (1 if outcome.flipped else 0)
        root = self.router.merge(a.root, b.root)
        return [self._subtree(root, (a.root, b.root))], 0


def synthesize_clock_tree(
    sinks: list[tuple[Point, float]],
    tech: Technology | None = None,
    options: CTSOptions | None = None,
    **kwargs,
) -> SynthesisResult:
    """One-call convenience wrapper around :class:`AggressiveBufferedCTS`."""
    cts = AggressiveBufferedCTS(tech=tech, options=options, **kwargs)
    return cts.synthesize(sinks)
