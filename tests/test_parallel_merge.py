"""Swept levels build the per-pair flow's trees.

A swept topology level creates its nodes phase by phase (every prepare,
then every commit) for all its pairs side by side, in a different order
than merging the level pair by pair. Names are assigned from the final
tree's structure, so the trees, names included, still match the
per-pair flow. This module checks that end to end against the per-pair
oracle (``tests.conftest.run_synthesis``) and unit-covers the matching
tie-breaks it relies on.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing.pool
import multiprocessing.process
import os
import pickle
import subprocess

from repro.core import MergeStats
from repro.core.topology import SubTree, greedy_matching, select_seed
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.timing.analysis import SubtreeBounds
from repro.tree.nodes import make_sink

from tests.conftest import (
    assert_matches_oracle,
    level_gates,
    make_sink_pairs,
    run_synthesis,
)


class TestParallelMatchesSerial:
    """Every level swept (gates at one pair) equals the serial per-pair
    oracle: signature (names included), merge diagnostics, level count
    and flippings."""

    def _assert_identical(self, sinks, blockages=None, **overrides):
        return assert_matches_oracle(
            sinks, blockages=blockages, sweep_all=True, **overrides
        )

    def test_even_level_sizes(self):
        self._assert_identical(make_sink_pairs(16, 30000.0, seed=11))

    def test_odd_level_sizes_promote_seed(self):
        self._assert_identical(make_sink_pairs(9, 30000.0, seed=12))

    def test_with_blockages_maze_router(self):
        blockages = [
            BBox(8000.0, 8000.0, 16000.0, 16000.0),
            BBox(20000.0, 2000.0, 26000.0, 12000.0),
        ]
        clear = [bbox.expanded(1200.0) for bbox in blockages]
        sinks = [
            (p, c)
            for p, c in make_sink_pairs(18, 30000.0, seed=13)
            if not any(region.contains(p) for region in clear)
        ]
        assert len(sinks) >= 10
        result, __ = self._assert_identical(sinks, blockages=blockages)
        assert result.route_sharing["pairs_routed"] > 0

    def test_with_hstructure_correction(self):
        self._assert_identical(
            make_sink_pairs(8, 26000.0, seed=14), hstructure="correct"
        )

    def test_with_hstructure_reestimation(self):
        self._assert_identical(
            make_sink_pairs(12, 26000.0, seed=15), hstructure="reestimate"
        )

    def test_small_levels_fall_back_to_serial(self):
        """Below the level-size gates every level merges pair by pair."""
        sinks = make_sink_pairs(6, 20000.0, seed=16)
        oracle_sig, __ = run_synthesis(sinks, oracle=True)
        with level_gates(64, 64):
            sig, result = run_synthesis(sinks)
        assert sig == oracle_sig
        assert result.commit_queries["batched_rounds"] == 0
        assert len(result.tree.sinks()) == len(sinks)


class TestExecutor:
    """Synthesis executes in the calling process, and the library it
    routes with still pickles exactly."""

    def test_pool_spawn_failure_routes_in_process(self, monkeypatch):
        """A host that cannot fork still finishes with identical results."""

        def refuse(*args, **kwargs):
            raise OSError("Resource temporarily unavailable")

        sinks = make_sink_pairs(10, 24000.0, seed=17)
        oracle_sig, __ = run_synthesis(sinks, oracle=True)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        sig, __ = run_synthesis(sinks, workers=1)
        assert sig == oracle_sig

    def test_library_pickle_round_trip_is_exact(self, library):
        clone = pickle.loads(pickle.dumps(library))
        name = library.buffer_names[0]
        fit = library.single[(name, name)]["wire_slew"]
        fit_clone = clone.single[(name, name)]["wire_slew"]
        probe = (60.0e-12, 1500.0)
        assert fit.predict(*probe) == fit_clone.predict(*probe)
        assert (fit.coeffs == fit_clone.coeffs).all()


class TestMergeStats:
    def test_combine_sums_every_field(self):
        a = MergeStats(1, 2, 3.0, 4, 5, 6, 7)
        b = MergeStats(10, 20, 30.0, 40, 50, 60, 70)
        assert a.combine(b) == MergeStats(11, 22, 33.0, 44, 55, 66, 77)

    def test_combine_with_zero_is_identity(self):
        a = MergeStats(1, 2, 3.0, 4, 5, 6, 7)
        assert a.combine(MergeStats()) == a


class TestTieBreaks:
    def _subtree(self, x, y, delay):
        node = make_sink(Point(x, y), 5e-15)
        return SubTree(node, SubtreeBounds(delay, delay, 0.0))

    def test_select_seed_ties_resolve_to_first(self):
        tied = [self._subtree(0, 0, 5e-12) for _ in range(3)]
        assert select_seed(tied) is tied[0]

    def test_seed_removed_by_identity(self):
        """Equal-comparing sub-trees must not shadow the promoted seed."""
        shared = make_sink(Point(0.0, 0.0), 5e-15)
        bounds = SubtreeBounds(9e-12, 9e-12, 0.0)
        dup_a = SubTree(shared, bounds)
        dup_b = SubTree(shared, bounds)
        other = self._subtree(4000.0, 0.0, 1e-12)
        assert dup_a == dup_b  # precondition: ==-equal, distinct objects

        class Cost:
            alpha = 1.0

            def __call__(self, a, b):
                return a.point.manhattan_to(b.point)

        pairs, seed = greedy_matching([dup_a, dup_b, other], Point(0, 0), Cost())
        assert seed is dup_a  # first max-delay occurrence promoted
        matched = {id(s) for pair in pairs for s in pair}
        assert id(dup_b) in matched and id(dup_a) not in matched
