"""Level-batched route finishing: equivalence, properties, descent.

The contract of the route-finishing kernel
(:func:`repro.core.grid_cache._finish_level`):

- synthesis through the level-batched kernel (one structure-of-arrays
  ranking pass per level + lockstep batched descent) is byte-identical —
  tree signature and merge stats — to the per-pair oracle, on blockage,
  H-structure and snaking scenarios;
- results are invariant to how a level is split into batches;
- the batched ranking picks the same argmin cell as the scalar loop
  under ties (property-tested over random tie-rich cases);
- :func:`repro.core.maze_router.descend_many` walks every distance
  field exactly like scalar :meth:`MazeGrid.descend` (the documented
  +x/-x/+y/-y priority), including degenerate windows.
"""

import numpy as np
import pytest

from repro.core.grid_cache import GridCache, route_level
from repro.core.maze_router import MazeGrid, descend_many, rank_candidates
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    RouteTerminal,
    rank_level_cells,
    slew_limited_length,
)
from repro.evalx.perfstats import scaling_scenario
from repro.geom.bbox import BBox
from repro.geom.point import Point
from tests.conftest import (
    assert_matches_oracle,
    random_blocked_grid,
    random_descent_case,
    random_ranking_case,
    run_synthesis,
)


def snaking_scenario():
    """A tight cluster plus one far-flung sink: the top merge's delay
    imbalance exceeds what routing absorbs, forcing balance snaking."""
    gen = np.random.default_rng(7)
    sinks = [
        (Point(float(x), float(y)), 8e-15)
        for x, y in gen.uniform(0, 3000, (24, 2))
    ]
    sinks.append((Point(42000.0, 38000.0), 8e-15))
    blockages = [BBox(15000, 5000, 22000, 30000)]
    return sinks, Point(2000.0, 2000.0), blockages


class TestBatchedEqualsPerPair:
    """The per-pair side is the oracle (``tests.conftest.run_synthesis``)."""

    def test_blockage_scenario_serial(self):
        sinks, source, blockages = scaling_scenario(120, True)
        batched, oracle = assert_matches_oracle(
            sinks, source, blockages=blockages
        )
        # the kernel actually engaged (and the oracle never did)
        assert batched.route_sharing["finish_batches"] > 0
        assert batched.route_sharing["cells_ranked"] > 0
        assert batched.route_sharing["descent_sides"] > 0
        assert oracle.route_sharing["finish_batches"] == 0

    def test_repeat_runs_are_deterministic(self):
        """Two production runs agree on the tree and every route-phase
        counter."""
        sinks, source, blockages = scaling_scenario(120, True)
        first_sig, first = run_synthesis(sinks, source, blockages=blockages)
        again_sig, again = run_synthesis(sinks, source, blockages=blockages)
        assert again_sig == first_sig
        assert again.route_sharing == first.route_sharing

    def test_hstructure_scenario(self):
        """H-structure correction interleaves per-pair re-routing with
        swept levels — the kernel must agree with the oracle through it."""
        sinks, source, blockages = scaling_scenario(60, True)
        batched, __ = assert_matches_oracle(
            sinks, source, blockages=blockages, hstructure="correct"
        )
        assert batched.route_sharing["finish_batches"] > 0

    def test_snaking_scenario(self):
        sinks, source, blockages = snaking_scenario()
        batched, __ = assert_matches_oracle(sinks, source, blockages=blockages)
        assert batched.merge_stats.n_snaked > 0, "scenario must exercise snaking"


class TestBatchSplitInvariance:
    """Batched finishing does not depend on how pairs are grouped."""

    @pytest.fixture(scope="class")
    def routed(self, library):
        options = CTSOptions(router="maze")
        stage_length = slew_limited_length(library, options.target_slew)
        blockages = [
            BBox(4000, -2000, 5000, 1200),
            BBox(9000, 2000, 10500, 9000),
        ]
        gen = np.random.default_rng(11)

        def free_point():
            while True:
                x, y = gen.uniform(0, 14000, 2)
                p = Point(float(x), float(y))
                if not any(r.contains(p) for r in blockages):
                    return p

        pairs = []
        for k in range(8):
            t1 = RouteTerminal(None, free_point(), float(k) * 5e-12, 0.0, "BUF20X")
            t2 = RouteTerminal(None, free_point(), 0.0, 0.0, "BUF20X")
            pairs.append((t1, t2))
        return pairs, library, options, stage_length, blockages

    @staticmethod
    def _route(pairs, library, options, stage_length, blockages):
        return route_level(
            pairs,
            library,
            options,
            stage_length,
            blockages,
            cache=GridCache(blockages),
        )

    def test_one_batch_equals_split_batches_equals_per_pair(self, routed):
        pairs, library, options, stage_length, blockages = routed
        whole = self._route(pairs, library, options, stage_length, blockages)
        split = []
        for chunk in (pairs[:3], pairs[3:5], pairs[5:]):
            split.extend(
                self._route(chunk, library, options, stage_length, blockages)
            )
        from repro.core.merge_routing import route_pair

        single = [
            route_pair(t1, t2, library, options, stage_length, blockages)
            for t1, t2 in pairs
        ]
        for a, b, c in zip(whole, split, single):
            for other in (b, c):
                assert a.meeting_point == other.meeting_point
                assert a.est_left_delay == other.est_left_delay
                assert a.est_right_delay == other.est_right_delay
                assert a.left.polyline.points == other.left.polyline.points
                assert a.right.polyline.points == other.right.polyline.points
                assert a.left.state == other.left.state
                assert a.right.state == other.right.state


class TestRankingProperty:
    """Property: the segmented level ranking picks exactly the scalar
    loop's argmin cell — including under ties (the generator quantizes
    profile delays so exact skew/total ties are common)."""

    N_CASES = 60

    def _cases(self):
        gen = np.random.default_rng(2024)
        return [random_ranking_case(gen) for _ in range(self.N_CASES)]

    def test_batched_ranking_matches_scalar_under_ties(self):
        cases = self._cases()
        scalar_picks = []
        counts, rounded_all, total_all, hops_all = [], [], [], []
        tied_cases = 0
        for dist1, dist2, both, prof1, prof2 in cases:
            cand, k1, k2, d1, d2, pick = rank_candidates(
                dist1, dist2, both, prof1, prof2
            )
            scalar_picks.append(pick)
            skew = np.abs(d1 - d2)
            rounded = np.round(skew, 15)
            if (rounded == rounded.min()).sum() > 1:
                tied_cases += 1
            counts.append(cand.size)
            rounded_all.append(rounded)
            total_all.append(np.maximum(d1, d2))
            hops_all.append(k1 + k2)
        # The generator must actually exercise the tie order, or this
        # test proves nothing about tie-breaking.
        assert tied_cases > self.N_CASES // 4, "tie generator too weak"
        counts = np.array(counts)
        winners = rank_level_cells(
            counts,
            np.concatenate(rounded_all),
            np.concatenate(total_all),
            np.concatenate(hops_all),
        )
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        assert winners.shape == (len(cases),)
        for i, pick in enumerate(scalar_picks):
            assert int(winners[i] - starts[i]) == pick, f"case {i}"

    def test_single_segment_and_single_candidate(self):
        # One pair, one candidate row: the winner is that row.
        assert rank_level_cells(
            np.array([1]), np.zeros(1), np.zeros(1), np.zeros(1)
        ).tolist() == [0]
        # Empty level: no winners.
        assert rank_level_cells(
            np.array([], dtype=int), np.zeros(0), np.zeros(0), np.zeros(0)
        ).size == 0
        with pytest.raises(ValueError):
            rank_level_cells(np.array([0]), np.zeros(0), np.zeros(0), np.zeros(0))


class TestDescend:
    """Direct unit coverage of the distance-field descent — scalar and
    batched — previously covered only through router tests."""

    def test_single_cell_window(self):
        grid = MazeGrid(BBox(0, 0, 0, 0), pitch=100.0)
        assert (grid.nx, grid.ny) == (1, 1)
        dist = grid.bfs((0, 0))
        assert grid.descend(dist, (0, 0)) == [(0, 0)]
        [(ci, cj)] = descend_many([(dist, (0, 0))])
        assert ci.tolist() == [0] and cj.tolist() == [0]

    def test_target_on_window_border(self):
        grid = MazeGrid(BBox(0, 0, 500, 400), pitch=100.0)
        grid.block(BBox(150, 50, 250, 350))
        dist = grid.bfs((0, 0))
        cell = (grid.nx - 1, grid.ny - 1)
        path = grid.descend(dist, cell)
        assert path[0] == (0, 0) and path[-1] == cell
        assert len(path) == dist[cell] + 1
        # Every step is one BFS level and never enters a blocked cell.
        for t, (i, j) in enumerate(path):
            assert dist[i, j] == t
            assert not grid.blocked[i, j]
        [(ci, cj)] = descend_many([(dist, cell)])
        assert list(zip(ci.tolist(), cj.tolist())) == path

    def test_fully_blocked_detour(self):
        """A U-shaped wall: the descent must walk the detour, not the
        straight line."""
        grid = MazeGrid(BBox(0, 0, 600, 600), pitch=100.0)
        # A wall with one open end, between start (0, 3) and target (6, 3).
        grid.block(BBox(250, -50, 350, 450))
        start, cell = (0, 3), (6, 3)
        dist = grid.bfs(start)
        path = grid.descend(dist, cell)
        assert path[0] == start and path[-1] == cell
        assert len(path) == dist[cell] + 1
        manhattan = abs(cell[0] - start[0]) + abs(cell[1] - start[1])
        assert dist[cell] > manhattan  # the wall forced a real detour
        assert not any(grid.blocked[i, j] for i, j in path)
        [(ci, cj)] = descend_many([(dist, cell)])
        assert list(zip(ci.tolist(), cj.tolist())) == path

    def test_unreached_cell_raises(self):
        grid = MazeGrid(BBox(0, 0, 400, 400), pitch=100.0)
        grid.block(BBox(150, -50, 250, 450))  # full wall: right half unreached
        dist = grid.bfs((0, 0))
        assert dist[4, 0] == -1
        with pytest.raises(ValueError):
            grid.descend(dist, (4, 0))
        with pytest.raises(ValueError):
            descend_many([(dist, (4, 0))])

    def test_property_batched_matches_scalar_with_priority(self):
        """Random fields: descend_many equals per-field descend (any
        chunking), and every scalar step takes the *first* qualifying
        neighbor in the documented +x/-x/+y/-y priority."""
        gen = np.random.default_rng(77)
        cases = [random_descent_case(gen) for _ in range(40)]
        scalar_paths = []
        for grid, dist, cell in cases:
            path = grid.descend(dist, cell)
            # Priority property: walking back from the target, the
            # predecessor is the first direction whose neighbor sits one
            # BFS level lower.
            for t in range(len(path) - 1, 0, -1):
                i, j = path[t]
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if (
                        0 <= ni < grid.nx
                        and 0 <= nj < grid.ny
                        and dist[ni, nj] == t - 1
                    ):
                        assert path[t - 1] == (ni, nj)
                        break
            scalar_paths.append(path)
        sides = [(dist, cell) for _, dist, cell in cases]
        for budget in (10**9, 1):  # one big chunk, then one side per chunk
            batched = descend_many(sides, cell_budget=budget)
            for path, (ci, cj) in zip(scalar_paths, batched):
                assert list(zip(ci.tolist(), cj.tolist())) == path
