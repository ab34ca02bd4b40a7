"""Shared-window routing subsystem: equivalence and determinism.

The contract of :mod:`repro.core.grid_cache`:

- synthesis through the shared-window path (level tile cache + cross-pair
  batcher) is byte-identical — tree signature and merge stats — to the
  per-pair oracle, on blockage, H-structure and snaking scenarios;
- routing results are invariant to how a level is split into batches;
- tiles are immutable and shared: equal window keys are served the same
  grid, and the documented ``nearest_free`` fallback scan is
  deterministic no matter which pair first touched the tile.
"""

import numpy as np
import pytest

from repro.core.grid_cache import GridCache, route_level
from repro.core.maze_router import MazeGrid
from repro.core.options import CTSOptions
from repro.core.routing_common import RouteTerminal, slew_limited_length
from repro.evalx.perfstats import scaling_scenario
from repro.geom.bbox import BBox
from repro.geom.point import Point

from tests.conftest import assert_matches_oracle


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


class TestSharedEqualsPerPair:
    """The per-pair side is the oracle (``tests.conftest.run_synthesis``)."""

    def test_blockage_scenario_serial(self):
        sinks, source, blockages = scaling_scenario(120, True)
        shared, oracle = assert_matches_oracle(
            sinks, source, blockages=blockages
        )
        # the level batcher actually engaged (and the oracle never did)
        assert shared.route_sharing["pairs_routed"] > 0
        assert oracle.route_sharing["pairs_routed"] == 0

    def test_hstructure_scenario(self):
        """H-structure correction re-routes each pair once per candidate
        pairing — the flow where equal window keys genuinely recur."""
        sinks, source, blockages = scaling_scenario(60, True)
        shared, __ = assert_matches_oracle(
            sinks, source, blockages=blockages, hstructure="correct"
        )
        assert shared.route_sharing["tiles_reused"] > 0

    def test_snaking_scenario(self):
        sinks, source, blockages = snaking_scenario()
        shared, __ = assert_matches_oracle(sinks, source, blockages=blockages)
        assert shared.merge_stats.n_snaked > 0, "scenario must exercise snaking"


class TestBatchInvariance:
    """route_level results do not depend on how pairs are grouped."""

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


class TestGridCacheTiles:
    def test_equal_keys_share_one_tile(self):
        blockages = [BBox(300, 300, 900, 900)]
        cache = GridCache(blockages)
        bbox = BBox(0, 0, 2000, 2000)
        g1, p1 = cache.window(bbox, 100.0)
        g2, p2 = cache.window(bbox, 100.0)
        assert g1 is g2 and p1 == p2
        assert cache.stats.tiles_built == 1
        assert cache.stats.tiles_reused == 1
        assert cache.stats.windows_served == 2
        cache.reset()
        g3, __ = cache.window(bbox, 100.0)
        assert g3 is not g1  # tiles are level-scoped
        assert cache.stats.tiles_built == 2

    def test_cached_window_identical_to_fresh_build(self):
        from repro.core.routing_common import build_window

        blockages = [BBox(500, -100, 1500, 700), BBox(90000, 90000, 91000, 91000)]
        bbox = BBox(0, 0, 60000, 45000)  # big enough to force coarsening
        cache = GridCache(blockages)
        cached, cached_pitch = cache.window(bbox, 100.0)
        fresh, fresh_pitch = build_window(bbox, 100.0, blockages)
        assert cached_pitch == fresh_pitch
        assert cached.pitch == fresh.pitch
        assert (cached.nx, cached.ny) == (fresh.nx, fresh.ny)
        assert np.array_equal(cached.blocked, fresh.blocked)
        assert cache.stats.pitch_buckets.get(0, 0) == 0  # pitch was coarsened

    def test_nearest_free_tie_breaks_row_major(self):
        """The documented fallback scan: Manhattan ties resolve to the
        free cell with the lowest i, then the lowest j — identically on
        every window served from the tile."""
        grid = MazeGrid(BBox(0, 0, 400, 400), pitch=100.0)
        # Block the center cell (2, 2); its four neighbors tie at
        # distance 1 and (1, 2) is the row-major winner.
        grid.block(BBox(150, 150, 250, 250))
        assert grid.blocked[2, 2]
        assert grid.nearest_free((2, 2)) == (1, 2)
        # Blocking the winner moves the choice to the next row-major
        # free cell at the same distance.
        grid.blocked[1, 2] = True
        assert grid.nearest_free((2, 2)) == (2, 1)
        # Served twice from a cache, the same mask gives the same answer.
        cache = GridCache([BBox(150, 150, 250, 250)])
        g1, __ = cache.window(BBox(0, 0, 400, 400), 100.0)
        g2, __ = cache.window(BBox(0, 0, 400, 400), 100.0)
        assert g1.nearest_free((2, 2)) == g2.nearest_free((2, 2)) == (1, 2)

    def test_consolidated_engine_matches_reference_on_served_tiles(self):
        """Unit bit-identity of the engine on blocked and unblocked
        windows exactly as the cache serves them."""
        blockages = [BBox(500, 500, 1500, 1500)]
        cache = GridCache(blockages)
        blocked_grid, __ = cache.window(BBox(0, 0, 3000, 3000), 100.0)
        unblocked_grid, __ = cache.window(BBox(5000, 5000, 8000, 8000), 100.0)
        assert blocked_grid._any_blocked
        assert not unblocked_grid._any_blocked
        for grid in (blocked_grid, unblocked_grid):
            free = np.argwhere(~grid.blocked)
            for cell in (tuple(free[0]), tuple(free[len(free) // 2])):
                assert np.array_equal(grid.bfs(cell), grid.bfs_reference(cell))
