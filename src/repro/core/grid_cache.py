"""Shared-window routing: level-scoped grid tiles + cross-pair batching.

The route phase of one topology level rasterizes, blocks and searches one
maze window per merge pair. This module is the subsystem that shares that
work across the level instead of throwing it away per pair:

- :class:`GridCache` owns the level's **grid tiles**: each distinct
  (window bbox, resolved pitch) key is rasterized and blocked exactly
  once — through the same :func:`~repro.core.routing_common.build_window`
  arithmetic as per-pair routing, with the pitch-coarsening decision
  resolved by :func:`~repro.core.routing_common.coarsen_pitch` before any
  allocation — and every later request for the key is served the cached
  tile (mask, axes and the lazily built CSR adjacency included). Repeat
  requests are real in the flow: H-structure correction routes the same
  pair once per candidate pairing, and re-estimation re-routes flipped
  pairs. Reuse, pitch-bucket and rasterization counters are kept in
  :class:`SharingStats`.

- :func:`route_level` is the **cross-pair batcher**: it advances every
  pair of a level through the window-expansion search in lockstep rounds
  (round = one windowing + BFS attempt for all still-unrouted pairs,
  answered by the consolidated
  :class:`~repro.core.maze_router.BfsEngine`), then primes every pair's
  :class:`~repro.core.segment_builder.SegmentTables` with **one
  vectorized curve round per level**: the (drive, load, fn) fit curves
  every pair's profile expansion will ask for are evaluated over the
  concatenation of all pairs' length grids and split back — one
  ``partial_curve`` call per distinct triple instead of one per pair per
  triple.

- :func:`_finish_level` is the **route-finishing kernel**: every pair's
  co-reached candidate set goes into structure-of-arrays buffers, the
  level's merge cells are picked by one segmented ranking pass
  (:func:`~repro.core.routing_common.rank_level_cells`, scalar-identical
  tie order), and all winning paths on blocked grids materialize through
  one lockstep batched distance-field descent
  (:func:`~repro.core.maze_router.descend_many`). The per-pair
  :func:`~repro.core.maze_router.finish_maze_route` is its twin, used by
  per-pair routing (:func:`repro.core.maze_router.route_maze`).

Bit-identity contract
---------------------

Shared-window results are byte-identical to routing each pair on its
own (:func:`repro.core.merge_routing.route_pair`):

- window geometry, pitch coarsening, blockage masking and terminal
  snapping run through the exact same functions as per-pair routing;
- BFS answers are per-grid engine calls either way (stacking windows
  into one block-diagonal csgraph call was measured and rejected — see
  :class:`~repro.core.maze_router.BfsEngine`), and path geometry is a
  deterministic descent of the distance field;
- the batched curve rounds evaluate the same contracted polynomial
  element-wise over a concatenation, so each pair's slice equals its
  private evaluation bit for bit.

Because every per-pair computation is replicated exactly and the batch
axis only regroups element-wise work, results are also invariant to how
pairs are split into batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.batch_expand import expand_level
from repro.core.maze_router import (
    _UNREACHED,
    both_reached,
    cells_polylines_many,
    descend_many,
    plan_maze_window,
    staircase_arrays_many,
)
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    MAX_SEARCH_ATTEMPTS,
    MAX_WINDOW_CELLS,
    MazeSearch,
    RoutedPath,
    RouteResult,
    RouteTerminal,
    build_window,
    coarsen_pitch,
    grow_window,
    rank_level_cells,
    snap_cells,
    uses_maze_router,
)
from repro.core.segment_builder import PathBuilder, SegmentTables
from repro.geom.bbox import BBox
from repro.geom.segment import PathPolyline


@dataclass
class SharingStats:
    """Counters of the shared-window subsystem (diagnostics only).

    ``pitch_buckets`` histograms the coarsening depth of served windows:
    bucket k holds windows whose pitch was coarsened 1.5x k times by the
    ``MAX_WINDOW_CELLS`` budget (bucket 0 = the span-derived base pitch).

    Every counter is an integer total, so :meth:`merge` (field-wise sum)
    is order-independent; a checkpoint resume merges the saved counters
    back in with it.
    """

    windows_served: int = 0
    tiles_built: int = 0
    tiles_reused: int = 0
    cells_rasterized: int = 0
    cells_reused: int = 0
    levels: int = 0
    search_rounds: int = 0
    pairs_routed: int = 0
    curve_rounds: int = 0
    curves_evaluated: int = 0
    curve_points: int = 0
    expansion_rounds: int = 0
    expansion_lanes: int = 0
    expansion_runs: int = 0
    expansion_insertions: int = 0
    finish_batches: int = 0
    cells_ranked: int = 0
    descent_sides: int = 0
    descent_cells: int = 0
    pitch_buckets: dict = field(default_factory=dict)

    def note_bucket(self, steps: int) -> None:
        self.pitch_buckets[steps] = self.pitch_buckets.get(steps, 0) + 1

    def merge(self, other: "SharingStats") -> None:
        """Add ``other``'s counts into this one (commutative sums)."""
        for f in fields(self):
            if f.name == "pitch_buckets":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for steps, count in other.pitch_buckets.items():
            self.pitch_buckets[steps] = self.pitch_buckets.get(steps, 0) + count

    def as_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["pitch_buckets"] = {
            str(k): v for k, v in sorted(self.pitch_buckets.items())
        }
        return data


class GridCache:
    """Level-scoped cache of rasterized + blocked routing-grid tiles.

    Keys are the exact window geometry ``(bbox corners, resolved pitch)``;
    values are fully blocked :class:`~repro.core.maze_router.MazeGrid`
    tiles, built once via :func:`build_window` and shared (including the
    lazily cached CSR adjacency) by every window that resolves to the
    same key. Tiles are immutable after construction — nothing in the
    route flow mutates a served grid — which is what makes
    :meth:`MazeGrid.nearest_free`'s documented fallback scan
    deterministic no matter which pair first touched the tile.

    :meth:`reset` starts a new level: tiles are dropped (windows are
    level-scoped; keys recur within a level, not across levels, so
    holding them longer only grows memory), counters persist.
    """

    def __init__(
        self,
        blockages: list[BBox] | None = None,
        cell_cap: int = MAX_WINDOW_CELLS,
        stats: SharingStats | None = None,
    ):
        self.blockages = list(blockages or [])
        self.cell_cap = cell_cap
        self.stats = stats if stats is not None else SharingStats()
        self._tiles: dict[tuple, object] = {}

    def reset(self) -> None:
        """Start a new topology level (drop tiles, keep counters)."""
        self._tiles.clear()
        self.stats.levels += 1

    def window(self, bbox: BBox, pitch: float):
        """A blocked grid for ``bbox`` at the coarsening-resolved pitch.

        Returns ``(grid, resolved_pitch)`` exactly like
        :func:`build_window`; the only difference is that equal keys are
        served the same tile object.
        """
        resolved = coarsen_pitch(bbox, pitch, self.cell_cap)
        key = (bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax, resolved)
        self.stats.windows_served += 1
        grid = self._tiles.get(key)
        if grid is None:
            grid, _ = build_window(bbox, resolved, self.blockages, self.cell_cap)
            self._tiles[key] = grid
            self.stats.tiles_built += 1
            self.stats.cells_rasterized += grid.nx * grid.ny
            # Coarsening depth: resolved = pitch * 1.5^k.
            steps = 0 if resolved == pitch else int(
                round(np.log(resolved / pitch) / np.log(1.5))
            )
            self.stats.note_bucket(steps)
        else:
            self.stats.tiles_reused += 1
            self.stats.cells_reused += grid.nx * grid.ny
        return grid, resolved

    def provider(self):
        """The ``(bbox, pitch) -> (grid, pitch)`` hook for maze searches."""
        return self.window


# ----------------------------------------------------------------------
# The cross-pair level batcher
# ----------------------------------------------------------------------

#: Candidate-row budget of one ranking chunk (see :func:`_finish_level`):
#: large enough that per-call numpy overhead amortizes away (a chunk
#: spans dozens of pairs), small enough that the chunk's ~8 live key
#: arrays stay cache-resident — the ranking is pure streaming passes, so
#: spilling to memory loses to the cache-hot per-pair loop. 32k rows
#: measured fastest on the 1000-sink blockage scenario (0.287 s route
#: phase vs 0.317 s at 256k rows and 0.303 s at 16k).
RANK_ROW_BUDGET = 32_768


@dataclass
class _PairSearch:
    """Lockstep search state of one pair (one window-expansion attempt
    per round until both fronts meet)."""

    index: int
    term1: RouteTerminal
    term2: RouteTerminal
    bbox: BBox
    pitch: float
    margin: float
    search: MazeSearch | None = None
    both: np.ndarray | None = None  # co-reached mask, reused by finish


def _search_rounds(
    pending: list[_PairSearch],
    blockages: list[BBox],
    cache: GridCache,
    stats: SharingStats,
) -> None:
    """Advance all pairs through window-expansion attempts in lockstep.

    Each round serves every still-unrouted pair one window (tile cache),
    snaps its terminals, and runs its BFS pair through the consolidated
    engine; pairs whose fronts met leave the round, the rest grow their
    window around intersecting blockages and re-enter — the same per-pair
    trajectory ``run_maze_search`` walks, just advanced level-wide.
    """
    for _ in range(MAX_SEARCH_ATTEMPTS):
        if not pending:
            return
        stats.search_rounds += 1
        still_pending: list[_PairSearch] = []
        for job in pending:
            grid, job.pitch = cache.window(job.bbox, job.pitch)
            points = [job.term1.point, job.term2.point]
            cells = snap_cells(grid, points, blockages, "terminal")
            dists = grid.bfs_many(cells)
            search = MazeSearch(grid, job.pitch, cells, dists)
            if both_reached(search):
                job.search = search
                continue
            grown = grow_window(job.bbox, blockages, job.margin)
            if grown is None:
                raise RuntimeError("terminals are disconnected by blockages")
            job.bbox = grown
            still_pending.append(job)
        pending = still_pending
    if pending:
        raise RuntimeError("terminals are disconnected by blockages")


def _finish_level(
    primed: list[tuple[_PairSearch, SegmentTables]],
    stats: SharingStats,
    results: list[RouteResult | None],
    builders_by_pair: list[list[PathBuilder]],
) -> None:
    """The level-wide route-finishing kernel (one ranking pass, batched
    descent).

    The batched twin of per-pair :func:`finish_maze_route`: every
    pair's co-reached candidate cells are collected into
    structure-of-arrays buffers (candidate flat index, both sides' step
    counts, pair segment boundaries), the profile costs are gathered with
    one fancy index over the concatenation of all pairs' distance
    profiles, and the merge cells of the whole level are picked by one
    segmented ranking pass (:func:`rank_level_cells`, scalar-identical
    tie order). Winning paths on blocked grids then materialize through
    one lockstep batched descent
    (:func:`repro.core.maze_router.descend_many`); obstacle-free windows
    keep the analytic staircase.

    ``builders_by_pair`` (from the lockstep expansion scheduler,
    :func:`repro.core.batch_expand.expand_level`) supplies each pair's
    two already-expanded profile builders.

    Bit-identity with per-pair finishing: profile evaluation runs the
    same :class:`PathBuilder` state machines over the same primed tables;
    the ranking keys are gathers and element-wise maps of the same
    floats; the refinement compares (never combines) them; the descent
    replicates the scalar neighbor priority on the same distance fields.
    Batching only regroups element-wise work, so results are also
    invariant to how pairs are split into batches.
    """
    if not primed:
        return
    cand_list: list[np.ndarray] = []
    k1_list: list[np.ndarray] = []
    k2_list: list[np.ndarray] = []
    prof1_list: list[np.ndarray] = []
    prof2_list: list[np.ndarray] = []
    for (job, tables), pair_builders in zip(primed, builders_by_pair):
        dist1, dist2 = job.search.dists
        max_k = tables.n_steps - 1
        prof1_list.append(pair_builders[0].delays_view(max_k))
        prof2_list.append(pair_builders[1].delays_view(max_k))
        cand = np.flatnonzero(job.both.ravel())
        cand_list.append(cand)
        k1_list.append(dist1.ravel()[cand])
        k2_list.append(dist2.ravel()[cand])

    # The ranking pass, in pair-group chunks of at most RANK_ROW_BUDGET
    # candidate rows: chunking keeps every key array and profile gather
    # cache-resident (one level's concatenation would stream the whole
    # working set through memory on every pass, losing to the cache-hot
    # per-pair loop) while still amortizing the per-call overhead over
    # thousands of rows. Segments stay whole, so the winners are
    # invariant to the chunk boundaries.
    n_pairs = len(primed)
    kk1 = np.empty(n_pairs, dtype=np.int64)
    kk2 = np.empty(n_pairs, dtype=np.int64)
    best = np.empty(n_pairs, dtype=np.int64)
    est1 = np.empty(n_pairs)
    est2 = np.empty(n_pairs)
    lo = 0
    while lo < n_pairs:
        hi = lo + 1
        rows = cand_list[lo].size
        while hi < n_pairs and rows + cand_list[hi].size <= RANK_ROW_BUDGET:
            rows += cand_list[hi].size
            hi += 1
        counts = np.array([c.size for c in cand_list[lo:hi]], dtype=np.int64)
        k1 = np.concatenate(k1_list[lo:hi])
        k2 = np.concatenate(k2_list[lo:hi])
        # Profile costs: one gather per side over the chunk's
        # concatenated profiles (each pair's rows index its own slice
        # via the segment offset).
        prof_lens = np.array([p.size for p in prof1_list[lo:hi]], dtype=np.int64)
        prof_offs = np.zeros(prof_lens.size, dtype=np.int64)
        np.cumsum(prof_lens[:-1], out=prof_offs[1:])
        row_offs = np.repeat(prof_offs, counts)
        d1 = np.concatenate(prof1_list[lo:hi])[k1 + row_offs]
        d2 = np.concatenate(prof2_list[lo:hi])[k2 + row_offs]
        skew = np.abs(d1 - d2)
        total = np.maximum(d1, d2)
        hops = k1 + k2
        winners = rank_level_cells(counts, np.round(skew, 15), total, hops)
        best[lo:hi] = np.concatenate(cand_list[lo:hi])[winners]
        kk1[lo:hi] = k1[winners]
        kk2[lo:hi] = k2[winners]
        est1[lo:hi] = d1[winners]
        est2[lo:hi] = d2[winners]
        stats.cells_ranked += int(counts.sum())
        lo = hi
    stats.finish_batches += 1

    nys = np.array([job.search.grid.ny for job, _ in primed], dtype=np.int64)
    bi = best // nys
    bj = best % nys

    # Blocked sides join the lockstep batched descent, obstacle-free
    # sides the batched analytic staircase (two per pair, in pair order).
    cells = list(zip(bi.tolist(), bj.tolist()))
    slot: dict[int, int] = {}
    stair_slot: dict[int, int] = {}
    descent_sides: list[tuple[np.ndarray, tuple[int, int]]] = []
    stair_starts: list[tuple[int, int]] = []
    stair_cells: list[tuple[int, int]] = []
    for pos, (job, _) in enumerate(primed):
        if job.search.grid._any_blocked:
            slot[pos] = len(descent_sides)
            descent_sides.append((job.search.dists[0], cells[pos]))
            descent_sides.append((job.search.dists[1], cells[pos]))
        else:
            stair_slot[pos] = len(stair_starts)
            stair_starts.extend(job.search.cells[:2])
            stair_cells.extend((cells[pos], cells[pos]))
    paths = descend_many(descent_sides)
    staircases = staircase_arrays_many(stair_starts, stair_cells)
    stats.descent_sides += len(descent_sides)
    stats.descent_cells += sum(int(ci.size) for ci, _ in paths)

    # All sides' cell sequences compress to polylines in one batched
    # pass (two sides per pair, in pair order).
    firsts: list = []
    side_ci: list[np.ndarray] = []
    side_cj: list[np.ndarray] = []
    side_grids: list = []
    for pos, (job, _) in enumerate(primed):
        grid = job.search.grid
        blocked = grid._any_blocked
        for side, term in enumerate((job.term1, job.term2)):
            if blocked:
                ci, cj = paths[slot[pos] + side]
            else:
                ci, cj = staircases[stair_slot[pos] + side]
            firsts.append(term.point)
            side_ci.append(ci[1:])
            side_cj.append(cj[1:])
            side_grids.append(grid)
    polylines = cells_polylines_many(firsts, side_ci, side_cj, side_grids)

    lines = iter(polylines)
    for (job, _), pair_builders, cell, k1s, k2s, e1, e2, left_pts, right_pts in zip(
        primed,
        builders_by_pair,
        cells,
        kk1.tolist(),
        kk2.tolist(),
        est1.tolist(),
        est2.tolist(),
        lines,
        lines,
    ):
        grid, pitch = job.search.grid, job.search.pitch
        meeting = grid.center(*cell)
        sides: list[RoutedPath] = []
        for builder, term, k_steps, points in (
            (pair_builders[0], job.term1, k1s, left_pts),
            (pair_builders[1], job.term2, k2s, right_pts),
        ):
            if len(points) == 1:
                points.append(meeting)
            sides.append(
                RoutedPath(
                    term,
                    PathPolyline(points),
                    builder.state(k_steps),
                    pitch,
                )
            )
        results[job.index] = RouteResult(
            meeting_point=meeting,
            left=sides[0],
            right=sides[1],
            est_left_delay=e1,
            est_right_delay=e2,
            grid_cells=max(grid.nx, grid.ny),
        )
    stats.pairs_routed += len(primed)


def route_level(
    pairs: list[tuple[RouteTerminal, RouteTerminal] | None],
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
    blockages: list[BBox],
    cache: GridCache | None = None,
) -> list[RouteResult | None]:
    """Route one topology level's merge pairs through shared windows.

    ``pairs`` entries may be ``None`` (coincident or otherwise unroutable
    slots); results come back indexed like the input. Obstacle-free
    profile routing has no windows to share and is dispatched per pair
    unchanged; the maze path runs the lockstep search rounds, the
    lockstep profile-expansion scheduler
    (:func:`repro.core.batch_expand.expand_level` — grouped curve
    rounds + masked insertion sub-rounds), then the level-wide
    finishing kernel (:func:`_finish_level`).
    """
    if cache is None:
        cache = GridCache(blockages)
    stats = cache.stats
    results: list[RouteResult | None] = [None] * len(pairs)
    if not uses_maze_router(options, blockages):
        from repro.core.profile_router import route_profile

        for i, pair in enumerate(pairs):
            if pair is not None:
                results[i] = route_profile(
                    pair[0], pair[1], library, options, stage_length
                )
        return results

    jobs: list[_PairSearch] = []
    for i, pair in enumerate(pairs):
        if pair is None:
            continue
        term1, term2 = pair
        bbox, pitch, margin = plan_maze_window(
            term1.point, term2.point, options, stage_length
        )
        jobs.append(_PairSearch(i, term1, term2, bbox, pitch, margin))

    _search_rounds(list(jobs), blockages, cache, stats)

    primed: list[tuple[_PairSearch, SegmentTables]] = []
    for job in jobs:
        dist1, dist2 = job.search.dists
        job.both = (dist1 != _UNREACHED) & (dist2 != _UNREACHED)
        max_k = int(max(dist1[job.both].max(), dist2[job.both].max()))
        tables = SegmentTables(
            library, job.search.pitch, max_k + 1, options.target_slew
        )
        primed.append((job, tables))

    builders_by_pair = expand_level(primed, library, options, stats)
    _finish_level(primed, stats, results, builders_by_pair)
    return results
