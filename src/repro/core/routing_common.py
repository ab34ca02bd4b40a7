"""Shared types and helpers for the two merge-routers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.charlib.library import DelaySlewLibrary
from repro.core.options import CTSOptions
from repro.core.segment_builder import PathState
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.geom.segment import PathPolyline
from repro.tree.nodes import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.maze_router import MazeGrid

#: Per-window cell budget; above it the pitch is coarsened 1.5x at a time.
MAX_WINDOW_CELLS = 80_000

#: Window-expansion attempts before terminals count as disconnected —
#: one retry budget shared by the per-pair search loop and the
#: shared-window level batcher (they must agree or bit-identity breaks).
MAX_SEARCH_ATTEMPTS = 4


def uses_maze_router(options, blockages) -> bool:
    """Whether a merge routes through the maze router (vs the profile
    router) — the one dispatch predicate shared by ``route_pair``, the
    level batcher and the flow's sweep gating."""
    return options.router == "maze" or bool(blockages)


@dataclass
class RouteTerminal:
    """One sub-tree root as seen by the router.

    Routing itself only reads the scalar fields (point, delays, load
    type); ``node`` is carried along so the commit phase can materialize
    the buffer chain onto the right sub-tree.
    """

    node: TreeNode | None
    point: Point
    base_delay: float  # max delay from this point to the sub-tree's sinks
    min_delay: float  # min delay (for skew bookkeeping)
    load_name: str  # library load type approximating the root's stage cap


@dataclass
class RoutedPath:
    """One side of a routed merge: geometry plus buffer plan."""

    terminal: RouteTerminal
    polyline: PathPolyline  # from the terminal's point to the meeting point
    state: PathState  # expansion snapshot at the meeting distance
    step: float  # grid pitch used for this route

    @property
    def arc_length(self) -> float:
        return self.polyline.length


@dataclass
class RouteResult:
    """Output of the routing stage (input to binary search)."""

    meeting_point: Point
    left: RoutedPath
    right: RoutedPath
    est_left_delay: float  # delay estimate through the left side at meeting
    est_right_delay: float
    grid_cells: int  # diagnostics: per-dimension cell count used

    @property
    def est_skew(self) -> float:
        return abs(self.est_left_delay - self.est_right_delay)


def slew_limited_length(
    library: DelaySlewLibrary, target_slew: float, resolution: int = 200
) -> float:
    """Longest single wire any buffer can drive within the slew target.

    Used to size routing grids so a slew-limited stage always spans
    several cells (the paper's dynamic grid-size adjustment) and to cap
    the collapsed capacitance of unbuffered stages.
    """
    best = 0.0
    for drive in library.buffer_names:
        fit = library.single[(drive, drive)]["wire_slew"]
        lo, hi = float(fit.lo[1]), float(fit.hi[1])
        lengths = np.linspace(lo, hi, resolution)
        slews = fit.predict_many(
            np.column_stack([np.full(resolution, target_slew), lengths])
        )
        ok = lengths[slews <= target_slew]
        if ok.size:
            best = max(best, float(ok.max()))
    if best <= 0:
        raise ValueError("no buffer can satisfy the slew target at any length")
    return best


def choose_pitch(span: float, options: CTSOptions, stage_length: float) -> tuple[float, int]:
    """Grid pitch and per-dimension cell count for a route of ``span``.

    Default R = ``options.grid_resolution`` cells; for long routes the
    count grows so a slew-limited stage covers at least
    ``options.target_cells_per_stage`` cells, capped at
    ``options.max_grid_cells`` (the paper: "if the distance of two merging
    nodes is large, the routing grid size can increase dynamically").
    """
    if span <= 0:
        raise ValueError("span must be positive")
    n = options.grid_resolution
    pitch_cap = stage_length / options.target_cells_per_stage
    if span / n > pitch_cap:
        n = int(np.ceil(span / pitch_cap))
    n = min(n, options.max_grid_cells)
    return span / n, n


def grow_window(bbox: BBox, blockages: list[BBox], margin: float) -> BBox | None:
    """One step of blockage-driven window expansion.

    A blockage can wall off a routing window even though a detour exists
    just outside it; the window grows around every intersecting blockage.
    Returns the grown window, or ``None`` when no blockage forces growth
    (the window is as large as it will ever get).
    """
    expanded = bbox
    for region in blockages:
        if region.intersects(bbox):
            expanded = expanded.union(region.expanded(2.0 * margin))
    if expanded.width == bbox.width and expanded.height == bbox.height:
        return None
    return expanded


@dataclass
class MazeSearch:
    """Result of a windowed maze search: the final grid plus per-source BFS."""

    grid: "MazeGrid"
    pitch: float
    cells: list[tuple[int, int]]  # grid cells of the input points, in order
    dists: list[np.ndarray]  # BFS step distances, one per source


def coarsen_pitch(bbox: BBox, pitch: float, cell_cap: int = MAX_WINDOW_CELLS) -> float:
    """The ``MAX_WINDOW_CELLS`` pitch-coarsening decision, as arithmetic.

    Replicates (float operation for float operation) the seed's loop of
    building a grid and coarsening 1.5x while the cell count exceeds the
    cap — without allocating the thrown-away grids. Both private
    per-pair windows and the shared-window tile cache resolve window pitches
    through this one function, so their coarsening decisions are
    identical by construction.
    """
    nx = int(np.ceil(bbox.width / pitch)) + 1
    ny = int(np.ceil(bbox.height / pitch)) + 1
    while nx * ny > cell_cap:
        pitch *= 1.5
        nx = int(np.ceil(bbox.width / pitch)) + 1
        ny = int(np.ceil(bbox.height / pitch)) + 1
    return pitch


def covering_blockages(grid: "MazeGrid", blockages: list[BBox]) -> list[BBox]:
    """The blockages that can mark at least one cell center of ``grid``.

    Cell centers span ``[xmin, xmin + (nx-1)*pitch] x [ymin, ...]`` (the
    ceil-sized grid overhangs its bbox by up to one pitch); a region
    outside that cover is an exact no-op for :meth:`MazeGrid.block`, so
    filtering it out leaves the blocked mask byte-identical. Order is
    preserved.
    """
    x_hi = grid.bbox.xmin + (grid.nx - 1) * grid.pitch
    y_hi = grid.bbox.ymin + (grid.ny - 1) * grid.pitch
    return [
        region
        for region in blockages
        if region.xmax >= grid.bbox.xmin
        and region.xmin <= x_hi
        and region.ymax >= grid.bbox.ymin
        and region.ymin <= y_hi
    ]


def build_window(
    bbox: BBox,
    pitch: float,
    blockages: list[BBox],
    cell_cap: int = MAX_WINDOW_CELLS,
):
    """Rasterize + block one private routing window.

    Returns ``(grid, resolved_pitch)``. The shared-window subsystem
    (:class:`repro.core.grid_cache.GridCache`) wraps this same function
    behind a tile cache, so a cached window and a freshly built one are
    the same object graph.
    """
    from repro.core.maze_router import MazeGrid  # deferred: avoids an import cycle

    pitch = coarsen_pitch(bbox, pitch, cell_cap)
    grid = MazeGrid(bbox, pitch)
    for region in covering_blockages(grid, blockages):
        grid.block(region)
    return grid, pitch


def snap_cells(
    grid: "MazeGrid",
    points: list[Point],
    blockages: list[BBox],
    what: str = "terminal",
) -> list[tuple[int, int]]:
    """Quantize ``points`` onto free grid cells (shared snap logic).

    A point whose quantized cell landed inside a blockage (coarse pitch)
    snaps to the nearest free cell via the documented deterministic
    fallback scan (:meth:`MazeGrid.nearest_free`); a point genuinely
    inside a blockage raises.
    """
    cells = []
    for p in points:
        cell = grid.nearest(p)
        if grid.blocked[cell]:
            if any(region.contains(p) for region in blockages):
                raise ValueError(f"a {what} lies inside a blockage")
            cell = grid.nearest_free(cell)
        cells.append(cell)
    return cells


def run_maze_search(
    points: list[Point],
    bbox: BBox,
    pitch: float,
    blockages: list[BBox],
    margin: float,
    reachable: Callable[[MazeSearch], bool],
    what: str = "terminal",
    n_sources: int | None = None,
    max_attempts: int = MAX_SEARCH_ATTEMPTS,
    cell_cap: int = MAX_WINDOW_CELLS,
    provider=None,
) -> MazeSearch:
    """The window-expansion / pitch-coarsening loop shared by maze routes.

    Builds a grid over ``bbox`` (coarsening the pitch while the cell count
    exceeds ``cell_cap``), blocks the blockage regions, runs one BFS from
    each of the first ``n_sources`` points, and accepts the result when
    ``reachable`` says so; otherwise the window grows around intersecting
    blockages (:func:`grow_window`) and the search retries. When no growth
    is possible the points are genuinely disconnected.

    ``provider`` (``(bbox, pitch) -> (grid, pitch)``) substitutes the
    shared-window tile cache for the private :func:`build_window`; both
    produce identical grids, the cache just reuses them across requests.
    """
    if n_sources is None:
        n_sources = len(points)
    for _ in range(max_attempts):
        if provider is not None:
            grid, pitch = provider(bbox, pitch)
        else:
            grid, pitch = build_window(bbox, pitch, blockages, cell_cap)
        cells = snap_cells(grid, points, blockages, what)
        dists = grid.bfs_many(cells[:n_sources])
        search = MazeSearch(grid, pitch, cells, dists)
        if reachable(search):
            return search
        grown = grow_window(bbox, blockages, margin)
        if grown is None:
            break
        bbox = grown
    raise RuntimeError(f"{what}s are disconnected by blockages")


def rank_level_cells(
    counts: np.ndarray,
    rounded_skew: np.ndarray,
    total: np.ndarray,
    hops: np.ndarray,
) -> np.ndarray:
    """Pick every pair's merge cell in one segmented ranking pass.

    The level-batched twin of the per-pair successive argmin refinement
    in :func:`repro.core.maze_router.rank_candidates`: the key arrays are
    the concatenation of every pair's candidate rows (``counts[i]`` rows
    per pair, in pair order), and the winner of each segment is the row
    minimizing ``rounded_skew``, then ``total``, then ``hops``, with
    remaining ties resolved to the earliest row — the exact scalar tie
    order, because each refinement keeps only exact-equality survivors of
    the previous one (float comparisons, no arithmetic, so batching
    cannot change any outcome).

    Returns the winning *global* row index per segment; subtract the
    segment start for the within-pair position. Implemented as one
    segmented-minimum pass over the full concatenation (the skew stage)
    followed by a lexicographic tie resolution over the surviving rows
    only — O(rows) plus O(ties log ties), no per-pair Python.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if (counts <= 0).any():
        raise ValueError("every segment needs at least one candidate row")
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # Stage 1 over the full row set: per-segment minimum rounded skew.
    min_skew = np.minimum.reduceat(rounded_skew, starts)
    survivors = np.flatnonzero(rounded_skew == np.repeat(min_skew, counts))
    if survivors.size == counts.size:
        return survivors  # one survivor per segment: no ties anywhere
    # Tie stages over the (typically tiny) survivor set: ascending
    # lexicographic order by (segment, total, hops, row) makes the first
    # row of each segment exactly the scalar refinement's winner —
    # comparisons only, no arithmetic, so outcomes cannot drift.
    seg = np.searchsorted(starts, survivors, side="right") - 1
    order = np.lexsort((survivors, hops[survivors], total[survivors], seg))
    seg_sorted = seg[order]
    first = np.ones(seg_sorted.size, dtype=bool)
    first[1:] = seg_sorted[1:] != seg_sorted[:-1]
    return survivors[order[first]]


def l_path(a: Point, b: Point) -> PathPolyline:
    """An L-shaped rectilinear path from ``a`` to ``b`` (bend at (b.x, a.y))."""
    if a.x == b.x or a.y == b.y:
        return PathPolyline([a, b])
    return PathPolyline([a, Point(b.x, a.y), b])
