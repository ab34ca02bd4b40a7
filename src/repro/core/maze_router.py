"""Bidirectional maze routing over an explicit grid (Fig. 4.3).

The general router: two BFS wavefronts expand simultaneously from the two
sub-tree roots across a uniform-pitch routing grid (with optional blocked
cells); every cell reachable by both fronts carries propagation delay
information to both sides, and the cell with minimum delay difference is
picked as the tentative merge location. Buffer insertion along the
expansion follows the same :class:`~repro.core.segment_builder.PathBuilder`
logic as the profile router.

With no blockages this reduces exactly to the profile router (delay is a
function of step distance only); with blockages the BFS distances and the
backtracked detour paths differ, which is the case this router exists for.

BFS is consolidated behind one engine (:class:`BfsEngine`): the contract
is the *distance field only*, and path geometry is derived from it by a
deterministic descent (:meth:`MazeGrid.descend`), so every strategy —
closed-form on unblocked grids, sparse-graph BFS through
:func:`scipy.sparse.csgraph.breadth_first_order` with a vectorized
pointer-doubling depth reconstruction, or the scipy-free numpy
frontier-dilation wave — produces byte-identical routing results. The
original cell-by-cell implementations are retained as
``block_reference`` / ``bfs_reference``: they define the semantics, the
equivalence tests compare against them, and the perf harness times them
as the seed baseline.
"""

from __future__ import annotations

from collections import deque

import numpy as np

try:  # scipy ships with the toolchain; the wave BFS covers its absence.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order as _sparse_bfs_order
except ImportError:  # pragma: no cover - exercised only without scipy
    csr_matrix = None
    _sparse_bfs_order = None

from repro.charlib.library import DelaySlewLibrary
from repro.core.options import CTSOptions
from repro.core.routing_common import (
    MazeSearch,
    RoutedPath,
    RouteResult,
    RouteTerminal,
    choose_pitch,
    run_maze_search,
)
from repro.core.segment_builder import PathBuilder, SegmentTables
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.geom.segment import PathPolyline

_UNREACHED = -1

#: 4-connected neighborhood; the order is the neighbor priority of the
#: deterministic distance-descent (:meth:`MazeGrid.descend`).
_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class MazeGrid:
    """A square-pitch routing grid with blocked cells."""

    def __init__(self, bbox: BBox, pitch: float):
        self.bbox = bbox
        self.pitch = pitch
        self.nx = int(np.ceil(bbox.width / pitch)) + 1
        self.ny = int(np.ceil(bbox.height / pitch)) + 1
        self.blocked = np.zeros((self.nx, self.ny), dtype=bool)
        self._adj = None  # cached CSR adjacency; invalidated by block()
        self._xs = None  # cached cell-center coordinate axes
        self._ys = None
        self._any_blocked = False

    def block(self, region: BBox) -> None:
        """Block every cell whose center lies inside ``region``."""
        if self._xs is None:
            self._xs = self.bbox.xmin + np.arange(self.nx) * self.pitch
            self._ys = self.bbox.ymin + np.arange(self.ny) * self.pitch
        in_x = (self._xs >= region.xmin) & (self._xs <= region.xmax)
        in_y = (self._ys >= region.ymin) & (self._ys <= region.ymax)
        if in_x.any() and in_y.any():
            self.blocked |= in_x[:, None] & in_y[None, :]
            self._any_blocked = True
        self._adj = None

    def block_reference(self, region: BBox) -> None:
        """Cell-by-cell reference implementation of :meth:`block`."""
        for i in range(self.nx):
            for j in range(self.ny):
                if region.contains(self.center(i, j)):
                    self.blocked[i, j] = True
                    self._any_blocked = True
        self._adj = None

    def center(self, i: int, j: int) -> Point:
        return Point(self.bbox.xmin + i * self.pitch, self.bbox.ymin + j * self.pitch)

    def nearest(self, p: Point) -> tuple[int, int]:
        i = int(round((p.x - self.bbox.xmin) / self.pitch))
        j = int(round((p.y - self.bbox.ymin) / self.pitch))
        return (min(max(i, 0), self.nx - 1), min(max(j, 0), self.ny - 1))

    def nearest_free(self, cell: tuple[int, int]) -> tuple[int, int]:
        """Closest unblocked cell to ``cell`` (Manhattan distance).

        The scan order is fixed and documented so the fallback is
        deterministic under shared tiles: free cells are enumerated in
        row-major order (ascending ``i``, then ascending ``j``) and ties
        in Manhattan distance resolve to the first one enumerated — the
        lowest ``i``, and among equal ``i`` the lowest ``j``. The choice
        is a pure function of the blocked mask, so every window served
        from the same tile (no matter which pair first touched it) snaps
        an identical point to the identical cell.
        """
        if not self.blocked[cell]:
            return cell
        ii, jj = np.nonzero(~self.blocked)
        if ii.size == 0:
            raise ValueError("grid is fully blocked")
        k = int(np.argmin(np.abs(ii - cell[0]) + np.abs(jj - cell[1])))
        return (int(ii[k]), int(jj[k]))

    def bfs(self, start: tuple[int, int]) -> np.ndarray:
        """BFS step distances from ``start`` (4-connected, blocked-aware).

        Dispatches through the consolidated :data:`BFS_ENGINE`. Unreached
        (and blocked) cells hold ``-1``. Paths are recovered from the
        distance field with :meth:`descend`, never from BFS bookkeeping,
        so every engine strategy yields identical routing results.
        """
        return BFS_ENGINE.distances(self, [start])[0]

    def bfs_many(self, starts: list[tuple[int, int]]) -> list[np.ndarray]:
        """Distance fields from several starts (one engine round)."""
        return BFS_ENGINE.distances(self, starts)

    def bfs_reference(self, start: tuple[int, int]) -> np.ndarray:
        """Queue-based reference implementation of :meth:`bfs`.

        Defines the semantics every engine strategy is tested against,
        and serves as the seed baseline the perf harness times.
        """
        dist = np.full((self.nx, self.ny), _UNREACHED, dtype=int)
        if self.blocked[start]:
            raise ValueError(f"start cell {start} is blocked")
        dist[start] = 0
        queue = deque([start])
        while queue:
            i, j = queue.popleft()
            d = dist[i, j]
            for di, dj in _DIRECTIONS:
                ni, nj = i + di, j + dj
                if 0 <= ni < self.nx and 0 <= nj < self.ny:
                    if not self.blocked[ni, nj] and dist[ni, nj] == _UNREACHED:
                        dist[ni, nj] = d + 1
                        queue.append((ni, nj))
        return dist

    def _adjacency(self):
        """CSR adjacency of the free cells, assembled without a COO sort.

        For each cell the (up to 4) free neighbors are emitted in
        column-ascending order (-ny, -1, +1, +ny), so the data/indices/
        indptr triple is already canonical CSR.
        """
        if self._adj is not None:
            return self._adj
        nx, ny, n = self.nx, self.ny, self.nx * self.ny
        free = ~self.blocked
        codes = np.arange(n, dtype=np.int32).reshape(nx, ny)
        m = np.zeros((nx, ny, 4), dtype=bool)
        m[1:, :, 0] = free[1:, :] & free[:-1, :]  # neighbor (i-1, j)
        m[:, 1:, 1] = free[:, 1:] & free[:, :-1]  # neighbor (i, j-1)
        m[:, :-1, 2] = free[:, :-1] & free[:, 1:]  # neighbor (i, j+1)
        m[:-1, :, 3] = free[:-1, :] & free[1:, :]  # neighbor (i+1, j)
        offsets = np.array([-ny, -1, 1, ny], dtype=np.int32)
        cols4 = codes[:, :, None] + offsets[None, None, :]
        mflat = m.reshape(n, 4)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(mflat.sum(axis=1, dtype=np.int32), out=indptr[1:])
        cols = cols4.reshape(n, 4)[mflat]
        data = np.ones(cols.size, dtype=np.int8)
        self._adj = csr_matrix((data, cols, indptr), shape=(n, n))
        return self._adj

    def staircase_arrays(
        self, start: tuple[int, int], cell: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cell coordinates of the unblocked shortest path, as arrays.

        The canonical obstacle-free staircase (a y-run from the start
        followed by an x-run), produced without any BFS at all.
        """
        i0, j0 = start
        i1, j1 = cell
        js = np.arange(j0, j1, 1 if j1 >= j0 else -1)
        xs = np.arange(i0, i1, 1 if i1 >= i0 else -1)
        ci = np.concatenate([np.full(js.size, i0), xs, [i1]])
        cj = np.concatenate([js, np.full(xs.size + 1, j1)])
        return ci, cj

    def descend(
        self, dist: np.ndarray, cell: tuple[int, int]
    ) -> list[tuple[int, int]]:
        """Cell sequence from the BFS start to ``cell`` (inclusive).

        Walks the distance field from ``cell`` downhill (each step to a
        neighbor one BFS level closer), taking the first qualifying
        neighbor in the fixed ``_DIRECTIONS`` priority (+x, -x, +y, -y).
        The path is therefore a pure, deterministic function of the
        distance field — independent of which BFS strategy produced it —
        which is what keeps shared-window and per-pair routing results
        identical.
        """
        i, j = cell
        d = int(dist[i, j])
        if d < 0:
            raise ValueError(f"cell {cell} was not reached by this BFS")
        path = [cell]
        while d > 0:
            for di, dj in _DIRECTIONS:
                ni, nj = i + di, j + dj
                if (
                    0 <= ni < self.nx
                    and 0 <= nj < self.ny
                    and dist[ni, nj] == d - 1
                ):
                    i, j, d = ni, nj, d - 1
                    path.append((ni, nj))
                    break
            else:  # pragma: no cover - would mean an inconsistent field
                raise RuntimeError("inconsistent BFS distance field")
        path.reverse()
        return path


class BfsEngine:
    """The consolidated maze-BFS engine (one contract, three strategies).

    Consolidates the seed's five variants (``bfs`` / ``bfs_sparse`` /
    ``bfs_wave`` / ``bfs_multi`` / ``bfs_unblocked``) behind a single
    entry point returning distance fields only:

    - :meth:`closed_form` — obstacle-free grids: the distance field is
      the Manhattan step count, no traversal at all;
    - :meth:`sparse` — scipy's C breadth-first traversal
      (:func:`~scipy.sparse.csgraph.breadth_first_order`, ~6x cheaper per
      call than ``csgraph.dijkstra`` on routing-window-sized grids) plus
      a vectorized pointer-doubling depth reconstruction over the
      predecessor forest;
    - :meth:`wave` — the numpy frontier-dilation wave, for hosts without
      scipy.

    Cross-pair batching note: stacking many windows into one
    block-diagonal graph and issuing a single multi-source csgraph call
    was measured and *loses* — scipy initializes per-source output over
    the whole stacked graph, so the per-call overhead saved is repaid as
    O(pairs^2) array fills. The profitable batch axis is the lockstep
    *round* (:func:`repro.core.grid_cache.route_level` advances every
    pair of a level through window-expansion rounds together), with each
    grid answered by the cheapest per-grid strategy here.
    """

    def distances(
        self, grid: MazeGrid, starts: list[tuple[int, int]]
    ) -> list[np.ndarray]:
        """Distance fields from ``starts`` (the single dispatch point)."""
        for start in starts:
            if grid.blocked[start]:
                raise ValueError(f"start cell {start} is blocked")
        if not grid._any_blocked:
            return [self.closed_form(grid, s) for s in starts]
        if _sparse_bfs_order is not None:
            return [self.sparse(grid, s) for s in starts]
        return [self.wave(grid, s) for s in starts]

    def closed_form(self, grid: MazeGrid, start: tuple[int, int]) -> np.ndarray:
        """Manhattan step counts — exactly what BFS returns with no
        obstacles."""
        i0, j0 = start
        di = np.abs(np.arange(grid.nx) - i0)
        dj = np.abs(np.arange(grid.ny) - j0)
        return di[:, None] + dj[None, :]

    def sparse(self, grid: MazeGrid, start: tuple[int, int]) -> np.ndarray:
        """C breadth-first traversal + vectorized depth reconstruction.

        ``breadth_first_order`` returns the BFS predecessor forest; node
        depths are recovered by pointer doubling (each round, every node
        jumps to its pointer's pointer and accumulates the hops folded
        into it), which is O(n log depth) in a handful of numpy passes.
        """
        flat = start[0] * grid.ny + start[1]
        order, pred = _sparse_bfs_order(
            grid._adjacency(), flat, directed=True, return_predecessors=True
        )
        n = grid.nx * grid.ny
        hops = np.where(pred >= 0, 1, 0)
        ptr = np.where(pred >= 0, pred, -1)
        while True:
            valid = np.flatnonzero(ptr >= 0)
            if valid.size == 0:
                break
            pv = ptr[valid]
            hops[valid] += hops[pv]
            ptr[valid] = ptr[pv]
        dist = np.full(n, _UNREACHED, dtype=int)
        dist[order] = hops[order]
        return dist.reshape(grid.nx, grid.ny)

    def wave(self, grid: MazeGrid, start: tuple[int, int]) -> np.ndarray:
        """Numpy frontier-dilation BFS (the scipy-free vectorized path).

        Each wave shifts the current frontier mask one cell in every
        direction and claims the still-unreached free cells. The work per
        wave is confined to the bounding window of the frontier, so
        compact waves stay cheap on big grids.
        """
        nx, ny = grid.nx, grid.ny
        dist = np.full((nx, ny), _UNREACHED, dtype=int)
        unreached = ~grid.blocked
        frontier = np.zeros((nx, ny), dtype=bool)
        frontier[start] = True
        unreached[start] = False
        dist[start] = 0
        ilo, ihi = start[0], start[0] + 1
        jlo, jhi = start[1], start[1] + 1
        d = 0
        while True:
            # Every neighbor of the frontier lies inside the window grown
            # by one cell (clipped to the grid).
            ilo, ihi = max(ilo - 1, 0), min(ihi + 1, nx)
            jlo, jhi = max(jlo - 1, 0), min(jhi + 1, ny)
            fwin = frontier[ilo:ihi, jlo:jhi]
            uwin = unreached[ilo:ihi, jlo:jhi]
            new = np.zeros_like(fwin)
            for di, dj in _DIRECTIONS:
                cand = _shift(fwin, di, dj)
                cand &= uwin
                new |= cand
            if not new.any():
                return dist
            d += 1
            dist[ilo:ihi, jlo:jhi][new] = d
            uwin &= ~new
            frontier[ilo:ihi, jlo:jhi] = new
            # Shrink the window to the new frontier's bounding box.
            rows = np.flatnonzero(new.any(axis=1))
            cols = np.flatnonzero(new.any(axis=0))
            ilo, ihi = ilo + rows[0], ilo + rows[-1] + 1
            jlo, jhi = jlo + cols[0], jlo + cols[-1] + 1


#: The process-wide consolidated engine :class:`MazeGrid` dispatches to.
BFS_ENGINE = BfsEngine()


def _shift(mask: np.ndarray, di: int, dj: int) -> np.ndarray:
    """Mask of cells one ``(di, dj)`` step downstream of ``mask``."""
    out = np.zeros_like(mask)
    if di == 1:
        out[1:, :] = mask[:-1, :]
    elif di == -1:
        out[:-1, :] = mask[1:, :]
    elif dj == 1:
        out[:, 1:] = mask[:, :-1]
    else:
        out[:, :-1] = mask[:, 1:]
    return out


def blocked_path(
    a: Point,
    b: Point,
    pitch: float,
    blockages: list[BBox],
    margin: float,
) -> PathPolyline:
    """Shortest rectilinear path from ``a`` to ``b`` avoiding blockages.

    Used for point-to-point connections outside the merge flow (e.g. the
    source trunk). The window grows around intersecting blockages the
    same way :func:`route_maze` does.
    """
    bbox = BBox.of_points([a, b]).expanded(margin)

    def target_reached(search: MazeSearch) -> bool:
        return search.dists[0][search.cells[1]] != _UNREACHED

    search = run_maze_search(
        [a, b],
        bbox,
        pitch,
        blockages,
        margin,
        target_reached,
        what="trunk terminal",
        n_sources=1,
    )
    grid = search.grid
    cells = grid.descend(search.dists[0], search.cells[1])
    points = [a] + [grid.center(i, j) for i, j in cells[1:-1]] + [b]
    return PathPolyline(_compress_polyline(points))


def _cells_polyline(
    grid: MazeGrid, first: Point, ci: np.ndarray, cj: np.ndarray
) -> list[Point]:
    """``[first] + centers(cells)`` with collinear runs compressed.

    Vectorized equivalent of building every cell-center Point and calling
    :func:`_compress_polyline`: coordinates are computed with the exact
    same expression as :meth:`MazeGrid.center`, and only the bend vertices
    are materialized as Points.
    """
    if ci.size == 0:
        return [first]
    xs = np.concatenate(([first.x], grid.bbox.xmin + ci * grid.pitch))
    ys = np.concatenate(([first.y], grid.bbox.ymin + cj * grid.pitch))
    n = xs.size
    if n <= 2:
        return [first] + [Point(float(x), float(y)) for x, y in zip(xs[1:], ys[1:])]
    same_x = (xs[:-2] == xs[1:-1]) & (xs[1:-1] == xs[2:])
    same_y = (ys[:-2] == ys[1:-1]) & (ys[1:-1] == ys[2:])
    keep = np.flatnonzero(~(same_x | same_y)) + 1
    points = [first]
    points.extend(Point(float(xs[i]), float(ys[i])) for i in keep)
    points.append(Point(float(xs[-1]), float(ys[-1])))
    return points


def staircase_arrays_many(
    starts: list[tuple[int, int]], cells: list[tuple[int, int]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batched :meth:`MazeGrid.staircase_arrays` over many sides.

    Every side's canonical staircase (y-run from the start, then x-run)
    is a clamped ramp in the position-within-side index, so all sides
    build as a handful of global numpy ops over the concatenation and
    split back into per-side views — element for element what the
    per-side calls return.
    """
    if not starts:
        return []
    i0 = np.array([c[0] for c in starts], dtype=np.int64)
    j0 = np.array([c[1] for c in starts], dtype=np.int64)
    i1 = np.array([c[0] for c in cells], dtype=np.int64)
    j1 = np.array([c[1] for c in cells], dtype=np.int64)
    run_x = np.abs(i1 - i0)
    run_y = np.abs(j1 - j0)
    sx = np.sign(i1 - i0)
    sy = np.sign(j1 - j0)
    lens = run_y + run_x + 1
    offs = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(offs, lens)
    ry = np.repeat(run_y, lens)
    ci = np.repeat(i0, lens) + np.repeat(sx, lens) * np.maximum(0, pos - ry)
    cj = np.repeat(j0, lens) + np.repeat(sy, lens) * np.minimum(pos, ry)
    splits = np.cumsum(lens)[:-1]
    return list(zip(np.split(ci, splits), np.split(cj, splits)))


def cells_polylines_many(
    firsts: list[Point],
    cis: list[np.ndarray],
    cjs: list[np.ndarray],
    grids: list["MazeGrid"],
) -> list[list[Point]]:
    """Batched :func:`_cells_polyline` over many routed sides.

    All sides' cell coordinates map to layout coordinates in one
    multiply-add over the concatenation (the exact per-element expression
    of :meth:`MazeGrid.center`), bend detection runs as one global triple
    comparison (side boundaries are forced kept, so no cross-side triple
    can drop a point), and only the kept bend vertices materialize as
    Points — the same vertices, in the same order, as per-side
    :func:`_cells_polyline` calls produce.
    """
    n = len(firsts)
    if n == 0:
        return []
    lens = np.array([c.size for c in cis], dtype=np.int64)
    m = lens + 1  # points per side, including the first point
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(m[:-1], out=starts[1:])
    ends = starts + m - 1
    total = int(m.sum())
    xs = np.empty(total)
    ys = np.empty(total)
    xs[starts] = [p.x for p in firsts]
    ys[starts] = [p.y for p in firsts]
    fill = np.ones(total, dtype=bool)
    fill[starts] = False
    pitches = np.array([g.pitch for g in grids])
    xs[fill] = np.repeat(
        np.array([g.bbox.xmin for g in grids]), lens
    ) + np.concatenate(cis) * np.repeat(pitches, lens)
    ys[fill] = np.repeat(
        np.array([g.bbox.ymin for g in grids]), lens
    ) + np.concatenate(cjs) * np.repeat(pitches, lens)
    keep = np.ones(total, dtype=bool)
    if total > 2:
        same_x = (xs[:-2] == xs[1:-1]) & (xs[1:-1] == xs[2:])
        same_y = (ys[:-2] == ys[1:-1]) & (ys[1:-1] == ys[2:])
        keep[1:-1] = ~(same_x | same_y)
        keep[starts] = True
        keep[ends] = True
    counts = np.add.reduceat(keep.astype(np.int64), starts).tolist()
    kept = np.flatnonzero(keep)
    kept_x = xs[kept].tolist()  # python floats once, not per-vertex numpy
    kept_y = ys[kept].tolist()
    out: list[list[Point]] = []
    pos = 0
    for first, count in zip(firsts, counts):
        points = [first]
        points.extend(
            Point(kept_x[p], kept_y[p]) for p in range(pos + 1, pos + count)
        )
        pos += count
        out.append(points)
    return out


def _compress_polyline(points: list[Point]) -> list[Point]:
    """Drop interior points of collinear (axis-aligned) runs."""
    if len(points) <= 2:
        return points
    out = [points[0]]
    for prev, cur, nxt in zip(points, points[1:], points[2:]):
        same_x = prev.x == cur.x == nxt.x
        same_y = prev.y == cur.y == nxt.y
        if not (same_x or same_y):
            out.append(cur)
    out.append(points[-1])
    return out


def plan_maze_window(
    p1: Point, p2: Point, options: CTSOptions, stage_length: float
) -> tuple[BBox, float, float]:
    """Window geometry of one maze route: (bbox, base pitch, margin).

    Extracted so the shared-window level batcher and per-pair routing
    derive byte-identical windows from the same arithmetic.
    """
    dist = p1.manhattan_to(p2)
    if dist <= 0:
        raise ValueError("terminals are coincident; no routing needed")
    span = max(abs(p1.x - p2.x), abs(p1.y - p2.y), dist / 2.0)
    pitch, n_cells = choose_pitch(span, options, stage_length)
    margin = max(1.0, n_cells * options.routing_margin_ratio) * pitch
    return BBox.of_points([p1, p2]).expanded(margin), pitch, margin


def both_reached(search: MazeSearch) -> bool:
    """The merge-route acceptance predicate: some cell sees both fronts."""
    return bool(
        ((search.dists[0] != _UNREACHED) & (search.dists[1] != _UNREACHED)).any()
    )


def rank_candidates(
    dist1: np.ndarray,
    dist2: np.ndarray,
    both: np.ndarray,
    prof1: np.ndarray,
    prof2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Rank one pair's co-reached cells and pick the merge cell (scalar).

    Ranks only the co-reached cells (ties break on the earliest flat
    index, which the subset preserves, so the winner is identical to
    ranking the full grid with inf sentinels) by successive argmin
    refinement: minimum skew rounded to 15 decimals, then minimum total
    delay, then minimum combined hop count, then the lowest flat index.
    Returns ``(cand, k1, k2, d1, d2, pick)`` — the candidate flat
    indices, both sides' step counts and profile delays, and the winning
    position within ``cand``.

    This is the per-pair reference the level-batched kernel
    (:func:`repro.core.routing_common.rank_level_cells`) is equivalence-
    and property-tested against; both must rank with the exact same key
    arithmetic and tie order or bit-identity breaks.
    """
    cand = np.flatnonzero(both.ravel())
    k1 = dist1.ravel()[cand]
    k2 = dist2.ravel()[cand]
    d1 = prof1[k1]
    d2 = prof2[k2]
    skew = np.abs(d1 - d2)
    total = np.maximum(d1, d2)
    hops = k1 + k2
    # Successive argmin refinement: only the top-ranked cell is needed,
    # and lexsort's stable tie order is the ascending flat index, which
    # each refinement preserves.
    rounded_skew = np.round(skew, 15)
    sel = np.flatnonzero(rounded_skew == rounded_skew.min())
    sel = sel[total[sel] == total[sel].min()]
    sel = sel[hops[sel] == hops[sel].min()]
    pick = int(sel[0])
    return cand, k1, k2, d1, d2, pick


#: Cell budget of one batched-descent chunk: the concatenated distance
#: fields of a chunk stay within this many cells so a level of large
#: (coarsening-capped) windows cannot balloon the copy. Chunking cannot
#: change results — each side's descent reads only its own field.
DESCENT_CELL_BUDGET = 4_000_000


def descend_many(
    sides: list[tuple[np.ndarray, tuple[int, int]]],
    cell_budget: int = DESCENT_CELL_BUDGET,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batched :meth:`MazeGrid.descend`: walk many distance fields at once.

    ``sides`` holds ``(dist_field, cell)`` pairs — typically the two
    sides of every blocked merge route of a topology level. All descents
    advance in lockstep numpy steps: one round moves every still-active
    side one BFS level downhill, gathering the four neighbor distances of
    all sides from one concatenated field buffer and choosing, per side,
    the first qualifying neighbor in the fixed ``_DIRECTIONS`` priority
    (+x, -x, +y, -y) — exactly the scalar descent's choice, so the cell
    sequences are bit-identical to per-side :meth:`MazeGrid.descend`
    calls (pinned by the equivalence and property tests).

    Returns one ``(ci, cj)`` integer-array pair per side, start to
    ``cell`` inclusive (index = BFS depth, matching the scalar path
    order). Sides are grouped into chunks of at most ``cell_budget``
    concatenated field cells; results are invariant to the chunking.
    """
    if not sides:
        return []
    out: list[tuple[np.ndarray, np.ndarray]] = []
    chunk: list[tuple[np.ndarray, tuple[int, int]]] = []
    cells_in_chunk = 0
    for side in sides:
        size = side[0].size
        if chunk and cells_in_chunk + size > cell_budget:
            out.extend(_descend_chunk(chunk))
            chunk, cells_in_chunk = [], 0
        chunk.append(side)
        cells_in_chunk += size
    out.extend(_descend_chunk(chunk))
    return out


def _descend_chunk(
    sides: list[tuple[np.ndarray, tuple[int, int]]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One lockstep descent round-loop over a chunk of sides.

    Every field is copied into one int32 buffer with a one-cell border
    of sentinel values, so a round needs no bounds checks at all: the
    four neighbor distances of every active side resolve as a single
    fancy-indexed ``(active, 4)`` gather at fixed per-side flat offsets,
    and a border hit reads the sentinel (never equal to a BFS level).
    """
    fields = [dist for dist, _ in sides]
    n = len(fields)
    pnys = np.array([f.shape[1] + 2 for f in fields], dtype=np.int64)
    sizes = np.array([(f.shape[0] + 2) * pny for f, pny in zip(fields, pnys)])
    offs = np.zeros(n, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offs[1:])
    concat = np.full(int(sizes.sum()), _UNREACHED - 1, dtype=np.int32)
    for field, off, size, pny in zip(fields, offs, sizes, pnys):
        view = concat[off : off + size].reshape(-1, pny)
        view[1:-1, 1:-1] = field
    ci = np.array([c[0] for _, c in sides], dtype=np.int64)
    cj = np.array([c[1] for _, c in sides], dtype=np.int64)
    pos = offs + (ci + 1) * pnys + (cj + 1)  # padded flat coordinates
    depth = concat[pos].astype(np.int64)
    if (depth < 0).any():
        bad = int(np.flatnonzero(depth < 0)[0])
        cell = (int(ci[bad]), int(cj[bad]))
        raise ValueError(f"cell {cell} was not reached by this BFS")
    out_lens = depth + 1
    out_offs = np.zeros(n, dtype=np.int64)
    np.cumsum(out_lens[:-1], out=out_offs[1:])
    out_i = np.empty(int(out_lens.sum()), dtype=np.int64)
    out_j = np.empty_like(out_i)
    out_i[out_offs + depth] = ci
    out_j[out_offs + depth] = cj
    active = np.flatnonzero(depth > 0)
    ai, aj, ad, apos = ci[active], cj[active], depth[active], pos[active]
    a_out = out_offs[active]
    # Per-side flat steps of the 4 directions, in _DIRECTIONS priority
    # (+x, -x, +y, -y): on the padded row-major layout those are
    # (+pny, -pny, +1, -1).
    a_steps = np.stack(
        [pnys[active], -pnys[active], np.ones(active.size, dtype=np.int64),
         np.full(active.size, -1, dtype=np.int64)],
        axis=1,
    )
    di_of = np.array([di for di, _ in _DIRECTIONS], dtype=np.int64)
    dj_of = np.array([dj for _, dj in _DIRECTIONS], dtype=np.int64)
    rows = np.arange(active.size)
    while ai.size:
        target = ad - 1
        match = concat[apos[:, None] + a_steps] == target[:, None]
        if not match.any(axis=1).all():  # pragma: no cover - inconsistent field
            raise RuntimeError("inconsistent BFS distance field")
        choice = np.argmax(match, axis=1)  # first qualifying direction
        apos = apos + a_steps[rows[: ai.size], choice]
        ai = ai + di_of[choice]
        aj = aj + dj_of[choice]
        ad = target
        out_i[a_out + ad] = ai
        out_j[a_out + ad] = aj
        keep = ad > 0
        if not keep.all():
            ai, aj, ad, apos = ai[keep], aj[keep], ad[keep], apos[keep]
            a_out, a_steps = a_out[keep], a_steps[keep]
    return [
        (out_i[o : o + n_out], out_j[o : o + n_out])
        for o, n_out in zip(out_offs, out_lens)
    ]


def finish_maze_route(
    search: MazeSearch,
    term1: RouteTerminal,
    term2: RouteTerminal,
    library: DelaySlewLibrary,
    options: CTSOptions,
) -> RouteResult:
    """Profile evaluation, cell ranking and path materialization.

    The tail of one per-pair maze route; the per-pair twin of the level
    batcher's finishing kernel (:func:`repro.core.grid_cache._finish_level`).
    """
    grid, pitch = search.grid, search.pitch
    dist1, dist2 = search.dists
    both = (dist1 != _UNREACHED) & (dist2 != _UNREACHED)
    max_k = int(max(dist1[both].max(), dist2[both].max()))
    tables = SegmentTables(library, pitch, max_k + 1, options.target_slew)
    builders = [
        PathBuilder(
            tables,
            term.base_delay,
            term.load_name,
            options.target_slew,
            library.buffer_names,
            options.virtual_drive or library.buffer_names[-1],
            options.sizing_lookahead,
        )
        for term in (term1, term2)
    ]
    prof1 = builders[0].delays_up_to(max_k)
    prof2 = builders[1].delays_up_to(max_k)

    cand, k1, k2, d1, d2, pick = rank_candidates(dist1, dist2, both, prof1, prof2)
    best = int(cand[pick])
    bi, bj = np.unravel_index(best, both.shape)
    meeting = grid.center(int(bi), int(bj))
    kk1, kk2 = int(k1[pick]), int(k2[pick])

    def materialize(term, dist, start_cell, builder, k):
        cell = (int(bi), int(bj))
        if not grid._any_blocked:
            # Obstacle-free window: the shortest path is the analytic
            # staircase, so skip the descent entirely.
            ci, cj = grid.staircase_arrays(start_cell, cell)
            ci, cj = ci[1:], cj[1:]
        else:
            cells = grid.descend(dist, cell)[1:]
            ci = np.fromiter((c[0] for c in cells), dtype=float, count=len(cells))
            cj = np.fromiter((c[1] for c in cells), dtype=float, count=len(cells))
        points = _cells_polyline(grid, term.point, ci, cj)
        if len(points) == 1:
            points.append(meeting)
        return RoutedPath(
            term,
            PathPolyline(points),
            builder.state(k),
            pitch,
        )

    c1, c2 = search.cells[0], search.cells[1]
    left = materialize(term1, dist1, c1, builders[0], kk1)
    right = materialize(term2, dist2, c2, builders[1], kk2)
    return RouteResult(
        meeting_point=meeting,
        left=left,
        right=right,
        est_left_delay=float(d1[pick]),
        est_right_delay=float(d2[pick]),
        grid_cells=max(grid.nx, grid.ny),
    )


def route_maze(
    term1: RouteTerminal,
    term2: RouteTerminal,
    library: DelaySlewLibrary,
    options: CTSOptions,
    stage_length: float,
    blockages: list[BBox] | None = None,
    grid_provider=None,
) -> RouteResult:
    """Route one merge with bidirectional maze expansion.

    ``grid_provider`` (``(bbox, pitch) -> (grid, pitch)``) lets the
    shared-window subsystem serve cached tiles; ``None`` rasterizes a
    private window per call. Results are identical either way.
    """
    bbox, pitch, margin = plan_maze_window(
        term1.point, term2.point, options, stage_length
    )
    search = run_maze_search(
        [term1.point, term2.point],
        bbox,
        pitch,
        blockages or [],
        margin,
        both_reached,
        provider=grid_provider,
    )
    return finish_maze_route(search, term1, term2, library, options)
