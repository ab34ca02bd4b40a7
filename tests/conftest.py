"""Shared fixtures: one technology / library / engine per session."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.charlib import load_default_library
from repro.geom import Point
from repro.tech import cts_buffer_library, default_technology
from repro.timing.analysis import LibraryTimingEngine


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def buffers():
    return cts_buffer_library()


@pytest.fixture(scope="session")
def library(tech):
    """The packaged (prebuilt) delay/slew library."""
    return load_default_library(tech)


@pytest.fixture(scope="session")
def engine(library, tech):
    return LibraryTimingEngine(library, tech)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def make_sink_pairs(n: int, area: float, seed: int = 0) -> list[tuple[Point, float]]:
    """Deterministic random sink sets for synthesis tests."""
    gen = np.random.default_rng(seed)
    return [
        (Point(float(x), float(y)), float(c))
        for x, y, c in zip(
            gen.uniform(0, area, n),
            gen.uniform(0, area, n),
            gen.uniform(4e-15, 12e-15, n),
        )
    ]


@pytest.fixture()
def small_sinks():
    return make_sink_pairs(8, 18000.0, seed=3)


# ----------------------------------------------------------------------
# The per-pair oracle
# ----------------------------------------------------------------------

#: A level-size gate no level reaches: every level merges pair by pair.
NEVER_SWEEP = 1 << 62


@contextmanager
def level_gates(batch_commit_min_pairs: int, shared_windows_min_pairs: int):
    """Temporarily set the flow's level-size gates (pairs per level)."""
    import repro.core.cts as cts_mod

    saved = cts_mod.BATCH_COMMIT_MIN_PAIRS, cts_mod.SHARED_WINDOWS_MIN_PAIRS
    cts_mod.BATCH_COMMIT_MIN_PAIRS = batch_commit_min_pairs
    cts_mod.SHARED_WINDOWS_MIN_PAIRS = shared_windows_min_pairs
    try:
        yield
    finally:
        cts_mod.BATCH_COMMIT_MIN_PAIRS, cts_mod.SHARED_WINDOWS_MIN_PAIRS = saved


def run_synthesis(
    sinks,
    source=None,
    *,
    blockages=None,
    oracle: bool = False,
    sweep_all: bool = False,
    **options,
):
    """One synthesis plus the rebased signature of its tree.

    The default is the production flow, ``synthesize``. ``oracle=True``
    runs the per-pair oracle instead: ``_synthesize`` (no SoA mirror)
    with the level-size gates raised so every level takes
    ``_merge_pair``. ``sweep_all=True`` lowers the gates to one pair so
    even the tiny levels of a small test instance take the swept
    production kernels.
    """
    from repro.core import AggressiveBufferedCTS, CTSOptions
    from repro.tree.export import tree_signature
    from repro.tree.nodes import peek_node_id

    cts = AggressiveBufferedCTS(
        options=CTSOptions(**options), blockages=blockages
    )
    base = peek_node_id()
    if oracle:
        with level_gates(NEVER_SWEEP, NEVER_SWEEP):
            result = cts._synthesize(sinks, source)
    elif sweep_all:
        with level_gates(1, 1):
            result = cts.synthesize(sinks, source)
    else:
        result = cts.synthesize(sinks, source)
    return tree_signature(result.tree, base), result


def assert_matches_oracle(sinks, source=None, *, sweep_all=False, **kwargs):
    """Production and the per-pair oracle build the identical tree.

    Compares the rebased tree signature (topology, geometry, wires,
    buffer types, auto names), the merge diagnostics including the
    floating-point snake-delay sum, the level count and the flippings.
    Returns ``(production, oracle)`` results.
    """
    sig, result = run_synthesis(sinks, source, sweep_all=sweep_all, **kwargs)
    oracle_sig, oracle = run_synthesis(sinks, source, oracle=True, **kwargs)
    assert sig == oracle_sig
    assert result.merge_stats == oracle.merge_stats
    assert result.levels == oracle.levels
    assert result.n_flippings == oracle.n_flippings
    return result, oracle


# ----------------------------------------------------------------------
# The scalar verification oracle
# ----------------------------------------------------------------------


def scalar_tree_walk(tree, tech, source_slew=60.0e-12, dt=1.0e-12, segment_length=400.0):
    """Verify a tree one stage at a time with scalar ``simulate_stage``.

    The stack walk production ``evaluate_tree`` replaced with the lockstep
    engine: pop a stage, simulate it (widening the settle window up to
    twice while a load stays below 95% Vdd), measure it, push the buffers
    it drives with their trimmed input waveforms. Returns ``(worst_slew,
    sink_arrivals, skipped_sinks)`` in walk order.
    """
    from repro.spice.stages import simulate_stage
    from repro.timing.waveform import ramp_waveform
    from repro.tree.clocktree import ClockTree
    from repro.tree.nodes import NodeKind
    from repro.tree.stages_map import stage_spec_for

    root = tree.root if isinstance(tree, ClockTree) else tree
    source_wave = ramp_waveform(tech.vdd, source_slew, t_start=50.0e-12)
    threshold = tech.logic_threshold_voltage()
    t_ref = source_wave.cross_time(threshold)
    worst_slew = 0.0
    arrivals: dict[str, float] = {}
    skipped: list[str] = []
    queue = [(root, source_wave)]
    while queue:
        stage_root, wave_in = queue.pop()
        spec, id_map = stage_spec_for(stage_root, tech)
        allowance = 1.5e-9
        for _ in range(3):
            sim = simulate_stage(
                tech, spec, wave_in, dt=dt, segment_length=segment_length,
                settle_allowance=allowance,
            )
            finals = [
                sim.waveform(node_id).v_final
                for node_id, tree_node in id_map.items()
                if tree_node is not stage_root
            ]
            if not finals or min(finals) > 0.95 * tech.vdd:
                break
            allowance *= 4.0
        worst_slew = max(worst_slew, sim.worst_slew())
        for node_id, tree_node in id_map.items():
            if tree_node is stage_root:
                continue
            if tree_node.kind is NodeKind.SINK:
                try:
                    arrivals[tree_node.name] = (
                        sim.waveform(node_id).cross_time(threshold) - t_ref
                    )
                except ValueError:
                    skipped.append(tree_node.name)
            elif tree_node.kind is NodeKind.BUFFER:
                queue.append((tree_node, sim.trimmed_waveform(node_id)))
    return worst_slew, arrivals, skipped


# ----------------------------------------------------------------------
# Property-test generators (hypothesis-style: seeded random case streams
# with the adversarial structure — ties, degenerate windows — built in).
# ----------------------------------------------------------------------


def random_blocked_grid(gen, max_dim: int = 12, max_blockages: int = 3):
    """A small random routing grid with random blockages.

    Dimensions span the degenerate cases on purpose (down to a single
    row/column); blockages are random boxes that may clip the window,
    cover nothing, or wall off regions. At least one cell is always left
    free.
    """
    from repro.core.maze_router import MazeGrid
    from repro.geom.bbox import BBox

    pitch = 100.0
    nx = int(gen.integers(1, max_dim + 1))
    ny = int(gen.integers(1, max_dim + 1))
    grid = MazeGrid(BBox(0, 0, (nx - 1) * pitch, (ny - 1) * pitch), pitch)
    assert (grid.nx, grid.ny) == (nx, ny)
    for _ in range(int(gen.integers(0, max_blockages + 1))):
        x0, y0 = gen.uniform(-pitch, nx * pitch), gen.uniform(-pitch, ny * pitch)
        w, h = gen.uniform(0, nx * pitch / 2), gen.uniform(0, ny * pitch / 2)
        grid.block(BBox(x0, y0, x0 + w, y0 + h))
        if grid.blocked.all():
            # Re-open a random cell so the grid stays usable.
            free = (int(gen.integers(0, nx)), int(gen.integers(0, ny)))
            grid.blocked[free] = False
    return grid


def random_ranking_case(gen, tie_levels: int = 3):
    """One random merge-ranking case: two BFS fields + tie-rich profiles.

    Returns ``(dist1, dist2, both, prof1, prof2)`` for a random blocked
    grid whose two sources reach a common region. The profile delays are
    drawn from ``tie_levels`` quantized values, so exact minimum-skew and
    minimum-total ties are common — the adversarial structure the
    documented tie order (min rounded skew, then total, then hops, then
    earliest flat index) must resolve identically in the scalar loop and
    the level-batched ranking pass.
    """
    while True:
        grid = random_blocked_grid(gen)
        free = np.argwhere(~grid.blocked)
        if len(free) < 2:
            continue
        picks = gen.integers(0, len(free), 2)
        c1 = tuple(int(v) for v in free[picks[0]])
        c2 = tuple(int(v) for v in free[picks[1]])
        dist1, dist2 = grid.bfs(c1), grid.bfs(c2)
        both = (dist1 != -1) & (dist2 != -1)
        if not both.any():
            continue
        max_k = int(max(dist1[both].max(), dist2[both].max()))
        prof1 = gen.integers(0, tie_levels, max_k + 1) * 1e-12
        prof2 = gen.integers(0, tie_levels, max_k + 1) * 1e-12
        return dist1, dist2, both, prof1, prof2


def random_expansion_case(gen, library):
    """One random profile-expansion lane: table geometry + a target step.

    Returns ``(step, n_steps, load, base_delay, target_k)`` with
    ``1 <= target_k <= n_steps - 1``. The pitch is drawn log-uniformly
    across a deliberately wide range: small pitches yield long
    buffer-free runs, large ones insertion-heavy expansions with forced
    buffers at step 0, and the extreme tail reaches pitches where even
    one step after an insertion violates the slew target — the per-pair
    lazy expansion and the lockstep scheduler must agree on all of
    them, including raising the identical RuntimeError on the
    infeasible ones.
    """
    step = float(np.exp(gen.uniform(np.log(90.0), np.log(7000.0))))
    n_steps = int(gen.integers(4, 90))
    names = library.buffer_names
    load = names[int(gen.integers(0, len(names)))]
    base_delay = float(gen.uniform(0.0, 5e-10))
    target_k = int(gen.integers(1, n_steps))
    return step, n_steps, load, base_delay, target_k


def random_descent_case(gen):
    """One random descent case: a BFS field plus a reached target cell.

    Returns ``(grid, dist, cell)`` with ``dist[cell] >= 0``; the start
    may equal the target (zero-length descent).
    """
    while True:
        grid = random_blocked_grid(gen)
        free = np.argwhere(~grid.blocked)
        start = tuple(int(v) for v in free[int(gen.integers(0, len(free)))])
        dist = grid.bfs(start)
        reached = np.argwhere(dist >= 0)
        cell = tuple(int(v) for v in reached[int(gen.integers(0, len(reached)))])
        return grid, dist, cell
