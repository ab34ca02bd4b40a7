"""The lockstep transient engine against the scalar stage simulator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.htree import HTreeSynthesizer
from repro.baselines.merge_buffer import COMPARISON_POLICIES, MergeBufferCTS
from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.evalx.metrics import evaluate_tree
from repro.evalx.variation import VariationModel, monte_carlo_skew
from repro.geom import BBox, Point
from repro.spice.lockstep import StageJob, simulate_stages
from repro.spice.stages import StageSpec, StageWire, simulate_stage
from repro.spice.transient import ConvergenceError, TransientOptions
from repro.tech import cts_buffer_library, default_technology
from repro.timing.waveform import ramp_waveform
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import make_buffer, make_merge, make_sink

from tests.conftest import make_sink_pairs, scalar_tree_walk

TECH = default_technology()
BUFFERS = cts_buffer_library()

#: Agreement demanded of the engine against the scalar oracle.
TIME_TOL = 0.01e-12
VOLT_TOL = 1e-3


def saturating_tree():
    near = make_sink(Point(1000, 0), 8e-15, "near")
    far = make_sink(Point(150000, 0), 8e-15, "far")
    merge = make_merge(Point(0, 0))
    merge.attach(near)
    merge.attach(far)
    return ClockTree.from_network(Point(0, 0), merge)


def assert_matches_scalar_walk(tree, tech, dt=1.0e-12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        metrics = evaluate_tree(tree, tech, dt=dt)
    worst, arrivals, skipped = scalar_tree_walk(tree, tech, dt=dt)
    assert metrics.skipped_sinks == skipped
    assert list(metrics.sink_arrivals) == list(arrivals)
    for name, arrival in arrivals.items():
        assert metrics.sink_arrivals[name] == pytest.approx(arrival, abs=TIME_TOL)
    assert metrics.worst_slew == pytest.approx(worst, abs=TIME_TOL)
    return metrics


class TestTreeOracle:
    """``evaluate_tree`` equals the scalar stack walk it replaced."""

    def test_profile_cts_tree(self):
        cts = AggressiveBufferedCTS(options=CTSOptions())
        result = cts.synthesize(make_sink_pairs(24, 24000.0, seed=41))
        assert_matches_scalar_walk(result.tree, cts.tech)

    def test_maze_blockage_tree(self):
        blockage = BBox(9000.0, 6000.0, 15000.0, 20000.0)
        clear = blockage.expanded(1200.0)
        sinks = [
            (p, c)
            for p, c in make_sink_pairs(20, 30000.0, seed=33)
            if not clear.contains(p)
        ]
        cts = AggressiveBufferedCTS(options=CTSOptions(), blockages=[blockage])
        result = cts.synthesize(sinks, Point(0.0, 0.0))
        assert_matches_scalar_walk(result.tree, cts.tech)

    def test_htree_baseline(self):
        result = HTreeSynthesizer(tech=TECH).synthesize(make_sink_pairs(10, 20000.0, seed=23))
        assert_matches_scalar_walk(result.tree, TECH)

    def test_merge_buffer_baseline_widens(self):
        """Merge-node-only buffering at 10X parasitics: slow stages that
        need the settle window widened (in place, in the engine)."""
        policy = COMPARISON_POLICIES["chen-wong96"]
        result = MergeBufferCTS(policy, tech=TECH).synthesize(
            make_sink_pairs(8, 30000.0, seed=4)
        )
        metrics = assert_matches_scalar_walk(result.tree, TECH, dt=2.0e-12)
        assert metrics.worst_slew > 1e-9  # far past any settle allowance

    def test_saturating_sink_skipped(self):
        """An unbuffered 150k-unit wire stays below the logic threshold
        through every widening: the sink is skipped, the rest measured."""
        metrics = assert_matches_scalar_walk(saturating_tree(), TECH, dt=2.0e-12)
        assert metrics.skipped_sinks == ["far"]
        assert list(metrics.sink_arrivals) == ["near"]

    def test_buffer_input_below_trim_level(self):
        """A buffer at the end of a 400k-unit wire never sees its input
        reach 2% Vdd: its stage is driven by the parent's whole waveform
        (``trimmed_waveform``'s fallback) instead of a trimmed one."""
        near = make_sink(Point(1000, 0), 8e-15, "near")
        buf = make_buffer(Point(400000, 0), BUFFERS["BUF10X"], "slow_buf")
        buf.attach(make_sink(Point(401000, 0), 8e-15, "behind"))
        merge = make_merge(Point(0, 0))
        merge.attach(near)
        merge.attach(buf)
        tree = ClockTree.from_network(Point(0, 0), merge)
        metrics = assert_matches_scalar_walk(tree, TECH, dt=5.0e-12)
        assert metrics.skipped_sinks == ["behind"]


# ----------------------------------------------------------------------
# Random stages, one batched call, against scalar simulate_stage
# ----------------------------------------------------------------------


@st.composite
def stage_cases(draw):
    n_wires = draw(st.integers(1, 5))
    wires = []
    for node in range(1, n_wires + 1):
        parent = draw(st.integers(0, node - 1))
        length = draw(st.one_of(st.just(0.0), st.floats(50.0, 3000.0)))
        wires.append(StageWire(parent, node, length))
    loads = draw(
        st.dictionaries(
            st.integers(1, n_wires), st.floats(1e-15, 30e-15), max_size=n_wires
        )
    )
    drive = draw(st.sampled_from([None, "BUF10X", "BUF20X", "BUF30X"]))
    slew = draw(st.floats(20e-12, 150e-12))
    start = draw(st.floats(0.0, 200e-12))
    spec = StageSpec(BUFFERS[drive] if drive else None, wires, loads)
    return spec, ramp_waveform(TECH.vdd, slew, t_start=start)


class TestRandomStages:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.lists(stage_cases(), min_size=1, max_size=4))
    def test_batched_matches_scalar(self, cases):
        jobs = [StageJob(TECH, spec, source=wave) for spec, wave in cases]
        outcomes = simulate_stages(jobs, TransientOptions(dt=1e-12))
        threshold = TECH.logic_threshold_voltage()
        for (spec, wave), outcome in zip(cases, outcomes):
            sim = simulate_stage(TECH, spec, wave, dt=1e-12)
            assert outcome.worst_slew == pytest.approx(sim.worst_slew(), abs=TIME_TOL)
            for node_id in sim.node_names:
                node_wave = sim.waveform(node_id)
                assert outcome.v_final[node_id] == pytest.approx(
                    node_wave.v_final, abs=VOLT_TOL
                )
                try:
                    cross = node_wave.cross_time(threshold)
                except ValueError:
                    assert node_id not in outcome.crossings
                else:
                    assert outcome.cross_time(node_id) == pytest.approx(cross, abs=TIME_TOL)
                try:
                    slew = sim.slew_at(node_id)
                except ValueError:
                    assert node_id not in outcome.slews
                else:
                    assert outcome.slews[node_id] == pytest.approx(slew, abs=TIME_TOL)


class TestEngineErrors:
    def test_nonconverging_lane_names_its_stage(self):
        spec = StageSpec(BUFFERS["BUF20X"], [StageWire(0, 1, 800.0)], {1: 10e-15})
        wave = ramp_waveform(TECH.vdd, 60e-12, t_start=50e-12)
        good = StageJob(TECH, spec, source=wave, label="healthy")
        bad = StageJob(TECH, spec, source=wave, label="stuck-stage")
        # One Newton update of at most 10 uV per step cannot follow a
        # 60 ps input edge.
        opts = TransientOptions(dt=1e-12, max_newton=2, damping_v=1e-5)
        with pytest.raises(ConvergenceError, match="healthy|stuck-stage"):
            simulate_stages([good, bad], opts)
        with pytest.raises(ConvergenceError, match="stuck-stage"):
            simulate_stages([bad], opts)

    def test_child_must_follow_parent(self):
        spec = StageSpec(BUFFERS["BUF20X"], [StageWire(0, 1, 800.0)], {1: 10e-15})
        with pytest.raises(ValueError, match="precede"):
            simulate_stages([StageJob(TECH, spec, parent=0)])


class TestMonteCarloSaturation:
    def test_saturating_sink_warns_and_is_excluded(self):
        """An unbuffered 150k-unit wire cannot reach the logic threshold
        within even the widest settle window: every sample warns and
        measures skew over the remaining sink instead of aborting."""
        tree = saturating_tree()
        with pytest.warns(RuntimeWarning, match="far.*saturates"):
            mc = monte_carlo_skew(tree, TECH, VariationModel(seed=2), n_samples=2, dt=10e-12)
        assert mc.nominal_skew == 0.0
        assert np.all(mc.skews == 0.0)
        assert np.all(mc.latencies > 0.0)
