"""The backward-Euler transient solver against analytic references."""

import math

import numpy as np
import pytest

from repro.spice.circuit import Circuit
from repro.spice.transient import TransientOptions, dc_operating_point, simulate
from repro.tech import cts_buffer_library, default_technology
from repro.timing.waveform import Waveform, ramp_waveform


@pytest.fixture(scope="module")
def tech():
    return default_technology()


def step_source(vdd, t_step=10e-12, t_end=2e-9):
    times = np.array([0.0, t_step, t_step + 1e-15, t_end])
    values = np.array([0.0, 0.0, vdd, vdd])
    return Waveform(times, values)


class TestLinearRC:
    def test_rc_step_response_matches_analytic(self, tech):
        """Single R-C low-pass: v(t) = 1 - exp(-t/RC)."""
        r, c = 1000.0, 100e-15  # tau = 100 ps
        circuit = Circuit(tech)
        circuit.add_vsource("in", step_source(1.0))
        circuit.add_resistor("in", "out", r)
        circuit.add_cap("out", c)
        result = simulate(circuit, TransientOptions(dt=0.5e-12, t_stop=1.0e-9, auto_stop=False))
        wave = result.waveform("out")
        tau = r * c
        for t_rel in (0.5 * tau, tau, 2 * tau, 4 * tau):
            expected = 1.0 - math.exp(-t_rel / tau)
            measured = wave.value_at(10e-12 + t_rel)
            assert measured == pytest.approx(expected, abs=0.01)

    def test_rc_ladder_delay_close_to_elmore(self, tech):
        """A 10-section ladder's 50% delay ~ 0.69 * Elmore."""
        n, r_seg, c_seg = 10, 100.0, 20e-15
        circuit = Circuit(tech)
        circuit.add_vsource("in", step_source(1.0))
        prev = "in"
        for i in range(n):
            node = f"n{i}"
            circuit.add_resistor(prev, node, r_seg)
            circuit.add_cap(node, c_seg)
            prev = node
        result = simulate(circuit, TransientOptions(dt=0.25e-12, t_stop=1.0e-9, auto_stop=False))
        delay = result.waveform(prev).cross_time(0.5) - 10e-12
        # Ladder Elmore: sum_k (k+1) * r_seg * c_seg; 50% delay ~ 0.69x it.
        elmore = r_seg * c_seg * n * (n + 1) / 2.0
        assert delay == pytest.approx(0.69 * elmore, rel=0.15)

    def test_charge_conservation_settles_to_source(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", step_source(0.8))
        circuit.add_resistor("in", "a", 500.0)
        circuit.add_resistor("a", "b", 500.0)
        circuit.add_cap("a", 50e-15)
        circuit.add_cap("b", 50e-15)
        result = simulate(circuit, TransientOptions(dt=1e-12, t_stop=2e-9, auto_stop=False))
        assert result.final_voltage("a") == pytest.approx(0.8, abs=1e-3)
        assert result.final_voltage("b") == pytest.approx(0.8, abs=1e-3)


class TestInverterAndBuffer:
    def test_dc_inverter_rails(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", 0.0)
        circuit.add_inverter("in", "out", 10.0)
        op = dc_operating_point(circuit)
        assert op["out"] == pytest.approx(tech.vdd, abs=0.02)

        circuit2 = Circuit(tech)
        circuit2.add_vsource("in", tech.vdd)
        circuit2.add_inverter("in", "out", 10.0)
        op2 = dc_operating_point(circuit2)
        assert op2["out"] == pytest.approx(0.0, abs=0.02)

    def test_buffer_is_non_inverting(self, tech):
        buf = cts_buffer_library()["BUF20X"]
        circuit = Circuit(tech)
        circuit.add_vsource("in", ramp_waveform(tech.vdd, 80e-12, t_start=50e-12))
        circuit.add_buffer("in", "out", buf)
        circuit.add_cap("out", 20e-15)
        result = simulate(circuit, TransientOptions(dt=1e-12))
        out = result.waveform("out")
        assert out.v_initial < 0.05
        assert out.v_final > 0.95 * tech.vdd

    def test_buffer_delay_positive_and_reasonable(self, tech):
        buf = cts_buffer_library()["BUF20X"]
        circuit = Circuit(tech)
        wave = ramp_waveform(tech.vdd, 80e-12, t_start=50e-12)
        circuit.add_vsource("in", wave)
        circuit.add_buffer("in", "out", buf)
        circuit.add_cap("out", 20e-15)
        result = simulate(circuit, TransientOptions(dt=1e-12))
        delay = result.waveform("out").cross_time(0.5) - wave.cross_time(0.5)
        assert 10e-12 < delay < 150e-12

    def test_larger_buffer_faster_into_same_load(self, tech):
        lib = cts_buffer_library()
        delays = {}
        for name in ("BUF10X", "BUF30X"):
            circuit = Circuit(tech)
            wave = ramp_waveform(tech.vdd, 80e-12, t_start=50e-12)
            circuit.add_vsource("in", wave)
            circuit.add_buffer("in", "out", lib[name])
            circuit.add_cap("out", 100e-15)
            result = simulate(circuit, TransientOptions(dt=1e-12))
            delays[name] = result.waveform("out").cross_time(0.5)
        assert delays["BUF30X"] < delays["BUF10X"]


class TestSolverControls:
    def test_auto_stop_trims_window(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", step_source(1.0, t_end=100e-12))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_cap("out", 10e-15)  # tau = 1 ps, settles instantly
        result = simulate(
            circuit, TransientOptions(dt=1e-12, t_stop=5e-9, auto_stop=True)
        )
        assert result.times[-1] < 1e-9

    def test_t_start_offsets_timebase(self, tech):
        circuit = Circuit(tech)
        wave = ramp_waveform(1.0, 50e-12, t_start=1.0e-9)
        circuit.add_vsource("in", wave)
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_cap("out", 10e-15)
        result = simulate(
            circuit,
            TransientOptions(dt=1e-12, t_start=0.9e-9, t_stop=1.6e-9, auto_stop=False),
        )
        assert result.times[0] == pytest.approx(0.9e-9)
        cross = result.waveform("out").cross_time(0.5)
        assert cross > 1.0e-9

    def test_waveform_for_unknown_node_raises(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", step_source(1.0))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_cap("out", 10e-15)
        result = simulate(circuit, TransientOptions(dt=1e-12, t_stop=0.1e-9))
        with pytest.raises(KeyError):
            result.waveform("nope")

    def test_ground_waveform_is_zero(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", step_source(1.0))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_cap("out", 10e-15)
        result = simulate(circuit, TransientOptions(dt=1e-12, t_stop=0.1e-9))
        assert np.all(result.waveform("0").values == 0)


class TestDcOperatingPointOptions:
    """The DC solve keeps the caller's Newton tolerances."""

    def _spy(self, monkeypatch):
        import repro.spice.transient as transient_mod

        calls = []
        original = transient_mod._newton_solve

        def spy(sys, a0, rhs, v_full, opts, *args, **kwargs):
            calls.append(opts)
            return original(sys, a0, rhs, v_full, opts, *args, **kwargs)

        monkeypatch.setattr(transient_mod, "_newton_solve", spy)
        return calls

    def _buffer_circuit(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", ramp_waveform(tech.vdd, 80e-12, t_start=50e-12))
        circuit.add_buffer("in", "out", cts_buffer_library()["BUF20X"])
        circuit.add_cap("out", 20e-15)
        return circuit

    def test_simulate_dc_gets_caller_vtol_and_damping(self, tech, monkeypatch):
        calls = self._spy(monkeypatch)
        opts = TransientOptions(dt=1e-12, vtol=1e-8, damping_v=0.2)
        simulate(self._buffer_circuit(tech), opts)
        dc = calls[0]
        assert dc.vtol == 1e-8
        assert dc.damping_v == 0.2
        assert dc.max_newton >= 100
