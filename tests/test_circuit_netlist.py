"""Circuit assembly and SPICE-netlist round-tripping."""

import pytest

from repro.spice.circuit import SHORT_RESISTANCE, Circuit, GROUND, VDD
from repro.spice.netlist import parse_netlist, write_netlist
from repro.spice.transient import TransientOptions, simulate
from repro.tech import cts_buffer_library, default_technology
from repro.timing.waveform import ramp_waveform


@pytest.fixture()
def tech():
    return default_technology()


class TestCircuitAssembly:
    def test_wire_segmentation(self, tech):
        circuit = Circuit(tech)
        internal = circuit.add_wire("a", "b", 2000.0, segment_length=400.0)
        assert len(internal) == 4  # 5 segments -> 4 internal nodes
        assert len(circuit.resistors) == 5
        total_r = sum(r.r for r in circuit.resistors)
        assert total_r == pytest.approx(tech.wire.total_r(2000.0))
        total_c = sum(c.c for c in circuit.caps)
        assert total_c == pytest.approx(tech.wire.total_c(2000.0))

    def test_zero_length_wire_shorts(self, tech):
        circuit = Circuit(tech)
        internal = circuit.add_wire("a", "b", 0.0)
        assert internal == []
        assert circuit.resistors[0].r <= 1e-3

    def test_float_residue_wire_builds_as_short(self, tech):
        """A wire below the short's resistance is the short, with no caps."""
        circuit = Circuit(tech)
        assert tech.wire.total_r(1e-9) < SHORT_RESISTANCE
        internal = circuit.add_wire("a", "b", 1e-9)
        assert internal == []
        assert [(r.n1, r.n2, r.r) for r in circuit.resistors] == [("a", "b", SHORT_RESISTANCE)]
        assert circuit.caps == []

    def test_milliohm_wire_still_builds_rc(self, tech):
        circuit = Circuit(tech)
        assert tech.wire.total_r(0.1) > SHORT_RESISTANCE
        circuit.add_wire("a", "b", 0.1)
        assert sum(r.r for r in circuit.resistors) == pytest.approx(tech.wire.total_r(0.1))
        assert sum(c.c for c in circuit.caps) == pytest.approx(tech.wire.total_c(0.1))
        assert sum(c.c for c in circuit.caps) > 0

    def test_wire_segment_cap_distribution(self, tech):
        """pi model: end nodes get half a segment's cap."""
        circuit = Circuit(tech)
        circuit.add_wire("a", "b", 800.0, segment_length=400.0)
        caps = {c.node: c.c for c in circuit.caps}
        seg_c = tech.wire.total_c(800.0) / 2
        assert caps["a"] == pytest.approx(seg_c / 2)
        assert caps["b"] == pytest.approx(seg_c / 2)

    def test_buffer_adds_two_inverters(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", 0.0)
        mid = circuit.add_buffer("in", "out", cts_buffer_library()["BUF20X"])
        assert len(circuit.mosfets) == 4
        assert mid in circuit.all_nodes()
        assert any(s.node == VDD for s in circuit.sources)

    def test_negative_element_values_rejected(self, tech):
        circuit = Circuit(tech)
        with pytest.raises(ValueError):
            circuit.add_resistor("a", "b", -1.0)
        with pytest.raises(ValueError):
            circuit.add_cap("a", -1e-15)
        with pytest.raises(ValueError):
            circuit.add_wire("a", "b", -5.0)

    def test_duplicate_source_rejected(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", 0.0)
        with pytest.raises(ValueError):
            circuit.add_vsource("in", 1.0)

    def test_node_and_element_counts(self, tech):
        circuit = Circuit(tech)
        circuit.add_vsource("in", 1.0)
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_cap("out", 1e-15)
        assert circuit.node_count() == 2  # ground excluded
        assert circuit.element_count() == 3


class TestNetlistRoundTrip:
    def build(self, tech):
        circuit = Circuit(tech, title="roundtrip test")
        wave = ramp_waveform(tech.vdd, 80e-12, t_start=50e-12)
        circuit.add_vsource("in", wave)
        circuit.add_buffer("in", "mid", cts_buffer_library()["BUF10X"])
        circuit.add_wire("mid", "out", 1000.0)
        circuit.add_cap("out", 10e-15)
        return circuit

    def test_roundtrip_preserves_elements(self, tech):
        original = self.build(tech)
        parsed = parse_netlist(write_netlist(original), tech)
        assert len(parsed.resistors) == len(original.resistors)
        assert len(parsed.caps) == len(original.caps)
        assert len(parsed.mosfets) == len(original.mosfets)
        assert len(parsed.sources) == len(original.sources)

    def test_roundtrip_simulates_identically(self, tech):
        original = self.build(tech)
        parsed = parse_netlist(write_netlist(original), tech)
        opts = TransientOptions(dt=1e-12)
        w1 = simulate(original, opts).waveform("out")
        w2 = simulate(parsed, opts).waveform("out")
        d1 = w1.cross_time(0.5 * tech.vdd)
        d2 = w2.cross_time(0.5 * tech.vdd)
        assert d1 == pytest.approx(d2, abs=0.2e-12)

    def test_netlist_contains_cards(self, tech):
        text = write_netlist(self.build(tech))
        assert text.startswith("*")
        assert ".END" in text
        assert "PWL(" in text
        assert "NMOS" in text and "PMOS" in text

    def test_parse_rejects_garbage(self, tech):
        with pytest.raises(ValueError):
            parse_netlist("Q1 a b c\n", tech)

    def test_parse_rejects_ungrounded_cap(self, tech):
        with pytest.raises(ValueError):
            parse_netlist("C1 a b 1e-15\n", tech)
