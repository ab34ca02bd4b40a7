"""Circuit assembly: nodes, elements, and CMOS/wire subcircuit helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spice.mosfet import MosfetParams, nmos_params, pmos_params
from repro.tech.buffers import BufferType
from repro.tech.technology import Technology
from repro.timing.waveform import Waveform

GROUND = "0"
VDD = "vdd"

#: Default maximum wire-segment length (layout units) for pi-ladder wires.
DEFAULT_SEGMENT_LENGTH = 400.0

#: Hard cap on segments per wire so huge wires stay simulable.
MAX_SEGMENTS_PER_WIRE = 64

#: Resistance (Ohm) of the short that joins the ends of a zero-length wire.
SHORT_RESISTANCE = 1e-3


@dataclass
class Resistor:
    n1: str
    n2: str
    r: float


@dataclass
class GroundedCap:
    node: str
    c: float


@dataclass
class Mosfet:
    drain: str
    gate: str
    source: str
    params: MosfetParams


@dataclass
class VSource:
    """Ideal grounded voltage source: fixed value or a driving waveform."""

    node: str
    value: float | Waveform


@dataclass
class Circuit:
    """A flat netlist of R / C / MOSFET / V elements over named nodes.

    Node names are arbitrary strings; ``"0"`` is ground and ``"vdd"`` the
    supply (created implicitly by :meth:`add_rails`). Helper methods build
    the recurring subcircuits: inverters, two-inverter buffers, and
    pi-segmented distributed RC wires.
    """

    tech: Technology
    title: str = "circuit"
    resistors: list[Resistor] = field(default_factory=list)
    caps: list[GroundedCap] = field(default_factory=list)
    mosfets: list[Mosfet] = field(default_factory=list)
    sources: list[VSource] = field(default_factory=list)
    _counter: int = 0

    def fresh_node(self, prefix: str = "n") -> str:
        """A new unique internal node name."""
        self._counter += 1
        return f"{prefix}${self._counter}"

    # ------------------------------------------------------------------
    # Primitive elements
    # ------------------------------------------------------------------

    def add_resistor(self, n1: str, n2: str, r: float) -> None:
        if r <= 0:
            raise ValueError(f"resistance must be positive, got {r}")
        self.resistors.append(Resistor(n1, n2, r))

    def add_cap(self, node: str, c: float) -> None:
        """Grounded capacitor. Zero-valued caps are dropped."""
        if c < 0:
            raise ValueError(f"capacitance must be non-negative, got {c}")
        if c > 0:
            self.caps.append(GroundedCap(node, c))

    def add_mosfet(self, drain: str, gate: str, source: str, params: MosfetParams) -> None:
        self.mosfets.append(Mosfet(drain, gate, source, params))

    def add_vsource(self, node: str, value: float | Waveform) -> None:
        if any(s.node == node for s in self.sources):
            raise ValueError(f"node {node!r} already has a source")
        self.sources.append(VSource(node, value))

    def add_rails(self) -> None:
        """Attach the Vdd rail source (ground is implicit)."""
        if not any(s.node == VDD for s in self.sources):
            self.add_vsource(VDD, self.tech.vdd)

    # ------------------------------------------------------------------
    # Subcircuits
    # ------------------------------------------------------------------

    def add_inverter(self, inp: str, out: str, width: float) -> None:
        """A CMOS inverter of the given relative width.

        The PMOS is made twice as wide as the NMOS (standard beta-matching)
        and parasitic gate/drain caps are attached.
        """
        self.add_rails()
        self.add_mosfet(out, inp, GROUND, nmos_params(self.tech, width))
        self.add_mosfet(out, inp, VDD, pmos_params(self.tech, 2.0 * width))
        self.add_cap(inp, self.tech.gate_cap_per_x * width)
        self.add_cap(out, self.tech.drain_cap_per_x * width)

    def add_buffer(self, inp: str, out: str, buf: BufferType) -> str:
        """A two-inverter buffer; returns the internal mid node name."""
        mid = self.fresh_node("mid")
        self.add_inverter(inp, mid, buf.input_size)
        self.add_inverter(mid, out, buf.size)
        return mid

    def add_wire(
        self,
        n1: str,
        n2: str,
        length: float,
        segment_length: float = DEFAULT_SEGMENT_LENGTH,
    ) -> list[str]:
        """A distributed RC wire as a ladder of pi segments.

        Returns the list of internal node names (useful as slew probes).
        Zero-length wires short the nodes with a tiny resistor so the
        matrix stays well formed. So do wires whose resistance is below
        that short's (float residue such as 1e-9 units): a smaller
        resistor only ill-conditions the nodal matrix and turns the
        solution into rounding noise.
        """
        if length < 0:
            raise ValueError(f"wire length must be non-negative, got {length}")
        wire = self.tech.wire
        if wire.total_r(length) < SHORT_RESISTANCE:
            self.add_resistor(n1, n2, SHORT_RESISTANCE)
            return []
        n_seg = max(1, min(MAX_SEGMENTS_PER_WIRE, round(length / segment_length)))
        seg_r = wire.total_r(length) / n_seg
        seg_c = wire.total_c(length) / n_seg
        nodes = [n1] + [self.fresh_node("w") for _ in range(n_seg - 1)] + [n2]
        for a, b in zip(nodes, nodes[1:]):
            self.add_resistor(a, b, seg_r)
        # pi model: half-segment cap at the ends, full at internal joints.
        self.add_cap(nodes[0], seg_c / 2.0)
        self.add_cap(nodes[-1], seg_c / 2.0)
        for node in nodes[1:-1]:
            self.add_cap(node, seg_c)
        return nodes[1:-1]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def all_nodes(self) -> list[str]:
        """Every node mentioned by any element (ground excluded)."""
        names: set[str] = set()
        for r in self.resistors:
            names.update((r.n1, r.n2))
        for c in self.caps:
            names.add(c.node)
        for m in self.mosfets:
            names.update((m.drain, m.gate, m.source))
        for s in self.sources:
            names.add(s.node)
        names.discard(GROUND)
        return sorted(names)

    def source_nodes(self) -> dict[str, float | Waveform]:
        return {s.node: s.value for s in self.sources}

    def node_count(self) -> int:
        return len(self.all_nodes())

    def element_count(self) -> int:
        return (
            len(self.resistors)
            + len(self.caps)
            + len(self.mosfets)
            + len(self.sources)
        )
