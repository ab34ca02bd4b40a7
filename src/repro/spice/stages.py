"""Stage circuits: a driving buffer, an RC wire tree, and its loads.

CMOS gates are unidirectional — a gate's input draws only its (constant)
gate capacitance and its output is regenerated from the rails — so a
buffered clock tree decomposes *exactly* at buffer inputs into independent
"stages". Simulating stage by stage in topological order, feeding each
stage the waveform computed at its driver's input, reproduces the flat
SPICE solution of the whole tree while keeping every linear solve tiny.

The same :class:`StageSpec` describes both characterization circuits
(single wire, branch) and the stages of synthesized trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spice.circuit import Circuit, DEFAULT_SEGMENT_LENGTH, SHORT_RESISTANCE
from repro.spice.transient import TransientOptions, TransientResult, simulate
from repro.tech.buffers import BufferType
from repro.tech.technology import Technology
from repro.timing.waveform import Waveform

#: Node id of the driving buffer's output in every StageSpec.
STAGE_ROOT = 0

INPUT_NODE = "in"


@dataclass(frozen=True)
class StageWire:
    """A wire of ``length`` units from tree node ``parent`` to ``node``."""

    parent: int
    node: int
    length: float


@dataclass
class StageSpec:
    """One buffered stage: driver + RC tree + capacitive loads.

    ``wires`` defines a tree over small integer node ids with node 0 being
    the driver's output; ``load_caps`` attaches extra grounded capacitance
    (downstream buffer input caps, sink caps) at any node. A stage without
    a driver (``drive is None``) models the tree root driven directly by
    the clock source.
    """

    drive: BufferType | None
    wires: list[StageWire] = field(default_factory=list)
    load_caps: dict[int, float] = field(default_factory=dict)

    def node_ids(self) -> list[int]:
        ids = {STAGE_ROOT}
        for w in self.wires:
            ids.add(w.parent)
            ids.add(w.node)
        ids.update(self.load_caps)
        return sorted(ids)

    def validate(self) -> None:
        """Check the wires form a tree rooted at node 0."""
        seen = {STAGE_ROOT}
        for w in self.wires:
            if w.parent not in seen:
                raise ValueError(
                    f"wire parent {w.parent} appears before being reached"
                )
            if w.node in seen:
                raise ValueError(f"node {w.node} has two parents")
            if w.length < 0:
                raise ValueError(f"negative wire length on {w}")
            seen.add(w.node)
        for node in self.load_caps:
            if node not in seen:
                raise ValueError(f"load at unknown node {node}")

    def total_wire_length(self) -> float:
        return sum(w.length for w in self.wires)

    def total_load_cap(self) -> float:
        return sum(self.load_caps.values())


def _stage_node_name(node_id: int) -> str:
    return INPUT_NODE if node_id == -1 else f"s{node_id}"


def build_stage_circuit(
    tech: Technology,
    spec: StageSpec,
    input_wave: Waveform | float,
    segment_length: float = DEFAULT_SEGMENT_LENGTH,
    title: str = "stage",
) -> tuple[Circuit, dict[int, str], list[str]]:
    """Materialize a stage as a flat circuit.

    Returns ``(circuit, node_names, internal_wire_nodes)`` where
    ``node_names`` maps stage node ids to circuit node names and the
    internal wire nodes are extra probe points for worst-slew monitoring.
    """
    spec.validate()
    circuit = Circuit(tech, title=title)
    circuit.add_vsource(INPUT_NODE, input_wave)
    root_name = _stage_node_name(STAGE_ROOT)
    if spec.drive is not None:
        circuit.add_buffer(INPUT_NODE, root_name, spec.drive)
    else:
        circuit.add_resistor(INPUT_NODE, root_name, SHORT_RESISTANCE)
    names = {STAGE_ROOT: root_name}
    internal: list[str] = []
    for w in spec.wires:
        names[w.node] = _stage_node_name(w.node)
        internal.extend(
            circuit.add_wire(
                names[w.parent], names[w.node], w.length, segment_length
            )
        )
    for node, cap in spec.load_caps.items():
        circuit.add_cap(names[node], cap)
    return circuit, names, internal


@dataclass
class StageSimResult:
    """Measurements from one simulated stage."""

    tech: Technology
    spec: StageSpec
    result: TransientResult
    node_names: dict[int, str]
    internal_nodes: list[str]

    def input_waveform(self) -> Waveform:
        return self.result.waveform(INPUT_NODE)

    def waveform(self, node_id: int) -> Waveform:
        return self.result.waveform(self.node_names[node_id])

    def input_cross_time(self) -> float:
        return self.input_waveform().cross_time(
            self.tech.logic_threshold_voltage()
        )

    def delay_to(self, node_id: int) -> float:
        """50% input crossing to 50% crossing at ``node_id``."""
        return (
            self.waveform(node_id).cross_time(self.tech.logic_threshold_voltage())
            - self.input_cross_time()
        )

    def buffer_delay(self) -> float:
        """Intrinsic delay of the driving buffer (input to node 0)."""
        return self.delay_to(STAGE_ROOT)

    def slew_at(self, node_id: int) -> float:
        return self.waveform(node_id).slew(
            self.tech.vdd, self.tech.slew_lo, self.tech.slew_hi
        )

    def input_slew(self) -> float:
        return self.input_waveform().slew(
            self.tech.vdd, self.tech.slew_lo, self.tech.slew_hi
        )

    def worst_slew(self) -> float:
        """Largest 10-90 slew over every node of the stage.

        A node that has not reached the 90% level by the end of the
        window is itself a slew violation; its slew is reported as the
        (lower-bound) time from the 10% crossing to the window end.
        """
        worst = 0.0
        vdd = self.tech.vdd
        lo_v = self.tech.slew_lo * vdd
        for name in list(self.node_names.values()) + self.internal_nodes:
            wave = self.result.waveform(name)
            if wave.v_final < lo_v:
                continue  # never rose (e.g. falling internal node)
            try:
                slew = wave.slew(vdd, self.tech.slew_lo, self.tech.slew_hi)
            except ValueError:
                slew = float(wave.times[-1]) - wave.cross_time(lo_v)
            worst = max(worst, slew)
        return worst

    def trimmed_waveform(self, node_id: int, lead: float = 20e-12) -> Waveform:
        """Waveform at ``node_id`` windowed to its transition.

        Passing trimmed waveforms downstream keeps each stage's simulation
        window tight; the clamped-extrapolation semantics of
        :class:`Waveform` preserve the settled levels outside the window.
        """
        wave = self.waveform(node_id)
        vdd = self.tech.vdd
        try:
            t0 = wave.cross_time(0.02 * vdd)
        except ValueError:
            return wave
        t0 = max(wave.times[0], t0 - lead)
        return wave.windowed(t0, wave.times[-1])


def simulate_stage(
    tech: Technology,
    spec: StageSpec,
    input_wave: Waveform,
    dt: float = 1.0e-12,
    segment_length: float = DEFAULT_SEGMENT_LENGTH,
    settle_allowance: float = 1.5e-9,
) -> StageSimResult:
    """Simulate one stage driven by ``input_wave``.

    The time window starts where the input starts and extends far enough
    for the stage to settle; early-stopping trims the excess.
    """
    circuit, names, internal = build_stage_circuit(
        tech, spec, input_wave, segment_length
    )
    t_start = float(input_wave.times[0])
    t_stop = float(input_wave.times[-1]) + settle_allowance
    opts = TransientOptions(dt=dt, t_start=t_start, t_stop=t_stop, auto_stop=True)
    result = simulate(circuit, opts)
    return StageSimResult(tech, spec, result, names, internal)


def single_wire_spec(
    drive: BufferType, length: float, load_cap: float
) -> StageSpec:
    """The paper's single-wire component (Fig. 3.3)."""
    return StageSpec(
        drive=drive,
        wires=[StageWire(STAGE_ROOT, 1, length)],
        load_caps={1: load_cap},
    )


def branch_spec(
    drive: BufferType,
    left_length: float,
    right_length: float,
    left_cap: float,
    right_cap: float,
    stem_length: float = 0.0,
) -> StageSpec:
    """The paper's two-branch component (Fig. 3.5).

    Node 1 is the branch point (== node 0 when ``stem_length`` is 0 is
    avoided by always materializing the stem wire, possibly zero-length),
    node 2 the left endpoint, node 3 the right endpoint.
    """
    return StageSpec(
        drive=drive,
        wires=[
            StageWire(STAGE_ROOT, 1, stem_length),
            StageWire(1, 2, left_length),
            StageWire(1, 3, right_length),
        ],
        load_caps={2: left_cap, 3: right_cap},
    )
