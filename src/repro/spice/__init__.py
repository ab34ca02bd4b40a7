"""A small nonlinear transient circuit simulator ("mini-SPICE").

This is the substrate that replaces the paper's HSPICE + 45 nm PTM setup.
It simulates exactly the circuit class clock tree synthesis needs:

- CMOS buffers (two cascaded inverters) with an alpha-power-law MOSFET
  model — reproducing slew-dependent intrinsic delay and curved output
  waveforms;
- distributed RC wires (pi-segment ladders);
- grounded capacitive loads (gate caps, sink caps);
- piecewise-linear voltage sources.

Integration is backward Euler with Newton iteration. Whole clock trees
are simulated exactly by stage decomposition (:mod:`repro.spice.stages`):
CMOS gates are unidirectional, so the tree splits at buffer inputs into
stages whose interface waveforms are propagated downstream.

Two solvers share the circuit model. :func:`simulate` runs one circuit
with a dense Newton solve per timestep; characterization uses it, and it
is the reference the tests hold the other to. :func:`simulate_stages`
(:mod:`repro.spice.lockstep`) runs every stage of a tree, or of many
trees, as lanes of one batched, time-pipelined loop; tree verification
and Monte Carlo use it, because a tree of hundreds of small stages is
all per-call overhead one stage at a time.
"""

from repro.spice.mosfet import MosfetParams, mosfet_current, nmos_params, pmos_params
from repro.spice.circuit import Circuit
from repro.spice.transient import TransientOptions, TransientResult, simulate
from repro.spice.stages import (
    StageSpec,
    StageWire,
    build_stage_circuit,
    simulate_stage,
    StageSimResult,
)
from repro.spice.netlist import write_netlist, parse_netlist
from repro.spice.lockstep import StageJob, StageOutcome, simulate_stages

__all__ = [
    "MosfetParams",
    "mosfet_current",
    "nmos_params",
    "pmos_params",
    "Circuit",
    "TransientOptions",
    "TransientResult",
    "simulate",
    "StageSpec",
    "StageWire",
    "build_stage_circuit",
    "simulate_stage",
    "StageSimResult",
    "StageJob",
    "StageOutcome",
    "simulate_stages",
    "write_netlist",
    "parse_netlist",
]
