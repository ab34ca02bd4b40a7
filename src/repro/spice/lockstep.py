"""Lockstep transient simulation of every buffer stage of a clock tree.

:func:`repro.spice.stages.simulate_stage` runs one stage at a time: its
own time loop and a dense Newton solve over every unknown per timestep.
A synthesized tree has hundreds of stages of 5-15 unknowns each, so that
walk is all per-call overhead. This engine advances many stages, each one
*lane*, through one shared backward-Euler loop instead:

- *Condensed Newton.* A stage's RC network is linear and its four MOSFETs
  touch only two unknowns, the buffer's ``mid`` node and its output. Each
  lane inverts ``A0 = G + C/dt`` once. Per timestep the linear response
  ``A0^-1 rhs`` is one batched matrix-vector product, and Newton solves
  for the two device nodes as a batched 2x2 system ``(I + S D) y = r``
  (``S`` the device-node block of ``A0^-1``, ``D`` the device Jacobian).
  The full Newton update follows from ``y`` exactly, so every lane keeps
  the scalar solver's damping, oscillation halving, acceptance rules and
  ``ConvergenceError``.
- *Time pipelining.* A child stage is driven by its parent's waveform at
  the driving buffer's input, trimmed to start 20 ps before its 2%
  crossing (:meth:`StageSimResult.trimmed_waveform`). The child joins the
  loop as soon as that start is known and then lags its parent by a fixed
  number of steps, so its input samples always exist already. A parent
  keeps only a short ring of recent samples per child.
- *In-place widening.* A lane that reaches the end of its window with a
  load below 95% Vdd extends the window and keeps going. A longer window
  replays the same steps, so this equals simulating again from scratch.
- *Streaming measurement.* Threshold crossings (10/50/90%) are recorded
  as they happen, so no lane stores its waveforms.

Lanes are bucketed by padded unknown count, so one long wire does not
pad every lane. The scalar simulator stays the reference; the tests
compare the two stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.circuit import DEFAULT_SEGMENT_LENGTH, GROUND, VDD
from repro.spice.mosfet import KV, LAMBDA
from repro.spice.stages import INPUT_NODE, STAGE_ROOT, StageSpec, build_stage_circuit
from repro.spice.transient import (
    ConvergenceError,
    TransientOptions,
    _compile,
    _mosfet_terminals,
    dc_solve,
)
from repro.tech.technology import Technology
from repro.timing.waveform import Waveform

#: Window past the input's last sample before the first widening.
SETTLE_ALLOWANCE = 1.5e-9
#: Each widening multiplies the allowance by this, at most twice.
WIDEN_FACTOR = 4.0
MAX_WIDENINGS = 2
#: A load below this fraction of Vdd at the window end widens the window.
SETTLED_FRACTION = 0.95
#: Child inputs start this long before the parent's trim-level crossing.
TRIM_LEAD = 20.0e-12
TRIM_FRACTION = 0.02
#: Smallest padded lane width; wider lanes go to power-of-two buckets.
MIN_BUCKET = 16
#: Step count of a lane whose input end is not known yet.
_OPEN = 1 << 62


@dataclass
class StageJob:
    """One stage to simulate.

    A root stage is driven by ``source``; any other stage by the waveform
    its ``parent`` job computes at spec node ``tap``, trimmed like
    :meth:`StageSimResult.trimmed_waveform`. Parents precede children in
    the job list. ``label`` names the stage in errors.
    """

    tech: Technology
    spec: StageSpec
    source: Waveform | None = None
    parent: int | None = None
    tap: int = STAGE_ROOT
    label: str = "stage"


@dataclass
class StageOutcome:
    """What one simulated stage measured, keyed by spec node id."""

    worst_slew: float  # s, as StageSimResult.worst_slew
    v_final: dict[int, float]
    crossings: dict[int, float]  # first logic-threshold crossing, s
    slews: dict[int, float]  # 10-90 slew of nodes that reached 90%, s

    def cross_time(self, node_id: int) -> float:
        """Logic-threshold crossing at ``node_id``; ValueError if none."""
        try:
            return self.crossings[node_id]
        except KeyError:
            raise ValueError(f"node {node_id} never crosses the logic threshold") from None


def simulate_stages(
    jobs: list[StageJob],
    options: TransientOptions | None = None,
    segment_length: float = DEFAULT_SEGMENT_LENGTH,
) -> list[StageOutcome]:
    """Simulate every job in one lockstep loop; outcomes in job order.

    ``options`` supplies ``dt`` and the Newton and auto-stop settings;
    its ``t_start`` / ``t_stop`` are ignored (each lane's window follows
    from its input, as in :func:`simulate_stage`).
    """
    return _Engine(jobs, options or TransientOptions(), segment_length).run()


# ----------------------------------------------------------------------
# Device model over arrays
# ----------------------------------------------------------------------


#: Rows of a lane's device table (one column per MOSFET).
_KW, _AKW, _ALPHA, _HALF, _KV_HALF, _VTH, _SIGN, _GMIN, _SRC = range(9)
_DEV_ROWS = 9
#: Device table of a stage with no buffer: no current, no derivatives.
_NO_DEVICES = np.zeros((_DEV_ROWS, 4))
_NO_DEVICES[[_ALPHA, _VTH, _SIGN]] = 1.0
_NO_DEVICES[_HALF] = 0.5


def _device_table(mos: list, vdd: float) -> np.ndarray:
    """Per-device constants of :func:`repro.spice.mosfet.mosfet_current`.

    PMOS rows are mirrored: ``_SRC`` holds the sign-flipped source rail.
    """
    table = np.zeros((_DEV_ROWS, len(mos)))
    for j, m in enumerate(mos):
        p = m.params
        sign = -1.0 if p.is_pmos else 1.0
        table[_KW, j] = p.k * p.width
        table[_AKW, j] = p.alpha * p.k * p.width
        table[_ALPHA, j] = p.alpha
        table[_HALF, j] = p.alpha / 2.0
        table[_KV_HALF, j] = KV * (p.alpha / 2.0)
        table[_VTH, j] = p.vth
        table[_SIGN, j] = sign
        table[_GMIN, j] = p.gmin
        table[_SRC, j] = sign * (vdd if m.source == VDD else 0.0)
    return table


def _device_nodes(circuit) -> tuple[str, str]:
    """The ``mid`` and output nodes of a stage's two-inverter buffer."""
    mos = circuit.mosfets
    mid, out = mos[0].drain, mos[2].drain
    expected = [(INPUT_NODE, mid), (INPUT_NODE, mid), (mid, out), (mid, out)]
    if [(m.gate, m.drain) for m in mos] != expected or any(
        m.source not in (GROUND, VDD) for m in mos
    ):
        raise ValueError("lockstep lanes expect one two-inverter buffer per stage")
    return mid, out


def _alpha_power(vg: np.ndarray, vd: np.ndarray, dev: np.ndarray):
    """:func:`repro.spice.mosfet.mosfet_current` over arrays of devices.

    ``vg`` / ``vd`` are gate and drain voltages, shape (lanes, devices);
    ``dev`` the device tables field-major, shape (9, lanes, devices).
    Every source is a rail, so only the current into the drain and its
    gate and drain derivatives are returned. Currents follow the scalar
    model operation for operation; derivatives, which only steer Newton,
    are regrouped to save array passes.
    """
    sign = dev[_SIGN]
    vg, vd, vs = sign * vg, sign * vd, dev[_SRC]
    vds_signed = vd - vs
    vds = np.abs(vds_signed)
    over = vg - np.minimum(vd, vs) - dev[_VTH]
    on = over > 0.0
    over = np.where(on, over, 1.0)
    p_alpha = over ** dev[_ALPHA]
    p_half = over ** dev[_HALF]
    idsat = dev[_KW] * p_alpha * on
    didsat = dev[_AKW] * (p_alpha / over) * on
    vdsat = KV * p_half
    inv_vdsat = 1.0 / vdsat
    u = vds / vdsat
    df_du = 2.0 - 2.0 * u
    sat = vds >= vdsat
    shape = np.where(sat, 1.0 + LAMBDA * (vds - vdsat), (2.0 - u) * u)
    gm_tail = np.where(sat, -LAMBDA, -(df_du * u) * inv_vdsat)
    gds_gain = np.where(sat, LAMBDA, df_du * inv_vdsat)
    i = idsat * shape
    gm = didsat * shape + idsat * (dev[_KV_HALF] * (p_half / over)) * gm_tail
    direction = np.copysign(1.0, vds_signed)
    gmin = dev[_GMIN]
    dd = idsat * gds_gain + gmin + np.where(direction < 0.0, gm, 0.0)
    return sign * (i * direction + gmin * vds_signed), gm * direction, dd


# ----------------------------------------------------------------------
# Lanes and buckets
# ----------------------------------------------------------------------


class _Lane:
    """Host-side state of one stage while it is being simulated."""

    def __init__(self, index: int, job: StageJob, t_start: float) -> None:
        self.index = index
        self.job = job
        self.t_start = t_start
        self.t_last = float("inf")  # input's last sample time once known
        self.t_in_end = float("inf")  # inputs active until then (auto-stop)
        self.allowance = SETTLE_ALLOWANCE
        self.widenings = 0
        self.n_steps = _OPEN
        self.wave: Waveform | None = None  # explicit driving waveform
        self.schedule: np.ndarray | None = None  # its samples on the lane grid
        self.in_tap = -1  # tap slot feeding this lane, or -1
        self.taps: list[tuple[int, int]] = []  # (tap slot, column) per child
        self.cols: dict[int, int] = {}  # spec node id -> column
        self.load_cols = np.zeros(0, dtype=int)
        self.measure_cols = np.zeros(0, dtype=int)
        self.bucket: _Bucket | None = None
        self.row = -1

    def set_input_end(self, t_last: float, dt: float) -> None:
        """Fix the window from the input's last sample (``simulate_stage``)."""
        self.t_last = t_last
        self.t_in_end = t_last if t_last > self.t_start else self.t_start + 100 * dt
        t_stop = t_last + self.allowance
        self.n_steps = max(2, int(round((t_stop - self.t_start) / dt)) + 1)
        if self.wave is not None:
            times = self.t_start + np.arange(self.n_steps) * dt
            self.schedule = np.interp(times, self.wave.times, self.wave.values)


class _Bucket:
    """Dense per-lane arrays for lanes of at most ``width`` unknowns.

    Rows ``0..n-1`` are the live lanes; removal swaps the last row in.
    Column 0 of a buffered lane is its ``mid`` node, column 1 its output.
    """

    def __init__(self, width: int, cap: int = 8) -> None:
        m = width
        self.lanes: list[_Lane] = []
        self.cap = cap
        self.arrays = {
            "v": ((m,), 0.0),
            "ainv": ((m, m), 0.0),
            "z": ((m, 2), 0.0),  # A0^-1 columns of the device nodes
            "s": ((2, 2), 0.0),  # ... and their device-node rows
            "b_in": ((m,), 0.0),
            "b_const": ((m,), 0.0),
            "c_h": ((m,), 0.0),
            "dev": ((_DEV_ROWS, 4), _NO_DEVICES),
            "thr": ((3,), 0.0),
            "cross": ((3, m), np.nan),
            "next_thr": ((m,), np.inf),  # lowest level not crossed yet
            "k": ((), 0),
            "t0": ((), 0.0),
            "t_in_end": ((), np.inf),
            "n_steps": ((), _OPEN),
            "settled": ((), 0),
            "in_tap": ((), -1),
            "tap_slot": ((1,), -1),  # tap slot per child, -1 padded
            "tap_col": ((1,), 0),
        }
        for name, (shape, fill) in self.arrays.items():
            self._alloc(name, shape, fill)
        self.row_index = np.arange(cap)[:, None]

    def _alloc(self, name: str, shape: tuple, fill) -> None:
        old = getattr(self, name, None)
        dtype = int if isinstance(fill, int) else float
        new = np.full((self.cap,) + shape, fill, dtype=dtype)
        if old is not None:
            new[(slice(0, old.shape[0]),) + tuple(slice(0, d) for d in old.shape[1:])] = old
        self.arrays[name] = (shape, fill)
        setattr(self, name, new)

    @property
    def n(self) -> int:
        return len(self.lanes)

    def add(self, lane: _Lane, values: dict) -> int:
        if self.n == self.cap:
            self.cap *= 2
            for name, (shape, fill) in self.arrays.items():
                self._alloc(name, shape, fill)
            self.row_index = np.arange(self.cap)[:, None]
        n_taps = len(values.get("tap_slot", ()))
        if n_taps > self.tap_slot.shape[1]:
            for name in ("tap_slot", "tap_col"):
                self._alloc(name, (n_taps,), self.arrays[name][1])
        row = self.n
        for name, (_, fill) in self.arrays.items():
            getattr(self, name)[row] = fill
        for name, value in values.items():
            value = np.asarray(value)
            getattr(self, name)[(row,) + tuple(slice(0, d) for d in value.shape)] = value
        lane.bucket, lane.row = self, row
        self.lanes.append(lane)
        return row

    def remove(self, lane: _Lane) -> None:
        row, last = lane.row, self.n - 1
        if row != last:
            for name in self.arrays:
                arr = getattr(self, name)
                arr[row] = arr[last]
            moved = self.lanes[last]
            self.lanes[row] = moved
            moved.row = row
        self.lanes.pop()
        lane.bucket, lane.row = None, -1


class _Taps:
    """Ring buffers of recent parent samples, one per child stage.

    Slot ``s`` holds the parent's voltage at the child's driving node for
    the parent's last ``size`` steps. While the node has not reached the
    trim level, completed ring segments are also kept (``spills``): if it
    never does, the child is driven by the whole waveform.
    """

    def __init__(self, size: int, cap: int = 16) -> None:
        self.size = size
        self.ring = np.zeros((cap, size))
        self.t0 = np.zeros(cap)  # parent's first sample time
        self.last = np.zeros(cap, dtype=int)  # parent's newest step
        self.done = np.zeros(cap, dtype=bool)
        self.crossed = np.zeros(cap, dtype=bool)
        self.level = np.zeros(cap)  # trim level (V)
        self.child = np.zeros(cap, dtype=int)
        self.shift = np.zeros(cap, dtype=int)  # see align()
        self.frac = np.zeros(cap)
        self.spills: dict[int, list[np.ndarray]] = {}
        self.free: list[int] = []
        self.used = 0

    def allocate(self, parent_t0: float, level: float, child: int) -> int:
        if self.free:
            slot = self.free.pop()
        else:
            slot = self.used
            self.used += 1
            if slot == len(self.t0):
                for name in (
                    "ring", "t0", "last", "done", "crossed", "level", "child", "shift", "frac"
                ):
                    old = getattr(self, name)
                    new = np.zeros((2 * old.shape[0],) + old.shape[1:], dtype=old.dtype)
                    new[: old.shape[0]] = old
                    setattr(self, name, new)
        self.t0[slot] = parent_t0
        self.last[slot] = -1
        self.done[slot] = False
        self.crossed[slot] = False
        self.level[slot] = level
        self.child[slot] = child
        self.spills[slot] = []
        return slot

    def release(self, slot: int) -> None:
        self.spills.pop(slot, None)
        self.free.append(slot)

    def align(self, slot: int, start: float, dt: float) -> None:
        """Place a child starting at ``start`` on its parent's time grid.

        Both grids step by ``dt``, so the child's step ``k`` always falls
        between parent steps ``k + shift`` and ``k + shift + 1``, at the
        same fraction of the interval.
        """
        t0 = float(self.t0[slot])
        j = int(np.floor((start - t0) / dt))
        if t0 + j * dt > start:
            j -= 1
        if t0 + (j + 1) * dt <= start:
            j += 1
        self.shift[slot] = j
        self.frac[slot] = (start - (t0 + j * dt)) / dt

    def values(self, slots: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Parent waveform at child steps ``k``: linear, held after its end."""
        last = self.last[slots]
        j = k + self.shift[slots]
        beyond = j >= last
        j = np.minimum(j, last - 1)
        v0 = self.ring[slots, j % self.size]
        v1 = self.ring[slots, (j + 1) % self.size]
        inside = v0 + (v1 - v0) * self.frac[slots]
        return np.where(beyond, self.ring[slots, last % self.size], inside)

    def waveform(self, slot: int, dt: float) -> Waveform:
        """The parent's whole waveform (only while spills are kept)."""
        n = int(self.last[slot]) + 1
        parts = self.spills[slot]
        rest = n - len(parts) * self.size
        values = np.concatenate(parts + [self.ring[slot, :rest]])
        return Waveform(self.t0[slot] + np.arange(n) * dt, values)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class _Engine:
    def __init__(self, jobs: list[StageJob], opts: TransientOptions, segment_length: float):
        self.jobs = jobs
        self.opts = opts
        self.dt = opts.dt
        self.segment_length = segment_length
        lead_steps = int(np.ceil(TRIM_LEAD / self.dt))
        self.taps = _Taps(1 << int(np.ceil(np.log2(lead_steps + 4))))
        self.children: list[list[int]] = [[] for _ in jobs]
        for i, job in enumerate(jobs):
            if job.parent is not None:
                if not 0 <= job.parent < i:
                    raise ValueError(f"job {i}: parent {job.parent} must precede it")
                self.children[job.parent].append(i)
            elif job.source is None:
                raise ValueError(f"job {i}: a root stage needs a source waveform")
        self.outcomes: list[StageOutcome | None] = [None] * len(jobs)
        self.buckets: dict[int, _Bucket] = {}
        self.joined: dict[int, _Lane] = {}  # job index -> live lane
        self.pending: list[_Lane] = []  # children whose start is known

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> list[StageOutcome]:
        for i, job in enumerate(self.jobs):
            if job.parent is None:
                lane = _Lane(i, job, float(job.source.times[0]))
                lane.wave = job.source
                lane.set_input_end(float(job.source.times[-1]), self.dt)
                self._join(lane)
        while self.joined:
            for width in sorted(self.buckets):
                if self.buckets[width].n:
                    self._advance(self.buckets[width])
            self._join_ready()
        if self.pending:
            raise RuntimeError("lockstep schedule stalled with pending stages")
        return self.outcomes  # type: ignore[return-value]

    def _join_ready(self) -> None:
        waiting = []
        for lane in self.pending:
            slot = lane.in_tap
            taps = self.taps
            ready = taps.done[slot] or (
                lane.t_start + self.dt < taps.t0[slot] + taps.last[slot] * self.dt
            )
            if not ready:
                waiting.append(lane)
                continue
            if taps.done[slot]:
                lane.set_input_end(taps.t0[slot] + taps.last[slot] * self.dt, self.dt)
            self._join(lane)
        self.pending = waiting

    def _join(self, lane: _Lane) -> None:
        """Compile the lane, find its DC point and enter it into a bucket."""
        job, dt = lane.job, self.dt
        tech, vdd = job.tech, job.tech.vdd
        if lane.in_tap >= 0:
            v_in = float(self.taps.values(np.array([lane.in_tap]), np.zeros(1, dtype=int))[0])
        else:
            v_in = float(lane.schedule[0])
        circuit, names, _ = build_stage_circuit(tech, job.spec, v_in, self.segment_length)
        sys = _compile(circuit)
        sources = circuit.source_nodes()
        known = [sys.names[i] for i in sys.known]
        vk = np.array([float(sources[name]) for name in known])
        mos_terms = [_mosfet_terminals(sys, m) for m in circuit.mosfets]
        try:
            v_full = dc_solve(circuit, sys, vk, self.opts, mos_terms)
        except ConvergenceError as exc:
            raise ConvergenceError(f"stage {job.label!r}: DC point: {exc}") from None
        # Lane columns: a buffer's mid and output nodes first.
        n = len(sys.unknown)

        def position(name: str) -> int:
            return sys.unknown_pos[sys.index[name]]

        order = list(range(n))
        dev = _NO_DEVICES
        if circuit.mosfets:
            front = [position(name) for name in _device_nodes(circuit)]
            order = front + [c for c in order if c not in front]
            dev = _device_table(circuit.mosfets, vdd)
        perm = np.array(order)
        column = np.empty(n, dtype=int)
        column[perm] = np.arange(n)
        lane.cols = {node_id: int(column[position(name)]) for node_id, name in names.items()}
        lane.load_cols = np.array(
            [c for node_id, c in lane.cols.items() if node_id != STAGE_ROOT], dtype=int
        )
        lane.measure_cols = np.arange(1 if circuit.mosfets else 0, n)
        in_pos = known.index(INPUT_NODE)
        g_uk = sys.g_uk[perm]
        vk_rails = vk.copy()
        vk_rails[in_pos] = 0.0
        c_h = sys.c_diag[perm] / dt
        ainv = np.linalg.inv(sys.g_uu[np.ix_(perm, perm)] + np.diag(c_h))
        lead = min(2, n)
        for child in self.children[lane.index]:
            slot = self.taps.allocate(lane.t_start, TRIM_FRACTION * vdd, child)
            lane.taps.append((slot, lane.cols[self.jobs[child].tap]))
        width = max(MIN_BUCKET, 1 << int(np.ceil(np.log2(n))))
        bucket = self.buckets.get(width)
        if bucket is None:
            bucket = self.buckets[width] = _Bucket(width)
        v0 = v_full[sys.unknown][perm]
        thr = np.array([tech.slew_lo * vdd, tech.logic_threshold_voltage(), tech.slew_hi * vdd])
        crossed = v0 >= thr[:, None]
        row = bucket.add(
            lane,
            {
                "v": v0,
                "ainv": ainv,
                "z": ainv[:, :lead],
                "s": ainv[:lead, :lead],
                "b_in": -g_uk[:, in_pos],
                "b_const": -g_uk @ vk_rails,
                "c_h": c_h,
                "dev": dev,
                "thr": thr,
                "cross": np.where(crossed, lane.t_start, np.nan),
                "next_thr": np.where(crossed, np.inf, thr[:, None]).min(axis=0),
                "t0": lane.t_start,
                "t_in_end": lane.t_in_end,
                "n_steps": lane.n_steps,
                "in_tap": lane.in_tap,
                "tap_slot": [slot for slot, _ in lane.taps],
                "tap_col": [col for _, col in lane.taps],
            },
        )
        self.joined[lane.index] = lane
        if lane.taps:
            slots = bucket.tap_slot[row, : len(lane.taps)]
            cols = bucket.tap_col[row, : len(lane.taps)]
            self._record_taps(slots, np.zeros(len(slots), dtype=int), v0[cols])

    # -- one lockstep step of a bucket ---------------------------------------

    def _advance(self, b: _Bucket) -> None:
        n, dt, opts = b.n, self.dt, self.opts
        k = b.k[:n] + 1
        t = b.t0[:n] + k * dt
        vin = self._inputs(b, n, k)
        v_prev = b.v[:n]
        rhs = b.b_in[:n] * vin[:, None] + b.b_const[:n] + b.c_h[:n] * v_prev
        v_lin = np.matmul(b.ainv[:n], rhs[:, :, None])[:, :, 0]
        v = self._newton(b, n, vin, v_lin, v_prev.copy())
        new = v >= b.next_thr[:n]
        if new.any():
            self._crossings(b, new, v_prev, v, k)
        step_dv = np.max(np.abs(v - v_prev), axis=1)
        b.v[:n] = v
        b.k[:n] = k
        if opts.auto_stop:
            quiet = (step_dv <= opts.settle_dv) & (t >= b.t_in_end[:n])
            b.settled[:n] = np.where(quiet, b.settled[:n] + 1, 0)
            settled = b.settled[:n] >= opts.settle_steps
        else:
            settled = np.zeros(n, dtype=bool)
        slots = b.tap_slot[:n]
        feeds = slots >= 0
        if feeds.any():
            values = v[b.row_index[:n], b.tap_col[:n]][feeds]
            steps = np.broadcast_to(k[:, None], slots.shape)[feeds]
            self._record_taps(slots[feeds], steps, values)
        ends = np.flatnonzero(settled | (k >= b.n_steps[:n] - 1))
        for row in ends[::-1].tolist():
            lane = b.lanes[row]
            if not settled[row] and self._widen(lane):
                continue
            self._finish(lane)

    def _crossings(self, b: _Bucket, new, v_prev, v, k) -> None:
        """Record first crossings of the 10/50/90% levels (as Waveform.cross_time)."""
        r, c = np.nonzero(new)
        v0, v1 = v_prev[r, c], v[r, c]
        t_a = b.t0[r] + (k[r] - 1) * self.dt
        t_b = b.t0[r] + k[r] * self.dt
        for level in range(3):
            thr = b.thr[r, level]
            hit = np.isnan(b.cross[r, level, c]) & (v1 >= thr)
            t_cross = t_a + (thr - v0) / (v1 - v0) * (t_b - t_a)
            b.cross[r[hit], level, c[hit]] = t_cross[hit]
        pending = np.isnan(b.cross[r, :, c])
        b.next_thr[r, c] = np.where(pending, b.thr[r], np.inf).min(axis=1)

    def _inputs(self, b: _Bucket, n: int, k: np.ndarray) -> np.ndarray:
        vin = np.empty(n)
        taps = b.in_tap[:n]
        fed = taps >= 0
        if fed.any():
            vin[fed] = self.taps.values(taps[fed], k[fed])
        for row in np.flatnonzero(~fed).tolist():
            vin[row] = b.lanes[row].schedule[k[row]]
        return vin

    def _newton(self, b: _Bucket, n: int, vin, v_lin, v):
        """Batched Newton on the two device nodes; ``v`` holds the guess.

        Each lane follows ``transient._newton_solve``: damping, halving on
        oscillation, and the ``vtol`` / ``100 vtol`` / 1 mV acceptance.
        Lanes drop out of the working set as they converge.
        """
        opts = self.opts
        rows = np.arange(n)
        damping = np.full(n, opts.damping_v)
        dv_prev = None
        vv, x, vl = v, vin, v_lin
        # Device tables field-major, one (inverter, nmos/pmos) grid per lane.
        dev = np.ascontiguousarray(b.dev[:n].transpose(1, 0, 2))
        s, z = b.s[:n], b.z[:n]
        for iteration in range(opts.max_newton):
            # Devices: the input inverter (gate in, drain mid) then the
            # output inverter (gate mid, drain out), NMOS before PMOS.
            vg = np.empty((rows.size, 4))
            vg[:, :2] = x[:, None]
            vg[:, 2:] = vv[:, :1]
            vd = np.repeat(vv[:, :2], 2, axis=1)
            i4, dg, dd = _alpha_power(vg, vd, dev)
            i = i4[:, ::2] + i4[:, 1::2]  # currents into (mid, out)
            d11 = dd[:, 0] + dd[:, 1]
            d21 = dg[:, 2] + dg[:, 3]
            d22 = dd[:, 2] + dd[:, 3]
            s11, s12, s21, s22 = s[:, 0, 0], s[:, 0, 1], s[:, 1, 0], s[:, 1, 1]
            res = vl - vv
            r12 = res[:, :2] - (s[:, :, 0] * i[:, :1] + s[:, :, 1] * i[:, 1:])
            m11 = 1.0 + s11 * d11 + s12 * d21
            m12 = s12 * d22
            m21 = s21 * d11 + s22 * d21
            m22 = 1.0 + s22 * d22
            det = m11 * m22 - m12 * m21
            y1 = (r12[:, 0] * m22 - m12 * r12[:, 1]) / det
            y2 = (m11 * r12[:, 1] - m21 * r12[:, 0]) / det
            q = i
            q[:, 0] += d11 * y1
            q[:, 1] += d21 * y1 + d22 * y2
            dv = res - z[:, :, 0] * q[:, :1] - z[:, :, 1] * q[:, 1:]
            max_dv = np.max(np.abs(dv), axis=1)
            if dv_prev is not None:
                flip = np.einsum("ij,ij->i", dv, dv_prev) < 0.0
                if flip.any():
                    damping = np.where(flip, np.maximum(damping * 0.5, 1e-4), damping)
            big = max_dv > damping
            if big.any():
                dv[big] *= (damping[big] / max_dv[big])[:, None]
            vv = vv + dv
            done = max_dv < opts.vtol
            if iteration > opts.max_newton // 2:
                done |= max_dv < 100.0 * opts.vtol
            if done.any():
                v[rows[done]] = vv[done]
                if done.all():
                    return v
                keep = ~done
                rows, vv, x, vl = rows[keep], vv[keep], x[keep], vl[keep]
                dev, s, z = dev[:, keep], s[keep], z[keep]
                damping, max_dv, dv = damping[keep], max_dv[keep], dv[keep]
            dv_prev = dv
        v[rows] = vv
        bad = max_dv >= 1.0e-3
        if bad.any():
            worst = int(np.argmax(bad))
            lane = b.lanes[int(rows[worst])]
            raise ConvergenceError(
                f"stage {lane.job.label!r}: Newton failed after {opts.max_newton}"
                f" iterations (max dv = {float(max_dv[worst]):.3g} V)"
            )
        return v

    # -- child inputs ------------------------------------------------------

    def _record_taps(self, slots: np.ndarray, k: np.ndarray, values: np.ndarray) -> None:
        """Store parent samples; start children whose trim level is crossed."""
        taps, dt = self.taps, self.dt
        size = taps.size
        wrap = k % size
        taps.ring[slots, wrap] = values
        taps.last[slots] = k
        new = ~taps.crossed[slots] & (values >= taps.level[slots])
        for pos in np.flatnonzero(new).tolist():
            slot = int(slots[pos])
            t0, kk = float(taps.t0[slot]), int(k[pos])
            if kk == 0:
                t_cross = t0
            else:
                v0, v1 = float(taps.ring[slot, (kk - 1) % size]), float(values[pos])
                t_a, t_b = t0 + (kk - 1) * dt, t0 + kk * dt
                frac = (float(taps.level[slot]) - v0) / (v1 - v0) if v1 != v0 else 1.0
                t_cross = t_a + frac * (t_b - t_a)
            taps.crossed[slot] = True
            taps.spills[slot] = []
            child = int(taps.child[slot])
            lane = _Lane(child, self.jobs[child], max(t0, t_cross - TRIM_LEAD))
            lane.in_tap = slot
            taps.align(slot, lane.t_start, dt)
            self.pending.append(lane)
        full = wrap == size - 1
        if full.any():
            for slot in slots[full & ~taps.crossed[slots]].tolist():
                taps.spills[slot].append(taps.ring[slot].copy())

    # -- window end --------------------------------------------------------

    def _widen(self, lane: _Lane) -> bool:
        """Extend a window whose loads have not settled high; True if done."""
        b = lane.bucket
        finals = b.v[lane.row, lane.load_cols]
        vdd = lane.job.tech.vdd
        if lane.widenings >= MAX_WIDENINGS or not finals.size:
            return False
        if float(np.min(finals)) > SETTLED_FRACTION * vdd:
            return False
        lane.widenings += 1
        lane.allowance *= WIDEN_FACTOR
        lane.set_input_end(lane.t_last, self.dt)
        b.n_steps[lane.row] = lane.n_steps
        return True

    def _finish(self, lane: _Lane) -> None:
        b, row, dt = lane.bucket, lane.row, self.dt
        k_end = int(b.k[row])
        t_end = lane.t_start + k_end * dt
        v = b.v[row]
        lo = b.thr[row, 0]
        cols = lane.measure_cols
        rising = v[cols] >= lo
        c10 = b.cross[row, 0, cols][rising]
        c90 = b.cross[row, 2, cols][rising]
        slews = np.abs(np.where(np.isnan(c90), t_end, c90) - c10)
        first = {node_id: b.cross[row, :, c] for node_id, c in lane.cols.items()}
        self.outcomes[lane.index] = StageOutcome(
            worst_slew=float(slews.max(initial=0.0)),
            v_final={node_id: float(v[c]) for node_id, c in lane.cols.items()},
            crossings={
                node_id: float(t[1]) for node_id, t in first.items() if not np.isnan(t[1])
            },
            slews={
                node_id: float(abs(t[2] - t[0]))
                for node_id, t in first.items()
                if not np.isnan(t[2])
            },
        )
        taps = self.taps
        for slot, _ in lane.taps:
            taps.done[slot] = True
            child = int(taps.child[slot])
            if not taps.crossed[slot]:
                # Never reached the trim level: the child sees the whole
                # waveform, as StageSimResult.trimmed_waveform returns it.
                wave = taps.waveform(slot, dt)
                taps.release(slot)
                orphan = _Lane(child, self.jobs[child], float(wave.times[0]))
                orphan.wave = wave
                orphan.set_input_end(float(wave.times[-1]), dt)
                self._join(orphan)
                continue
            joined = self.joined.get(child)
            if joined is not None:  # a pending child learns the end on joining
                joined.set_input_end(t_end, dt)
                joined.bucket.t_in_end[joined.row] = joined.t_in_end
                joined.bucket.n_steps[joined.row] = joined.n_steps
        if lane.in_tap >= 0:
            taps.release(lane.in_tap)
        del self.joined[lane.index]
        b.remove(lane)
