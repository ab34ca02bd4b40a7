"""Process-variation Monte Carlo on synthesized clock trees.

The paper's related work (refs [13-16]) studies variation-tolerant clock
trees; this extension quantifies how a synthesized tree's skew degrades
under process variation, using the mini-SPICE substrate:

- *global (die-to-die)* variation scales every device/wire together and
  mostly shifts latency, not skew;
- *local (within-die, random)* variation perturbs each buffer's drive
  strength and each wire's RC independently — this is what breaks skew,
  and deeper/more-buffered paths accumulate more of it.

Each Monte Carlo sample perturbs the technology/buffer parameters with
seeded Gaussians, stage by stage. The nominal tree and every sample are
simulated together, as lanes of one lockstep transient run
(:mod:`repro.spice.lockstep`), and measured like
:func:`repro.evalx.metrics.evaluate_tree`: a sink that saturates below the
logic threshold is skipped with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.evalx.metrics import DEFAULT_SOURCE_SLEW, sink_arrivals, stage_jobs
from repro.spice.lockstep import StageJob, simulate_stages
from repro.spice.transient import TransientOptions
from repro.tech.technology import Technology
from repro.timing.waveform import ramp_waveform
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import TreeNode


@dataclass
class VariationModel:
    """Sigma (relative) of each perturbed parameter."""

    buffer_strength_sigma: float = 0.05  # per-buffer drive current
    wire_r_sigma: float = 0.05  # per-stage wire resistance
    wire_c_sigma: float = 0.03  # per-stage wire capacitance
    global_sigma: float = 0.0  # die-to-die multiplier on drive current
    seed: int = 1


@dataclass
class VariationResult:
    """Monte Carlo skew/latency statistics."""

    nominal_skew: float
    nominal_latency: float
    skews: np.ndarray
    latencies: np.ndarray

    @property
    def mean_skew(self) -> float:
        return float(np.mean(self.skews))

    @property
    def p95_skew(self) -> float:
        return float(np.percentile(self.skews, 95))

    @property
    def sigma_latency(self) -> float:
        return float(np.std(self.latencies))

    def row(self) -> dict:
        return {
            "nominal_skew_ps": self.nominal_skew * 1e12,
            "mean_skew_ps": self.mean_skew * 1e12,
            "p95_skew_ps": self.p95_skew * 1e12,
            "nominal_latency_ns": self.nominal_latency * 1e9,
            "sigma_latency_ps": self.sigma_latency * 1e12,
        }


def _perturbed_tech(
    tech: Technology, rng: np.random.Generator, model: VariationModel
) -> Technology:
    """Per-stage technology sample: wire RC and drive strength scaled."""
    r_scale = rng.lognormal(0.0, model.wire_r_sigma)
    c_scale = rng.lognormal(0.0, model.wire_c_sigma)
    k_scale = rng.lognormal(0.0, model.buffer_strength_sigma)
    wire = replace(
        tech.wire,
        resistance_per_unit=tech.wire.resistance_per_unit * r_scale,
        capacitance_per_unit=tech.wire.capacitance_per_unit * c_scale,
    )
    return replace(
        tech,
        wire=wire,
        nmos_k=tech.nmos_k * k_scale,
        pmos_k=tech.pmos_k * k_scale,
    )


def _stage_sampler(
    tech: Technology,
    model: VariationModel,
    rng: np.random.Generator,
    global_scale: float,
):
    """Per-stage technology draws for one sample, in stage-walk order."""

    def sample(_stage_root: TreeNode) -> Technology:
        stage_tech = _perturbed_tech(tech, rng, model)
        if global_scale != 1.0:
            stage_tech = replace(
                stage_tech,
                nmos_k=stage_tech.nmos_k * global_scale,
                pmos_k=stage_tech.pmos_k * global_scale,
            )
        return stage_tech

    return sample


def monte_carlo_skew(
    tree: ClockTree | TreeNode,
    tech: Technology,
    model: VariationModel | None = None,
    n_samples: int = 20,
    dt: float = 2.0e-12,
) -> VariationResult:
    """Run the variation Monte Carlo and collect skew/latency statistics."""
    model = model or VariationModel()
    root = tree.root if isinstance(tree, ClockTree) else tree
    rng = np.random.default_rng(model.seed)
    source = ramp_waveform(tech.vdd, DEFAULT_SOURCE_SLEW, t_start=50e-12)
    threshold = tech.logic_threshold_voltage()
    t_ref = source.cross_time(threshold)
    # The nominal tree draws (zero-sigma) samples too, keeping the stream.
    nominal = VariationModel(0.0, 0.0, 0.0, 0.0, model.seed)
    walks = [stage_jobs(root, _stage_sampler(tech, nominal, rng, 1.0), source)]
    for _ in range(n_samples):
        global_scale = (
            rng.lognormal(0.0, model.global_sigma) if model.global_sigma else 1.0
        )
        walks.append(stage_jobs(root, _stage_sampler(tech, model, rng, global_scale), source))
    jobs: list[StageJob] = []
    for walk, _ in walks:
        offset = len(jobs)
        jobs.extend(
            job if job.parent is None else replace(job, parent=job.parent + offset)
            for job in walk
        )
    outcomes = simulate_stages(jobs, TransientOptions(dt=dt))
    skews, latencies = [], []
    offset = 0
    for walk, maps in walks:
        arrivals, _ = sink_arrivals(
            outcomes[offset : offset + len(walk)], maps, threshold, t_ref, stacklevel=2
        )
        offset += len(walk)
        if not arrivals:
            raise RuntimeError(
                "no sink waveform crossed the logic threshold in a Monte Carlo"
                " sample; the tree is electrically dead"
            )
        values = list(arrivals.values())
        skews.append(max(values) - min(values))
        latencies.append(max(values))
    return VariationResult(
        skews[0], latencies[0], np.array(skews[1:]), np.array(latencies[1:])
    )
