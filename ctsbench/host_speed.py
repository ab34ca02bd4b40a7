"""Host-speed sampling, so timings survive a host whose speed drifts.

On a shared machine the same job can take 1.5x longer from one minute to
the next, because the CPU the benchmark runs on is slowed by work it
cannot see. A fixed probe — a short pure-Python loop — run every
``INTERVAL_S`` of wall-clock from a ``SIGALRM`` handler samples how fast
this CPU executes Python *while* the timed work runs. Dividing a measured
time by the mean probe duration and multiplying by
``REFERENCE_PROBE_S`` gives the time the work would have taken at the
reference speed. The probe is part of the benchmark, not of the program,
so it runs the same code on both sides of a comparison.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Wall-clock seconds between probes (the probe costs ~0.3% of that).
INTERVAL_S = 0.05
#: Probe length in loop iterations (~150 us).
PROBE_LOOPS = 2000
#: Probe duration that defines the reference speed. Any constant works
#: for comparisons; this one keeps reference-speed times near wall-clock
#: on the 2-CPU x86-64 host the benchmark was written on.
REFERENCE_PROBE_S = 150e-6


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager sampling :func:`probe` while it is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # Work shorter than one interval still gets one sample.
        self.samples.append(probe())

    def scale(self) -> float:
        """Factor turning a time measured inside the block into
        reference-speed time."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)
