"""Supervision budgets and retry schedule for batch jobs.

These knobs live here — not on :class:`repro.core.options.CTSOptions` —
because they govern the *parent* watchdog, never the synthesized tree:
a job killed at any budget and retried from its checkpoint still
produces the bit-identical tree, so none of them belong in the
checkpoint options digest. Each is declared in the lintx contract
table (``JOB_CONTRACTS``; rule CON308 fails the build on an undeclared
or undocumented one).

Precedence, lowest to highest: built-in default < environment knob <
manifest-wide ``policy`` block < per-job ``policy`` block < explicit
CLI flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace


def _default_deadline_s() -> float:
    """Honor ``REPRO_JOB_DEADLINE`` (wall-clock seconds per attempt;
    0 disables the deadline)."""
    return float(os.environ.get("REPRO_JOB_DEADLINE", "600") or 0.0)


def _default_mem_mb() -> float:
    """Honor ``REPRO_JOB_MEM_MB`` (peak RSS budget per job process in
    MiB; 0 disables the memory watchdog)."""
    return float(os.environ.get("REPRO_JOB_MEM_MB", "0") or 0.0)


def _default_max_retries() -> int:
    """Honor ``REPRO_JOB_RETRIES`` (retries after the first attempt;
    total attempts = retries + 1)."""
    return int(os.environ.get("REPRO_JOB_RETRIES", "2") or 0)


def _default_heartbeat_stall_s() -> float:
    """Honor ``REPRO_HEARTBEAT_STALL`` (seconds without a heartbeat
    change before a job counts as hung; 0 disables stall detection)."""
    return float(os.environ.get("REPRO_HEARTBEAT_STALL", "60") or 0.0)


@dataclass(frozen=True)
class JobPolicy:
    """Budgets the watchdog enforces and the retry schedule it follows."""

    deadline_s: float = field(default_factory=_default_deadline_s)
    #   wall-clock seconds one attempt may run before SIGKILL
    #   (reason "deadline"); 0 = no deadline (env REPRO_JOB_DEADLINE)
    mem_mb: float = field(default_factory=_default_mem_mb)
    #   peak RSS (VmRSS from /proc/<pid>/status, MiB) one attempt may
    #   reach before SIGKILL (reason "oom"); 0 = unlimited
    #   (env REPRO_JOB_MEM_MB)
    max_retries: int = field(default_factory=_default_max_retries)
    #   retries after the first attempt before the job is quarantined;
    #   each retry resumes from the last valid checkpoint
    #   (env REPRO_JOB_RETRIES)
    heartbeat_stall_s: float = field(default_factory=_default_heartbeat_stall_s)
    #   seconds without a heartbeat-file change before an attempt counts
    #   as hung and is SIGKILLed (reason "heartbeat_stall"); 0 disables
    #   (env REPRO_HEARTBEAT_STALL)
    backoff_base_s: float = 0.5  # sleep before retry k is
    backoff_factor: float = 2.0  # base * factor**(k-1) — deterministic,
    #   no jitter, so reruns produce identical event sequences
    poll_interval_s: float = 0.05  # watchdog wake period; budgets are
    #   enforced to this granularity

    def __post_init__(self) -> None:
        if self.deadline_s < 0:
            raise ValueError("deadline_s must be >= 0 (0 disables)")
        if self.mem_mb < 0:
            raise ValueError("mem_mb must be >= 0 (0 disables)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.heartbeat_stall_s < 0:
            raise ValueError("heartbeat_stall_s must be >= 0 (0 disables)")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")

    @property
    def max_attempts(self) -> int:
        """Total attempts before quarantine (first run + retries)."""
        return self.max_retries + 1

    def backoff_before(self, attempt: int) -> float:
        """Seconds to sleep before 1-based ``attempt`` (0 for the first)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_base_s * self.backoff_factor ** (attempt - 2)

    def with_overrides(self, overrides: dict) -> "JobPolicy":
        """A copy with ``overrides`` applied; unknown keys fail loudly."""
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(
                f"unknown JobPolicy keys {unknown} (known:"
                f" {', '.join(sorted(known))})"
            )
        return replace(self, **overrides)
