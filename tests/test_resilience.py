"""Environmental resilience: checkpoint/resume, torn writes, fault plans.

The contract under test: a synthesis killed at a level boundary resumes
from its checkpoint bit-identically (in the production flow or the
per-pair oracle); a torn or truncated checkpoint is detected by its
digest and skipped; incompatible checkpoints fail loudly; a failure
or MemoryError inside a level kernel surfaces from synthesis.

Deterministic faults come from :mod:`repro.evalx.faultinject`
(``site:index:mode`` plans); every test compares against a clean run's
``tree_signature``.
"""

from __future__ import annotations

import os

import pytest

import repro.core.checkpoint as checkpoint
import repro.core.grid_cache as grid_cache
from repro.core import AggressiveBufferedCTS, CTSOptions
from repro.core.batch_commit import BatchCommitScheduler
from repro.core.checkpoint import (
    CorruptCheckpointError,
    load_checkpoint,
    options_digest,
    sinks_digest,
)
from repro.evalx.faultinject import (
    FaultInjected,
    FaultPlan,
    SynthesisHalted,
    reset_plans,
)
from repro.core.topology import SubTree
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.timing.analysis import SubtreeBounds
from repro.tree.export import tree_signature
from repro.tree.nodes import make_merge, make_sink

from tests.conftest import make_sink_pairs, run_synthesis

BLOCKAGES = [BBox(8000.0, 8000.0, 16000.0, 16000.0)]


@pytest.fixture(autouse=True)
def _fresh_fault_plans():
    """Tests reuse plan texts; firing state must not leak between them."""
    reset_plans()
    yield
    reset_plans()


def synth(sinks, blockages=None, **option_overrides):
    """One synthesis run plus the signature of its tree."""
    options = CTSOptions(**option_overrides)
    cts = AggressiveBufferedCTS(options=options, blockages=blockages)
    result = cts.synthesize(sinks)
    return tree_signature(result.tree), result, cts


def blocked_sinks(n, seed):
    """Sinks clear of the blockage (terminals inside a macro are invalid)."""
    clear = [bbox.expanded(1200.0) for bbox in BLOCKAGES]
    sinks = [
        (p, c)
        for p, c in make_sink_pairs(n, 30000.0, seed=seed)
        if not any(region.contains(p) for region in clear)
    ]
    assert len(sinks) >= 10
    return sinks


class TestFaultPlanGrammar:
    def test_parse(self):
        plan = FaultPlan.parse("checkpoint_torn:2:torn, checkpoint:1:halt")
        assert [(s.site, s.index, s.mode) for s in plan.specs] == [
            ("checkpoint_torn", 2, "torn"),
            ("checkpoint", 1, "halt"),
        ]

    def test_empty_plan(self):
        assert FaultPlan.parse("").specs == ()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("worker_batch:2", "expected site:index:mode"),
            ("warp_core:0:raise", "unknown site"),
            ("worker_batch:0:raise", "unknown site"),
            ("batch_commit:0:raise", "unknown site"),
            # A malformed mode or index is reported before the site is
            # looked up in the registry.
            ("batch_commit:0:explode", "unknown mode"),
            ("checkpoint:0:crash", "unknown mode"),
            ("batch_commit:x:raise", "index must be an integer"),
            ("batch_commit:-1:raise", "index must be >= 0"),
        ],
    )
    def test_bad_specs_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.parse(text)

    def test_counter_site_fires_once(self):
        plan = FaultPlan.parse("checkpoint:1:raise")
        plan.consult("checkpoint")  # visit 0
        with pytest.raises(FaultInjected):
            plan.consult("checkpoint")  # visit 1 fires
        plan.consult("checkpoint")  # never re-fires

    def test_torn_returns_its_mode(self):
        plan = FaultPlan.parse("checkpoint_torn:0:torn")
        assert plan.consult("checkpoint_torn") == "torn"
        assert plan.consult("checkpoint_torn") is None


def fail_on_call(monkeypatch, owner, name, index, exc):
    """Make call number ``index`` (0-based) of ``owner.name`` raise ``exc``."""
    original = getattr(owner, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == index + 1:
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return calls


#: The level kernels of the production flow, as ``(owner, attribute)``.
KERNELS = {
    "batch_commit": (BatchCommitScheduler, "run"),
    "shared_windows": (grid_cache, "route_level"),
    "batch_expansion": (grid_cache, "expand_level"),
    "route_finish": (grid_cache, "_finish_level"),
}


class TestKernelDegradation:
    """No kernel degrades any more: every run is strict, so a kernel
    failure surfaces instead of replaying the level on a fallback."""

    def test_strict_mode_reraises_kernel_fault(self, monkeypatch):
        sinks = blocked_sinks(18, seed=22)
        owner, name = KERNELS["route_finish"]
        calls = fail_on_call(
            monkeypatch, owner, name, 0, RuntimeError("route finish bug")
        )
        with pytest.raises(RuntimeError, match="route finish bug"):
            synth(sinks, blockages=BLOCKAGES)
        assert len(calls) == 1  # nothing retried the level


class TestMemoryErrorPropagation:
    """MemoryError from any level kernel surfaces from synthesis.

    Each case is ``kernel:call`` — the kernel and the 0-based call
    that runs out of memory. Retrying the same allocation elsewhere
    would only thrash; the jobs watchdog owns OOM handling.
    """

    @pytest.mark.parametrize(
        "case",
        ["batch_commit:1", "shared_windows:1", "batch_expansion:0", "route_finish:0"],
    )
    def test_oom_surfaces_in_non_strict_runs(self, case, monkeypatch):
        import repro.core.batch_commit as bc

        kernel, index = case.split(":")
        # Force the vectorized commit rounds on this small instance.
        monkeypatch.setattr(bc, "SCALAR_ROUND_ROWS", 1)
        owner, name = KERNELS[kernel]
        calls = fail_on_call(
            monkeypatch, owner, name, int(index), MemoryError(kernel)
        )
        sinks = blocked_sinks(18, seed=22)
        with pytest.raises(MemoryError, match=kernel):
            synth(sinks, blockages=BLOCKAGES)
        assert len(calls) == int(index) + 1


class TestCheckpointResume:
    def _sinks(self):
        return blocked_sinks(20, seed=23)

    def test_halt_then_resume_bit_identical(self, tmp_path):
        sinks = self._sinks()
        clean_sig, clean, __ = synth(sinks, blockages=BLOCKAGES)
        reset_plans()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        written = sorted(os.listdir(ckpt_dir))
        assert written == ["level_0001.ckpt", "level_0002.ckpt"]
        reset_plans()
        options = CTSOptions(resume_from=ckpt_dir)
        cts = AggressiveBufferedCTS(options=options, blockages=BLOCKAGES)
        resumed = cts.synthesize(sinks)
        assert resumed.resumed_from == 2
        assert resumed.levels == clean.levels
        assert tree_signature(resumed.tree) == clean_sig
        assert resumed.merge_stats == clean.merge_stats

    def test_resume_across_execution_modes(self, tmp_path):
        """A checkpoint from the production flow resumes in the per-pair
        oracle (no SoA mirror, no swept levels) to the same tree."""
        sinks = self._sinks()
        clean_sig, __, __ = synth(sinks, blockages=BLOCKAGES)
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        reset_plans()
        __, resumed = run_synthesis(
            sinks, blockages=BLOCKAGES, oracle=True, resume_from=ckpt_dir
        )
        assert resumed.resumed_from == 1
        assert tree_signature(resumed.tree) == clean_sig

    def test_resume_rejects_different_sinks(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        other = blocked_sinks(20, seed=99)
        with pytest.raises(ValueError, match="different sink instance"):
            synth(other, blockages=BLOCKAGES, resume_from=ckpt_dir)

    def test_resume_rejects_different_result_options(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        with pytest.raises(ValueError, match="different\n?.*options"):
            synth(
                sinks,
                blockages=BLOCKAGES,
                resume_from=ckpt_dir,
                grid_resolution=50,
            )

    def test_resume_missing_path_rejected(self, tmp_path):
        sinks = self._sinks()
        with pytest.raises(ValueError, match="does not exist"):
            synth(sinks, resume_from=str(tmp_path / "nope.ckpt"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no checkpoints"):
            synth(sinks, resume_from=str(empty))

    def test_truncated_latest_is_bypassed_on_resume(self, tmp_path):
        """A torn newest checkpoint costs one level, never the resume."""
        sinks = self._sinks()
        clean_sig, clean, __ = synth(sinks, blockages=BLOCKAGES)
        reset_plans()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        top = os.path.join(ckpt_dir, "level_0002.ckpt")
        with open(top, "r+b") as fh:
            fh.truncate(os.path.getsize(top) // 2)
        reset_plans()
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            sig, resumed, __ = synth(
                sinks, blockages=BLOCKAGES, resume_from=ckpt_dir
            )
        assert resumed.resumed_from == 1
        assert resumed.levels == clean.levels
        assert tree_signature(resumed.tree) == clean_sig

    def test_injected_torn_write_is_bypassed_on_resume(self, tmp_path):
        """The checkpoint_torn fault site produces a skippable file."""
        sinks = self._sinks()
        clean_sig, __, __ = synth(sinks, blockages=BLOCKAGES)
        reset_plans()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                # Tear the second snapshot, then die holding it as the
                # newest file — resume must fall back to level 1.
                fault_plan="checkpoint_torn:1:torn,checkpoint:1:halt",
            )
        reset_plans()
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            sig, resumed, __ = synth(
                sinks, blockages=BLOCKAGES, resume_from=ckpt_dir
            )
        assert resumed.resumed_from == 1
        assert tree_signature(resumed.tree) == clean_sig

    def test_corrupt_explicit_file_gets_no_second_chance(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        top = os.path.join(ckpt_dir, "level_0002.ckpt")
        with open(top, "r+b") as fh:
            fh.truncate(os.path.getsize(top) // 2)
        with pytest.raises(CorruptCheckpointError, match="digest"):
            synth(sinks, blockages=BLOCKAGES, resume_from=top)

    def test_all_corrupt_dir_rejected_loudly(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:0:halt",
            )
        for name in sorted(os.listdir(ckpt_dir)):
            with open(os.path.join(ckpt_dir, name), "r+b") as fh:
                fh.truncate(4)
        with pytest.warns(RuntimeWarning, match="skipping corrupt"):
            with pytest.raises(
                CorruptCheckpointError, match="no valid checkpoint"
            ):
                synth(sinks, blockages=BLOCKAGES, resume_from=ckpt_dir)

    def test_resume_rejects_other_checkpoint_version(self, tmp_path, monkeypatch):
        """Older formats are refused, including version 3, whose payload
        still carried the node-id counter."""
        sinks = self._sinks()
        for version in (2, 3):
            reset_plans()
            ckpt_dir = str(tmp_path / f"ckpt_v{version}")
            monkeypatch.setattr(checkpoint, "CHECKPOINT_VERSION", version)
            with pytest.raises(SynthesisHalted):
                synth(
                    sinks,
                    blockages=BLOCKAGES,
                    checkpoint_dir=ckpt_dir,
                    fault_plan="checkpoint:0:halt",
                )
            monkeypatch.undo()
            with pytest.raises(ValueError, match=f"has version {version}"):
                synth(sinks, blockages=BLOCKAGES, resume_from=ckpt_dir)

    def test_digests_are_mode_independent(self):
        """Run plumbing (worker count, faults, checkpoint and heartbeat
        paths, validation) never changes a digest; a result option does."""
        sinks = self._sinks()
        a = CTSOptions()
        b = CTSOptions(
            workers=1,
            fault_plan="checkpoint:0:halt",
            checkpoint_dir="ckpt",
            heartbeat_file="hb",
            validate_every_merge=True,
        )
        assert options_digest(a) == options_digest(b)
        assert options_digest(a) != options_digest(
            CTSOptions(grid_resolution=50)
        )
        assert sinks_digest(sinks) == sinks_digest(list(sinks))

    def test_decode_renames_only_structural_placeholders(self, buffers):
        """Frame ids are frame-local keys. A merge's ``m<id>`` placeholder
        gets a fresh one on decode, but a sink named ``s<i>`` keeps its
        name even when ``i`` equals its frame id (a fresh process numbers
        the sinks first, so ``s<i>`` is also the sink's auto name)."""
        indexed = make_sink(Point(0.0, 0.0), 5e-15)
        assert indexed.name == f"s{indexed.id}"
        named = make_sink(Point(900.0, 0.0), 5e-15, "clk_pin")
        merge = make_merge(Point(450.0, 0.0))
        merge.attach(indexed)
        merge.attach(named)
        frame = checkpoint._encode_subtree(
            SubTree(merge, SubtreeBounds(0.0, 0.0, 0.0))
        )
        decoded = checkpoint._decode_subtree(frame, buffers).root
        assert decoded.id != merge.id
        assert decoded.name == f"m{decoded.id}"
        assert [c.name for c in decoded.children] == [indexed.name, "clk_pin"]

    def test_loaded_state_roundtrips(self, tmp_path):
        sinks = self._sinks()
        ckpt_dir = str(tmp_path / "ckpt")
        with pytest.raises(SynthesisHalted):
            synth(
                sinks,
                blockages=BLOCKAGES,
                checkpoint_dir=ckpt_dir,
                fault_plan="checkpoint:1:halt",
            )
        options = CTSOptions()
        cts = AggressiveBufferedCTS(options=options, blockages=BLOCKAGES)
        state = load_checkpoint(ckpt_dir, sinks, options, cts.buffers)
        assert state.levels_done == 2
        for subtree in state.subtrees:
            # Child order survived the round trip (walk() reverses it,
            # which is exactly why the encoder must not use walk()).
            for node in subtree.root.walk():
                for child in node.children:
                    assert child.parent is node
