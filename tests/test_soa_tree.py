"""Structure-of-arrays tree mirror: round-trip, kernels, end to end.

The mirror (:mod:`repro.core.soa_tree`) echoes every node creation /
attach / detach into flat numpy columns and answers the commit phase's
bounds-bucket prefill, forced-stage-buffer decisions and checkpoint
frames from them. Its contract is bit-identity with the object walks it
replaces, so every test here reduces to exact equality — signatures,
cache values, rows — never approx.
"""

import numpy as np
import pytest

from repro.core.checkpoint import _iter_preorder
from repro.core.cts import AggressiveBufferedCTS
from repro.core.options import CTSOptions
from repro.core.soa_tree import SoaTree
from repro.evalx.perfstats import checkpoint_resume_equivalence, scaling_scenario
from repro.geom.bbox import BBox
from repro.geom.point import Point
from repro.tech import cts_buffer_library
from repro.timing.analysis import SLEW_QUANTUM
from repro.tree.export import tree_signature
from repro.tree.nodes import (
    NodeKind,
    make_buffer,
    make_merge,
    make_sink,
    make_source,
    peek_node_id,
    set_tree_recorder,
)

from tests.conftest import assert_matches_oracle, make_sink_pairs

BLOCKAGES = [BBox(8000.0, 8000.0, 16000.0, 16000.0)]


def synth(sinks, blockages=None, mirror=True, source=None):
    """One synthesis run plus the rebased signature of its tree.

    ``mirror=False`` runs the same flow (same level gates, same kernels)
    on the object walks: ``_synthesize`` without the SoA mirror.
    """
    cts = AggressiveBufferedCTS(options=CTSOptions(), blockages=blockages)
    base = peek_node_id()
    run = cts.synthesize if mirror else cts._synthesize
    result = run(sinks, source)
    return tree_signature(result.tree, base), result, cts


def blocked_sinks(n, seed):
    clear = [bbox.expanded(1200.0) for bbox in BLOCKAGES]
    sinks = [
        (p, c)
        for p, c in make_sink_pairs(n, 30000.0, seed=seed)
        if not any(region.contains(p) for region in clear)
    ]
    assert len(sinks) >= 10
    return sinks


@pytest.fixture()
def recorded():
    """A fresh mirror installed as the tree recorder for one test."""
    soa = SoaTree()
    previous = set_tree_recorder(soa)
    try:
        yield soa
    finally:
        set_tree_recorder(previous)


def object_checkpoint_rows(root):
    """The object-walk rows of ``checkpoint._encode_subtree``."""
    return [
        (
            node.id,
            node.kind.value,
            node.name,
            node.location.x,
            node.location.y,
            node.wire_to_parent,
            node.cap,
            node.buffer.name if node.buffer is not None else None,
            node.parent.id if node.parent is not None else None,
        )
        for node in _iter_preorder(root)
    ]


class TestMirrorRoundTrip:
    """Random surgery round-trips through the columns bit-exactly."""

    def _random_forest(self, rng, buffers):
        names = list(buffers.names)
        roots = [
            make_sink(
                Point(float(rng.uniform(0, 9000)), float(rng.uniform(0, 9000))),
                float(rng.uniform(4e-15, 12e-15)),
            )
            for __ in range(12)
        ]
        for __ in range(60):
            op = rng.integers(0, 4)
            if op == 0 or len(roots) < 2:
                roots.append(
                    make_sink(
                        Point(
                            float(rng.uniform(0, 9000)),
                            float(rng.uniform(0, 9000)),
                        ),
                        float(rng.uniform(4e-15, 12e-15)),
                    )
                )
            elif op == 1:
                # Merge two roots under a new MERGE node.
                a = roots.pop(int(rng.integers(0, len(roots))))
                b = roots.pop(int(rng.integers(0, len(roots))))
                m = make_merge(
                    Point(
                        (a.location.x + b.location.x) / 2,
                        (a.location.y + b.location.y) / 2,
                    )
                )
                m.attach(a)
                m.attach(b)
                roots.append(m)
            elif op == 2:
                # Drive a root with a new BUFFER.
                child = roots.pop(int(rng.integers(0, len(roots))))
                buf = make_buffer(
                    Point(child.location.x + 10.0, child.location.y),
                    buffers[names[int(rng.integers(0, len(names)))]],
                )
                buf.attach(child)
                roots.append(buf)
            else:
                # Detach a random child somewhere and re-root it.
                root = roots[int(rng.integers(0, len(roots)))]
                nodes = [n for n in root.walk() if n.parent is not None]
                if nodes:
                    picked = nodes[int(rng.integers(0, len(nodes)))]
                    roots.append(picked.detach())
        return roots

    def test_random_surgery_mirrors_and_round_trips(self, recorded):
        rng = np.random.default_rng(17)
        buffers = cts_buffer_library()
        roots = self._random_forest(rng, buffers)
        for root in roots:
            recorded.assert_mirrors(root)
        # Round-trip: the checkpoint rows encoded from the columns are
        # the object walk's rows, and rebuilding from them reproduces
        # the tree signature exactly.
        root = max(roots, key=lambda r: len(list(r.walk())))
        rows = recorded.checkpoint_rows(root)
        assert rows == object_checkpoint_rows(root)
        rebuilt = self._rebuild(rows, buffers)
        base = min(r[0] for r in rows)
        assert tree_signature(rebuilt, base) == tree_signature(root, base)

    def _rebuild(self, rows, buffers):
        from repro.tree.nodes import TreeNode

        by_id = {}
        root = None
        for node_id, kind, name, x, y, wire, cap, buf_name, parent_id in rows:
            node = TreeNode(
                kind=NodeKind(kind),
                location=Point(x, y),
                name=name,
                cap=cap,
                buffer=buffers[buf_name] if buf_name is not None else None,
                id=node_id,
            )
            by_id[node_id] = node
            if parent_id is None:
                root = node
            else:
                by_id[parent_id].attach(node, wire)
        return root

    def test_source_seeding_and_detach(self, recorded, buf_lib=None):
        buffers = cts_buffer_library()
        sink = make_sink(Point(100.0, 0.0), 5e-15, "s0")
        buf = make_buffer(Point(50.0, 0.0), buffers["BUF20X"])
        buf.attach(sink)
        src = make_source(Point(0.0, 0.0))
        src.attach(buf)
        recorded.assert_mirrors(src)
        buf.detach()
        recorded.assert_mirrors(src)
        recorded.assert_mirrors(buf)


class TestKernelEquality:
    """Kernel outputs equal the object walks they shadow, bit for bit."""

    def test_prefill_fills_object_cache_superset(self):
        sinks = blocked_sinks(18, seed=22)
        base_soa = peek_node_id()
        __, __r, cts_soa = synth(sinks, blockages=BLOCKAGES)
        base_obj = peek_node_id()
        __, __r, cts_obj = synth(sinks, blockages=BLOCKAGES, mirror=False)

        def rebase(cache, base):
            return {(key[0] - base, *key[1:]): val for key, val in cache.items()}

        soa_bounds = rebase(cts_soa.engine._bounds_cache, base_soa)
        obj_bounds = rebase(cts_obj.engine._bounds_cache, base_obj)
        # The mirror may prefetch extra buckets (pure functions of the
        # key); everything the object walk computed must be present and
        # bit-identical.
        assert set(obj_bounds) <= set(soa_bounds)
        assert all(soa_bounds[k] == v for k, v in obj_bounds.items())
        soa_v = rebase(cts_soa.engine._vbounds_cache, base_soa)
        obj_v = rebase(cts_obj.engine._vbounds_cache, base_obj)
        assert set(obj_v) <= set(soa_v)
        assert all(soa_v[k] == v for k, v in obj_v.items())

    def test_collapsed_cap_bit_exact(self, recorded, engine):
        buffers = cts_buffer_library()
        rng = np.random.default_rng(5)
        sinks = [
            make_sink(
                Point(float(rng.uniform(0, 4000)), float(rng.uniform(0, 4000))),
                float(rng.uniform(4e-15, 12e-15)),
            )
            for __ in range(6)
        ]
        b0 = make_buffer(Point(10.0, 10.0), buffers["BUF10X"])
        b0.attach(sinks[0])
        m0 = make_merge(Point(500.0, 500.0))
        m0.attach(b0)
        m0.attach(sinks[1])
        b1 = make_buffer(Point(900.0, 900.0), buffers["BUF30X"])
        b1.attach(m0)
        m1 = make_merge(Point(1500.0, 1500.0))
        m1.attach(b1)
        m1.attach(sinks[2])
        m2 = make_merge(Point(2500.0, 2500.0))
        m2.attach(m1)
        m2.attach(sinks[3])
        for node in (m0, m1, m2):
            engine._cap_cache.pop(node.id, None)
            fast = recorded.load_cap(engine, node)
            engine._cap_cache.pop(node.id, None)
            slow = engine._load_cap_of(node)
            assert fast == slow

    def test_checkpoint_rows_after_surgery(self, recorded):
        buffers = cts_buffer_library()
        rng = np.random.default_rng(23)
        roots = TestMirrorRoundTrip()._random_forest(rng, buffers)
        for root in roots:
            assert recorded.checkpoint_rows(root) == object_checkpoint_rows(
                root
            )


class TestQuantumBoundary:
    """Slews exactly on SLEW_QUANTUM multiples: the two adjacent
    buckets answer identically, so bucket choice cannot matter."""

    def _buffer_nodes(self):
        sinks = blocked_sinks(14, seed=31)
        __, result, cts = synth(sinks, blockages=BLOCKAGES, mirror=False)
        nodes = [
            n
            for n in result.tree.root.walk()
            if n.kind is NodeKind.BUFFER
        ]
        assert nodes
        return nodes, cts.engine

    def test_exact_multiple_slews_bucket_invariant(self):
        nodes, engine = self._buffer_nodes()
        rng = np.random.default_rng(41)
        for node in nodes[:8]:
            for k in sorted(set(rng.integers(0, 24, size=6).tolist())):
                slew = k * SLEW_QUANTUM
                # The quantizer lands exactly on the bucket: no
                # interpolation fraction survives the float round-trip.
                kk, frac = engine._buckets_of(slew)
                assert (kk, frac) == (k, 0.0)
                # Element-wise twin used by the SoA prefill kernel.
                q = np.asarray([slew]) / SLEW_QUANTUM
                ks = q.astype(np.int64)
                assert (int(ks[0]), float((q - ks)[0])) == (k, 0.0)
                lo = engine._buffer_bucket_bounds(node, k)
                hi = engine._buffer_bucket_bounds(node, k + 1)
                # frac == 0 collapses the lerp onto the low bucket
                # exactly; the full query returns that very value.
                assert engine._lerp_bounds(lo, hi, 0.0) == lo
                assert engine.buffer_subtree_bounds(node, slew) == lo


class TestEndToEnd:
    """Mirror on/off, per-pair oracle and resumed: identical trees."""

    def test_serial_identical(self):
        """Same flow with and without the mirror: identical trees,
        stats and commit queries."""
        sinks, source, blockages = scaling_scenario(80, True, seed=7)
        soa_sig, soa, __ = synth(sinks, blockages, source=source)
        obj_sig, obj, __ = synth(sinks, blockages, mirror=False, source=source)
        assert soa_sig == obj_sig
        assert soa.merge_stats == obj.merge_stats
        assert soa.levels == obj.levels
        assert soa.commit_queries == obj.commit_queries

    def test_matches_per_pair_oracle(self):
        sinks, source, blockages = scaling_scenario(80, True, seed=7)
        soa, oracle = assert_matches_oracle(sinks, source, blockages=blockages)
        for key in ("search_probes", "clamp_probes", "repair_probes", "reused_checks"):
            assert soa.commit_queries[key] == oracle.commit_queries[key]

    def test_resumed_identical(self):
        # Checkpoint frames are encoded from the columns; a halt +
        # resume must land on the clean run's tree.
        eq = checkpoint_resume_equivalence(
            n_sinks=60, with_blockages=True, seed=11, halt_after=2
        )
        assert eq["checkpoints_written"] >= 1
        assert eq["resumed_tree"] == eq["clean_tree"]
        assert eq["resumed_stats"] == eq["clean_stats"]
        assert eq["resumed_levels"] == eq["clean_levels"]


class TestFaults:
    """MemoryError inside a mirror kernel always surfaces: the jobs
    watchdog owns OOM handling."""

    def test_oom_mode_propagates_memoryerror(self, monkeypatch):
        calls = []

        def out_of_memory(self, router, merges):
            calls.append(len(merges))
            raise MemoryError("mirror stage drivers")

        monkeypatch.setattr(SoaTree, "stage_drivers", out_of_memory)
        sinks = blocked_sinks(18, seed=22)
        with pytest.raises(MemoryError, match="mirror stage drivers"):
            synth(sinks, blockages=BLOCKAGES)
        assert len(calls) == 1  # nothing retried the kernel


class TestHookErrors:
    """A mirror that cannot vouch for a node is a bug and raises."""

    def test_attach_of_unmirrored_node_raises(self, recorded):
        previous = set_tree_recorder(None)
        try:
            stranger = make_sink(Point(0.0, 0.0), 5e-15)
        finally:
            set_tree_recorder(previous)
        merge = make_merge(Point(10.0, 0.0))
        with pytest.raises(RuntimeError, match="never saw"):
            merge.attach(stranger)
