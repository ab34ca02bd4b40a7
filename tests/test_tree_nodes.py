"""Clock tree nodes and the ClockTree container."""

import pytest

from repro.geom import Point
from repro.tech import cts_buffer_library
from repro.tree.clocktree import ClockTree, tree_edges
from repro.tree.nodes import (
    NAME_PREFIX,
    NodeKind,
    make_buffer,
    make_merge,
    make_sink,
    make_source,
    make_steiner,
)
from repro.tree.validate import TreeInvariantError, validate_tree


@pytest.fixture()
def buf20():
    return cts_buffer_library()["BUF20X"]


def small_tree(buf20):
    """source -> buffer -> merge -> (sinkA, buffer -> sinkB)"""
    sink_a = make_sink(Point(0, 0), 5e-15, "sA")
    sink_b = make_sink(Point(2000, 0), 6e-15, "sB")
    buf_b = make_buffer(Point(1500, 0), buf20)
    buf_b.attach(sink_b)
    merge = make_merge(Point(1000, 0))
    merge.attach(sink_a)
    merge.attach(buf_b)
    root_buf = make_buffer(Point(1000, 100), buf20)
    root_buf.attach(merge)
    return ClockTree.from_network(Point(1000, 120), root_buf)


class TestNodeConstruction:
    def test_kinds_enforce_payload(self, buf20):
        from repro.tree.nodes import TreeNode

        with pytest.raises(ValueError):
            TreeNode(NodeKind.MERGE, Point(0, 0), buffer=buf20)  # no buffer here
        with pytest.raises(ValueError):
            TreeNode(NodeKind.BUFFER, Point(0, 0))  # buffer type required
        with pytest.raises(ValueError):
            TreeNode(NodeKind.MERGE, Point(0, 0), cap=1e-15)  # no sink cap here

    def test_auto_names_unique(self):
        a = make_merge(Point(0, 0))
        b = make_merge(Point(0, 0))
        assert a.name != b.name

    def test_auto_name_prefixes_are_distinct(self, buf20):
        """Steiners no longer share the sinks' ``s`` prefix."""
        assert len(set(NAME_PREFIX.values())) == len(NodeKind)
        bend = make_steiner(Point(0, 0))
        assert bend.name == f"t{bend.id}"
        buf = make_buffer(Point(0, 0), buf20)
        assert buf.name == f"b{buf.id}"

    def test_attach_default_wire_is_manhattan(self, buf20):
        parent = make_merge(Point(0, 0))
        child = make_sink(Point(30, 40), 1e-15)
        parent.attach(child)
        assert child.wire_to_parent == 70

    def test_attach_rejects_short_wire(self):
        parent = make_merge(Point(0, 0))
        child = make_sink(Point(30, 40), 1e-15)
        with pytest.raises(ValueError):
            parent.attach(child, wire_length=10.0)

    def test_attach_allows_snaked_wire(self):
        parent = make_merge(Point(0, 0))
        child = make_sink(Point(30, 40), 1e-15)
        parent.attach(child, wire_length=500.0)
        assert child.wire_to_parent == 500.0

    def test_double_attach_rejected(self):
        parent = make_merge(Point(0, 0))
        child = make_sink(Point(1, 1), 1e-15)
        parent.attach(child)
        with pytest.raises(ValueError):
            make_merge(Point(5, 5)).attach(child)

    def test_detach_and_reattach(self):
        parent = make_merge(Point(0, 0))
        child = make_sink(Point(1, 1), 1e-15)
        parent.attach(child)
        child.detach()
        assert child.parent is None
        assert child not in parent.children
        make_merge(Point(2, 2)).attach(child)


class TestTraversal:
    def test_walk_parents_first(self, buf20):
        tree = small_tree(buf20)
        seen = set()
        for node in tree.root.walk():
            if node.parent is not None:
                assert node.parent.id in seen
            seen.add(node.id)

    def test_sinks_and_buffers(self, buf20):
        tree = small_tree(buf20)
        assert {s.name for s in tree.sinks()} == {"sA", "sB"}
        assert len(tree.buffers()) == 2

    def test_downstream_wirelength(self, buf20):
        tree = small_tree(buf20)
        merge = tree.node_by_name("sA").parent
        assert merge.downstream_wirelength() == pytest.approx(
            1000 + 500 + 500
        )

    def test_unbuffered_cap_stops_at_buffers(self, buf20, tech):
        tree = small_tree(buf20)
        merge = tree.node_by_name("sA").parent
        cap = merge.unbuffered_cap(tech.wire.capacitance_per_unit)
        expected = (
            tech.wire.capacitance_per_unit * (1000 + 500)  # to sA and to buf
            + 5e-15  # sink A
        )
        assert cap == pytest.approx(expected)

    def test_root_helper(self, buf20):
        tree = small_tree(buf20)
        assert tree.node_by_name("sB").root() is tree.root


class TestClockTree:
    def test_requires_source_root(self, buf20):
        with pytest.raises(ValueError):
            ClockTree(make_merge(Point(0, 0)))

    def test_stats(self, buf20):
        tree = small_tree(buf20)
        stats = tree.stats()
        assert stats["n_sinks"] == 2
        assert stats["n_buffers"] == 2
        assert stats["buffers"] == {"BUF20X": 2}
        assert stats["depth"] >= 3

    def test_total_wirelength(self, buf20):
        tree = small_tree(buf20)
        assert tree.total_wirelength() == pytest.approx(1000 + 500 + 500 + 100 + 20)

    def test_stats_matches_per_statistic_helpers(self, buf20):
        tree = small_tree(buf20)
        stats = tree.stats()
        assert stats["n_sinks"] == len(tree.sinks())
        assert stats["n_buffers"] == tree.buffer_count()
        assert stats["n_nodes"] == len(tree.nodes())
        assert stats["depth"] == tree.depth()
        assert stats["buffers"] == tree.buffer_histogram()
        # Same walk order, so the float sum is bit-identical, not approx.
        assert stats["wirelength"] == tree.total_wirelength()

    def test_node_by_name_missing(self, buf20):
        with pytest.raises(KeyError):
            small_tree(buf20).node_by_name("nope")

    def test_node_by_name_index_survives_surgery(self, buf20):
        tree = small_tree(buf20)
        sink_a = tree.node_by_name("sA")  # builds the lazy index
        assert tree.node_by_name("sA") is sink_a
        # Rename: the stale entry must not serve the old name, and the
        # rebuilt index must find the new one.
        sink_a.name = "sA2"
        with pytest.raises(KeyError):
            tree.node_by_name("sA")
        assert tree.node_by_name("sA2") is sink_a
        # Detach: a cached node that left the tree must not be served.
        buf_b = tree.node_by_name("sB").parent
        tree.node_by_name(buf_b.name)  # cache the soon-detached branch
        buf_b.detach()
        with pytest.raises(KeyError):
            tree.node_by_name("sB")
        # Reattach elsewhere: the rebuild sees it again.
        sink_a.parent.attach(buf_b)
        assert tree.node_by_name("sB") is buf_b.children[0]

    def test_tree_edges(self, buf20):
        tree = small_tree(buf20)
        edges = tree_edges(tree.root)
        assert len(edges) == len(tree.nodes()) - 1
        for edge in edges:
            assert edge.child.parent is edge.parent


class TestStructuralNames:
    """``ClockTree.from_network`` names auto-named nodes by structure."""

    @staticmethod
    def _mirror_tree(buf20, reverse_creation: bool):
        """One tree shape, its interior nodes created in either order."""
        points = [Point(1000, 0), Point(3000, 0), Point(2000, 100)]
        if reverse_creation:
            top, right, left = [make_merge(p) for p in reversed(points)]
        else:
            left, right, top = [make_merge(p) for p in points]
        for merge, x in ((left, 0), (right, 2000)):
            merge.attach(make_sink(Point(x, 0), 5e-15, f"s{x // 1000}"))
            buf = make_buffer(Point(x + 1000, 50), buf20)
            merge.attach(buf)
            buf.attach(make_sink(Point(x + 1000, 60), 5e-15, f"s{x // 1000 + 1}"))
        top.attach(left)
        top.attach(right)
        return ClockTree.from_network(Point(2000, 200), top)

    def test_names_independent_of_creation_order(self, buf20):
        from repro.tree.export import tree_to_dict

        first = self._mirror_tree(buf20, reverse_creation=False)
        second = self._mirror_tree(buf20, reverse_creation=True)
        assert tree_to_dict(first) == tree_to_dict(second)
        # Child-order preorder: clk, top merge, left merge, its sink,
        # its buffer, ..., right merge, ...
        order = [node.name for node in first.root.preorder()]
        assert order == [
            "clk", "m0", "m1", "s0", "b0", "s1", "m2", "s2", "b1", "s3"
        ]

    def test_explicit_names_kept(self):
        tap = make_steiner(Point(0, 0), name="h_root")
        bend = make_steiner(Point(0, 100))
        tap.attach(bend)
        bend.attach(make_sink(Point(0, 200), 5e-15, "s0"))
        tree = ClockTree.from_network(Point(0, -100), tap, name="clk")
        names = [node.name for node in tree.root.preorder()]
        assert names == ["clk", "h_root", "t0", "s0"]

    def test_steiner_ordinals_never_meet_sink_names(self):
        """Ordinal steiner names under the old shared ``s`` prefix would
        have collided with index-named sinks."""
        root = make_steiner(Point(0, 0))
        for i in range(3):
            bend = make_steiner(Point(100 * i, 100))
            root.attach(bend)
            bend.attach(make_sink(Point(100 * i, 200), 5e-15, f"s{i}"))
        tree = ClockTree.from_network(Point(0, -100), root)
        validate_tree(tree.root, expect_source_root=True)
        steiners = [n.name for n in tree.nodes() if n.kind is NodeKind.STEINER]
        assert sorted(steiners) == ["t0", "t1", "t2", "t3"]


class TestValidate:
    def test_valid_tree_passes(self, buf20):
        validate_tree(small_tree(buf20).root, expect_source_root=True)

    def test_duplicate_names_fail(self):
        """DOT, the SPICE netlist and simulated arrivals key on names."""
        merge = make_merge(Point(0, 0))
        merge.attach(make_sink(Point(1, 1), 1e-15, "s0"))
        merge.attach(make_sink(Point(2, 2), 1e-15, "s0"))
        with pytest.raises(TreeInvariantError, match="duplicate node name"):
            validate_tree(merge)

    def test_merge_with_one_child_fails(self):
        merge = make_merge(Point(0, 0))
        merge.attach(make_sink(Point(1, 1), 1e-15))
        with pytest.raises(TreeInvariantError):
            validate_tree(merge)

    def test_buffer_with_two_children_fails(self, buf20):
        buf = make_buffer(Point(0, 0), buf20)
        buf.attach(make_sink(Point(1, 0), 1e-15))
        child2 = make_sink(Point(0, 1), 1e-15)
        child2.parent = buf
        buf.children.append(child2)
        with pytest.raises(TreeInvariantError):
            validate_tree(buf)

    def test_sink_with_zero_cap_fails(self):
        merge = make_merge(Point(0, 0))
        bad = make_sink(Point(1, 1), 1e-15)
        bad.cap = 0.0
        merge.attach(bad)
        merge.attach(make_sink(Point(2, 2), 1e-15))
        with pytest.raises(TreeInvariantError):
            validate_tree(merge)

    def test_inconsistent_parent_link_fails(self):
        a = make_merge(Point(0, 0))
        s1 = make_sink(Point(1, 1), 1e-15)
        s2 = make_sink(Point(2, 2), 1e-15)
        a.attach(s1)
        a.attach(s2)
        s1.parent = s2  # corrupt
        with pytest.raises(TreeInvariantError):
            validate_tree(a)

    def test_short_wire_fails(self):
        a = make_merge(Point(0, 0))
        s1 = make_sink(Point(100, 0), 1e-15)
        s2 = make_sink(Point(0, 100), 1e-15)
        a.attach(s1)
        a.attach(s2)
        s1.wire_to_parent = 10.0  # corrupt: shorter than distance
        with pytest.raises(TreeInvariantError):
            validate_tree(a)

    def test_steiner_pass_through_allowed(self, buf20):
        root = make_buffer(Point(0, 0), buf20)
        bend = make_steiner(Point(100, 0))
        root.attach(bend)
        bend.attach(make_sink(Point(100, 100), 1e-15))
        validate_tree(root)
