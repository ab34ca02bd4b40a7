"""The ClockTree container."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geom.point import Point
from repro.tree.nodes import (
    NodeKind,
    TreeNode,
    assign_structural_names,
    make_source,
)


class ClockTree:
    """A complete clock tree: a SOURCE root plus the synthesized network.

    Construction: build the network bottom-up as free-standing
    :class:`TreeNode` fragments, then wrap the final root::

        tree = ClockTree.from_network(source_location, network_root)
    """

    def __init__(self, root: TreeNode):
        if root.kind is not NodeKind.SOURCE:
            raise ValueError("clock tree root must be a SOURCE node")
        self.root = root
        #: Lazy name -> node index for :meth:`node_by_name`; entries are
        #: re-validated on every hit, so tree surgery after a build makes
        #: the index rebuild itself rather than serve stale nodes.
        self._name_index: dict[str, TreeNode] | None = None

    @classmethod
    def from_network(
        cls,
        source_location: Point,
        network_root: TreeNode,
        wire_length: float | None = None,
        name: str = "clk",
    ) -> "ClockTree":
        """Attach a source at ``source_location`` above the network root.

        This is where a tree's auto-named nodes get their final,
        structural names (:func:`~repro.tree.nodes.assign_structural_names`).
        """
        source = make_source(source_location, name=name)
        source.attach(network_root, wire_length)
        assign_structural_names(source)
        return cls(source)

    # ------------------------------------------------------------------

    def nodes(self) -> list[TreeNode]:
        return list(self.root.walk())

    def sinks(self) -> list[TreeNode]:
        return self.root.sinks()

    def buffers(self) -> list[TreeNode]:
        return self.root.buffers()

    def node_by_name(self, name: str) -> TreeNode:
        index = self._name_index
        if index is not None:
            node = index.get(name)
            if node is not None and node.name == name and self._in_tree(node):
                return node
        # Miss, renamed, or detached entry: (re)build from the live tree.
        # setdefault keeps the first node per name in walk order, matching
        # what the linear scan used to return for duplicate names.
        index = {}
        for node in self.root.walk():
            index.setdefault(node.name, node)
        self._name_index = index
        found = index.get(name)
        if found is None:
            raise KeyError(f"no node named {name!r}")
        return found

    def _in_tree(self, node: TreeNode) -> bool:
        """Whether ``node`` still hangs under this tree's root (O(depth))."""
        while node.parent is not None:
            node = node.parent
        return node is self.root

    def total_wirelength(self) -> float:
        return sum(n.wire_to_parent for n in self.root.walk())

    def buffer_count(self) -> int:
        return len(self.buffers())

    def buffer_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for b in self.buffers():
            hist[b.buffer.name] = hist.get(b.buffer.name, 0) + 1
        return hist

    def depth(self) -> int:
        """Maximum number of edges from root to any leaf."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in node.children)
        return best

    def stats(self) -> dict:
        """Summary statistics for reports, computed in one walk.

        Visits nodes in ``TreeNode.walk`` order, so the wirelength float
        sum and the buffer histogram's insertion order are identical to
        the per-statistic helpers above.
        """
        n_sinks = n_buffers = n_nodes = 0
        wirelength = 0.0
        depth = 0
        buffers: dict[str, int] = {}
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            n_nodes += 1
            if d > depth:
                depth = d
            wirelength += node.wire_to_parent
            if node.kind is NodeKind.SINK:
                n_sinks += 1
            elif node.kind is NodeKind.BUFFER:
                name = node.buffer.name
                n_buffers += 1
                buffers[name] = buffers.get(name, 0) + 1
            stack.extend((c, d + 1) for c in node.children)
        return {
            "n_sinks": n_sinks,
            "n_buffers": n_buffers,
            "n_nodes": n_nodes,
            "wirelength": wirelength,
            "depth": depth,
            "buffers": buffers,
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<ClockTree sinks={s['n_sinks']} buffers={s['n_buffers']}"
            f" wl={s['wirelength']:.0f}>"
        )


@dataclass(frozen=True)
class TreeEdge:
    """A (parent, child) pair with its wire length; convenience for iteration."""

    parent: TreeNode
    child: TreeNode
    length: float


def tree_edges(root: TreeNode) -> list[TreeEdge]:
    return [
        TreeEdge(n.parent, n, n.wire_to_parent)
        for n in root.walk()
        if n.parent is not None
    ]
