"""Structural invariants of clock trees.

Synthesis bugs usually show up as malformed trees long before they show
up as bad skew numbers; :func:`validate_tree` is called by the test suite
and (cheaply) by the synthesis flow after every merge in debug mode.
"""

from __future__ import annotations

from repro.tree.nodes import NodeKind, TreeNode


class TreeInvariantError(AssertionError):
    """A clock tree violated a structural invariant."""


def validate_tree(root: TreeNode, expect_source_root: bool = False) -> None:
    """Check structural invariants of the (sub)tree under ``root``.

    - parent/child links are mutually consistent and acyclic;
    - SOURCE only at the root, with exactly one child;
    - BUFFER nodes drive exactly one child;
    - MERGE nodes have exactly two children;
    - SINK nodes are leaves with positive capacitance;
    - node names are unique (DOT, the SPICE netlist and simulated sink
      arrivals all key on them);
    - wire lengths are >= the Manhattan distance between the endpoints
      (snaking may lengthen, never shorten).
    """
    if expect_source_root and root.kind is not NodeKind.SOURCE:
        raise TreeInvariantError(f"root is {root.kind}, expected SOURCE")
    seen: set[int] = set()
    names: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node.id in seen:
            raise TreeInvariantError(f"cycle detected at {node}")
        seen.add(node.id)
        if node.name in names:
            raise TreeInvariantError(f"duplicate node name {node.name!r}")
        names.add(node.name)
        for child in node.children:
            if child.parent is not node:
                raise TreeInvariantError(
                    f"{child} child of {node} but parent link says {child.parent}"
                )
            dist = node.location.manhattan_to(child.location)
            if child.wire_to_parent < dist - 1e-6:
                raise TreeInvariantError(
                    f"wire {node.name}->{child.name} length {child.wire_to_parent}"
                    f" shorter than distance {dist}"
                )
        if node.kind is NodeKind.SOURCE:
            if node is not root:
                raise TreeInvariantError(f"interior SOURCE node {node}")
            if len(node.children) != 1:
                raise TreeInvariantError(
                    f"SOURCE must have exactly 1 child, has {len(node.children)}"
                )
        elif node.kind is NodeKind.BUFFER:
            if len(node.children) != 1:
                raise TreeInvariantError(
                    f"BUFFER {node.name} must drive exactly 1 child,"
                    f" has {len(node.children)}"
                )
        elif node.kind is NodeKind.MERGE:
            if len(node.children) != 2:
                raise TreeInvariantError(
                    f"MERGE {node.name} must have 2 children,"
                    f" has {len(node.children)}"
                )
        elif node.kind is NodeKind.SINK:
            if node.children:
                raise TreeInvariantError(f"SINK {node.name} has children")
            if node.cap <= 0:
                raise TreeInvariantError(f"SINK {node.name} has cap {node.cap}")
        stack.extend(node.children)
