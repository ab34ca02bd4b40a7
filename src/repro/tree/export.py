"""Clock tree serialization: JSON and Graphviz DOT.

JSON round-trips the full tree (geometry, wire lengths, buffer types,
sink caps) for archiving synthesized results; DOT renders the topology
for visual inspection.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.geom.point import Point
from repro.tech.buffers import BufferLibrary
from repro.tree.clocktree import ClockTree
from repro.tree.nodes import (
    NodeKind,
    TreeNode,
    make_buffer,
    make_merge,
    make_sink,
    make_source,
    make_steiner,
)


def tree_to_dict(tree: ClockTree | TreeNode) -> dict:
    """Nested-dict form of the tree (children inline)."""
    root = tree.root if isinstance(tree, ClockTree) else tree

    def encode(node: TreeNode) -> dict:
        data = {
            "kind": node.kind.value,
            "name": node.name,
            "x": node.location.x,
            "y": node.location.y,
            "wire_to_parent": node.wire_to_parent,
        }
        if node.kind is NodeKind.SINK:
            data["cap"] = node.cap
        if node.kind is NodeKind.BUFFER:
            data["buffer"] = node.buffer.name
        if node.children:
            data["children"] = [encode(c) for c in node.children]
        return data

    return encode(root)


def tree_signature(tree: ClockTree | TreeNode, base_id: int = 0) -> dict:
    """Canonical :func:`tree_to_dict` form for run-to-run comparison.

    Names are structural (assigned by ``ClockTree.from_network``), so
    two identical synthesis runs compare equal as they are, in one
    process or across processes. ``base_id`` is accepted for old
    callers and ignored.
    """
    return tree_to_dict(tree)


def signature_digest(signature: dict) -> str:
    """Hex digest of a :func:`tree_signature` dict.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256, so
    two processes can compare whole trees by exchanging one short
    string — the job runner records this per attempt.
    """
    canonical = json.dumps(
        signature, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def tree_from_dict(data: dict, buffers: BufferLibrary) -> TreeNode:
    """Rebuild a tree from :func:`tree_to_dict` output."""
    makers = {
        "source": lambda d, p: make_source(p, name=d["name"]),
        "sink": lambda d, p: make_sink(p, d["cap"], name=d["name"]),
        "merge": lambda d, p: make_merge(p, name=d["name"]),
        "steiner": lambda d, p: make_steiner(p, name=d["name"]),
        "buffer": lambda d, p: make_buffer(p, buffers[d["buffer"]], name=d["name"]),
    }

    def decode(node_data: dict) -> TreeNode:
        point = Point(node_data["x"], node_data["y"])
        node = makers[node_data["kind"]](node_data, point)
        node.name = node_data["name"]
        for child_data in node_data.get("children", []):
            child = decode(child_data)
            node.attach(child, child_data["wire_to_parent"])
        return node

    return decode(data)


def save_tree_json(tree: ClockTree | TreeNode, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tree_to_dict(tree), indent=1))


def load_tree_json(path: str | Path, buffers: BufferLibrary) -> TreeNode:
    return tree_from_dict(json.loads(Path(path).read_text()), buffers)


_DOT_STYLE = {
    NodeKind.SOURCE: 'shape=doublecircle color="#d62728"',
    NodeKind.SINK: 'shape=box color="#1f77b4"',
    NodeKind.MERGE: 'shape=point color="#2ca02c"',
    NodeKind.BUFFER: 'shape=triangle color="#ff7f0e"',
    NodeKind.STEINER: 'shape=point color="#7f7f7f"',
}


def tree_to_dot(tree: ClockTree | TreeNode, scale: float = 0.001) -> str:
    """Graphviz DOT with nodes pinned to their layout positions."""
    root = tree.root if isinstance(tree, ClockTree) else tree
    lines = [
        "digraph clocktree {",
        "  graph [layout=neato, splines=ortho];",
        '  node [fontsize=8, width=0.1, height=0.1, fixedsize=false];',
    ]
    for node in root.walk():
        label = node.name
        if node.kind is NodeKind.BUFFER:
            label = f"{node.name}\\n{node.buffer.name}"
        pos = f"{node.location.x * scale:.3f},{node.location.y * scale:.3f}"
        lines.append(
            f'  "{node.name}" [{_DOT_STYLE[node.kind]}, label="{label}",'
            f' pos="{pos}!"];'
        )
    for node in root.walk():
        for child in node.children:
            lines.append(
                f'  "{node.name}" -> "{child.name}"'
                f' [label="{child.wire_to_parent:.0f}", fontsize=6];'
            )
    lines.append("}")
    return "\n".join(lines)
