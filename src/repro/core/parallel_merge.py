"""Per-pair-identical node numbering for swept topology levels.

A swept level (:meth:`repro.core.cts.AggressiveBufferedCTS._merge_level_swept`)
runs its phases level-wide — every prepare, then the batched route, then
the lockstep commit — so nodes are created in a different *order* than
merging the level pair by pair would create them, which would leak into
auto-generated node ids and names. The flow records the id ranges each
pair consumed in each phase and renumbers the level's nodes afterwards
into per-pair creation order — a bijection on the level's id block —
and remaps the timing engine's memoized keys to follow. The synthesized
tree (including node names) is then bit-identical to the per-pair flow.
"""

from __future__ import annotations

from repro.timing.analysis import LibraryTimingEngine
from repro.tree.nodes import TreeNode


def serial_id_mapping(
    base: int, spans_per_pair: list[list[tuple[int, int]]]
) -> dict[int, int]:
    """Map phase-order node ids onto per-pair creation order.

    ``spans_per_pair[i]`` lists the ``[start, end)`` id ranges pair ``i``
    consumed, in that pair's own phase order (prepare first, commit
    second). The per-pair flow would have consumed the same ranges pair
    by pair starting at ``base``; the returned dict is that bijection,
    with identity entries dropped.
    """
    mapping: dict[int, int] = {}
    next_id = base
    for spans in spans_per_pair:
        for start, end in spans:
            for old in range(start, end):
                if old != next_id:
                    mapping[old] = next_id
                next_id += 1
    return mapping


def renumber_subtrees(
    roots: list[TreeNode],
    mapping: dict[int, int],
    engine: LibraryTimingEngine,
) -> None:
    """Apply a per-pair id mapping to live nodes and the engine's cache.

    Auto-generated names (``m<id>``/``b<id>``/…) are regenerated so
    exports match the per-pair flow byte for byte; explicit names (sinks,
    sources) are never touched because level-created nodes are only
    merges, buffers and steiner points.
    """
    if not mapping:
        return
    for root in roots:
        for node in root.walk():
            new_id = mapping.get(node.id)
            if new_id is None:
                continue
            auto_name = f"{node.kind.value[0]}{node.id}"
            node.id = new_id
            if node.name == auto_name:
                node.name = f"{node.kind.value[0]}{new_id}"
    engine.remap_node_ids(mapping)
