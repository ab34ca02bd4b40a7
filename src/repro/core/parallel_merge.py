"""Former home of the swept levels' per-pair node renumbering.

Node names are structural now (:func:`repro.tree.nodes.assign_structural_names`),
so no level is renumbered and nothing here runs.
"""

from repro.tree.nodes import assign_structural_names

# The benchmark's tracer still wraps this name (``core.renumber``); no
# code calls it, so that span reads 0. Delete with the next bench change.
renumber_subtrees = assign_structural_names
