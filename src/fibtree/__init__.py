"""Exact integer toolkit for labeled Fibonacci trees.

Labeled trees on the generation scheme u -> uv, v -> u, identified with
pairs (a, b) and with elements a + b*phi of Z[phi].  The package covers
the Wythoff pair sequences on Z, Fibonacci words, closed-form level
labelings, the tree group, sequence-representation search, the subtree
partial order, and the Wythoff array -- all in arbitrary-precision
integer arithmetic, with no floating point anywhere in the core.
"""

from .goldring import Atom, GoldInt, MapWord, fib, gold_sign, phi_pow
from .wythoff import FibSeq, reference_index, u, u_inverse, v
from .fibword import letter_at, u_count, v_count, word
from .tree import (
    FibTree,
    LevelLabeling,
    NodeRef,
    branch_sequence,
    build_levels,
    children_labels,
    level_interval,
    node_label,
    parent_label,
    u_nodes,
)
from .algebra import scalar_mul, tree_sum
from .represent import (
    Occurrence,
    TreeClass,
    classify,
    count_occurrences,
    find_interval_level,
    find_sequence,
)
from .order import SubtreeWitness, is_subtree, least_upper_bound, self_containment, subtree_at
from .warray import hofstadter_g, hofstadter_levels, wythoff_array

__version__ = "0.9.0"

__all__ = [
    "Atom",
    "FibSeq",
    "FibTree",
    "GoldInt",
    "LevelLabeling",
    "MapWord",
    "NodeRef",
    "Occurrence",
    "SubtreeWitness",
    "TreeClass",
    "branch_sequence",
    "build_levels",
    "children_labels",
    "classify",
    "count_occurrences",
    "fib",
    "find_interval_level",
    "find_sequence",
    "gold_sign",
    "hofstadter_g",
    "hofstadter_levels",
    "is_subtree",
    "least_upper_bound",
    "letter_at",
    "level_interval",
    "node_label",
    "parent_label",
    "phi_pow",
    "reference_index",
    "scalar_mul",
    "self_containment",
    "subtree_at",
    "tree_sum",
    "u",
    "u_count",
    "u_inverse",
    "u_nodes",
    "v",
    "v_count",
    "word",
    "wythoff_array",
]
