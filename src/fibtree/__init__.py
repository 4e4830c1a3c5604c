"""Exact integer toolkit for labeled Fibonacci trees.

Labeled trees on the generation scheme u -> uv, v -> u, identified with
pairs (a, b) and with elements a + b*phi of Z[phi].  The package covers
the Wythoff pair sequences on Z, Fibonacci words, closed-form level
labelings, the tree group, sequence-representation search, the subtree
partial order, and the Wythoff array -- all in arbitrary-precision
integer arithmetic, with no floating point anywhere in the core.
"""

from importlib import import_module

# Each public name by its home module.  A name is imported from there on
# first access (PEP 562), so `import fibtree.cli` loads only the modules
# the CLI imports.
_HOMES = {
    "goldring": ("Atom", "GoldInt", "MapWord", "fib", "gold_sign", "phi_pow"),
    "wythoff": ("FibSeq", "reference_index", "u", "u_inverse", "v"),
    "fibword": ("letter_at", "u_count", "v_count", "word"),
    "tree": (
        "FibTree",
        "LevelLabeling",
        "NodeRef",
        "branch_sequence",
        "build_levels",
        "children_labels",
        "level_interval",
        "node_label",
        "parent_label",
        "u_nodes",
    ),
    "algebra": ("scalar_mul", "tree_sum"),
    "represent": ("Occurrence", "TreeClass", "classify", "count_occurrences", "find_interval_level", "find_sequence"),
    "order": ("SubtreeWitness", "is_subtree", "least_upper_bound", "self_containment", "subtree_at"),
    "warray": ("hofstadter_g", "hofstadter_levels", "wythoff_array"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.9.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
