"""The library stays stdlib-only and float-free, and carries no dead imports.

`fibtree.__version__` and the version in pyproject.toml are written twice and
must agree.

Parses every module under src/fibtree with ast.  Only `verify.py` may use
`decimal`: its oracles are the one sanctioned approximation of phi.  The
searches in `represent.py` and `order.py` run on bare ints: they name no
`GoldInt`.  Every cache is bounded: each `lru_cache` names a finite
`maxsize`, and `functools.cache` is not used.  The checks of
`verify.SUITES` take no arguments but `check_consecutive_labels(max_level)`.
Each oracle in the table of `verify`'s docstring names none of the library
code it checks, directly or through another function of `verify.py`.
"""

import ast
import inspect
import pathlib
import re
import sys

import pytest

import fibtree

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fibtree"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.Module) -> list[str]:
    """Top-level names of the absolute imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^\[project\]$[^\[]*?^version = "([^"]*)"$', text, re.M)
    assert match is not None and match.group(1) == fibtree.__version__


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "goldring.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_float_free(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            bad.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            bad.append((node.lineno, "/ operator"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            bad.append((node.lineno, "float( call"))
    assert bad == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_stdlib_only(path):
    mods = _imported_modules(_tree(path))
    assert [m for m in mods if m not in sys.stdlib_module_names] == []
    if path.name != "verify.py":
        assert "decimal" not in mods


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(name for name in bound if name not in used) == []


@pytest.mark.parametrize("name", ["represent.py", "order.py"])
def test_searches_build_no_ring_elements(name):
    tree = _tree(SRC / name)
    named = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "GoldInt"
        or isinstance(node, ast.Attribute) and node.attr == "GoldInt"
        or isinstance(node, ast.ImportFrom) and any(alias.name == "GoldInt" for alias in node.names)
    ]
    assert named == []


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    unbounded = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "cache":
            unbounded.append((node.lineno, "functools.cache"))
        elif isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            # no maxsize at all is the default 128
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if sizes and not (isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int):
                unbounded.append((node.lineno, ast.unparse(node)))
    assert unbounded == []


def test_verify_checks_run_at_one_fixed_scale():
    # Each check states its grids, ranges, sample counts and seeds in its body; the CLI's
    # --max-level is the one value any caller sets, on the tree-building check.
    from fibtree.verify import SUITES

    params = {
        check.__name__: list(inspect.signature(check).parameters) for checks in SUITES.values() for check in checks
    }
    assert {name: p for name, p in params.items() if p} == {"check_consecutive_labels": ["max_level"]}


# The oracles of `verify`'s docstring table, in its order, and the library code each one checks.
ORACLE_CHECKS = {
    "beatty_oracle": {"u", "v", "u_inverse"},
    "gold_sign_oracle": {"_sign", "gold_sign"},
    "verify_lemma_shift": {"first_witness", "_steps_below"},
    "primitive_pairs_in_tree": {"find_sequence", "first_witness"},
    "word_by_upward_walk": {"_word_to"},
    "first_levels": {"is_subtree", "first_witness"},
    "fixing_words": {"self_containment"},
    "ancestor_rings": {"_inverse_steps", "least_upper_bound", "_never_meet"},
    "nearest_common_ancestors": {"_inverse_steps", "least_upper_bound", "_never_meet"},
}


def test_oracles_name_none_of_the_code_they_check():
    import fibtree.verify

    rows = re.findall(r"^    (\w+)  ", fibtree.verify.__doc__, re.M)
    assert rows == ["oracle", *ORACLE_CHECKS]
    defs = {node.name: node for node in _tree(SRC / "verify.py").body if isinstance(node, ast.FunctionDef)}
    for oracle, checked in ORACLE_CHECKS.items():
        named, todo = set(), [oracle]
        while todo:
            fresh = {_name(node) for node in ast.walk(defs[todo.pop()])} - named - {None}
            named |= fresh
            todo += [name for name in fresh if name in defs]
        assert named & checked == set(), oracle
