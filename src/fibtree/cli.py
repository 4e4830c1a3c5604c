"""Command-line front end: tree dumps, table queries, searches, verification.

Each subcommand is one entry of `_COMMANDS`: its help line, its flags and
its handler.  A handler returns either a JSON result, which `run` wraps
in one envelope (top-level keys tool_version, command, result,
canonically sorted), or a finished text (tree dumps as ascii or dot, the
array as csv), which `run` prints as it is.  Handlers return plain
integers; `run` applies the 53-bit rule once, to every integer field of
a JSON result: an integer beyond 53-bit magnitude is emitted as a
decimal string, so downstream parsers without big integers stay safe.
Exit codes: 0 success, 1 domain error, 2 usage error, 3 verification
failure; a result integer past the interpreter's limit for integer text
is a domain error that names the subcommand's flags.  Level n of a tree
holds F_(n+2) labels, so each flag that sizes levels, depths or word
lists has a least value and a fixed cap, checked before any work, and
every table it prints (`array`, `wythoff`, `hofstadter`, `tree` as json
or dot) is refused past one output bound, decided from sizes before the
largest value is built.  The searches decide with no `--cap`; one that
is given bounds the levels scanned.  Modules load on demand: `order`,
`represent` and `algebra` only in the handlers that call them, and the
oracles of `fibtree.verify` only for the `verify` subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate, count

from . import __version__
from .fibword import MAX_WORD_LEVEL, U, word
from .goldring import fib
from .tree import FibTree, LevelLabeling, level_interval
from .warray import hofstadter_g, hofstadter_levels, wythoff_array
from .wythoff import FibSeq, u, v

_SAFE_MAGNITUDE = 1 << 53

# A join search miss doubles in time and memory with each level of depth.  F[13,104], F[104,117] is a miss
# that the conjugate-gap certificate leaves open, so it runs the search to this cap: the `lub-search` row of
# tests/test_budgets.py::test_argv_at_its_bound asserts it within its time and address-space limits.
MAX_LUB_DEPTH = 16
# `self-contain` prints depth(depth+1)/2 atoms for F[1,2]: 1.0-1.1 s and 68 MiB at depth 2000, 5.9 s and 334 MiB
# at 5000 (as a process, Python 3.11, 2-vCPU host).
MAX_SELF_CONTAIN_DEPTH = 2000
# `verify --suite labels` builds 121 trees to this level: 2.6-2.9 s and 28 MiB at 20, about 2.6x per two levels
# (as a process, Python 3.11, 2-vCPU host).
MAX_VERIFY_LEVEL = 20
# `array`, `wythoff` and `hofstadter` bound rows x numbers per row x digits of the largest number.  At this bound
# `wythoff --from 0 --to 277000` took 1.3 s and 118 MiB, `array --rows 357000 --cols 2` 1.2 s and 109 MiB; twice
# the bound took 1.8-2.7 s and 200-216 MiB (as a process, Python 3.11, 2-vCPU host).
MAX_OUTPUT_DIGITS = 5_000_000

# The keys of verify.SUITES, in order; written here so that `--suite`
# needs no import of the oracles.
SUITE_NAMES = ("labels", "wythoff", "group", "represent", "order", "array")


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b' with integers, got {text!r}")


def _quote_big(node: dict | list) -> None:
    """Replace in place each int of node's dicts and lists past 53-bit magnitude by its decimal string."""
    for key, x in node.items() if type(node) is dict else enumerate(node):
        if type(x) is int:  # not bool
            if abs(x) >= _SAFE_MAGNITUDE:
                node[key] = str(x)
        elif type(x) is dict or type(x) is list:
            _quote_big(x)


def _check_output(numbers: int, index: int, largest, what: str) -> None:
    """Refuse a table of this many numbers past MAX_OUTPUT_DIGITS digits.

    largest() is the table's largest magnitude, with at least the digits
    of F_index.  F_m >= phi^(m-2) and phi^5 > 10, so F_m has more than
    (m-2)//5 digits: a table past the bound at that count is refused
    before largest() runs, otherwise the digits of largest() are counted.
    """
    if numbers * ((index - 2) // 5 + 1) > MAX_OUTPUT_DIGITS or numbers * len(str(abs(largest()))) > MAX_OUTPUT_DIGITS:
        raise ValueError(f"{what} pass the {MAX_OUTPUT_DIGITS}-digit output bound")


def _within(value: int, flag: str, least: int, cap: int | None = None, what: str = "") -> int:
    """value, refused below the flag's least value or past its fixed work cap, if it has one."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"{flag} {value} exceeds the {what} cap {cap}")
    return value


# name -> (help, flags, handler), in the order `fibtree --help` lists them.
# The parser, the pair-flag folding and the dispatch all read this table.
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, help_text: str, *flags: tuple[str, dict]):
    """Register the decorated handler as subcommand `name` with these flags."""

    def register(handler):
        _COMMANDS[name] = (help_text, flags, handler)
        return handler

    return register


def _ab(name: str, metavar: str = "a,b") -> tuple[str, dict]:
    """A required pair flag."""
    return name, {"type": _pair, "required": True, "metavar": metavar}


def _int(name: str, default: int | None = None, **options) -> tuple[str, dict]:
    """An integer flag, required when it has no default and options do not say otherwise."""
    return name, {"type": int, "default": default, "required": default is None, **options}


def _choice(name: str, *choices: str) -> tuple[str, dict]:
    """A flag that takes one of choices, the first by default."""
    return name, {"choices": choices, "default": choices[0]}


def _tree_levels(walk: list[LevelLabeling], w: str):
    """(level, letters, parent positions) per level: its letters are the prefix of w of its width, and the parent
    of position i is the count of u letters up to i (Hofstadter's g), summed as ints, not bools; the root has none."""
    for lv in walk:
        letters = w[: lv.hi - lv.lo + 1]
        yield lv, letters, accumulate(int(c == U) for c in letters) if lv.n else [None]


def _tree_json(t: FibTree, levels) -> dict:
    return {"id": [t.a, t.b], "levels": [
        {"level": lv.n, "lo": lv.lo, "hi": lv.hi,
         "nodes": [{"label": x, "letter": c, "parent_pos": p} for x, c, p in zip(count(lv.lo), letters, parents)]}
        for lv, letters, parents in levels
    ]}


def _tree_ascii(t: FibTree, levels) -> str:
    return "\n".join([f"tree {t}", *(f"level {lv.n}: [{lv.lo} .. {lv.hi}] {letters}" for lv, letters, _ in levels)])


def _tree_dot(t: FibTree, levels) -> str:
    nodes, edges = [], []
    for lv, letters, parents in levels:
        for i, c, p in zip(count(1), letters, parents):
            nodes.append(f'  n{lv.n}_{i} [label="{lv.lo + i - 1}", shape={"ellipse" if c == U else "triangle"}];')
            if lv.n:
                edges.append(f"  n{lv.n - 1}_{p} -> n{lv.n}_{i};")
    return "\n".join([f'digraph "{t}" {{', *nodes, *edges, "}"])


_TREE_FORMATS = {"json": _tree_json, "ascii": _tree_ascii, "dot": _tree_dot}


@_command("tree", "dump levels of one labeled tree",
          _ab("--id"), _int("--levels", 5), _choice("--format", *_TREE_FORMATS))
def _tree(args: argparse.Namespace) -> dict | str:
    # level n holds F_{n+2} nodes; a dump beyond the cap is unusable
    levels = _within(args.levels, "--levels", 0, MAX_WORD_LEVEL, "dump")
    t = FibTree(*args.id)
    # One walk for every format, each level's edges once, and one word: every level's letters are a prefix of it.
    walk = [level_interval(t, n) for n in range(levels + 1)]
    if args.format != "ascii":
        # each node a label and a position of at most the last level's width
        widths = [lv.hi - lv.lo + 1 for lv in walk]
        ends = [abs(x) for lv in walk for x in (lv.lo, lv.hi)]
        _check_output(2 * sum(widths), levels + 2, lambda: max(widths[-1], *ends), f"--levels {levels}: nodes")
    return _TREE_FORMATS[args.format](t, _tree_levels(walk, word(levels)))


@_command("array", "top-left corner of the Wythoff array",
          _int("--rows", 10), _int("--cols", 10), _choice("--format", "json", "csv"))
def _array(args: argparse.Namespace) -> dict | str:
    if args.rows >= 1 and args.cols >= 2:
        # The last entry is the largest, at least F_(cols+1); check it before building any row.
        m = u(args.rows)
        last_row = FibSeq(u(m), v(m))
        what = f"--rows {args.rows} --cols {args.cols}: entries"
        _check_output(args.rows * args.cols, args.cols + 1, lambda: last_row.term(args.cols - 1), what)
    rows = wythoff_array(args.rows, args.cols)
    if args.format == "csv":
        return "\n".join(",".join(str(x) for x in row) for row in rows)
    return {"rows": [list(row) for row in rows]}


@_command("wythoff", "table of (u, v) pairs", _int("--from", dest="start"), _int("--to", dest="end"))
def _wythoff(args: argparse.Namespace) -> dict:
    if args.start > args.end:
        raise ValueError(f"--from {args.start} exceeds --to {args.end}")
    # v is increasing, so the largest magnitude among n, u(n), v(n) is at an end of the range;
    # every number has at least the one digit of F_2.
    what = f"--from {args.start} --to {args.end}: pairs"
    _check_output(3 * (args.end - args.start + 1), 2, lambda: max(abs(v(args.start)), abs(v(args.end))), what)
    return {"pairs": [{"n": n, "u": u(n), "v": v(n)} for n in range(args.start, args.end + 1)]}


@_command("sum", "add two trees", _ab("--t1"), _ab("--t2"))
def _sum(args: argparse.Namespace) -> dict:
    from .algebra import tree_sum

    t = tree_sum(FibTree(*args.t1), FibTree(*args.t2))
    return {"id": [t.a, t.b]}


@_command("classify", "which side of the representing strip", _ab("--id"))
def _classify(args: argparse.Namespace) -> dict:
    from .represent import classify

    return {"class": classify(FibTree(*args.id)).value}


@_command("find-seq", "locate a sequence as an ascending branch",
          _ab("--id"), _ab("--seq", "c,d"), _int("--cap", required=False))
def _find_seq(args: argparse.Namespace) -> dict:
    cap = args.cap if args.cap is None else _within(args.cap, "--cap", 0)
    from .represent import find_sequence

    occ = find_sequence(FibTree(*args.id), FibSeq(*args.seq), level_cap=cap)
    return {"level": occ.level, "pos": occ.pos, "pair": list(occ.pair), "shift": occ.shift, "primitive": occ.primitive}


@_command("interval", "smallest level containing [lo..hi]", _ab("--id"), _int("--lo"), _int("--hi"))
def _interval(args: argparse.Namespace) -> dict:
    from .represent import find_interval_level

    return {"level": find_interval_level(FibTree(*args.id), args.lo, args.hi)}


@_command("subtree", "decide containment of one tree in another",
          _ab("--child", "c,d"), _ab("--parent"), _int("--cap", required=False))
def _subtree(args: argparse.Namespace) -> dict:
    cap = args.cap if args.cap is None else _within(args.cap, "--cap", 0)
    from .order import is_subtree

    witness = is_subtree(FibTree(*args.child), FibTree(*args.parent), level_cap=cap)
    if witness is not None:
        witness = {"level": witness.level, "pos": witness.pos, "word": witness.word.tokens()}
    return {"contains": witness is not None, "cap": cap, "witness": witness}


@_command("self-contain", "forward words fixing a tree", _ab("--id"), _int("--depth", 10))
def _self_contain(args: argparse.Namespace) -> dict:
    depth = _within(args.depth, "--depth", 1, MAX_SELF_CONTAIN_DEPTH, "self-containment")
    from .order import self_containment

    return {"depth": depth, "words": [w.tokens() for w in self_containment(FibTree(*args.id), depth)]}


@_command("lub", "minimal common ancestors within a depth", _ab("--t1"), _ab("--t2"), _int("--depth", 10))
def _lub(args: argparse.Namespace) -> dict:
    depth = _within(args.depth, "--depth", 1, MAX_LUB_DEPTH, "join search")
    from .order import least_upper_bound

    found = least_upper_bound(FibTree(*args.t1), FibTree(*args.t2), depth)
    return {"depth": depth, "lub": [[t.a, t.b] for t in found]}


@_command("hofstadter", "consecutive-integer region of F[1,2]", _int("--levels", 10))
def _hofstadter(args: argparse.Namespace) -> dict:
    n_max = _within(args.levels, "--levels", 0)
    # The last level's top label F_(n_max+2) is the largest; check it before building any level.
    top = n_max + 2
    _check_output(3 * (n_max + 1), top, lambda: fib(top), f"--levels {n_max}: labels")
    levels = hofstadter_levels(n_max)
    return {"levels": [{"level": n, "lo": lo, "hi": hi} for n, (lo, hi) in enumerate(levels)]}


@_command("g", "g(n) = n - g(g(n-1))", _int("--n"))
def _g(args: argparse.Namespace) -> dict:
    return {"g": hofstadter_g(args.n)}


@_command("verify", "run the property suites", _choice("--suite", "all", *SUITE_NAMES), _int("--max-level", 15))
def _verify(args: argparse.Namespace) -> dict:
    max_level = _within(args.max_level, "--max-level", 0, MAX_VERIFY_LEVEL, "verify")
    from .verify import run_suites

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    checks, failures = run_suites(names, max_level=max_level)
    return {"suites": names, "checks_run": checks, "failures": failures, "ok": not failures}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fibtree")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def _merge_pair_flags(argv: list[str]) -> list[str]:
    # argparse reads "-1,2" as an option; fold pair values into flag=value, but never a following "--flag".
    pair_flags = {flag for _, flags, _ in _COMMANDS.values() for flag, options in flags if options.get("type") is _pair}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in pair_flags and i + 1 < len(argv) and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_pair_flags(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.handler(args)
        if not isinstance(result, str):
            _quote_big(result)  # the one place the 53-bit rule is applied
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            # The interpreter refused to write a result's integer as text: name the flags that asked for it.
            flags = " ".join(flag for flag, _ in _COMMANDS[args.command][1])
            limit = sys.get_int_max_str_digits()
            exc = f"{args.command} {flags}: an integer of the result passes the {limit}-digit limit for integer text"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, str):
        print(result)
        return 0
    print(json.dumps({"tool_version": __version__, "command": args.command, "result": result}, sort_keys=True))
    return 0 if result.get("ok", True) else 3  # only verify reports "ok", false on failures


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull, as the Python
        # docs advise, so the flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
