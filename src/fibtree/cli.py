"""Command-line front end: tree dumps, table queries, searches, verification.

Every subcommand emits JSON (top-level keys tool_version, command, result,
canonically sorted); tree dumps also offer ascii and dot, the array offers
csv.  Integers beyond 53-bit magnitude are emitted as decimal strings so
downstream parsers without big integers stay safe.  Exit codes: 0 success,
1 domain error, 2 usage error, 3 verification failure.  The environment
variable FIBTREE_MAX_LEVEL, when set, is a global ceiling on every
level/depth/cap argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import tree_sum
from .fibword import letter_at, u_count
from .order import is_subtree, least_upper_bound, self_containment
from .represent import DEFAULT_LEVEL_CAP, classify, find_interval_level, find_sequence
from .tree import MAX_BUILD_LEVEL, FibTree
from .verify import SUITES, run_suites
from .warray import hofstadter_g, hofstadter_levels, wythoff_array
from .wythoff import FibSeq, u, v

_SAFE_MAGNITUDE = 1 << 53


def _j(x: int):
    """Big integers go out as decimal strings."""
    return x if -_SAFE_MAGNITUDE < x < _SAFE_MAGNITUDE else str(x)


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b' with integers, got {text!r}")


def _ceiling() -> int | None:
    raw = os.environ.get("FIBTREE_MAX_LEVEL")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FIBTREE_MAX_LEVEL must be an integer, got {raw!r}")


def _capped(value: int, what: str) -> int:
    ceiling = _ceiling()
    if ceiling is not None and value > ceiling:
        raise ValueError(f"{what} {value} exceeds FIBTREE_MAX_LEVEL={ceiling}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fibtree")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="dump levels of one labeled tree")
    p.add_argument("--id", type=_pair, required=True, metavar="a,b")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--format", choices=("json", "ascii", "dot"), default="json")

    p = sub.add_parser("array", help="top-left corner of the Wythoff array")
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("wythoff", help="table of (u, v) pairs")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)

    p = sub.add_parser("sum", help="add two trees")
    p.add_argument("--t1", type=_pair, required=True, metavar="a,b")
    p.add_argument("--t2", type=_pair, required=True, metavar="a,b")

    p = sub.add_parser("classify", help="which side of the representing strip")
    p.add_argument("--id", type=_pair, required=True, metavar="a,b")

    p = sub.add_parser("find-seq", help="locate a sequence as an ascending branch")
    p.add_argument("--id", type=_pair, required=True, metavar="a,b")
    p.add_argument("--seq", type=_pair, required=True, metavar="c,d")
    p.add_argument("--cap", type=int, default=DEFAULT_LEVEL_CAP)

    p = sub.add_parser("interval", help="smallest level containing [lo..hi]")
    p.add_argument("--id", type=_pair, required=True, metavar="a,b")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("subtree", help="decide containment of one tree in another")
    p.add_argument("--child", type=_pair, required=True, metavar="c,d")
    p.add_argument("--parent", type=_pair, required=True, metavar="a,b")
    p.add_argument("--cap", type=int, default=30)

    p = sub.add_parser("self-contain", help="forward words fixing a tree")
    p.add_argument("--id", type=_pair, required=True, metavar="a,b")
    p.add_argument("--depth", type=int, default=10)

    p = sub.add_parser("lub", help="minimal common ancestors within a depth")
    p.add_argument("--t1", type=_pair, required=True, metavar="a,b")
    p.add_argument("--t2", type=_pair, required=True, metavar="a,b")
    p.add_argument("--depth", type=int, default=10)

    p = sub.add_parser("hofstadter", help="consecutive-integer region of F[1,2]")
    p.add_argument("--levels", type=int, default=10)

    p = sub.add_parser("g", help="g(n) = n - g(g(n-1))")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument("--max-level", type=int, default=15)

    return parser


def _emit(command: str, result) -> None:
    print(json.dumps({"tool_version": __version__, "command": command, "result": result}, sort_keys=True))


def _tree_levels(t: FibTree, levels: int) -> list[dict]:
    out = []
    for n in range(levels + 1):
        nodes = [
            {
                "label": _j(t.lo(n) + i - 1),
                "letter": letter_at(i),
                "parent_pos": None if n == 0 else u_count(i),
            }
            for i in range(1, t.width(n) + 1)
        ]
        out.append({"level": n, "lo": _j(t.lo(n)), "hi": _j(t.hi(n)), "nodes": nodes})
    return out


def _tree_ascii(t: FibTree, levels: int) -> str:
    lines = [f"tree {t}"]
    for n in range(levels + 1):
        pattern = "".join(letter_at(i) for i in range(1, t.width(n) + 1))
        lines.append(f"level {n}: [{t.lo(n)} .. {t.hi(n)}] {pattern}")
    return "\n".join(lines)


def _tree_dot(t: FibTree, levels: int) -> str:
    lines = [f'digraph "{t}" {{']
    for n in range(levels + 1):
        for i in range(1, t.width(n) + 1):
            letter = letter_at(i)
            shape = "ellipse" if letter == "u" else "triangle"
            lines.append(f'  n{n}_{i} [label="{t.lo(n) + i - 1}", shape={shape}];')
    for n in range(1, levels + 1):
        for i in range(1, t.width(n) + 1):
            lines.append(f"  n{n - 1}_{u_count(i)} -> n{n}_{i};")
    lines.append("}")
    return "\n".join(lines)


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "tree":
        levels = _capped(args.levels, "--levels")
        if levels < 0:
            raise ValueError(f"level must be >= 0, got {levels}")
        if levels > MAX_BUILD_LEVEL:
            # level n holds F_{n+2} nodes; a dump beyond the cap is unusable
            raise ValueError(f"--levels {levels} exceeds the dump cap {MAX_BUILD_LEVEL}")
        t = FibTree(*args.id)
        if args.format == "ascii":
            print(_tree_ascii(t, levels))
        elif args.format == "dot":
            print(_tree_dot(t, levels))
        else:
            _emit(cmd, {"id": [_j(t.a), _j(t.b)], "levels": _tree_levels(t, levels)})
        return 0

    if cmd == "array":
        arr = wythoff_array(args.rows, args.cols)
        if args.format == "csv":
            for row in arr.rows:
                print(",".join(str(x) for x in row))
        else:
            _emit(cmd, {"rows": [[_j(x) for x in row] for row in arr.rows]})
        return 0

    if cmd == "wythoff":
        if args.start > args.end:
            raise ValueError(f"--from {args.start} exceeds --to {args.end}")
        pairs = [{"n": n, "u": _j(u(n)), "v": _j(v(n))} for n in range(args.start, args.end + 1)]
        _emit(cmd, {"pairs": pairs})
        return 0

    if cmd == "sum":
        t = tree_sum(FibTree(*args.t1), FibTree(*args.t2))
        _emit(cmd, {"id": [_j(t.a), _j(t.b)]})
        return 0

    if cmd == "classify":
        _emit(cmd, {"class": classify(FibTree(*args.id)).value})
        return 0

    if cmd == "find-seq":
        cap = _capped(args.cap, "--cap")
        occ = find_sequence(FibTree(*args.id), FibSeq(*args.seq), level_cap=cap)
        _emit(
            cmd,
            {
                "level": occ.level,
                "pos": _j(occ.pos),
                "pair": [_j(occ.pair[0]), _j(occ.pair[1])],
                "shift": occ.shift,
                "primitive": occ.primitive,
            },
        )
        return 0

    if cmd == "interval":
        level = find_interval_level(FibTree(*args.id), args.lo, args.hi)
        _emit(cmd, {"level": level})
        return 0

    if cmd == "subtree":
        cap = _capped(args.cap, "--cap")
        witness = is_subtree(FibTree(*args.child), FibTree(*args.parent), level_cap=cap)
        result = {"contains": witness is not None, "cap": cap, "witness": None}
        if witness is not None:
            result["witness"] = {
                "level": witness.level,
                "pos": _j(witness.pos),
                "word": witness.word.tokens(),
            }
        _emit(cmd, result)
        return 0

    if cmd == "self-contain":
        depth = _capped(args.depth, "--depth")
        words = self_containment(FibTree(*args.id), depth)
        _emit(cmd, {"depth": depth, "words": [w.tokens() for w in words]})
        return 0

    if cmd == "lub":
        depth = _capped(args.depth, "--depth")
        found = least_upper_bound(FibTree(*args.t1), FibTree(*args.t2), depth)
        _emit(cmd, {"depth": depth, "lub": [[_j(t.a), _j(t.b)] for t in found]})
        return 0

    if cmd == "hofstadter":
        levels = _capped(args.levels, "--levels")
        out = [{"level": n, "lo": _j(lo), "hi": _j(hi)} for n, (lo, hi) in enumerate(hofstadter_levels(levels))]
        _emit(cmd, {"levels": out})
        return 0

    if cmd == "g":
        _emit(cmd, {"g": _j(hofstadter_g(args.n))})
        return 0

    if cmd == "verify":
        max_level = _capped(args.max_level, "--max-level")
        names = list(SUITES) if args.suite == "all" else [args.suite]
        checks, failures = run_suites(names, max_level=max_level)
        _emit(
            cmd,
            {
                "suites": names,
                "checks_run": checks,
                "failures": failures,
                "ok": not failures,
            },
        )
        return 3 if failures else 0

    raise ValueError(f"unknown command {cmd!r}")  # unreachable: argparse validates


_PAIR_FLAGS = {"--id", "--t1", "--t2", "--seq", "--child", "--parent"}


def _merge_pair_flags(argv: list[str]) -> list[str]:
    # argparse reads "-1,2" as an option; fold pair values into flag=value.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _PAIR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
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
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
