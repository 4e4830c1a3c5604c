"""Every argv built from the CLI's own table exits 0, 1, 2 or 3, fast.

The test runs once per subcommand of `cli._COMMANDS`, and Hypothesis draws
`DRAWS` argvs for each, so every subcommand gets the same share whatever
the strategies look like.  It draws a value for each flag and leaves
each optional flag out half the time, so `subtree` and `find-seq` also
run with no `--cap`, where the scans decide.  Every pair flag draws
small integers or 4,000-digit ones, or a tree F[1 - u(b), b] of the
representing strip with a 4,000-digit b, where `subtree` and `find-seq`
scan past thousands of levels in range before a small guest can sit;
one pair in ten is malformed (exit 2).  Each flag that sizes
levels, depths, rows or columns is drawn from a cheap range below its
cap or from above the cap, where the command must refuse before any
work.  Every table is refused past one output bound, decided from its
sizes: `array --cols` and `hofstadter --levels` past
`INDEX_PAST_BOUND` pass it by the index of their largest value alone,
`array --rows` and the `wythoff` range are drawn small (at most 6 rows,
at most 31 ranks) or with so many rows that the table would pass it even
with one digit per number, and `tree --levels` is also drawn from 25 to
30, where the json and dot dumps pass it.  `verify` runs only the
`group` suite or with a `--max-level` past its cap.  No drawn value asks
for work without a bound.  Each argv must finish within 5 s, and each
JSON output may hold no bare integer past 53-bit magnitude.
"""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibtree import cli
from fibtree.wythoff import u

DRAWS = 20  # argvs per subcommand

# Past it, cols * ((cols - 1)//5 + 1) and 3 * (levels + 1) * (levels//5 + 1) pass the output bound.
INDEX_PAST_BOUND = math.isqrt(5 * cli.MAX_OUTPUT_DIGITS)

SMALL = st.integers(-20, 20)
HUGE = st.sampled_from([10**3999 + 12345, -(10**3999) - 678, 3 * 10**3999 + 1, -7 * 10**3999])
VALUE = st.one_of(SMALL, SMALL, SMALL, HUGE)
STRIP_TREES = [(1 - u(b), b) for b in (10**3999 + 7, 10**3999 + 12345)]
VALUES, STRIP = st.tuples(VALUE, VALUE), st.sampled_from(STRIP_TREES)
PAIR = st.one_of(VALUES, VALUES, VALUES, STRIP).map(lambda p: f"{p[0]},{p[1]}")
# `find-seq` and `subtree` scans cost the bit length of their inputs, whatever the cap
SCAN_CAP = st.one_of(st.integers(-2, 100), st.integers(0, 10**12), st.just(10**3999))


def _sizing(cheap_max: int, cap: int) -> st.SearchStrategy[int]:
    """A cheap value below the cap, or one above it."""
    return st.one_of(st.integers(-2, cheap_max), st.integers(cap + 1, 10**12), st.just(10**3999))


SIZING = {
    ("tree", "--levels"): st.one_of(_sizing(6, cli.MAX_WORD_LEVEL), st.integers(25, 30)),
    ("array", "--rows"): _sizing(6, cli.MAX_OUTPUT_DIGITS // 2),  # at least 2 columns
    ("array", "--cols"): _sizing(12, INDEX_PAST_BOUND),
    ("self-contain", "--depth"): _sizing(60, cli.MAX_SELF_CONTAIN_DEPTH),
    ("lub", "--depth"): _sizing(6, cli.MAX_LUB_DEPTH),
    ("hofstadter", "--levels"): _sizing(60, INDEX_PAST_BOUND),
    ("verify", "--max-level"): _sizing(cli.MAX_VERIFY_LEVEL, cli.MAX_VERIFY_LEVEL),
}
OVER_VERIFY_CAP = st.integers(cli.MAX_VERIFY_LEVEL + 1, 10**12)
PAST_BOUND_RANKS = st.one_of(st.integers(cli.MAX_OUTPUT_DIGITS // 3, 10**12), st.just(10**3999))


@st.composite
def argvs(draw, name: str) -> list[str]:
    _, flags, _ = cli._COMMANDS[name]
    values = {}
    for flag, options in flags:
        if not options.get("required") and draw(st.booleans()):
            continue  # leave the flag out
        if options.get("type") is cli._pair:
            values[flag] = "1;2" if draw(st.integers(0, 9)) == 0 else draw(PAIR)
        elif "choices" in options:
            values[flag] = draw(st.sampled_from(options["choices"]))
        elif flag == "--cap":
            values[flag] = str(draw(SCAN_CAP))
        elif (name, flag) in SIZING:
            values[flag] = str(draw(SIZING[name, flag]))
        elif (name, flag) == ("wythoff", "--to"):
            # at most 31 ranks from --from, or so many that 3 one-digit numbers a rank pass the output bound
            values[flag] = str(int(values["--from"]) + draw(st.one_of(st.integers(-3, 30), PAST_BOUND_RANKS)))
        else:
            values[flag] = str(draw(st.one_of(VALUE, st.integers(-(10**12), 10**12))))
    if name == "verify" and values.get("--suite") != "group":
        values["--max-level"] = str(draw(OVER_VERIFY_CAP))
    return [name, *(x for item in values.items() for x in item)]


# Run besides the draws: tree --levels 25..30 is one draw in six at best; one dump past the bound
# and one outside it always run, and so do the deep hits in a strip tree.
FIXED = {
    "tree": [
        ["tree", "--id", "0,1", "--levels", "25", "--format", "json"],
        ["tree", "--id", f"{10**3999 + 12345},{-7 * 10**3999}", "--levels", "30", "--format", "ascii"],
    ],
    # witnesses at levels 19,139 and 19,141, found with no cap
    "subtree": [["subtree", "--child", "5,8", "--parent", "{},{}".format(*STRIP_TREES[0])]],
    "find-seq": [["find-seq", "--id", "{},{}".format(*STRIP_TREES[0]), "--seq", "5,8"]],
}


def _safe_int(text: str) -> int:
    """A JSON integer, which must lie within 53-bit magnitude: larger ones go out as decimal strings."""
    assert abs(int(text)) < 1 << 53, f"bare JSON integer {text[:40]} past 53-bit magnitude"
    return int(text)


def _exits_cleanly(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
    if code == 0 and dict(zip(argv[1::2], argv[2::2])).get("--format", "json") == "json":
        json.loads(out.getvalue(), parse_int=_safe_int)
    assert elapsed < 5, f"{argv} took {elapsed:.1f} s"


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_every_drawn_argv_exits_cleanly(name):
    drawn = []

    @settings(derandomize=True, database=None, max_examples=DRAWS, deadline=None)
    @given(argvs(name))
    def case(argv):
        drawn.append(argv)
        _exits_cleanly(argv)

    case()
    assert len(drawn) >= DRAWS
    for argv in FIXED.get(name, []):
        _exits_cleanly(argv)
