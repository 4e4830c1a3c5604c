import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import time

import pytest

import fibtree.tree
from fibtree.cli import run
from fibtree.represent import find_interval_level, find_sequence
from fibtree.tree import FibTree
from fibtree.wythoff import FibSeq, u
from test_warray import g_decimal_oracle


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def test_classify_json(capsys):
    code, out = run_json(capsys, ["classify", "--id", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"class": "RepresentsZ"}
    assert doc["command"] == "classify"
    assert doc["tool_version"]


def test_json_round_trips_byte_identically(capsys):
    for argv in (
        ["classify", "--id", "0,1"],
        ["wythoff", "--from", "-3", "--to", "3"],
        ["find-seq", "--id", "0,1", "--seq", "2,1"],
        ["hofstadter", "--levels", "6"],
        ["tree", "--id", "0,1", "--levels", "4"],
        ["subtree", "--child", "1,2", "--parent", "0,1"],
    ):
        code, out = run_json(capsys, argv)
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out


def test_lub_known_join(capsys):
    code, out = run_json(capsys, ["lub", "--t1", "-1,2", "--t2", "-3,5", "--depth", "4"])
    assert code == 0
    assert json.loads(out)["result"]["lub"] == [[18, -10]]


def test_g_base_case(capsys):
    code, out = run_json(capsys, ["g", "--n", "0"])
    assert code == 0
    assert json.loads(out)["result"] == {"g": 0}


def test_sum_and_interval(capsys):
    code, out = run_json(capsys, ["sum", "--t1", "0,1", "--t2", "1,1"])
    assert code == 0
    assert json.loads(out)["result"]["id"] == [1, 2]
    code, out = run_json(capsys, ["interval", "--id", "0,1", "--lo", "-7", "--hi", "5"])
    assert code == 0
    assert json.loads(out)["result"]["level"] == 5


def test_tree_ascii(capsys):
    code, out = run_json(capsys, ["tree", "--id", "0,1", "--levels", "2", "--format", "ascii"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tree F[0,1]"
    assert lines[1] == "level 0: [0 .. 0] u"
    assert lines[3] == "level 2: [-1 .. 1] uvu"


def test_tree_dot(capsys):
    code, out = run_json(capsys, ["tree", "--id", "0,1", "--levels", "2", "--format", "dot"])
    assert code == 0
    assert out.startswith('digraph "F[0,1]" {')
    assert 'n1_2 [label="1", shape=triangle];' in out
    assert "n0_1 -> n1_2;" in out
    assert "n1_2 -> n2_3;" in out
    assert out.endswith("}")


def test_tree_json_parent_positions(capsys):
    code, out = run_json(capsys, ["tree", "--id", "1,2", "--levels", "3"])
    doc = json.loads(out)
    level3 = doc["result"]["levels"][3]
    assert level3["lo"] == 1 and level3["hi"] == 5
    assert [n["parent_pos"] for n in level3["nodes"]] == [1, 1, 2, 3, 3]


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_tree_dump_reads_one_word_and_no_beatty_floor(count_calls, capsys, fmt):
    # every level's letters and parent positions come off word(levels): no u or u_count call,
    # counted in each fibtree module that binds them
    calls = count_calls("u", "u_count", "word")
    code = run(["tree", "--id", "3,-5", "--levels", "20", "--format", fmt])
    capsys.readouterr()
    assert code == 0
    assert [name for name, _ in calls] == ["word"]


def test_big_labels_become_strings(capsys):
    huge = 2**60
    code, out = run_json(capsys, ["tree", "--id", f"{huge},1", "--levels", "1"])
    assert code == 0
    doc = json.loads(out)
    root = doc["result"]["levels"][0]
    assert isinstance(root["hi"], str) and int(root["hi"]) == huge
    assert root["nodes"][0]["label"] == str(huge)
    code, out = run_json(capsys, ["tree", "--id", "0,1", "--levels", "3"])
    assert isinstance(json.loads(out)["result"]["levels"][3]["hi"], int)


def test_tree_dump_cap(capsys):
    code = run(["tree", "--id", "0,1", "--levels", "90"])
    captured = capsys.readouterr()
    assert code == 1
    assert "dump cap" in captured.err


def test_array_csv(capsys):
    code, out = run_json(capsys, ["array", "--rows", "2", "--cols", "5", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["1,2,3,5,8", "4,7,11,18,29"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_array_past_the_digit_limit_exits_1(capsys, fmt):
    # row 2 reaches 4,301 digits at column 20,574, one past the interpreter's default limit; the output bound
    # refuses the table first
    code = run(["array", "--rows", "2", "--cols", "20575", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--rows" in captured.err and "--cols" in captured.err


def test_hofstadter_past_the_digit_limit_exits_1(capsys):
    # level 20,576 tops out at F_20578, the first label with 4,301 digits; the output bound refuses the table first
    code = run(["hofstadter", "--levels", "20576"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--levels 20576" in captured.err


PAST_THE_INDEX = [["hofstadter", "--levels", "1000000000"], ["array", "--rows", "1", "--cols", "1000000000"]]


@pytest.mark.parametrize("argv", PAST_THE_INDEX)
def test_digit_limit_decided_from_the_index(monkeypatch, capsys, argv):
    # F_m has more than (m-2)//5 digits, so the index alone passes the output bound: no value is computed,
    # whatever the interpreter's digit limit for integer text (0 lifts it, 640 is its least value)
    import fibtree.cli

    calls = []
    fib = fibtree.cli.fib
    term = FibSeq.term
    monkeypatch.setattr(fibtree.cli, "fib", lambda n: calls.append(n) or fib(n))
    monkeypatch.setattr(FibSeq, "term", lambda self, n: calls.append(n) or term(self, n))
    old = sys.get_int_max_str_digits()
    try:
        for limit in (0, 640, sys.int_info.default_max_str_digits):
            sys.set_int_max_str_digits(limit)
            start = time.perf_counter()
            code = run(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.endswith("-digit output bound\n")
            assert elapsed < 1
    finally:
        sys.set_int_max_str_digits(old)
    assert calls == []
    for within in (["hofstadter", "--levels", "3"], ["array", "--rows", "1", "--cols", "3"]):
        calls.clear()
        assert run(within) == 0 and calls  # the wrappers see the largest value of a table within the bound


# Without the output bound each printed 7-125 MB; `tree --levels 25` wrote 28 MB in 2.1 s at 201 MiB,
# each further level about phi times more, and `tree --id 10^3999,1 --levels 12` 4 MB.
PAST_THE_OUTPUT_BOUND = [
    ["array", "--rows", "400000", "--cols", "2"],
    ["array", "--rows", "3", "--cols", "20000", "--format", "csv"],
    ["wythoff", "--from", "0", "--to", "300000"],
    ["hofstadter", "--levels", "20575"],
    ["tree", "--id", "0,1", "--levels", "25"],
    ["tree", "--id", "0,1", "--levels", "30", "--format", "dot"],
    ["tree", "--id", f"{10**3999},1", "--levels", "12"],
]


@pytest.mark.parametrize("argv", PAST_THE_OUTPUT_BOUND)
def test_table_past_the_output_bound_exits_1(capsys, argv):
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "-digit output bound" in captured.err
    assert elapsed < 1


# Inputs of 4,300 digits, inside the interpreter's limit for integer text, whose results pass it.
_N = str(9 * 10**4299)


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["wythoff", "--from", _N, "--to", _N], "wythoff --from --to"),
        (["sum", "--t1", f"{_N},1", "--t2", f"{_N},1"], "sum --t1 --t2"),
        # a generic 4,000-digit seed: its row start has about twice its digits
        (["find-seq", "--id", "0,1", "--seq", f"{3 * 10**3999 + 11},{-(7 * 10**3999 + 5)}"], "find-seq --id --seq --cap"),
    ],
)
def test_result_past_the_integer_text_limit_names_the_flags(capsys, argv, flags):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: {flags}: an integer of the result passes the {limit}-digit limit for integer text\n"


@pytest.mark.parametrize(
    "argv,size",
    [
        (["array", "--rows", "2", "--cols", "5"], 2 * 5 * 2),  # largest entry 29
        (["wythoff", "--from", "-2", "--to", "2"], 5 * 3 * 1),  # largest magnitude |v(-2)| = 6
        (["hofstadter", "--levels", "4"], 5 * 3 * 1),  # largest label 8
        (["tree", "--id", "100,1", "--levels", "3", "--format", "dot"], 11 * 2 * 3),  # 11 nodes, largest label 102
    ],
)
def test_output_bound_counts_rows_numbers_and_digits(monkeypatch, capsys, argv, size):
    import fibtree.cli

    monkeypatch.setattr(fibtree.cli, "MAX_OUTPUT_DIGITS", size)
    assert run(argv) == 0
    monkeypatch.setattr(fibtree.cli, "MAX_OUTPUT_DIGITS", size - 1)
    assert run(argv) == 1
    assert capsys.readouterr().err.endswith(f"pass the {size - 1}-digit output bound\n")


def test_self_contain_depth_cap(monkeypatch, capsys):
    import fibtree.cli
    import fibtree.order

    assert fibtree.cli.MAX_SELF_CONTAIN_DEPTH == 2000
    code, out = run_json(capsys, ["self-contain", "--id", "1,2", "--depth", "2000"])
    assert code == 0 and len(json.loads(out)["result"]["words"]) == 2000

    def unreachable(*args):
        raise AssertionError("self_containment ran past its cap")

    monkeypatch.setattr(fibtree.order, "self_containment", unreachable)
    code = run(["self-contain", "--id", "1,2", "--depth", "2001"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --depth 2001 exceeds the self-containment cap 2000\n"


def test_verify_max_level_cap(monkeypatch, capsys):
    import fibtree.cli
    import fibtree.verify

    assert fibtree.cli.MAX_VERIFY_LEVEL == 20
    # The level-20 build itself runs in the table test of test_acceptance.py.
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return 2, []

    monkeypatch.setattr(fibtree.verify, "run_suites", stub)
    code, out = run_json(capsys, ["verify", "--suite", "labels", "--max-level", "20"])
    assert code == 0 and json.loads(out)["result"]["ok"] is True
    assert calls == [((["labels"],), {"max_level": 20})]

    def unreachable(*args, **kwargs):
        raise AssertionError("the suites ran past their cap")

    monkeypatch.setattr(fibtree.verify, "run_suites", unreachable)
    code = run(["verify", "--suite", "labels", "--max-level", "21"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --max-level 21 exceeds the verify cap 20\n"


@pytest.mark.parametrize("suite", ["labels", "group"])
def test_verify_negative_max_level_names_the_flag(monkeypatch, capsys, suite):
    # refused before the oracles load: `group` never reads the level, `labels` would fail inside word()
    monkeypatch.delitem(sys.modules, "fibtree.verify", raising=False)
    code = run(["verify", "--suite", suite, "--max-level", "-3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --max-level must be >= 0, got -3\n"
    assert "fibtree.verify" not in sys.modules


def test_lub_depth_cap(monkeypatch, capsys):
    import fibtree.cli
    import fibtree.order

    assert fibtree.cli.MAX_LUB_DEPTH <= 18
    t = ["--t1", "4,-3", "--t2", "4,-3"]
    code, out = run_json(capsys, ["lub", *t, "--depth", str(fibtree.cli.MAX_LUB_DEPTH)])
    assert code == 0 and json.loads(out)["result"]["lub"] == [[4, -3]]

    def unreachable(*args):
        raise AssertionError("the join search ran past its cap")

    monkeypatch.setattr(fibtree.order, "least_upper_bound", unreachable)
    code = run(["lub", *t, "--depth", str(fibtree.cli.MAX_LUB_DEPTH + 1)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "join search cap" in captured.err


def test_wythoff_table(capsys):
    code, out = run_json(capsys, ["wythoff", "--from", "0", "--to", "1"])
    assert json.loads(out)["result"]["pairs"] == [
        {"n": 0, "u": -1, "v": -1},
        {"n": 1, "u": 1, "v": 2},
    ]


def test_self_contain(capsys):
    code, out = run_json(capsys, ["self-contain", "--id", "1,2", "--depth", "2"])
    assert json.loads(out)["result"]["words"] == [["L"], ["L", "L"]]


def test_domain_error_exits_1(capsys):
    code = run(["find-seq", "--id", "0,0", "--seq", "0,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_usage_errors_exit_2(capsys):
    assert run(["bogus"]) == 2
    assert run(["classify", "--id", "zebra"]) == 2
    assert run(["classify", "--unknown-flag", "1"]) == 2
    capsys.readouterr()


def test_pair_flag_does_not_take_the_next_flag_as_its_value(capsys):
    # "-1,2" is folded into its pair flag; "--t2" is a flag of its own, so --t1 has no value
    assert run(["sum", "--t1", "--t2", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --t1: expected one argument" in captured.err


def test_verify_suite_passes(capsys):
    code, out = run_json(capsys, ["verify", "--suite", "labels", "--max-level", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["ok"] is True
    assert doc["result"]["failures"] == []


def test_verify_catches_broken_interval_formula(monkeypatch, capsys):
    # poison the closed form; the rule-built oracle must disagree -> exit 3
    true_lo = fibtree.tree.FibTree.lo

    def skewed(self, n):
        return true_lo(self, n) + (1 if n == 5 else 0)

    monkeypatch.setattr(fibtree.tree.FibTree, "lo", skewed)
    code, out = run_json(capsys, ["verify", "--suite", "labels", "--max-level", "8"])
    assert code == 3
    doc = json.loads(out)
    assert doc["result"]["ok"] is False
    assert doc["result"]["failures"]


def test_verify_rejects_unknown_suite(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()


def test_module_invocation_in_a_subprocess():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "fibtree", "classify", "--id", "1,2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["class"] == "PositiveSide"


def test_closed_pipe_exits_without_traceback():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # megabytes of JSON: the writer is still blocked on the pipe when it closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibtree", "self-contain", "--id", "1,2", "--depth", "1200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{"command"'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_find_seq_with_201_digit_seed(capsys):
    c, d = 10**200 + 12345, -(10**200) - 678
    code, out = run_json(capsys, ["find-seq", "--id", "0,1", "--seq", f"{c},{d}", "--cap", "5000"])
    assert code == 0
    occ = find_sequence(FibTree(0, 1), FibSeq(c, d), level_cap=5000)
    assert json.loads(out)["result"] == {
        "level": occ.level,
        "pos": str(occ.pos),
        "pair": [str(occ.pair[0]), str(occ.pair[1])],
        "shift": occ.shift,
        "primitive": True,
    }


def test_interval_past_level_ten_thousand(capsys):
    bound = 10**2200
    code, out = run_json(capsys, ["interval", "--id", "0,1", "--lo", str(-bound), "--hi", str(bound)])
    assert code == 0
    assert json.loads(out)["result"] == {"level": find_interval_level(FibTree(0, 1), -bound, bound)}


def test_g_of_a_thirty_digit_n(capsys):
    code, out = run_json(capsys, ["g", "--n", str(10**30)])
    assert code == 0
    assert json.loads(out)["result"] == {"g": str(g_decimal_oracle(10**30))}


@pytest.mark.parametrize("fmt", ["json", "ascii", "dot"])
def test_tree_rejects_negative_levels(capsys, fmt):
    code = run(["tree", "--id", "0,1", "--levels", "-3", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --levels must be >= 0, got -3\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        ("subtree --child 0,1 --parent 0,1 --cap -1", "--cap must be >= 0, got -1"),
        ("find-seq --id 0,1 --seq 5,8 --cap -1", "--cap must be >= 0, got -1"),
        ("lub --t1 -1,2 --t2 -3,5 --depth 0", "--depth must be >= 1, got 0"),
        ("self-contain --id 1,2 --depth -1", "--depth must be >= 1, got -1"),
        ("hofstadter --levels -1", "--levels must be >= 0, got -1"),
    ],
)
def test_sizing_flag_below_its_least_value_names_the_flag(capsys, argv, err):
    code = run(argv.split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_searches_decide_with_no_cap(capsys):
    # a small guest of the strip tree F[1 - u(b), b] sits about log_phi(b) levels down, past any fixed default cap
    b = 10**18 + 7
    host = f"{1 - u(b)},{b}"
    code, out = run_json(capsys, ["subtree", "--child", "5,8", "--parent", host])
    result = json.loads(out)["result"]
    assert code == 0 and result["contains"] and result["cap"] is None and result["witness"]["level"] == 91
    code, out = run_json(capsys, ["find-seq", "--id", host, "--seq", "5,8"])
    assert code == 0 and json.loads(out)["result"]["level"] == 93


# Full stdout of one argv per subcommand, per tree format and per array
# format, pinned byte for byte; only tool_version is masked.  A rank and a
# cap past 2^53 go out as decimal strings, like every other integer field.
PINNED = [
    (
        "tree --id -1,2 --levels 2",
        0,
        '{"command": "tree", "result": {"id": [-1, 2], "levels": [{"hi": -1, "level": 0, "lo": -1, "nodes": [{"label": -1, "letter": "u", "parent_pos": null}]}, {"hi": 2, "level": 1, "lo": 1, "nodes": [{"label": 1, "letter": "u", "parent_pos": 1}, {"label": 2, "letter": "v", "parent_pos": 1}]}, {"hi": 1, "level": 2, "lo": -1, "nodes": [{"label": -1, "letter": "u", "parent_pos": 1}, {"label": 0, "letter": "v", "parent_pos": 1}, {"label": 1, "letter": "u", "parent_pos": 2}]}]}, "tool_version": "*"}\n',
    ),
    (
        "tree --id -1,2 --levels 3 --format ascii",
        0,
        """\
tree F[-1,2]
level 0: [-1 .. -1] u
level 1: [1 .. 2] uv
level 2: [-1 .. 1] uvu
level 3: [-1 .. 3] uvuuv
""",
    ),
    (
        "tree --id 0,1 --levels 2 --format dot",
        0,
        """\
digraph "F[0,1]" {
  n0_1 [label="0", shape=ellipse];
  n1_1 [label="0", shape=ellipse];
  n1_2 [label="1", shape=triangle];
  n2_1 [label="-1", shape=ellipse];
  n2_2 [label="0", shape=triangle];
  n2_3 [label="1", shape=ellipse];
  n0_1 -> n1_1;
  n0_1 -> n1_2;
  n1_1 -> n2_1;
  n1_1 -> n2_2;
  n1_2 -> n2_3;
}
""",
    ),
    (
        "array --rows 2 --cols 4",
        0,
        '{"command": "array", "result": {"rows": [[1, 2, 3, 5], [4, 7, 11, 18]]}, "tool_version": "*"}\n',
    ),
    (
        "array --rows 3 --cols 5 --format csv",
        0,
        """\
1,2,3,5,8
4,7,11,18,29
6,10,16,26,42
""",
    ),
    (
        "wythoff --from -2 --to 2",
        0,
        '{"command": "wythoff", "result": {"pairs": [{"n": -2, "u": -4, "v": -6}, {"n": -1, "u": -2, "v": -3}, {"n": 0, "u": -1, "v": -1}, {"n": 1, "u": 1, "v": 2}, {"n": 2, "u": 3, "v": 5}]}, "tool_version": "*"}\n',
    ),
    (
        "wythoff --from 9007199254740993 --to 9007199254740993",
        0,
        '{"command": "wythoff", "result": {"pairs": [{"n": "9007199254740993", "u": "14573954537613649", "v": "23581153792354642"}]}, "tool_version": "*"}\n',
    ),
    (
        "sum --t1 0,1 --t2 -1,2",
        0,
        '{"command": "sum", "result": {"id": [-1, 3]}, "tool_version": "*"}\n',
    ),
    (
        "classify --id -3,5",
        0,
        '{"command": "classify", "result": {"class": "PositiveSide"}, "tool_version": "*"}\n',
    ),
    (
        "find-seq --id 0,1 --seq 2,1",
        0,
        '{"command": "find-seq", "result": {"level": 5, "pair": [4, 7], "pos": 12, "primitive": true, "shift": 3}, "tool_version": "*"}\n',
    ),
    (
        "interval --id 0,1 --lo -7 --hi 5",
        0,
        '{"command": "interval", "result": {"level": 5}, "tool_version": "*"}\n',
    ),
    (
        "subtree --child 1,2 --parent 0,1",
        0,
        '{"command": "subtree", "result": {"cap": null, "contains": true, "witness": {"level": 2, "pos": 3, "word": ["R"]}}, "tool_version": "*"}\n',
    ),
    (
        "subtree --child 5,8 --parent 0,1 --cap 9007199254740993",
        0,
        '{"command": "subtree", "result": {"cap": "9007199254740993", "contains": false, "witness": null}, "tool_version": "*"}\n',
    ),
    (
        "self-contain --id 1,2 --depth 2",
        0,
        '{"command": "self-contain", "result": {"depth": 2, "words": [["L"], ["L", "L"]]}, "tool_version": "*"}\n',
    ),
    (
        "lub --t1 -1,2 --t2 -3,5 --depth 4",
        0,
        '{"command": "lub", "result": {"depth": 4, "lub": [[18, -10]]}, "tool_version": "*"}\n',
    ),
    (
        "hofstadter --levels 4",
        0,
        '{"command": "hofstadter", "result": {"levels": [{"hi": 1, "level": 0, "lo": 1}, {"hi": 2, "level": 1, "lo": 2}, {"hi": 3, "level": 2, "lo": 3}, {"hi": 5, "level": 3, "lo": 4}, {"hi": 8, "level": 4, "lo": 6}]}, "tool_version": "*"}\n',
    ),
    (
        "g --n 10",
        0,
        '{"command": "g", "result": {"g": 6}, "tool_version": "*"}\n',
    ),
    (
        "verify --suite group",
        0,
        '{"command": "verify", "result": {"checks_run": 2, "failures": [], "ok": true, "suites": ["group"]}, "tool_version": "*"}\n',
    ),
]


@pytest.mark.parametrize("argv, code, stdout", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_output(capsys, argv, code, stdout):
    assert run(argv.split()) == code
    captured = capsys.readouterr()
    assert re.sub(r'"tool_version": "[^"]*"', '"tool_version": "*"', captured.out) == stdout
    assert captured.err == ""


def test_oracles_load_only_for_verify():
    # Each subcommand loads only the modules its handler calls: `g` none of these, `classify` only
    # `represent`, `verify` the oracles.  Run under -S, so that no site hook loads any of them first.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = textwrap.dedent(
        """
        import contextlib, io, sys
        import fibtree.cli
        LAZY = ["dataclasses", "decimal", "fibtree.algebra", "fibtree.order", "fibtree.represent", "fibtree.verify"]
        for argv in (["g", "--n", "5"], ["classify", "--id", "0,1"], ["verify", "--suite", "group"]):
            with contextlib.redirect_stdout(io.StringIO()):
                print(fibtree.cli.run(argv), file=sys.stderr)
            print(*[m for m in LAZY if m in sys.modules])
        """
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "0\n0\n0\n")
    assert proc.stdout.splitlines() == [
        "",
        "fibtree.represent",
        "decimal fibtree.algebra fibtree.order fibtree.represent fibtree.verify",
    ]


def test_suite_choices_match_verify():
    from fibtree import cli, verify

    assert cli.SUITE_NAMES == tuple(verify.SUITES)
