import json
import os
import pathlib
import subprocess
import sys

import pytest

import fibtree.tree
from fibtree.cli import run
from fibtree.represent import find_interval_level, find_sequence
from fibtree.tree import FibTree
from fibtree.wythoff import FibSeq
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


def test_env_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("FIBTREE_MAX_LEVEL", "3")
    code = run(["tree", "--id", "0,1", "--levels", "9"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FIBTREE_MAX_LEVEL" in captured.err
    assert run(["tree", "--id", "0,1", "--levels", "3"]) == 0
    capsys.readouterr()


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
    assert captured.err == "error: level must be >= 0, got -3\n"
