"""Stated budgets, asserted: the worst argv inside a bound runs as a process.

Each row runs `python -m fibtree` as a child process under an address-space
limit (set in the child only) and a timeout, asserts exit 0 and the size of
its output, and asserts that the first argv past the bound exits 1 with one
line on stderr.  A JSON output's size counts the envelope's `tool_version`,
so a version string of another length moves it by the difference.
"""

import os
import pathlib
import resource
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 512 * 2**20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _fibtree(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fibtree", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=_limit_address_space,
        timeout=timeout,
    )


@pytest.mark.parametrize("fmt, size", [("json", 17_077_037), ("dot", 22_139_659)])
def test_tree_dump_at_its_bound(fmt, size):
    # --levels 24: 317,808 nodes of F[0,1], about 130 MiB (json) and 100 MiB (dot) peak RSS
    proc = _fibtree("tree", "--id", "0,1", "--levels", "24", "--format", fmt)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout) == size
    proc = _fibtree("tree", "--id", "0,1", "--levels", "25", "--format", fmt)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode().count("\n") == 1 and proc.stderr.startswith(b"error: --levels 25: nodes")


# `lub` with 4,000-digit labels at --depth 16 has no row: the conjugate-gap certificate decides
# F[10^3999+100,-37], F[-50,10^3999+90] in about 0.1 s, but undecided pairs still run the 2^depth
# search: F[u(k), v(k)], F[-50,90] with k = 10^3999 misses in 1.5 s at a 504 MiB peak. It waits for
# a size check (ROADMAP item 4).
@pytest.mark.parametrize(
    "argv, size, past, err, timeout",
    [
        # 2,001,000 atoms in the words of F[1,2] at the depth cap: about 68 MiB peak RSS
        ("self-contain --id 1,2 --depth 2000", 10_009_092, "self-contain --id 1,2 --depth 2001", "error: --depth 2001", 60),
        # 8,469 numbers of at most 590 digits, 4,996,710 by the output bound's count: about 23 MiB
        ("hofstadter --levels 2822", 1_770_628, "hofstadter --levels 2823", "error: --levels 2823: labels", 60),
        # a miss at the join search's depth cap, decided by the conjugate-gap certificate before any radius:
        # about 0.1 s and 16 MiB peak RSS
        (
            "lub --t1 100,-37 --t2 -50,90 --depth 16",
            81,
            "lub --t1 100,-37 --t2 -50,90 --depth 17",
            "error: --depth 17 exceeds the join search cap 16\n",
            60,
        ),
        # a miss the certificate leaves open: the search runs all 16 radii, about 0.3 s and 60 MiB peak RSS
        (
            "lub --t1 13,104 --t2 104,117 --depth 16",
            81,
            "lub --t1 13,104 --t2 104,117 --depth 17",
            "error: --depth 17 exceeds the join search cap 16\n",
            60,
        ),
        # the pair table and the array at the output bound: about 0.6 s and at most 117 MiB peak RSS each
        (
            "wythoff --from 0 --to 277776",
            11_166_706,
            "wythoff --from 0 --to 277777",
            "error: --from 0 --to 277777: pairs pass",
            10,
        ),
        (
            "array --rows 357142 --cols 2",
            6_481_030,
            "array --rows 357143 --cols 2",
            "error: --rows 357143 --cols 2: entries pass",
            10,
        ),
    ],
    ids=["self-contain", "hofstadter", "lub", "lub-search", "wythoff", "array"],
)
def test_argv_at_its_bound(argv, size, past, err, timeout):
    proc = _fibtree(*argv.split(), timeout=timeout)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout) == size
    proc = _fibtree(*past.split())
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode().count("\n") == 1 and proc.stderr.decode().startswith(err)
