"""The four seeded workloads: their inputs, the calls that run them, and their checks.

Each op-list workload draws a list with an exact mix per seed (every
seed gets the same number of calls of each kind and size, only the
values differ), so two seeds do the same amount of work.  The list is
made of timed units: one call each in `searches`, one round of calls in
`queries`.  The timed pass runs whole passes over the list until the
time is up; every result is then checked: the first pass's results
through an independent route from `oracles`, later passes by equality
with the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from array import array
from time import perf_counter, perf_counter_ns

from fibtree import algebra, cli, fibword, goldring, order, represent, tree, verify, warray, wythoff
from fibtree.goldring import GoldInt
from fibtree.tree import FibTree, NodeRef
from fibtree.wythoff import FibSeq

import oracles as O

SMALL_BITS = 63
BIG_DIGITS = 1000
HUGE_DIGITS = 10_000
# Levels whose labels have about 1000 and 10^4 digits: F_n has ~0.209 n digits.
BIG_LEVEL = 4785
HUGE_LEVEL = 47_850


class Raised:
    """An exception caught from a call, comparable by type and message."""

    def __init__(self, exc: BaseException) -> None:
        self.type = type(exc).__name__
        self.msg = str(exc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and (self.type, self.msg) == (other.type, other.msg)

    def __repr__(self) -> str:
        return f"{self.type}: {self.msg[:120]}"


def _signed(rng: random.Random, bits: int) -> int:
    x = rng.getrandbits(bits) | 1
    return x if rng.random() < 0.5 else -x


def _digits_int(rng: random.Random, digits: int) -> int:
    """A random positive integer with exactly `digits` decimal digits."""
    return rng.randrange(10 ** (digits - 1), 10**digits)


def _ints(rng: random.Random, size: str) -> int:
    if size == "small":
        return _signed(rng, SMALL_BITS)
    digits = BIG_DIGITS if size == "big" else HUGE_DIGITS
    x = _digits_int(rng, digits)
    return x if rng.random() < 0.5 else -x


def _index(rng: random.Random, size: str) -> int:
    """A Fibonacci index whose F_n has <= 64 bits, ~10^3 or ~10^4 digits."""
    if size == "small":
        return rng.randint(-92, 92)
    base = BIG_LEVEL if size == "big" else HUGE_LEVEL
    n = rng.randint(base - 100, base + 100)
    return n if rng.random() < 0.5 else -n


def _level(rng: random.Random, size: str, low: int = 0) -> int:
    if size == "small":
        return rng.randint(low, 85)
    base = BIG_LEVEL if size == "big" else HUGE_LEVEL
    return rng.randint(base - 100, base + 100)


def _u_exact(n: int) -> int:
    """floor(n*phi) by integer square root, for generating inputs only."""
    from math import isqrt

    return (n + isqrt(5 * n * n)) // 2


def _near_strip(rng: random.Random, b: int) -> tuple[int, int]:
    """An id (a, b) with a + b*phi near the strip (0, phi^3), on either side of it."""
    base = -_u_exact(b) if b > 0 else _u_exact(-b) + 1 if b < 0 else 0
    return base + rng.randint(-2, 6), b


def _repz_tree(rng: random.Random, bound: int = 40) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if O.classify(a, b) == "RepresentsZ":
            return a, b


class Op:
    """One call: kind, the call's arguments, and what the checker needs to know."""

    __slots__ = ("kind", "args", "info")

    def __init__(self, kind: str, args: tuple, info: dict | None = None) -> None:
        self.kind = kind
        self.args = args
        self.info = info or {}


# The calls resolve module attributes at call time, so the tracer's wrappers are seen.
CALLS = {
    "fib": lambda n: goldring.fib(n),
    "phi_pow": lambda k: goldring.phi_pow(k),
    "gold_sign": lambda z: goldring.gold_sign(z),
    "u": lambda n: wythoff.u(n),
    "v": lambda n: wythoff.v(n),
    "u_inverse": lambda y: wythoff.u_inverse(y),
    "letter_at": lambda i: fibword.letter_at(i),
    "u_count": lambda i: fibword.u_count(i),
    "node_label": lambda t, ref: tree.node_label(t, ref),
    "parent_label": lambda t, ref: tree.parent_label(t, ref),
    "children_labels": lambda t, ref: tree.children_labels(t, ref),
    "level_interval": lambda t, n: tree.level_interval(t, n),
    "classify": lambda t: represent.classify(t),
    "tree_sum": lambda t1, t2: algebra.tree_sum(t1, t2),
    "hofstadter_g": lambda n: warray.hofstadter_g(n),
    "find_sequence": lambda t, s, cap: represent.find_sequence(t, s, level_cap=cap),
    "is_subtree": lambda c, p, cap: order.is_subtree(c, p, level_cap=cap),
    "find_interval_level": lambda t, lo, hi: represent.find_interval_level(t, lo, hi),
    "self_containment": lambda t, depth: order.self_containment(t, depth),
    "least_upper_bound": lambda t1, t2, depth: order.least_upper_bound(t1, t2, depth),
}


class Pass:
    """What a timed pass did: per-op latencies, first-cycle results, time spent in the ops.

    Later cycles are compared with the first between cycles and then dropped,
    and latencies go to a buffer allocated up front.  Peak memory is read
    when the first cycle ends: by then set-up, warm-up and every op have run,
    and the reading does not depend on how many cycles the run's length
    allows (the allocator's high-water mark creeps up with each cycle).
    """

    def __init__(self, capacity: int, rss_of: int = resource.RUSAGE_SELF) -> None:
        self._lat = array("f", bytes(4 * capacity))  # nanoseconds
        self.executed = 0
        self.cycles = 0
        self.first: list | None = None
        self.changed: list[int] = []
        self.wall_s = 0.0
        self.cycle_s: list[float] = []
        self.rss_of = rss_of
        self.peak_rss_mb = 0.0

    def add_cycle(self, out: list, lat_ns: list[int], seconds: float) -> None:
        end = self.executed + len(lat_ns)
        if end > len(self._lat):
            self._lat.extend(array("f", bytes(4 * (end - len(self._lat)))))
        self._lat[self.executed : end] = array("f", lat_ns)
        self.executed = end
        self.wall_s += seconds
        self.cycle_s.append(seconds)
        self.cycles += 1
        if self.first is None:
            self.peak_rss_mb = resource.getrusage(self.rss_of).ru_maxrss / 1024.0
            self.first = out
            self.changed = [0] * len(out)
            return
        for i, (got, want) in enumerate(zip(out, self.first)):
            if got != want:
                self.changed[i] += 1

    def latencies_ns(self) -> list[float]:
        return self._lat[: self.executed].tolist()

    def add_verdicts(self, verdicts: "Verdicts", i: int, verdict: str | None, what: str) -> None:
        """The first cycle's verdict for op i, and the same for each later cycle that agreed."""
        verdicts.add(verdict)
        changed = self.changed[i]
        verdicts.add(verdict, times=self.cycles - 1 - changed)
        if changed:
            verdicts.add(f"wrong: {what} changed between passes", times=changed)


class Verdicts:
    """Failure accounting: a failed op is a mismatch, an uncaught exception or a wrong 'not found'."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.examples: list[str] = []

    def add(self, verdict: str | None, times: int = 1) -> None:
        self.attempted += times
        if verdict is None or times == 0:
            return
        self.failed += times
        if verdict.startswith("wrong"):
            self.wrong += times
        if len(self.examples) < 20:
            self.examples.append(verdict)


# ----------------------------------------------------------------- op lists


class OpListWorkload:
    """In-process workload over a seeded op list; subclasses build and check ops."""

    name = ""
    capacity = 0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.units: list[list[Op]] = []
        self.ops: list[Op] = []

    def make(self, rng: random.Random, warm_up: bool = False) -> list[list[Op]]:
        """The op list as timed units: each unit's calls are timed together as one op."""
        raise NotImplementedError

    def setup(self) -> None:
        self.units = self.make(random.Random(f"{self.name}/{self.seed}"))
        self.ops = [op for unit in self.units for op in unit]
        warm = self.make(random.Random(f"{self.name}/{self.seed}/warm-up"), warm_up=True)
        self._run_cycle(warm, [])

    @staticmethod
    def _run_cycle(units: list[list[Op]], lat: list[int]) -> list:
        """One latency per unit; the results of every call, in order."""
        out = []
        timed = [[(CALLS[op.kind], op.args) for op in unit] for unit in units]
        for calls in timed:
            t0 = perf_counter_ns()
            for fn, args in calls:
                try:
                    r = fn(*args)
                except Exception as exc:  # every failure is data here; the checker classifies it
                    r = Raised(exc)
                out.append(r)
            lat.append(perf_counter_ns() - t0)
        return out

    def timed_pass(self, seconds: float) -> Pass:
        p = Pass(self.capacity)
        while p.wall_s < seconds:
            lat: list[int] = []
            t0 = perf_counter()
            out = self._run_cycle(self.units, lat)
            p.add_cycle(out, lat, perf_counter() - t0)
        return p

    def replay(self, cycles: int) -> float:
        """Run whole cycles again; returns the time spent in them."""
        t0 = perf_counter()
        for _ in range(cycles):
            self._run_cycle(self.units, [])
        return perf_counter() - t0

    def check_op(self, op: Op, r) -> str | None:
        raise NotImplementedError

    def check(self, p: Pass, inject_wrong: bool) -> Verdicts:
        verdicts = Verdicts()
        for i, op in enumerate(self.ops):
            try:
                verdict = self.check_op(op, p.first[i])
            except Exception as exc:  # a checker crash must not pass silently
                verdict = f"error: checker raised {Raised(exc)!r} on {op.kind}"
            if inject_wrong and i == 0:
                verdict = f"wrong: injected oracle answer for {op.kind}"
            p.add_verdicts(verdicts, i, verdict, op.kind)
        return verdicts


def _short(x) -> str:
    try:
        return repr(x)[:200]
    except ValueError:  # an int past the interpreter's str() digit limit
        return f"<{x.bit_length()}-bit int>"


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"wrong: {what}: got {_short(got)}, want {_short(want)}"


def _raised(r, what: str) -> str | None:
    if isinstance(r, Raised):
        return f"error: {what} raised {r!r}"
    return None


class Queries(OpListWorkload):
    """O(1) point queries through the closed-form layers; no search loops.

    An op is a round: one call of each kind, all on inputs of one size
    class, timed as a whole.  A single call takes one to ten microseconds
    depending on its kind, so the median of single calls would fall in a
    gap between two kinds and jump with the seed; the median round does not.
    """

    name = "queries"
    capacity = 100_000
    KINDS = (
        "fib", "phi_pow", "gold_sign", "u", "v", "u_inverse", "letter_at", "u_count",
        "node_label", "parent_label", "children_labels", "level_interval", "classify",
        "tree_sum", "hofstadter_g",
    )

    def counts(self) -> dict[str, int]:
        if self.smoke:
            return {"small": 3, "big": 1, "huge": 0}
        return {"small": 200, "big": 12, "huge": 2}

    def make(self, rng: random.Random, warm_up: bool = False) -> list[list[Op]]:
        trees = [FibTree(*_repz_tree(rng, 60)) for _ in range(4)]
        rounds: list[list[Op]] = []
        for size, count in self.counts().items():
            kinds = [k for k in self.KINDS if size == "small" or k != "hofstadter_g"]
            for _ in range(count):
                rounds.append([self._op(rng, kind, size, trees) for kind in kinds])
        rng.shuffle(rounds)
        return rounds

    def _op(self, rng: random.Random, kind: str, size: str, trees: list[FibTree]) -> Op:
        if kind in ("fib", "phi_pow"):
            return Op(kind, (_index(rng, size),))
        if kind == "gold_sign":
            return Op(kind, (GoldInt(_ints(rng, size), _ints(rng, size)),))
        if kind in ("u", "v"):
            return Op(kind, (_ints(rng, size),))
        if kind == "u_inverse":
            n = _ints(rng, size)
            if rng.random() < 0.5:
                y = _u_exact(n) if n > 0 else -_u_exact(-n) - 1
                return Op(kind, (y,), {"rank": n})
            m = abs(n)
            y = _u_exact(m) + m  # v(m), never a u-value
            return Op(kind, (y if n > 0 else -y - 1,))
        if kind in ("letter_at", "u_count"):
            return Op(kind, (abs(_ints(rng, size)),))
        if kind in ("node_label", "parent_label", "children_labels"):
            n = _level(rng, size, low=1 if kind == "parent_label" else 0)
            pos = rng.randint(1, O.fib(n + 2))
            return Op(kind, (rng.choice(trees), NodeRef(n, pos)))
        if kind == "level_interval":
            return Op(kind, (rng.choice(trees), _level(rng, size)))
        if kind == "classify":
            b = _ints(rng, size)
            return Op(kind, (FibTree(*_near_strip(rng, b)),))
        if kind == "tree_sum":
            return Op(kind, (FibTree(_ints(rng, size), _ints(rng, size)), FibTree(_ints(rng, size), _ints(rng, size))))
        if kind == "hofstadter_g":
            return Op(kind, (rng.randint(0, 10**5),))
        raise ValueError(kind)

    def check_op(self, op: Op, r) -> str | None:
        k, args = op.kind, op.args
        err = _raised(r, k)
        if err:
            return err
        if k == "fib":
            return _expect(r, O.fib(args[0]), f"fib({args[0]})")
        if k == "phi_pow":
            n = args[0]
            return _expect((r.a, r.b), (O.fib(n - 1), O.fib(n)), f"phi_pow({n})")
        if k == "gold_sign":
            z = args[0]
            return _expect(r, O.gold_sign(z.a, z.b), "gold_sign")
        if k == "u":
            return _expect(r, O.u(args[0]), "u")
        if k == "v":
            return _expect(r, O.v(args[0]), "v")
        if k == "u_inverse":
            if "rank" in op.info and r != op.info["rank"]:
                return f"wrong: u_inverse(u(n)) round trip gave {_short(r)}"
            return _expect(r, O.u_inverse(args[0]), "u_inverse")
        if k == "letter_at":
            return _expect(r, O.letter_at(args[0]), "letter_at")
        if k == "u_count":
            return _expect(r, O.u_count(args[0]), "u_count")
        if k == "classify":
            t = args[0]
            return _expect(r.value, O.classify(t.a, t.b), "classify")
        if k == "tree_sum":
            t1, t2 = args
            return _expect((r.a, r.b), (t1.a + t2.a, t1.b + t2.b), "tree_sum")
        if k == "hofstadter_g":
            return _expect(r, O.hofstadter_g(args[0]), f"hofstadter_g({args[0]})")
        if k == "level_interval":
            t, n = args
            if n <= 20:
                labels = [x[0] for x in O.rule_levels(t.a, t.b, 20)[n]]
                want = (min(labels), max(labels))
            else:
                want = (O.lo(t.a, t.b, n), O.hi(t.a, t.b, n))
            return _expect((r.lo, r.hi), want, f"level_interval({t}, {n})")
        t, ref = args
        n, pos = ref.level, ref.pos
        if k == "node_label":
            if n <= 20:
                want = O.rule_levels(t.a, t.b, 20)[n][pos - 1][:2]
            else:
                want = O.node(t.a, t.b, n, pos)
            return _expect(tuple(r), tuple(want), f"node_label level {n}")
        if k == "parent_label":
            if n <= 20:
                levels = O.rule_levels(t.a, t.b, 20)
                want = levels[n - 1][levels[n][pos - 1][2] - 1][0]
            else:
                want = O.parent(t.a, t.b, n, pos)
            return _expect(r, want, f"parent_label level {n}")
        if k == "children_labels":
            if n + 1 <= 20:
                kids = [x[:2] for x in O.rule_levels(t.a, t.b, 20)[n + 1] if x[2] == pos]
                return _expect([tuple(x) for x in r], kids, f"children_labels level {n}")
            want_count = 2 if O.letter_at(pos) == O.U else 1
            if len(r) != want_count:
                return f"wrong: children_labels level {n}: {len(r)} children, want {want_count}"
            lo_next = O.lo(t.a, t.b, n + 1)
            for label, letter in r:
                q = label - lo_next + 1
                if O.u_count(q) != pos or O.letter_at(q) != letter:
                    return f"wrong: children_labels level {n}: child at {q} is not ({letter}) under {pos}"
            return None
        raise ValueError(k)


class Searches(OpListWorkload):
    """Level scans and word enumerations in represent and order."""

    name = "searches"
    capacity = 100_000
    BLOCKS = 6

    def make(self, rng: random.Random, warm_up: bool = False) -> list[list[Op]]:
        host = [(0, 1)] + [_repz_tree(rng, 20) for _ in range(3)]
        ops: list[Op] = []
        for block in range(1 if self.smoke or warm_up else self.BLOCKS):
            ops += self._block(rng, host, block)
        rng.shuffle(ops)
        return [[op] for op in ops]

    def _block(self, rng: random.Random, host: list[tuple[int, int]], block: int) -> list[Op]:
        smoke = self.smoke
        ops = []
        # find_sequence: seeds of small size, ~10, ~50 and 10^3 digits, in RepresentsZ trees.
        sizes = [("small", 3)] if smoke else [("small", 8), (10, 4), (50, 2), (1000, 1)]
        for size, count in sizes:
            for _ in range(count):
                if size == "small":
                    c, d = rng.randint(-100, 100), rng.randint(-100, 100)
                    cap = 200
                else:
                    c, d = _digits_int(rng, size), _digits_int(rng, size)
                    c = c if rng.random() < 0.5 else -c
                    cap = 20 * size + 200
                t = rng.choice(host)
                ops.append(Op("find_sequence", (FibTree(*t), FibSeq(c, d), cap)))
        # A target of the wrong sign for a one-sided tree: a documented domain error.
        one_sided = FibTree(rng.randint(3, 9), rng.randint(3, 40))  # a + b*phi > phi^3
        ops.append(Op("find_sequence", (one_sided, FibSeq(-rng.randint(1, 50), -rng.randint(1, 50)), 60)))
        # is_subtree: hits below a forward word, misses at caps 40, 1000 and 5000.
        misses = [(40, 1)] if smoke else [(40, 4), (1000, 2), (5000, 1)]
        for _ in range(2 if smoke else 6):
            a, b = rng.choice(host)
            word = [rng.choice("LR") for _ in range(rng.randint(2, 6))]
            c, d = O.apply_word(word, a, b)
            ops.append(Op("is_subtree", (FibTree(c, d), FibTree(a, b), 40), {"hit": word}))
        for cap, count in misses:
            for _ in range(count):
                a, b = rng.choice(host)
                known = O.rule_pairs(a, b, 16)
                while True:
                    c, d = rng.randint(-30, 30), rng.randint(-30, 30)
                    if (c, d) not in known:
                        break
                ops.append(Op("is_subtree", (FibTree(c, d), FibTree(a, b), cap)))
        # find_interval_level: bounds of small size, 10^2, 10^3 and > 2,100 digits.
        bounds = [("small", 2)] if smoke else [("small", 4), (100, 2), (1000, 1), (2200, 1)]
        for size, count in bounds:
            for _ in range(count):
                if size == "small":
                    lo = rng.randint(-10**6, 10**6)
                    hi = lo + rng.randint(0, 10**4)
                else:
                    lo = -_digits_int(rng, size if size != 2200 else rng.randint(2150, 2300))
                    hi = _digits_int(rng, size if size != 2200 else rng.randint(2150, 2300))
                ops.append(Op("find_interval_level", (FibTree(*rng.choice(host)), lo, hi)))
        # self_containment at depths 12-14: the two self-containing trees and others,
        # in a rotation fixed by block and depth, so every seed gets the same mix.
        for j, depth in enumerate((4,) if smoke else (12, 13, 14)):
            kinds = [(1, 2), (0, 0), _repz_tree(rng, 20), (rng.randint(-9, 9), rng.randint(-9, 9))]
            t = kinds[(block + j) % len(kinds)]
            ops.append(Op("self_containment", (FibTree(*t), depth)))
        # least_upper_bound at depths 8-10, plus the documented example joins.
        for depth in (3,) if smoke else (8, 9, 10):
            t1 = (rng.randint(-12, 12), rng.randint(-12, 12))
            t2 = (rng.randint(-12, 12), rng.randint(-12, 12))
            ops.append(Op("least_upper_bound", (FibTree(*t1), FibTree(*t2), depth)))
        t = FibTree(rng.randint(-9, 9), rng.randint(-9, 9))
        for t1, t2, depth, want in (
            (FibTree(-1, 2), FibTree(-3, 5), 4, [FibTree(18, -10)]),
            (FibTree(0, 0), FibTree(1, 2), 2, [FibTree(0, 1)]),
            (t, t, 4, [t]),
        ):
            ops.append(Op("least_upper_bound", (t1, t2, depth), {"documented": want}))
        return ops

    def check_op(self, op: Op, r) -> str | None:
        k, args = op.kind, op.args
        if k == "find_sequence":
            t, s, cap = args
            tree_class = O.classify(t.a, t.b)
            target_sign = O.gold_sign(s.c, s.d)
            if tree_class != "RepresentsZ" and target_sign * (1 if tree_class == "PositiveSide" else -1) <= 0:
                if isinstance(r, Raised) and r.type == "ValueError":
                    return None  # documented domain error: wrong-sign target on a one-sided tree
                return f"wrong: find_sequence on {tree_class} tree gave {_short(r)}"
            if isinstance(r, Raised):
                if r.type == "ValueError" and tree_class == "RepresentsZ":
                    return f"notfound: every sequence occurs in a RepresentsZ tree: {r!r}"
                return f"error: find_sequence raised {r!r}"
            # Replay the witness: node label and v-child, then the branch against the target.
            if O.node(t.a, t.b, r.level, r.pos) != (r.pair[0], O.U):
                return f"wrong: find_sequence node ({r.level}, {_short(r.pos)}) does not carry the first term"
            want_pair = (O.term(s.c, s.d, r.shift), O.term(s.c, s.d, r.shift + 1))
            if r.pair != want_pair:
                return "wrong: find_sequence pair is not the target's terms at the shift"
            if O.parent(t.a, t.b, r.level + 1, _v_child_pos(r.level, r.pos)) != r.pair[0] or (
                O.lo(t.a, t.b, r.level + 1) + _v_child_pos(r.level, r.pos) - 1 != r.pair[1]
            ):
                return "wrong: find_sequence v-child does not carry the second term"
            branch = tree.branch_sequence(t, NodeRef(r.level, r.pos), 10)
            return _expect(branch, [O.term(s.c, s.d, r.shift + i) for i in range(10)], "branch replay")
        if k == "is_subtree":
            child, parent, cap = args
            if isinstance(r, Raised):
                return f"error: is_subtree raised {r!r}"
            if r is None:
                if "hit" in op.info:
                    return f"notfound: {child} is reached from {parent} by {''.join(op.info['hit'])}"
                if not O.subtree_absent(child.a, child.b, parent.a, parent.b, cap):
                    return f"notfound: {child} occurs in {parent} below level {cap}"
                return None
            got = O.apply_word(r.word.tokens(), parent.a, parent.b)
            if got != (child.a, child.b):
                return f"wrong: witness word {r.word} maps {parent} to F{list(got)}, not {child}"
            if order.subtree_at(parent, r.word) != child:
                return "wrong: subtree_at disagrees with the witness word"
            if O.node(parent.a, parent.b, r.level, r.pos) != (child.a, O.U):
                return f"wrong: witness node ({r.level}, {r.pos}) does not carry {child.a}"
            return None
        if k == "find_interval_level":
            t, lo, hi = args
            if isinstance(r, Raised):
                return f"error: find_interval_level raised {r!r}"

            def fits(n: int) -> bool:
                return O.lo(t.a, t.b, n) <= lo and hi <= O.hi(t.a, t.b, n)

            if not fits(r) or (r > 0 and fits(r - 1)):
                return f"wrong: level {r} is not the first containing the interval"
            return None
        if k == "self_containment":
            t, depth = args
            if isinstance(r, Raised):
                return f"error: self_containment raised {r!r}"
            letter = {(1, 2): "L", (0, 0): "R"}.get((t.a, t.b))
            want = [[letter] * n for n in range(1, depth + 1)] if letter else []
            got = [w.tokens() for w in r]
            if got != want:
                return f"wrong: self_containment of {t} at depth {depth}: {len(got)} words"
            for toks in got:
                if O.apply_word(toks, t.a, t.b) != (t.a, t.b):
                    return f"wrong: word {toks} does not fix {t}"
            return None
        if k == "least_upper_bound":
            t1, t2, depth = args
            if isinstance(r, Raised):
                return f"error: least_upper_bound raised {r!r}"
            if "documented" in op.info and r != op.info["documented"]:
                return f"wrong: documented join of {t1}, {t2} is {op.info['documented']}, got {r}"
            common: set = set()
            for radius in range(depth + 1):
                common = O.ancestors(t1.a, t1.b, radius) & O.ancestors(t2.a, t2.b, radius)
                if common:
                    break
            got = {(x.a, x.b) for x in r}
            if bool(got) != bool(common) or not got <= common:
                return f"wrong: join of {t1}, {t2} at depth {depth} is not among the nearest common ancestors"
            return None
        raise ValueError(k)


def _v_child_pos(level: int, pos: int) -> int:
    """Position of the v-child of the u-node at (level, pos): the last child of pos.

    Children of position p at the next level are the positions q with
    u-count p; the v-child is the largest such q, that is u(p+1) - 1.
    """
    return O.u(pos + 1) - 1


# ---------------------------------------------------------------------- cli


def _cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """Sequential `python -m fibtree` round trips over cheap subcommands."""

    name = "cli"

    def __init__(self, seed: int, smoke: bool, root: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.root = root
        self.env = _cli_env(root)
        self.ops = self.make(random.Random(f"cli/{seed}"))

    def make(self, rng: random.Random) -> list[list[str]]:
        def pair(x: tuple[int, int]) -> str:
            return f"{x[0]},{x[1]}"

        a, b = _repz_tree(rng, 20)
        ops = [
            ["classify", "--id", pair(_near_strip(rng, rng.randint(-50, 50)))],
            ["sum", "--t1", pair((rng.randint(-99, 99), rng.randint(-99, 99))),
             "--t2", pair((rng.randint(-99, 99), rng.randint(-99, 99)))],
            ["find-seq", "--id", pair((a, b)), "--seq", pair((rng.randint(-20, 20), rng.randint(1, 20))), "--cap", "200"],
            ["subtree", "--child", pair((rng.randint(-30, 30), rng.randint(-30, 30))), "--parent", pair((a, b)), "--cap", "30"],
            ["interval", "--id", pair((a, b)), "--lo", str(-rng.randint(0, 10**4)), "--hi", str(rng.randint(0, 10**4))],
            ["tree", "--id", pair((rng.randint(-20, 20), rng.randint(-20, 20))), "--levels", "10"],
            ["tree", "--id", pair((rng.randint(-20, 20), rng.randint(-20, 20))), "--levels", "10", "--format", "ascii"],
        ]
        start = rng.randint(-50, 50)
        ops.append(["wythoff", "--from", str(start), "--to", str(start + rng.randint(0, 20))])
        ops.append(["array", "--rows", str(rng.randint(1, 10)), "--cols", str(rng.randint(2, 10)), "--format", "csv"])
        ops.append(["hofstadter", "--levels", str(rng.randint(0, 20))])
        ops.append(["g", "--n", str(rng.randint(0, 1000))])
        if not self.smoke:
            # The slowest calls: three per list, so that the tail (ten samples
            # beyond it) falls well inside their cluster at any run length.
            for _ in range(3):
                ops.append(["g", "--n", str(rng.randint(190_000, 200_000))])
        # Errors: usage (exit 2) and domain (exit 1).
        ops.append(["classify", "--id", str(rng.randint(0, 9))])
        lo = rng.randint(1, 100)
        ops.append(["interval", "--id", pair((a, b)), "--lo", str(lo), "--hi", str(lo - rng.randint(1, 50))])
        ops.append(["find-seq", "--id", "1,2", "--seq", pair((-rng.randint(1, 20), -rng.randint(1, 20)))])
        rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        warm = self.make(random.Random(f"cli/{self.seed}/warm-up"))
        for argv in warm[:3]:
            self._round_trip(argv)

    def _round_trip(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "fibtree", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def timed_pass(self, seconds: float) -> Pass:
        # The CLI's work happens in its child processes; the largest of them is what a user sees.
        p = Pass(10_000, resource.RUSAGE_CHILDREN)
        while p.wall_s < seconds:
            out, lat = [], []
            t0 = perf_counter()
            for argv in self.ops:
                t1 = perf_counter_ns()
                out.append(self._round_trip(argv))
                lat.append(perf_counter_ns() - t1)
            p.add_cycle(out, lat, perf_counter() - t0)
        return p

    def replay(self, cycles: int) -> float:
        return self.in_process(cycles)

    def in_process(self, cycles: int, lat: list[int] | None = None) -> float:
        """`cli.run(argv)` in this process with output captured; returns the wall time."""
        start = perf_counter()
        sink = io.StringIO()
        for _ in range(cycles):
            for argv in self.ops:
                t0 = perf_counter_ns()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cli.run(list(argv))
                if lat is not None:
                    lat.append(perf_counter_ns() - t0)
                sink.seek(0)
                sink.truncate()
        return perf_counter() - start

    def check(self, p: Pass, inject_wrong: bool) -> Verdicts:
        verdicts = Verdicts()
        for i, argv in enumerate(self.ops):
            try:
                verdict = self.check_op(argv, *p.first[i])
            except Exception as exc:  # a checker crash must not pass silently
                verdict = f"error: checker raised {Raised(exc)!r} on {argv[0]}"
            if inject_wrong and i == 0:
                verdict = f"wrong: injected oracle answer for {argv[0]}"
            p.add_verdicts(verdicts, i, verdict, argv[0])
        return verdicts

    def check_op(self, argv: list[str], code: int, out: str, err: str) -> str | None:
        cmd = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        if "Traceback" in err:
            return f"error: {cmd} printed a traceback"
        if cmd == "classify" and "," not in opts["--id"]:
            return None if code == 2 and err else f"wrong: usage error exited {code}"
        if cmd == "interval" and int(opts["--lo"]) > int(opts["--hi"]):
            return None if code == 1 and err.startswith("error:") else f"wrong: domain error exited {code}"
        if cmd == "find-seq" and opts["--id"] == "1,2":
            return None if code == 1 and err.startswith("error:") else f"wrong: domain error exited {code}"
        if code != 0:
            return f"error: {' '.join(argv)} exited {code}: {err.strip()[:120]}"
        if cmd == "array":
            rows = [[int(x) for x in line.split(",")] for line in out.split()]
            want = []
            for j in range(1, int(opts["--rows"]) + 1):
                m = O.u(j)
                row = [O.u(m), O.v(m)]
                while len(row) < int(opts["--cols"]):
                    row.append(row[-2] + row[-1])
                want.append(row)
            return _expect(rows, want, "array csv")
        if cmd == "tree" and opts.get("--format") == "ascii":
            a, b = (int(x) for x in opts["--id"].split(","))
            levels = O.rule_levels(a, b, int(opts["--levels"]))
            want = [f"tree F[{a},{b}]"] + [
                f"level {n}: [{min(x[0] for x in lv)} .. {max(x[0] for x in lv)}] {''.join(x[1] for x in lv)}"
                for n, lv in enumerate(levels)
            ]
            return _expect(out.splitlines(), want, "tree ascii")
        res = json.loads(out)["result"]
        if cmd == "classify":
            a, b = (int(x) for x in opts["--id"].split(","))
            return _expect(res["class"], O.classify(a, b), "classify")
        if cmd == "sum":
            t1 = [int(x) for x in opts["--t1"].split(",")]
            t2 = [int(x) for x in opts["--t2"].split(",")]
            return _expect(res["id"], [t1[0] + t2[0], t1[1] + t2[1]], "sum")
        if cmd == "find-seq":
            a, b = (int(x) for x in opts["--id"].split(","))
            c, d = (int(x) for x in opts["--seq"].split(","))
            level, pos, shift = res["level"], int(res["pos"]), res["shift"]
            want = [O.term(c, d, shift), O.term(c, d, shift + 1)]
            if [int(x) for x in res["pair"]] != want:
                return "wrong: find-seq pair is not the target's terms at the shift"
            if O.node(a, b, level, pos) != (want[0], O.U):
                return "wrong: find-seq node does not carry the first term"
            vpos = _v_child_pos(level, pos)
            if O.lo(a, b, level + 1) + vpos - 1 != want[1]:
                return "wrong: find-seq v-child does not carry the second term"
            return None
        if cmd == "subtree":
            c, d = (int(x) for x in opts["--child"].split(","))
            a, b = (int(x) for x in opts["--parent"].split(","))
            if not res["contains"]:
                return None if O.subtree_absent(c, d, a, b, 30) else "notfound: subtree occurs below the cap"
            return _expect(O.apply_word(res["witness"]["word"], a, b), (c, d), "subtree witness")
        if cmd == "interval":
            a, b = (int(x) for x in opts["--id"].split(","))
            lo, hi, n = int(opts["--lo"]), int(opts["--hi"]), res["level"]

            def fits(m: int) -> bool:
                return O.lo(a, b, m) <= lo and hi <= O.hi(a, b, m)

            return None if fits(n) and not (n > 0 and fits(n - 1)) else f"wrong: interval level {n}"
        if cmd == "tree":
            a, b = (int(x) for x in opts["--id"].split(","))
            levels = O.rule_levels(a, b, int(opts["--levels"]))
            want = [
                {
                    "level": n,
                    "lo": min(x[0] for x in lv),
                    "hi": max(x[0] for x in lv),
                    "nodes": [{"label": x[0], "letter": x[1], "parent_pos": x[2]} for x in lv],
                }
                for n, lv in enumerate(levels)
            ]
            return _expect(res["levels"], want, "tree json")
        if cmd == "wythoff":
            lo, hi = int(opts["--from"]), int(opts["--to"])
            want = [{"n": n, "u": O.u(n), "v": O.v(n)} for n in range(lo, hi + 1)]
            return _expect(res["pairs"], want, "wythoff")
        if cmd == "hofstadter":
            k = int(opts["--levels"])
            want = [{"level": 0, "lo": 1, "hi": 1}] + [
                {"level": n, "lo": O.fib(n + 1) + 1, "hi": O.fib(n + 2)} for n in range(1, k + 1)
            ]
            return _expect(res["levels"], want, "hofstadter")
        if cmd == "g":
            return _expect(res["g"], O.hofstadter_g(int(opts["--n"])), "g")
        raise ValueError(cmd)


# ------------------------------------------------------------------- verify


class Verify:
    """One in-process run of all six suites per pass: `fibtree verify --suite all`."""

    name = "verify"
    MAX_LEVEL = 15
    MIN_RUNS = 2

    def __init__(self, smoke: bool) -> None:
        self.suites = ["labels", "group"] if smoke else list(verify.SUITES)
        self.max_level = 8 if smoke else self.MAX_LEVEL
        self.check_names = [c.__name__ for s in self.suites for c in verify.SUITES[s]]

    def setup(self) -> None:
        verify.run_suite("labels", max_level=6)

    def timed_run(self) -> tuple[float, dict[str, float], tuple[int, list]]:
        """One run_suites call with a timer on each check and suite; adds a few calls in total."""
        times: dict[str, float] = {}
        undo = []

        def timed(name, fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[name] = times.get(name, 0.0) + perf_counter() - t0

            return wrapper

        for suite, checks in list(verify.SUITES.items()):
            # run_suite tells check_consecutive_labels apart by identity, so the
            # module global and the suite table must hold the same wrapper.
            wrapped = []
            for fn in checks:
                w = timed(fn.__name__, fn)
                undo.append((verify, fn.__name__, fn))
                setattr(verify, fn.__name__, w)
                wrapped.append(w)
            undo.append((verify.SUITES, suite, checks))
            verify.SUITES[suite] = tuple(wrapped)
        run_suite = verify.run_suite
        undo.append((verify, "run_suite", run_suite))

        def suite_timer(name, max_level=None):
            t0 = perf_counter()
            try:
                return run_suite(name, max_level=max_level)
            finally:
                times[f"suite:{name}"] = perf_counter() - t0

        verify.run_suite = suite_timer
        try:
            t0 = perf_counter()
            result = verify.run_suites(self.suites, max_level=self.max_level)
            wall = perf_counter() - t0
        finally:
            for owner, key, old in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = old
                else:
                    setattr(owner, key, old)
        return wall, times, result

    def timed_pass(self, seconds: float) -> Pass:
        """Whole runs until the time is up, and at least MIN_RUNS; each run is one op."""
        p = Pass(1000)
        p.times = []
        p.results = []
        while p.wall_s < seconds or p.cycles < self.MIN_RUNS:
            wall, times, result = self.timed_run()
            p.times.append(times)
            p.results.append(result)
            p.add_cycle([], [wall * 1e9], wall)
        return p

    def replay(self, cycles: int) -> float:
        t0 = perf_counter()
        for _ in range(cycles):
            verify.run_suites(self.suites, max_level=self.max_level)
        return perf_counter() - t0

    def check(self, p: Pass, inject_wrong: bool) -> Verdicts:
        """A run fails when it reports a failure or runs other than all the checks."""
        verdicts = Verdicts()
        for i, (checks_run, failures) in enumerate(p.results):
            if inject_wrong and i == 0:
                checks_run += 1
            verdict = None
            if failures:
                verdict = f"wrong: verify reported {len(failures)} failures: {failures[:2]}"
            elif checks_run != len(self.check_names):
                verdict = f"wrong: verify ran {checks_run} checks, want {len(self.check_names)}"
            verdicts.add(verdict)
        return verdicts
