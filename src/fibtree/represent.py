"""What a labeled tree represents, and where a given sequence lives in it.

Trees split three ways by the sign of a + b*phi against 0 and phi^3:
strictly between the two bounds, every integer interval and every
Fibonacci sequence appears in the tree; at or below 0, only nonpositive
material appears; at or above phi^3, only positive.  For trees in the
middle class, `find_sequence` locates a concrete ascending branch
realizing any target sequence, constructively.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .goldring import GoldInt, gold_sign
from .fibword import U, letter_at, u_count
from .tree import FibTree, NodeRef, build_levels, branch_sequence, node_label, parent_label
from .wythoff import FibSeq, reference_index, u, u_inverse

DEFAULT_LEVEL_CAP = 60

# How many consecutive-term pairs of the target to scan for a row start,
# and how many branch terms to replay when verifying a hit.
_ALIGN_SCAN = 400
_REPLAY_TERMS = 10


class TreeClass(Enum):
    REPRESENTS_Z = "RepresentsZ"
    NONPOSITIVE_SIDE = "NonpositiveSide"
    POSITIVE_SIDE = "PositiveSide"


@dataclass(frozen=True)
class Occurrence:
    """A branch realizing a target sequence.

    The u-node at (level, pos) carries pair[0]; its v-child carries
    pair[1]; the branch upward from it matches the target from index
    ``shift`` on.
    """

    level: int
    pos: int
    pair: tuple[int, int]
    shift: int
    primitive: bool


def classify(t: FibTree) -> TreeClass:
    """Exact three-way classification of a + b*phi against (0, phi^3)."""
    if gold_sign(t.gold()) <= 0:
        return TreeClass.NONPOSITIVE_SIDE
    # a + b*phi >= phi^3 = 1 + 2*phi  iff  (a-1) + (b-2)*phi >= 0
    if gold_sign(GoldInt(t.a - 1, t.b - 2)) >= 0:
        return TreeClass.POSITIVE_SIDE
    return TreeClass.REPRESENTS_Z


def _require_full(t: FibTree) -> None:
    cls = classify(t)
    if cls is not TreeClass.REPRESENTS_Z:
        raise ValueError(f"tree {t} is {cls.value}, needs RepresentsZ")


def find_interval_level(t: FibTree, lo: int, hi: int) -> int:
    """Smallest level whose label interval contains [lo..hi].

    A linear first-fit scan over levels 0..10000, stepping the level
    edges by the Fibonacci recursion.  Containment is not monotone in
    the level: F[-60,38] has level 0 = [-60] and level 1 = [37..38], so
    [-60..-60] fits at level 0, not at level 1, and fits again higher up.
    A bisection over levels would therefore be unsound.
    """
    _require_full(t)
    if lo > hi:
        raise ValueError(f"empty interval [{lo}..{hi}]")
    # (E_n, E_{n+1}) with E_n = lo(n) - 1, and (hi(n), hi(n+1))
    (e0, e1), (h0, h1) = _edge_seq(t).pair(0), t.seq().pair(0)
    n = 0
    while not (e0 < lo and hi <= h0):
        n += 1
        if n > 10_000:
            raise RuntimeError(f"interval [{lo}..{hi}] not reached by level 10000 in {t}")
        e0, e1 = e1, e0 + e1
        h0, h1 = h1, h0 + h1
    return n


def _edge_seq(t: FibTree) -> FibSeq:
    # Terms equal lo(n) - 1: the label just left of each level.
    return FibSeq(t.a - 1, t.b - 2)


def _row_alignment(s: FibSeq) -> tuple[int, int]:
    """(j, shift) with s.pair(shift) == (u(u(j)), v(u(j))), j over all of Z.

    Scans consecutive-term pairs forward from just before the reference
    index; the first pair that is a Wythoff pair whose rank is itself a
    u-value starts the target's row.  j = 0 covers the sequences
    equivalent to the negated Fibonacci sequence, whose row start is
    (-2, -3): their trail meets no rank in u(Z*) at all.
    """
    m = reference_index(s) - 3
    for _ in range(_ALIGN_SCAN):
        c, d = s.pair(m)
        if u(d - c) == c:
            j = u_inverse(d - c)
            if j is not None:
                return j, m
        m += 1
    raise RuntimeError(f"no row alignment for {s} within {_ALIGN_SCAN} pairs")


def _verify_occurrence(t: FibTree, s: FibSeq, occ: Occurrence) -> None:
    got = branch_sequence(t, NodeRef(occ.level, occ.pos), _REPLAY_TERMS)
    want = [s.term(occ.shift + i) for i in range(_REPLAY_TERMS)]
    if got != want:
        raise RuntimeError(f"branch replay mismatch at {occ}: {got} vs {want}")
    if occ.primitive and letter_at(u_count(occ.pos)) != U:
        raise RuntimeError(f"node at {occ} is not primitive")


def find_sequence(t: FibTree, s: FibSeq, level_cap: int = DEFAULT_LEVEL_CAP) -> Occurrence:
    """A primitive branch of t realizing s: the canonical pair's first appearance.

    Nonzero targets are first aligned to their row start (u(u(j)), v(u(j)));
    the level scan then looks for the index i_n = j - e(n-2) with
    1 <= i_n <= F_n and u(i_n) + e(n-1) == u(j), where e(m) = lo(m) - 1.
    When both hold, the i_n-th u-node of level n-1 carries u(j) and its
    u-child carries u(u(j)), rooting the wanted branch.  The zero target
    uses the same scan with the pair (0, 0): i_n = 1 - e(n-2) and
    u(i_n) + e(n-1) == 0, which has a unique solution.

    RepresentsZ trees realize every target below some level.  One-sided
    trees carry only targets of their own sign (other signs raise
    immediately), and only some of those: the scan can exhaust the cap.
    """
    cls = classify(t)
    if cls is TreeClass.POSITIVE_SIDE and s.sign() <= 0:
        raise ValueError(f"tree {t} is {cls.value}: it carries no branch for {s}")
    if cls is TreeClass.NONPOSITIVE_SIDE and s.sign() >= 0:
        raise ValueError(f"tree {t} is {cls.value}: it carries no branch for {s}")
    if s.is_zero():
        want, target_u, shift = 1, 0, 0
    else:
        want, shift = _row_alignment(s)
        target_u = u(want)
    # (e(n-2), e(n-1)) and (F_n, F_{n+1}) at level n = 1
    (e0, e1), (f0, f1) = _edge_seq(t).pair(-1), (1, 1)
    for n in range(1, level_cap + 1):
        i = want - e0
        if 1 <= i <= f0 and u(i) + e1 == target_u:
            pos = u(u(i))
            occ = Occurrence(n, pos, s.pair(shift), shift, True)
            _verify_occurrence(t, s, occ)
            return occ
        e0, e1 = e1, e0 + e1
        f0, f1 = f1, f0 + f1
    raise ValueError(
        f"no occurrence of {s} in {t} within level cap {level_cap} (last level tried {level_cap})"
    )


def _equivalent(s1: FibSeq, s2: FibSeq) -> bool:
    """True when the sequences agree up to an index shift."""
    if s1.is_zero() or s2.is_zero():
        return s1.is_zero() and s2.is_zero()
    if s1.sign() != s2.sign():
        return False
    n1 = reference_index(s1)
    n2 = reference_index(s2)
    return s1.pair(n1) == s2.pair(n2)


def count_occurrences(t: FibTree, s: FibSeq, level_cap: int) -> int:
    """Primitive nodes up to level_cap whose branch realizes s, by brute force.

    Scans the rule-built levels for u-nodes with u-node parents and
    counts those whose pair seeds a sequence equivalent to s.  The zero
    target is realized by exactly one node in the whole tree; nonzero
    targets accumulate more nodes as the cap grows.
    """
    _require_full(t)
    levels = build_levels(t, level_cap, max_level=max(level_cap, 30))
    count = 0
    for n in range(1, level_cap + 1):
        above = levels[n - 1]
        for label, letter, ppos in levels[n]:
            if letter != U or above[ppos - 1][1] != U:
                continue
            pair = (label, above[ppos - 1][0] + label)
            if _equivalent(FibSeq(*pair), s):
                count += 1
    return count


def verify_lemma_shift(s: FibSeq, i: int, n_max: int) -> int:
    """Smallest n1 <= n_max with u(i + s.term(n)) == u(i) + s.term(n+1) for all n in n1..n_max.

    The identity stabilizes because s.term(n)*phi - s.term(n+1) shrinks
    geometrically; this returns the empirical stabilization point.
    """
    if i == 0:
        raise ValueError("shift identity needs i != 0")
    ui = u(i)
    last_bad = -1
    for n in range(n_max + 1):
        if u(i + s.term(n)) != ui + s.term(n + 1):
            last_bad = n
    if last_bad == n_max:
        raise ValueError(f"identity for {s}, i={i} still failing at n_max={n_max}")
    return last_bad + 1
