"""What a labeled tree represents, and where a given sequence lives in it.

Trees split three ways by the sign of a + b*phi against 0 and phi^3:
strictly between the two bounds, every integer interval and every
Fibonacci sequence appears in the tree; at or below 0, only nonpositive
material appears; at or above phi^3, only positive.  For trees in the
middle class, `find_sequence` locates a concrete ascending branch
realizing any target sequence, constructively.

Both searches cost what the bit length of their inputs asks, not one
step per level: a target's row start is located by
`goldring._phi_log`, whose sign tests run at the seed's width, and the
level scans step the level edges by additions only until the edges
settle, then jump to within a few levels of the first level whose
interval can hold the answer.  A sequence sits in a tree as a copy of
its row's subtree, so `find_sequence` and `order.is_subtree` share one
witness scan, `first_witness`.  By the shift lemma one fixed interval
decides that scan: the level's hit, placed by one product pair, the
cutoff past which no level can hit, and the level where a hit first
becomes possible, found by `goldring._phi_log`.  The scan returns the
witness's u-count with its position, and the `v-from-uu` identity turns
the two into the position of the branch's root, so a search runs no
Beatty floor.  The scan ends by itself, so the searches need no level
cap and a miss is proven absence; a cap, when given, only bounds the
work.
A located branch is fixed by its pair, so the searches return it without
replaying it; the replay is `verify.check_find_sequence`, and
`count_occurrences` is the brute-force count over rule-built levels.
The library holds only the proven cutoff; the shift lemma's empirical
stabilization point, `verify.verify_lemma_shift`, is an oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .goldring import _phi_log, _Record, _set, _sign
from .fibword import U
from .tree import FibTree, _edges, u_nodes
from .wythoff import FibSeq, reference_index

# The shortest skip over out-of-range levels worth a jump: one `tree._edges`
# call on a cached doubling, about 0.47 us against 0.1 us per level stepped
# by additions (Python 3.11, 2-vCPU host; about 2.6 us on a cold doubling).
# Shorter skips are stepped.
_MIN_JUMP = 8


class TreeClass(Enum):
    REPRESENTS_Z = "RepresentsZ"
    NONPOSITIVE_SIDE = "NonpositiveSide"
    POSITIVE_SIDE = "PositiveSide"


class Occurrence(_Record):
    """A branch realizing a target sequence.

    The u-node at (level, pos) carries pair[0]; its v-child carries
    pair[1]; the branch upward from it matches the target from index
    ``shift`` on.
    """

    __slots__ = ("level", "pos", "pair", "shift", "primitive")

    def __init__(self, level: int, pos: int, pair: tuple[int, int], shift: int, primitive: bool) -> None:
        _set(self, "level", level)
        _set(self, "pos", pos)
        _set(self, "pair", pair)
        _set(self, "shift", shift)
        _set(self, "primitive", primitive)


def classify(t: FibTree) -> TreeClass:
    """Exact three-way classification of a + b*phi against (0, phi^3)."""
    if _sign(t.a, t.b) <= 0:
        return TreeClass.NONPOSITIVE_SIDE
    # a + b*phi >= phi^3 = 1 + 2*phi  iff  (a-1) + (b-2)*phi >= 0
    if _sign(t.a - 1, t.b - 2) >= 0:
        return TreeClass.POSITIVE_SIDE
    return TreeClass.REPRESENTS_Z


def _require_full(t: FibTree) -> None:
    cls = classify(t)
    if cls is not TreeClass.REPRESENTS_Z:
        raise ValueError(f"tree {t} is {cls.value}, needs RepresentsZ")


def find_interval_level(t: FibTree, lo: int, hi: int) -> int:
    """Smallest level whose label interval contains [lo..hi].

    The level is the first index n with E_n < lo and hi <= H_n, found by
    `_in_range`: level by level while the edges are unsettled, then one
    jump to within a few levels of the answer.  Containment is not
    monotone in the level before the edges settle: F[-60,38] has level
    0 = [-60] and level 1 = [37..38], so [-60..-60] fits at level 0, not
    at level 1, and fits again higher up.  In a RepresentsZ tree E tends
    to -infinity and H to +infinity, so every interval is reached.
    """
    _require_full(t)
    if lo > hi:
        raise ValueError(f"empty interval [{lo}..{hi}]")
    return next(_in_range(t, lo, hi, 0))[0]


def _steps_below(g0: int, g1: int, y: int) -> int:
    """A count s >= 0 with G_(k+1), ..., G_(k+s) < y, given G_k, G_(k+1) >= 0, not both 0, or 0 when s is short.

    Delta_n = G_(n+1) + G_n/phi grows by a factor phi per index, with
    G_(n+1) <= Delta_n from n = k on and Delta_n <= phi*G_(n+1) from k + 1
    on, so the least s* with phi^s* Delta_k >= y has G_(k+1..k+s*) < y <=
    G_(k+s*+2); `goldring._phi_log` with no walk gives s* or s* - 1.  As
    Delta_k >= max(G_k, G_(k+1))/phi, y <= 21*max(G_k, G_(k+1)) puts s* at
    most 8 = _MIN_JUMP (21 <= phi^7), and 0 is returned without the call.
    """
    if y <= 21 * max(g0, g1):
        return 0
    return _phi_log(g1 - g0, g0, y, 0, walk=False)[0]


def _in_range(t: FibTree, lo: int, hi: int, k: int) -> Iterator[tuple[int, int, int]]:
    """Every index n >= k with E_n < lo and hi <= H_n, in order, as (n, E_n, E_(n+1)).

    E_n = lo(n) - 1 and H_n = hi(n) are the level edges; both follow the
    Fibonacci recursion, so each index costs a few additions.  A start
    k <= 0 steps back from the seeds; a start past 0 evaluates the edges
    there by one `tree._edges` call.  The scan goes index by index from
    k until both edge pairs are settled: a pair (G_n, G_(n+1)) with both
    terms >= 0 (rising) or both <= 0 (falling; E = 0 counts as rising,
    H = 0 as falling) makes G monotone from n + 1 on, in that direction.
    A nonzero Fibonacci sequence settles within O(bit length) indices of
    its seed.  From then on each half of the range test is monotone in
    the index:

    - E_n < lo fails forever once it fails for rising E, and holds
      forever once it holds for falling E; hi <= H_n likewise with the
      roles swapped.  A half that can only fail and fails at n + 1 ends
      the scan: no later index is in range.
    - A half that can only come true and is false at n + 1 is false for
      the next `_steps_below` indices (G = -E with y = 1 - lo, or G = H
      with y = hi).  Those indices fail the range test, so the scan jumps
      past them, evaluates both edge pairs there by one `tree._edges`
      call, and resumes index by index; within 3 indices it reaches the
      first index in range.  Short jumps are stepped instead.

    In a RepresentsZ tree E is falling and H rising once settled, so the
    scan never ends and yields every index from its first hit on.
    """
    if k > 0:
        e0, h0, e1, h1 = _edges(t, k)
    else:
        e0, e1, h0, h1 = t.a - 1, t.b - 2, t.a, t.b
        for _ in range(-k):
            e0, e1, h0, h1 = e1 - e0, e0, h1 - h0, h0
    while True:
        if e0 < lo and hi <= h0:
            yield k, e0, e1
        if (e0 >= 0 and e1 >= 0 or e0 <= 0 and e1 <= 0) and (h0 >= 0 and h1 >= 0 or h0 <= 0 and h1 <= 0):
            break
        k, e0, e1, h0, h1 = k + 1, e1, e0 + e1, h1, h0 + h1
    # Settled at k: from k + 1 on each edge is monotone, and each half of the range test flips at most once.
    e_falls, h_rises = e0 < 0 or e1 < 0, h0 > 0 or h1 > 0
    skip = max(
        _steps_below(-e0, -e1, 1 - lo) if e_falls and e1 >= lo else 0,
        _steps_below(h0, h1, hi) if h_rises and h1 < hi else 0,
    )
    if skip > _MIN_JUMP:
        k += skip + 1
        e0, h0, e1, h1 = _edges(t, k)
    else:
        k, e0, e1, h0, h1 = k + 1, e1, e0 + e1, h1, h0 + h1
    while (e_falls or e0 < lo) and (h_rises or hi <= h0):
        if e0 < lo and hi <= h0:
            yield k, e0, e1
        k, e0, e1, h0, h1 = k + 1, e1, e0 + e1, h1, h0 + h1


def first_witness(c: int, rank: int, t: FibTree, level_cap: int | None = None) -> tuple[int, int, int] | None:
    """(level, pos, k) of the first u-node of t labeled c whose v-child carries c + rank, or None when t has none.

    k is the node's u-count, so pos = u(k).  A level_cap, when given, is
    a work budget: only levels 0..level_cap are scanned, and None then
    reads "not found up to the cap".

    Write D = rank, E_n = lo(n) - 1 and H_n = hi(n) for t's level edges.
    A u-node labeled c whose v-child carries c + D has a parent labeled D
    (the root counts as the child of a node labeled b - a = H_(-1)),
    which pins its u-count k = D - E_(n-1) at level n.  The level holds
    the witness when 1 <= k <= F_(n+1), that is E_(n-1) < D <= H_(n-1),
    and E_n + u(k) == c; the witness sits at pos = u(k) = c - E_n.
    `_in_range` yields exactly the levels where the range holds.

    One interval decides the rest.  With eps_n = E_n - E_(n-1)*phi,
    k*phi = D*phi - E_n + eps_n, so for k >= 1 the test u(k) == c - E_n
    reads eps_n in I = [alpha, alpha + 1) with alpha = c - D*phi, and no
    Beatty floor.  One product pair, s^2 and 5y^2, places the level
    against I.  With x = E_n - c, y = k >= 1 and s = 2x + y,
    eps_n - alpha = x + y*phi = (s + y*sqrt(5))/2, and 5y^2 is never a
    square, so:

    - the level lies below I (x + y*phi < 0) iff s < 0 and s^2 > 5y^2;
    - it lies in I iff s < 0, s^2 < 5y^2 and (x - 1) + y*phi < 0, that
      is (2 - s)^2 > 5y^2, or s^2 - 5y^2 - 4s + 4 > 0 (for s >= 0,
      (x - 1) + y*phi = (s - 2 + y*sqrt(5))/2 > 0 since 5y^2 > 4);
    - otherwise it lies above I.

    Since E is a Fibonacci sequence, eps_(n+1) = (1 - phi)*eps_n:
    |eps_n| shrinks by a factor phi per level and its sign alternates
    (eps is 0 only for t = F[1,2]), so every later eps lies in
    [-|eps_n|, |eps_n|].

    - Cutoff.  A level that misses ends the scan once that interval no
      longer meets I: below I (eps_n < alpha) when -eps_n < alpha too,
      above I (eps_n >= alpha + 1) when -eps_n >= alpha + 1 too.  One
      `_sign` test decides it, and no later level can hit.
    - Start.  A hit, or the cutoff, needs |eps_n| <= K = |c| + 1 + |D|*phi,
      while |eps_n| = |eps_0|*phi^-n.  So no level below the least n with
      phi^n*K >= |eps_0| can hit or end the scan, and the scan starts at n
      or n - 1, `goldring._phi_log` with no walk; or at 0 when
      |E_0| + 2|E_(-1)| <= 21*(|c| + |D| + 1) puts n at most 7.  On a strip
      tree F[1 - u(b), b] (|eps_0| about b) that skips thousands of levels.

    Once |eps_n| < min(|alpha|, |alpha + 1|), the interval meets I only
    if I holds 0, and then eps_n is in I.  For D != 0 the norm of
    p - q*phi bounds that distance from 0 to I below by
    1/(1 + sqrt(5)*|D|); for D = 0, I = [c, c + 1) holds 0 at most as an
    end (c = 0 or -1), and once |eps_n| < 1 one of two levels in a row
    lands in I.  So the scan ends within O(bit length of the labels, c
    and D) levels, or at the end of the levels in range, with no cap: a
    miss is then proven.
    """
    p, q = t.a - 1, t.b - t.a - 1  # eps_0 = E_0 - E_(-1)*phi = p - q*phi
    start = 0
    if abs(p) + 2 * abs(q) > 21 * (abs(c) + abs(rank) + 1):
        sigma = _sign(p, -q)
        start = _phi_log(abs(c) + 1, abs(rank), sigma * p, -sigma * q, walk=False)[0]
    for k, e0, e1 in _in_range(t, rank, rank, max(start, 0) - 1):
        if level_cap is not None and k >= level_cap:
            return None
        x, y = e1 - c, rank - e0  # eps_n - alpha = x + y*phi, with eps_n = e1 - e0*phi
        s = 2 * x + y
        gap = s * s - 5 * y * y
        if s < 0 and gap > 0:  # below I
            if _sign(e1 + c, -e0 - rank) > 0:  # -eps_n < alpha
                return None
        elif s < 0 and gap - 4 * s + 4 > 0:  # in I
            return k + 1, -x, y
        elif _sign(-e1 - c - 1, e0 + rank) >= 0:  # above I, and -eps_n >= alpha + 1
            return None
    return None


def _row_alignment(s: FibSeq) -> tuple[int, tuple[int, int]]:
    """(shift, pair) with pair = s.pair(shift) == (u(u(j)), v(u(j))), for the row j of s in Z.

    Let delta_m = t_(m+1) - t_m*phi for the terms t of s; it satisfies
    delta_(m+1) = (1 - phi)*delta_m, so delta_m = delta_0*(-1/phi)^m.

    For rank k = t_(m+1) - t_m != 0, u(k) = floor(k*phi), and
    k*phi - t_m = phi*delta_m; so the pair at m is a Wythoff pair (the
    test u(k) == t_m) exactly when 0 < delta_m < 1/phi, and then
    frac(k*phi) = phi*delta_m.  The pair (-1, -1) of rank 0 passes that
    test too, but 0 is no u-value and delta = 1/phi there.  The ranks k
    that are u-values (-1 = u(0) included) are exactly those with
    frac(k*phi) >= 1/phi^2: k = u(i) > 0 gives
    frac = 1 - frac(i*phi)/phi, k = v(i) gives frac(i*phi)/phi^2, k = -1
    gives 1/phi^2, and k = -n < -1 is a u-value iff n - 1 is one, with
    frac(k*phi) = 1 + 1/phi^2 - frac((n-1)*phi) or 1/phi^2 - frac((n-1)*phi).

    So with M the first index with 0 < delta_M < 1/phi, delta_(M-2) =
    phi^2*delta_M >= 1/phi puts phi*delta_M in [1/phi^2, 1): the pair at
    M starts the row.  The later Wythoff pairs M + 2i have
    phi*delta < 1/phi^2 and earlier pairs none, so M is the only index
    that passes.  The row j = 0 covers the sequences equivalent to the
    negated Fibonacci sequence, whose row start is (-2, -3).

    M is the first index of the parity with delta_m > 0 that has
    |delta_0| < phi^(M-1), found on the seed, not on the pair:
    `goldring._phi_log` gives the least n with phi^n >= |delta_0| at the
    seed's width, and phi^n = F_(n-1) + F_n*phi; M - 1 is n, one more
    when phi^n equals |delta_0|, one more for the parity.  The pair at M
    is built from (F_(M-2), F_(M-1)): with P = (c + d)*(F_(M-2) + F_(M-1)),
    t_(M-1) = c*F_(M-2) + d*F_(M-1) and t_M = P - c*F_(M-2), so
    t_(M+1) = P + d*F_(M-1).

    So pair = (t0, t1) = (u(u(j)), v(u(j))), and j reads off it: t1 - t0
    = u(j), and u(u(j)) = v(j) - 1 = u(j) + j - 1 (the `v-from-uu`
    identity, checked by `verify.check_wythoff_identities`) gives
    j = 2*t0 + 1 - t1, with no u call.  The zero seed raises ValueError.
    """
    c, d = s.c, s.d
    sigma = _sign(d, -c)  # the sign of delta_0 = d - c*phi
    sd, sc = sigma * d, sigma * c
    n, f, g = _phi_log(1, 0, sd, -sc)  # phi^n = f + g*phi >= |delta_0|
    while (f, g) == (sd, -sc) or (n % 2 == 0) == (sigma > 0):  # M = n + 1: phi^n > |delta_0|, M even iff sigma > 0
        n, f, g = n + 1, g, f + g
    p, cf = (c + d) * (f + g), c * f
    return n + 1, (p - cf, p + d * g)


def find_sequence(t: FibTree, s: FibSeq, level_cap: int | None = None) -> Occurrence:
    """A primitive branch of t realizing s: the canonical pair's first appearance.

    Nonzero targets are first aligned to their row start (u(u(j)), v(u(j))).
    The branch it seeds shows up in t as a copy of the row's subtree
    F[u(j), v(j)]: the first u-node carrying u(j) whose v-child carries
    v(j) = u(j) + j has the u-child u(u(j)) = v(j) - 1, a u-node under a
    u-node, and that child's v-child carries u(j) + u(u(j)) = v(u(j)).
    So the search is `first_witness(u(j), j, ...)` one level up, the
    same scan and cutoff that `order.is_subtree` runs, with u(j) = t1 - t0
    and j = 2*t0 + 1 - t1 read off the aligned pair (t0, t1).  The zero
    target is the subtree F[0,1], whose root's u-child carries 0 and has
    the v-child 0: the same formulas read it off the pair (0, 0).
    The scan runs no Beatty floor, and neither does the witness
    position: the scan finds the row subtree's root at pos = u(k) with
    its u-count k, so its u-child sits at u(pos) = u(u(k)) = pos + k - 1,
    the `v-from-uu` identity.

    The alignment, the scan's start and its jump over the levels out of
    range cost O(1) big-int operations, so a 10^3-digit target, or a
    tree with 10^3-digit labels, costs what its bit length asks, not one
    step per level.

    RepresentsZ trees realize every target, so with no cap the search
    never raises on them.  One-sided trees carry only targets of their
    own sign (other signs raise immediately), and only some of those:
    with no cap a raise is proven absence.  A level_cap, when given, is a
    work budget: the search raises once the scan would pass it.
    """
    cls = classify(t)
    if cls is TreeClass.POSITIVE_SIDE and s.sign() <= 0:
        raise ValueError(f"tree {t} is {cls.value}: it carries no branch for {s}")
    if cls is TreeClass.NONPOSITIVE_SIDE and s.sign() >= 0:
        raise ValueError(f"tree {t} is {cls.value}: it carries no branch for {s}")
    shift, (t0, t1) = (0, (0, 0)) if s.is_zero() else _row_alignment(s)
    found = first_witness(t1 - t0, 2 * t0 + 1 - t1, t, None if level_cap is None else level_cap - 1)
    if found is None:
        within = "" if level_cap is None else f" within level cap {level_cap}"
        raise ValueError(f"no occurrence of {s} in {t}{within}")
    level, pos, k = found
    return Occurrence(level + 1, pos + k - 1, (t0, t1), shift, True)


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
    return sum(
        1
        for _, _, label, parent, parent_letter in u_nodes(t, level_cap)
        if parent_letter == U and _equivalent(FibSeq(label, parent + label), s)
    )

