"""The subtree partial order, self-containment, and bounded join search.

One tree sits inside another when some u-node of the host carries the
guest's root label and its v-child carries the guest's second label;
the guest is then reproduced label for label.  On identities this is
generated by two affine maps: L descends to the first left subtree,
R to the first right subtree (two levels down).

`is_subtree` costs what the bit length of its inputs asks, not what the
cap allows: it runs the witness scan that `represent.find_sequence`
runs too, `represent.first_witness`, which starts at the first level
where the shift lemma lets the child sit, steps the level edges by
additions, jumps past the levels out of range and stops once the
shift-lemma cutoff or the range test shows that no later level can hold
the child; it runs no Beatty floor, and neither does the witness word.
So it decides: with no level cap a miss (None) is proven absence, and it
takes O(bit length) levels to establish; a cap, when given, only bounds
the levels scanned.  `self_containment` is the theorem itself: only
F[1,2] and F[0,0] contain themselves, by the powers of L and of R.

`least_upper_bound` enumerates the inverse-map ancestors of both trees,
up to 2^(r+1) bare int pairs per tree at radius r.  Most pairs with no
common ancestor never run it: a conjugate-gap certificate, one
`goldring._phi_log` and O(1) more big-int operations at any label size,
proves that the two trees meet at no radius, and the empty answer is
then a proof.  Otherwise the search returns the containment-minimal
trees of the first radius where the two ancestor sets meet; an empty
result from it bounds the search, it proves nothing, and for a
comparable pair that radius can stop short of the larger tree.
"""

from __future__ import annotations

from .goldring import Atom, MapWord, _fib_pair, _phi_log, _Record, _set, _sign
from .represent import first_witness
from .tree import FibTree


class SubtreeWitness(_Record):
    """Location of the guest's root inside the host, plus the map word
    sending the host identity to the guest identity."""

    __slots__ = ("level", "pos", "word")

    def __init__(self, level: int, pos: int, word: MapWord) -> None:
        _set(self, "level", level)
        _set(self, "pos", pos)
        _set(self, "word", word)


def _word_to(level: int, pos: int) -> MapWord:
    """Map word from the root identity to the u-node at (level, pos).

    Walks top-down by subtree sizes.  Below the root, the subtree of its
    u-child (an L step) fills the first F_(m+1) positions of level m,
    and the subtree of the u-child of its v-child (an R step, two levels
    down) fills the other F_m.  So with r = pos - 1 and m = level: if
    r < F_(m+1) the step is L and m drops by 1; otherwise it is R, r
    drops by F_(m+1) and m by 2.  (F_m, F_(m+1)) comes from one
    `_fib_pair` doubling and is stepped down by subtractions.  The steps
    come root-first; reversed, they are the function-composition order
    the word applies in.  The upward walk by u-counts is
    `verify.word_by_upward_walk`.
    """
    atoms: list[Atom] = []
    r = pos - 1
    f, g = _fib_pair(level)  # (F_m, F_(m+1)) with m = level
    while level > 0:
        if r < g:
            atoms.append(Atom.L)
            level, f, g = level - 1, g - f, f
        else:
            atoms.append(Atom.R)
            r -= g
            level, f, g = level - 2, 2 * f - g, g - f
    atoms.reverse()
    return MapWord(tuple(atoms))


def is_subtree(child: FibTree, parent: FibTree, level_cap: int | None = None) -> SubtreeWitness | None:
    """First witness that child sits inside parent, or None when it does not.

    The witness is the first u-node of the parent that carries the
    child's root label c and whose v-child carries its second label d,
    located by `represent.first_witness`: its scan starts where the
    shift lemma lets the child sit and ends within O(bit length of the
    labels) levels of there; a tree is its own witness at level 0.  A
    level_cap, when given, limits the scan to levels 0..level_cap, and
    None then means "not found up to the cap".
    """
    found = first_witness(child.a, child.b - child.a, parent, level_cap)
    if found is None:
        return None
    level, pos, _ = found
    return SubtreeWitness(level, pos, _word_to(level, pos))


def subtree_at(t: FibTree, w: MapWord) -> FibTree:
    """The subtree reached by a word of L and R steps."""
    z = w.apply(t.gold())
    return FibTree(z.a, z.b)


def self_containment(t: FibTree, depth: int) -> list[MapWord]:
    """All nonempty forward words of length <= depth fixing t's identity, shortest first.

    By the theorem: [L^1 .. L^depth] for F[1,2], [R^1 .. R^depth] for
    F[0,0], [] for every other tree.  Proof.  On the reals
    L(x) - x = (phi - 1)(x - phi^3) and R(x) - x = phi*x, and both maps
    keep (phi^3, oo) and (-oo, 0) invariant, so outside [0, phi^3] every
    atom moves a value monotonically away: a forward word W fixes
    z = a + b*phi only if 0 <= z <= phi^3.  The maps have coefficients
    in Z[phi], so Galois conjugation carries W(z) = z to W'(z') = z',
    and it turns L and R into the contractions x -> -x/phi - 1/phi^2 and
    x -> x/phi^2, which both map [-1/phi^2, 0] into itself; so does W',
    whose one fixed point z' lies there.  Then b*sqrt(5) = z - z' lies in
    [0, phi^3 + 1/phi^2] = [0, 4.62..], so b is 0, 1 or 2, and the two
    bounds leave only (a, b) = (0, 0) and (1, 2).  At 0, L gives
    -phi^2 < 0, from which no word returns, and R stays put; at phi^3,
    R gives phi^5 and L stays put.  An exhaustive pruned word search at
    depth 60 over all 25,422 window points with |b| <= 3000 found only
    these two.  The oracle is `verify.check_self_containment`.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    atom = {(1, 2): Atom.L, (0, 0): Atom.R}.get((t.a, t.b))
    if atom is None:
        return []
    return [MapWord((atom,) * k) for k in range(1, depth + 1)]


def _inverse_steps(front: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The identities one step from the frontier, on bare int pairs: all L^-1 images, then all R^-1 images."""
    return [(b - a, a + 1) for a, b in front] + [(2 * a - b, b - a) for a, b in front]


def _conjugate_gap(t: FibTree) -> tuple[int, int, int] | None:
    """(side, x, y): sigma(t) lies on that side of I = [-1/phi^2, 0] at distance x + y*phi > 0, or None inside I."""
    p, q = t.a + t.b, -t.b  # sigma(a + b*phi) = p + q*phi
    if _sign(p, q) > 0:
        return 1, p, q
    if _sign(p + 2, q - 1) < 0:  # sigma(t) + 1/phi^2 < 0, with 1/phi^2 = 2 - phi
        return -1, -p - 2, 1 - q
    return None


def _never_meet(t1: FibTree, t2: FibTree) -> bool:
    """The conjugate-gap certificate of `least_upper_bound`: True proves that t1 and t2 have no common ancestor.

    `goldring._phi_log` gives the least m with phi^m*(d1 + c) >= d2 and
    phi^m, so phi^m*d1 takes four products and the parity step additions.
    """
    g1, g2 = _conjugate_gap(t1), _conjugate_gap(t2)
    if g1 is None or g2 is None:
        return False
    (s1, x1, y1), (s2, x2, y2) = g1, g2
    m, f, g = _phi_log(x1 + 2, y1 - 1, x2, y2)  # d1 + c = (x1 + 2) + (y1 - 1)*phi
    q0, q1 = f * x1 + g * y1, f * y1 + g * (x1 + y1)  # phi^m d1
    if (m - (s1 != s2)) & 1:
        q0, q1 = q1, q0 + q1
    return _sign(q0 - x2 - 2, q1 - y2 + 1) > 0  # phi^m d1 > d2 + c


def least_upper_bound(t1: FibTree, t2: FibTree, depth: int) -> list[FibTree]:
    """Nearest common ancestors found within the given inverse-word depth.

    Widens both inverse-word radii one step at a time, on bare (a, b)
    int pairs, until the two ancestor sets first meet, then returns the
    trees of that intersection, in sorted (a, b) order, that contain no
    other tree of it (containment decided by is_subtree).  Stopping at
    the first nonempty radius keeps far-off incomparable ancestors out of
    the answer, but it can stop short of the larger tree of a comparable
    pair: F[163,264] sits inside F[-1,2] at level 12, yet at depth 8 the
    answer is [F[3,0]], met at radius 6 before F[-1,2] is reached at
    radius 8.

    Before the search, a certificate decides most pairs that have no
    common ancestor at any radius; for them the answer is [] at once,
    the answer the search gives, and it proves that no upper bound
    exists.  Let sigma be Galois conjugation (phi -> -1/phi), on int
    pairs sigma(a, b) = (a + b, -b).  The forward maps L(z) = phi*z - phi^2
    and R(z) = phi^2*z conjugate to contractions with ratios -1/phi and
    1/phi^2, and both map I = [-1/phi^2, 0] into itself.  If t sits in x
    by a forward word W of level n = #L + 2#R (so #L = n mod 2), then
    sigma t = W'(sigma x), W' is a similarity with ratio (-1)^n phi^-n,
    and W'(I) lies in I, an interval of length c = 1/phi^2 = 2 - phi.
    With D = dist(sigma x, I) and d = dist(sigma t, I), the distance
    phi^-n*D from sigma t to W'(I) is at least d and at most d + c, so
    phi^n*d <= D <= phi^n*(d + c); and when d > 0, sigma x lies on the
    side side(sigma t)*(-1)^n of I.  So when d1, d2 > 0 a common
    ancestor needs an integer m = n1 - n2 with
    - m = [side1 != side2] (mod 2),
    - phi^m*d1 <= d2 + c,
    - d2 <= phi^m*(d1 + c).
    `_never_meet` finds the least m with phi^m*(d1 + c) >= d2 by
    `goldring._phi_log`, steps to the right parity, and tests the one
    remaining inequality, which only gets harder as m grows.  The search
    still runs when sigma t lies in I (F[1,2], F[0,0], F[u(k), v(k)]) or
    when such an m exists; an empty list from it means nothing was found
    within the depth, not that no upper bound exists.

    Each frontier is a list: radius d steps every identity of radius
    d - 1, the images W^-1(t) of the 2^(d-1) inverse words of that
    length, repeats included, and records them in the ancestor set.
    The set A(d) = {W^-1(t) : |W| <= d} does not depend on which
    repeats are stepped, so the meeting radius, the intersection and
    the answer are those of a search that steps each identity once.
    Repeats arise where two inverse words send t to one identity: on the
    lineages of F[1,2] and F[0,0], which L^-1 and R^-1 fix, and at the
    points where two words' affine maps agree, such as F[-11,-18], whose
    L^-4 and R^-3 images are both F[1,-2].  The frontier at radius d
    holds exactly 2^d pairs, so a tree's search steps fewer than 2^(d+1)
    pairs in all, and A(d) holds up to 2^(d+1) identities: the cost
    doubles with each level of depth.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if _never_meet(t1, t2):
        return []
    front1, front2 = [(t1.a, t1.b)], [(t2.a, t2.b)]
    seen1, seen2 = set(front1), set(front2)
    for _ in range(depth):
        if not seen1.isdisjoint(seen2):
            break
        front1, front2 = _inverse_steps(front1), _inverse_steps(front2)
        seen1.update(front1)
        seen2.update(front2)
    common = sorted(seen1 & seen2)
    if not common:
        return []
    trees = [FibTree(a, b) for a, b in common]
    return [x for x in trees if not any(y != x and is_subtree(y, x) for y in trees)]
