"""Machine-checkable property suites behind the `verify` CLI subcommand.

Every check returns a list of failure records (empty means pass), so the
CLI can emit one machine-readable report and a nonzero exit code on any
failure.  The structural facts are all exact; no tolerances anywhere.
The decimal oracles here are the one sanctioned use of approximate
golden-ratio values: a 50-digit scaled integer, cross-derived from the
stdlib decimal square root rather than from the integer-sqrt path used
by the library itself.

The library computes each fact by one closed form and never re-checks
it; the second route to each fact lives here, in the check for it.
Where that route is a function, it is the one copy: the module tests
import it and keep none of their own.

    oracle                    second route to                        tests that import it
    beatty_oracle             u(n) = floor(n*phi)                    test_wythoff
    gold_sign_oracle          the sign of a + b*phi                  (the checks only)
    verify_lemma_shift        the shift-lemma cutoff                 test_represent
    primitive_pairs_in_tree   find_sequence's primitive nodes        test_represent, test_warray
    word_by_upward_walk       is_subtree's witness word              test_order
    first_levels              is_subtree's witness level             test_order
    fixing_words              self_containment                       test_order
    ancestor_rings            least_upper_bound's ancestor sets      test_order
    nearest_common_ancestors  least_upper_bound                      test_order

`tests/test_source_hygiene.py` holds each oracle apart from the library
code it checks: none of them names that code.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from decimal import Decimal, localcontext
from itertools import islice, product

from .algebra import scalar_mul, tree_sum
from .fibword import U, V, letter_at, u_count, v_count, word
from .goldring import ONE, PHI, Atom, GoldInt, MapWord, _phi_log, _sign, fib, phi_pow
from .order import _never_meet, _word_to, is_subtree, least_upper_bound, self_containment, subtree_at
from .represent import TreeClass, classify, count_occurrences, find_interval_level, find_sequence
from .tree import FibTree, NodeRef, branch_sequence, build_levels, children_labels, node_label, parent_label, u_nodes
from .warray import hofstadter_g, hofstadter_levels, wythoff_array
from .wythoff import FibSeq, u, v

ORACLE_DIGITS = 50
_SCALE = 10**ORACLE_DIGITS

# floor(sqrt(5) * 10**50), via decimal arithmetic at guard precision, and floor(phi * 10**50).
with localcontext() as _ctx:
    _ctx.prec = ORACLE_DIGITS + 40
    _SQRT5_SCALED = int(Decimal(5).sqrt() * _SCALE)
_PHI_SCALED = (_SCALE + _SQRT5_SCALED) // 2

# Fixture: ranks -6..8 of the extended pair table.
TABLE_RANKS = list(range(-6, 9))
TABLE_U = [-10, -9, -7, -5, -4, -2, -1, 1, 3, 4, 6, 8, 9, 11, 12]
TABLE_V = [-16, -14, -11, -8, -6, -3, -1, 2, 5, 7, 10, 13, 15, 18, 20]


def beatty_oracle(n: int) -> int:
    """floor(n * phi) from the 50-digit decimal constant; needs n != 0."""
    return (n * _PHI_SCALED) // _SCALE


def gold_sign_oracle(a: int, b: int) -> int:
    """Sign of a + b*phi from the 50-digit decimal constant."""
    val = 2 * a * _SCALE + b * (_SCALE + _SQRT5_SCALED)
    return (val > 0) - (val < 0)


def _fail(check: str, detail: str) -> dict:
    return {"check": check, "detail": detail}


# ---------------------------------------------------------------- labels


def check_consecutive_labels(max_level: int = 20) -> list[dict]:
    """Rule-built levels 0..max_level of the 121 trees with |a|, |b| <= 5 equal the closed-form intervals exactly.

    Also checks that node_label's interval form lo + pos - 1 equals the
    Wythoff form lo - 1 + u(u_count(pos)) or lo - 1 + v(v_count(pos)):
    the two differ only through pos, so one pass over the positions of
    the widest level covers every tree and level built here.  Each
    position's letter comes from the concatenation word, not from
    `letter_at`, which is itself defined by the u-branch's equation.
    """
    failures = []
    for pos, letter in enumerate(word(max_level), 1):
        if letter == U:
            via_wythoff = u(u_count(pos))
        else:
            via_wythoff = v(v_count(pos))
        if via_wythoff != pos:
            failures.append(_fail("wythoff-labels", f"position {pos}: Wythoff form gives {via_wythoff}"))
            break
    for a, b in product(range(-5, 6), repeat=2):
        t = FibTree(a, b)
        for n, row in enumerate(build_levels(t, max_level)):
            labels = [node[0] for node in row]
            lo, hi = t.lo(n), t.hi(n)
            if labels != list(range(lo, hi + 1)):
                failures.append(
                    _fail("consecutive-labels", f"{t} level {n}: rules give {labels[:4]}.., interval [{lo}..{hi}]")
                )
            if "".join(node[1] for node in row) != word(n):
                failures.append(_fail("level-pattern", f"{t} level {n}: pattern mismatch"))
    return failures


def check_worked_example() -> list[dict]:
    """The F[0,1] level-5 anchor: label -2 at position 6, parent -1, v-child -3."""
    failures = []
    t = FibTree(0, 1)
    ref = NodeRef(5, 6)
    got = node_label(t, ref)
    if got != (-2, U):
        failures.append(_fail("example-node", f"node (5,6) gave {got}, want (-2, u)"))
    if parent_label(t, ref) != -1:
        failures.append(_fail("example-parent", f"parent gave {parent_label(t, ref)}"))
    kids = children_labels(t, ref)
    if kids != [(-4, U), (-3, V)]:
        failures.append(_fail("example-children", f"children gave {kids}"))
    if t.lo(5) != -7 or t.hi(5) != 5:
        failures.append(_fail("example-interval", f"level 5 is [{t.lo(5)}..{t.hi(5)}]"))
    return failures


# --------------------------------------------------------------- wythoff


def check_table_fixture() -> list[dict]:
    failures = []
    for rank, uu, vv in zip(TABLE_RANKS, TABLE_U, TABLE_V):
        if u(rank) != uu or v(rank) != vv:
            failures.append(
                _fail("pair-table", f"rank {rank}: got ({u(rank)},{v(rank)}), want ({uu},{vv})")
            )
    return failures


def check_wythoff_identities() -> list[dict]:
    """v = u + n and v = u(u(n)) + 1 on |n| <= 10^4; Beatty floor vs decimal oracle on 1 <= |n| <= 10^6."""
    failures = []
    for n in range(-10**4, 10**4 + 1):
        un = u(n)
        if v(n) != un + n:
            failures.append(_fail("v-from-u", f"n={n}"))
            break
        if v(n) != u(un) + 1:
            failures.append(_fail("v-from-uu", f"n={n}"))
            break
    for n in range(1, 10**4 + 1):
        if u(-n) != -u(n) - 1 or v(-n) != -v(n) - 1:
            failures.append(_fail("reflection", f"n={n}"))
            break
    for n in range(1, 10**6 + 1):
        if u(n) != beatty_oracle(n) or u(-n) != beatty_oracle(-n):
            failures.append(_fail("beatty-oracle", f"n={n}: u={u(n)} oracle={beatty_oracle(n)}"))
            break
    return failures


def check_complementarity() -> list[dict]:
    """Each positive integer <= 10^5 is hit by exactly one of u, v on positive ranks."""
    limit = 10**5
    seen = bytearray(limit + 1)
    failures = []
    n = 1
    while True:
        hit = False
        for val in (u(n), v(n)):
            if val <= limit:
                hit = True
                seen[val] += 1
        if not hit:
            break
        n += 1
    bad = [m for m in range(1, limit + 1) if seen[m] != 1]
    if bad:
        failures.append(_fail("complementarity", f"first miscovered: {bad[:5]}"))
    return failures


# ----------------------------------------------------------------- group


def check_group_laws() -> list[dict]:
    """Commutativity, associativity, identity and inverse on 1,000 random triples, |a|, |b| <= 10^6, seed 20260808."""
    failures = []
    rng = random.Random(20260808)
    zero = FibTree(0, 0)
    for _ in range(1000):
        t1, t2, t3 = (FibTree(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(3))
        if tree_sum(t1, t2) != tree_sum(t2, t1):
            failures.append(_fail("commutativity", f"{t1} {t2}"))
        if tree_sum(tree_sum(t1, t2), t3) != tree_sum(t1, tree_sum(t2, t3)):
            failures.append(_fail("associativity", f"{t1} {t2} {t3}"))
        if tree_sum(t1, zero) != t1:
            failures.append(_fail("identity", f"{t1}"))
        if tree_sum(t1, scalar_mul(-1, t1)) != zero:
            failures.append(_fail("inverse", f"{t1}"))
    return failures


def check_superposition() -> list[dict]:
    """Rule-built levels added node by node, minus those of the base tree F[0,0], are the sum tree's.

    20 random pairs with |a|, |b| <= 50, seed 97, over levels 0..12.
    """
    failures = []
    rng = random.Random(97)
    base = build_levels(FibTree(0, 0), 12)
    for _ in range(20):
        t1 = FibTree(rng.randint(-50, 50), rng.randint(-50, 50))
        t2 = FibTree(rng.randint(-50, 50), rng.randint(-50, 50))
        built1, built2, summed = (build_levels(t, 12) for t in (t1, t2, tree_sum(t1, t2)))
        for n in range(13):
            added = [x[0] + y[0] - z[0] for x, y, z in zip(built1[n], built2[n], base[n])]
            labels = [node[0] for node in summed[n]]
            if added != labels:
                failures.append(
                    _fail("superposition", f"superposition mismatch at level {n}: {added[:4]}.. vs {labels[:4]}..")
                )
                break
    if tree_sum(FibTree(0, 1), FibTree(1, 1)) != FibTree(1, 2):
        failures.append(_fail("sum-anchor", "F[0,1] + F[1,1] != F[1,2]"))
    return failures


# ----------------------------------------------------------- represent


def check_classification() -> list[dict]:
    failures = []
    anchors = [
        (FibTree(0, 1), TreeClass.REPRESENTS_Z),
        (FibTree(0, 0), TreeClass.NONPOSITIVE_SIDE),
        (FibTree(1, 2), TreeClass.POSITIVE_SIDE),
    ]
    for t, want in anchors:
        if classify(t) is not want:
            failures.append(_fail("classify", f"{t} -> {classify(t)}, want {want}"))
    # Both boundaries, a + b*phi = 0 at F[0,0] and = phi^3 at F[1,2], against the decimal oracle.
    for a in range(-60, 61):
        for b in range(-60, 61):
            low, high = gold_sign_oracle(a, b), gold_sign_oracle(a - 1, b - 2)
            if low <= 0:
                want = TreeClass.NONPOSITIVE_SIDE
            else:
                want = TreeClass.POSITIVE_SIDE if high >= 0 else TreeClass.REPRESENTS_Z
            if classify(FibTree(a, b)) is not want:
                failures.append(_fail("classify-grid", f"F[{a},{b}] -> {classify(FibTree(a, b))}, want {want}"))
    return failures


SAMPLE_FULL_TREES = (FibTree(0, 1), FibTree(1, 1), FibTree(-1, 2), FibTree(1, 0))


def check_find_sequence() -> list[dict]:
    """Every seed |c|, |d| <= 10 is located in each sample tree, 10 branch terms replay, and its root is primitive.

    A primitive node is a u-node under a u-node: its parent's position
    u_count(pos) carries a u.
    """
    failures = []
    for t in SAMPLE_FULL_TREES:
        for c, d in product(range(-10, 11), repeat=2):
            s = FibSeq(c, d)
            try:
                occ = find_sequence(t, s)
                got = branch_sequence(t, NodeRef(occ.level, occ.pos), 10)
            except ValueError as exc:
                failures.append(_fail("find-sequence", f"{t} {s}: {exc}"))
                continue
            want = [s.term(occ.shift + k) for k in range(10)]
            if got != want:
                failures.append(_fail("find-sequence-replay", f"{t} {s}: {got} vs {want}"))
            if not occ.primitive or letter_at(u_count(occ.pos)) != U:
                failures.append(_fail("find-sequence-primitive", f"{t} {s}: node at {occ} is not primitive"))
    return failures


def check_zero_occurrences() -> list[dict]:
    """The zero sequence occurs once in each sample tree, counted over rule-built levels 0..15."""
    failures = []
    for t in SAMPLE_FULL_TREES:
        n = count_occurrences(t, FibSeq(0, 0), 15)
        if n != 1:
            failures.append(_fail("zero-count", f"{t}: {n} occurrences up to level 15"))
    return failures


def check_interval_levels() -> list[dict]:
    failures = []
    t = FibTree(0, 1)
    anchors = [((-7, 5), 5), ((0, 0), 0), ((-100, 100), 12)]
    for (lo, hi), want in anchors:
        got = find_interval_level(t, lo, hi)
        if got != want:
            failures.append(_fail("interval-level", f"[{lo}..{hi}] -> {got}, want {want}"))
    return failures


def primitive_pairs_in_tree(t: FibTree, n_max: int) -> list[tuple[tuple[int, int], int, int]]:
    """All (pair, level, pos) of u-nodes under u-node parents, up to n_max.

    Brute force over the rule-built levels; each such node roots a fresh
    ascending branch seeded by (label, parent label + label), the pair
    that `find_sequence` locates by its closed-form scan.
    """
    return [
        ((label, parent + label), n, pos)
        for n, pos, label, parent, parent_letter in u_nodes(t, n_max)
        if parent_letter == U
    ]


def verify_lemma_shift(s: FibSeq, i: int, n_max: int) -> int:
    """Smallest n1 <= n_max with u(i + s.term(n)) == u(i) + s.term(n+1) for all n in n1..n_max.

    The identity stabilizes because s.term(n)*phi - s.term(n+1) shrinks
    geometrically; this returns the empirical stabilization point, the
    counterpart of the cutoff that `represent.first_witness` proves.
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


def check_lemma_witnesses() -> list[dict]:
    """Shift-identity stabilization, and uniqueness of the zero-pair level; seed 11.

    The shift identity on 50 random seeds |c|, |d| <= 20 and shifts
    |i| <= 50 stabilizes by n = 30; each of 20 random RepresentsZ trees
    with |a|, |b| <= 50 holds the zero pair at one level of 1..40.
    """
    failures = []
    rng = random.Random(11)
    done = 0
    while done < 50:
        s = FibSeq(rng.randint(-20, 20), rng.randint(-20, 20))
        i = rng.randint(-50, 50)
        if s.is_zero() or i == 0:
            continue
        done += 1
        try:
            n1 = verify_lemma_shift(s, i, 30)
        except ValueError as exc:
            failures.append(_fail("lemma-shift", f"{s} i={i}: {exc}"))
            continue
        if not 0 <= n1 <= 30:
            failures.append(_fail("lemma-shift", f"{s} i={i}: n1={n1} out of range"))
    done = 0
    while done < 20:
        t = FibTree(rng.randint(-50, 50), rng.randint(-50, 50))
        if classify(t) is not TreeClass.REPRESENTS_Z:
            continue
        done += 1
        edge = FibSeq(t.a - 1, t.b - 2)
        hits = [
            n
            for n in range(1, 41)
            if 1 <= 1 - edge.term(n - 2) <= fib(n)
            and u(1 - edge.term(n - 2)) + edge.term(n - 1) == 0
        ]
        if len(hits) != 1:
            failures.append(_fail("zero-level-unique", f"{t}: hits at {hits}"))
    return failures


# ------------------------------------------------------------------ order


def word_by_upward_walk(level: int, pos: int) -> MapWord:
    """Map word from the root identity to the u-node at (level, pos), walking upward.

    A u-node under a u-parent was reached by L from the parent; under a
    v-parent, by R from the grandparent (v-nodes have u-parents always).
    The parent of position q sits at position u_count(q) one level up.
    Collected deepest-first, which is exactly the function-composition
    order the word applies in.  The library's `order._word_to` walks
    top-down by subtree sizes instead.
    """
    atoms: list[Atom] = []
    n, q = level, pos
    while n > 0:
        k = u_count(q)
        if letter_at(k) == U:
            atoms.append(Atom.L)
            n, q = n - 1, k
        else:
            atoms.append(Atom.R)
            n, q = n - 2, u_count(k)
    return MapWord(tuple(atoms))


def first_levels(nodes: Iterable[tuple[int, int, int, int, str]]) -> dict[tuple[int, int], int]:
    """{(label, parent label): first level} over the u-node rows of `u_nodes`, a scan of rule-built levels.

    A tree F[c, d] other than the host sits in it at the first level
    with a u-node labeled c under a parent labeled d - c: that u-node's
    v-child carries c + (d - c) = d.
    """
    first: dict[tuple[int, int], int] = {}
    for n, _, label, above_label, _ in nodes:
        first.setdefault((label, above_label), n)
    return first


def check_order_brute_force() -> list[dict]:
    """is_subtree, with no cap, agrees with scanning rule-built levels 1..12 for the witness node.

    Every decided witness among the 81 trees with |a|, |b| <= 4 sits at
    level 8 or less, inside the scan; one past it would show as a failure.

    The scan itself, `u_nodes`, is first held against the closed forms:
    the u positions of each level, and at each the node label, the parent
    label and the parent's letter.  The witness word of every u position
    is held against the upward walk, `word_by_upward_walk`.
    """
    failures = []
    trees = [FibTree(a, b) for a, b in product(range(-4, 5), repeat=2)]
    # (level, pos, parent letter) of every u position: the same in every tree
    positions = [
        (n, pos, letter_at(u_count(pos)))
        for n in range(1, 13)
        for pos in range(1, fib(n + 2) + 1)
        if letter_at(pos) == U
    ]
    for n, pos, _ in positions:
        got, want = _word_to(n, pos), word_by_upward_walk(n, pos)
        if got != want:
            failures.append(_fail("witness-word", f"u-node ({n}, {pos}): word {got}, upward walk {want}"))
    for parent in trees:
        scanned = list(u_nodes(parent, 12))
        closed = [
            (n, pos, node_label(parent, NodeRef(n, pos))[0], parent_label(parent, NodeRef(n, pos)), above)
            for n, pos, above in positions
        ]
        if scanned != closed:
            bad = next((x, y) for x, y in zip(scanned + [None], closed + [None]) if x != y)
            failures.append(_fail("u-nodes", f"{parent}: scan gives {bad[0]}, closed form {bad[1]}"))
        first = first_levels(scanned)
        for child in trees:
            witness = is_subtree(child, parent)
            brute = 0 if child == parent else first.get((child.a, child.b - child.a))
            got = witness.level if witness else None
            if got != brute:
                failures.append(
                    _fail("subtree-brute", f"{child} in {parent}: decided {got}, brute {brute}")
                )
    return failures


def check_order_antisymmetry() -> list[dict]:
    """No two distinct trees of the 169 with |a|, |b| <= 6 contain each other."""
    failures = []
    trees = [FibTree(a, b) for a, b in product(range(-6, 7), repeat=2)]
    contains = {(x, y): is_subtree(y, x) is not None for x, y in product(trees, repeat=2) if x != y}
    for x, y in product(trees, repeat=2):
        if x != y and contains[(x, y)] and contains[(y, x)]:
            failures.append(_fail("antisymmetry", f"{x} and {y} mutually contained"))
    return failures


def fixing_words(t: FibTree, depth: int) -> list[MapWord]:
    """Every nonempty forward word of length <= depth that fixes t's identity, shortest first, found unpruned.

    Layer k holds the values, as bare int pairs, of all 2^k words of
    length k, ordered by their atoms read as k bits (L = 0, R = 1, first
    atom highest), so layer k + 1 is L, then R, applied to every value of
    layer k: L(a, b) = (b - 1, a + b - 1), R(a, b) = (a + b, a + 2b).
    """
    words, layer = [], [(t.a, t.b)]
    for k in range(1, depth + 1):
        layer = [(y - 1, x + y - 1) for x, y in layer] + [(x + y, x + 2 * y) for x, y in layer]
        words += [
            MapWord(tuple(Atom.R if i >> (k - 1 - j) & 1 else Atom.L for j in range(k)))
            for i, z in enumerate(layer)
            if z == (t.a, t.b)
        ]
    return words


def check_self_containment() -> list[dict]:
    """self_containment of the 169 trees with |a|, |b| <= 6 against `fixing_words` up to length 10."""
    failures = []
    for a, b in product(range(-6, 7), repeat=2):
        want = fixing_words(FibTree(a, b), 10)
        got = self_containment(FibTree(a, b), 10)
        if got != want:
            failures.append(_fail("self-containment", f"F[{a},{b}]: {len(got)} words, enumeration {len(want)}"))
    return failures


def check_order_map_consistency() -> list[dict]:
    """Every forward word up to length 6 lands on an actual subtree of its source tree."""
    failures = []
    for t in (FibTree(0, 1), FibTree(1, 0), FibTree(-1, 2), FibTree(2, -1)):
        for length in range(1, 7):
            for atoms in product((Atom.L, Atom.R), repeat=length):
                w = MapWord(atoms)
                child = subtree_at(t, w)
                if is_subtree(child, t) is None:
                    failures.append(_fail("map-consistency", f"{t} via {w} -> {child}"))
    return failures


def ancestor_rings(t: FibTree) -> Iterator[set[tuple[int, int]]]:
    """A(0), A(1), ...: the (a, b) of W^-1(t) over all inverse words W of length <= r.

    The inverses come from the ring: L(z) = phi*z - phi^2 and
    R(z) = phi^2*z, with phi^-1 = phi - 1 and phi^-2 = 2 - phi, give for
    z = a + b*phi
        L^-1(z) = (z + phi^2)*phi^-1 = z*(phi - 1) + phi = (b - a) + (a + 1)*phi,
        R^-1(z) = z*phi^-2 = z*(2 - phi) = (2a - b) + (b - a)*phi,
    stepped here on int pairs.  Layer r lists the images of all 2^r
    inverse words of length r, repeats included; A(r) is A(r - 1) with
    layer r added.
    """
    layer, ring = [(t.a, t.b)], {(t.a, t.b)}
    while True:
        yield ring
        layer = [step for a, b in layer for step in ((b - a, a + 1), (2 * a - b, b - a))]
        ring = ring.union(layer)


def nearest_common_ancestors(rings1: Iterable[set], rings2: Iterable[set]) -> list[FibTree]:
    """The trees of the first meeting ring pair that contain no other tree of it, in sorted (a, b) order; [] if none meets.

    The rings are taken pairwise, A1(r) with A2(r), so a search to depth d
    passes the rings of radius 0..d.  Containment is `is_subtree`'s.
    """
    common = next((c for c in map(set.intersection, rings1, rings2) if c), set())
    trees = [FibTree(*x) for x in sorted(common)]
    return [x for x in trees if not any(y != x and is_subtree(y, x) is not None for y in trees)]


def check_lub() -> list[dict]:
    """Three documented joins, then every pair of the 49 trees with |a|, |b| <= 3; search depth 4.

    Each tree's `ancestor_rings` are built to radius 8.  At depth 4 the
    answer must be `nearest_common_ancestors` of the rings to radius 4
    (`lub-oracle`); and every pair that the conjugate-gap certificate
    `order._never_meet` decides must have disjoint rings at radius 8
    (`lub-never-meet`).
    """
    failures = []
    depth, radius = 4, 8
    got = least_upper_bound(FibTree(-1, 2), FibTree(-3, 5), depth)
    if got != [FibTree(18, -10)]:
        failures.append(_fail("lub", f"join of F[-1,2], F[-3,5]: {[str(t) for t in got]}"))
    got = least_upper_bound(FibTree(0, 0), FibTree(1, 2), 2)
    if got != [FibTree(0, 1)]:
        failures.append(_fail("lub", f"join of F[0,0], F[1,2]: {[str(t) for t in got]}"))
    t = FibTree(4, -3)
    if least_upper_bound(t, t, depth) != [t]:
        failures.append(_fail("lub-reflexive", f"{t}"))
    trees = [FibTree(a, b) for a, b in product(range(-3, 4), repeat=2)]
    rings = {t: list(islice(ancestor_rings(t), radius + 1)) for t in trees}
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            if _never_meet(t1, t2) and not rings[t1][radius].isdisjoint(rings[t2][radius]):
                failures.append(_fail("lub-never-meet", f"{t1}, {t2}: decided apart, yet meet within radius {radius}"))
    for i, t1 in enumerate(trees):
        for t2 in trees[i + 1 :]:
            want = nearest_common_ancestors(rings[t1][: depth + 1], rings[t2][: depth + 1])
            got = least_upper_bound(t1, t2, depth)
            if got != want:
                failures.append(_fail("lub-oracle", f"join of {t1}, {t2}: {[str(t) for t in got]}"))
                return failures
    return failures


def check_commutator() -> list[dict]:
    """L^p R^q - R^q L^p is the constant phi^3 (phi^p - 1)(phi^2q - 1).

    For 0 <= p, q <= 6, at 100 random points |a|, |b| <= 10^6, seed 5.
    """
    failures = []
    rng = random.Random(5)
    points = [GoldInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(100)]
    one = GoldInt(1, 0)
    for p, q in product(range(7), repeat=2):
        lr = MapWord((Atom.L,) * p + (Atom.R,) * q)
        rl = MapWord((Atom.R,) * q + (Atom.L,) * p)
        want = GoldInt(1, 2) * (phi_pow(p) - one) * (phi_pow(2 * q) - one)
        for z in points:
            if lr.apply(z) - rl.apply(z) != want:
                failures.append(_fail("commutator", f"p={p} q={q} z={z}"))
                break
    return failures


def check_order_sum_incompatibility() -> list[dict]:
    """Containment does not survive tree addition: the standard counterexample."""
    failures = []
    if is_subtree(FibTree(0, 0), FibTree(0, 1)) is None:
        failures.append(_fail("sum-incompat", "F[0,0] not inside F[0,1]"))
    if is_subtree(FibTree(0, 0), FibTree(1, 1)) is None:
        failures.append(_fail("sum-incompat", "F[0,0] not inside F[1,1]"))
    if is_subtree(FibTree(0, 0), FibTree(1, 2)) is not None:
        failures.append(_fail("sum-incompat", "F[0,0] inside F[1,2]"))
    return failures


# ------------------------------------------------------------------ array


def check_hofstadter() -> list[dict]:
    """The region's levels 0..10 read 1, 2, 3, ...; g by its recursion equals the closed form and the parent labels of F[1,2].

    The recursion g(n) = n - g(g(n-1)), for n <= 10^4, is built here
    bottom-up and never goes through `hofstadter_g` or the u-count it equals.
    """
    failures = []
    g_max = 10**4
    flat = []
    for lo, hi in hofstadter_levels(10):
        flat.extend(range(lo, hi + 1))
    if flat != list(range(1, fib(12) + 1)):
        failures.append(_fail("hofstadter-concat", "levels 0..10 misread"))
    recursion = [0]
    for n in range(1, g_max + 1):
        recursion.append(n - recursion[recursion[n - 1]])
    for n in range(g_max + 1):
        if hofstadter_g(n) != recursion[n]:
            failures.append(_fail("g-closed-form", f"n={n}: {hofstadter_g(n)} vs recursion {recursion[n]}"))
            break
    t = FibTree(1, 2)
    for n in range(1, g_max + 1):
        g = recursion[n]
        m = 1
        while fib(m + 2) < n:
            m += 1
        for level in (m, m + 1):
            if parent_label(t, NodeRef(level, n)) != g:
                failures.append(
                    _fail("g-parent", f"n={n} level={level}: {parent_label(t, NodeRef(level, n))} vs g={g}")
                )
                break
    return failures


def check_wythoff_array() -> list[dict]:
    """The 40 x 10 array: first rows, distinct increasing entries, 1..100 covered, rows 1..10 as branches of F[1,2]."""
    failures = []
    arr = wythoff_array(40, 10)
    if arr[0][:6] != (1, 2, 3, 5, 8, 13):
        failures.append(_fail("array-row1", f"{arr[0][:6]}"))
    if arr[1][:5] != (4, 7, 11, 18, 29):
        failures.append(_fail("array-row2", f"{arr[1][:5]}"))
    flat = [x for row in arr for x in row]
    if len(set(flat)) != len(flat):
        failures.append(_fail("array-distinct", "duplicate entries"))
    for row in arr:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            failures.append(_fail("array-monotone", f"row {row[:3]}.."))
    starts = [row[0] for row in arr]
    if any(starts[i] >= starts[i + 1] for i in range(len(starts) - 1)):
        failures.append(_fail("array-row-starts", "row starts not increasing"))
    missing = set(range(1, 101)) - set(flat)
    if missing:
        failures.append(_fail("array-cover", f"missing {sorted(missing)[:5]}"))
    t = FibTree(1, 2)
    for j in range(10):
        s = FibSeq(*arr[j][:2])
        try:
            occ = find_sequence(t, s)
        except ValueError as exc:
            failures.append(_fail("array-as-branches", f"row {j + 1}: {exc}"))
            continue
        if occ.pair != arr[j][:2]:
            failures.append(_fail("array-as-branches", f"row {j + 1}: pair {occ.pair}"))
    return failures


def check_gold_sign_oracle() -> list[dict]:
    """`goldring._sign`, the sign body behind `gold_sign`, `classify` and every search, on int pairs |a|, |b| <= 1000;
    `goldring._phi_log` on all positive z, w with coefficients in [-4, 4], against GoldInt powers of phi and the oracle."""
    for a, b in product(range(-1000, 1001), repeat=2):
        if _sign(a, b) != gold_sign_oracle(a, b):
            return [_fail("gold-sign-oracle", f"{a}{b:+d}*phi")]
    powers = {0: ONE}
    for k in range(1, 13):
        powers[k], powers[-k] = powers[k - 1] * PHI, powers[1 - k] * GoldInt(-1, 1)  # 1/phi = phi - 1
    positive = [GoldInt(a, b) for a, b in product(range(-4, 5), repeat=2) if gold_sign_oracle(a, b) > 0]
    return [
        _fail("phi-log", f"z = {z}, w = {w}: {got}, but the least power is phi^{m}")
        for z, w in product(positive, repeat=2)
        for m in [next(k for k in range(-12, 13) for x in [powers[k] * z - w] if gold_sign_oracle(x.a, x.b) >= 0)]
        if (got := _phi_log(z.a, z.b, w.a, w.b)) != (m, powers[m].a, powers[m].b)
    ]


# ------------------------------------------------------------------ suites

SUITES = {
    "labels": (check_consecutive_labels, check_worked_example),
    "wythoff": (
        check_table_fixture,
        check_wythoff_identities,
        check_complementarity,
        check_gold_sign_oracle,
    ),
    "group": (check_group_laws, check_superposition),
    "represent": (
        check_classification,
        check_interval_levels,
        check_find_sequence,
        check_zero_occurrences,
        check_lemma_witnesses,
    ),
    "order": (
        check_order_brute_force,
        check_order_antisymmetry,
        check_self_containment,
        check_order_map_consistency,
        check_lub,
        check_commutator,
        check_order_sum_incompatibility,
    ),
    "array": (check_hofstadter, check_wythoff_array),
}


def run_suite(name: str, max_level: int | None = None) -> tuple[int, list[dict]]:
    """Run one named suite; returns (checks run, failures)."""
    failures = []
    checks = SUITES[name]
    for check in checks:
        if check is check_consecutive_labels and max_level is not None:
            got = check(max_level=max_level)
        else:
            got = check()
        for f in got:
            f["suite"] = name
        failures.extend(got)
    return len(checks), failures


def run_suites(names: list[str], max_level: int | None = None) -> tuple[int, list[dict]]:
    total = 0
    failures = []
    for name in names:
        n, f = run_suite(name, max_level=max_level)
        total += n
        failures.extend(f)
    return total, failures
