import random
from collections import Counter
from itertools import count, islice, product

import pytest

from fibtree import order, represent
from fibtree.fibword import U
from fibtree.goldring import Atom, GoldInt, MapWord, fib, phi_pow
from fibtree.order import SubtreeWitness, _inverse_steps, _never_meet, _word_to, is_subtree, least_upper_bound, self_containment, subtree_at
from fibtree.tree import FibTree, NodeRef, node_label, parent_label, u_nodes
from fibtree.verify import ancestor_rings, first_levels, fixing_words, nearest_common_ancestors, word_by_upward_walk
from fibtree.wythoff import u

T01 = FibTree(0, 1)
T12 = FibTree(1, 2)
T00 = FibTree(0, 0)


def test_is_subtree_anchors():
    w = is_subtree(T00, T01)
    assert w is not None and w.level == 1
    w = is_subtree(T12, T01)
    assert w is not None and w.level == 2
    assert is_subtree(T00, T12) is None
    w = is_subtree(FibTree(163, 264), FibTree(-1, 2))
    assert w is not None and w.level == 12 and str(w.word) == "L L R R L L R R"


def test_is_subtree_reflexive_witness():
    # the witness scan finds level 0 itself: E_(-1) = b - a - 1 and D = b - a give u-count 1, and u(1) = 1
    strip = 10**999 + 7
    trees = [FibTree(a, b) for a in range(-40, 41) for b in range(-40, 41)]
    trees += [FibTree(1 - u(strip), strip), FibTree(10**3999 + 12345, 3 * 10**3999 + 1), FibTree(-7 * 10**3999, 5)]
    for t in trees:
        assert is_subtree(t, t) == is_subtree(t, t, 0) == SubtreeWitness(0, 1, MapWord())
    assert is_subtree(T01, T01, -1) is None  # not found up to a negative cap, like every other pair


def test_witness_word_and_node_are_consistent():
    pairs = [(T00, T01), (T12, T01), (FibTree(0, 1), FibTree(-1, 1)), (FibTree(1, 1), FibTree(-1, 2))]
    for child, parent in pairs:
        w = is_subtree(child, parent, level_cap=20)
        assert w is not None
        # word maps parent identity to child identity
        assert w.word.apply(parent.gold()) == child.gold()
        # the witness node carries the child's root label, on a u-node
        assert node_label(parent, NodeRef(w.level, w.pos)) == (child.a, U)
        assert parent_label(parent, NodeRef(w.level, w.pos)) == child.b - child.a


def test_subtree_at_anchors():
    assert subtree_at(T01, MapWord((Atom.L,))) == T00
    assert subtree_at(T01, MapWord((Atom.R,))) == T12
    assert subtree_at(T12, MapWord((Atom.L,))) == T12


def test_every_forward_word_lands_inside():
    for t in (T01, FibTree(2, -1)):
        for length in range(1, 5):
            for atoms in product((Atom.L, Atom.R), repeat=length):
                child = subtree_at(t, MapWord(atoms))
                assert is_subtree(child, t, level_cap=2 * length + 2) is not None


def test_self_containment_anchors():
    assert self_containment(T12, 4) == [MapWord((Atom.L,) * k) for k in range(1, 5)]
    assert self_containment(T00, 3) == [MapWord((Atom.R,) * k) for k in range(1, 4)]
    assert self_containment(T01, 8) == []


def test_self_containment_depth_validation():
    with pytest.raises(ValueError):
        self_containment(T01, 0)


def test_common_upper_bounds_of_the_known_join_form_an_orbit():
    # ROADMAP item 5: M(a, b) = (2a - b + 1, b - a) acts as z -> phi^-2 z + 1 and so fixes phi, the
    # identity F[0,1]; its orbit from the join F[18,-10] is a chain of common upper bounds of F[-1,2]
    # and F[-3,5], none inside another
    def m(z):
        return GoldInt(2 * z.a - z.b + 1, z.b - z.a)

    for z in (GoldInt(0, 0), GoldInt(18, -10), GoldInt(-7, 4), GoldInt(10**30, -3)):
        assert m(z) == phi_pow(-2) * z + GoldInt(1, 0)
    assert m(FibTree(0, 1).gold()) == FibTree(0, 1).gold()
    orbit = [GoldInt(18, -10)]
    for _ in range(5):
        orbit.append(m(orbit[-1]))
    bounds = [FibTree(z.a, z.b) for z in orbit]
    assert [(t.a, t.b) for t in bounds] == [(18, -10), (47, -28), (123, -75), (322, -198), (843, -520), (2207, -1363)]
    for t in bounds:
        assert is_subtree(FibTree(-1, 2), t, 200) is not None
        assert is_subtree(FibTree(-3, 5), t, 200) is not None
    assert all(is_subtree(x, y, 200) is None for x in bounds for y in bounds if x != y)


def test_lub_reflexive_and_validation():
    t = FibTree(4, -3)
    assert least_upper_bound(t, t, 3) == [t]
    with pytest.raises(ValueError):
        least_upper_bound(t, t, 0)


def test_lub_results_are_upper_bounds():
    for t1, t2 in [(FibTree(-1, 2), FibTree(-3, 5)), (T00, T12), (FibTree(0, 1), FibTree(1, 1))]:
        for g in least_upper_bound(t1, t2, 5):
            assert is_subtree(t1, g, level_cap=30) is not None
            assert is_subtree(t2, g, level_cap=30) is not None


# ---------------------------------------------------------------- reference scans
#
# Straight per-level forms of the searches: every level up to the cap for
# is_subtree here; for self_containment and least_upper_bound, the oracles
# of fibtree.verify.


def _reference_subtree(child, parent, cap):
    """(level, pos) of the first witness by the closed form at every level, or None."""
    if child == parent:
        return 0, 1
    c, d = child.a, child.b
    for n in range(1, cap + 1):
        k = (d - c) - (parent.lo(n - 1) - 1)
        if 1 <= k <= fib(n + 1) and parent.lo(n) - 1 + u(k) == c:
            return n, u(k)
    return None


def _assert_subtree_matches(child, parent, cap):
    got = is_subtree(child, parent, cap)
    want = _reference_subtree(child, parent, cap)
    assert (None if got is None else (got.level, got.pos)) == want, (child, parent, cap)
    if got is not None:
        assert got.word.apply(parent.gold()) == child.gold()
    return got


PARENTS = [
    T01,
    FibTree(1, 1),
    FibTree(-1, 2),
    FibTree(1, 0),
    FibTree(-60, 38),
    FibTree(377, -233),
    T12,  # on the upper strip edge: eps_n = 0 at every level
    T00,  # on the lower strip edge
    FibTree(3, 3),  # positive side
    FibTree(5, 40),
    FibTree(-2, 1),  # nonpositive side
    FibTree(4, -30),
]


def test_is_subtree_matches_reference_scan_random():
    rng = random.Random(20261018)
    for _ in range(1500):
        parent = rng.choice(PARENTS)
        if rng.random() < 0.2:
            parent = FibTree(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        roll = rng.random()
        if roll < 0.25:
            rank = rng.randint(-10**6, 10**6)  # the Wythoff pair at rank D, or next to it
            c = u(rank) + rng.choice((0, 0, 1, -1))
        elif roll < 0.35:
            rank, c = 0, rng.choice((0, -1, rng.randint(-40, 40)))  # D = 0
        elif roll < 0.7:
            rank, c = rng.randint(-60, 60), rng.randint(-40, 40)
        else:
            rank, c = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        cap = rng.choice((1, 2, 10, 40, 100, 300))
        _assert_subtree_matches(FibTree(c, c + rank), parent, cap)


def test_is_subtree_matches_reference_scan_on_planted_hits():
    rng = random.Random(77)
    for _ in range(300):
        parent = rng.choice(PARENTS)
        atoms = tuple(rng.choice((Atom.L, Atom.R)) for _ in range(rng.randint(1, 30)))
        child = subtree_at(parent, MapWord(atoms))
        got = _assert_subtree_matches(child, parent, rng.choice((60, 300)))
        assert got is not None


def test_is_subtree_matches_reference_scan_at_edge_cases():
    for parent in PARENTS:
        for c in range(-3, 3):
            for rank in (0, 1, -1, 2, 3, -3, 5, 8):
                for cap in (1, 2, 3, 7, 300):
                    _assert_subtree_matches(FibTree(c, c + rank), parent, cap)
        for rank in range(-30, 31):
            _assert_subtree_matches(FibTree(u(rank), u(rank) + rank), parent, 300)


def test_is_subtree_matches_reference_scan_on_thousand_digit_labels():
    rng = random.Random(1000)
    for _ in range(3):
        rank = rng.randint(10**999, 10**1000)
        for c in (u(rank), u(rank) + 1):
            _assert_subtree_matches(FibTree(c, c + rank), T01, 300)
        big = FibTree(-rng.randint(10**999, 10**1000), rng.randint(10**999, 10**1000))
        atoms = tuple(rng.choice((Atom.L, Atom.R)) for _ in range(12))
        assert _assert_subtree_matches(subtree_at(big, MapWord(atoms)), big, 40) is not None
    # a 10^3-digit rank is first in range near level 4790
    rank = 10**1000 + 7
    got = _assert_subtree_matches(FibTree(u(rank), u(rank) + rank), T01, 5000)
    assert got is not None and got.level > 4700


def test_is_subtree_matches_reference_scan_near_the_strip():
    # F[1 - u(b) + delta, +-b] with a 30- to 100-digit b: |eps_0| is about b, so the scan starts
    # near level log_phi(b), where a small guest can first sit; the caps lie past the answers
    # and the cutoffs, so the reference scans every level the jump skips
    rng = random.Random(1836)
    hits = 0
    for delta in range(-2, 3):
        for sign in (1, -1, 1, -1):
            digits = rng.randint(30, 100)
            b = rng.randint(10 ** (digits - 1), 10**digits)
            parent = FibTree(1 - u(b) + delta, sign * b)
            guests = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(8)]
            guests += [(u(rank), u(rank) + rank) for rank in rng.sample(range(-30, 31), 6)] + [(0, 0), (-1, -1)]
            for c, d in guests:
                hits += _assert_subtree_matches(FibTree(c, d), parent, b.bit_length() * 3 // 2 + 20) is not None
    assert hits > 50, hits


def test_is_subtree_matches_rule_built_levels_at_cap_20():
    cap = 20
    for parent in (T01, FibTree(-1, 2), FibTree(3, 3), FibTree(-2, 1)):
        first = first_levels(u_nodes(parent, cap))
        sampled = random.Random(str(parent)).sample(sorted(first), 300)
        grid = [(c, rank) for c in range(-15, 16) for rank in range(-15, 16)]
        for c, rank in sampled + grid:
            child = FibTree(c, c + rank)
            if child == parent:
                continue
            got = is_subtree(child, parent, cap)
            assert (got.level if got else None) == first.get((c, rank)), (child, parent)


def test_is_subtree_miss_costs_bit_length_not_cap(count_calls):
    # the scan's per-level primitives: sign tests, and u, which the scan need not call
    known = {(c, d) for c in range(-30, 31) for d in range(-30, 31)}
    misses = [(7, 4)] + [cd for cd in sorted(known) if is_subtree(FibTree(*cd), T01, 40) is None][::37]
    calls = count_calls("_sign", "u")
    for (c, d), cap in product(misses, (5000, None)):
        calls.clear()
        assert is_subtree(FibTree(c, d), T01, level_cap=cap) is None
        assert len(calls) <= 64, (c, d, cap, calls)


def test_is_subtree_hit_at_the_first_level_in_range_makes_no_u_call(count_calls):
    calls = count_calls("u")
    rng = random.Random(29)
    parents = [FibTree(a, b) for a in range(-5, 6) for b in range(-5, 6)]
    parents += [FibTree(rng.randint(-10**1000, 10**1000), rng.randint(-10**1000, 10**1000)) for _ in range(3)]
    words = [MapWord(w) for n in (1, 2, 3) for w in product((Atom.L, Atom.R), repeat=n)]
    checked = 0
    for parent in parents:
        for w in words:
            child = subtree_at(parent, w)
            rank = child.b - child.a
            first = next(represent._in_range(parent, rank, rank, -1))[0] + 1
            calls.clear()
            got = is_subtree(child, parent)
            if child != parent and got.level == first:
                assert calls == [], (child, parent, calls)
                checked += 1
    assert checked > 600, checked


@pytest.fixture(scope="module")
def witnesses() -> list[tuple[int, int]]:
    """(level, pos) of is_subtree witnesses, and of 2,000 random u-nodes on levels 0..60.

    The witnesses: every +-40 grid tree in three RepresentsZ hosts at cap 60; in a strip tree
    F[1 - u(b), b] with a 10^3-digit b, twelve planted subtrees and F[5,8] (level 4785); and a
    10^3-digit rank's pair in F[0,1] (level 4788).
    """
    found = set()
    for parent in (T01, FibTree(-1, 2), FibTree(-60, 38)):
        for a in range(-40, 41):
            for b in range(-40, 41):
                w = is_subtree(FibTree(a, b), parent, 60)
                if w is not None:
                    found.add((w.level, w.pos))
    b = 10**999 + 7
    strip = FibTree(1 - u(b), b)
    rng = random.Random(4790)
    for _ in range(12):
        child = subtree_at(strip, MapWord(tuple(rng.choice((Atom.L, Atom.R)) for _ in range(rng.randint(0, 30)))))
        w = is_subtree(child, strip, 60)
        found.add((w.level, w.pos))
    w = is_subtree(FibTree(5, 8), strip, 5000)
    assert w.level > 4700
    found.add((w.level, w.pos))
    rank = 10**1000 + 7
    w = is_subtree(FibTree(u(rank), u(rank) + rank), T01, 5000)
    assert w.level > 4700
    found.add((w.level, w.pos))
    for _ in range(2000):
        level = rng.randint(0, 60)
        found.add((level, u(rng.randint(1, fib(level + 1)))))  # level n holds F_(n+1) u's
    return sorted(found)


def test_witness_word_equals_the_upward_walk(witnesses):
    assert len(witnesses) > 1500
    for level, pos in witnesses:
        assert _word_to(level, pos) == word_by_upward_walk(level, pos), (level, pos)


def test_witness_word_makes_one_doubling_and_no_beatty_call(monkeypatch, count_calls, witnesses):
    # the walk reads subtree sizes off one _fib_pair(level); no u, u_count or letter_at call
    rng = random.Random(4787)
    deep = [(4787, u(k)) for k in (1, fib(4788), rng.randint(1, fib(4788)))]  # u-nodes: F_4788 u's at level 4787
    calls = count_calls("u", "u_count", "letter_at")
    # counted in order alone: _fib_pair recurses through goldring
    real_fib_pair = order._fib_pair
    monkeypatch.setattr(order, "_fib_pair", lambda n: calls.append(("_fib_pair", (n,))) or real_fib_pair(n))
    for level, pos in deep + witnesses:
        calls.clear()
        order._word_to(level, pos)
        assert [name for name, _ in calls] == ["_fib_pair"], (level, pos, calls)


def test_self_containment_matches_unpruned_enumeration():
    for a in range(-12, 13):
        for b in range(-12, 13):
            t = FibTree(a, b)
            assert self_containment(t, 8) == fixing_words(t, 8)
    rng = random.Random(12)
    big = [FibTree(rng.randint(-10**1000, 10**1000), rng.randint(-10**1000, 10**1000)) for _ in range(2)]
    big.append(FibTree(10**1000, -(10**1000 * 618033988) // 10**9))  # near z = 0
    for t in [T12, T00, T01, FibTree(1, 1), FibTree(-3, 5), FibTree(7, -4)] + big:
        for depth in (1, 2, 11, 12):
            assert self_containment(t, depth) == fixing_words(t, depth)


def test_self_containment_matches_unpruned_enumeration_in_the_strip():
    # F[1 - u(b), b] has z = 1 + frac(b*phi), inside the window [0, phi^3] that holds every fixed point
    for k in (3, 30, 1000):
        b = 10**k
        t = FibTree(1 - u(b), b)
        assert self_containment(t, 12) == fixing_words(t, 12) == []


def test_self_containment_check_catches_a_dropped_tree(monkeypatch):
    from fibtree import verify

    # at the check's own scale: words up to length 10, so R^1 .. R^10 fix F[0,0]
    assert verify.check_self_containment() == []
    real = verify.self_containment
    monkeypatch.setattr(verify, "self_containment", lambda t, depth: [] if t == T00 else real(t, depth))
    failures = verify.check_self_containment()
    assert failures == [{"check": "self-containment", "detail": "F[0,0]: 0 words, enumeration 10"}]


@pytest.fixture(scope="module")
def ring_lub():
    """ring_lub(t1, t2, depth): verify's nearest common ancestors, the oracle for least_upper_bound.

    Each tree's rings are built once for the module, and only as far as some case's first meeting radius."""
    built = {}

    def rings(t):
        done, more = built.setdefault(t, ([], ancestor_rings(t)))
        for r in count():
            if r == len(done):
                done.append(next(more))
            yield done[r]

    def lub(t1, t2, depth):
        return nearest_common_ancestors(islice(rings(t1), depth + 1), islice(rings(t2), depth + 1))

    return lub


def _small(rng):
    return FibTree(rng.randint(-12, 12), rng.randint(-12, 12))


def test_lub_matches_ancestor_sets_rebuilt_per_radius(ring_lub):
    rng = random.Random(5)
    cases = [(_small(rng), _small(rng), rng.randint(1, 7)) for _ in range(60)]
    for t1, t2, depth in cases:
        assert least_upper_bound(t1, t2, depth) == ring_lub(t1, t2, depth), (t1, t2, depth)


def test_lub_equals_goldint_search_list_for_list(ring_lub):
    rng = random.Random(17)
    cases = [(_small(rng), _small(rng), rng.randint(1, 10)) for _ in range(300)]
    # L^-1 fixes F[1,2] and R^-1 fixes F[0,0]: each radius steps back onto identities already seen.
    for t in (T12, T00, T01, FibTree(-1, 2), FibTree(4, -3)):
        for depth in (1, 3, 6):
            cases += [(T12, t, depth), (t, T00, depth)]
    cases += [(FibTree(-1, 2), FibTree(-3, 5), 4), (T00, T12, 2), (FibTree(4, -3), FibTree(4, -3), 4)]
    g = FibTree(rng.randint(-10**1000, 10**1000), rng.randint(-10**1000, 10**1000))
    t1 = subtree_at(g, MapWord((Atom.L, Atom.R)))
    t2 = subtree_at(g, MapWord((Atom.R, Atom.L, Atom.L)))
    cases += [(t1, t2, 6), (g, t2, 6), (g, FibTree(rng.randint(-10**1000, 10**1000), 5), 6)]
    assert len(cases) == 336
    for t1, t2, depth in cases:
        assert least_upper_bound(t1, t2, depth) == ring_lub(t1, t2, depth), (t1, t2, depth)


def test_lub_list_frontiers_equal_set_frontiers(ring_lub):
    # The library's frontier at radius r holds every inverse word's image, repeats included: on the
    # lineages of F[1,2] and F[0,0] the same identity comes back each radius, and F[-11,-18]
    # reaches F[1,-2] both by L^-4 and by R^-3.
    repeating = [T12, T00, FibTree(3, 5), FibTree(-11, -18)]
    grid = [FibTree(a, b) for a in range(-8, 9) for b in range(-8, 9)]
    cases = [(x, y, depth) for x in repeating for y in repeating + grid for depth in range(1, 13)]
    rng = random.Random(23)
    cases += [(rng.choice(grid), rng.choice(grid), depth) for depth in range(1, 13) for _ in range(20)]
    assert len(cases) == 14304
    for t1, t2, depth in cases:
        assert least_upper_bound(t1, t2, depth) == ring_lub(t1, t2, depth), (t1, t2, depth)


def test_inverse_steps_are_the_ring_inverses():
    # L(z) = phi*z - phi^2 and R(z) = phi^2*z, undone in Z[phi]: (z + phi^2)*phi^-1 and z*phi^-2
    rng = random.Random(9)
    pairs = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    pairs += [(rng.randint(-10**1000, 10**1000), rng.randint(-10**1000, 10**1000)) for _ in range(10)]
    zs = [GoldInt(a, b) for a, b in pairs]
    linv = [(x.a, x.b) for x in ((z + phi_pow(2)) * phi_pow(-1) for z in zs)]
    rinv = [(x.a, x.b) for x in (z * phi_pow(-2) for z in zs)]
    for pair, li, ri in zip(pairs, linv, rinv):
        assert _inverse_steps([pair]) == [li, ri]
    assert _inverse_steps(pairs) == linv + rinv  # every L^-1 image, then every R^-1 image, in frontier order


@pytest.mark.parametrize("bound, radius, decided", [(5, 11, 7206)])
def test_lub_certificate_is_sound_and_symmetric(bound, radius, decided):
    # the certificate on every ordered pair of the grid; ancestor sets built once per tree and
    # compared once per unordered pair
    trees = [FibTree(a, b) for a, b in product(range(-bound, bound + 1), repeat=2)]
    ancestors = [next(islice(ancestor_rings(t), radius, None)) for t in trees]
    apart = {(i, j) for i, j in product(range(len(trees)), repeat=2) if _never_meet(trees[i], trees[j])}
    assert len(apart) == decided
    assert apart == {(j, i) for i, j in apart}  # symmetric
    for i, j in apart:
        if i <= j:
            assert ancestors[i].isdisjoint(ancestors[j]), (trees[i], trees[j])


def _certificate_pairs(digits):
    big = 10 ** (digits - 1)
    rng = random.Random(digits)
    pairs = [
        (FibTree(big + 100, -37), FibTree(-50, big + 90)),
        (FibTree(big + 100, -37), FibTree(3, -5)),  # m near -log_phi(big): thousands of levels at 4,000 digits
        (FibTree(4, -7), FibTree(-big, big // 3)),
        (FibTree(-big, 7), FibTree(5, 3 * big)),
        (FibTree(u(big), u(big) + big), FibTree(-50, 90)),  # F[u(k), v(k)]: sigma t in I, not decided
    ]
    return pairs + [(FibTree(rng.randint(-big, big), rng.randint(-big, big)), FibTree(rng.randint(-9, 9), 5)) for _ in range(5)]


@pytest.mark.parametrize("digits", [10, 100, 1000, 4000])
def test_lub_certificate_makes_one_doubling_at_any_size(count_calls, digits):
    calls = count_calls("_fib_signed", "_sign")
    for t1, t2 in _certificate_pairs(digits):
        calls.clear()
        _never_meet(t1, t2)
        # counted in goldring too, where `_phi_log` walks: a walk of m from 0 would make thousands of _sign calls
        counts = Counter(name for name, _ in calls)
        assert counts["_fib_signed"] <= 1 and counts["_sign"] <= 20, (digits, counts)


def test_a_decided_pair_runs_no_ancestor_search(monkeypatch):
    steps = []
    real = order._inverse_steps
    monkeypatch.setattr(order, "_inverse_steps", lambda front: steps.append(len(front)) or real(front))
    big = 10**3999
    assert least_upper_bound(FibTree(100, -37), FibTree(-50, 90), 16) == []
    assert least_upper_bound(FibTree(big + 100, -37), FibTree(-50, big + 90), 16) == []
    assert steps == []
    # sigma F[1,2] lies in I, so this pair runs the search: the wrapper sees it
    least_upper_bound(T12, FibTree(-50, 90), 3)
    assert steps == [1, 1, 2, 2, 4, 4]
    # both outside I, left open: tests/test_budgets.py runs this pair's search at the depth cap
    assert not _never_meet(FibTree(13, 104), FibTree(104, 117))


@pytest.mark.xfail(
    strict=True,
    reason="the search stops at the first radius where the ancestor sets meet (F[3,0] at radius 1 "
    "and 6), before it reaches F[-1,2] at radius 8; the fix waits for ROADMAP item 1 and for a "
    "benchmark change that updates the lub oracle in perfbench/workloads.py",
)
def test_lub_of_a_comparable_pair_is_the_larger_tree():
    assert least_upper_bound(FibTree(-1, 2), FibTree(163, 264), 8) == [FibTree(-1, 2)]


def test_lub_check_catches_an_unsound_certificate(monkeypatch):
    from fibtree import verify

    # at the check's own scale: the 49 trees with |a|, |b| <= 3, rings to radius 8
    assert verify.check_lub() == []
    monkeypatch.setattr(verify, "_never_meet", lambda t1, t2: True)
    records = [r for r in verify.check_lub() if r["check"] == "lub-never-meet"]
    # 1,225 pairs with t1 <= t2 in grid order, of which 513 have disjoint rings
    assert len(records) == 712
    assert records[0]["detail"] == "F[-3,-3], F[-3,-3]: decided apart, yet meet within radius 8"


def test_lub_check_stops_at_its_first_oracle_failure(monkeypatch):
    from fibtree import verify

    # an empty join fails the three documented joins, then every pair whose rings meet by radius 4
    monkeypatch.setattr(verify, "least_upper_bound", lambda t1, t2, depth: [])
    assert verify.check_lub() == [
        {"check": "lub", "detail": "join of F[-1,2], F[-3,5]: []"},
        {"check": "lub", "detail": "join of F[0,0], F[1,2]: []"},
        {"check": "lub-reflexive", "detail": "F[4,-3]"},
        {"check": "lub-oracle", "detail": "join of F[-3,-3], F[-3,-1]: []"},
    ]


def test_order_brute_force_check_catches_a_dropped_u_node(monkeypatch):
    from fibtree import verify

    # at the check's own scale: the 81 trees with |a|, |b| <= 4, levels up to 12
    assert verify.check_order_brute_force() == []
    real_u_nodes = verify.u_nodes

    def dropping(t, n):
        return (node for node in real_u_nodes(t, n) if node[:2] != (9, 4))

    def record(t):
        # the scan now gives the next u-node of level 9, (9, 6), where the closed form gives (9, 4)
        nodes = list(real_u_nodes(t, 12))
        i = [node[:2] for node in nodes].index((9, 4))
        return {"check": "u-nodes", "detail": f"{t}: scan gives {nodes[i + 1]}, closed form {nodes[i]}"}

    monkeypatch.setattr(verify, "u_nodes", dropping)
    failures = verify.check_order_brute_force()
    assert failures == [record(FibTree(a, b)) for a, b in product(range(-4, 5), repeat=2)]
