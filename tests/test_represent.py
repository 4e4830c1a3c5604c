import random
from collections import Counter

import pytest

from fibtree.fibword import U, letter_at, u_count
from fibtree.goldring import GoldInt, fib, gold_sign
from fibtree.order import is_subtree
from fibtree.represent import (
    Occurrence,
    TreeClass,
    _row_alignment,
    classify,
    count_occurrences,
    find_interval_level,
    find_sequence,
)
from fibtree.tree import FibTree, NodeRef, branch_sequence
from fibtree.verify import verify_lemma_shift
from fibtree.wythoff import FibSeq, u, u_inverse, v
from test_wythoff import reference_index_scan

T01 = FibTree(0, 1)
T12 = FibTree(1, 2)
T00 = FibTree(0, 0)
SAMPLES = (T01, FibTree(1, 1), FibTree(-1, 2), FibTree(1, 0))


def test_classify_anchors():
    assert classify(T01) is TreeClass.REPRESENTS_Z
    assert classify(T00) is TreeClass.NONPOSITIVE_SIDE
    assert classify(T12) is TreeClass.POSITIVE_SIDE


def test_classify_boundaries_are_strict():
    # both excluded trees sit exactly on the defining equalities
    assert gold_sign(T00.gold()) == 0
    assert gold_sign(GoldInt(T12.a - 1, T12.b - 2)) == 0
    assert classify(FibTree(0, 1)) is TreeClass.REPRESENTS_Z
    assert classify(FibTree(2, 2)) is TreeClass.POSITIVE_SIDE
    assert classify(FibTree(2, -2)) is TreeClass.NONPOSITIVE_SIDE


def test_find_interval_level_monotone():
    base = find_interval_level(T01, -10, 10)
    for r in range(11, 40, 7):
        assert find_interval_level(T01, -r, r) >= base
    # containment persists above the found level
    n = find_interval_level(T01, -25, 60)
    for m in range(n, n + 6):
        assert T01.lo(m) <= -25 and 60 <= T01.hi(m)


def test_find_interval_level_is_not_monotone():
    # level 0 of F[-60,38] is [-60], level 1 is [37..38]: a fit can be lost
    t = FibTree(-60, 38)
    assert classify(t) is TreeClass.REPRESENTS_Z
    assert (t.lo(0), t.hi(0), t.lo(1), t.hi(1)) == (-60, -60, 37, 38)
    assert find_interval_level(t, -60, -60) == 0
    assert find_interval_level(t, -60, 37) > 1


def _reference_interval_level(t, lo, hi):
    """First level whose closed-form interval contains [lo..hi], level by level."""
    limit = 3 * max(abs(lo), abs(hi), abs(t.a), abs(t.b)).bit_length() + 100
    n = 0
    while not (t.lo(n) <= lo and hi <= t.hi(n)):
        n += 1
        if n > limit:
            raise RuntimeError(f"interval [{lo}..{hi}] not reached by level {limit} in {t}")
    return n


def _reference_row_alignment(s):
    """(shift, pair) of the row start by a plain pair scan from just before the reference index."""
    m = reference_index_scan(s) - 3
    c, d = s.pair(m)
    for _ in range(3 * max(abs(s.c), abs(s.d)).bit_length() + 8):
        if u(d - c) == c and u_inverse(d - c) is not None:
            return m, (c, d)
        c, d, m = d, c + d, m + 1
    raise RuntimeError(f"no row alignment for {s}")


def _reference_find_sequence(t, s, cap):
    """The level scan with every edge term and F_n rebuilt through fib()."""
    edge = FibSeq(t.a - 1, t.b - 2)
    if s.is_zero():
        target_u, j, shift = 0, None, 0
    else:
        shift, (c, d) = _reference_row_alignment(s)
        j = u_inverse(d - c)
        target_u = u(j)
    for n in range(1, cap + 1):
        i = (1 if j is None else j) - edge.term(n - 2)
        if 1 <= i <= fib(n) and u(i) + edge.term(n - 1) == target_u:
            return Occurrence(n, u(u(i)), s.pair(shift), shift, True)
    return None


def _assert_branch(t, s, occ, terms=10):
    """The branch at occ replays s from index occ.shift on, and its root is a u-node under a u-node."""
    got = branch_sequence(t, NodeRef(occ.level, occ.pos), terms)
    assert got == [s.term(occ.shift + k) for k in range(terms)]
    assert occ.primitive and letter_at(u_count(occ.pos)) == U


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def test_find_interval_level_matches_reference_scan():
    rng = random.Random(31)
    trees = [T01, FibTree(1, 1), FibTree(-60, 38), FibTree(-1, 2)]
    for _ in range(400):
        t = rng.choice(trees)
        if rng.random() < 0.3:
            t = FibTree(rng.randint(-60, 60), rng.randint(-60, 60))
            if classify(t) is not TreeClass.REPRESENTS_Z:
                continue
        digits = rng.choice((1, 2, 6, 100))
        lo = rng.randint(-(10**digits), 10**digits)
        hi = lo + rng.randint(0, 10**digits)
        assert find_interval_level(t, lo, hi) == _reference_interval_level(t, lo, hi)
    for t in trees:
        lo = rng.randint(-(10**1000), 10**1000)
        hi = lo + rng.randint(0, 10**1000)
        assert find_interval_level(t, lo, hi) == _reference_interval_level(t, lo, hi)
    b = rng.randint(10**999, 10**1000)
    t = FibTree(1 - u(b), b)
    for lo, hi in ((0, 0), (-5, 9), (-(10**1000), 10**999), (10**999, 10**1000 + 3)):
        assert find_interval_level(t, lo, hi) == _reference_interval_level(t, lo, hi)
    # past level 10000: the reference scan's limit grows with the bit length
    lo, hi = -(10**2200), 10**2200
    assert find_interval_level(T01, lo, hi) == _reference_interval_level(T01, lo, hi) == 10529


def test_find_sequence_matches_reference_scan():
    rng = random.Random(32)
    trees = list(SAMPLES) + [T12, T00, FibTree(2, 2), FibTree(-60, 38)]
    for _ in range(400):
        t = rng.choice(trees)
        digits = rng.choice((1, 2, 3, 20, 50))
        s = FibSeq(rng.randint(-(10**digits), 10**digits), rng.randint(-(10**digits), 10**digits))
        if not s.is_zero():
            assert _row_alignment(s) == _reference_row_alignment(s)
        cap = rng.choice((10, 60, 20 * digits + 200))
        cls = classify(t)
        if cls is TreeClass.POSITIVE_SIDE and s.sign() <= 0 or cls is TreeClass.NONPOSITIVE_SIDE and s.sign() >= 0:
            continue  # a domain error, raised before any scan
        want = _outcome(_reference_find_sequence, t, s, cap)
        got = _outcome(find_sequence, t, s, cap)
        if want is None:
            assert got[0] is ValueError and "level cap" in got[1]
        else:
            assert got == want
            if isinstance(got, Occurrence):
                _assert_branch(t, s, got)
    # d/c near phi: delta_0 = d - c*phi cancels to a few units or to +-phi^-k, so the alignment
    # walk's test |delta_0| < phi^(m-1) runs at small or negative m, or ties; on row starts it stays put
    seeds = [(-fib(k), 1 - fib(k + 1)) for k in range(1, 200)]
    seeds += [seed for k in range(200) for seed in ((fib(k), fib(k + 1)), (fib(k) + 1, fib(k + 1)))]
    for digits in (1, 2, 3, 5, 10, 30, 100, 300, 1000):
        for sign in (1, -1):
            j = sign * rng.randint(10 ** (digits - 1), 10**digits)
            seeds.append((u(u(j)), v(u(j))))
    for seed in seeds:
        s = FibSeq(*seed)
        assert _row_alignment(s) == _reference_row_alignment(s), seed


def test_find_sequence_matches_reference_scan_on_thousand_digit_labels():
    rng = random.Random(1000)
    b = rng.randint(10**999, 10**1000)
    t = FibTree(1 - u(b), b)  # a + b*phi = 1 - frac(b*phi): RepresentsZ with 10^3-digit labels
    assert classify(t) is TreeClass.REPRESENTS_Z
    for seed in ((-7, 3), (0, 0)):
        s = FibSeq(*seed)
        occ = find_sequence(t, s, level_cap=6000)
        assert occ == _reference_find_sequence(t, s, 6000)
        assert occ.level > 2000
        _assert_branch(t, s, occ)
    # a 10^3-digit seed: its row start lies thousands of indices past the reference index
    s = FibSeq(rng.randint(10**999, 10**1000), rng.randint(10**999, 10**1000))
    occ = find_sequence(T01, s, 20200)
    assert occ == _reference_find_sequence(T01, s, 20200)
    assert occ.shift > reference_index_scan(s) + 2000 and occ.level > 9000
    _assert_branch(T01, s, occ)


@pytest.mark.parametrize("digits, trees", [(10, 20), (100, 20), (1000, 20), (4000, 8)])
def test_find_sequence_never_raises_on_representing_trees(digits, trees):
    # every RepresentsZ tree realizes every sequence, so with no cap the search always finds one;
    # a + b*phi lies in (0, phi^3) for four or five a next to -u(b)
    rng = random.Random(digits)
    for _ in range(trees):
        b = rng.choice((1, -1)) * rng.randint(10 ** (digits - 1), 10**digits)
        a = rng.choice([x for x in range(-u(b) - 2, -u(b) + 6) if classify(FibTree(x, b)) is TreeClass.REPRESENTS_Z])
        t = FibTree(a, b)
        bound = 10 ** rng.choice((1, 10, digits))
        s = FibSeq(rng.randint(-bound, bound), rng.randint(-bound, bound))
        _assert_branch(t, s, find_sequence(t, s), terms=4)


def test_row_alignment_rejects_the_zero_seed():
    # F[0,0] has no row: delta_0 = 0 has no phi-logarithm
    with pytest.raises(ValueError):
        _row_alignment(FibSeq(0, 0))


def test_find_interval_level_rejects():
    with pytest.raises(ValueError, match="PositiveSide"):
        find_interval_level(T12, 0, 1)
    with pytest.raises(ValueError, match="empty"):
        find_interval_level(T01, 3, 1)


def test_find_sequence_lucas_in_plus_tree():
    occ = find_sequence(T12, FibSeq(2, 1))
    assert occ.pair == (4, 7)
    assert branch_sequence(T12, NodeRef(occ.level, occ.pos), 5) == [4, 7, 11, 18, 29]


def test_find_sequence_zero_is_level_one_exception():
    occ = find_sequence(T01, FibSeq(0, 0))
    assert occ == Occurrence(level=1, pos=1, pair=(0, 0), shift=0, primitive=True)


def test_find_sequence_self():
    occ = find_sequence(T01, FibSeq(0, 1))
    assert occ.pair == (1, 2)
    assert occ.level >= 3
    assert occ.primitive


def test_find_sequence_negated_fibonacci_family():
    # these seeds never align with a rank in u(Z*); the rank-(-1) row (-2,-3) serves
    for t in SAMPLES:
        for seed in ((-1, -1), (0, -1), (-1, 0), (2, -2)):
            occ = find_sequence(t, FibSeq(*seed))
            got = branch_sequence(t, NodeRef(occ.level, occ.pos), 6)
            assert got == [FibSeq(*seed).term(occ.shift + k) for k in range(6)]


def test_find_sequence_every_small_seed_in_samples():
    for t in SAMPLES:
        for c in range(-10, 11):
            for d in range(-10, 11):
                s = FibSeq(c, d)
                occ = find_sequence(t, s, level_cap=60)
                got = branch_sequence(t, NodeRef(occ.level, occ.pos), 10)
                assert got == [s.term(occ.shift + k) for k in range(10)]


def test_find_sequence_is_the_row_subtree_one_level_down():
    # s sits in t as a copy of its row's subtree F[u(j), v(j)], the zero seed as F[0,1]
    for t in SAMPLES:
        for c in range(-10, 11):
            for d in range(-10, 11):
                s = FibSeq(c, d)
                if s.is_zero():
                    row = FibTree(0, 1)
                else:
                    _, (t0, t1) = _row_alignment(s)
                    j = u_inverse(t1 - t0)
                    row = FibTree(u(j), v(j))
                occ = find_sequence(t, s)
                w = is_subtree(row, t, level_cap=occ.level)
                assert (occ.level, occ.pos) == (w.level + 1, u(w.pos)), (t, s)


def test_find_sequence_sign_mismatch_raises():
    with pytest.raises(ValueError, match="PositiveSide"):
        find_sequence(T12, FibSeq(-1, -1))
    with pytest.raises(ValueError, match="NonpositiveSide"):
        find_sequence(T00, FibSeq(0, 1))
    with pytest.raises(ValueError, match="NonpositiveSide"):
        find_sequence(T00, FibSeq(0, 0))


def test_find_sequence_cap_exhausted_raises():
    # F[3,3] sits past phi^3 and does not carry the plain Fibonacci branch: with no cap that is proven
    with pytest.raises(ValueError, match="level cap"):
        find_sequence(FibTree(3, 3), FibSeq(0, 1), level_cap=40)
    with pytest.raises(ValueError, match=r"^no occurrence of F\[0,1\] in F\[3,3\]$"):
        find_sequence(FibTree(3, 3), FibSeq(0, 1))


def test_find_sequence_main_branch_of_plus_tree_is_level_one():
    occ = find_sequence(T12, FibSeq(1, 2))
    assert (occ.level, occ.pos, occ.pair) == (1, 1, (1, 2))


def test_find_sequence_works_on_one_sided_trees_for_matching_signs():
    # positive-side tree locating its own row
    occ = find_sequence(FibTree(2, 2), FibSeq(2, 2))
    assert occ.pair == (6, 10)
    assert branch_sequence(FibTree(2, 2), NodeRef(occ.level, occ.pos), 4) == [6, 10, 16, 26]
    # nonpositive-side tree locating a negative sequence
    occ = find_sequence(T00, FibSeq(-1, -1))
    assert occ.pair == (-2, -3)
    got = branch_sequence(T00, NodeRef(occ.level, occ.pos), 5)
    assert got == [-2, -3, -5, -8, -13]


def test_count_occurrences_zero_single_branch():
    for t in SAMPLES:
        for cap in (5, 10, 15):
            assert count_occurrences(t, FibSeq(0, 0), cap) == 1


def test_count_occurrences_nonzero_grows():
    low = count_occurrences(T01, FibSeq(0, 1), 3)
    high = count_occurrences(T01, FibSeq(0, 1), 10)
    assert high >= 2
    assert low <= high
    lucas3 = count_occurrences(T01, FibSeq(2, 1), 3)
    lucas10 = count_occurrences(T01, FibSeq(2, 1), 10)
    assert 0 <= lucas3 <= lucas10


def test_count_occurrences_matches_find_sequence_level():
    # the first counted node is the one find_sequence returns
    occ = find_sequence(T01, FibSeq(0, 1))
    assert count_occurrences(T01, FibSeq(0, 1), occ.level) >= 1
    assert count_occurrences(T01, FibSeq(0, 1), occ.level - 1) == 0


def test_constructive_search_agrees_with_brute_force_sweep():
    # the closed-form scan targets the canonical row-start pair; its level must
    # match the rule-built scan's first sighting of that exact pair, and no
    # equivalent branch (any shift) may appear below an equivalent's first level
    from fibtree.verify import primitive_pairs_in_tree

    cap = 12
    for t in (T01, FibTree(1, 0)):
        sightings = primitive_pairs_in_tree(t, cap)
        for c in range(-4, 5):
            for d in range(-4, 5):
                s = FibSeq(c, d)
                first_any = next(
                    (n for n in range(1, cap + 1) if count_occurrences(t, s, n) > 0),
                    None,
                )
                if first_any is None:
                    continue
                occ = find_sequence(t, s, level_cap=cap)
                first_pair = min(level for pair, level, _ in sightings if pair == occ.pair)
                assert occ.level == first_pair
                assert occ.level >= first_any


def test_find_sequence_wide_seed_stress():
    import random

    rng = random.Random(424242)
    for _ in range(60):
        t = SAMPLES[rng.randrange(len(SAMPLES))]
        s = FibSeq(rng.randint(-40, 40), rng.randint(-40, 40))
        if s.is_zero():
            continue
        occ = find_sequence(t, s, level_cap=80)
        got = branch_sequence(t, NodeRef(occ.level, occ.pos), 8)
        assert got == [s.term(occ.shift + k) for k in range(8)]


def test_count_occurrences_requires_full_tree():
    with pytest.raises(ValueError, match="RepresentsZ"):
        count_occurrences(T12, FibSeq(0, 1), 8)


def test_fibonacci_pair_is_primitive_at_every_level_from_three():
    from fibtree.verify import primitive_pairs_in_tree

    levels_with_pair = {
        level for pair, level, _ in primitive_pairs_in_tree(T01, 12) if pair == (1, 2)
    }
    assert levels_with_pair == set(range(3, 13))


@pytest.mark.parametrize(
    "seed,i,want",
    [((0, 1), 3, 4), ((1, 1), -2, 1), ((0, 1), 1, 2)],
)
def test_lemma_shift_frozen_values(seed, i, want):
    assert verify_lemma_shift(FibSeq(*seed), i, 30) == want


def test_lemma_shift_definition():
    from fibtree.wythoff import u

    s = FibSeq(0, 1)
    n1 = verify_lemma_shift(s, 3, 30)
    ui = u(3)
    for n in range(n1, 31):
        assert u(3 + s.term(n)) == ui + s.term(n + 1)
    assert u(3 + s.term(n1 - 1)) != ui + s.term(n1)


def test_lemma_shift_errors():
    with pytest.raises(ValueError, match="i != 0"):
        verify_lemma_shift(FibSeq(0, 1), 0, 30)
    with pytest.raises(ValueError, match="still failing"):
        verify_lemma_shift(FibSeq(0, 1), 3, 3)  # identity fails at n = 3 itself


def test_find_sequence_row_start_seed_needs_no_shift():
    rng = random.Random(33)
    for digits in (60, 200, 1000):
        for sign in (1, -1):
            j = sign * rng.randint(10 ** (digits - 1), 10**digits)
            s = FibSeq(u(u(j)), v(u(j)))
            occ = find_sequence(T01, s, level_cap=20000)
            assert occ.shift == 0 and occ.pair == (s.c, s.d)
            assert occ == _reference_find_sequence(T01, s, 20000)
            _assert_branch(T01, s, occ)


def test_find_sequence_negated_fibonacci_family_at_any_shift():
    # the negated Fibonacci sequence at any shift aligns to the rank-(-1) row (-2,-3)
    for k in (-40, -3, 0, 1, 7, 300):
        s = FibSeq(-fib(k), -fib(k + 1))
        for t in (T01, FibTree(-1, 2), T00):
            occ = find_sequence(t, s, level_cap=200)
            assert occ.pair == (-2, -3) and s.pair(occ.shift) == (-2, -3)
            assert occ == _reference_find_sequence(t, s, 200)
            _assert_branch(t, s, occ)


def test_find_sequence_one_sided_trees_match_reference_scan():
    rng = random.Random(34)
    trees = [T12, T00, FibTree(2, 2), FibTree(3, 3), FibTree(9, 40), FibTree(-5, -9), FibTree(5, -9)]
    seeds = [(c, d) for c in range(-6, 7) for d in range(-6, 7)]
    seeds += [(rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30)) for _ in range(20)]
    for t in trees:
        cls = classify(t)
        assert cls is not TreeClass.REPRESENTS_Z
        for c, d in seeds:
            s = FibSeq(c, d)
            if s.sign() * (1 if cls is TreeClass.POSITIVE_SIDE else -1) <= 0:
                continue  # a domain error, raised before any scan
            # with no cap the search decides: these seeds sit, if at all, well before level 700
            for cap in (3, 60, 700, None):
                want = _reference_find_sequence(t, s, cap or 700)
                got = _outcome(find_sequence, t, s, cap)
                if want is None:
                    within = "" if cap is None else f" within level cap {cap}"
                    assert got == (ValueError, f"no occurrence of {s} in {t}{within}")
                else:
                    assert got == want
                    _assert_branch(t, s, got)


def test_find_sequence_cap_below_jump_target_keeps_error_text():
    rng = random.Random(35)
    s = FibSeq(rng.randint(10**999, 10**1000), -rng.randint(10**999, 10**1000))
    occ = find_sequence(T01, s, level_cap=20200)
    assert find_sequence(T01, s, level_cap=occ.level) == occ
    for cap in (occ.level - 1, 60, 0):
        with pytest.raises(ValueError) as exc:
            find_sequence(T01, s, level_cap=cap)
        assert str(exc.value) == f"no occurrence of {s} in {T01} within level cap {cap}"


def test_find_sequence_costs_bit_length_not_levels(count_calls):
    # the scan's per-level primitives: sign tests, and u, which the scan need not call
    calls = count_calls("_sign", "u")
    rng = random.Random(36)
    for _ in range(3):
        s = FibSeq(rng.randint(10**999, 10**1000), rng.randint(-(10**1000), 10**1000))
        for cap in (20200, None):
            calls.clear()
            occ = find_sequence(T01, s, level_cap=cap)
            assert occ.level > 9000
            assert len(calls) <= 64, [name for name, _ in calls]


def test_find_sequence_thousand_digit_seed_makes_no_u_call(count_calls):
    # j and u(j) are read off the aligned pair, the scan tests its interval by signs, and the
    # witness position is pos + k - 1 by the v-from-uu identity: no Beatty floor anywhere
    calls = count_calls("u")
    rng = random.Random(38)
    for _ in range(6):
        s = FibSeq(rng.randint(10**999, 10**1000), rng.randint(-(10**1000), 10**1000))
        calls.clear()
        occ = find_sequence(T01, s, level_cap=20200)
        assert occ.level > 9000
        assert calls == [], len(calls)
        assert _row_alignment(s) == _reference_row_alignment(s)
        _assert_branch(T01, s, occ)


@pytest.mark.parametrize("tree", [T01, FibTree(-10, 7)], ids=str)
@pytest.mark.parametrize("digits", [10, 100, 1000, 4000])
def test_find_sequence_works_at_the_seed_width(count_calls, tree, digits):
    # the alignment walks on the seed, and the witness level is placed against I by a product
    # pair: every sign test stays within two bits of the seed, and no Beatty floor runs
    calls = count_calls("_sign", "u")
    rng = random.Random(digits)
    for _ in range(3):
        s = FibSeq(rng.choice((1, -1)) * rng.randint(10 ** (digits - 1), 10**digits), rng.randint(-(10**digits), 10**digits))
        seed_bits = max(s.c.bit_length(), s.d.bit_length())
        calls.clear()
        find_sequence(tree, s)
        signs = [args for name, args in calls if name == "_sign"]
        widths = [max(a.bit_length(), b.bit_length()) for a, b in signs]
        assert len(signs) == len(calls) <= 6 and max(widths) <= seed_bits + 2, (len(calls), widths, seed_bits)


@pytest.mark.parametrize("b, subtree_level", [(10**999 + 7, 4785), (10**3999 + 7, 19139)])
def test_strip_tree_scans_start_where_the_guest_can_sit(count_calls, b, subtree_level):
    # F[1 - u(b), b] has |eps_0| about b, so thousands of levels are in range before the guest
    # F[5,8] can sit: the scan starts there, by one evaluation of the level edges, and tests a
    # few levels by signs
    strip = FibTree(1 - u(b), b)
    calls = count_calls("u", "_edges", "_sign")
    for cap in (10**6, None):
        calls.clear()
        w = is_subtree(FibTree(5, 8), strip, cap)
        assert w.level == subtree_level
        counts = Counter(name for name, _ in calls)
        assert counts["u"] == 0 and counts["_edges"] <= 2 and counts["_sign"] <= 64, counts
        calls.clear()
        occ = find_sequence(strip, FibSeq(5, 8), cap)
        assert occ.level == subtree_level + 2
        counts = Counter(name for name, _ in calls)
        assert counts["u"] == 0 and counts["_edges"] <= 2 and counts["_sign"] <= 64, counts


def test_find_interval_level_costs_bit_length_not_levels(count_calls):
    # the scan jumps past the 10^4 levels out of range: one evaluation of the level edges
    calls = count_calls("_edges")
    rng = random.Random(37)
    for t in (T01, FibTree(-1, 2), FibTree(-60, 38)):
        calls.clear()
        lo, hi = -rng.randint(10**2199, 10**2200), rng.randint(10**2199, 10**2200)
        level = find_interval_level(t, lo, hi)
        assert level > 10_000
        assert len(calls) == 1 and level - calls[0][1][1] < 20, (level, calls)
