import random
from decimal import Decimal, localcontext

import pytest

from fibtree.fibword import U
from fibtree.goldring import _fib_pair, fib
from fibtree.tree import FibTree, NodeRef, build_levels, parent_label
from fibtree.verify import primitive_pairs_in_tree
from fibtree.warray import hofstadter_g, hofstadter_levels, wythoff_array
from fibtree.wythoff import u, v

T12 = FibTree(1, 2)


def test_array_first_rows():
    assert wythoff_array(4, 6) == (
        (1, 2, 3, 5, 8, 13),
        (4, 7, 11, 18, 29, 47),
        (6, 10, 16, 26, 42, 68),
        (9, 15, 24, 39, 63, 102),
    )


def test_array_row_seeds_are_primitive_pairs():
    arr = wythoff_array(25, 2)
    for j, row in enumerate(arr, 1):
        assert row == (u(u(j)), v(u(j)))


def test_array_validation():
    with pytest.raises(ValueError):
        wythoff_array(0, 5)
    with pytest.raises(ValueError):
        wythoff_array(3, 1)


def test_array_corner_properties():
    arr = wythoff_array(40, 10)
    flat = [x for row in arr for x in row]
    assert len(set(flat)) == 400
    for row in arr:
        assert all(row[i] < row[i + 1] for i in range(9))
    starts = [row[0] for row in arr]
    assert all(starts[i] < starts[i + 1] for i in range(39))
    assert set(range(1, 101)) <= set(flat)


def test_hofstadter_levels_fixture():
    assert hofstadter_levels(4) == [(1, 1), (2, 2), (3, 3), (4, 5), (6, 8)]
    assert hofstadter_levels(5)[5] == (9, 13)


def test_hofstadter_levels_concatenate_to_consecutive_integers():
    flat = []
    for lo, hi in hofstadter_levels(10):
        flat.extend(range(lo, hi + 1))
    assert flat == list(range(1, 145))


def test_hofstadter_levels_are_the_right_region():
    # brute force: drop the first F_{n+1} positions (the nested left copy)
    levels = build_levels(T12, 10)
    intervals = hofstadter_levels(10)
    for n in range(1, 11):
        rest = [label for label, _, _ in levels[n][fib(n + 1):]]
        lo, hi = intervals[n]
        assert rest == list(range(lo, hi + 1))


def test_hofstadter_levels_step_by_additions():
    # one addition per level: no Fibonacci number is computed, or cached, per level; the cache is
    # bounded, so it starts empty for the count to mean anything
    _fib_pair.cache_clear()
    levels = hofstadter_levels(5000)
    assert _fib_pair.cache_info().currsize <= 64
    assert len(levels) == 5001
    assert all(levels[n] == (fib(n + 1) + 1, fib(n + 2)) for n in (1, 2, 17, 4999, 5000))


def test_hofstadter_levels_validation():
    with pytest.raises(ValueError):
        hofstadter_levels(-1)


def test_g_small_values():
    assert [hofstadter_g(n) for n in range(8)] == [0, 1, 1, 2, 3, 3, 4, 4]


def test_g_matches_recursion_definition():
    for n in range(1, 2000):
        assert hofstadter_g(n) == n - hofstadter_g(hofstadter_g(n - 1))


def test_g_matches_bottom_up_recursion_list():
    # the recursion built locally, never through hofstadter_g
    g = [0]
    for n in range(1, 2 * 10**5):
        g.append(n - g[g[n - 1]])
    assert [hofstadter_g(n) for n in range(2 * 10**5)] == g


def g_decimal_oracle(n: int) -> int:
    """floor((n+1)/phi) = floor((n+1)*(sqrt(5)-1)/2), with sqrt(5) at twice the digits of n."""
    digits = 2 * len(str(n)) + 10
    with localcontext() as ctx:
        ctx.prec = digits + 10
        sqrt5 = int(Decimal(5).sqrt() * Decimal(10) ** digits)
    return (n + 1) * (sqrt5 - 10**digits) // (2 * 10**digits)


@pytest.mark.parametrize("digits", [60, 1000])
def test_g_closed_form_on_huge_n(digits):
    rng = random.Random(digits)
    for _ in range(20):
        n = rng.randint(10 ** (digits - 1), 10**digits)
        assert hofstadter_g(n) == g_decimal_oracle(n)
    assert hofstadter_g(10**digits) == g_decimal_oracle(10**digits)


def test_g_equals_u_count_of_the_infinite_word():
    from fibtree.fibword import u_count

    for n in range(1, 10**4 + 1):
        assert hofstadter_g(n) == u_count(n)


def test_g_is_the_parent_label_in_the_plus_tree():
    for n in range(1, 3000):
        g = hofstadter_g(n)
        m = 1
        while fib(m + 2) < n:
            m += 1
        assert parent_label(T12, NodeRef(m, n)) == g
        assert parent_label(T12, NodeRef(m + 1, n)) == g


def test_g_validation():
    with pytest.raises(ValueError):
        hofstadter_g(-1)


def test_primitive_pairs_anchors():
    assert primitive_pairs_in_tree(FibTree(0, 1), 1) == [((0, 0), 1, 1)]
    assert primitive_pairs_in_tree(FibTree(5, -2), 0) == []
    found = primitive_pairs_in_tree(T12, 4)
    assert ((4, 7), 3, 4) in found


def test_primitive_pairs_in_plus_tree_are_wythoff_rows():
    # every primitive pair of F[1,2] seeds some array row
    arr = wythoff_array(60, 2)
    seeds = set(arr)
    for pair, level, pos in primitive_pairs_in_tree(T12, 9):
        assert pair in seeds


def test_primitive_pairs_match_definition():
    t = FibTree(-1, 2)
    levels = build_levels(t, 8)
    found = set()
    for n in range(1, 9):
        above = levels[n - 1]
        for pos, (label, letter, ppos) in enumerate(levels[n], 1):
            if letter == U and above[ppos - 1][1] == U:
                found.add((n, pos))
    got = {(level, pos) for _, level, pos in primitive_pairs_in_tree(t, 8)}
    assert got == found
