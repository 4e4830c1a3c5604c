import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibtree.verify import beatty_oracle
from fibtree.represent import _row_alignment
from fibtree.wythoff import FibSeq, reference_index, u, u_inverse, v


@pytest.mark.parametrize("n,want", [(4, 6), (0, -1), (-6, -10), (1, 1), (7, 11)])
def test_u_examples(n, want):
    assert u(n) == want


@pytest.mark.parametrize("n,want", [(2, 5), (0, -1), (-3, -8)])
def test_v_examples(n, want):
    assert v(n) == want


@given(st.integers(min_value=-(10**6), max_value=10**6))
def test_identities_large(n):
    assert v(n) == u(n) + n
    assert v(n) == u(u(n)) + 1
    if n != 0:
        assert u(n) == beatty_oracle(n)


def test_u_inverse_round_trip():
    for n in range(-500, 501):
        assert u_inverse(u(n)) == n


def test_u_inverse_none_off_image():
    image = {u(n) for n in range(-2000, 2001)}
    for y in range(-1000, 1001):
        got = u_inverse(y)
        if y in image:
            assert got is not None and u(got) == y
        else:
            assert got is None


@pytest.mark.parametrize(
    "pair,want",
    [
        ((1, 2), 1),
        ((4, 7), 2),  # u(2)=3, u(3)=4, v(3)=7
        ((-2, -3), None),  # rank -1 = u(0), and 0 is outside Z*
        ((3, 5), None),  # Wythoff pair of rank 2, but 2 is not a u-value
        ((-4, -6), -1),
        ((9, 15), 4),
        ((2, 3), None),  # not a Wythoff pair at all
    ],
)
def test_primitive_rank(pair, want):
    # a pair is primitive of rank j in Z* when it is the row start (u(u(j)), v(u(j)))
    shift, _ = _row_alignment(FibSeq(*pair))
    j = u_inverse(pair[1] - pair[0])
    assert (j if shift == 0 and j != 0 else None) == want


def test_fibseq_term_matches_seed_and_recursion():
    s = FibSeq(2, 1)
    assert (s.term(0), s.term(1)) == (2, 1)
    for n in range(-20, 20):
        assert s.term(n + 2) == s.term(n) + s.term(n + 1)


@pytest.mark.parametrize("seed", [(2, 1), (0, 1), (-7, 3), (10**999 + 7, -(10**1000) + 3), (-(10**1000) + 1, 10**999 + 9)])
def test_fibseq_pair_is_two_terms(seed):
    # one doubling for every index; the negative branch carries the sign (-1)^(k+1) of F_(-k)
    s = FibSeq(*seed)
    for n in [*range(-300, 301), 4785, -4785, 47850, -47850]:
        assert s.pair(n) == (s.term(n), s.term(n + 1)), n


@given(st.integers(min_value=-200, max_value=200), st.integers(min_value=-200, max_value=200))
def test_fibseq_negative_extension(c, d):
    s = FibSeq(c, d)
    for n in range(-12, 0):
        assert s.term(n) == s.term(n + 2) - s.term(n + 1)


@pytest.mark.parametrize(
    "seed,want",
    [
        ((2, 1), 1),  # scan 2, 1, 3: term(0) > term(1) >= 0
        ((-1, -1), -1),
        ((0, 1), 0),  # extended terms 1, 0, 1
    ],
)
def test_reference_index_examples(seed, want):
    assert reference_index(FibSeq(*seed)) == want


def test_reference_index_zero_rejected():
    with pytest.raises(ValueError, match="undefined"):
        reference_index(FibSeq(0, 0))


@given(st.integers(min_value=-300, max_value=300), st.integers(min_value=-300, max_value=300))
def test_reference_index_defining_inequalities(c, d):
    if c == 0 and d == 0:
        return
    s = FibSeq(c, d)
    nu = reference_index(s)
    if s.sign() > 0:
        assert s.term(nu - 1) > s.term(nu) >= 0
    else:
        assert s.term(nu - 1) < s.term(nu) <= 0


def reference_index_scan(seq):
    """The defining inequalities checked term by term over +-(3*bit length + 8) indices."""
    positive = seq.sign() > 0
    span = 3 * max(abs(seq.c), abs(seq.d)).bit_length() + 8
    hits = []
    prev, cur = seq.term(-span - 1), seq.term(-span)
    for n in range(-span, span + 1):
        if (prev > cur >= 0) if positive else (prev < cur <= 0):
            hits.append(n)
        prev, cur = cur, prev + cur
    assert len(hits) == 1, hits
    return hits[0]


def test_reference_index_matches_linear_scan():
    import random

    rng = random.Random(17)
    seeds = [(c, d) for c in range(-25, 26) for d in range(-25, 26) if c or d]
    for digits in (1, 2, 5, 20, 100, 300, 1000):
        for _ in range(40 if digits < 300 else 8):
            c, d = rng.randint(1, 10**digits), rng.randint(-(10**digits), 10**digits)
            seeds += [(c, d), (-c, -d)]
            # ratio near phi: a long alternating part
            seeds += [(c, u(c) + rng.randint(-2, 2)), (-c, -u(c) - rng.randint(-2, 2))]
    for c, d in seeds:
        if c == 0 and d == 0:
            continue
        s = FibSeq(c, d)
        assert reference_index(s) == reference_index_scan(s), (c, d)
