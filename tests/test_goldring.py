import copy
import pickle
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibtree.goldring import PHI, Atom, GoldInt, MapWord, _phi_log, fib, gold_sign, phi_pow
from fibtree.order import SubtreeWitness, _conjugate_gap, _inverse_steps
from fibtree.represent import Occurrence
from fibtree.tree import FibTree, LevelLabeling, NodeRef
from fibtree.wythoff import FibSeq

ints = st.integers(min_value=-(10**9), max_value=10**9)
gold = st.builds(GoldInt, ints, ints)
atoms = st.sampled_from(list(Atom))
words = st.builds(MapWord, st.tuples()) | st.builds(
    MapWord, st.lists(atoms, min_size=1, max_size=8).map(tuple)
)
ZERO = GoldInt(0, 0)
PHI_CUBED = GoldInt(1, 2)


def test_fib_small_and_negative():
    assert [fib(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert [fib(-n) for n in range(1, 7)] == [1, -1, 2, -3, 5, -8]
    assert fib(93) > 2**63  # sweeps must stay exact past machine words


# The library's value types, each with its fields by keyword and its pinned repr.
RECORDS = [
    (GoldInt, {"a": 1, "b": 2}, "GoldInt(a=1, b=2)"),
    (MapWord, {"atoms": (Atom.L, Atom.R)}, "MapWord(atoms=(<Atom.L: 'L'>, <Atom.R: 'R'>))"),
    (FibTree, {"a": 1, "b": 2}, "FibTree(a=1, b=2)"),
    (NodeRef, {"level": 3, "pos": 4}, "NodeRef(level=3, pos=4)"),
    (LevelLabeling, {"n": 2, "lo": -1, "hi": 1}, "LevelLabeling(n=2, lo=-1, hi=1)"),
    (FibSeq, {"c": 1, "d": 2}, "FibSeq(c=1, d=2)"),
    (
        Occurrence,
        {"level": 1, "pos": 2, "pair": (3, 5), "shift": -1, "primitive": True},
        "Occurrence(level=1, pos=2, pair=(3, 5), shift=-1, primitive=True)",
    ),
    (
        SubtreeWitness,
        {"level": 2, "pos": 3, "word": MapWord((Atom.R,))},
        "SubtreeWitness(level=2, pos=3, word=MapWord(atoms=(<Atom.R: 'R'>,)))",
    ),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_value_type_contract(cls, fields, text):
    x = cls(**fields)
    assert repr(x) == text
    for y in (cls(*fields.values()), copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and not y != x and y is not x
        assert hash(y) == hash(x) == hash(tuple(fields.values()))
    name, value = next(iter(fields.items()))
    assert x != cls(**{**fields, name: (value, value)})
    for attr in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, attr, value)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert not hasattr(x, "__dict__")
    assert repr(x) == text  # the refused assignments changed nothing


def test_value_types_equal_only_within_their_type():
    xs = [GoldInt(1, 2), FibTree(1, 2), FibSeq(1, 2)]
    assert [x == y for x in xs for y in xs] == [x is y for x in xs for y in xs]
    assert all(x != (1, 2) for x in xs)
    assert len(set(xs)) == 3
    assert MapWord() == MapWord(()) and len(MapWord()) == 0
    assert len(MapWord((Atom.L, Atom.R, Atom.R))) == 3


def test_scalar_mul_and_str():
    assert GoldInt(1, 2) * 3 == 3 * GoldInt(1, 2) == GoldInt(3, 6)
    assert str(GoldInt(3, -2)) == "3-2*phi" and str(GoldInt(0, 5)) == "0+5*phi"


def test_mul_phi_square():
    assert PHI * PHI == GoldInt(1, 1)


def test_mul_derived_square():
    # (1 + 2 phi)^2 = 1 + 4 phi + 4 phi^2 = 5 + 8 phi, expanded by hand
    assert PHI_CUBED * PHI_CUBED == GoldInt(5, 8)


def test_add_identity():
    assert GoldInt(1, 2) + ZERO == GoldInt(1, 2)


@given(gold, gold, gold)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ZERO


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40))
def test_phi_pow_is_a_power(j, k):
    assert phi_pow(j) * phi_pow(k) == phi_pow(j + k)
    assert phi_pow(0) == GoldInt(1, 0)


def test_gold_sign_examples():
    assert gold_sign(ZERO) == 0
    assert gold_sign(GoldInt(1, 2)) == 1
    assert gold_sign(PHI_CUBED - PHI_CUBED) == 0
    # 5 phi = 8.09..., so 8 - 5 phi < 0 < 9 - 5 phi
    assert gold_sign(GoldInt(8, -5)) == -1
    assert gold_sign(GoldInt(9, -5)) == 1


def test_gold_sign_zero_only_at_zero_small_grid():
    for a in range(-30, 31):
        for b in range(-30, 31):
            assert (gold_sign(GoldInt(a, b)) == 0) == (a == 0 and b == 0)


def test_apply_map_anchors():
    assert MapWord((Atom.L,)).apply(PHI) == ZERO
    assert MapWord((Atom.R,)).apply(PHI) == PHI_CUBED
    assert MapWord((Atom.L,)).apply(PHI_CUBED) == PHI_CUBED
    # the join of F[-1,2] and F[-3,5] holds F[-1,2] by L, then R, then R
    assert MapWord((Atom.R, Atom.R, Atom.L)).apply(GoldInt(18, -10)) == GoldInt(-1, 2)


def test_apply_map_atoms_act_right_to_left():
    # L then R is not R then L
    z = GoldInt(2, -1)
    lr = MapWord((Atom.L, Atom.R)).apply(z)  # R first
    rl = MapWord((Atom.R, Atom.L)).apply(z)
    assert lr == MapWord((Atom.L,)).apply(MapWord((Atom.R,)).apply(z))
    assert lr != rl


@given(words, gold)
def test_affine_parts_agree_with_apply(w, z):
    # every word acts as z -> phi^n*z + W(0), with n = #L + 2*#R: the level it descends
    n = sum(1 if a is Atom.L else 2 for a in w.atoms)
    assert w.apply(z) == phi_pow(n) * z + w.apply(ZERO)


def test_affine_parts_of_each_atom():
    # L(z) = phi*z - phi^2 and R(z) = phi^2 * z; the empty word is the identity
    for z in (ZERO, PHI, GoldInt(-7, 4), GoldInt(10**30, -3)):
        assert MapWord((Atom.L,)).apply(z) == PHI * z - phi_pow(2)
        assert MapWord((Atom.R,)).apply(z) == phi_pow(2) * z
        assert MapWord(()).apply(z) == z


def test_fixed_point_anchors():
    # the fixed points of the self-containment theorem: L fixes phi^3 = F[1,2], R fixes 0 = F[0,0]
    assert MapWord((Atom.L,)).apply(PHI_CUBED) == PHI_CUBED
    assert MapWord((Atom.R, Atom.R, Atom.R)).apply(ZERO) == ZERO


def test_fixed_point_mixed_word_has_none():
    # brute force: L R fixes no lattice point
    w = MapWord((Atom.L, Atom.R))
    for a in range(-50, 51):
        for b in range(-50, 51):
            z = GoldInt(a, b)
            assert w.apply(z) != z


@settings(max_examples=30)
@given(gold, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_commutator_is_constant(z, p, q):
    lr = MapWord((Atom.L,) * p + (Atom.R,) * q)
    rl = MapWord((Atom.R,) * q + (Atom.L,) * p)
    want = PHI_CUBED * (phi_pow(p) - GoldInt(1, 0)) * (phi_pow(2 * q) - GoldInt(1, 0))
    assert lr.apply(z) - rl.apply(z) == want


def test_word_tokens_and_str():
    w = MapWord((Atom.L, Atom.R))
    assert w.tokens() == ["L", "R"]
    assert str(w) == "L R"
    assert str(MapWord(())) == "<identity>"


def test_all_atoms_are_lattice_bijections():
    # L and R against the search's inverse steps, which give [L^-1(z), R^-1(z)] for a one-pair frontier
    points = [GoldInt(a, b) for a, b in product(range(-12, 13), repeat=2)]
    for i, atom in enumerate(Atom):
        w = MapWord((atom,))
        images = {w.apply(z) for z in points}
        assert len(images) == len(points)
        for z in points:
            y = w.apply(z)
            assert _inverse_steps([(y.a, y.b)])[i] == (z.a, z.b)
            assert w.apply(GoldInt(*_inverse_steps([(z.a, z.b)])[i])) == z


def _phi_log_cases(digits):
    """Positive (z, w) int-pair pairs: random ones, cancelling ones and the certificate's."""
    rng = random.Random(digits)
    big = 10 ** (digits - 1)
    cases = []
    while len(cases) < 12:
        z = rng.randint(-10 * big, 10 * big), rng.randint(-10 * big, 10 * big)
        w = rng.randint(-10 * big, 10 * big), rng.randint(0, 9)
        if gold_sign(GoldInt(*z)) > 0 and gold_sign(GoldInt(*w)) > 0:
            cases.append((z, w))
    # delta_0 = d - c*phi of (c, d) = (F_k, F_(k+1)) is (-1/phi)^k, tiny beside c and d; negative for odd k
    k = 4 * digits + 7
    cases += [((1, 0), (-fib(k + 1), fib(k))), ((1, 0), (fib(k + 2), -fib(k + 1))), ((fib(k + 2), -fib(k + 1)), (big, 0))]
    # the certificate pair F[big + 100, -37], F[3, -5]: m near -log_phi(big)
    (_, x1, y1), (_, x2, y2) = _conjugate_gap(FibTree(big + 100, -37)), _conjugate_gap(FibTree(3, -5))
    cases.append(((x1 + 2, y1 - 1), (x2, y2)))
    return cases


@pytest.mark.parametrize("digits", [10, 100, 1000, 4000])
def test_phi_log_is_the_least_power_from_one_doubling_and_three_sign_tests(count_calls, digits):
    calls = count_calls("_sign", "_fib_signed")
    ms = []
    for z, w in _phi_log_cases(digits):
        calls.clear()
        m, f, g = _phi_log(*z, *w)
        counts = Counter(name for name, _ in calls)
        assert counts["_fib_signed"] == 1 and counts["_sign"] <= 3, (z, w, counts)
        calls.clear()
        low, _, _ = _phi_log(*z, *w, walk=False)
        assert calls == [] and m - 1 <= low <= m, (m, low)
        ms.append(m)
        # the definition, through GoldInt products: phi^m*z >= w > phi^(m-1)*z
        Z, W = GoldInt(*z), GoldInt(*w)
        assert phi_pow(m) == GoldInt(f, g)
        assert gold_sign(phi_pow(m) * Z - W) >= 0 > gold_sign(phi_pow(m - 1) * Z - W), (z, w, m)
    assert min(ms) < 0 < max(ms)


@pytest.mark.parametrize("z, w", [((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, -1), (1, 0)), ((1, 0), (-2, 1)), ((-1, 0), (-1, 0))])
def test_phi_log_rejects_nonpositive_arguments(z, w):
    with pytest.raises(ValueError):
        _phi_log(*z, *w)
