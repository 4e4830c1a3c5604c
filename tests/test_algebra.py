from hypothesis import given
from hypothesis import strategies as st

from fibtree.algebra import scalar_mul, tree_sum
from fibtree.goldring import fib
from fibtree.order import is_subtree
from fibtree.tree import FibTree

ids = st.integers(min_value=-(10**6), max_value=10**6)
trees = st.builds(FibTree, ids, ids)

ZERO_TREE = FibTree(0, 0)


def test_sum_anchors():
    assert tree_sum(FibTree(0, 1), FibTree(1, 1)) == FibTree(1, 2)
    assert tree_sum(FibTree(5, -3), ZERO_TREE) == FibTree(5, -3)
    assert tree_sum(FibTree(1, 2), FibTree(-1, -2)) == ZERO_TREE


@given(trees, trees, trees)
def test_group_laws(t1, t2, t3):
    assert tree_sum(t1, t2) == tree_sum(t2, t1)
    assert tree_sum(tree_sum(t1, t2), t3) == tree_sum(t1, tree_sum(t2, t3))
    assert tree_sum(t1, ZERO_TREE) == t1
    assert tree_sum(t1, scalar_mul(-1, t1)) == ZERO_TREE


def test_scalar_anchors():
    assert scalar_mul(2, ZERO_TREE) == ZERO_TREE
    assert scalar_mul(-1, FibTree(1, 2)) == FibTree(-1, -2)


@given(st.integers(min_value=-100, max_value=100), st.integers(min_value=-100, max_value=100))
def test_basis_identity(a, b):
    built = tree_sum(scalar_mul(a, FibTree(1, 0)), scalar_mul(b, FibTree(0, 1)))
    assert built == FibTree(a, b)
    assert (built.a, built.b) == (a, b)


@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
def test_sum_verified_level_by_level(a, b, c, d):
    # superposing the levels and subtracting the base interval [-F_{n+2}+1 .. 0]
    # gives the sum tree's level; all three share the width F_{n+2}
    t1, t2 = FibTree(a, b), FibTree(c, d)
    total = tree_sum(t1, t2)
    assert total == FibTree(a + c, b + d)
    for n in range(11):
        assert t1.lo(n) + t2.lo(n) - (1 - fib(n + 2)) == total.lo(n)
        assert t1.hi(n) + t2.hi(n) - 0 == total.hi(n)


def test_order_not_compatible_with_sum():
    # both summands contain F[0,0], but the sums do not stay ordered:
    # F[0,0] + F[0,0] = F[0,0] is not inside F[0,1] + F[1,1] = F[1,2],
    # whose labels are all positive.
    assert is_subtree(ZERO_TREE, FibTree(0, 1)) is not None
    assert is_subtree(ZERO_TREE, FibTree(1, 1)) is not None
    total = tree_sum(FibTree(0, 1), FibTree(1, 1))
    assert total == FibTree(1, 2)
    assert is_subtree(tree_sum(ZERO_TREE, ZERO_TREE), total, level_cap=40) is None
