import random

import pytest

from fibtree.fibword import MAX_WORD_LEVEL, U, V, u_count, v_count, word
from fibtree.goldring import _fib_pair, fib, phi_pow
from fibtree.wythoff import FibSeq, u, v
from fibtree.tree import (
    FibTree,
    NodeRef,
    branch_sequence,
    build_levels,
    children_labels,
    level_interval,
    node_label,
    parent_label,
    u_nodes,
)

T01 = FibTree(0, 1)
T12 = FibTree(1, 2)
T00 = FibTree(0, 0)


def test_level_interval_anchors():
    ival = level_interval(T01, 5)
    assert (ival.lo, ival.hi) == (-7, 5)
    for n in range(12):
        assert (level_interval(T12, n).lo, level_interval(T12, n).hi) == (1, fib(n + 2))
        assert (level_interval(T00, n).lo, level_interval(T00, n).hi) == (-fib(n + 2) + 1, 0)


def test_level_interval_width_and_pattern():
    for n in range(10):
        ival = level_interval(T01, n)
        assert (ival.n, ival.hi - ival.lo + 1) == (n, fib(n + 2))
        assert fib(n + 2) == len(word(n))


def test_level_interval_rejects_negative():
    with pytest.raises(ValueError):
        level_interval(T01, -1)


def test_rules_level_zero_and_one():
    assert build_levels(FibTree(7, -3), 0)[0] == [(7, U, None)]
    assert build_levels(T01, 1)[1] == [(0, U, 1), (1, V, 1)]


def test_rules_level_five_is_the_interval():
    got = build_levels(T01, 5)[5]
    assert [x[0] for x in got] == list(range(-7, 6))
    assert "".join(x[1] for x in got) == word(5)


def test_rules_cap():
    with pytest.raises(ValueError, match="cap"):
        build_levels(T01, MAX_WORD_LEVEL + 1)
    with pytest.raises(ValueError, match="cap"):
        next(u_nodes(T01, MAX_WORD_LEVEL + 1))
    assert list(u_nodes(T01, 0)) == []


def test_node_label_worked_example():
    assert node_label(T01, NodeRef(5, 6)) == (-2, U)
    assert parent_label(T01, NodeRef(5, 6)) == -1
    assert children_labels(T01, NodeRef(5, 6)) == [(-4, U), (-3, V)]
    assert node_label(T01, NodeRef(6, 10)) == (-3, V)


def test_node_label_root():
    assert node_label(FibTree(9, 4), NodeRef(0, 1)) == (9, U)


def test_parent_label_anchors():
    assert parent_label(T01, NodeRef(1, 1)) == 0
    assert parent_label(T12, NodeRef(4, 7)) == 4
    with pytest.raises(ValueError, match="root"):
        parent_label(T01, NodeRef(0, 1))


def test_children_of_root_and_v_node():
    assert children_labels(T01, NodeRef(0, 1)) == [(0, U), (1, V)]
    # level 1 position 2 of F[1,2] is the v-node labeled 2 under the root 1
    assert children_labels(T12, NodeRef(1, 2)) == [(3, U)]


def test_node_queries_match_rules_everywhere():
    for t in (T01, T12, FibTree(-2, 3), FibTree(4, -1)):
        levels = build_levels(t, 15)
        for n in range(16):
            for pos, (label, letter, ppos) in enumerate(levels[n], 1):
                assert node_label(t, NodeRef(n, pos)) == (label, letter)
                if n > 0:
                    assert parent_label(t, NodeRef(n, pos)) == levels[n - 1][ppos - 1][0]


def test_parent_child_duality():
    for t in (T01, FibTree(3, -2)):
        levels = build_levels(t, 15)
        for n in range(15):
            for pos, (label, letter, _) in enumerate(levels[n], 1):
                kids = children_labels(t, NodeRef(n, pos))
                child_rows = [
                    (clabel, cletter)
                    for (clabel, cletter, cp) in levels[n + 1]
                    if cp == pos
                ]
                assert kids == child_rows


def test_branch_sequence_main_and_lucas():
    assert branch_sequence(T12, NodeRef(0, 1), 5) == [1, 2, 3, 5, 8]
    assert branch_sequence(T12, NodeRef(3, 4), 4) == [4, 7, 11, 18]


def test_branch_sequence_recursion_property():
    for start in (NodeRef(0, 1), NodeRef(4, 6), NodeRef(5, 9)):
        t = FibTree(-1, 2)
        label, letter = node_label(t, start)
        if letter != U:
            continue
        g = branch_sequence(t, start, 8)
        for k in range(2, 8):
            assert g[k] == g[k - 2] + g[k - 1]


def test_branch_sequence_walks_the_built_tree():
    t = FibTree(0, 1)
    levels = build_levels(t, 8)
    start = NodeRef(3, 4)
    got = branch_sequence(t, start, 5)
    # follow v-child then its u-child, alternating, inside the built levels
    n, pos = start.level, start.pos
    walked = [levels[n][pos - 1][0]]
    for _ in range(4):
        children = [
            (i, node) for i, node in enumerate(levels[n + 1], 1) if node[2] == pos
        ]
        target = V if levels[n][pos - 1][1] == U else U
        step = [(i, node) for i, node in children if node[1] == target]
        (pos, node), = step
        n += 1
        walked.append(node[0])
    assert got == walked


def test_branch_sequence_preconditions():
    with pytest.raises(ValueError, match="u-node"):
        branch_sequence(T01, NodeRef(1, 2), 4)  # position 2 is a v-node
    with pytest.raises(ValueError, match="length"):
        branch_sequence(T01, NodeRef(0, 1), 1)


def test_node_ref_validation():
    with pytest.raises(ValueError):
        node_label(T01, NodeRef(2, 4))  # level 2 has 3 nodes
    with pytest.raises(ValueError):
        node_label(T01, NodeRef(-1, 1))
    with pytest.raises(ValueError):
        node_label(T01, NodeRef(3, 0))


def test_big_levels_stay_exact():
    # level 120 of F[0,1] has its rightmost label F_120, far past 64 bits
    assert level_interval(T01, 120).hi == fib(120)
    label, _ = node_label(T01, NodeRef(120, 1))
    assert label == fib(120) - fib(122) + 1


def test_node_label_matches_wythoff_route_on_deep_levels():
    # the paper's second route: lo - 1 + u(k) at the k-th u-node, lo - 1 + v(l) at the l-th v-node
    rng = random.Random(4785)
    for t in (T01, FibTree(-7, 12)):
        for n in (120, 4785):
            lo, width = t.lo(n), fib(n + 2)
            positions = list(range(1, 40)) + list(range(width - 40, width + 1))
            positions += [rng.randint(1, width) for _ in range(200)]
            for pos in positions:
                label, letter = node_label(t, NodeRef(n, pos))
                if letter == U:
                    assert label == lo - 1 + u(u_count(pos))
                else:
                    assert label == lo - 1 + v(v_count(pos))


DEEP = 150_001
T_DEEP = FibTree(-7, 12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: node_label(T_DEEP, NodeRef(DEEP, 5)),
        lambda: parent_label(T_DEEP, NodeRef(DEEP, 5)),
        lambda: children_labels(T_DEEP, NodeRef(DEEP, 5)),
        lambda: level_interval(T_DEEP, DEEP),
        lambda: FibSeq(-7, 12).term(DEEP),
        lambda: FibSeq(-7, 12).term(-DEEP),
        lambda: phi_pow(DEEP),
        lambda: phi_pow(-DEEP),
    ],
    ids=["node_label", "parent_label", "children_labels", "level_interval", "term", "term-neg", "phi_pow", "phi_pow-neg"],
)
def test_deep_query_costs_one_doubling_chain(call):
    # each query evaluates its Fibonacci terms once: no more cached doublings than F_DEEP alone needs
    _fib_pair.cache_clear()
    _fib_pair(DEEP)
    chain = _fib_pair.cache_info().currsize
    _fib_pair.cache_clear()
    call()
    assert _fib_pair.cache_info().currsize <= chain
