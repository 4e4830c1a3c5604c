"""Labeled trees on the Fibonacci generation scheme u -> uv, v -> u.

A tree is identified by two integers: root label a, and b the label of
the root's v-child.  Level n then carries exactly the consecutive
integers from lo(n) to hi(n) = lo(n) + F_{n+2} - 1.  Both level edges
follow the Fibonacci recursion: H_n = hi(n) is seeded by (a, b), and
E_n = lo(n) - 1 = H_n - F_{n+2} by (a - 1, b - 2).  `_edges` evaluates
both at once, and every node query here reads its closed form off that
one evaluation, O(1) in big-int operations: the node at position pos of
level n is labeled lo(n) + pos - 1 and lettered like position pos of
the infinite Fibonacci word.  `build_levels` applies the three child
labeling rules literally, and `u_nodes` walks its u-nodes; they are the
brute-force route that the occurrence counts and the `verify` suites
compare the closed forms against.
"""

from __future__ import annotations

from collections.abc import Iterator

from .goldring import GoldInt, _fib_signed, _Record, _set
from .fibword import MAX_WORD_LEVEL, U, V, letter_at, u_count

# One rules-built node: (label, letter, 1-based parent position or None).
LevelNode = tuple[int, str, int | None]


class FibTree(_Record):
    """Tree with root label a and first-level labels b-1, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _set(self, "a", a)
        _set(self, "b", b)

    def gold(self) -> GoldInt:
        return GoldInt(self.a, self.b)

    def hi(self, n: int) -> int:
        """Rightmost label at level n."""
        return _edges(self, n)[1]

    def lo(self, n: int) -> int:
        """Leftmost label at level n."""
        return _edges(self, n)[0] + 1

    def __str__(self) -> str:
        return f"F[{self.a},{self.b}]"


def _edges(t: FibTree, n: int) -> tuple[int, int, int, int]:
    """(E_n, H_n, E_(n+1), H_(n+1)) with E_n = lo(n) - 1 and H_n = hi(n), any integer n.

    From one evaluation (f, g) = (F_n, F_(n+1)): H_n = a*F_(n-1) + b*F_n,
    and each E is its H less the level's width, E_n = H_n - F_(n+2).
    """
    f, g = _fib_signed(n)
    h0, h1 = t.a * (g - f) + t.b * f, t.a * f + t.b * g
    return h0 - f - g, h0, h1 - f - 2 * g, h1


class NodeRef(_Record):
    """Address of one node: level n >= 0 and 1-based position within the level."""

    __slots__ = ("level", "pos")

    def __init__(self, level: int, pos: int) -> None:
        _set(self, "level", level)
        _set(self, "pos", pos)


class LevelLabeling(_Record):
    """Closed-form label interval lo..hi of level n; its letters are `word(n)`."""

    __slots__ = ("n", "lo", "hi")

    def __init__(self, n: int, lo: int, hi: int) -> None:
        _set(self, "n", n)
        _set(self, "lo", lo)
        _set(self, "hi", hi)


def level_interval(t: FibTree, n: int) -> LevelLabeling:
    """The interval of consecutive labels at level n."""
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    e, h, _, _ = _edges(t, n)
    return LevelLabeling(n, e + 1, h)


def build_levels(t: FibTree, n: int) -> list[list[LevelNode]]:
    """Levels 0..n built by literally applying the three labeling rules.

    Rules: the root (labeled a) gets children labeled b-1 (u) and b (v);
    a u-node labeled y under a parent labeled x gets children x+y-1 (u)
    and x+y (v); a v-node labeled t under z gets the single child z+t (u).
    An n past MAX_WORD_LEVEL raises.
    """
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if n > MAX_WORD_LEVEL:
        raise ValueError(f"level {n} exceeds build cap {MAX_WORD_LEVEL}")
    levels: list[list[LevelNode]] = [[(t.a, U, None)]]
    if n == 0:
        return levels
    levels.append([(t.b - 1, U, 1), (t.b, V, 1)])
    for _ in range(2, n + 1):
        prev = levels[-1]
        above = levels[-2]
        nxt: list[LevelNode] = []
        for pos, (label, letter, ppos) in enumerate(prev, 1):
            x = above[ppos - 1][0]
            if letter == U:
                nxt.append((x + label - 1, U, pos))
                nxt.append((x + label, V, pos))
            else:
                nxt.append((x + label, U, pos))
        levels.append(nxt)
    return levels


def u_nodes(t: FibTree, n: int) -> Iterator[tuple[int, int, int, int, str]]:
    """(level, pos, label, parent label, parent letter) of every u-node on levels 1..n.

    Read off the rule-built levels, level by level and left to right.
    A u-node under a u-node roots a primitive branch, seeded by (label,
    parent label + label).  Built by `build_levels`, so n past
    MAX_WORD_LEVEL raises.
    """
    levels = build_levels(t, n)
    for level in range(1, n + 1):
        above = levels[level - 1]
        for pos, (label, letter, ppos) in enumerate(levels[level], 1):
            if letter == U:
                parent, parent_letter, _ = above[ppos - 1]
                yield level, pos, label, parent, parent_letter


def _check_ref(t: FibTree, ref: NodeRef) -> tuple[int, int, int, int]:
    """`_edges` at the node's level, once the node is known to exist there."""
    if ref.level < 0:
        raise ValueError(f"level must be >= 0, got {ref.level}")
    edges = _edges(t, ref.level)
    width = edges[1] - edges[0]  # F_(level+2)
    if not 1 <= ref.pos <= width:
        raise ValueError(f"position {ref.pos} outside 1..{width} at level {ref.level}")
    return edges


def node_label(t: FibTree, ref: NodeRef) -> tuple[int, str]:
    """Label and letter of one node: lo(level) + pos - 1, and the word's letter at pos.

    The paper also writes the label through the Wythoff sequences, as
    lo - 1 + u(k) at the k-th u-node and lo - 1 + v(l) at the l-th
    v-node; that route agrees because pos == u(u_count(pos)) at u-nodes
    and pos == v(v_count(pos)) at v-nodes, an identity of positions alone
    that `verify.check_consecutive_labels` checks.
    """
    return _check_ref(t, ref)[0] + ref.pos, letter_at(ref.pos)


def parent_label(t: FibTree, ref: NodeRef) -> int:
    """Label of the parent node: lo(level-1) - 1 + inclusive u-count at pos."""
    e0, _, e1, _ = _check_ref(t, ref)
    if ref.level == 0:
        raise ValueError("root has no parent")
    return e1 - e0 + u_count(ref.pos)  # lo(level-1) - 1 = E_(level+1) - E_level


def children_labels(t: FibTree, ref: NodeRef) -> list[tuple[int, str]]:
    """Labels and letters of the node's children, by the labeling rules."""
    e0, _, e1, _ = _check_ref(t, ref)
    # x is parent_label's formula; at the root it reads b - a, and the u-node rule gives b - 1, b
    label, x = e0 + ref.pos, e1 - e0 + u_count(ref.pos)
    if letter_at(ref.pos) == U:
        return [(x + label - 1, U), (x + label, V)]
    return [(x + label, U)]


def branch_sequence(t: FibTree, start: NodeRef, length: int) -> list[int]:
    """Labels along the ascending branch rooted at a u-node.

    The branch alternates u- and v-nodes (u-node -> its v-child -> that
    child's u-child -> ...), so consecutive labels obey the Fibonacci
    recursion; the first two are the node's label and its v-child's.
    """
    if length < 2:
        raise ValueError(f"branch length must be >= 2, got {length}")
    label, letter = node_label(t, start)
    if letter != U:
        raise ValueError(f"branch must start at a u-node, got v at {start}")
    out = [label, children_labels(t, start)[1][0]]
    while len(out) < length:
        out.append(out[-2] + out[-1])
    return out
