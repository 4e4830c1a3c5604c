"""Fibonacci words over the alphabet {u, v} and their position combinatorics.

Finite levels follow the concatenation recursion; queries against the
infinite word (letters, u-counts, parent positions) are answered in O(1)
big-int operations through the Wythoff sequences, so they work far beyond
any materialized prefix.  Positions are 1-based throughout.
"""

from __future__ import annotations

from .wythoff import u

U = "u"
V = "v"

# Materialization cap of words and rule-built tree levels: level n holds F_{n+2} entries, level 30 about 2.1M.
MAX_WORD_LEVEL = 30


def word(n: int) -> str:
    """The level-n Fibonacci word, F_{n+2} letters, built by the concatenation recursion."""
    if n < 0:
        raise ValueError(f"word level must be >= 0, got {n}")
    if n > MAX_WORD_LEVEL:
        raise ValueError(f"word level {n} exceeds materialization cap {MAX_WORD_LEVEL}")
    w, prev = U, V
    for _ in range(n):
        w, prev = w + prev, w
    return w


def letter_at(i: int) -> str:
    """Letter of the infinite Fibonacci word at position i >= 1.

    Position i carries a u exactly when i is a u-value, i.e. when the
    k-th u (k the inclusive u-count at i) sits at i itself.
    """
    k = u_count(i)
    return U if u(k) == i else V


def u_count(i: int) -> int:
    """Number of u letters at positions 1..i inclusive.

    This is also the position, in the previous level, of the letter that
    generates position i under the substitutions u -> uv, v -> u: each u
    to the left of the generator adds two letters, each v one.
    """
    if i < 1:
        raise ValueError(f"position must be >= 1, got {i}")
    return u(i + 1) - (i + 1)


def v_count(i: int) -> int:
    """Number of v letters at positions 1..i inclusive."""
    return i - u_count(i)

