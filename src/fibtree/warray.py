"""The Wythoff array, the consecutive-integer region of F[1,2], and g(n).

F[1,2] is tiled by nested copies of itself; the complement of the first
left copy reads off the positive integers level by level, and its
ascending branches are the rows of the Wythoff array (row j seeded by
(u(u(j)), v(u(j)))).  Hofstadter's g(n) = n - g(g(n-1)) gives each
position's parent label in F[1,2]; it has the closed form
g(n) = floor((n+1)/phi) = u(n+1) - (n+1), computed here in O(1) big-int
operations for any n.  The recursion itself is the oracle in
`verify.check_hofstadter`, and the brute-force list of primitive pairs
over rule-built levels, whose pairs in F[1,2] seed the array's rows, is
`verify.primitive_pairs_in_tree`.
"""

from __future__ import annotations

from .wythoff import u, v


def wythoff_array(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """The rows x cols corner as a tuple of rows, each extended by the Fibonacci recursion."""
    if rows < 1 or cols < 2:
        raise ValueError(f"need rows >= 1 and cols >= 2, got {rows}x{cols}")
    out = []
    for j in range(1, rows + 1):
        m = u(j)
        row = [u(m), v(m)]
        while len(row) < cols:
            row.append(row[-2] + row[-1])
        out.append(tuple(row))
    return tuple(out)


def hofstadter_levels(n_max: int) -> list[tuple[int, int]]:
    """Label interval per level of the consecutive-integer region of F[1,2].

    Level 0 is [1..1]; level n >= 1 is [F_{n+1}+1 .. F_{n+2}], the
    complement of the nested left copy of the whole tree.  Concatenated,
    the intervals read 1, 2, 3, ... without gap or repeat.  The edges
    step by the Fibonacci recursion, one addition per level.
    """
    if n_max < 0:
        raise ValueError(f"level must be >= 0, got {n_max}")
    out = [(1, 1)]
    f, g = 1, 2  # F_{n+1}, F_{n+2} at n = 1
    for _ in range(n_max):
        out.append((f + 1, g))
        f, g = g, f + g
    return out


def hofstadter_g(n: int) -> int:
    """Hofstadter's g(n) = n - g(g(n-1)), g(0) = 0, by its closed form (A005206).

    g(n) = floor((n+1)/phi) = floor((n+1)*phi) - (n+1) = u(n+1) - (n+1),
    since 1/phi = phi - 1; for n >= 1 this is also the inclusive u-count
    at position n.
    """
    if n < 0:
        raise ValueError(f"g needs n >= 0, got {n}")
    return u(n + 1) - (n + 1)

