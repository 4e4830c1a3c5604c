"""Independent routes to the answers the benchmark checks.

Nothing here imports fibtree.  Fibonacci numbers come from 2x2 matrix
powers, Beatty floors and signs in Z[phi] from `decimal` at a precision
of twice the input's digits plus a guard (|n*phi - m| >= 1/(3n) for
n != 0, so that precision decides every floor), and small levels from
applying the three labeling rules literally.
"""

from __future__ import annotations

from decimal import ROUND_FLOOR, Decimal, localcontext
from functools import lru_cache

U, V = "u", "v"
_GUARD = 30


def _digits(n: int) -> int:
    # Decimal digits of |n|, over-estimated by at most one; avoids str() on huge ints.
    return abs(n).bit_length() * 30103 // 100000 + 1


@lru_cache(maxsize=None)
def _phi_at(prec: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        return (1 + Decimal(5).sqrt()) / 2


def _prec(*values: int) -> int:
    # Rounded up to a multiple of 500 so only a few phi constants are computed.
    need = 2 * max(_digits(v) for v in values) + _GUARD
    return -(-need // 500) * 500


def beatty(n: int) -> int:
    """floor(n * phi) for n >= 1."""
    if n < 1:
        raise ValueError(f"beatty needs n >= 1, got {n}")
    prec = _prec(n)
    with localcontext() as ctx:
        ctx.prec = prec
        return int((Decimal(n) * _phi_at(prec)).to_integral_value(rounding=ROUND_FLOOR))


def u(n: int) -> int:
    """Lower Wythoff value on Z: u(0) = -1, u(-n) = -u(n) - 1."""
    if n == 0:
        return -1
    if n > 0:
        return beatty(n)
    return -beatty(-n) - 1


def v(n: int) -> int:
    return u(n) + n


def u_inverse(y: int) -> int | None:
    """Rank m with u(m) == y, or None; the only candidate for y >= 1 is ceil(y/phi)."""
    if y >= 1:
        m = beatty(y) - y + 1  # floor(y/phi) + 1, and y/phi is never an integer
        return m if beatty(m) == y else None
    if y == -1:
        return 0
    if y == 0:
        return None
    m = u_inverse(-y - 1)
    return None if m is None else -m


def u_count(i: int) -> int:
    """Number of m >= 1 with floor(m*phi) <= i, that is floor((i+1)/phi)."""
    return beatty(i + 1) - (i + 1)


def letter_at(i: int) -> str:
    return U if u_inverse(i) is not None else V


def hofstadter_g(n: int) -> int:
    """g(n) = floor((n+1)/phi) for n >= 1 (OEIS A005206), g(0) = 0."""
    return 0 if n == 0 else u_count(n)


def gold_sign(a: int, b: int) -> int:
    """Sign of a + b*phi; only zero at a == b == 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    prec = _prec(a, b)
    with localcontext() as ctx:
        ctx.prec = prec
        x = Decimal(a) + Decimal(b) * _phi_at(prec)
    return (x > 0) - (x < 0)


def classify(a: int, b: int) -> str:
    """Side of the strip 0 < a + b*phi < phi^3 = 1 + 2*phi."""
    if gold_sign(a, b) <= 0:
        return "NonpositiveSide"
    if gold_sign(a - 1, b - 2) >= 0:
        return "PositiveSide"
    return "RepresentsZ"


_fib_memo: dict[int, int] = {}


def fib(n: int) -> int:
    """F_n for any integer n, from the power of [[1, 1], [1, 0]]."""
    if n < 0:
        f = fib(-n)
        return f if n & 1 else -f
    got = _fib_memo.get(n)
    if got is not None:
        return got
    a, b, c, d = 1, 1, 1, 0
    ra, rb, rc, rd = 1, 0, 0, 1
    k = n
    while k:
        if k & 1:
            ra, rb, rc, rd = ra * a + rb * c, ra * b + rb * d, rc * a + rd * c, rc * b + rd * d
        a, b, c, d = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
        k >>= 1
    _fib_memo[n] = rb
    return rb


def term(c: int, d: int, n: int) -> int:
    """Index-n term of the bidirectional Fibonacci sequence seeded (c, d)."""
    return c * fib(n - 1) + d * fib(n)


def hi(a: int, b: int, n: int) -> int:
    """Rightmost label of F[a,b] at level n."""
    return term(a, b, n)


def lo(a: int, b: int, n: int) -> int:
    return term(a, b, n) - fib(n + 2) + 1


def node(a: int, b: int, n: int, pos: int) -> tuple[int, str]:
    """Label and letter of the node at (n, pos), 1 <= pos <= F_{n+2}."""
    return lo(a, b, n) + pos - 1, letter_at(pos)


def parent(a: int, b: int, n: int, pos: int) -> int:
    """Label of the parent of (n, pos), n >= 1: the generator of pos is its u-count."""
    return lo(a, b, n - 1) + u_count(pos) - 1


# One rule-built node: (label, letter, 1-based parent position or None).
@lru_cache(maxsize=64)
def rule_levels(a: int, b: int, n: int) -> tuple[tuple[tuple[int, str, int | None], ...], ...]:
    """Levels 0..n of F[a,b] by the three labeling rules, applied literally."""
    levels = [((a, U, None),)]
    if n >= 1:
        levels.append(((b - 1, U, 1), (b, V, 1)))
    for _ in range(2, n + 1):
        above, prev = levels[-2], levels[-1]
        nxt = []
        for pos, (label, letter, ppos) in enumerate(prev, 1):
            x = above[ppos - 1][0]
            if letter == U:
                nxt.append((x + label - 1, U, pos))
                nxt.append((x + label, V, pos))
            else:
                nxt.append((x + label, U, pos))
        levels.append(tuple(nxt))
    return tuple(levels)


def rule_pairs(a: int, b: int, n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(u-node label, its v-child label) -> first (level, pos), levels 0..n-1, by the rules."""
    levels = rule_levels(a, b, n)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for m in range(n):
        kids: dict[int, list[int]] = {}
        for label, letter, ppos in levels[m + 1]:
            if letter == V:
                kids[ppos] = label
        for pos, (label, letter, _) in enumerate(levels[m], 1):
            if letter == U and pos in kids:
                out.setdefault((label, kids[pos]), (m, pos))
    return out


# The subtree maps on identities (a, b): L descends to the first left subtree,
# R to the first right subtree two levels down.
def map_l(a: int, b: int) -> tuple[int, int]:
    return b - 1, a + b - 1


def map_r(a: int, b: int) -> tuple[int, int]:
    return a + b, a + 2 * b


def map_l_inv(a: int, b: int) -> tuple[int, int]:
    return b - a, a + 1


def map_r_inv(a: int, b: int) -> tuple[int, int]:
    return 2 * a - b, b - a


_FORWARD = {"L": map_l, "R": map_r}


def apply_word(tokens: list[str], a: int, b: int) -> tuple[int, int]:
    """Apply a forward word given as tokens; the rightmost token acts first."""
    for tok in reversed(tokens):
        a, b = _FORWARD[tok](a, b)
    return a, b


def ancestors(a: int, b: int, radius: int) -> set[tuple[int, int]]:
    """Identities reached from (a, b) by at most `radius` inverse steps."""
    out = {(a, b)}
    frontier = [(a, b)]
    for _ in range(radius):
        frontier = [f(*z) for z in frontier for f in (map_l_inv, map_r_inv)]
        out.update(frontier)
    return out


def subtree_absent(c: int, d: int, a: int, b: int, cap: int) -> bool:
    """No u-node at levels 1..cap of F[a,b] carries c with v-child d.

    A node labeled c sits at pos = c - lo(n) + 1 of level n; it is the
    wanted one when it is a u-node whose parent (the v-child's other
    summand) is labeled d - c.
    """
    f0, f1 = fib(1), fib(2)  # F_{n+1}, F_{n+2} at n = 0
    hi_prev, hi_cur = term(a, b, -1), term(a, b, 0)
    for n in range(0, cap + 1):
        if n >= 1:
            pos = c - (hi_cur - f1 + 1) + 1
            if 1 <= pos <= f1 and (hi_prev - f0 + 1) + u_count(pos) - 1 == d - c:
                if letter_at(pos) == U:
                    return False
        hi_prev, hi_cur = hi_cur, hi_prev + hi_cur
        f0, f1 = f1, f0 + f1
    return True
