"""Wythoff pair sequences extended to all of Z, and two-term Fibonacci seeds.

The lower sequence is u(n) = floor(n*phi) for n > 0 (OEIS A000201), with
u(0) = -1 and u(-n) = -u(n) - 1; the upper sequence is v(n) = u(n) + n
(A001950 on the positive side).  Floors are computed through integer
square roots, never through floats: 5*n**2 is not a perfect square for
n != 0, so floor((n + sqrt(5 n^2)) / 2) is exact and unambiguous.
"""

from __future__ import annotations

from math import isqrt

from .goldring import _fib_signed, _phi_log, _Record, _set, _sign


def u(n: int) -> int:
    """Lower Wythoff value at any integer rank."""
    if n == 0:
        return -1
    if n > 0:
        return (n + isqrt(5 * n * n)) // 2
    m = -n
    return -((m + isqrt(5 * m * m)) // 2) - 1


def v(n: int) -> int:
    """Upper Wythoff value, v(n) = u(n) + n."""
    return u(n) + n


def u_inverse(y: int) -> int | None:
    """The unique rank m with u(m) == y, or None when y is not a u-value.

    For y >= 1 the only candidate is floor((y+1)/phi), computed exactly
    as u(y+1) - (y+1); the negative side mirrors through the reflection
    u(-m) = -u(m) - 1.
    """
    if y >= 1:
        m = u(y + 1) - (y + 1)
        return m if u(m) == y else None
    if y == -1:
        return 0
    if y == 0:
        return None
    m = u_inverse(-y - 1)
    return -m if m is not None and m >= 1 else None


class FibSeq(_Record):
    """A bidirectional Fibonacci sequence seeded by its index-0 and index-1 terms."""

    __slots__ = ("c", "d")

    def __init__(self, c: int, d: int) -> None:
        _set(self, "c", c)
        _set(self, "d", d)

    def term(self, n: int) -> int:
        """Term at any integer index: c*F_{n-1} + d*F_n."""
        return self.pair(n)[0]

    def pair(self, n: int) -> tuple[int, int]:
        """(term(n), term(n + 1)) from one `_fib_signed` evaluation (f, g) = (F_n, F_(n+1))."""
        f, g = _fib_signed(n)
        return self.c * (g - f) + self.d * f, self.c * f + self.d * g

    def is_zero(self) -> bool:
        return self.c == 0 and self.d == 0

    def sign(self) -> int:
        """+1 when the terms head to +infinity, -1 to -infinity, 0 for the zero seed."""
        return _sign(self.c, self.d)

    def __str__(self) -> str:
        return f"F[{self.c},{self.d}]"


def reference_index(seq: FibSeq) -> int:
    """The unique index nu splitting the alternating and monotonic parts.

    For a positive sequence: term(nu - 1) > term(nu) >= 0; for a negative
    sequence the inequalities flip.  Negating a sequence keeps nu, so
    take it positive.  Write t_m = A*phi^m + B*(-1/phi)^m with
    A = (d + c/phi)/sqrt(5) > 0 and B = -(d - c*phi)/sqrt(5) != 0.

    Characterization.  Since t(nu-1) - t(nu) = -t(nu-2), the defining
    inequalities read t(nu-2) < 0 <= t(nu-1), t(nu): nu - 1 is the first
    index of the nonnegative tail (two consecutive nonnegative terms keep
    every later term nonnegative, and the terms alternate in sign far
    enough back), so nu exists and is unique.

    Estimate.  |A*phi^m| and |B*phi^-m| cross at m* = log_phi(|B|/A)/2,
    with |B|/A = |d - c*phi| / |d + c/phi|; so t_m > 0 for m > m*, and
    one of t_m, t_(m-1) is negative for m < m*: m* < nu <= m* + 2.
    `goldring._phi_log` with no walk gives k* or k* - 1 for the least
    k* >= 2m*, so (k + 3)//2 is within one index of nu.

    Walk.  From the estimate, the pair (t(m-2), t(m-1)) is updated by one
    addition per step: both nonnegative means nu < m, a negative t(m-1)
    or t(m) means nu > m, anything else is the defining pattern.  It is
    exact whatever the estimate, which only keeps it short.
    """
    if seq.is_zero():
        raise ValueError("reference index undefined for F[0,0]")
    s = seq if seq.sign() > 0 else FibSeq(-seq.c, -seq.d)
    sigma = _sign(s.d, -s.c)  # the sign of d - c*phi; k from phi^k*|d + c/phi| >= |d - c*phi|
    nu = (_phi_log(s.d - s.c, s.c, sigma * s.d, -sigma * s.c, walk=False)[0] + 3) // 2
    a, b = s.pair(nu - 2)
    while True:
        if a >= 0 and b >= 0:
            nu, a, b = nu - 1, b - a, a
        elif b < 0 or a + b < 0:
            nu, a, b = nu + 1, b, a + b
        else:
            return nu
