"""Wythoff pair sequences extended to all of Z, and two-term Fibonacci seeds.

The lower sequence is u(n) = floor(n*phi) for n > 0 (OEIS A000201), with
u(0) = -1 and u(-n) = -u(n) - 1; the upper sequence is v(n) = u(n) + n
(A001950 on the positive side).  Floors are computed through integer
square roots, never through floats: 5*n**2 is not a perfect square for
n != 0, so floor((n + sqrt(5 n^2)) / 2) is exact and unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .goldring import _fib_signed, _sign


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


@dataclass(frozen=True)
class FibSeq:
    """A bidirectional Fibonacci sequence seeded by its index-0 and index-1 terms."""

    c: int
    d: int

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


# A rational lower bound on log_phi(2) = 1.44042009...: bit lengths times
# this ratio estimate levels and indices in integer arithmetic.
LOG_PHI_2 = (3601, 2500)


def delta_bits(c: int, d: int) -> tuple[int, int]:
    """Estimates of log2|d - c*phi| and log2|d + c/phi| from bit lengths, each within 2.

    With g = 2d - c the two numbers are (g - c*sqrt(5))/2 and
    (g + c*sqrt(5))/2, so the larger magnitude is (|g| + sqrt(5)|c|)/2,
    within a factor 1.12 of q/2 with q = |g| + 2|c|, and their product is
    the norm d^2 - cd - c^2, a nonzero integer for (c, d) != (0, 0).  The
    second squared minus the first squared is sqrt(5)*c*g, which says
    which one is larger.  Bit lengths give log2 q and log2|norm| within
    1 each, hence both estimates within 2.
    """
    g = 2 * d - c
    big = (abs(g) + 2 * abs(c)).bit_length() - 1
    small = abs(d * d - c * d - c * c).bit_length() - big
    return (big, small) if c * g <= 0 else (small, big)


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
    `delta_bits` gives log2(|B|/A) within 4, so the estimate m* + 1 is
    off by at most 5 indices.

    Walk.  From the estimate, the pair (t(m-2), t(m-1)) is updated by one
    addition per step: both nonnegative means nu < m, a negative t(m-1)
    or t(m) means nu > m, anything else is the defining pattern.  The
    walk is exact, whatever the estimate; the estimate only keeps it
    short, O(1) steps after O(1) big-int multiplications.
    """
    if seq.is_zero():
        raise ValueError("reference index undefined for F[0,0]")
    s = seq if seq.sign() > 0 else FibSeq(-seq.c, -seq.d)
    bits_b, bits_a = delta_bits(s.c, s.d)
    nu = (bits_b - bits_a) * LOG_PHI_2[0] // (2 * LOG_PHI_2[1]) + 1
    a, b = s.pair(nu - 2)
    while True:
        if a >= 0 and b >= 0:
            nu, a, b = nu - 1, b - a, a
        elif b < 0 or a + b < 0:
            nu, a, b = nu + 1, b, a + b
        else:
            return nu
