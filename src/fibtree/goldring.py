"""Exact arithmetic in the golden-ratio ring Z[phi].

Elements are coefficient pairs (a, b) standing for a + b*phi with
phi = (1 + sqrt(5))/2, reduced by phi**2 = 1 + phi.  Everything is
integer-exact: sign tests compare squares instead of evaluating square
roots, and the four affine subtree maps are total bijections of the
coefficient lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


# Bounded: one doubling chain holds about log2(n) entries, and the `searches` replay leaves 155; unbounded,
# 300 `node_label` calls at random levels in 10^5..2*10^5 left 2,871 entries and 16 MiB more peak RSS.
@lru_cache(maxsize=512)
def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0, by fast doubling."""
    if n == 0:
        return 0, 1
    f, g = _fib_pair(n >> 1)
    c = f * (2 * g - f)
    d = f * f + g * g
    if n & 1:
        return d, c + d
    return c, d


def _fib_signed(n: int) -> tuple[int, int]:
    """(F_n, F_(n+1)) for any integer n, from one `_fib_pair` doubling.

    The library's one negative-index rule: for k = -n > 0, with
    (f, g) = (F_k, F_(k+1)), F_(-k) = (-1)^(k+1) f and F_(1-k) = (-1)^k (g - f).
    """
    if n >= 0:
        return _fib_pair(n)
    f, g = _fib_pair(-n)
    return (f, f - g) if n & 1 else (-f, g - f)


def fib(n: int) -> int:
    """Fibonacci number F_n for any integer n, with F_{-n} = (-1)**(n+1) F_n."""
    return _fib_signed(n)[0]


@dataclass(frozen=True)
class GoldInt:
    """The ring element a + b*phi."""

    a: int
    b: int

    def __add__(self, other: GoldInt) -> GoldInt:
        return GoldInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: GoldInt) -> GoldInt:
        return GoldInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> GoldInt:
        return GoldInt(-self.a, -self.b)

    def __mul__(self, other: GoldInt | int) -> GoldInt:
        if isinstance(other, int):
            return GoldInt(self.a * other, self.b * other)
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        return GoldInt(
            self.a * other.a + self.b * other.b,
            self.a * other.b + self.b * other.a + self.b * other.b,
        )

    __rmul__ = __mul__

    def conj(self) -> GoldInt:
        """Galois conjugate, phi -> 1 - phi."""
        return GoldInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Field norm a**2 + ab - b**2; multiplicative, zero only at zero."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*phi"


ZERO = GoldInt(0, 0)
ONE = GoldInt(1, 0)
PHI = GoldInt(0, 1)
PHI_CUBED = GoldInt(1, 2)


def phi_pow(k: int) -> GoldInt:
    """phi**k = F_(k-1) + F_k*phi for any integer k; phi is a unit, so negative powers stay in the ring."""
    return GoldInt(*_fib_signed(k - 1))


def _sign(a: int, b: int) -> int:
    """Sign of the real number a + b*phi, decided with integer arithmetic only.

    Writing 2(a + b*phi) = s + b*sqrt(5) with s = 2a + b, mixed-sign
    cases reduce to comparing s**2 against 5*b**2; 5*b**2 is never a
    perfect square for b != 0, so the comparison is never ambiguous.
    The searches call it on bare int pairs; `gold_sign` is its form for
    ring elements.
    """
    s = 2 * a + b
    if s >= 0 and b >= 0:
        return 1 if (s or b) else 0
    if s <= 0 and b <= 0:
        return -1
    if s > 0:
        return 1 if s * s > 5 * b * b else -1
    return 1 if 5 * b * b > s * s else -1


def gold_sign(z: GoldInt) -> int:
    """Sign of the real number a + b*phi, by `_sign`."""
    return _sign(z.a, z.b)


class Atom(Enum):
    """One step of the subtree-identity maps, or its inverse."""

    L = "L"
    R = "R"
    LINV = "L^-1"
    RINV = "R^-1"

    @property
    def inverse(self) -> Atom:
        return _INVERSE[self]


_INVERSE = {Atom.L: Atom.LINV, Atom.LINV: Atom.L, Atom.R: Atom.RINV, Atom.RINV: Atom.R}

# Each atom acts affinely, z -> phi**k * z + beta; its exponent k:
# L(z) = phi*z - phi^2, R(z) = phi^2 * z, and their inverses.
_EXPONENT = {Atom.L: 1, Atom.R: 2, Atom.LINV: -1, Atom.RINV: -2}


def _apply_atom(atom: Atom, z: GoldInt) -> GoldInt:
    a, b = z.a, z.b
    if atom is Atom.L:
        return GoldInt(b - 1, a + b - 1)
    if atom is Atom.R:
        return GoldInt(a + b, a + 2 * b)
    if atom is Atom.LINV:
        return GoldInt(b - a, a + 1)
    return GoldInt(2 * a - b, b - a)


@dataclass(frozen=True)
class MapWord:
    """A finite composition of L, R, L^-1, R^-1.

    Atoms compose like functions: the rightmost atom acts first.  The
    empty word is the identity.
    """

    atoms: tuple[Atom, ...] = ()

    def __len__(self) -> int:
        return len(self.atoms)

    def apply(self, z: GoldInt) -> GoldInt:
        for atom in reversed(self.atoms):
            z = _apply_atom(atom, z)
        return z

    def inverse(self) -> MapWord:
        return MapWord(tuple(a.inverse for a in reversed(self.atoms)))

    def is_forward(self) -> bool:
        return all(a is Atom.L or a is Atom.R for a in self.atoms)

    def affine_parts(self) -> tuple[int, GoldInt]:
        """(k, beta) such that the word acts as z -> phi**k * z + beta.

        k adds up the atoms' exponents, and beta is the image of 0.
        """
        return sum(_EXPONENT[a] for a in self.atoms), self.apply(ZERO)

    def tokens(self) -> list[str]:
        return [a.value for a in self.atoms]

    def __str__(self) -> str:
        return " ".join(self.tokens()) if self.atoms else "<identity>"


def fixed_point(word: MapWord) -> GoldInt | None:
    """The unique real fixed point of a nonempty word, if it lies in Z[phi].

    A word acts as z -> phi**k z + beta.  For k != 0 the fixed point is
    beta / (1 - phi**k), solved exactly in the fraction field and kept
    only when both coordinates are integral.  A pure translation
    (k == 0, beta != 0) has no fixed point.
    """
    if not word.atoms:
        raise ValueError("empty word: identity map, all points fixed")
    k, beta = word.affine_parts()
    if k == 0:
        if beta.is_zero():
            raise ValueError("degenerate word: identity map, all points fixed")
        return None
    den = ONE - phi_pow(k)
    num = beta * den.conj()
    nrm = den.norm()
    if num.a % nrm == 0 and num.b % nrm == 0:
        return GoldInt(num.a // nrm, num.b // nrm)
    return None
