"""Exact arithmetic in the golden-ratio ring Z[phi].

Elements are coefficient pairs (a, b) standing for a + b*phi with
phi = (1 + sqrt(5))/2, reduced by phi**2 = 1 + phi.  Everything is
integer-exact: sign tests compare squares instead of evaluating square
roots, and the two forward subtree maps L and R, whose words carry a
tree to its subtrees, are affine maps of the coefficient lattice.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import attrgetter


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


_set = object.__setattr__


class _Record:
    """Base of the library's value types: immutable records whose fields are their `__slots__`.

    Two records are equal when they have the same class and equal fields,
    so GoldInt(1, 2) != FibTree(1, 2); the hash is that of the field
    tuple, the repr reads `FibTree(a=1, b=2)`, and assigning or deleting
    a field raises AttributeError.  Each subclass writes its own
    `__init__`, setting its fields through `_set`: a generic one would
    cost several times as much per construction.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        key = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value; the key is always the field tuple
        cls._key = staticmethod(key if len(cls.__slots__) > 1 else lambda x: (key(x),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since the fields cannot be assigned
        return self.__class__, self._key(self)


class GoldInt(_Record):
    """The ring element a + b*phi."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _set(self, "a", a)
        _set(self, "b", b)

    def __add__(self, other: GoldInt) -> GoldInt:
        return GoldInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: GoldInt) -> GoldInt:
        return GoldInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> GoldInt:
        return GoldInt(-self.a, -self.b)

    def __mul__(self, other: GoldInt) -> GoldInt:
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        return GoldInt(
            self.a * other.a + self.b * other.b,
            self.a * other.b + self.b * other.a + self.b * other.b,
        )

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}*phi"


ONE = GoldInt(1, 0)
PHI = GoldInt(0, 1)


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


def _log8(a: int, b: int) -> int:
    """8*log2(a + b*phi) + theta, the estimate of `_phi_log`; its docstring has the proof."""
    e = (abs(a) | abs(b)).bit_length()
    r = ((a << 24) + b * 27146105) >> e  # 27146105 = floor(phi * 2^24)
    if r > 1 << 16:
        return 8 * (e - 24) + (r**8).bit_length()
    n = a * (a + b) - b * b
    if r < -(1 << 16) or n * a <= 0:
        raise ValueError("phi_log needs positive arguments")
    return _log8(abs(n), 0) - _log8(abs(a) - abs(b), abs(b))


def _phi_log(z0: int, z1: int, w0: int, w1: int, walk: bool = True) -> tuple[int, int, int]:
    """(m, f, g): the least m with phi^m*z >= w, and phi^m = f + g*phi, for z = z0 + z1*phi > 0 and w = w0 + w1*phi > 0.

    The library's one estimate-and-walk; a nonpositive z or w raises
    ValueError.  Estimate: for x = a + b*phi with |a|, |b| < 2^e, `_log8`
    forms r = x*2^(24-e) within 2 by one product with floor(phi*2^24);
    once r > 2^16, 8*(e - 24) + bitlen(r^8) = 8*log2(x) + theta, theta in
    (0, 1] to within 2^-10.  A smaller |r| means a and b*phi cancel
    (opposite signs, or x = 0): the norm N = a(a + b) - b^2 = x*x', with
    x' = |a| - |b| + |b|*phi of the sign of a, gives x > 0 iff N*a > 0,
    and log8(|N|) - log8(|x'|) with theta in (-1, 1).  So for l =
    log_phi(w/z), (log8(w) - log8(z) - 3)*log_phi(2)/8 is in (l - 0.91,
    l - 0.18); its ceiling, m* or m* - 1 for the answer m*, is what
    walk=False returns, as (m, 0, 0).  Walk: phi^m*z = p0 + p1*phi, from
    (f, g) = (F_(m-1), F_m) by one `_fib_signed` call, steps by additions
    and `_sign` tests at the width of phi^m*z and w; exact whatever the
    estimate, it makes two or three tests from m* or m* - 1.
    """
    # round(log_phi(2) * 2^64); the shift divides by 8 * 2^64, and the negations round up
    m = -((3 - _log8(w0, w1) + _log8(z0, z1)) * 26571060766470002757 >> 67)
    if not walk:
        return m, 0, 0
    f, g = _fib_signed(m - 1)
    p0, p1 = f * z0 + g * z1, f * z1 + g * (z0 + z1)
    while _sign(p0 - w0, p1 - w1) < 0:
        m, f, g, p0, p1 = m + 1, g, f + g, p1, p0 + p1
    while _sign(p1 - p0 - w0, p0 - w1) >= 0:
        m, f, g, p0, p1 = m - 1, g - f, f, p1 - p0, p0
    return m, f, g


class Atom(Enum):
    """One step of the subtree-identity maps: L(z) = phi*z - phi^2, R(z) = phi^2*z."""

    L = "L"
    R = "R"


def _apply_atom(atom: Atom, z: GoldInt) -> GoldInt:
    a, b = z.a, z.b
    if atom is Atom.L:
        return GoldInt(b - 1, a + b - 1)
    return GoldInt(a + b, a + 2 * b)


class MapWord(_Record):
    """A finite composition of L and R, the descent from a tree to one of its subtrees.

    Atoms compose like functions: the rightmost atom acts first.  The
    empty word is the identity.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple[Atom, ...] = ()) -> None:
        _set(self, "atoms", atoms)

    def apply(self, z: GoldInt) -> GoldInt:
        for atom in reversed(self.atoms):
            z = _apply_atom(atom, z)
        return z

    def tokens(self) -> list[str]:
        return [a.value for a in self.atoms]

    def __str__(self) -> str:
        return " ".join(self.tokens()) if self.atoms else "<identity>"
