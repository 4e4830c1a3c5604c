"""The commutative group of labeled trees under level-wise label addition.

Superimposing two trees and adding corresponding labels, minus the base
interval [-F_{n+2}+1 .. 0], again yields a labeled tree: the one whose
identity is the componentwise sum.  So the group is Z^2 on identities,
and the sum and the scalar multiples are O(1); every tree F[a,b] is
a*F[1,0] + b*F[0,1].  `verify.check_superposition` compares the
level-wise definition with the sum.
"""

from __future__ import annotations

from .tree import FibTree


def tree_sum(t1: FibTree, t2: FibTree) -> FibTree:
    """The sum tree F[a+a', b+b']."""
    return FibTree(t1.a + t2.a, t1.b + t2.b)


def scalar_mul(k: int, t: FibTree) -> FibTree:
    """k-fold sum: F[k*a, k*b]."""
    return FibTree(k * t.a, k * t.b)
