"""Expected answers, computed here from the shapes alone.

Nothing is imported from `decomp` or from the test suite.  An interval of a
box poset between a and b is a box with bounds b - a, and the interval of n
in the truncated additive naturals is the chain [0, n]; so every interval
the corpus produces has a *shape*, the sorted nonzero bounds of its box,
and the classical answers are functions of that shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

Shape = tuple[int, ...]


def shape(a, b) -> Shape:
    """Shape of the interval [a, b] of a box poset (vectors) or of (N,+)."""
    if isinstance(a, int):
        diffs = (b - a,)
    else:
        diffs = tuple(y - x for x, y in zip(a, b))
    return tuple(sorted((d for d in diffs if d), reverse=True))


def mobius_value(s: Shape) -> Fraction:
    """Rota's value on a product of chains: each chain of length 1
    contributes -1, any longer chain makes it vanish."""
    if any(e > 1 for e in s):
        return Fraction(0)
    return Fraction((-1) ** len(s))


def elements(s: Shape) -> int:
    """Number of elements of an interval of shape s."""
    return prod(e + 1 for e in s)


def subdivisions(s: Shape, k: int) -> int:
    """Number of k-chains a = c_0 <= ... <= c_k = b in an interval of shape s."""
    if k == 0:
        return 1 if not s else 0
    return prod(comb(e + k - 1, k - 1) for e in s)


def box_level_size(bounds: tuple[int, ...], k: int) -> int:
    """Weakly increasing (k+1)-chains in the box, one coordinate at a time."""
    return prod(comb(b + k + 1, k + 1) for b in bounds)


def addition_level_size(bound: int, k: int) -> int:
    """Strings of k summands in [0, bound] whose total stays within bound."""
    return comb(bound + k, k)


def sub_shapes(s: Shape) -> set[Shape]:
    """Shapes of all subintervals of an interval of shape s."""
    out = {()}
    for e in s:
        out = {tuple(sorted(t + ((d,) if d else ()), reverse=True))
               for t in out for d in range(e + 1)}
    return out
