"""Arrows of the simplex category.

Monotone maps between finite ordinals [n] = {0, ..., n} are the substrate
for everything downstream: presheaf actions (an interval-site arrow acts
through the endpoint-preserving map that represents it, see `presheaf`),
the endpoint-preserving / distance-preserving maps, their generators and
pushouts, and the word of cofaces and codegeneracies of a map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache


class DegreeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class MonotoneMap:
    """A weakly increasing map [src] -> [tgt]; values[i] is the image of i."""

    src: int
    tgt: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.src < 0 or self.tgt < 0:
            raise ValueError(f"bad ordinal degrees [{self.src}]->[{self.tgt}]")
        vals = self.values
        if len(vals) != self.src + 1:
            raise ValueError(f"expected {self.src + 1} values, got {len(vals)}")
        for i, v in enumerate(vals):
            if not 0 <= v <= self.tgt:
                raise ValueError(f"value {v} at position {i} outside [0, {self.tgt}]")
            if i and vals[i - 1] > v:
                raise ValueError(f"not monotone at position {i}: {vals}")

    def __repr__(self):
        vals = ",".join(map(str, self.values))
        return f"<[{self.src}]->[{self.tgt}]:{vals}>"


def identity(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


@cache
def coface(n: int, i: int) -> MonotoneMap:
    """delta_i: [n] -> [n+1], the injection skipping i."""
    if not 0 <= i <= n + 1:
        raise ValueError(f"coface index {i} out of range for [{n}]->[{n + 1}]")
    return MonotoneMap(n, n + 1, tuple(v if v < i else v + 1 for v in range(n + 1)))


@cache
def codegeneracy(n: int, j: int) -> MonotoneMap:
    """sigma_j: [n] -> [n-1], the surjection repeating j."""
    if n < 1 or not 0 <= j <= n - 1:
        raise ValueError(f"codegeneracy index {j} out of range for [{n}]->[{n - 1}]")
    return MonotoneMap(n, n - 1, tuple(v if v <= j else v - 1 for v in range(n + 1)))


def compose(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """Diagrammatic composite: first f, then g."""
    if f.tgt != g.src:
        raise DegreeMismatch(f"cannot compose {f} then {g}")
    return MonotoneMap(f.src, g.tgt, tuple(g.values[v] for v in f.values))


def is_generic(a: MonotoneMap) -> bool:
    """Endpoint-preserving: a(0) = 0 and a(src) = tgt."""
    return a.values[0] == 0 and a.values[-1] == a.tgt


def is_free(a: MonotoneMap) -> bool:
    """Distance-preserving: a(i+1) = a(i) + 1 for all i."""
    return all(a.values[i + 1] == a.values[i] + 1 for i in range(a.src))


def pushout_generic_free(
    g: MonotoneMap, f: MonotoneMap
) -> tuple[MonotoneMap, MonotoneMap]:
    """Pushout of a generic map g along a free map f with the same source.

    Returns (f', g') with f' free out of g.tgt and g' generic out of f.tgt,
    satisfying compose(g, f') = compose(f, g').  The free map glues c extra
    points below and d above; the pushout corner does the same to [g.tgt].
    """
    if g.src != f.src:
        raise DegreeMismatch(f"sources differ: {g} vs {f}")
    if not is_generic(g):
        raise ValueError(f"{g} is not generic")
    if not is_free(f):
        raise ValueError(f"{f} is not free")
    m, n, k = g.src, g.tgt, f.tgt
    c = f.values[0]
    q = n + c + (k - m - c)
    f2 = MonotoneMap(n, q, tuple(i + c for i in range(n + 1)))
    vals = []
    for j in range(k + 1):
        if j < c:
            vals.append(j)
        elif j <= c + m:
            vals.append(g.values[j - c] + c)
        else:
            vals.append(n + j - m)
    g2 = MonotoneMap(k, q, tuple(vals))
    return f2, g2


def generic_generators(n: int) -> list[MonotoneMap]:
    """Inner cofaces [n] -> [n+1] and all codegeneracies [n] -> [n-1]."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    gens = [coface(n, i) for i in range(1, n + 1)]
    gens += [codegeneracy(n, j) for j in range(n)]
    return gens


def free_generators(n: int) -> list[MonotoneMap]:
    """The two outer cofaces [n] -> [n+1]."""
    return [coface(n, 0), coface(n, n + 1)]


def generator_word(a: MonotoneMap) -> list[MonotoneMap]:
    """Factor a into cofaces and codegeneracies, first applied first.

    The word is the canonical epi-mono factorisation: codegeneracies are
    stripped at the smallest repeated position, cofaces at the smallest
    missing value; the empty word encodes an identity.
    """
    word: list[MonotoneMap] = []
    vals = list(a.values)
    deg = a.src
    while True:
        j = next((i for i in range(len(vals) - 1) if vals[i] == vals[i + 1]), None)
        if j is None:
            break
        word.append(codegeneracy(deg, j))
        del vals[j]
        deg -= 1
    outer: list[MonotoneMap] = []
    tgt = a.tgt
    while deg < tgt:
        image = set(vals)
        i = next(v for v in range(tgt + 1) if v not in image)
        outer.append(coface(tgt - 1, i))
        vals = [v if v < i else v - 1 for v in vals]
        tgt -= 1
    word.extend(reversed(outer))
    return word
