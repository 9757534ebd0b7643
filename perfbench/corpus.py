"""Seeded inputs for the benchmark: fixed shapes under seeded names.

Every poset in the corpus is a box poset, a product of chains given by its
coordinate bounds: the divisors of 60 are (2, 1, 1) by the exponents of 2,
3 and 5, the Boolean lattice B4 is (1, 1, 1, 1) and chain6 is (6,).  An
element is its exponent vector and the order is coordinatewise.  The seed
only picks element names and the order in which elements and relations are
presented, so the shapes, and with them the cost, do not depend on it.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

from decomp.ingest import MonoidSpec, PosetSpec, check_name
from decomp.presheaf import FinSSet

NAME_LEN = 6
SEP = "≤"  # the nerve joins the elements of a chain with this separator


def seeded_names(seed: int, tag: str, count: int) -> list[str]:
    """`count` distinct names of one fixed length, drawn from the seed."""
    rng = random.Random(f"{seed}/{tag}")
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(NAME_LEN))
        if name not in seen:
            seen.add(name)
            names.append(check_name(name))
    return names


@dataclass
class BoxPoset:
    """A product of chains [0, b_1] x ... x [0, b_n] under seeded names."""

    label: str
    bounds: tuple[int, ...]
    name: dict[tuple[int, ...], str]
    presented: list[tuple[int, ...]]
    pairs: list[tuple[str, str]]
    spec: PosetSpec

    @property
    def vec(self) -> dict[str, tuple[int, ...]]:
        return {n: v for v, n in self.name.items()}

    def arrow(self, a: tuple[int, ...], b: tuple[int, ...]) -> str:
        return f"{self.name[a]}{SEP}{self.name[b]}"

    def arrows(self):
        """(arrow id, source vector, target vector) for every a <= b."""
        for a in self.name:
            for b in self.name:
                if all(x <= y for x, y in zip(a, b)):
                    yield self.arrow(a, b), a, b

    @property
    def bottom(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.bounds)

    @property
    def top(self) -> tuple[int, ...]:
        return self.bounds

    def poset_text(self) -> str:
        """A POSET v1 file listing the covering relations in seeded order."""
        vec = self.vec
        covers = [(a, b) for a, b in self.pairs
                  if sum(y - x for x, y in zip(vec[a], vec[b])) == 1]
        lines = ["POSET v1",
                 "elements: " + " ".join(self.name[v] for v in self.presented)]
        lines += [f"le {a} {b}" for a, b in covers]
        return "\n".join(lines) + "\n"


def box_poset(label: str, bounds: tuple[int, ...], seed: int) -> BoxPoset:
    vectors = list(itertools.product(*(range(b + 1) for b in bounds)))
    rng = random.Random(f"{seed}/{label}/order")
    name = dict(zip(vectors, seeded_names(seed, label, len(vectors))))
    presented = list(vectors)
    rng.shuffle(presented)
    pairs = [(name[a], name[b]) for a in vectors for b in vectors
             if all(x <= y for x, y in zip(a, b))]
    rng.shuffle(pairs)
    spec = PosetSpec.from_pairs([name[v] for v in presented], pairs)
    return BoxPoset(label, bounds, name, presented, pairs, spec)


@dataclass
class TruncatedAddition:
    """The additive naturals cut above `bound`, under seeded names."""

    label: str
    bound: int
    name: dict[int, str]
    spec: MonoidSpec


def truncated_addition(label: str, bound: int, seed: int) -> TruncatedAddition:
    rng = random.Random(f"{seed}/{label}/order")
    name = dict(zip(range(bound + 1), seeded_names(seed, label, bound + 1)))
    products = [(i, j) for i in range(bound + 1) for j in range(bound + 1 - i)]
    rng.shuffle(products)
    table = {(name[i], name[j]): name[i + j] for i, j in products}
    elements = [name[i] for i in range(bound + 1)]
    rng.shuffle(elements)
    return TruncatedAddition(label, bound, name,
                             MonoidSpec.build(elements, name[0], table))


def contains_subsequence(chain: list[str], pattern: list[str]) -> bool:
    it = iter(chain)
    return all(p in it for p in pattern)


def plant_missing_triangle(X: FinSSet, pattern: list[str]) -> FinSSet:
    """The simplicial subset of a poset nerve avoiding one 2-chain.

    Chains that contain the three elements of `pattern` in order are
    removed.  The rest is closed under faces (a subsequence of a chain
    without the pattern lacks it too) and under degeneracies (repeating an
    element adds no new element), so it is a valid simplicial set.
    """
    keep = {k: [x for x in X.levels[k]
                if not contains_subsequence(x.split(SEP), pattern)]
            for k in X.levels}
    kept = {k: set(v) for k, v in keep.items()}
    faces = {key: {x: y for x, y in t.items() if x in kept[key[0]]}
             for key, t in X.faces.items()}
    degens = {key: {x: y for x, y in t.items() if x in kept[key[0]]}
              for key, t in X.degens.items()}
    return FinSSet(X.cap, keep, faces, degens, stable_from=X.stable_from)
