import builtins
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from decomp import formats
from decomp.ingest import (
    CategorySpec,
    MonoidSpec,
    PosetSpec,
    nerve_category,
    nerve_monoid,
    nerve_poset,
)
from decomp.interval import AlgebraicInterval, factorisation_interval
from decomp.presheaf import FinSSet, FinXiSet, u_star


def divisor_poset(n: int) -> PosetSpec:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    pairs = [(str(a), str(b)) for a in divs for b in divs if b % a == 0]
    return PosetSpec.from_pairs([str(d) for d in divs], pairs)


def boolean_poset(n: int) -> PosetSpec:
    """Subsets of an n-element set ordered by inclusion."""
    subsets = [frozenset(c) for m in range(n + 1)
               for c in combinations(range(n), m)]

    def name(s):
        return "o" if not s else "".join(chr(ord("a") + i) for i in sorted(s))

    pairs = [(name(a), name(b)) for a in subsets for b in subsets if a <= b]
    return PosetSpec.from_pairs([name(s) for s in subsets], pairs)


def chain_poset(n: int) -> PosetSpec:
    elems = [str(i) for i in range(n + 1)]
    pairs = [(str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)]
    return PosetSpec.from_pairs(elems, pairs)


def truncated_addition(bound: int) -> MonoidSpec:
    """The additive naturals cut off above `bound` (a partial monoid)."""
    elems = [str(i) for i in range(bound + 1)]
    table = {}
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            table[(str(i), str(j))] = str(i + j)
    return MonoidSpec.build(elems, "0", table)


def point_sset(cap: int, name: str = "pt") -> FinSSet:
    levels = {k: [name] for k in range(cap + 1)}
    faces = {(k, i): [0] for k in range(1, cap + 1) for i in range(k + 1)}
    degens = {(k, j): [0] for k in range(cap) for j in range(k + 1)}
    return FinSSet(cap, levels, faces, degens, stable_from=0)


def point_xiset(cap: int, name: str = "pt") -> FinXiSet:
    return u_star(point_sset(cap + 2, name))


def filter_nerve(X: FinSSet, keep) -> FinSSet:
    """Sub-simplicial set of a poset nerve given a predicate on vertex
    tuples; the kept ids must be closed under faces and degeneracies."""
    sep = "≤"

    def ok(name):
        return keep(tuple(name.split(sep)))

    levels = {k: [x for x in X.levels[k] if ok(x)] for k in range(X.cap + 1)}
    members = {k: set(levels[k]) for k in levels}
    faces = {}
    degens = {}
    for (k, i), t in X.faces.items():
        faces[(k, i)] = {x: t[x] for x in levels[k]}
        assert all(v in members[k - 1] for v in faces[(k, i)].values())
    for (k, j), t in X.degens.items():
        degens[(k, j)] = {x: t[x] for x in levels[k]}
        assert all(v in members[k + 1] for v in degens[(k, j)].values())
    return FinSSet(X.cap, levels, faces, degens, stable_from=None)


def subposet(spec: PosetSpec, x: str, y: str) -> PosetSpec:
    """The elements between x and y: the model, as a poset, of the
    factorisation interval of the arrow x ≤ y of spec's nerve."""
    elems = [z for z in spec.elements if spec.leq(x, z) and spec.leq(z, y)]
    return PosetSpec(elems, {p for p in spec.le if p[0] in elems and p[1] in elems})


def spine_object(cap: int = 4) -> FinSSet:
    """Two composable nondegenerate edges with no filler triangle."""
    big = nerve_poset(chain_poset(2), cap)
    X = filter_nerve(big, lambda vs: int(max(vs)) - int(min(vs)) <= 1)
    return replace(X, stable_from=1)


def chipped_object(cap: int = 5) -> FinSSet:
    """Nerve of the 3-chain with the top triangle (and everything over it)
    removed; comultiplication fails coassociativity."""
    big = nerve_poset(chain_poset(3), cap)
    return filter_nerve(big, lambda vs: not {"1", "2", "3"} <= set(vs))


def twin_object(n: int) -> FinSSet:
    """Nerve of the (n+1)-chain at cap n with the top n-simplex 1≤…≤n+1
    traded for a twin of 0≤…≤n: as many n-simplices as before, two of
    them on one boundary, so only a test of distinct pairs sees the twin."""
    X = filter_nerve(nerve_poset(chain_poset(n + 1), n),
                     lambda vs: vs != tuple(map(str, range(1, n + 2))))
    faces = {key: dict(table) for key, table in X.faces.items()}
    for i in range(n + 1):
        faces[(n, i)]["twin"] = faces[(n, i)]["≤".join(map(str, range(n + 1)))]
    return FinSSet(n, {**X.levels, n: X.levels[n] + ["twin"]}, faces, X.degens)


def invalid_object() -> FinSSet:
    """A planted violation: one degree-2 face retargeted."""
    X = nerve_poset(chain_poset(1), 3)
    sep = "≤"
    bad = dict(X.faces[(2, 0)])
    bad[sep.join(["0", "0", "1"])] = sep.join(["0", "0"])
    return replace(X, faces={**X.faces, (2, 0): bad})


def idempotent_interval() -> AlgebraicInterval:
    """The interval of e in the category {1, e; e.e = e}: its objects are
    the factorisations (1, e), (e, e) and (e, 1), and e acts on the middle
    one, so the strings of e compose to e at every length."""
    spec = CategorySpec.build(["x"], {"1": ("x", "x"), "e": ("x", "x")}, {"x": "1"},
                              {("e", "e"): "e"})
    return factorisation_interval(nerve_category(spec, 6), "e")[0]


class _FullDisk:
    """A text file that takes the first `room` characters it is asked to
    write, then raises OSError as a full disk would."""

    def __init__(self, fh, room: int, wrote: list):
        self.fh, self.room, self.wrote = fh, room, wrote

    def write(self, text: str):
        self.fh.write(text[:self.room])
        self.fh.flush()
        self.wrote.append(self.fh.tell())
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_writes_part_way(monkeypatch, room: int = 100) -> list[int]:
    """Make every file that `decomp.formats` opens fail part way through
    its write; returns the bytes each failed write left in its file."""
    wrote: list[int] = []
    monkeypatch.setattr(formats, "open", raising=False,
                        value=lambda path, *a, **k: _FullDisk(builtins.open(path, *a, **k),
                                                              room, wrote))
    return wrote


def assert_isomorphism(a, b, iso) -> None:
    """iso maps each sort of the UnarySystem a bijectively onto the same
    sort of b, iso[s][p] the position in b of element p of a, and commutes
    with every labelled map."""
    for s in a.sizes:
        assert len(iso[s]) == a.sizes[s]
        assert sorted(iso[s]) == list(range(b.sizes[s]))
    tables_b = {label: table for label, _, _, table in b.maps}
    for label, src, tgt, table in a.maps:
        for x, y in enumerate(table):
            assert tables_b[label][iso[src][x]] == iso[tgt][y]


@pytest.fixture(scope="session")
def posets() -> dict[str, PosetSpec]:
    return {
        "chain1": chain_poset(1),
        "chain2": chain_poset(2),
        "d6": divisor_poset(6),
        "d12": divisor_poset(12),
        "d30": divisor_poset(30),
        "d60": divisor_poset(60),
        "b2": boolean_poset(2),
        "b3": boolean_poset(3),
    }


@pytest.fixture(scope="session")
def poset_nerves(posets) -> dict[str, FinSSet]:
    caps = {"chain1": 4, "chain2": 5, "d6": 5, "d12": 6, "d30": 6,
            "d60": 7, "b2": 5, "b3": 6}
    return {name: nerve_poset(posets[name], caps[name]) for name in caps}


@pytest.fixture(scope="session")
def trunc_add() -> FinSSet:
    # one spare level beyond bound+2 keeps decalage intervals certified
    return nerve_monoid(truncated_addition(6), 9)


@pytest.fixture(scope="session")
def corpus(poset_nerves, trunc_add) -> dict[str, FinSSet]:
    """Valid objects plus the planted counterexamples."""
    out = dict(poset_nerves)
    out["point"] = point_sset(4)
    out["trunc_add"] = trunc_add
    out["spine"] = spine_object()
    out["chipped"] = chipped_object()
    out["invalid"] = invalid_object()
    return out


@pytest.fixture(scope="session")
def mobius_corpus(poset_nerves, trunc_add) -> dict[str, FinSSet]:
    out = dict(poset_nerves)
    out["point"] = point_sset(4)
    out["trunc_add"] = trunc_add
    return out


@pytest.fixture()
def labelling_calls(monkeypatch):
    """The systems handed to canonical_order from here on."""
    import decomp.interval

    calls = []
    real = decomp.interval.canonical_order
    monkeypatch.setattr(decomp.interval, "canonical_order",
                        lambda sys: calls.append(sys) or real(sys))
    return calls
