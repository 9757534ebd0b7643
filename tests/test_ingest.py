import re
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    boolean_poset,
    chain_poset,
    divisor_poset,
    point_sset,
    subposet,
    truncated_addition,
)
from oracles import isomorphic
from test_golden import poset_specs

from decomp.axioms import check_complete, check_decomposition, check_segal
from decomp.formats import parse_category
from decomp.ingest import (
    CategorySpec,
    MonoidSpec,
    PosetSpec,
    SpecError,
    nerve,
    nerve_category,
    nerve_monoid,
    nerve_poset,
)
from decomp.interval import canonicalize, factorisation_interval, interval_category
from decomp.presheaf import nondeg_bound, nondegenerate, validate_sset


def test_poset_closure_and_interval():
    spec = divisor_poset(12)
    assert spec.leq("1", "12") and spec.leq("2", "4")
    assert not spec.leq("4", "6")
    sub = subposet(spec, "2", "12")
    assert sorted(sub.elements) == ["12", "2", "4", "6"]
    assert nerve_poset(sub).stable_from == 2  # 2 < 4 < 12


def test_poset_antisymmetry_rejected():
    with pytest.raises(SpecError):
        PosetSpec.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])


def test_nerve_chain_counts():
    X = nerve_poset(chain_poset(1), 3)
    assert [len(X.levels[k]) for k in range(3)] == [2, 3, 4]


def test_nerve_default_cap():
    X = nerve_poset(divisor_poset(12))
    assert X.cap == 6  # longest strict chain 3, plus headroom
    assert X.stable_from == 3


def test_nerve_rejects_tiny_cap():
    with pytest.raises(SpecError):
        nerve_poset(chain_poset(1), 1)


def test_nerve_poset_axioms(poset_nerves):
    for X in poset_nerves.values():
        assert validate_sset(X).ok
        assert check_segal(X).ok
        assert check_complete(X)
        assert check_decomposition(X, "both").ok


def test_nerve_stable_from_certified(poset_nerves):
    for X in poset_nerves.values():
        for k in range(X.stable_from + 1, X.cap + 1):
            assert not nondegenerate(X, k)


def test_trivial_monoid_is_point():
    spec = MonoidSpec.build(["e"], "e", {("e", "e"): "e"})
    X = nerve_monoid(spec, 4)
    assert isomorphic(X, point_sset(4)) is not None


def test_monoid_rejects_unit_factorisation():
    with pytest.raises(SpecError) as err:
        MonoidSpec.build(
            ["e", "g"], "e",
            {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
             ("g", "g"): "e"})
    assert "unit" in str(err.value)


# Two objects and one arrow f: x -> y between them, with identities.
_TWO, _IDS = ["x", "y"], {"x": "ix", "y": "iy"}
_ARROWS = {"ix": ("x", "x"), "iy": ("y", "y"), "f": ("x", "y")}


@pytest.mark.parametrize("build, message", [
    (lambda: MonoidSpec.build(["e", "a"], "u", {("e", "e"): "e"}), "unit u is not an element"),
    (lambda: MonoidSpec.build(["e", "a"], "e", {("e", "a"): "z"}),
     "product e.a=z uses unknown element"),
    (lambda: MonoidSpec.build(["e", "a"], "e", {("e", "e"): "e", ("e", "a"): "a"}),
     "unit laws fail at a"),
    (lambda: PosetSpec.from_pairs(["a", "b"], [("a", "b"), ("a", "c")]),
     "relation a <= c uses unknown element"),
    (lambda: CategorySpec.build(["x"], {"ix": ("x", "x")}, {"x": "ix"}, {("ix", "g"): "ix"}),
     "composite ix;g=ix uses unknown arrow"),
    (lambda: CategorySpec.build(["x"], {"ix": ("x", "x"), "f": ("x", "y")}, {"x": "ix"}, {}),
     "arrow f: x -> y uses unknown object"),
    (lambda: CategorySpec.build(["x", "y"], {"ix": ("x", "x"), "iy": ("y", "y")}, {"x": "ix"},
                                {}),
     "every object needs exactly one identity arrow"),
    (lambda: CategorySpec.build(["x", "y"], {"ix": ("x", "y"), "iy": ("y", "y")},
                                {"x": "ix", "y": "iy"}, {}),
     "identity ix of x is not an endo-arrow"),
    (lambda: CategorySpec.build(_TWO, _ARROWS, _IDS, {("f", "f"): "f"}),
     "composite listed for non-composable f;f"),
    (lambda: CategorySpec.build(["x"], {"ix": ("x", "x"), "e": ("x", "x")}, {"x": "ix"},
                                {("e", "e"): "e", ("ix", "e"): "ix"}),
     "identity law fails on ix;e"),
    (lambda: CategorySpec.build(["x"], {"ix": ("x", "x"), "e": ("x", "x")}, {"x": "ix"},
                                {("e", "e"): "e", ("e", "ix"): "ix"}),
     "identity law fails on e;ix"),
    (lambda: CategorySpec.build(["x", "y", "z"], {"ix": ("x", "x"), "iy": ("y", "y"),
                                                  "iz": ("z", "z"), "f": ("x", "y"),
                                                  "g": ("y", "z")},
                                {"x": "ix", "y": "iy", "z": "iz"}, {}),
     "missing composite for f;g"),
    (lambda: CategorySpec.build(
        ["w", "x", "y", "z"],
        {"iw": ("w", "w"), "ix": ("x", "x"), "iy": ("y", "y"), "iz": ("z", "z"),
         "f": ("w", "x"), "g": ("x", "y"), "h": ("y", "z"), "fg": ("w", "y"),
         "gh": ("x", "z"), "a": ("w", "z"), "b": ("w", "z")},
        {"w": "iw", "x": "ix", "y": "iy", "z": "iz"},
        {("f", "g"): "fg", ("g", "h"): "gh", ("fg", "h"): "a", ("f", "gh"): "b"}),
     "associativity fails on (f,g,h)"),
    (lambda: CategorySpec.build(["x", "y", "z"], {"ix": ("x", "x"), "iy": ("y", "y"),
                                                  "iz": ("z", "z"), "f": ("x", "y"),
                                                  "g": ("y", "z"), "h": ("x", "y")},
                                {"x": "ix", "y": "iy", "z": "iz"}, {("f", "g"): "h"}),
     "composite f;g=h has wrong endpoints"),
    (lambda: CategorySpec.build(["x", "x"], {"ix": ("x", "x")}, {"x": "ix"}, {}),
     "duplicate objects"),
    (lambda: CategorySpec.build(_TWO, _ARROWS, _IDS, {}).compose("f", "f"),
     "f and f are not composable"),
    (lambda: PosetSpec.from_pairs(["a", "b", "a"], []), "duplicate poset elements"),
    (lambda: MonoidSpec.build(["e", "e"], "e", {("e", "e"): "e"}), "duplicate monoid elements"),
    (lambda: PosetSpec.from_pairs(["a", "b c"], []), "bad element name 'b c'"),
    (lambda: nerve(chain_poset(1), 1), "nerve needs cap >= 2"),
    (lambda: nerve(object()), "cannot build a nerve from object"),
], ids=["unit-unknown", "product-unknown", "unit-laws", "relation-unknown", "composite-unknown",
        "object-unknown", "one-identity-per-object", "identity-not-endo", "non-composable",
        "identity-law", "identity-law-right", "missing-composite", "associativity",
        "wrong-endpoints", "duplicate-objects", "compose-not-composable",
        "duplicate-poset-elements", "duplicate-monoid-elements", "bad-element-name",
        "nerve-cap", "nerve-of-object"])
def test_specs_name_what_they_refuse(build, message):
    """Each refusal of a spec or a nerve build, pinned by its whole
    message: unknown elements, objects and arrows, failed unit, identity and
    associative laws, composites that do not fit or are missing, repeated or
    badly named elements, a cap below 2 and an input that is no spec."""
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        build()


def test_monoid_rejects_idempotent():
    with pytest.raises(SpecError) as err:
        MonoidSpec.build(
            ["0", "1"], "0",
            {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1",
             ("1", "1"): "1"})
    assert str(err.value) == (
        "decomposition property fails: element 1 admits arbitrarily long factorisations")


@pytest.mark.parametrize("products", [
    {("a", "a"): "b", ("b", "a"): "c"},
    {("a", "a"): "b", ("a", "b"): "c"},
    {("a", "a"): "b", ("b", "a"): "c", ("a", "b"): "d"},
], ids=["only-left-defined", "only-right-defined", "both-defined-unequal"])
def test_monoid_rejects_non_associative_products(products):
    """(aa)a defined and a(aa) not, the other way round, or both defined
    and unequal: each is an associativity failure on (a,a,a)."""
    elements = ["e", "a", "b", "c", "d"]
    units = {(x, "e"): x for x in elements} | {("e", x): x for x in elements}
    with pytest.raises(SpecError, match=r"^associativity fails on \(a,a,a\)$"):
        MonoidSpec.build(elements, "e", units | products)


def test_truncated_addition_monoid():
    spec = truncated_addition(3)
    X = nerve_monoid(spec, 5)
    assert X.stable_from == 3
    assert validate_sset(X).ok
    # level k holds the <=3 sums split into k ordered parts
    for k in range(6):
        assert len(X.levels[k]) == comb(k + 3, 3)


def test_two_object_category_matches_chain():
    spec = CategorySpec.build(
        ["x", "y"],
        {"ix": ("x", "x"), "iy": ("y", "y"), "f": ("x", "y")},
        {"x": "ix", "y": "iy"},
        {},
    )
    X = nerve_category(spec, 3)
    Y = nerve_poset(chain_poset(1), 3)
    assert isomorphic(X, Y) is not None


def test_category_requires_composites():
    with pytest.raises(SpecError):
        CategorySpec.build(
            ["x"],
            {"ix": ("x", "x"), "f": ("x", "x")},
            {"x": "ix"},
            {},
        )


def test_category_cycle_has_no_default_cap():
    spec = CategorySpec.build(
        ["x"],
        {"ix": ("x", "x"), "f": ("x", "x")},
        {"x": "ix"},
        {("f", "f"): "f"},
    )
    # an idempotent endo-arrow composes with itself forever
    with pytest.raises(SpecError) as err:
        nerve_category(spec)
    assert str(err.value) == "category has composable cycles; pass an explicit cap"
    X = nerve_category(spec, 4)
    assert X.stable_from is None
    assert validate_sset(X).ok


def _categories():
    """The interval categories of the top arrows of B3, d12 and a chain,
    with the categories built above: (spec, cap)."""
    for spec, arrow in ((boolean_poset(3), "o≤abc"), (divisor_poset(12), "1≤12"),
                        (chain_poset(3), "0≤3")):
        iv, _ = factorisation_interval(nerve(spec), arrow)
        yield interval_category(canonicalize(iv).canonical.data), 5
    yield CategorySpec.build(["x", "y"], {"ix": ("x", "x"), "iy": ("y", "y"),
                                          "f": ("x", "y")}, {"x": "ix", "y": "iy"}, {}), 3
    yield CategorySpec.build(["x"], {"ix": ("x", "x"), "f": ("x", "x")},
                             {"x": "ix"}, {("f", "f"): "f"}), 4


F_PRIME_CAT = """CAT v1
objects: x y z
id x: ix
id y: iy
id z: iz
arrow f: x -> y
arrow f': x -> y
arrow g: y -> z
arrow h: x -> z
compose f g: h
compose f' g: h
"""


def _shapes():
    """(spec, cap) of every kind: the bench shapes, the categories above,
    and a CAT file where 'f*g' sorts after "f'*g" but ('f', 'g') before
    ("f'", 'g')."""
    yield divisor_poset(12), None
    yield boolean_poset(3), None
    yield chain_poset(5), 8
    yield divisor_poset(60), 7
    yield truncated_addition(3), None
    yield truncated_addition(5), 8
    yield truncated_addition(6), 9
    iv, _ = factorisation_interval(nerve(boolean_poset(4)), "o≤abcd")
    yield interval_category(canonicalize(iv).canonical.data), 6
    yield from _categories()
    yield parse_category(F_PRIME_CAT), 5


_REFERENCE = {PosetSpec: oracles.nerve_poset, MonoidSpec: oracles.nerve_monoid,
              CategorySpec: oracles.nerve_category}


def _assert_matches_reference(spec, cap):
    got = nerve(spec, cap)
    want = _REFERENCE[type(spec)](spec, got.cap)
    assert got == want
    for tables in ("faces", "degens"):
        g, w = getattr(got, tables), getattr(want, tables)
        assert list(g) == list(w)
        assert all(list(g[key]) == list(w[key]) for key in g)


def test_nerve_category_matches_reference():
    """Nerves of posets, partial monoids and categories: levels in order,
    tables, the order of tables and of their keys, and stable_from."""
    for spec, cap in _shapes():
        _assert_matches_reference(spec, cap)


@st.composite
def truncated_free_monoids(draw):
    """Words of length at most n over a drawn alphabet, the empty word named
    1 and the unit; a product is defined when its word is no longer than n.
    The spec is drawn unbuilt, with a cap."""
    letters = "abc"[:draw(st.integers(1, 3))]
    n = draw(st.integers(0, 3))
    words = ["".join(w) for m in range(n + 1) for w in product(letters, repeat=m)]
    name = {w: w or "1" for w in words}
    table = {(name[u], name[v]): name[u + v] for u in words for v in words
             if len(u + v) <= n}
    return MonoidSpec(sorted(name.values()), "1", table), draw(st.integers(2, 5))


@st.composite
def max_monoids(draw):
    """{0..n} under max with unit 0, drawn unbuilt with a cap: every element
    is idempotent, so for n >= 1 its factorisations never die out."""
    elems = [str(i) for i in range(draw(st.integers(0, 4)) + 1)]
    table = {(a, b): max(a, b, key=int) for a in elems for b in elems}
    return MonoidSpec(elems, "0", table), draw(st.integers(2, 5))


def _paths(edges):
    """Every nonempty path of an acyclic multigraph, as tuples of edge
    numbers, shortest first."""
    paths = [(e,) for e in range(len(edges))]
    for path in paths:  # the list grows as it is walked, by one edge a step
        paths += [path + (e,) for e, (s, _) in enumerate(edges) if s == edges[path[-1]][1]]
    return paths


@st.composite
def free_categories(draw):
    """The free category on a drawn acyclic multigraph: its arrows are the
    paths, and composition concatenates them."""
    n = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] < e[1]), max_size=5))
    paths = _paths(edges)
    name = {p: ".".join(f"a{e}" for e in p) for p in paths}
    arrows = {name[p]: (f"x{edges[p[0]][0]}", f"x{edges[p[-1]][1]}") for p in paths}
    objects = [f"x{i}" for i in range(n)]
    arrows.update({f"i{x}": (x, x) for x in objects})
    comp = {(name[p], name[q]): name[p + q] for p in paths for q in paths
            if edges[p[-1]][1] == edges[q[0]][0]}
    spec = CategorySpec.build(objects, arrows, {x: f"i{x}" for x in objects}, comp)
    return spec, draw(st.integers(2, 5))


@st.composite
def quotient_categories(draw):
    """The free category on a drawn acyclic multigraph modulo a drawn
    congruence, so that some composites are not free.

    Two parallel edges a, b: u -> v and an edge c: v -> w are added, and
    a.c is identified with b.c and with up to two more drawn pairs of
    parallel paths of length at least 2.  Union-find closes the
    identification under composition: whenever p ~ q, the paths with one
    more edge before or after are identified too.  No edge is identified
    with anything, so the edges stay indecomposable, and a.c = b.c with
    a != b: the quotient is not free.  An arrow is named by the least path
    of its class; the spec is drawn with a cap."""
    n = draw(st.integers(3, 4))
    u, v, w = sorted(draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                                   unique=True)))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] < e[1]), max_size=4))
    edges += [(u, v), (u, v), (v, w)]
    paths = _paths(edges)
    ends = {p: (edges[p[0]][0], edges[p[-1]][1]) for p in paths}
    parallel = [(p, q) for p in paths for q in paths
                if p < q and ends[p] == ends[q] and min(len(p), len(q)) >= 2]
    m = len(edges)
    work = [((m - 3, m - 1), (m - 2, m - 1))]
    work += draw(st.lists(st.sampled_from(parallel), max_size=2))
    root = {p: p for p in paths}

    def find(p):
        while root[p] != p:
            p = root[p]
        return p

    while work:
        p, q = work.pop()
        a, b = sorted([find(p), find(q)], key=lambda r: (len(r), r))
        if a == b:
            continue
        root[b] = a
        work += [((e,) + p, (e,) + q) for e, (_, t) in enumerate(edges) if t == ends[p][0]]
        work += [(p + (e,), q + (e,)) for e, (s, _) in enumerate(edges) if s == ends[p][1]]
    name = {p: ".".join(f"a{e}" for e in find(p)) for p in paths}
    arrows = {name[p]: (f"x{ends[p][0]}", f"x{ends[p][1]}") for p in paths}
    objects = [f"x{i}" for i in range(n)]
    arrows.update({f"i{x}": (x, x) for x in objects})
    comp = {(name[p], name[q]): name[p + q] for p in paths for q in paths
            if ends[p][1] == ends[q][0]}
    spec = CategorySpec.build(objects, arrows, {x: f"i{x}" for x in objects}, comp)
    return spec, draw(st.integers(2, 5))


_REFERENCE_LENGTH = {PosetSpec: oracles.longest_strict_chain,
                     MonoidSpec: oracles.monoid_chain_bound,
                     CategorySpec: oracles.category_chain_bound}


@settings(max_examples=100, deadline=None, database=None)
@given(st.one_of(
    poset_specs(),
    st.tuples(st.builds(truncated_addition, st.integers(0, 5)), st.integers(2, 7)),
    truncated_free_monoids(), max_monoids(), free_categories(), quotient_categories()))
def test_drawn_nerves_match_reference(spec_cap):
    """Drawn posets, truncated additions and free monoids, max-monoids,
    free categories and their quotients, compared as the shapes above.  A monoid is built here:
    it is refused with the reference's message exactly when the reference
    finds its factorisations unbounded.  The Möbius length, the stable
    degree of a nerve one level above it, is the last level that holds a
    nondegenerate simplex."""
    spec, cap = spec_cap
    if isinstance(spec, MonoidSpec):
        try:
            oracles.monoid_chain_bound(spec)
        except SpecError as want:
            with pytest.raises(SpecError) as err:
                MonoidSpec.build(spec.elements, spec.unit, spec.table)
            assert str(err.value) == str(want)
            return
        spec = MonoidSpec.build(spec.elements, spec.unit, spec.table)
    _assert_matches_reference(spec, cap)
    length = _REFERENCE_LENGTH[type(spec)](spec)
    X = nerve(spec, max(2, length + 1))
    assert X.stable_from == length == nondeg_bound(X)


def test_level_guard(monkeypatch):
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", "10")
    with pytest.raises(SpecError) as err:
        nerve_poset(divisor_poset(60), 4)
    assert "DECOMP_MAX_LEVEL_SIZE" in str(err.value)


def test_table_guard_counts_every_entry(monkeypatch):
    """d12 at cap 6 has 6,546 table entries and at most 288 simplices a
    level; the table limit is 20 times the level-size limit."""
    X = nerve_poset(divisor_poset(12), 6)
    entries = sum(map(len, X.faces.values())) + sum(map(len, X.degens.values()))
    assert entries == 6546 and max(map(len, X.levels.values())) == 288
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", "328")
    assert nerve_poset(divisor_poset(12), 6).faces == X.faces
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", "327")
    with pytest.raises(SpecError) as err:
        nerve_poset(divisor_poset(12), 6)
    assert "6546 entries" in str(err.value) and "DECOMP_MAX_LEVEL_SIZE" in str(err.value)


@pytest.mark.parametrize("raw", ["ten", "0", "-3", "1.5"])
def test_level_guard_rejects_a_bad_limit(monkeypatch, raw):
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", raw)
    with pytest.raises(SpecError) as err:
        nerve_poset(divisor_poset(6), 3)
    assert f"DECOMP_MAX_LEVEL_SIZE={raw!r}" in str(err.value)


def test_level_guard_default_when_empty(monkeypatch):
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", "")
    assert nerve_poset(divisor_poset(6), 3).cap == 3


def test_nerve_dispatch():
    assert nerve(chain_poset(1), 3).cap == 3
    assert nerve(truncated_addition(2), 4).cap == 4
    with pytest.raises(SpecError):
        nerve(object())


def test_boolean_poset_shape():
    b3 = boolean_poset(3)
    assert len(b3.elements) == 8
    assert nerve(b3).stable_from == 3
