"""Differential tests: the whole-level, counting, memoised and
integer-indexed fast paths against the element-by-element reference
implementations in `oracles`, and the shared-identifier invariant the
fast paths rely on."""

import re
import tempfile
from collections import Counter
from dataclasses import replace
from math import factorial, prod
from pathlib import Path
from unittest.mock import patch

import oracles
import pytest
from oracles import isomorphic, write_smap
from conftest import (
    assert_isomorphism,
    boolean_poset,
    chain_poset,
    chipped_object,
    degenerate_twin,
    divisor_poset,
    filter_nerve,
    point_xiset,
    spine_object,
    truncated_addition,
    twin_object,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decomp import labeling
from decomp.axioms import (
    check_complete,
    check_decomposition,
    check_flanked,
    check_map_class,
    check_mobius,
    check_segal,
    check_tight,
)
from decomp.formats import (
    parse_smap_text,
    parse_sset,
    parse_xiset,
    write_sset,
    write_xiset,
)
from decomp.incidence import (
    classify,
    comult,
    mobius,
    registry_comult,
    universal_mobius,
    verify_inversion,
)
from decomp.ingest import (
    MonoidSpec,
    PosetSpec,
    mobius_length,
    nerve,
    nerve_category,
    nerve_monoid,
    nerve_poset,
)
from decomp.interval import (
    AlgebraicInterval,
    canonicalize,
    canonicalize_with_map,
    category_nerve,
    certify_mobius_interval,
    factorisation_interval,
    interval_category,
    labelling_system,
)
from decomp.presheaf import (
    FinSSet,
    FinXiSet,
    ShapeError,
    SSetMap,
    XiSetMap,
    _check_relations,
    _check_stable,
    _counted_pullback,
    _gather,
    actions,
    dec_bot,
    dec_top,
    fibres,
    i_star,
    long_edge_table,
    nondegenerate,
    pullback_failure,
    sset_action,
    truncate,
    u_star,
    validate,
    validate_map,
    validate_sset,
    validate_xiset,
)
from decomp.registry import (
    Registry,
    RegistryError,
    build_fragment,
    fragment_square_report,
    maximal_cuts,
)
from decomp.report import Report
from decomp.simplex import codegeneracy, coface, compose
from oracles import (
    all_monotone,
    counit_eps,
    i_star_map,
    pullback_failure_by_enumeration,
    subdivisions,
    transpose_arrow,
    u_star_map,
    unit_eta,
    validate_sset_by_simplex,
    wide_cartesian_factor,
)
from test_incidence import assert_sign_free_inversion
from test_ingest import free_categories, quotient_categories, truncated_free_monoids

SETTINGS = settings(max_examples=300, deadline=None, database=None)

# A report line reads as its status, its check and key=value fields, each
# value one token.
_REPORT_LINE = re.compile(r"^(PASS|FAIL|INCONCLUSIVE) \S+( (degree|witness|note|via)=\S+)*$")


def parsed_lines(report):
    """The report's lines, each checked to read as _REPORT_LINE."""
    lines = report.lines()
    for line in lines:
        assert _REPORT_LINE.match(line), line
    return lines


def made(given):
    """What the constructor makes of given, an `oracles.Raw` or `RawMap`, or
    the report of the `ShapeError` it raises; any other given as it is."""
    if not isinstance(given, (oracles.Raw, oracles.RawMap)):
        return given
    try:
        return given.make()
    except ShapeError as exc:
        return exc.report


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except (KeyError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))


@st.composite
def squares(draw, indexable=False):
    """A square p: P -> A, q: P -> B over f: A -> C, g: B -> C.

    It starts as the true fibre product of A and B, then takes one to three
    mutations: none, drop an element (a missing pair), duplicate one (a
    non-injective comparison), add a pair that lands outside A or B, add a
    pair from different fibres (a square that does not commute), or add an
    element p or q does not map.  A "swap-" mutation drops an element before
    adding, so that |P| still equals |A x_C B|.  The result is shuffled.
    An indexable square takes neither of the mutations that leave p or q
    outside A or B.
    """
    corners = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    A = [f"a{i}" for i in range(draw(st.integers(0, 4)))]
    B = [f"b{i}" for i in range(draw(st.integers(0, 4)))]
    A_out = [f"a{i}!" for i in range(draw(st.integers(0, 2)))]
    B_out = [f"b{i}!" for i in range(draw(st.integers(0, 2)))]
    f = {a: draw(st.sampled_from(corners)) for a in A + A_out}
    g = {b: draw(st.sampled_from(corners)) for b in B + B_out}
    pairs = [(a, b) for a in A for b in B if f[a] == g[b]]
    kinds = ["drop", "duplicate", "noncommuting"]
    kinds += [] if indexable else ["outside", "unmapped"]
    kinds += [f"swap-{kind}" for kind in kinds[1:]] + ["none"] * 3
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind.startswith("swap-") and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
            kind = kind[len("swap-"):]
        if kind == "drop" and pairs:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        elif kind == "duplicate" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
        elif kind == "outside":
            wide = [(a, b) for a in A + A_out for b in B + B_out
                    if f[a] == g[b] and (a in A_out or b in B_out)]
            if wide:
                pairs.append(draw(st.sampled_from(wide)))
        elif kind == "noncommuting":
            crossed = [(a, b) for a in A for b in B if f[a] != g[b]]
            if crossed:
                pairs.append(draw(st.sampled_from(crossed)))
        elif kind == "unmapped":
            pairs.append((draw(st.sampled_from(["a?", *A])), "b?"))
    pairs = draw(st.permutations(pairs))
    P = [f"x{n}" for n in range(len(pairs))]
    p = {x: a for x, (a, _) in zip(P, pairs)}
    q = {x: b for x, (_, b) in zip(P, pairs) if b != "b?"}
    return P, A, B, p, q, f, g


@st.composite
def gathers(draw):
    """(outer, inner): a list, or a dict keyed by strings, of drawn values,
    and a list of its keys with repeats, of length 0, 1 or more."""
    values = draw(st.lists(st.integers(), min_size=1, max_size=6))
    keys = (list(range(len(values))) if draw(st.booleans())
            else [f"k{n}" for n in range(len(values))])
    outer = values if isinstance(keys[0], int) else dict(zip(keys, values))
    return outer, draw(st.lists(st.sampled_from(keys), max_size=draw(st.sampled_from([0, 1, 6]))))


@SETTINGS
@given(gathers())
@example(([7], []))
@example(([7], [0]))
@example(({"a": 7, "b": 8}, ["b"]))
@example(({"a": 7, "b": 8}, ["b", "a", "b"]))
def test_gather_is_the_comprehension(case):
    """`_gather` is [outer[n] for n in inner], always a list, at every
    length of inner, and raises the comprehension's error on a key outer
    does not have."""
    outer, inner = case
    got = _gather(outer, inner)
    assert type(got) is list and got == [outer[n] for n in inner]
    missing = len(outer) if isinstance(outer, list) else "nowhere"
    for bad in ([missing], [*inner, missing]):
        with pytest.raises(IndexError if isinstance(outer, list) else KeyError):
            _gather(outer, bad)


@SETTINGS
@given(squares(indexable=True))
def test_pullback_failure_matches_enumeration(square):
    assert (pullback_failure(*oracles.indexed_square(*square))
            == oracles.pullback_issue(*square))


def test_pullback_reference_reports_each_kind():
    """The square generator reaches every verdict the reference can give."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(squares())
    def collect(square):
        got = outcome(pullback_failure_by_enumeration, *square)
        seen.add(got[1] if got[0] == "raised" or got[1] is None
                 else got[1].split(":")[0])

    collect()
    assert seen == {None, "comparison-not-injective", "missing-fiber-pair",
                    "ValueError", "KeyError"}


@st.composite
def drawn_posets(draw, least=1, chain=0):
    """A poset on least to 4 elements e0, e1, ..., with e0 < ... < e{chain}
    and up to five more drawn relations."""
    n = draw(st.integers(least, 4))
    names = [f"e{i}" for i in range(n)]
    relations = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda ij: ij[0] < ij[1]), max_size=5))
    relations += [(i, i + 1) for i in range(chain)]
    return PosetSpec.from_pairs(names, [(names[i], names[j]) for i, j in relations])


@settings(max_examples=100, deadline=None, database=None)
@given(drawn_posets())
def test_mobius_of_drawn_posets_matches_rota_and_series_inverse(spec):
    """The Mobius vector of a poset's nerve is Rota's Mobius function on
    every arrow x <= y, and the convolution inverse of zeta."""
    X = nerve_poset(spec)
    mu = mobius(X)
    rota = oracles.rota_mobius(spec)
    inverse = oracles.convolution_inverse(comult(X))
    for a in X.levels[1]:
        x, y = a.split("≤")
        assert mu[a] == rota(x, y) == inverse[a], a


@settings(max_examples=100, deadline=None, database=None)
@given(quotient_categories())
def test_mobius_of_quotient_categories_matches_series_inverse(spec_cap):
    """The Mobius vector of a category whose composites are not free is the
    convolution inverse of zeta."""
    X = nerve(spec_cap[0])
    mu = mobius(X)
    inverse = oracles.convolution_inverse(comult(X))
    for a in X.levels[1]:
        assert mu[a] == inverse[a], a


def small_poset_nerves():
    return st.builds(nerve_poset, drawn_posets(), st.integers(2, 4))


@st.composite
def planted_removals(draw):
    """A poset nerve with every chain through one strict 2-chain a < b < c
    removed: its edges stay, but no 2-simplex fills a <= b <= c."""
    X = nerve_poset(draw(drawn_posets(least=3, chain=2)), draw(st.integers(3, 5)))
    corners = set(draw(st.sampled_from(nondegenerate(X, 2))).split("≤"))
    return filter_nerve(X, lambda vs: not corners <= set(vs))


def exactness_inputs():
    """Poset nerves, truncated additions, planted removals and the nerves
    of categories whose composites are not free, at caps the exactness
    check accepts."""
    return st.one_of(
        st.builds(nerve_poset, drawn_posets(), st.integers(3, 5)),
        st.builds(lambda b, cap: nerve(truncated_addition(b), cap),
                  st.integers(0, 4), st.integers(3, 6)),
        planted_removals(),
        st.builds(lambda spec_cap, cap: nerve(spec_cap[0], cap),
                  quotient_categories(), st.integers(3, 4)))


@st.composite
def rewired_nerves(draw):
    """The tables of a small poset nerve, as `oracles.Raw`, with one
    structure-map entry changed.

    The new target is another simplex of the right level or a name outside
    it, the entry is deleted, its source is renamed to a name outside the
    level, or a table above the cap is added beside it; the stabilization
    claim is sometimes lowered so that it fails too.
    """
    X = draw(small_poset_nerves())
    if draw(st.booleans()):
        X = replace(X, stable_from=draw(st.integers(0, X.cap)))
    family, shift = ("faces", -1) if draw(st.booleans()) else ("degens", 1)
    tables = dict(getattr(X, family))
    key = draw(st.sampled_from(sorted(tables)))
    table = dict(tables[key])
    x = draw(st.sampled_from(sorted(table)))
    how = draw(st.sampled_from(["retarget", "retarget", "outside", "delete", "rename",
                                "extra"]))
    if how == "retarget":
        table[x] = draw(st.sampled_from(X.levels[key[0] + shift]))
    elif how == "outside":
        table[x] = "nowhere"
    elif how == "delete":
        del table[x]
    elif how == "rename":
        table["nowhere"] = table.pop(x)
    else:
        tables[X.cap + 1, key[1]] = {"nowhere": "elsewhere"}
    tables[key] = table
    given = {"faces": X.faces, "degens": X.degens, family: tables}
    return oracles.Raw(FinSSet, X.cap, X.levels, given["faces"], given["degens"], X.stable_from)


@SETTINGS
@given(st.one_of(rewired_nerves(), exactness_inputs()))
def test_validate_sset_matches_per_simplex_check(X):
    """The constructor's refusal of a shape fault, or else `validate_sset`,
    gives the lines of the per-simplex check of the tables it was given."""
    got = made(X)
    rep = got if isinstance(got, Report) else validate_sset(got)
    assert parsed_lines(rep) == validate_sset_by_simplex(X).lines()


def _shuffled(draw, sizes, tables):
    """A UnarySystem with the given sort sizes and index tables
    {label: (src, tgt, [target index per source index])}, presented with
    each sort's elements renumbered, and the sorts and maps, in a drawn
    order."""
    moved = [draw(st.permutations(range(n))) for n in sizes]
    sorts = {s: sizes[s] for s in draw(st.permutations(range(len(sizes))))}
    maps = []
    for label in draw(st.permutations(sorted(tables))):
        src, tgt, image = tables[label]
        table = [0] * sizes[src]
        for i, j in enumerate(image):
            table[moved[src][i]] = moved[tgt][j]
        maps.append((label, src, tgt, table))
    return labeling.UnarySystem(sorts, maps)


@st.composite
def unary_tables(draw):
    """Sort sizes and total labelled maps: 1-4 sorts of 1-6 elements and up
    to six maps.  Half the time the system is two or three disjoint copies
    of a smaller one, so that it has automorphisms.  Sizes are kept to at
    most 720 orderings, which bounds the backtracking of both searches."""
    copies = draw(st.sampled_from([1, 1, 2, 3]))
    base = draw(st.lists(st.integers(1, 6 // copies), min_size=1, max_size=4)
                .filter(lambda ns: prod(factorial(n * copies) for n in ns) <= 720))
    tables = {}
    for label in range(draw(st.integers(0, 6))):
        src = draw(st.integers(0, len(base) - 1))
        tgt = draw(st.integers(0, len(base) - 1))
        image = [draw(st.integers(0, base[tgt] - 1)) for _ in range(base[src])]
        tables[f"m{label}"] = (src, tgt, [c * base[tgt] + image[i]
                                          for c in range(copies)
                                          for i in range(base[src])])
    return [n * copies for n in base], tables


@st.composite
def unary_systems(draw):
    return _shuffled(draw, *draw(unary_tables()))


@st.composite
def unary_pairs(draw):
    """A system and a second presentation of it, with one table entry
    retargeted half the time."""
    sizes, tables = draw(unary_tables())
    other = dict(tables)
    if tables and draw(st.booleans()):
        label = draw(st.sampled_from(sorted(tables)))
        src, tgt, image = tables[label]
        image = list(image)
        image[draw(st.integers(0, len(image) - 1))] = draw(
            st.integers(0, sizes[tgt] - 1))
        other[label] = (src, tgt, image)
    return _shuffled(draw, sizes, tables), _shuffled(draw, sizes, other)


def _assert_same_order(sys):
    got, want = labeling.canonical_order(sys), oracles.canonical_order(sys)
    assert got == want
    assert list(got) == list(want)
    assert all(list(got[s]) == list(want[s]) for s in got)


def _canonical_form(sys):
    """The tables relabelled by the reference canonical order."""
    order = oracles.canonical_order(sys)
    return tuple(sorted(
        (label, src, tgt, tuple(order[tgt][table[x]]
                                for x in sorted(range(len(table)), key=order[src].__getitem__)))
        for label, src, tgt, table in sys.maps))


@SETTINGS
@given(unary_systems())
def test_canonical_order_matches_reference(sys):
    _assert_same_order(sys)


@SETTINGS
@given(unary_pairs())
def test_find_isomorphism_agrees_with_reference_forms(pair):
    a, b = pair
    iso = oracles.find_isomorphism(a, b)
    assert (iso is not None) == (_canonical_form(a) == _canonical_form(b))
    if iso is None:
        return
    assert_isomorphism(a, b, iso)


def _canonical_cap(data):
    """The cap canonicalization truncates an interval at: 2, its arrow
    category, or 1 with at most two objects."""
    return 1 if len(data.levels[0]) <= 2 else 2


def test_canonical_order_matches_reference_on_intervals():
    """Every factorisation interval of d12 and B3, truncated as
    canonicalization truncates it."""
    for spec in (divisor_poset(12), boolean_poset(3)):
        X = nerve(spec)
        for arrow in X.levels[1]:
            data = factorisation_interval(X, arrow)[0].data
            _assert_same_order(labelling_system(truncate(data, _canonical_cap(data))))


@pytest.fixture()
def leaf_keys(monkeypatch):
    """The serialization of every leaf the canonical search reaches."""
    keys = []
    real = labeling._Indexed.serialize
    monkeypatch.setattr(labeling._Indexed, "serialize",
                        lambda g, color: keys.append(real(g, color)) or keys[-1])
    return keys


def test_pruned_search_on_b4(leaf_keys):
    """[1]^4's top interval has 24 automorphisms, so the unpruned search
    reaches 24 leaves, all serializing alike; orbit pruning and jumps back
    to the first path leave at most 4."""
    data = factorisation_interval(nerve(boolean_poset(4)), "o≤abcd")[0].data
    sys = labelling_system(truncate(data, _canonical_cap(data)))
    got = labeling.canonical_order(sys)
    assert 1 < len(leaf_keys) <= 4
    assert got == oracles.canonical_order(sys)


def test_pruned_search_keeps_a_late_least_leaf(leaf_keys):
    """Two copies of a triangle acted on by two involutions, swapped by
    the only nontrivial automorphism.  The least leaf lies under the
    root's second child, not under the first path; the unpruned search
    reaches 18 leaves."""
    sys = labeling.UnarySystem({0: 6}, [("m0", 0, 0, [1, 0, 2, 4, 3, 5]),
                                        ("m1", 0, 0, [2, 1, 0, 5, 4, 3])])
    _assert_same_order(sys)
    assert min(leaf_keys) < leaf_keys[0]
    assert len(leaf_keys) <= 10


def test_find_isomorphism_refuses_other_sizes_or_signatures():
    """Systems whose sort sizes differ, or whose maps differ in a label or
    an end, are refused before any search; so are two objects at one cap
    whose level sizes differ."""
    base = labeling.UnarySystem({0: 2, 1: 1}, [("m", 0, 1, [0, 0])])
    others = [labeling.UnarySystem({0: 3, 1: 1}, [("m", 0, 1, [0, 0, 0])]),
              labeling.UnarySystem({0: 2, 2: 1}, [("m", 0, 2, [0, 0])]),
              labeling.UnarySystem({0: 2, 1: 1}, [("n", 0, 1, [0, 0])]),
              labeling.UnarySystem({0: 2, 1: 1}, [("m", 1, 0, [0])])]
    assert oracles.find_isomorphism(base, base) == {0: [0, 1], 1: [0]}
    for other in others:
        assert oracles.find_isomorphism(base, other) is None
        assert oracles.find_isomorphism(other, base) is None
    with pytest.raises(ValueError, match="^table m has 1 entries, not 2$"):
        labeling.canonical_order(labeling.UnarySystem({0: 2, 1: 1}, [("m", 0, 1, [0])]))
    d6, d4 = nerve_poset(divisor_poset(6), 3), nerve_poset(divisor_poset(4), 3)
    assert len(d6.levels[0]) != len(d4.levels[0])
    assert isomorphic(d6, d4) is None


def test_canonicalize_builds_no_id_table(monkeypatch):
    """Canonicalization reads positions alone: after it neither the cut
    interval, nor the truncation it labels, nor the canonical form holds
    an id table, at canonical cap 1 or 2."""
    import decomp.interval

    truncations = []
    real = decomp.interval.truncate
    monkeypatch.setattr(decomp.interval, "truncate",
                        lambda X, cap: truncations.append(real(X, cap)) or truncations[-1])
    X = nerve(divisor_poset(12))
    for a in X.levels[1]:
        data = factorisation_interval(X, a)[0].data
        truncations.clear()
        cls, _ = canonicalize_with_map(AlgebraicInterval(data))
        assert len(truncations) == 1
        for Z in (data, truncations[0], cls.canonical.data):
            assert not Z.faces.ids and not Z.degens.ids
    assert {len(cls.canonical.data.levels[0]) for cls in map(canonicalize, (
        factorisation_interval(X, a)[0] for a in ("1≤2", "1≤12")))} == {2, 6}


@settings(max_examples=40, deadline=None, database=None)
@given(small_poset_nerves())
def test_actions_match_the_per_word_walk(X):
    """One memo serves every monotone map [m] -> [n] under the cap, on the
    nerve and on its parsed copy."""
    for Y in (X, parse_sset(write_sset(X))):
        for m in range(Y.cap + 1):
            for n in range(Y.cap + 1):
                for a in all_monotone(m, n):
                    assert sset_action(Y, a) == oracles._action(Y, a, 0)


def test_a_generator_acts_by_its_stored_table():
    """A coface or codegeneracy acts by the face or degeneracy list the
    object stores, not by a copy, and counts one composition; a longer word
    composes a new list."""
    X = nerve_poset(divisor_poset(12), 4)
    act = actions(X)
    assert act.index(coface(2, 1)) is X.faces.index[(3, 1)]
    assert act.index(codegeneracy(3, 1)) is X.degens.index[(2, 1)]
    assert act.compositions == 2
    a = compose(coface(2, 1), coface(3, 0))
    assert act.index(a) == _gather(X.faces.index[(3, 1)], X.faces.index[(4, 0)])
    assert act.index(a) is not X.faces.index[(4, 0)] and act.compositions == 3
    A = u_star(X)
    assert actions(A).index(coface(2, 2)) is A.faces.index[(1, 1)]
    assert actions(A).index(codegeneracy(4, 0)) is A.degens.index[(1, -1)]


def complete_nerves():
    """Small poset nerves, and the nerves of B3 and of (N,+) truncated at
    5, a decomposition space that is not Segal."""
    return st.one_of(small_poset_nerves(),
                     st.sampled_from([boolean_poset(3), truncated_addition(5)]).map(nerve))


@settings(max_examples=60, deadline=None, database=None)
@given(complete_nerves())
def test_nondegenerate_matches_principal_edge_test(X):
    """On a complete decomposition space a simplex lies outside every
    degeneracy image exactly when none of its principal edges is degenerate."""
    for k in range(X.cap + 1):
        assert nondegenerate(X, k) == oracles.nondegenerate_by_principal_edges(X, k)


@settings(max_examples=60, deadline=None, database=None)
@given(complete_nerves())
def test_fibres_match_per_arrow_filter(X):
    for k in range(X.cap + 1):
        table = long_edge_table(X, k)
        for nondeg in (False, True):
            simplices = nondegenerate(X, k) if nondeg else X.levels[k]
            want = {a: [x for x in simplices if table[x] == a] for a in X.levels[1]}
            got = fibres(X, k, nondeg)
            assert got == want
            assert list(got) == list(want)


def _rendered(check, X, *args):
    """The lines of check(X, *args), or the type and message it raised."""
    got = outcome(check, X, *args)
    return got[1].lines() if got[0] == "value" else got


@SETTINGS
@given(st.one_of(rewired_nerves(), small_poset_nerves()))
def test_memoised_verdicts_render_as_fresh_ones(X):
    """A verdict read back from the object's memo, and one computed afresh
    on a copy of the object, render as the first call did; tables that make
    no object are refused alike each time."""
    given, X = X, made(X)
    if isinstance(X, Report):
        assert made(given).lines() == X.lines()
        return
    calls = [(validate_sset,)] + [(check_decomposition, method)
                                  for method in ("direct", "decalage", "both")]
    calls += [(check_tight,)]
    if validate_sset(X).ok:
        calls += [(check_segal,)]
    for check, *args in calls:
        first = _rendered(check, X, *args)
        assert _rendered(check, X, *args) == first
        assert _rendered(check, replace(X), *args) == first


def _shares_level_objects(src_levels, tgt_levels, tables, step):
    """Is every key of each table (k, table) the very object in src_levels[k],
    and every value the very object in tgt_levels[k + step]?"""
    src = {k: {id(x) for x in xs} for k, xs in src_levels.items()}
    tgt = {k: {id(x) for x in xs} for k, xs in tgt_levels.items()}
    return all(id(x) in src[k] and id(y) in tgt[k + step]
               for k, table in tables for x, y in table.items())


def _interned(X):
    return (_shares_level_objects(X.levels, X.levels,
                                  [(k, t) for (k, _), t in X.faces.items()], -1)
            and _shares_level_objects(X.levels, X.levels,
                                      [(k, t) for (k, _), t in X.degens.items()], 1))


def test_constructors_intern_identifiers():
    poset = nerve_poset(divisor_poset(12), 5)
    monoid = nerve_monoid(truncated_addition(3), 5)
    top = canonicalize(factorisation_interval(poset, "1≤12")[0])
    spec = interval_category(top.canonical.data)
    category = nerve_category(spec, 4)
    for X in (poset, monoid, category):
        assert _interned(X)
        assert _interned(parse_sset(write_sset(X)))
    A = factorisation_interval(poset, "2≤12")[0].data
    assert _interned(parse_xiset(write_xiset(A)))
    D, counit = dec_bot(poset)
    dom, cod = parse_sset(write_sset(D)), parse_sset(write_sset(poset))
    _, _, comps = parse_smap_text(write_smap(counit, "d.sset", "x.sset"))
    assert _shares_level_objects(dom.levels, cod.levels, comps.items(), 0)


def test_factorisation_intervals_match_per_arrow_cut():
    """Every arrow's interval and embedding, cut from the memoised fibres,
    against the cut that walks every long-edge table afresh and against the
    bulk cut of every arrow in one sweep."""
    for X in (nerve(divisor_poset(12)), nerve(boolean_poset(3)),
              nerve(chain_poset(4)), nerve(truncated_addition(5))):
        bulk = oracles.factorisation_intervals(X)
        assert list(bulk) == X.levels[1]
        for a in X.levels[1]:
            iv, embed = factorisation_interval(X, a)
            for want, want_embed in (oracles.factorisation_interval(X, a), bulk[a]):
                assert iv.data.levels == want.data.levels  # level order included
                assert write_xiset(iv.data) == write_xiset(want.data)
                assert iv.data.stable_from == want.data.stable_from
                assert embed.components == want_embed.components


def _built(spec_cap):
    spec = spec_cap[0]
    if isinstance(spec, MonoidSpec):
        return MonoidSpec.build(spec.elements, spec.unit, spec.table)
    return spec


def bounded_poset(mid, below):
    """A bottom, a top and the three middle elements mid, with mid[i] below
    mid[j] for each (i, j) in below."""
    return PosetSpec.from_pairs(["bot", *mid, "top"],
                                [("bot", m) for m in mid] + [(m, "top") for m in mid]
                                + [(mid[i], mid[j]) for i, j in below])


# The middle ordered as an antichain, one relation, a chain, a V or a Λ
# under a drawn labelling, which reaches all 19 labelled orders on three
# elements.  The V and the Λ give a top interval that is not self-dual.
BOUNDED_POSETS = st.builds(bounded_poset, st.permutations(["m0", "m1", "m2"]),
                           st.sampled_from([[], [(0, 1)], [(0, 1), (1, 2)],
                                            [(0, 1), (0, 2)], [(0, 2), (1, 2)]]))


# Posets, bounded posets on five elements, truncated additions, truncated
# free monoids, and free and quotient categories.
DRAWN_SPECS = st.one_of(drawn_posets(), BOUNDED_POSETS,
                        st.builds(truncated_addition, st.integers(0, 4)),
                        truncated_free_monoids().map(_built), free_categories().map(_built),
                        quotient_categories().map(_built))


@settings(max_examples=60, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_mobius_matches_the_sum_of_phi_vectors(spec):
    """The Mobius vector of a drawn nerve, its alternating counts summed in
    one vector, against the sum of one counting vector per degree; an
    uncertified nerve is refused by both."""
    X = nerve(spec)
    assert outcome(mobius, X) == outcome(oracles.mobius_by_phi, X)


def _interval_classes(spec):
    """The class of each arrow's interval in the nerve of spec, once each."""
    found, X = {}, nerve(spec)
    for a in X.levels[1]:
        c = canonicalize(factorisation_interval(X, a)[0])
        found.setdefault(c.digest, c)
    return list(found.values())


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_factorisation_intervals_are_the_paper_middle_objects(spec):
    """GKT III's interval of an arrow a: the middle object of the
    wide-cartesian factorisation of its transpose Xi[-1] -> u*X.  Against the
    cut: the same cap, levels, faces and degeneracies once each id's `b&`
    prefix is stripped, and the cartesian part is the inclusion."""
    X = nerve(spec)
    for a in X.levels[1]:
        iv = factorisation_interval(X, a)[0].data
        g = transpose_arrow(X, a)
        _, cart = wide_cartesian_factor(g)
        mid = cart.dom
        (b,) = g.dom.levels[-1]

        def strip(y):
            assert y.startswith(f"{b}&")
            return y.removeprefix(f"{b}&")

        assert mid.cap == iv.cap
        assert {k: [strip(y) for y in ys] for k, ys in mid.levels.items()} == iv.levels
        for mine, theirs in ((mid.faces, iv.faces), (mid.degens, iv.degens)):
            assert {key: {strip(x): strip(y) for x, y in t.items()}
                    for key, t in mine.items()} == theirs
        assert {k: {strip(y): x for y, x in comp.items()}
                for k, comp in cart.components.items()} == {
            k: {x: x for x in xs} for k, xs in iv.levels.items()}


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_string_counts_match_the_category_nerve(spec):
    """Every arrow class's strings of r non-identity arrows composing to h,
    counted off its composite table, are the nondegenerate r-simplices over
    h in its category nerve, for every arrow h and r up to the nerve's cap."""
    for c in _interval_classes(spec):
        category = interval_category(c.canonical.data)
        counts, loop = mobius_length(category.composites(), set(category.identities.values()))
        N = category_nerve(c)
        assert not loop
        for r in range(1, N.cap + 1):
            over = fibres(N, r, True)
            for h in category.arrows:
                assert (counts[r - 1].get(h, 0) if r <= len(counts) else 0) == len(over[h])


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_certificates_match_the_top_interval_cut(spec):
    """Every arrow class's certificate, read off the composite table of its
    category, against the one read off the top interval cut from a nerve
    two levels higher: status, longest-edge profile and nondegenerate total;
    and the Möbius value of the closed registry, against the alternating sum
    of that profile."""
    reg, want = Registry(), {}
    for c in _interval_classes(spec):
        rep = certify_mobius_interval(c)
        got = rep.status, rep.data["phi_profile"], rep.data["nondegenerate_total"]
        expected = oracles.certify_by_top_interval(c)
        assert got == expected
        want[reg.insert(c)] = sum(expected[1][0::2]) - sum(expected[1][1::2])
    mu, _ = universal_mobius(reg.close())
    assert {digest: mu[digest] for digest in want} == want


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_subdivisions_match_the_extended_interval(spec):
    """Every arrow class's k-subdivisions, all and nondegenerate ones, for
    k up to four above its cap, as many in its category nerve as on its
    canonical form or the interval extended to degree k."""
    for c in _interval_classes(spec):
        for k in range(c.canonical.data.cap + 5):
            for nondeg in (False, True):
                assert (len(subdivisions(c, k, nondeg))
                        == len(oracles.subdivisions_by_extension(c, k, nondeg)))


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS)
@example(bounded_poset(["m0", "m1", "m2"], [(0, 1), (0, 2)]))
def test_registry_comult_off_objects_matches_midpoints(spec):
    """The registry coalgebra of every arrow class, closed, read off each
    class's objects against the one read off the 2-simplices over its
    longest edge, the two cap-1 classes (the point and the single arrow)
    included; a V under the top, whose interval is not self-dual, always."""
    reg = Registry()
    for c in _interval_classes(spec):
        reg.insert(c)
    reg.close()
    t = registry_comult(reg)
    assert t.basis == frozenset(reg.entries)
    assert (t.pairs, t.counit) == oracles.registry_comult_by_midpoints(reg)


def _closed_registry_of(spec):
    """The nerve of spec and the closed registry of every arrow's class."""
    X, reg = nerve(spec), Registry()
    for c in _interval_classes(spec):
        reg.insert(c)
    return X, reg.close()


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_transported_classes_match_labelling_every_arrow(spec):
    """The classifying map, read off the tables of the maximal arrows'
    classes, and every entry's arrow table, read off the tables of its
    maximal proper arrows' classes, against labelling every arrow: mapping,
    report lines and tables; and the closure of the top class alone makes
    the same tables."""
    X, reg = _closed_registry_of(spec)
    mapping, rep = classify(X, reg)
    want, want_rep = oracles.classify_by_arrow(X, reg)
    assert mapping == want and rep.lines() == want_rep.lines()
    for entry in reg.entries.values():
        assert entry.arrows == oracles.arrow_table_by_arrow(entry.interval)
    top = max(reg.entries.values(), key=lambda e: len(e.interval.canonical.data.levels[1]))
    alone = Registry()
    alone.insert(top.interval)
    assert {d: e.arrows for d, e in alone.close().entries.items()} == {
        d: reg.entries[d].arrows for d in alone.entries}


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS, st.randoms(use_true_random=False))
def test_classify_refuses_an_unclosed_registry_as_labelling_every_arrow(spec, rnd):
    """Against a registry that lacks the class of some arrow, holding a drawn
    proper subset of the classes, unclosed, `classify` names the first arrow
    in level order whose class is missing, as labelling every arrow does."""
    X, classes, reg = nerve(spec), _interval_classes(spec), Registry()
    for c in rnd.sample(classes, rnd.randrange(len(classes))):
        reg.insert(c)
    with pytest.raises(RegistryError) as want:
        oracles.classify_by_arrow(X, reg)
    with pytest.raises(RegistryError) as got:
        classify(X, reg)
    assert str(got.value) == str(want.value)


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS, st.integers(0, 3))
def test_registry_cuts_stop_at_cap_2(spec, extra):
    """A count, not a time: every interval the registry cuts, in closing the
    classes of the maximal arrows, classifying the nerve at a drawn cap and
    building the fragment to degrees 3 and 5, is cut at cap 2 or less."""
    caps = []

    def cut(X, a):
        iv, embed = factorisation_interval(X, a)
        caps.append(iv.data.cap)
        return iv, embed

    X = nerve(spec)
    X, reg = nerve(spec, X.cap + extra), Registry()
    for _, c, _ in maximal_cuts(X):
        reg.insert(c)
    with patch("decomp.registry.factorisation_interval", cut):
        classify(X, reg.close())
        build_fragment(reg, 3)
        build_fragment(reg, 5)
    assert caps and max(caps) <= 2


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_sign_free_inversion_on_drawn_nerves(spec):
    """Mobius inversion with no minus sign, both sides, on each drawn nerve."""
    assert_sign_free_inversion(nerve(spec))


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_classes_are_read_in_their_own_ids(spec):
    """Every class of a closed registry is read under its canonical ids: its
    category nerve truncated at cap 1 has the class's own levels 0 and 1 and
    their tables, and each fragment id at level k >= 1 is the '*'-join of k
    level-1 ids of its class."""
    _, reg = _closed_registry_of(spec)
    for entry in reg.entries.values():
        data = entry.interval.canonical.data
        T = truncate(category_nerve(entry.interval), 1)
        assert T.levels == {k: data.levels[k] for k in (0, 1)}
        assert T.faces == {key: data.faces[key] for key in ((1, 0), (1, 1))}
        assert T.degens == {(0, 0): data.degens[(0, 0)]}
    frag = build_fragment(reg, 3)
    for k in range(1, 4):
        for digest, x in frag.levels[k]:
            arrows = x.split("*")
            assert len(arrows) == k
            assert set(arrows) <= set(reg.entries[digest].interval.canonical.data.levels[1])


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_stored_forms_are_2_truncations(spec):
    """A count, not a time: every class of a closed registry is stored as
    its 2-truncation, at cap 2 or less and with no stable line."""
    _, reg = _closed_registry_of(spec)
    with tempfile.TemporaryDirectory() as root:
        reg.save(root)
        for path in Path(root).glob("*.xiset"):
            text = path.read_text(encoding="utf-8")
            assert parse_xiset(text).cap <= 2
            assert not any(line.startswith("stable") for line in text.splitlines())


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS, st.integers(3, 5), st.randoms(use_true_random=False), exactness_inputs())
def test_segal_objects_pass_direct_exactness(spec, cap, rnd, other):
    """A Segal space is a decomposition space (GKT I), the theorem by which
    `validate_interval` checks Segal alone.  A drawn arrow's interval in the
    nerve of a drawn spec is Segal, a fibre of the double decalage; it, that
    nerve (not Segal for a truncated addition) and a drawn exactness input,
    each truncated at a drawn cap >= 3, pass direct exactness when Segal."""
    X = nerve(spec, cap + 2)
    iv, _ = factorisation_interval(X, rnd.choice(X.levels[1]))
    assert check_segal(i_star(iv.data)).ok
    for Y in (i_star(iv.data), truncate(X, cap), other):
        if check_segal(Y).ok:
            assert check_decomposition(Y, "direct").ok


def _relabelled(X, rnd):
    """X with every id renamed by a drawn bijection and every level
    reordered."""
    new = {}
    for k, ids in X.levels.items():
        names = [f"r{k}.{i}" for i in range(len(ids))]
        rnd.shuffle(names)
        new[k] = dict(zip(ids, names))
    return FinSSet(X.cap, {k: rnd.sample(sorted(names.values()), len(names))
                           for k, names in new.items()},
                   {(k, i): {new[k][x]: new[k - 1][y] for x, y in t.items()}
                    for (k, i), t in X.faces.items()},
                   {(k, j): {new[k][x]: new[k + 1][y] for x, y in t.items()}
                    for (k, j), t in X.degens.items()}, X.stable_from), new[1]


@settings(max_examples=30, deadline=None, database=None)
@given(DRAWN_SPECS, st.randoms(use_true_random=False))
def test_labelling_calls_ignore_a_relabelling_of_the_input(spec, rnd):
    """Closing the registry of every arrow's class and classifying the input
    labels as many intervals, and gives the same classes, when the input's
    ids are renamed and its levels reordered."""
    X = nerve(spec)
    Y, renamed = _relabelled(X, rnd)
    runs = []
    for Z in (X, Y):
        reg, calls = Registry(), []
        for a in Z.levels[1]:
            reg.insert(canonicalize(factorisation_interval(Z, a)[0]))
        with patch("decomp.interval.canonical_order",
                   lambda sys: calls.append(sys) or labeling.canonical_order(sys)):
            mapping, _ = classify(Z, reg.close())
        runs.append((len(calls), mapping))
    assert runs[0][0] == runs[1][0]
    assert {renamed[a]: d for a, d in runs[0][1].items()} == runs[1][1]


def _flanks_stripped(frag, k, element):
    """The nerve id of a fragment element read in interval coordinates: the
    flanked chain without its two identities, or at level 0 the one object."""
    digest, x = element
    if k == 0:
        (x,) = frag.nerves[digest].levels[0]
        return digest, x
    return digest, "*".join(x.split("*")[1:-1])


def _assert_fragment_matches_extended_intervals(reg, tops=(2, 3)):
    """Levels and every face table at each top once the flanks are stripped,
    then the degree-3 square's lines and counts at the last."""
    for top in tops:
        frag, want = build_fragment(reg, top), oracles.fragment_by_extensions(reg, top)
        for k in range(top + 1):
            assert [_flanks_stripped(frag, k, e) for e in want.levels[k]] == frag.levels[k]
        for (k, i), table in want.faces.items():
            assert {_flanks_stripped(frag, k, e): _flanks_stripped(frag, k - 1, f)
                    for e, f in table.items()} == frag.faces[(k, i)]
    got, expected = fragment_square_report(frag), fragment_square_report(want)
    assert got.lines() == expected.lines()
    assert got.data["counts"] == expected.data["counts"]


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS, st.integers(0, 10**6))
def test_fragment_matches_the_fragment_of_extended_intervals(spec, n):
    """The fragment of the closure of a drawn nondegenerate arrow's interval
    (an identity's if there is none), read in each class's category nerve,
    against the one read on extended intervals with their embeddings and
    bulk cuts."""
    X = nerve(spec)
    arrows = nondegenerate(X, 1) or X.levels[1]
    reg = Registry()
    reg.insert(factorisation_interval(X, arrows[n % len(arrows)])[0])
    _assert_fragment_matches_extended_intervals(reg.close())


@pytest.mark.parametrize("spec, cap, top", [
    (divisor_poset(12), None, "1≤12"),
    (boolean_poset(3), None, "o≤abc"),
    (chain_poset(4), None, "0≤4"),
    (divisor_poset(60), 7, "1≤60"),
    (truncated_addition(5), 8, "5"),
], ids=["d12", "B3", "chain4", "d60", "trunc5"])
def test_fragment_of_closed_registries_matches_extended_intervals(spec, cap, top):
    reg = Registry()
    reg.insert(factorisation_interval(nerve(spec, cap), top)[0])
    _assert_fragment_matches_extended_intervals(reg.close())


def test_fragment_at_degree_5_matches_extended_intervals():
    """Above degree 4 the fragment still cuts its arrow intervals from each
    class nerve truncated at cap 4; the closure of B3's top class, at
    degree 5, against the fragment of extended intervals."""
    reg = Registry()
    reg.insert(factorisation_interval(nerve(boolean_poset(3)), "o≤abc")[0])
    _assert_fragment_matches_extended_intervals(reg.close(), (5,))


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS, st.randoms(use_true_random=False))
def test_one_pass_close_matches_the_work_list(spec, rnd):
    """`close` in one pass against the work-list over entry digests, from a
    drawn subset of the arrow classes, some with their tables made: the same
    entries and the same arrow table per entry."""
    classes = _interval_classes(spec)
    picked = rnd.sample(classes, rnd.randrange(1, len(classes) + 1))
    tabled = rnd.sample(picked, rnd.randrange(len(picked) + 1))
    regs = Registry(), Registry()
    for reg in regs:
        for c in picked:
            reg.insert(c)
        for c in tabled:
            reg.arrow_table(c.digest)
    got, want = regs[0].close(), oracles.close_by_work_list(regs[1])
    assert {d: e.arrows for d, e in got.entries.items()} == {
        d: e.arrows for d, e in want.entries.items()}
    assert got.names == want.names


@pytest.mark.parametrize("spec, cap, top", [
    (divisor_poset(12), None, "1≤12"),
    (boolean_poset(3), None, "o≤abc"),
    (chain_poset(4), None, "0≤4"),
    (truncated_addition(5), 8, "5"),
], ids=["d12", "B3", "chain4", "trunc5"])
def test_subdivisions_are_the_fragment_levels(spec, cap, top):
    """Each class's slice of every level of the fragment at top 3 is its
    subdivisions, ids and order alike."""
    reg = Registry()
    reg.insert(factorisation_interval(nerve(spec, cap), top)[0])
    frag = build_fragment(reg.close(), 3)
    for digest, entry in reg.entries.items():
        for k in range(4):
            assert ([(d, x) for d, x in frag.levels[k] if d == digest]
                    == [(digest, x) for x in subdivisions(entry.interval, k)])


# ---------------------------------------------------------------------------
# the index-list kernels against the same checks on id tables


def _report(check, *args):
    """The lines and data of check(*args), or what it raised."""
    got = outcome(check, *args)
    return (got[1].lines(), got[1].data) if got[0] == "value" else got


def _face_squares(cap: int) -> Counter:
    """The squares direct exactness decides first, per corner degree: two,
    one per free face, for sigma^0: [1] -> [0] at corner 1 and for each
    inner coface [c-2] -> [c-1] at corner c."""
    return Counter({1: 2, **{c: 2 * (c - 2) for c in range(3, cap + 1)}})


def _face_first(result, cap: int, every: bool):
    """A direct exactness result of `_report` with its data as the check
    that decides the face squares first counts it: from the squares of a
    check that decided every square (every), the face squares and, on a
    fault, every square again, as its rerun does.  Compositions are left
    out, as they count the tables each pass reads."""
    if result[0] == "raised" or "squares" not in result[1]:
        return result
    lines, data = result
    squares = data["squares"]
    if every:
        failed = any(line.startswith("FAIL") for line in lines)
        squares = _face_squares(cap) + (Counter(squares) if failed else Counter())
    return lines, {"squares": dict(squares)}


@settings(max_examples=25, deadline=None, database=None)
@given(DRAWN_SPECS, st.randoms(use_true_random=False))
def test_equal_digests_are_isomorphic_intervals(spec, rnd):
    """Canonicalization reads the 2-truncation, yet two intervals get one
    digest exactly when their full truncations are isomorphic: every arrow's
    interval in the nerve of a drawn spec against every arrow's interval in
    a drawn relabelling of that nerve."""
    X = nerve(spec)
    Y, renamed = _relabelled(X, rnd)
    cuts = [{a: factorisation_interval(Z, a)[0] for a in Z.levels[1]} for Z in (X, Y)]
    digests = [{a: canonicalize(iv).digest for a, iv in cut.items()} for cut in cuts]
    for a, iv in cuts[0].items():
        assert digests[0][a] == digests[1][renamed[a]]
        for b, other in cuts[1].items():
            iso = isomorphic(iv.data, other.data)
            assert (digests[0][a] == digests[1][b]) == (iso is not None), (a, b)


def _assert_canonical_form_as_reference(iv):
    """canonicalize_with_map's digest, relabelling, canonical text and
    canonical form, level order included, are those the id-table reference
    builds."""
    cls, relabel = canonicalize_with_map(iv)
    digest, want, canon = oracles.canonicalize_with_map_by_ids(iv)
    assert cls.digest == digest
    assert {k: list(t.items()) for k, t in relabel.items()} == {
        k: list(t.items()) for k, t in want.items()}
    assert write_xiset(cls.canonical.data) == write_xiset(canon)
    assert cls.canonical.data == canon


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS)
def test_canonical_forms_match_the_id_reference(spec):
    """Every arrow's interval in the nerve of a drawn spec."""
    X = nerve(spec)
    for a in X.levels[1]:
        _assert_canonical_form_as_reference(factorisation_interval(X, a)[0])


def test_canonical_form_of_b4_top_matches_the_id_reference():
    """[1]^4's top interval, whose 24 automorphisms the search prunes."""
    _assert_canonical_form_as_reference(
        factorisation_interval(nerve(boolean_poset(4)), "o≤abcd")[0])


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(exactness_inputs(), rewired_nerves()))
def test_index_kernels_match_checks_on_ids(X):
    """Every check run on index lists renders, data included, as the same
    check counted on id tables, each on a fresh copy of the object; every
    object has total tables, so every check runs."""
    X = made(X)
    if isinstance(X, Report):
        return
    for method in ("direct", "decalage", "both"):
        got, want = (_report(check, replace(X), method) for check in (
            check_decomposition, oracles.check_decomposition_by_names))
        if method == "direct":
            got, want = _face_first(got, X.cap, False), _face_first(want, X.cap, True)
        assert got == want
    assert _report(check_segal, replace(X)) == _report(oracles.check_segal_by_squares, replace(X))
    for dec in (dec_top, dec_bot):
        for cls in ("conservative", "ulf", "culf"):
            got = _report(check_map_class, dec(replace(X))[1], cls)
            assert got == _report(oracles.check_map_class_by_names, dec(replace(X))[1], cls)
            assert got[0] == "raised" or all(map(_REPORT_LINE.match, got[0])), got


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(exactness_inputs(), st.builds(nerve, DRAWN_SPECS, st.integers(2, 4))))
@example(twin_object(2))
@example(twin_object(3))
def test_segal_squares_fail_where_the_spines_do(X):
    """A simplicial set is Segal exactly when each square of its outer faces
    is a pullback (GKT I): one square per degree fails first where the
    spines of a level first miss or repeat a string of edges, and renders as
    the same squares decided on id tables by enumeration."""
    got = check_segal(replace(X))
    spines = oracles.check_segal_by_spines(replace(X))
    assert got.status == spines.status
    assert got.lines()[0].split()[2] == spines.lines()[0].split()[2]
    assert _report(check_segal, replace(X)) == _report(oracles.check_segal_by_squares, replace(X))


@settings(max_examples=150, deadline=None, database=None)
@given(exactness_inputs())
def test_direct_and_decalage_verdicts_agree(X):
    """The generic-free pushout squares are pullbacks exactly when both
    decalages are Segal with culf counits (GKT I); a planted removal fails."""
    direct = check_decomposition(X, "direct")
    assert direct.status == check_decomposition(X, "decalage").status
    assert check_decomposition(X, "both").status == direct.status


def _decided(check, *args) -> list[tuple]:
    """The squares check(*args) sends through `pullback_failure`, in order,
    each its seven square arguments, id lists and index lists, as tuples;
    a fibre count or injectivity hint after them is forwarded, not kept."""
    import decomp.axioms

    seen = []
    decide = decomp.axioms.pullback_failure

    def recorded(*square):
        seen.append(tuple(map(tuple, square[:7])))
        return decide(*square)
    with patch.object(decomp.axioms, "pullback_failure", recorded):
        check(*args)
    return seen


@settings(max_examples=100, deadline=None, database=None)
@given(exactness_inputs())
def test_counit_squares_are_the_direct_squares_transposed(X):
    """Each culf square of a decalage counit is X's generic-free square
    whose free map is the outer coface the decalage deletes, its two legs
    swapped; the two counits' squares are the generic-free ones, each once.
    Each Segal square of Dec_bot is a generic-free square as it is, and each
    of Dec_top one with its legs swapped, so a passing direct check, which
    decides the face squares and so makes every generic-free square a
    pullback, decides them all: the decalage check counts them as shared
    then, and none where it fails."""
    from decomp.axioms import _generic_free_squares

    X, decided = replace(X), 0
    act = actions(X)
    plain = Counter((tuple(X.levels[f2.tgt]), tuple(X.levels[g.tgt]), tuple(X.levels[f.tgt]),
                     *(tuple(act.index(a)) for a in (f2, g2, g, f)))
                    for (g, f), (f2, g2) in _generic_free_squares(X.cap, True).items())
    swapped = Counter((P, B, A, q, p, g, f) for P, A, B, p, q, f, g in plain.elements())
    counits = Counter()
    for dec in (dec_top, dec_bot):
        D, counit = dec(X)
        squares = _decided(check_map_class, counit, "culf")
        counits.update(squares)
        segal = Counter(_decided(check_segal, D))
        assert sum(segal.values()) == D.cap - 1
        assert not segal - (swapped if dec is dec_top else plain)
        decided += len(squares) + sum(segal.values())
    assert counits == swapped
    shared = check_decomposition(X, "decalage").data["shared"]
    assert shared == (decided if check_decomposition(X, "direct").ok else 0)


@settings(max_examples=60, deadline=None, database=None)
@given(exactness_inputs())
def test_the_pair_test_is_skipped_only_on_a_degeneracy_side(X):
    """The direct check tells the kernel that q is injective on exactly the
    squares whose q is one of X's stored degeneracy lists, each injective
    as validation found it; on an inner face side the pairs are tested."""
    import decomp.axioms

    X, sides = replace(X), []
    decide = decomp.axioms.pullback_failure

    def recorded(*square):
        sides.append((square[4], square[8]))
        return decide(*square)
    with patch.object(decomp.axioms, "pullback_failure", recorded):
        check_decomposition(X, "direct")
    degens = list(X.degens.index.values())
    assert sides and all(injective == any(q is t for t in degens) for q, injective in sides)
    assert all(len(set(q)) == len(q) for q, injective in sides if injective)


@pytest.mark.parametrize("check", [check_segal, check_decomposition])
def test_squares_that_only_the_pair_test_rejects(check):
    """The 4-chain's nerve at cap 3 with 1≤2≤3≤4 traded for a twin of
    0≤1≤2≤3: each square it rejects, its degree-3 Segal and inner-face
    exactness squares and both decalages' squares, commutes and has as
    many elements as pairs, so the kernel, told that q is injective,
    passes it; the distinct-pair test names the twin on every line."""
    Y = twin_object(3)
    assert validate(Y).ok
    rejected = [square for square in _decided(check, Y) if pullback_failure(*square)]
    assert rejected and all(_counted_pullback(*map(list, square[3:]), None, True)
                            for square in rejected)
    pair = "comparison-not-injective:0≤1≤2≤3,twin"
    if check is check_segal:
        assert check(Y).lines() == [f"FAIL check_segal degree=3 note={pair}"]
    else:
        assert check(Y, "direct").lines() == [
            f"FAIL check_decomposition[direct] degree=3 note=pushout(<[1]->[2]:0,2>,{f}):{pair}"
            for f in ("<[1]->[2]:1,2>", "<[1]->[2]:0,1>")]
        assert all(pair in line for line in check(Y).lines() if "note=dec_" not in line)


def _decided_as_before(X, method) -> None:
    """check_decomposition(X, method) and the check as it was, deciding
    every square on its own, each on a fresh copy of X, give the same
    lines, status and data.  Direct exactness decides the face squares
    first and reruns every square on a fault, so its squares are counted as
    `_face_first` says, and it composes no table the old check did not,
    every one of them on a fault."""
    got, want = (check(replace(X), method) for check in (
        check_decomposition, oracles.check_decomposition_per_square))
    assert (got.lines(), got.status) == (want.lines(), want.status)
    if method != "direct" or "squares" not in want.data:
        assert got.data == want.data
        return
    assert (_face_first((got.lines(), got.data), X.cap, False)
            == _face_first((want.lines(), want.data), X.cap, True))
    assert got.data["compositions"] <= want.data["compositions"]
    assert got.ok or got.data["compositions"] == want.data["compositions"]


@settings(max_examples=100, deadline=None, database=None)
@given(exactness_inputs(), st.sampled_from(["direct", "decalage", "both"]))
def test_exactness_decides_as_it_did_square_by_square(X, method):
    """One fibre count per free face, no pair test on a degeneracy side and
    one list of squares per cap change no line of any method's report."""
    _decided_as_before(X, method)


def _planted_3_chain() -> FinSSet:
    """The 3-chain's nerve at cap 6 without the triangle 0 < 1 < 3."""
    return filter_nerve(nerve_poset(chain_poset(3), 6), lambda vs: not {"0", "1", "3"} <= set(vs))


@pytest.mark.parametrize("method", ["direct", "decalage", "both"])
def test_failing_exactness_decides_as_it_did_square_by_square(method):
    """The same on the chipped 3-chain and on the 3-chain at cap 6 without
    the triangle 0 < 1 < 3, whose every report names failing squares."""
    for X in (chipped_object(), _planted_3_chain()):
        assert not check_decomposition(replace(X), method).ok
        _decided_as_before(X, method)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(exactness_inputs(), rewired_nerves()))
@example(twin_object(2))
@example(twin_object(3))
@example(chipped_object())
@example(degenerate_twin())
def test_the_face_squares_decide_direct_exactness(X):
    """Deciding the squares of the inner cofaces and of sigma^0: [1] -> [0]
    alone, with no commute test, and every square on a fault, gives the
    verdict, lines and status of the check that decides every square on its
    own.  Where they pass on a valid X, so does each square of a
    codegeneracy out of [m >= 2], decided with the commute test on: the
    pasting lemma, checked rather than assumed.  And every generic-free
    square of a valid X commutes, as a functor sends commuting squares to
    commuting ones, so the commute test the direct check skips cannot
    fail."""
    from decomp.axioms import _generic_free_squares

    X = made(X)
    if isinstance(X, Report):
        return
    got, want = (outcome(check, replace(X), "direct") for check in (
        check_decomposition, oracles.check_decomposition_per_square))
    if got[0] == "raised":
        assert got == want
    else:
        assert (got[1].status, got[1].lines()) == (want[1].status, want[1].lines())
    if not validate(X).ok:
        return
    act, faces_pass = actions(X), got[0] == "value" and got[1].ok
    for (g, f), (f2, g2) in _generic_free_squares(X.cap, True).items():
        p, q, f_side, g_side = map(act.index, (f2, g2, g, f))
        assert _gather(f_side, p) == _gather(g_side, q)
        if faces_pass and g.tgt < g.src and g.src >= 2:
            assert pullback_failure(X.levels[f2.tgt], X.levels[g.tgt], X.levels[f.tgt],
                                    p, q, f_side, g_side) is None


@settings(max_examples=100, deadline=None, database=None)
@given(exactness_inputs())
def test_a_passing_direct_check_builds_no_decalage(X):
    """Where direct exactness passes, so does every decalage square (GKT
    I), unbuilt: with `dec_top` and `dec_bot` made to raise, the `decalage`
    and `both` reports are what they were."""
    import decomp.axioms

    if not check_decomposition(replace(X), "direct").ok:
        return
    methods = ("decalage", "both")
    want = [_report(check_decomposition, replace(X), method) for method in methods]

    def refused(Y):
        raise AssertionError("a decalage was built")
    with patch.object(decomp.axioms, "dec_top", refused), \
            patch.object(decomp.axioms, "dec_bot", refused):
        assert [_report(check_decomposition, replace(X), method) for method in methods] == want


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([chipped_object, _planted_3_chain]),
       st.sampled_from(["dec_top", "dec_bot"]), st.data())
def test_a_rewired_counit_is_decided_again(planted, which, data):
    """Where direct exactness fails, the decalages are built and decided: a
    counit with one component entry sent to another simplex of its level
    reaches `check_map_class`, and `both` renders as the check counted on
    id tables given the same counit."""
    import decomp.axioms
    import decomp.presheaf

    X = planted()
    assert not check_decomposition(replace(X), "direct").ok
    degrees = [k for k in range(X.cap) if len(X.levels[k]) > 1]
    k = data.draw(st.sampled_from(degrees))
    x = data.draw(st.sampled_from(X.levels[k + 1]))
    dec, decide = getattr(decomp.presheaf, which), decomp.axioms.check_map_class
    y = data.draw(st.sampled_from([y for y in X.levels[k]
                                   if y != dec(X)[1].components[k][x]]))
    made, checked = [], []

    def rewired(Y):
        D, counit = dec(Y)
        made.append(SSetMap(D, Y, {**counit.components, k: {**counit.components[k], x: y}}))
        return D, made[-1]

    def recorded(F, cls):
        checked.append(F)
        return decide(F, cls)
    with patch.object(decomp.axioms, which, rewired), \
            patch.object(decomp.presheaf, which, rewired), \
            patch.object(decomp.axioms, "check_map_class", recorded):
        got = check_decomposition(replace(X), "both").lines()
        assert any(F is made[0] for F in checked)
        assert got == oracles.check_decomposition_by_names(replace(X), "both").lines()


def test_planted_removals_fail_exactness_inside_a_longer_chain():
    """Removing the chains through one triangle of a nerve leaves a valid
    simplicial set, never Segal.  Inside a 3-chain both methods find it not
    exact; the 2-chain without its triangle is exact, 0 < 2 having become
    indecomposable through 1."""
    for spec in (chain_poset(2), chain_poset(3), divisor_poset(12), boolean_poset(3)):
        X = nerve_poset(spec, 4)
        for t in nondegenerate(X, 2):
            corners = set(t.split("≤"))
            Y = filter_nerve(X, lambda vs: not corners <= set(vs))
            assert validate_sset(Y).ok and not check_segal(Y).ok
            want = "PASS" if len(spec.elements) == 3 else "FAIL"
            assert check_decomposition(Y, "direct").status == want
            assert check_decomposition(Y, "decalage").status == want


@st.composite
def rewired_maps(draw):
    """The components of a decalage counit of a poset nerve, or of its image
    under u*, as `oracles.RawMap`, with one component entry retargeted
    within its level, sent outside it, deleted or renamed, with a component
    added outside the domain's degrees, or left alone."""
    X = nerve_poset(draw(drawn_posets()), draw(st.integers(3, 4)))
    _, F = draw(st.sampled_from([dec_top, dec_bot]))(X)
    if draw(st.booleans()):
        F = u_star_map(F)
    comps = dict(F.components)
    k = draw(st.sampled_from(sorted(comps)))
    table = dict(comps[k])
    x = draw(st.sampled_from(sorted(table)))
    how = draw(st.sampled_from(["retarget", "retarget", "outside", "delete", "rename",
                                "extra", "none"]))
    if how == "extra":
        extra = draw(st.sampled_from([min(comps) - 4, F.dom.cap + 1, F.dom.cap + 5]))
        comps[extra] = {x: table[x]} if draw(st.booleans()) else {}
    elif how == "retarget":
        table[x] = draw(st.sampled_from(F.cod.levels[k]))
    elif how == "outside":
        table[x] = "nowhere"
    elif how == "delete":
        del table[x]
    elif how == "rename":
        table["nowhere"] = table.pop(x)
    comps[k] = table
    return oracles.RawMap(type(F), F.dom, F.cod, comps)


@SETTINGS
@given(rewired_maps())
def test_map_validation_matches_per_simplex_check(F):
    """The constructor's refusal of a shape fault, or else `validate_map`,
    gives the lines of the per-simplex check of the components it was
    given."""
    got = made(F)
    lines = parsed_lines(got if isinstance(got, Report) else validate_map(got))
    if isinstance(F.dom, FinXiSet):
        lo = -1
        assert lines == oracles.validate_xiset_map_by_simplex(F).lines()
    else:
        lo = 0
        assert lines == oracles.validate_sset_map_by_simplex(F).lines()
    for k in set(F.components).difference(range(lo, F.dom.cap + 1)):
        assert f"FAIL validate_map degree={k} note=extra-component" in lines


# ---------------------------------------------------------------------------
# interval-site presheaves in simplicial coordinates against the checks
# through site arrows


def drawn_xisets():
    """The u* of a drawn exactness input, or the interval of one of its
    arrows when it is complete."""
    def cut(X, data):
        if not data.draw(st.booleans()):
            return u_star(X)
        return factorisation_interval(X, data.draw(st.sampled_from(X.levels[1])))[0].data
    return st.builds(cut, exactness_inputs(), st.data())


@st.composite
def rewired_xisets(draw):
    """The tables of a drawn XISET, as `oracles.Raw`, with one or two
    structure-map entries changed as in `rewired_nerves`, most often sent
    to another simplex of their level, or a whole table dropped, the
    stabilization claim sometimes changed, or left alone."""
    A = draw(drawn_xisets())
    faces = {key: dict(t) for key, t in A.faces.items()}
    degens = {key: dict(t) for key, t in A.degens.items()}
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        tables, step, keys = draw(st.sampled_from([(faces, -1, sorted(A.faces)),
                                                   (degens, 1, sorted(A.degens))]))
        key = draw(st.sampled_from(keys))
        table = tables.get(key)
        if not table:
            continue
        x = draw(st.sampled_from(sorted(table)))
        how = draw(st.sampled_from(["retarget"] * 8
                                   + ["outside", "delete", "rename", "extra", "drop"]))
        if how == "drop":
            del tables[key]
        elif how == "retarget":
            others = [y for y in A.levels[key[0] + step] if y != table[x]]
            table[x] = draw(st.sampled_from(others or [table[x]]))
        elif how == "outside":
            table[x] = "nowhere"
        elif how == "delete":
            del table[x]
        elif how == "rename":
            table["nowhere"] = table.pop(x)
        else:
            tables[A.cap + 1, key[1]] = {"nowhere": "elsewhere"}
    if draw(st.integers(0, 3)) == 0:
        A = replace(A, stable_from=draw(st.sampled_from([None, *range(-1, A.cap + 1)])))
    return oracles.Raw(FinXiSet, A.cap, A.levels, faces, degens, A.stable_from)


@settings(max_examples=200, deadline=None, database=None)
@given(rewired_xisets())
def test_validate_xiset_matches_pairs_reference(A):
    """The relations checked as simplicial identities two degrees up find
    what comparing every composable pair of site generators finds, line
    for line up to order: each identity is named by its side that is not
    in normal form.  Tables that make no object are refused with the
    reference's shape lines, in its order."""
    got, want = made(A), oracles.validate_xiset_by_pairs(A).lines()
    if isinstance(got, Report):
        assert parsed_lines(got) == want
    else:
        assert sorted(parsed_lines(validate_xiset(got))) == sorted(want)


def _top_face_retargeted():
    """d6's nerve at cap 2 with d0 of the nondegenerate 1≤2≤6 sent to 3≤6,
    as `oracles.Raw`: no degeneracy reaches the cap, so only the face-face
    identity d0d2 on 1≤2≤6 fails."""
    X = nerve_poset(divisor_poset(6), 2)
    faces = {key: dict(t) for key, t in X.faces.items()}
    faces[2, 0]["1≤2≤6"] = "3≤6"
    return oracles.Raw(FinSSet, X.cap, X.levels, faces, dict(X.degens), X.stable_from)


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(rewired_nerves(), exactness_inputs(), rewired_xisets()))
@example(_top_face_retargeted())
def test_face_identities_on_nondegenerate_simplices_decide_validation(X):
    """The pass that compares the face-face identities only on the simplices
    no degeneracy reaches, before any rerun on every simplex, gives the
    verdict of the per-simplex (or per-pair) reference: the d-s identities,
    compared on every simplex, carry the face-face identities from each
    nondegenerate simplex to its degeneracies (Eilenberg-Zilber).  Each line
    it prints is a line of the full pass."""
    got = made(X)
    if isinstance(got, Report):
        return
    rep = Report("validate")
    _check_relations(rep, got, every=False)
    _check_stable(rep, got)
    reference = (oracles.validate_xiset_by_pairs if isinstance(got, FinXiSet)
                 else validate_sset_by_simplex)(X)
    assert rep.status == reference.status
    if not rep.ok:
        assert set(rep.lines()) <= set(validate(got).lines())



def _s0_merging_two_objects():
    """d6's nerve at cap 2 with s0 sending the object 2 where it sends 1,
    as `oracles.Raw`: every table keeps its shape."""
    X = nerve_poset(divisor_poset(6), 2)
    degens = {key: dict(t) for key, t in X.degens.items()}
    degens[0, 0]["2"] = degens[0, 0]["1"]
    return oracles.Raw(FinSSet, X.cap, X.levels, dict(X.faces), degens, X.stable_from)


@SETTINGS
@given(rewired_nerves())
@example(_s0_merging_two_objects())
def test_an_sset_whose_s0_is_not_injective_fails_validation_at_d0s0(X):
    """d0 s0 = id at degree 0 makes s0 injective, so every object whose
    degree-0 s0 is not injective fails `validate` with a `d0s0` line, and
    `check_complete` passes on every valid SSET.  The completeness guards of
    `check_tight`, `check_mobius` and `factorisation_interval` stay for
    library calls on objects never validated."""
    got = made(X)
    if isinstance(got, Report) or check_complete(got):
        return
    assert any(line.endswith(" note=d0s0") for line in validate(got).lines())

def test_two_missing_xiset_tables_are_both_named():
    """Each missing table is named with its degree, as a simplicial set's
    is, by its XISET name, when the constructor refuses the tables."""
    A = u_star(nerve_poset(divisor_poset(6), 4))
    B = oracles.Raw(FinXiSet, A.cap, A.levels,
                    {key: t for key, t in A.faces.items() if key != (0, 0)},
                    {key: t for key, t in A.degens.items() if key != (1, 0)}, A.stable_from)
    want = ["FAIL validate degree=0 note=missing-face-dnew",
            "FAIL validate degree=1 note=missing-degeneracy-s[1,0]"]
    assert made(B).lines() == oracles.validate_xiset_by_pairs(B).lines() == want


SHAPE_FAULTS = ["delete", "extra-source", "outside", "repeat-id", "drop-table", "add-table",
                "levels"]


@st.composite
def shape_faults(draw):
    """The id tables of a drawn nerve at cap 0 to 4, of its u*, of a
    decalage counit or of that counit's u*, as `oracles.Raw` or `RawMap`,
    with one shape fault: an entry deleted, a source added, an entry sent
    outside its level, a level id repeated, a whole table (for a map, a
    component) dropped or added, or a level list that does not match the
    cap."""
    spec = draw(DRAWN_SPECS)
    kind = draw(st.sampled_from([FinSSet, FinXiSet, SSetMap, XiSetMap]))
    cap = draw(st.integers({FinSSet: 0, FinXiSet: 2, SSetMap: 1, XiSetMap: 3}[kind], 4))
    X = truncate(nerve(spec, max(cap, 2)), cap)
    if kind in (SSetMap, XiSetMap):
        F = dec_bot(X)[1]
        F = F if kind is SSetMap else u_star_map(F)
        families, levels = [({k: dict(t) for k, t in F.components.items()}, 0)], None
        how = draw(st.sampled_from(SHAPE_FAULTS[:3] + SHAPE_FAULTS[4:6]))
        src, tgt = F.dom.levels, F.cod.levels
    else:
        A = X if kind is FinSSet else u_star(X)
        families = [({key: dict(t) for key, t in family.items()}, step)
                    for family, step in ((A.faces, -1), (A.degens, 1))]
        levels = {k: list(ids) for k, ids in A.levels.items()}
        how = draw(st.sampled_from(SHAPE_FAULTS))
        src = tgt = A.levels
    tables, step = draw(st.sampled_from(families))
    full = sorted(key for key, t in tables.items() if t)
    if how in ("delete", "extra-source", "outside") and full:
        key = draw(st.sampled_from(full))
        k = key if isinstance(key, int) else key[0]
        x = draw(st.sampled_from(src[k]))
        if how == "delete":
            del tables[key][x]
        elif how == "outside":
            tables[key][x] = "nowhere"
        else:
            tables[key]["nowhere"] = draw(st.sampled_from(tgt[k + step]))
    elif how == "repeat-id":
        k = draw(st.sampled_from(sorted(levels)))
        levels[k].append(draw(st.sampled_from(levels[k])))
    elif how == "drop-table" and tables:
        del tables[draw(st.sampled_from(sorted(tables)))]
    elif how == "levels":
        if draw(st.booleans()):
            del levels[max(levels)]
        else:
            levels[max(levels) + 1] = ["nowhere"]
    else:
        key = draw(st.sampled_from([-5, X.cap + 1]) if levels is None
                   else st.tuples(st.sampled_from([X.cap + 1, X.cap + 3]), st.integers(-1, 2)))
        tables[key] = draw(st.sampled_from([{}, {"nowhere": "elsewhere"}]))
    if levels is None:
        return oracles.RawMap(kind, F.dom, F.cod, families[0][0])
    return oracles.Raw(kind, A.cap, levels, families[0][0], families[1][0], A.stable_from)


def _by_simplex(given):
    """The report of the reference validator that reads given's kind."""
    return {FinSSet: oracles.validate_sset_by_simplex,
            FinXiSet: oracles.validate_xiset_by_pairs,
            SSetMap: oracles.validate_sset_map_by_simplex,
            XiSetMap: oracles.validate_xiset_map_by_simplex}[given.kind](given)


@settings(max_examples=300, deadline=None, database=None)
@given(shape_faults())
def test_shape_is_decided_where_id_tables_come_in(given):
    """Every shape fault in id tables is refused by the constructor, with
    the lines, in order, of the reference validator reading the same
    levels and tables one entry at a time."""
    with pytest.raises(ShapeError) as got:
        given.make()
    assert got.value.kind is given.kind
    assert parsed_lines(got.value.report) == _by_simplex(given).lines()


def test_a_level_no_table_reads_is_searched_for_a_repeat():
    """An SSET at cap 0 has no table, so no position list vouches for its
    level 0: the parser's all-positions output and the same level handed
    over directly are both refused for the id it repeats, as the
    reference names it."""
    raw = oracles.Raw(FinSSet, 0, {0: ["a", "b", "a"]}, {}, {})
    want = ["FAIL validate degree=0 note=duplicate-identifiers"]
    assert _by_simplex(raw).lines() == want
    for make in (raw.make, lambda: parse_sset("SSET v1\ncap 0\nlevel 0: a b a\n")):
        with pytest.raises(ShapeError) as got:
            make()
        assert got.value.report.lines() == want
    assert validate(parse_sset("SSET v1\ncap 0\nlevel 0: a b\n")).ok


@st.composite
def xiset_maps(draw):
    """An interval-site map: u* of a decalage counit of a drawn exactness
    input, or a drawn XISET mapped to the point; sometimes with one
    component entry sent to another element of its level."""
    if draw(st.booleans()):
        X = draw(exactness_inputs())
        G = u_star_map(draw(st.sampled_from([dec_bot, dec_top]))(X)[1])
    else:
        A = draw(drawn_xisets())
        P = point_xiset(A.cap)
        G = XiSetMap(A, P, {k: dict.fromkeys(A.levels[k], "pt") for k in range(-1, A.cap + 1)})
    if draw(st.booleans()):
        k = draw(st.sampled_from(sorted(G.components)))
        if G.dom.levels[k]:
            table = dict(G.components[k])
            table[draw(st.sampled_from(G.dom.levels[k]))] = draw(st.sampled_from(G.cod.levels[k]))
            G = replace(G, components={**G.components, k: table})
    return G


@settings(max_examples=200, deadline=None, database=None)
@given(xiset_maps())
def test_culf_check_matches_per_generator_reference(G):
    """One loop over the squares on degeneracies and inner faces, two
    degrees up, finds what the square on every site generator finds."""
    assert (sorted(parsed_lines(check_map_class(G, "culf")))
            == sorted(oracles.cartesian_report_by_generators(G).lines()))


# ---------------------------------------------------------------------------
# SSET/XISET text: tables read against their level lines, handed over by
# the parser as positions; the tables each object stores once


def _table_lines(lines):
    return [n for n, line in enumerate(lines)
            if line.split() and line.split()[0] in ("d", "s", "dnew:", "sbot", "stop")]


def _source_level(line):
    """The source level of a table line, and the level step to its target."""
    words = line.partition(":")[0].split()
    if words[0] == "dnew":
        return 0, -1
    return int(words[1]), -1 if words[0] == "d" else 1


def _split_body(line):
    head, _, body = line.partition(":")
    return head, [e.strip() for e in body.split(";") if e.strip()]


def _perturb(draw, lines, how):
    """Apply one perturbation to the lines of a levelled file, in place."""
    tables = _table_lines(lines)
    full = [n for n in tables if _split_body(lines[n])[1]]
    level_lines = [n for n, line in enumerate(lines) if line.startswith("level ")]
    if how == "comment":
        n = draw(st.integers(0, len(lines) - 1))
        lines[n] += draw(st.sampled_from([" # note", "\t#x", "#", "  # a->b ; c"]))
    elif how == "above" and tables:
        n = draw(st.sampled_from(tables))
        k, step = _source_level(lines[n])
        row = lines.pop(n)
        at = [m for m, line in enumerate(lines)
              if line.startswith((f"level {k}:", f"level {k + step}:"))]
        lines.insert(draw(st.sampled_from(at)) if at else 1, row)
    elif how == "repeat-id":
        n = draw(st.sampled_from([n for n in level_lines if lines[n].partition(":")[2].split()]
                                 or level_lines))
        ids = lines[n].partition(":")[2].split()
        if ids:
            lines[n] += " " + draw(st.sampled_from(ids))
    elif how == "reserved-id":
        n = draw(st.sampled_from(level_lines))
        head, _, body = lines[n].partition(":")
        ids = body.split()
        x = draw(st.sampled_from(ids or ["a"]))
        ids.insert(draw(st.integers(0, len(ids))),
                   draw(st.sampled_from([f"{x}->", f"a->{x}", f"{x};", f";{x}", f"{x}->{x};"])))
        lines[n] = f"{head}: {' '.join(ids)}"
    elif full:
        n = draw(st.sampled_from(full))
        head, entries = _split_body(lines[n])
        e = draw(st.integers(0, len(entries) - 1))
        if how == "reorder":
            entries = draw(st.permutations(entries))
        elif how == "outside":
            others = [x for m in level_lines for x in lines[m].partition(":")[2].split()]
            src = entries[e].split("->")[0]
            entries[e] = f"{src}->{draw(st.sampled_from(others + ['nowhere']))}"
        elif how == "dup-source":
            src = entries[e].split("->")[0]
            entries.insert(draw(st.integers(0, len(entries))),
                           draw(st.sampled_from([entries[e], f"{src}->nowhere"])))
        elif how == "drop":
            del entries[e]
        elif how == "bare":
            entries[e] = entries[e].split("->")[-1]
        elif how == "two-arrows":
            others = [x for m in level_lines for x in lines[m].partition(":")[2].split()]
            entries[e] += "->" + draw(st.sampled_from(others + ["u"]))
        body = " ; ".join(entries)
        if how == "semicolon":
            cuts = [m for m in range(len(body)) if body.startswith(" ; ", m)]
            if cuts:
                m = draw(st.sampled_from(cuts))
                body = body[:m] + ";" + body[m + 3:]
        if how == "spacing":
            body = body.replace("->", draw(st.sampled_from(["\t->", "-> ", "  ->", "->\t\t"])))
            body = body.replace(" ; ", draw(st.sampled_from([";", " ;", " ;\t", "\t;  ", " ; "])))
        lines[n] = f"{head}: {body}"


PERTURBATIONS = ["reorder", "spacing", "comment", "above", "outside", "repeat-id",
                 "dup-source", "drop", "bare", "two-arrows", "semicolon", "reserved-id"]


@st.composite
def levelled_texts(draw):
    """(header, text): the SSET of a drawn nerve, or the XISET of one of its
    arrows' intervals or of its u*, with zero to three perturbations."""
    X = draw(st.one_of(st.builds(nerve_poset, drawn_posets(), st.integers(3, 4)),
                       st.builds(lambda b, cap: nerve(truncated_addition(b), cap),
                                 st.integers(0, 3), st.integers(3, 4))))
    kind = draw(st.sampled_from(["sset", "interval", "u_star"]))
    if kind == "sset":
        header, text = "SSET v1", write_sset(X)
    else:
        A = (u_star(X) if kind == "u_star" else
             factorisation_interval(X, draw(st.sampled_from(X.levels[1])))[0].data)
        header, text = "XISET v1", write_xiset(A)
    lines = text.splitlines()
    for how in draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=3)):
        _perturb(draw, lines, how)
    return header, "\n".join(lines) + "\n"


def _parse_levelled(header, text):
    return (parse_sset if header == "SSET v1" else parse_xiset)(text)


def _render(X):
    """Everything a parse gives, table and key order included."""
    return (type(X).__name__, X.cap, X.stable_from, list(X.levels.items()),
            [(key, list(t.items())) for key, t in X.faces.items()],
            [(key, list(t.items())) for key, t in X.degens.items()])


@SETTINGS
@given(levelled_texts())
def test_parser_matches_entry_by_entry_reference(case):
    """Tables read against their level lines, or entry by entry when that
    fails, give the reference's levels, tables and stable degree, or the
    reference's ParseError text."""
    header, text = case
    source = "<sset>" if header == "SSET v1" else "<xiset>"
    got = outcome(_parse_levelled, header, text)
    want = outcome(oracles.parse_levelled_by_entries, text, source, header)
    if got[0] == "value" and want[0] == "value":
        assert _render(got[1]) == _render(want[1])
        if validate(got[1]).ok:
            assert _interned(got[1])
    else:
        assert got == want


def _assert_handed_over(X):
    """X's tables, as its producer handed them over, against the object the
    constructor makes of X's id tables: the same tables as positions, the
    same id tables, and every check on X renders as the same check on that
    object."""
    made = type(X)(X.cap, X.levels, dict(X.faces), dict(X.degens), X.stable_from)
    assert (X.faces.index, X.degens.index) == (made.faces.index, made.degens.index)
    assert (made.faces, made.degens) == (X.faces, X.degens)
    checks = [(validate,)]
    if validate(made).ok:
        checks += ([(check_flanked,)] if isinstance(X, FinXiSet)
                   else [(check_segal,), (check_decomposition, "both")])
    for check, *args in checks:
        assert _report(check, X, *args) == _report(check, made, *args)


@pytest.mark.parametrize("spec, cap, top", [
    (chain_poset(5), 8, "0≤5"), (truncated_addition(5), 8, "5"),
    (divisor_poset(12), 6, "1≤12"), (boolean_poset(3), 6, "o≤abc"),
], ids=["chain5", "trunc5", "d12", "B3"])
def test_parser_hands_over_the_whole_index_view(spec, cap, top):
    """A writer's text is read into positions alone: the parsed SSET, and
    the XISET of its top interval, hold every table as positions and no id
    table, and those positions are the ones their id tables make."""
    X = parse_sset(write_sset(nerve(spec, cap)))
    A = parse_xiset(write_xiset(factorisation_interval(X, top)[0].data))
    for Y in (X, A):
        assert Y.faces.index.keys() == Y.faces.keys() and Y.degens.index.keys() == Y.degens.keys()
        assert not Y.faces.ids and not Y.degens.ids
        _assert_handed_over(Y)


@SETTINGS
@given(levelled_texts())
def test_handed_over_view_matches_a_fresh_one(case):
    X = outcome(_parse_levelled, *case)
    if X[0] == "value":
        _assert_handed_over(X[1])


def test_repeated_level_id_gets_no_seeded_positions():
    """A level line that repeats an id leaves the tables that read that
    level to `_entries`, as id tables, and the constructor refuses them,
    naming the repeat."""
    lines = write_sset(nerve(divisor_poset(12), 4)).splitlines()
    n = next(n for n, line in enumerate(lines) if line.startswith("level 1:"))
    lines[n] += " 1≤2"
    with pytest.raises(ShapeError) as got:
        parse_sset("\n".join(lines) + "\n")
    assert got.value.kind is FinSSet
    assert got.value.report.lines() == ["FAIL validate degree=1 note=duplicate-identifiers"]


@settings(max_examples=60, deadline=None, database=None)
@given(DRAWN_SPECS, st.data())
def test_positions_handed_over_match_those_made_from_ids(spec, data):
    """On a drawn nerve, the interval of one of its arrows and the parsed
    text of each, every table is handed over as positions, and those are
    the positions the constructor makes of the object's id tables; the id
    view of the object so made is those id tables, entry order included."""
    X = nerve(spec)
    A = factorisation_interval(X, data.draw(st.sampled_from(X.levels[1])))[0].data
    for Y in (X, A, parse_sset(write_sset(X)), parse_xiset(write_xiset(A))):
        assert Y.faces.index.keys() == Y.faces.keys() and Y.degens.index.keys() == Y.degens.keys()
        ids = [{key: dict(t) for key, t in family.items()} for family in (Y.faces, Y.degens)]
        made = type(Y)(Y.cap, Y.levels, *ids, Y.stable_from)
        assert (made.faces.index, made.degens.index) == (Y.faces.index, Y.degens.index)
        for given_ids, view in zip(ids, (made.faces, made.degens)):
            assert not view.ids
            assert [(key, list(view[key].items())) for key in view] == [
                (key, list(t.items())) for key, t in given_ids.items()]


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS, st.data())
def test_writers_join_the_text_the_id_tables_give(spec, data):
    """The SSET, XISET and SMAP writers, which join each table line from its
    heads and the targets of its positions, write the text of the id tables
    written one entry at a time, and leave no id table behind."""
    X = nerve(spec)
    X = X if X.cap >= 4 else nerve(spec, 4)
    A = factorisation_interval(X, data.draw(st.sampled_from(X.levels[1])))[0].data
    F, G = dec_bot(X)[1], unit_eta(u_star(X))
    got = [write_sset(X), write_xiset(A), write_smap(F, "d.sset", "x.sset"),
           write_smap(G, "d.xiset", "x.xiset")]
    assert not any(Y.faces.ids or Y.degens.ids for Y in (X, A))
    assert not F.components.ids and not G.components.ids
    assert got == [oracles.write_levelled_by_ids(X, "SSET v1", False),
                   oracles.write_levelled_by_ids(A, "XISET v1", True),
                   oracles.write_smap_by_ids(F, "d.sset", "x.sset"),
                   oracles.write_smap_by_ids(G, "d.xiset", "x.xiset")]


@settings(max_examples=40, deadline=None, database=None)
@given(DRAWN_SPECS, st.data())
def test_map_positions_handed_over_match_those_made_from_ids(spec, data):
    """On a drawn nerve, each map producer hands its components over as
    positions, and those are the positions the constructor makes of the
    map's id components: the two maps have equal components, validate and
    classify alike, and write the same SMAP text."""
    X = nerve(spec)
    X = X if X.cap >= 4 else nerve(spec, 4)
    counits = [dec(X)[1] for dec in (dec_bot, dec_top)]
    eta = unit_eta(u_star(X))
    embed = factorisation_interval(X, data.draw(st.sampled_from(X.levels[1])))[1]
    for F in (*counits, *map(u_star_map, counits), eta, i_star_map(eta), counit_eps(X), embed):
        assert F.components.index.keys() == F.components.keys() and not F.components.ids
        made = type(F)(F.dom, F.cod, {k: dict(t) for k, t in F.components.items()})
        assert made.components.index == F.components.index
        assert made.components == F.components
        assert validate_map(made).lines() == validate_map(F).lines()
        for cls in ("conservative", "ulf", "culf"):
            assert check_map_class(made, cls).lines() == check_map_class(F, cls).lines()
        assert write_smap(made, "dom.sset", "cod.sset") == write_smap(F, "dom.sset", "cod.sset")


def test_map_components_not_total_are_named_as_before():
    """A component given as ids that is not total, or a codomain whose
    level repeats an id, is refused when it is made, with the line that
    `validate_map` and `check_map_class` once gave the map: the first by
    the map's totality, the second by the codomain's own validation."""
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 5))
    comps = {k: dict(t) for k, t in counit.components.items()}
    del comps[1]["1≤1≤1"]
    levels = dict(counit.cod.levels)
    levels[0] = levels[0] + levels[0][:1]
    for make, want in (
            (lambda: SSetMap(counit.dom, counit.cod, comps),
             "FAIL validate_map witness=1≤1≤1 note=F[1]-not-total"),
            (lambda: replace(counit.cod, levels=levels),
             "FAIL validate degree=0 note=duplicate-identifiers")):
        with pytest.raises(ShapeError) as got:
            make()
        assert got.value.report.lines() == [want]


def test_certify_ops_build_no_id_table():
    """The ops `certify` times read positions alone: after them neither
    chain5's nerve at cap 8 nor its parsed copy holds an id table, the
    decalage check's counits included."""
    X = nerve(chain_poset(5), 8)
    Y = parse_sset(write_sset(X))
    assert validate(Y).ok and check_segal(Y).ok and check_decomposition(Y, "direct").ok
    assert check_decomposition(Y, "both").ok
    assert check_mobius(Y).ok and verify_inversion(Y).ok
    assert mobius(Y)[X.levels[1][0]] is not None and comult(Y).pairs
    for Z in (X, Y):
        assert not Z.faces.ids and not Z.degens.ids


@pytest.mark.parametrize("end", ["dom", "cod"])
@pytest.mark.parametrize("family, label, step, classes",
                         [("faces", "d[2,1]", -1, ("ulf", "culf")),
                          ("degens", "s[1,0]", 1, ("conservative", "culf"))])
def test_map_class_of_an_end_keeping_a_table_as_ids(end, family, label, step, classes):
    """An end whose inner face d[2,1] or degeneracy s[1,0] gains an extra
    entry, which was once kept as ids for `validate_map` and the map
    classes whose squares read it to name, is refused when it is made,
    with that line, so no map of it is made; the counit itself passes
    those classes."""
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 5))
    X = getattr(counit, end)
    key = (2, 1) if step < 0 else (1, 0)
    tables = dict(getattr(X, family))
    tables[key] = {**tables[key], "zz": X.levels[key[0] + step][0]}
    with pytest.raises(ShapeError) as got:
        replace(X, **{family: tables})
    assert got.value.report.lines() == [
        f"FAIL validate degree={key[0]} witness=zz note={label[0]}{key[1]}-extra-source"]
    for cls in classes:
        assert check_map_class(counit, cls).ok


def test_registry_comult_and_no_filler_build_no_id_table(tmp_path):
    """`registry_comult` on a loaded closed registry reads each class's
    faces as positions, and `check_segal` names a missing pair from
    positions: neither builds an id table."""
    X, reg = nerve(divisor_poset(12)), Registry()
    for a in X.levels[1]:
        reg.insert(canonicalize(factorisation_interval(X, a)[0]))
    reg.close().save(str(tmp_path))
    loaded = Registry.load(str(tmp_path))
    assert registry_comult(loaded) == registry_comult(reg)
    for entry in loaded.entries.values():
        data = entry.interval.canonical.data
        assert not data.faces.ids and not data.degens.ids
    Y = spine_object()
    assert check_segal(Y).lines()[0] == (
        "FAIL check_segal degree=2 note=missing-fiber-pair:0≤1,1≤2")
    assert not Y.faces.ids and not Y.degens.ids


@pytest.mark.parametrize("spec", [boolean_poset(3), divisor_poset(12)], ids=["B3", "d12"])
def test_closing_classifying_and_the_fragment_build_no_id_table(spec):
    """`close`, `universal_mobius`, `classify` and `build_fragment` read each
    class's canonical form and each fragment nerve as positions: neither
    keeps an id table afterwards."""
    X, reg = nerve(spec), Registry()
    for a in X.levels[1]:
        reg.insert(canonicalize(factorisation_interval(X, a)[0]))
    reg.close()
    assert universal_mobius(reg)[1].ok and classify(X, reg)[1].ok
    frag = build_fragment(reg, 4)

    def id_tables(objects):
        return sum(len(Y.faces.ids) + len(Y.degens.ids) for Y in objects)

    forms = [entry.interval.canonical.data for entry in reg.entries.values()]
    assert (id_tables(forms), id_tables(frag.nerves.values())) == (0, 0)


def test_tables_compare_whole_before_any_read():
    """Two objects whose stored tables differ in one entry compare unequal
    through faces or degens, though neither was read as ids before."""
    for family, other, key, step in (("faces", "degens", (2, 1), -1),
                                     ("degens", "faces", (1, 0), 1)):
        X = nerve(divisor_poset(12), 4)
        stored = dict(getattr(X, family).index)
        table = list(stored[key])
        table[0] = (table[0] + 1) % len(X.levels[key[0] + step])
        Y = replace(X, **{family: {**stored, key: table}})
        assert not getattr(X, family).ids and not getattr(Y, family).ids
        assert getattr(Y, family) != getattr(X, family) and Y != X
        assert getattr(Y, other) == getattr(X, other)
