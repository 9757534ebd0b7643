"""Differential tests: the whole-level, counting, memoised and
integer-indexed fast paths against the element-by-element reference
implementations in `oracles`, and the shared-identifier invariant the
fast paths rely on."""

import re
from dataclasses import replace
from math import factorial, prod

import oracles
import pytest
from conftest import assert_isomorphism, filter_nerve
from hypothesis import given, settings
from hypothesis import strategies as st

from decomp import labeling
from decomp.axioms import (
    check_decomposition,
    check_flanked,
    check_map_class,
    check_segal,
    check_tight,
)
from decomp.formats import (
    parse_smap_text,
    parse_sset,
    parse_xiset,
    write_smap,
    write_sset,
    write_xiset,
)
from decomp.incidence import comult, mobius
from decomp.ingest import (
    MonoidSpec,
    PosetSpec,
    boolean_poset,
    chain_poset,
    divisor_poset,
    nerve,
    nerve_category,
    nerve_monoid,
    nerve_poset,
    truncated_addition,
)
from decomp.interval import (
    canonicalize,
    certify_mobius_interval,
    factorisation_interval,
    factorisation_intervals,
    interval_category,
    labelling_system,
)
from decomp.presheaf import (
    FinXiSet,
    XiSetMap,
    _index_view,
    _IndexView,
    actions,
    dec_bot,
    dec_top,
    fibres,
    long_edge_table,
    nondegenerate,
    point_xiset,
    pullback_failure,
    truncate,
    u_star,
    u_star_map,
    validate,
    validate_map,
    validate_sset,
    validate_xiset,
)
from decomp.registry import Registry, build_fragment, fragment_square_report
from decomp.simplex import all_monotone
from oracles import pullback_failure_by_enumeration, validate_sset_by_simplex
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
    """A small poset nerve with one structure-map entry changed.

    The new target is another simplex of the right level or a name outside
    it, the entry is deleted, its source is renamed to a name outside the
    level, or a table above the cap is added beside it; the stabilization
    claim is sometimes lowered so that it fails too.
    """
    X = draw(small_poset_nerves())
    if draw(st.booleans()):
        X = replace(X, stable_from=draw(st.integers(0, X.cap)))
    if draw(st.booleans()):
        tables, shift = X.faces, -1
    else:
        tables, shift = X.degens, 1
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
    return X


@SETTINGS
@given(st.one_of(rewired_nerves(), exactness_inputs()))
def test_validate_sset_matches_per_simplex_check(X):
    assert parsed_lines(validate_sset(X)) == validate_sset_by_simplex(X).lines()


def _shuffled(draw, sizes, tables):
    """A UnarySystem with the given sort sizes and index tables
    {label: (src, tgt, [target index per source index])}, presented with
    fresh ids, sorts, maps and table entries in a drawn order."""
    names = {s: [f"e{p}" for p in draw(st.permutations(range(n)))]
             for s, n in enumerate(sizes)}
    sorts = {s: draw(st.permutations(names[s]))
             for s in draw(st.permutations(range(len(sizes))))}
    maps = []
    for label in draw(st.permutations(sorted(tables))):
        src, tgt, image = tables[label]
        order = draw(st.permutations(range(sizes[src])))
        maps.append((label, src, tgt,
                     {names[src][i]: names[tgt][image[i]] for i in order}))
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
                                for x in sorted(table, key=order[src].get)))
        for label, src, tgt, table in sys.maps))


@SETTINGS
@given(unary_systems())
def test_canonical_order_matches_reference(sys):
    _assert_same_order(sys)


@SETTINGS
@given(unary_pairs())
def test_find_isomorphism_agrees_with_reference_forms(pair):
    a, b = pair
    iso = labeling.find_isomorphism(a, b)
    assert (iso is not None) == (_canonical_form(a) == _canonical_form(b))
    if iso is None:
        return
    assert_isomorphism(a, b, iso)


def test_canonical_order_matches_reference_on_intervals():
    """Every factorisation interval of d12 and B3, truncated as
    canonicalization truncates it."""
    for spec in (divisor_poset(12), boolean_poset(3)):
        X = nerve(spec)
        for arrow in X.levels[1]:
            data = factorisation_interval(X, arrow)[0].data
            _assert_same_order(labelling_system(truncate(data, max(1, data.stable_from))))


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
    sys = labelling_system(truncate(data, max(1, data.stable_from)))
    got = labeling.canonical_order(sys)
    assert 1 < len(leaf_keys) <= 4
    assert got == oracles.canonical_order(sys)


def test_pruned_search_keeps_a_late_least_leaf(leaf_keys):
    """Two copies of a triangle acted on by two involutions, swapped by
    the only nontrivial automorphism.  The least leaf lies under the
    root's second child, not under the first path; the unpruned search
    reaches 18 leaves."""
    names = [f"e{i}" for i in range(6)]

    def table(image):
        return {names[i]: names[j] for i, j in enumerate(image)}

    sys = labeling.UnarySystem({0: names}, [("m0", 0, 0, table([1, 0, 2, 4, 3, 5])),
                                            ("m1", 0, 0, table([2, 1, 0, 5, 4, 3]))])
    _assert_same_order(sys)
    assert min(leaf_keys) < leaf_keys[0]
    assert len(leaf_keys) <= 10


@settings(max_examples=40, deadline=None, database=None)
@given(small_poset_nerves())
def test_actions_match_the_per_word_walk(X):
    """One memo serves every monotone map [m] -> [n] under the cap, on the
    nerve and on its parsed copy."""
    for Y in (X, parse_sset(write_sset(X))):
        act = actions(Y)
        for m in range(Y.cap + 1):
            for n in range(Y.cap + 1):
                for a in all_monotone(m, n):
                    assert act(a) == oracles._action(Y, a, 0)


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
    on a copy of the object, render as the first call did."""
    calls = [(validate_sset,)] + [(check_decomposition, method)
                                  for method in ("direct", "decalage", "both")]
    calls += [(check_tight,)]
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
    spec, _ = interval_category(factorisation_interval(poset, "1≤12")[0].data)
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
    """Every arrow's interval and embedding, cut in one sweep, against the
    cut of that arrow alone."""
    for X in (nerve(divisor_poset(12)), nerve(boolean_poset(3)),
              nerve(chain_poset(4)), nerve(truncated_addition(5))):
        cut = factorisation_intervals(X)
        assert list(cut) == X.levels[1]
        for a in X.levels[1]:
            (iv, embed), (want, want_embed) = cut[a], oracles.factorisation_interval(X, a)
            assert iv.data.levels == want.data.levels  # level order included
            assert write_xiset(iv.data) == write_xiset(want.data)
            assert iv.data.stable_from == want.data.stable_from
            assert iv.provenance == want.provenance
            assert embed.components == want_embed.components


def _built(spec_cap):
    spec = spec_cap[0]
    if isinstance(spec, MonoidSpec):
        return MonoidSpec.build(spec.elements, spec.unit, spec.table)
    return spec


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(drawn_posets(), st.builds(truncated_addition, st.integers(0, 4)),
                 truncated_free_monoids().map(_built), free_categories().map(_built),
                 quotient_categories().map(_built)))
def test_certificates_match_the_top_interval_cut(spec):
    """Every arrow class's certificate, read off the nerve of its category,
    against the one read off the top interval cut from a nerve two levels
    higher: status, longest-edge profile and nondegenerate total."""
    seen = set()
    for iv, _ in factorisation_intervals(nerve(spec)).values():
        c = canonicalize(iv)
        if c.digest not in seen:
            seen.add(c.digest)
            rep = certify_mobius_interval(c)
            got = rep.status, rep.data["phi_profile"], rep.data["nondegenerate_total"]
            assert got == oracles.certify_by_top_interval(c)


def _flanks_stripped(frag, k, element):
    """The nerve id of a fragment element read in interval coordinates: the
    flanked chain without its two identities, or at level 0 the one object."""
    digest, x = element
    if k == 0:
        (x,) = frag.nerves[digest].levels[0]
        return digest, x
    return digest, "*".join(x.split("*")[1:-1])


def _assert_fragment_matches_extended_intervals(reg):
    """Levels and every face table at top 2 and 3 once the flanks are
    stripped, then the degree-3 square's lines and counts."""
    for top in (2, 3):
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
@given(st.one_of(drawn_posets(), st.builds(truncated_addition, st.integers(0, 4)),
                 truncated_free_monoids().map(_built), free_categories().map(_built),
                 quotient_categories().map(_built)), st.integers(0, 10**6))
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


# ---------------------------------------------------------------------------
# the index-list kernels against the same checks on id tables


def _report(check, *args):
    """The lines and data of check(*args), or what it raised."""
    got = outcome(check, *args)
    return (got[1].lines(), got[1].data) if got[0] == "value" else got


def _total(X):
    """Does every table map its whole level into the next?"""
    shape = ("-not-total", "-extra-source", "-target-outside-level")
    return not any(note in line for line in validate_sset_by_simplex(X).lines()
                   for note in shape)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(exactness_inputs(), rewired_nerves()))
def test_index_kernels_match_checks_on_ids(X):
    """Every check run on index lists renders, data included, as the same
    check counted on id tables, each on a fresh copy of the object."""
    for method in ("direct", "decalage", "both"):
        assert (_report(check_decomposition, replace(X), method)
                == _report(oracles.check_decomposition_by_names, replace(X), method))
    if not _total(X):
        return
    assert _report(check_segal, replace(X)) == _report(oracles.check_segal_by_spines, replace(X))
    for dec in (dec_top, dec_bot):
        for cls in ("conservative", "ulf", "culf"):
            got = _report(check_map_class, dec(replace(X))[1], cls)
            assert got == _report(oracles.check_map_class_by_names, dec(replace(X))[1], cls)
            assert got[0] == "raised" or all(map(_REPORT_LINE.match, got[0])), got


@settings(max_examples=150, deadline=None, database=None)
@given(exactness_inputs())
def test_direct_and_decalage_verdicts_agree(X):
    """The generic-free pushout squares are pullbacks exactly when both
    decalages are Segal with culf counits (GKT I); a planted removal fails."""
    direct = check_decomposition(X, "direct")
    assert direct.status == check_decomposition(X, "decalage").status
    assert check_decomposition(X, "both").status == direct.status


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
    """A decalage counit of a poset nerve, or its image under u*, with one
    component entry retargeted within its level, sent outside it, deleted
    or renamed, with a component added outside the domain's degrees, or
    left alone."""
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
    return replace(F, components=comps)


@SETTINGS
@given(rewired_maps())
def test_map_validation_matches_per_simplex_check(F):
    if isinstance(F.dom, FinXiSet):
        lines, lo = parsed_lines(validate_map(F)), -1
        assert lines == oracles.validate_xiset_map_by_simplex(F).lines()
    else:
        lines, lo = parsed_lines(validate_map(F)), 0
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
    """A drawn XISET with one or two structure-map entries changed as in
    `rewired_nerves`, most often sent to another simplex of their level,
    or a whole table dropped, the stabilization claim sometimes changed,
    or left alone."""
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
    return FinXiSet(A.cap, A.levels, faces, degens, A.stable_from)


@settings(max_examples=200, deadline=None, database=None)
@given(rewired_xisets())
def test_validate_xiset_matches_pairs_reference(A):
    """The relations checked as simplicial identities two degrees up find
    what comparing every composable pair of site generators finds, line
    for line up to order: each identity is named by its side that is not
    in normal form."""
    got = sorted(parsed_lines(validate_xiset(A)))
    assert got == sorted(oracles.validate_xiset_by_pairs(A).lines())


def test_two_missing_xiset_tables_are_both_named():
    """Each missing table is named with its degree, as a simplicial set's
    is, by its XISET name."""
    A = u_star(nerve_poset(divisor_poset(6), 4))
    B = FinXiSet(A.cap, A.levels, {key: t for key, t in A.faces.items() if key != (0, 0)},
                 {key: t for key, t in A.degens.items() if key != (1, 0)}, A.stable_from)
    assert validate_xiset(B).lines() == ["FAIL validate degree=0 note=missing-face-dnew",
                                         "FAIL validate degree=1 note=missing-degeneracy-s[1,0]"]
    assert sorted(validate_xiset(B).lines()) == sorted(oracles.validate_xiset_by_pairs(B).lines())


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
# SSET/XISET text: tables read against their level lines, the index view
# handed over by the parser


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
        body = " ; ".join(entries)
        if how == "spacing":
            body = body.replace("->", draw(st.sampled_from(["\t->", "-> ", "  ->", "->\t\t"])))
            body = body.replace(" ; ", draw(st.sampled_from([";", " ;\t", "\t;  ", " ; "])))
        lines[n] = f"{head}: {body}"


PERTURBATIONS = ["reorder", "spacing", "comment", "above", "outside", "repeat-id",
                 "dup-source", "drop", "bare"]


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


def _assert_view_handed_over(X):
    """X's index view, seeded by the parser, against one made afresh, and
    every check on X against the same check on a copy with no view."""
    seeded, fresh = _index_view(X), _IndexView(X)
    for k, ids in X.levels.items():
        if len(set(ids)) != len(ids):
            assert k not in seeded.pos
    for k, at in seeded.pos.items():
        assert at == fresh.pos[k]
    for key, index in seeded.faces.items():
        assert index == fresh.faces[key]
    for key, index in seeded.degens.items():
        assert index == fresh.degens[key]
    checks = [(validate,)]
    if validate(replace(X)).ok:
        checks += ([(check_flanked,)] if isinstance(X, FinXiSet)
                   else [(check_segal,), (check_decomposition, "both")])
    for check, *args in checks:
        assert _report(check, X, *args) == _report(check, replace(X), *args)


@pytest.mark.parametrize("spec, cap, top", [
    (chain_poset(5), 8, "0≤5"), (truncated_addition(5), 8, "5"),
    (divisor_poset(12), 6, "1≤12"), (boolean_poset(3), 6, "o≤abc"),
], ids=["chain5", "trunc5", "d12", "B3"])
def test_parser_hands_over_the_whole_index_view(spec, cap, top):
    """A writer's text seeds every level and table of the view, and the
    view equals one made afresh; so does the top interval's XISET."""
    X = parse_sset(write_sset(nerve(spec, cap)))
    A = parse_xiset(write_xiset(factorisation_interval(X, top)[0].data))
    for Y in (X, A):
        view = _index_view(Y)
        assert (view.pos.keys(), view.faces.keys(), view.degens.keys()) == (
            Y.levels.keys(), Y.faces.keys(), Y.degens.keys())
        _assert_view_handed_over(Y)


@SETTINGS
@given(levelled_texts())
def test_handed_over_view_matches_a_fresh_one(case):
    X = outcome(_parse_levelled, *case)
    if X[0] == "value":
        _assert_view_handed_over(X[1])


def test_repeated_level_id_gets_no_seeded_positions():
    lines = write_sset(nerve(divisor_poset(12), 4)).splitlines()
    n = next(n for n, line in enumerate(lines) if line.startswith("level 1:"))
    lines[n] += " 1≤2"
    X = parse_sset("\n".join(lines) + "\n")
    assert 1 not in _index_view(X).pos and 0 in _index_view(X).pos
    assert "FAIL validate degree=1 note=duplicate-identifiers" in validate(X).lines()
