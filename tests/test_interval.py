import re
from dataclasses import replace

import oracles
import pytest

from decomp.axioms import check_map_class, check_segal
from decomp.ingest import CategorySpec, nerve_category, nerve_poset
from decomp.interval import (
    AlgebraicInterval,
    IntervalClass,
    IntervalError,
    canonicalize,
    canonicalize_with_map,
    certify_mobius_interval,
    extend_interval,
    factorisation_interval,
    interval_category,
    labelling_system,
    longest_edge,
    validate_interval,
)
from decomp.presheaf import (
    CapError,
    FinSSet,
    FinXiSet,
    ShapeError,
    XiSetMap,
    i_star,
    truncate,
    u_star,
    validate,
    validate_map,
)
from conftest import (
    assert_isomorphism,
    chain_poset,
    divisor_poset,
    idempotent_interval,
    point_sset,
    point_xiset,
    subposet,
)
from oracles import (
    check_wide,
    isomorphic,
    subdivisions,
    transpose_arrow,
    wide_cartesian_factor,
    xi_representable,
)

SEP = "≤"


def arrow(x, y):
    return SEP.join([x, y])


@pytest.fixture(scope="module")
def d12():
    return nerve_poset(divisor_poset(12), 6)


@pytest.fixture(scope="module")
def diamond(poset_nerves):
    iv, _ = factorisation_interval(poset_nerves["d6"], arrow("1", "6"))
    return iv


def test_interval_fiber_sizes(d12):
    iv, embed = factorisation_interval(d12, arrow("1", "12"))
    assert len(iv.data.levels[-1]) == 1
    assert len(iv.data.levels[0]) == 6  # two-step factorisations = midpoints
    assert validate_interval(iv).ok
    assert check_map_class(embed, "culf").ok


def test_interval_of_degenerate_arrow_is_terminal(d12):
    iv, _ = factorisation_interval(d12, arrow("4", "4"))
    assert all(len(v) == 1 for v in iv.data.levels.values())
    cls = canonicalize(iv)
    pt, _ = factorisation_interval(point_sset(5), "pt")
    assert canonicalize(pt).digest == cls.digest


def test_interval_matches_subposet_nerve(d12):
    spec = divisor_poset(12)
    iv, _ = factorisation_interval(d12, arrow("2", "12"))
    model = nerve_poset(subposet(spec, "2", "12"), d12.cap - 2)
    assert isomorphic(i_star(iv.data), model) is not None


def test_interval_is_segal(diamond):
    assert check_segal(i_star(diamond.data)).ok


def test_errors(d12):
    with pytest.raises(IntervalError):
        factorisation_interval(d12, "nonsense")
    with pytest.raises(ValueError):
        factorisation_interval(point_sset(2), "pt")


def test_an_input_never_validated_may_fail_completeness(d12):
    """Only an object no check validated reaches the completeness guard: d12
    with s0 sending the object 2 where it sends 1 is refused, and its
    validation fails d0s0 there, as d0 s0 = id makes s0 injective on every
    valid SSET."""
    degens = dict(d12.degens)
    degens[0, 0] = {**degens[0, 0], "2": degens[0, 0]["1"]}
    X = FinSSet(d12.cap, d12.levels, dict(d12.faces), degens, d12.stable_from)
    with pytest.raises(IntervalError, match="^input fails completeness$"):
        factorisation_interval(X, arrow("1", "12"))
    assert "FAIL validate degree=0 witness=2 note=d0s0" in validate(X).lines()


def _positions(A, B, iso):
    """isomorphic's bijection A -> B, in ids, as the position in B of the
    image of each simplex of A."""
    return {k: [B.levels[k].index(iso[k][x]) for x in A.levels[k]] for k in iso}


def test_canonical_digests_identify_isomorphic(poset_nerves):
    d6 = poset_nerves["d6"]
    d10 = nerve_poset(divisor_poset(10), 5)
    d4 = nerve_poset(divisor_poset(4), 5)
    c6 = canonicalize(factorisation_interval(d6, arrow("1", "6"))[0])
    c10 = canonicalize(factorisation_interval(d10, arrow("1", "10"))[0])
    c4 = canonicalize(factorisation_interval(d4, arrow("1", "4"))[0])
    assert c6.digest == c10.digest
    assert c4.digest != c6.digest
    # the two presentations really are isomorphic: the bijection found
    # commutes with every structure map
    a = factorisation_interval(d6, arrow("1", "6"))[0]
    b = factorisation_interval(d10, arrow("1", "10"))[0]
    ta, tb = truncate(a.data, 2), truncate(b.data, 2)
    iso = isomorphic(ta, tb)
    assert iso is not None
    assert_isomorphism(labelling_system(ta), labelling_system(tb), _positions(ta, tb, iso))
    assert isomorphic(
        truncate(canonicalize(a).canonical.data, 2),
        truncate(factorisation_interval(d4, arrow("1", "4"))[0].data, 2),
    ) is None


def test_isomorphism_of_symmetric_intervals(poset_nerves):
    """B3 and d30 are both the cube, whose top interval has automorphisms."""
    a = factorisation_interval(poset_nerves["b3"], arrow("o", "abc"))[0].data
    b = factorisation_interval(poset_nerves["d30"], arrow("1", "30"))[0].data
    iso = isomorphic(a, b)
    assert iso is not None
    assert_isomorphism(labelling_system(a), labelling_system(b), _positions(a, b, iso))


def _two_paths_interval(p2_q):
    """The interval b -> t through a middle x => y -> z with two arrows
    x -> z, where p1;q = r1 and p2;q = p2_q."""
    arrows = {"bx": ("b", "x"), "by": ("b", "y"), "bz": ("b", "z"), "bt": ("b", "t"),
              "xt": ("x", "t"), "yt": ("y", "t"), "zt": ("z", "t"), "p1": ("x", "y"),
              "p2": ("x", "y"), "q": ("y", "z"), "r1": ("x", "z"), "r2": ("x", "z")}
    idents = {o: f"1{o}" for o in "bxyzt"}
    arrows.update({i: (o, o) for o, i in idents.items()})
    comp = {("bx", "xt"): "bt", ("by", "yt"): "bt", ("bz", "zt"): "bt",
            ("bx", "p1"): "by", ("bx", "p2"): "by", ("by", "q"): "bz", ("bx", "r1"): "bz",
            ("bx", "r2"): "bz", ("p1", "yt"): "xt", ("p2", "yt"): "xt", ("q", "zt"): "yt",
            ("r1", "zt"): "xt", ("r2", "zt"): "xt", ("p1", "q"): "r1", ("p2", "q"): p2_q}
    spec = CategorySpec.build(list("bxyzt"), arrows, idents, comp)
    return factorisation_interval(nerve_category(spec, 6), "bt")[0]


def test_digests_tell_apart_intervals_that_differ_only_in_composites():
    """Two intervals with one graph of arrows, isomorphic at cap 1, whose
    composite tables differ (p2;q is r2 in one, r1 in the other): the 2-truncation
    keeps them apart, as their full truncations are not isomorphic."""
    a, b = _two_paths_interval("r2"), _two_paths_interval("r1")
    assert isomorphic(truncate(a.data, 1), truncate(b.data, 1)) is not None
    assert isomorphic(a.data, b.data) is None
    assert canonicalize(a).digest != canonicalize(b).digest


def test_cap_zero_interval_is_refused(diamond):
    with pytest.raises(CapError, match="completeness needs cap >= 1"):
        validate_interval(AlgebraicInterval(truncate(diamond.data, 0)))


def test_validate_interval_returns_an_invalid_inputs_validate_report(diamond):
    """Validity comes first, so an interval without level -1 is named by
    `validate`'s line rather than raised on while counting that level: the
    constructor refuses it with that line, and `validate_interval` returns
    the `validate` report of an input that breaks a relation."""
    levels = {k: ids for k, ids in diamond.data.levels.items() if k != -1}
    with pytest.raises(ShapeError) as got:
        replace(diamond.data, levels=levels)
    assert got.value.report.lines() == ["FAIL validate note=levels-do-not-match-cap"]
    d0 = list(diamond.data.faces.index[(1, 0)])
    d0[0] = (d0[0] + 1) % len(diamond.data.levels[0])
    bad = replace(diamond.data, faces={**diamond.data.faces.index, (1, 0): d0})
    rep = validate_interval(AlgebraicInterval(bad))
    assert rep.lines() == validate(bad).lines() and rep.check == "validate" and not rep.ok


def test_an_interval_whose_s0_merges_two_objects_fails_validation(diamond):
    """A valid input is complete, since d0 s0 = id at degree 0 is one of
    the relations validation checks: an s0 that is not injective is named
    by `validate`, before validate_interval reaches its completeness line."""
    A = diamond.data
    a, b = A.levels[0][:2]
    s0 = {**A.degens[(0, 0)], b: A.degens[(0, 0)][a]}
    rep = validate_interval(AlgebraicInterval(replace(A, degens={**A.degens, (0, 0): s0})))
    assert rep.check == "validate"
    assert f"FAIL validate degree=0 witness={b} note=relation:d[1,0];s[0,0]" in rep.lines()


def test_canonicalize_is_stable_and_idempotent(diamond):
    c1 = canonicalize(diamond)
    c2 = canonicalize(diamond)
    assert c1.digest == c2.digest
    again = canonicalize(c1.canonical)
    assert again.digest == c1.digest


def test_canonicalize_refuses_a_cap_one_interval_with_three_objects(diamond):
    """An interval with three or more objects is canonical at cap 2, its
    arrow category; at cap 1 it has no composites, and the refusal names its
    object count and cap.  With at most two objects cap 1 is enough."""
    with pytest.raises(IntervalError, match="^interval has 4 objects at cap 1; "):
        canonicalize(AlgebraicInterval(truncate(diamond.data, 1)))
    pt, _ = factorisation_interval(point_sset(3), "pt")
    assert canonicalize(AlgebraicInterval(truncate(pt.data, 1))).canonical.data.cap == 1


@pytest.mark.parametrize("stable", [None, 2, 6])
def test_a_stable_line_leaves_the_digest_unchanged(stable):
    """The canonical form is the 2-truncation and carries no stable degree:
    chain6's top interval, with no stable line, a claim of 2 or its own
    Möbius length 6, gets one digest, and its certificate, read off the
    composite table, passes at length 6 whatever the input claimed."""
    iv, _ = factorisation_interval(nerve_poset(chain_poset(6), 9), arrow("0", "6"))
    assert iv.data.stable_from == 6
    c = canonicalize(replace(iv, data=replace(iv.data, stable_from=stable)))
    assert c.digest == canonicalize(iv).digest
    assert c.canonical.data.cap == 2 and c.canonical.data.stable_from is None
    rep = certify_mobius_interval(c)
    assert rep.ok and rep.verified_upto == 6
    assert rep.data["phi_profile"] == [0, 1, 5, 10, 10, 5, 1]


def test_relabel_map_is_an_isomorphism(diamond):
    cls, relabel = canonicalize_with_map(diamond)
    cap = cls.canonical.data.cap
    T = truncate(diamond.data, cap)
    for k in range(-1, cap + 1):
        assert sorted(relabel[k]) == sorted(T.levels[k])
        assert sorted(relabel[k].values()) == sorted(cls.canonical.data.levels[k])


def test_identity_isomorphism(diamond):
    iso = isomorphic(diamond.data, diamond.data)
    assert iso is not None


def test_subdivision_counts(diamond, poset_nerves):
    cd = canonicalize(diamond)
    assert len(subdivisions(cd, 1)) == 1
    assert len(subdivisions(cd, 2)) == 4
    assert len(subdivisions(cd, 2, nondegenerate=True)) == 2
    d4 = nerve_poset(divisor_poset(4), 5)
    c4 = canonicalize(factorisation_interval(d4, arrow("1", "4"))[0])
    assert len(subdivisions(c4, 2)) == 3
    pt = canonicalize(factorisation_interval(point_sset(5), "pt")[0])
    assert len(subdivisions(pt, 0)) == 1
    assert len(subdivisions(cd, 0)) == 0


def test_subdivision_counts_of_d12(d12):
    """Subdivisions of d12's top interval, of cap 2, up to degree 6: all of
    them and the nondegenerate ones."""
    c = canonicalize(factorisation_interval(d12, arrow("1", "12"))[0])
    assert c.canonical.data.cap == 2
    assert [len(subdivisions(c, k)) for k in range(7)] == [0, 1, 6, 18, 40, 75, 126]
    assert [len(subdivisions(c, k, nondegenerate=True)) for k in range(7)] == (
        [0, 1, 4, 3, 0, 0, 0])


def test_subdivision_counts_stable_under_extension(diamond):
    cd = canonicalize(diamond)
    ext = extend_interval(cd.canonical, 4)
    for k in range(0, 3):
        assert len(oracles.longest_edge_fiber(ext.data, k)) == \
            len(subdivisions(cd, k))


def test_certification_profiles(diamond):
    cd = canonicalize(diamond)
    rep = certify_mobius_interval(cd)
    assert rep.ok
    assert rep.data["phi_profile"] == [0, 1, 2]
    pt = canonicalize(factorisation_interval(point_sset(5), "pt")[0])
    rep = certify_mobius_interval(pt)
    assert rep.ok and rep.data["phi_profile"] == [1]


def test_certificate_is_inconclusive_on_a_composable_cycle():
    """In the category {1, e; e.e = e} the strings of e compose to e at
    every length, so the interval of e, valid and Segal, has no Möbius
    length: its certificate is INCONCLUSIVE, never a PASS on a cut profile."""
    iv = idempotent_interval()
    assert validate_interval(iv).ok
    assert certify_mobius_interval(canonicalize(iv)).lines() == [
        "INCONCLUSIVE certify_mobius_interval note=composable-cycle"]


def test_two_fillers_of_one_spine_are_an_ambiguous_composite():
    """A second nondegenerate 2-simplex on the spine of the 3-chain's one
    composable pair, its d1 the bottom object's identity, gives that pair
    two composites: the arrow category is refused by name, and the
    certificate is INCONCLUSIVE."""
    X = nerve_poset(chain_poset(2), 4)
    data = canonicalize(factorisation_interval(X, "0≤2")[0]).canonical.data
    d, s0, arrows = data.faces.index, data.degens.index[(0, 0)], data.levels[1]
    (sig,) = [n for n, (f, g) in enumerate(zip(d[(2, 2)], d[(2, 0)]))
              if f not in s0 and g not in s0]
    faces = {key: list(t) for key, t in d.items()}
    for i in range(3):
        faces[(2, i)].append(s0[d[(1, 1)][d[(2, 2)][sig]]] if i == 1 else d[(2, i)][sig])
    bad = FinXiSet(2, {**data.levels, 2: data.levels[2] + ["zz"]}, faces, dict(data.degens.index))
    f, g = arrows[d[(2, 2)][sig]], arrows[d[(2, 0)][sig]]
    with pytest.raises(IntervalError, match=re.escape(f"ambiguous composite for {f};{g}")):
        interval_category(bad)
    assert certify_mobius_interval(IntervalClass(AlgebraicInterval(bad), "0" * 64)).lines() == [
        "INCONCLUSIVE certify_mobius_interval note=composite-table-refused"]


def test_wide_cartesian_factorisation_refuses_a_domain_above_the_codomains_cap():
    """No map has a domain above its codomain's cap, so there is none to
    factor: the constructor refuses it."""
    with pytest.raises(ShapeError) as got:
        XiSetMap(xi_representable(-1, 2), xi_representable(-1, 1), {})
    assert got.value.report.lines() == ["FAIL validate_map note=dom-cap-exceeds-cod-cap"]


def test_interval_idempotence(d12):
    """The interval of the longest edge of an interval is the interval."""
    iv, _ = factorisation_interval(d12, arrow("1", "12"))
    under = i_star(iv.data)
    again, _ = factorisation_interval(under, longest_edge(iv.data))
    assert isomorphic(
        again.data, truncate(iv.data, iv.data.cap - 2)) is not None


def test_extension_roundtrip(diamond):
    cd = canonicalize(diamond)
    ext = extend_interval(cd.canonical, 4)
    assert canonicalize(ext).digest == cd.digest


def test_wide_cartesian_factorisation(d12):
    g = transpose_arrow(d12, arrow("1", "12"))
    wide, cart = wide_cartesian_factor(g)
    assert validate_map(wide).ok
    assert validate_map(cart).ok
    assert check_wide(wide)
    assert check_map_class(cart, "culf").ok
    assert len(wide.cod.levels[0]) == 6  # midpoints of the fiber
    for n in range(-1, g.dom.cap + 1):
        composite = {y: cart.components[n][wide.components[n][y]]
                     for y in g.dom.levels[n]}
        assert composite == g.components[n]


def test_wide_factor_of_cartesian_is_iso(poset_nerves):
    A = u_star(poset_nerves["d6"])
    from oracles import unit_eta

    eta = unit_eta(A)
    wide, _ = wide_cartesian_factor(eta)
    for n in range(-1, wide.dom.cap + 1):
        comp = wide.components[n]
        assert len(set(comp.values())) == len(comp) == len(wide.cod.levels[n])


def test_wide_cartesian_on_identity(poset_nerves):
    A = u_star(poset_nerves["d6"])
    from decomp.presheaf import XiSetMap

    ident = XiSetMap(A, A, {k: {x: x for x in A.levels[k]}
                            for k in range(-1, A.cap + 1)})
    wide, cart = wide_cartesian_factor(ident)
    assert check_wide(wide) and check_map_class(cart, "culf").ok
    assert check_map_class(wide, "culf").ok  # both parts invertible here


def test_wide_cartesian_factorisation_names_a_map_that_is_not_natural(d12):
    """A map with one degree-0 entry sent to another simplex of its level is
    refused with `validate_map`'s first FAIL line, not a bare KeyError."""
    g = transpose_arrow(d12, arrow("1", "12"))
    comps = {k: dict(g.components[k]) for k in g.components}
    x = g.dom.levels[0][0]
    comps[0][x] = next(y for y in g.cod.levels[0] if y != comps[0][x])
    bad = XiSetMap(g.dom, g.cod, comps)
    line = "FAIL validate_map degree=1 witness=x0_0_0_1 note=naturality-d[1,0]"
    assert validate_map(bad).lines()[0] == line
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        wide_cartesian_factor(bad)


def test_check_wide_reads_positions(d12, poset_nerves):
    """`check_wide` reads the degree -1 positions and builds no id table; a
    degree -1 component that is not total makes no map."""
    g = transpose_arrow(d12, arrow("1", "12"))
    with pytest.raises(ShapeError) as got:
        XiSetMap(g.dom, g.cod, {**{k: dict(g.components[k]) for k in g.components}, -1: {}})
    assert got.value.report.lines() == ["FAIL validate_map witness=x0_1 note=G[-1]-not-total"]
    g = transpose_arrow(d12, arrow("1", "12"))
    wide, _ = wide_cartesian_factor(g)
    A = u_star(poset_nerves["d6"])
    ident = XiSetMap(A, A, {k: {x: x for x in A.levels[k]} for k in range(-1, A.cap + 1)})
    maps = (g, wide, ident)
    assert [check_wide(F) for F in maps] == [False, True, True]
    assert not any(F.components.ids for F in maps)


def test_zero_subdivisions_at_most_one(poset_nerves):
    for name in ("chain1", "d6", "b2"):
        X = poset_nerves[name]
        for a in X.levels[1]:
            cls = canonicalize(factorisation_interval(X, a)[0])
            assert len(subdivisions(cls, 0)) <= 1


def test_point_interval_from_xiset():
    A = AlgebraicInterval(point_xiset(3))
    assert longest_edge(A.data) == "pt"
    assert validate_interval(A).ok


def test_cartesian_base_change_preserves_flankedness(d12):
    """Anything cartesian over a flanked exact presheaf is one again."""
    from decomp.axioms import check_decomposition, check_flanked
    from decomp.presheaf import i_star, validate_xiset

    g = transpose_arrow(d12, arrow("1", "12"))
    _, cart = wide_cartesian_factor(g)
    mid = cart.dom
    assert validate_xiset(mid).ok
    assert check_flanked(mid).ok
    assert check_decomposition(i_star(mid), "direct").ok
