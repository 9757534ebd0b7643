from dataclasses import replace

import pytest

from decomp.axioms import check_map_class, check_segal, check_wide
from decomp.ingest import divisor_poset, nerve_poset
from decomp.interval import (
    AlgebraicInterval,
    IntervalError,
    canonicalize,
    canonicalize_with_map,
    certify_mobius_interval,
    extend_interval,
    factorisation_interval,
    isomorphic,
    labelling_system,
    longest_edge,
    subdivisions,
    validate_interval,
    wide_cartesian_factor,
)
from decomp.presheaf import (
    CapError,
    i_star,
    point_sset,
    point_xiset,
    transpose_arrow,
    truncate,
    u_star,
    validate_map,
)
from conftest import assert_isomorphism

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
    model = nerve_poset(spec.interval("2", "12"), d12.cap - 2)
    assert isomorphic(i_star(iv.data), model) is not None


def test_interval_is_segal(diamond):
    assert check_segal(i_star(diamond.data)).ok


def test_errors(d12):
    with pytest.raises(IntervalError):
        factorisation_interval(d12, "nonsense")
    with pytest.raises(ValueError):
        factorisation_interval(point_sset(2), "pt")


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
    iso = isomorphic(truncate(a.data, 2), truncate(b.data, 2))
    assert iso is not None
    assert_isomorphism(labelling_system(truncate(a.data, 2)), labelling_system(truncate(b.data, 2)), iso)
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
    assert_isomorphism(labelling_system(a), labelling_system(b), iso)


def test_cap_zero_interval_is_refused(diamond):
    with pytest.raises(CapError, match="completeness needs cap >= 1"):
        validate_interval(AlgebraicInterval(truncate(diamond.data, 0)))


def test_validate_interval_returns_an_invalid_inputs_validate_report(diamond):
    """Validity comes first, so an interval without level -1 is named by
    `validate` rather than raised on while counting that level."""
    levels = {k: ids for k, ids in diamond.data.levels.items() if k != -1}
    rep = validate_interval(AlgebraicInterval(replace(diamond.data, levels=levels)))
    assert rep.lines() == ["FAIL validate note=levels-do-not-match-cap"]


def test_canonicalize_is_stable_and_idempotent(diamond):
    c1 = canonicalize(diamond)
    c2 = canonicalize(diamond)
    assert c1.digest == c2.digest
    again = canonicalize(c1.canonical)
    assert again.digest == c1.digest


def test_canonicalize_requires_certificate(diamond):
    loose = AlgebraicInterval(replace(truncate(diamond.data, diamond.data.cap),
                                      stable_from=None))
    with pytest.raises(IntervalError):
        canonicalize(loose)


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


def test_subdivision_counts_stable_under_extension(diamond):
    cd = canonicalize(diamond)
    ext = extend_interval(cd.canonical, 4)
    from decomp.interval import _fiber

    for k in range(0, 3):
        assert len(_fiber(ext.data, k, False)) == \
            len(subdivisions(cd, k))


def test_certification_profiles(diamond):
    cd = canonicalize(diamond)
    rep = certify_mobius_interval(cd)
    assert rep.ok
    assert rep.data["phi_profile"] == [0, 1, 2]
    pt = canonicalize(factorisation_interval(point_sset(5), "pt")[0])
    rep = certify_mobius_interval(pt)
    assert rep.ok and rep.data["phi_profile"] == [1]


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
    from decomp.presheaf import unit_eta

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
