from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from decomp.axioms import check_mobius
from decomp.cli import main
from decomp.incidence import (
    NotCertified,
    QVec,
    classify,
    comult,
    convolve,
    counit_vec,
    culf_pushforward,
    mobius,
    phi,
    universal_mobius,
    verify_inversion,
    zeta,
)
from decomp.ingest import chain_poset, divisor_poset, nerve_poset
from decomp.interval import canonicalize, factorisation_interval, longest_edge
from decomp.presheaf import dec_bot, i_star, point_sset, validate
from decomp.registry import Registry, RegistryEntry, maximal_cuts
from conftest import chipped_object, idempotent_interval
from oracles import convolution_inverse, rota_mobius

SEP = "≤"


def arrow(x, y):
    return SEP.join([x, y])


@pytest.fixture(scope="module")
def d6():
    return nerve_poset(divisor_poset(6), 5)


@pytest.fixture(scope="module")
def d6_table(d6):
    return comult(d6)


def test_comult_divisor_example(d6_table):
    pairs = d6_table.pairs[arrow("1", "6")]
    assert pairs == Counter({
        (arrow("1", "1"), arrow("1", "6")): 1,
        (arrow("1", "2"), arrow("2", "6")): 1,
        (arrow("1", "3"), arrow("3", "6")): 1,
        (arrow("1", "6"), arrow("6", "6")): 1,
    })
    assert sum(pairs.values()) == 4


def test_comult_degenerate_arrow(d6_table):
    a = arrow("2", "2")
    assert d6_table.pairs[a] == Counter({(a, a): 1})
    assert d6_table.counit[a] == 1
    assert d6_table.counit[arrow("1", "2")] == 0


def test_comult_point():
    T = comult(point_sset(4))
    assert T.pairs["pt"] == Counter({("pt", "pt"): 1})
    assert T.counit["pt"] == 1


def test_comult_refuses_non_decomposition():
    with pytest.raises(NotCertified):
        comult(chipped_object())


def test_convolution_unit_laws(d6_table):
    eps = counit_vec(d6_table)
    f = QVec(d6_table.basis, {arrow("1", "6"): Fraction(3, 2),
                              arrow("2", "6"): Fraction(-1, 7)})
    assert convolve(d6_table, eps, f) == f
    assert convolve(d6_table, f, eps) == f


def test_convolution_associativity(d6_table):
    f = QVec(d6_table.basis, {arrow("1", "2"): Fraction(2),
                              arrow("1", "6"): Fraction(1, 3)})
    g = zeta(d6_table)
    h = QVec(d6_table.basis, {arrow("2", "6"): Fraction(-5),
                              arrow("3", "3"): Fraction(7, 2)})
    left = convolve(d6_table, convolve(d6_table, f, g), h)
    right = convolve(d6_table, f, convolve(d6_table, g, h))
    assert left == right


def test_zeta_squared_counts_fiber(d6_table):
    zz = convolve(d6_table, zeta(d6_table), zeta(d6_table))
    assert zz[arrow("1", "6")] == 4
    assert zz[arrow("1", "1")] == 1


def test_coassociativity_and_counit_laws(mobius_corpus):
    for X in mobius_corpus.values():
        T = comult(X, check=False)
        for a in T.basis:
            left = Counter()
            right = Counter()
            for (l, r), m in T.pairs[a].items():
                for (u, v), m2 in T.pairs[l].items():
                    left[(u, v, r)] += m * m2
                for (u, v), m2 in T.pairs[r].items():
                    right[(l, u, v)] += m * m2
            assert left == right, a
            eaten = Counter()
            for (l, r), m in T.pairs[a].items():
                if T.counit[l]:
                    eaten[r] += m
            assert eaten == Counter({a: 1})
            eaten = Counter()
            for (l, r), m in T.pairs[a].items():
                if T.counit[r]:
                    eaten[l] += m
            assert eaten == Counter({a: 1})


def test_phi_and_mobius_values():
    X = nerve_poset(divisor_poset(12), 6)
    a = arrow("1", "12")
    assert phi(X, 1)[a] == 1
    assert phi(X, 2)[a] == 4
    assert phi(X, 3)[a] == 3
    mu = mobius(X)
    assert mu[a] == 0  # the number-theoretic mu of 12
    assert mu[arrow("2", "2")] == 1
    assert mu[arrow("1", "2")] == -1


def test_phi_zero_counts_degenerate(d6):
    p0 = phi(d6, 0)
    assert p0[arrow("3", "3")] == 1
    assert p0[arrow("1", "6")] == 0


def test_mobius_chain():
    X = nerve_poset(chain_poset(1), 4)
    mu = mobius(X)
    assert mu[arrow("0", "1")] == -1
    assert phi(X, 1)[arrow("0", "1")] == 1
    assert phi(X, 2)[arrow("0", "1")] == 0


def test_mobius_refuses_uncertified(d6):
    loose = replace(nerve_poset(divisor_poset(6), 5), stable_from=None)
    with pytest.raises(NotCertified):
        mobius(loose)


def test_inversion_reports(mobius_corpus):
    for name in ("d60", "trunc_add", "point"):
        assert verify_inversion(mobius_corpus[name]).ok


def test_inversion_fails_where_the_certificate_overclaims():
    """The chipped object passes validation and the Mobius check with a
    claimed stable degree of 2, but mu is not the convolution inverse of zeta."""
    X = replace(chipped_object(), stable_from=2)
    assert validate(X).ok and check_mobius(X).ok
    assert verify_inversion(X).lines() == [
        "FAIL verify_inversion witness=0≤3 note=mu*zeta-differs-from-counit"]


def test_classify_maps_an_arrow_no_maximal_cut_reached():
    """In the certified chipped object, the one maximal arrow is 0≤3, and its
    cut misses 1≤2 though 1≤2 is the middle edge of 0≤1≤2≤2, so only the
    second pass of maximal_cuts reaches it.  Against the closure of the
    arrows' intervals every arrow is classified, and the comultiplication
    is not preserved."""
    X = replace(chipped_object(), stable_from=2)
    assert X.faces[(2, 0)][X.faces[(3, 3)]["0≤1≤2≤2"]] == "1≤2"
    assert [a for a, _, _ in maximal_cuts(X)] == ["0≤3", "1≤2"]
    reg = Registry()
    for a in X.levels[1]:
        reg.insert(factorisation_interval(X, a)[0])
    mapping, rep = classify(X, reg.close())
    assert sorted(mapping) == sorted(X.levels[1])
    assert set(mapping.values()) <= reg.entries.keys()
    assert rep.lines() == [
        "FAIL classify degree=2 witness=0≤2 note=not-a-coalgebra-homomorphism"]


def test_mobius_agrees_with_series_inverse(mobius_corpus):
    for name in ("d12", "trunc_add", "b2"):
        X = mobius_corpus[name]
        mu = mobius(X)
        inv = convolution_inverse(comult(X, check=False))
        for a in X.levels[1]:
            assert mu[a] == inv[a], (name, a)


def test_mobius_agrees_with_rota(posets, poset_nerves):
    spec = posets["d30"]
    X = poset_nerves["d30"]
    oracle = rota_mobius(spec)
    mu = mobius(X)
    for x in spec.elements:
        for y in spec.elements:
            if spec.leq(x, y):
                assert mu[arrow(x, y)] == oracle(x, y)
    assert mu[arrow("1", "30")] == -1


def test_culf_pushforward_counit(poset_nerves):
    _, counit = dec_bot(poset_nerves["d6"])
    m, rep = culf_pushforward(counit)
    assert rep.ok
    assert set(m) == set(counit.dom.levels[1])


def test_culf_pushforward_identity(d6):
    from decomp.presheaf import SSetMap

    F = SSetMap(d6, d6, {k: {x: x for x in d6.levels[k]}
                         for k in range(d6.cap + 1)})
    m, rep = culf_pushforward(F)
    assert rep.ok and all(m[x] == x for x in m)


def test_culf_pushforward_needs_a_comultiplication(d6):
    from decomp.presheaf import SSetMap, truncate

    low = truncate(d6, 1)
    F = SSetMap(low, d6, {k: {x: x for x in low.levels[k]} for k in range(2)})
    with pytest.raises(NotCertified, match="comultiplication needs cap >= 2"):
        culf_pushforward(F)


@pytest.mark.parametrize("how, line", [
    ("delete", "FAIL validate_map witness=1≤1≤1 note=F[1]-not-total"),
    ("outside", "FAIL validate_map witness=1≤1≤1,zz note=F[1]-target-outside-level"),
], ids=["delete", "outside"])
def test_culf_pushforward_refuses_a_map_that_is_not_valid(d6, how, line):
    """A level-1 component entry of the counit deleted or sent outside the
    codomain: the map's validation lines, not a KeyError."""
    _, counit = dec_bot(d6)
    table = dict(counit.components[1])
    if how == "delete":
        del table[f"1{SEP}1{SEP}1"]
    else:
        table[f"1{SEP}1{SEP}1"] = "zz"
    F = replace(counit, components={**counit.components, 1: table})
    with pytest.raises(NotCertified) as info:
        culf_pushforward(F)
    assert str(info.value) == f"map is not valid:\n{line}"


def test_phi_pulls_back_along_interval_embedding(poset_nerves):
    X = poset_nerves["d12"]
    a = arrow("1", "12")
    iv, embed = factorisation_interval(X, a)
    under = i_star(iv.data)
    top = longest_edge(iv.data)
    for k in range(1, 4):
        assert phi(under, k)[top] == phi(X, k)[a]
    _, rep = culf_pushforward(embed)
    assert rep.ok


def test_phi_pulls_back_along_decalage_counits(poset_nerves):
    for name in ("d6", "b2", "chain2"):
        X = poset_nerves[name]
        for dec in (dec_bot,):
            D, counit = dec(X)
            m1 = counit.components[1]
            for k in range(0, min(3, D.cap) + 1):
                up = phi(D, k)
                down = phi(X, k)
                for b in D.levels[1]:
                    assert up[b] == down[m1[b]], (name, k, b)


def test_classify_and_universal_mobius(d6, poset_nerves):
    reg = Registry()
    reg.insert(factorisation_interval(d6, arrow("1", "6"))[0], name="diamond")
    reg.close()
    mapping, rep = classify(d6, reg)
    assert rep.ok
    assert mapping[arrow("1", "6")] == reg.names["diamond"]
    # isomorphic arrows in different posets classify identically
    d10 = nerve_poset(divisor_poset(10), 5)
    mapping10, rep10 = classify(d10, reg)
    assert rep10.ok
    assert mapping10[arrow("1", "10")] == mapping[arrow("1", "6")]
    mu_r, inv = universal_mobius(reg)
    assert inv.ok
    names = {e.name: d for d, e in reg.entries.items()}
    assert mu_r[names["diamond"]] == 1
    mu6 = mobius(d6)
    for a in d6.levels[1]:
        assert mu6[a] == mu_r[mapping[a]]


def test_universal_mobius_values(d6):
    reg = Registry()
    reg.insert(factorisation_interval(d6, arrow("1", "6"))[0], name="diamond")
    reg.close()
    mu_r, rep = universal_mobius(reg)
    assert rep.ok
    by_name = {e.name: mu_r[d] for d, e in reg.entries.items()}
    values = sorted(by_name.values())
    assert values == [-1, 1, 1]  # chain1, diamond and terminal


def test_qvec_guards():
    basis = frozenset({"a"})
    with pytest.raises(ValueError):
        QVec(basis, {"b": Fraction(1)})
    v = QVec(basis, {"a": Fraction(0)})
    assert not v.coeffs


def test_universal_mobius_refuses_an_uncertified_entry(tmp_path, capsys):
    """A stored class whose certificate fails, the interval of an idempotent
    with its composable cycle, is named rather than summed over a cut
    profile, in the library and by `registry mu`."""
    c = canonicalize(idempotent_interval())
    reg = Registry()
    reg.entries[c.digest] = RegistryEntry("cycle", c)
    reg.names["cycle"] = c.digest
    with pytest.raises(NotCertified, match=c.digest[:12]):
        universal_mobius(reg)
    reg.save(str(tmp_path))
    assert main(["registry", "mu", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: stored entry {c.digest[:12]} ")
