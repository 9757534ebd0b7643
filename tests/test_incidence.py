from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import decomp.incidence
from decomp.axioms import check_decomposition, check_map_class, check_mobius
from decomp.cli import main
from decomp.incidence import (
    NotCertified,
    QVec,
    _homomorphism,
    classify,
    comult,
    convolve,
    counit_vec,
    mobius,
    universal_mobius,
    verify_inversion,
    zeta,
)
from decomp.ingest import nerve_poset
from decomp.interval import canonicalize, factorisation_interval, longest_edge
from decomp.presheaf import dec_bot, i_star, validate
from decomp.registry import Registry, RegistryEntry, maximal_cuts
from decomp.report import Report
from conftest import (
    chain_poset,
    chipped_object,
    divisor_poset,
    filter_nerve,
    idempotent_interval,
    invalid_object,
    point_sset,
)
from oracles import (
    convolution_inverse,
    culf_pushforward,
    inversion_lines_by_support,
    mobius_by_phi,
    phi,
    rota_mobius,
    vector_sum,
)

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


def test_comult_certifies_a_segal_input_without_direct_exactness(monkeypatch, trunc_add):
    """A valid Segal input of cap at least 3 is a decomposition space, so
    `comult` reads its memoised Segal verdict and runs no direct exactness
    check; truncated (N,+) is not Segal and is certified through one."""
    calls = []
    decide = decomp.incidence.check_decomposition

    def counted(X, method):
        calls.append(method)
        return decide(X, method)
    monkeypatch.setattr(decomp.incidence, "check_decomposition", counted)
    X = nerve_poset(divisor_poset(12), 4)
    assert comult(X).pairs == comult(X, check=False).pairs
    assert calls == []
    comult(trunc_add)
    assert calls == ["direct"]


@pytest.mark.parametrize("make, lines, first", [
    (chipped_object, 6, "degree=3 note=pushout(<[1]->[2]:0,2>,<[1]->[2]:0,1>):"
                        "missing-fiber-pair:0≤1≤2,0≤2≤3"),
    (invalid_object, 7, "degree=2 witness=0≤0≤1 note=d0d1 via=validate"),
    (lambda: filter_nerve(nerve_poset(chain_poset(3), 4),
                          lambda vs: not {"0", "1", "3"} <= set(vs)), 3,
     "degree=3 note=pushout(<[1]->[2]:0,2>,<[1]->[2]:0,1>):missing-fiber-pair:0≤1≤2,0≤2≤3"),
], ids=["chipped", "invalid", "planted"])
def test_comult_refusals_quote_direct_exactness(make, lines, first):
    """An input that is not a valid Segal space is refused with the lines
    of its direct exactness check."""
    X = make()
    with pytest.raises(NotCertified) as info:
        comult(X)
    text = str(info.value).splitlines()
    assert text[0] == "input fails the exactness axiom:"
    assert text[1:] == check_decomposition(X, "direct").lines()
    assert len(text) == 1 + lines and text[1] == f"FAIL check_decomposition[direct] {first}"


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


def test_a_vector_over_another_basis_is_refused(d6_table):
    """Convolving a vector over a basis other than the table's is a
    ValueError, not a sum over the wrong arrows."""
    f, other = zeta(d6_table), QVec(d6_table.basis - {arrow("1", "6")})
    for left, right in ((f, other), (other, f)):
        with pytest.raises(ValueError, match="basis mismatch"):
            convolve(d6_table, left, right)


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


def assert_sign_free_inversion(X):
    """zeta*Phi_even = counit + zeta*Phi_odd and Phi_even*zeta = counit +
    Phi_odd*zeta: Mobius inversion with no minus sign (GKT II), the even and
    odd sums of the nondegenerate counting vectors up to X's stable degree."""
    table = comult(X, check=False)
    z, eps = zeta(table), counit_vec(table)
    terms = [phi(X, k) for k in range(X.stable_from + 1)]
    even = vector_sum(table.basis, terms[0::2])
    odd = vector_sum(table.basis, terms[1::2])
    assert convolve(table, z, even) == vector_sum(table.basis, [eps, convolve(table, z, odd)])
    assert convolve(table, even, z) == vector_sum(table.basis, [eps, convolve(table, odd, z)])


def test_sign_free_inversion(mobius_corpus):
    for X in mobius_corpus.values():
        assert_sign_free_inversion(X)


def test_inversion_fails_where_the_certificate_overclaims():
    """The chipped object passes validation and the Mobius check with a
    claimed stable degree of 2, but mu is not the convolution inverse of zeta."""
    X = replace(chipped_object(), stable_from=2)
    assert validate(X).ok and check_mobius(X).ok
    assert verify_inversion(X).lines() == [
        "FAIL verify_inversion witness=0≤3 note=mu*zeta-differs-from-counit"]


def test_inversion_quotes_a_certificate_that_fails():
    """Without a stable degree d6 has no Mobius certificate, so
    verify_inversion quotes check_mobius and convolves nothing."""
    loose = replace(nerve_poset(divisor_poset(6), 5), stable_from=None)
    assert verify_inversion(loose).lines() == [
        "INCONCLUSIVE verify_inversion note=no-stabilization-degree via=check_tight via=check_mobius"]


def test_inversion_names_both_sides_of_a_perturbed_mu(d6, monkeypatch):
    """verify_inversion of d6 with its mu off at 1≤1 and at 2≤6: both sides
    fail, each with the witnesses that the supports on raw tables give."""
    import decomp.incidence

    real = decomp.incidence.mobius
    off = {arrow("1", "1"): 1, arrow("2", "6"): -2}
    monkeypatch.setattr(decomp.incidence, "mobius",
                        lambda X: vector_sum(X.levels[1], [real(X), QVec(real(X).basis, off)]))
    lines = verify_inversion(d6).lines()
    assert [line.rsplit(" note=", 1)[1] for line in lines] == [
        "zeta*mu-differs-from-counit", "mu*zeta-differs-from-counit"]
    assert lines == inversion_lines_by_support(comult(d6), decomp.incidence.mobius(d6))


def test_mobius_matches_the_sum_of_phi_vectors(mobius_corpus):
    for X in mobius_corpus.values():
        assert mobius(X) == mobius_by_phi(X)


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


def test_culf_pushforward_names_its_arrow_map_from_positions(poset_nerves):
    """The arrow-level map is named from the level-1 component's positions,
    so the map keeps no id table, and it is that component's id table."""
    _, counit = dec_bot(poset_nerves["d12"])
    m, rep = culf_pushforward(counit)
    assert rep.ok and not counit.components.ids
    assert list(m.items()) == list(counit.components[1].items())


def test_culf_pushforward_identity(d6):
    from decomp.presheaf import SSetMap

    F = SSetMap(d6, d6, {k: {x: x for x in d6.levels[k]}
                         for k in range(d6.cap + 1)})
    m, rep = culf_pushforward(F)
    assert rep.ok and all(m[x] == x for x in m)


@pytest.mark.parametrize("cap", [0, 1])
def test_culf_pushforward_needs_a_comultiplication(d6, cap):
    from decomp.presheaf import SSetMap, truncate

    low = truncate(d6, cap)
    F = SSetMap(low, d6, {k: {x: x for x in low.levels[k]} for k in range(cap + 1)})
    with pytest.raises(NotCertified, match="comultiplication needs cap >= 2"):
        culf_pushforward(F)


def test_culf_pushforward_refuses_a_valid_map_that_is_not_culf(d6):
    """d6 sent to the point is a valid map whose squares on degeneracies
    and inner faces are not pullbacks: the culf lines, no pushforward."""
    from decomp.presheaf import SSetMap, validate_map

    F = SSetMap(d6, point_sset(d6.cap), {k: dict.fromkeys(d6.levels[k], "pt")
                                         for k in range(d6.cap + 1)})
    assert validate_map(F).ok
    with pytest.raises(NotCertified) as info:
        culf_pushforward(F)
    head, *lines = str(info.value).split("\n")
    assert head == "map is not cartesian on generics:"
    assert lines == check_map_class(F, "culf").lines()
    assert lines[0] == f"FAIL check_map_class[culf] degree=0 note=s0:missing-fiber-pair:1{SEP}2,pt"


@pytest.mark.parametrize("how, line", [
    ("delete", "FAIL validate_map witness=1≤1≤1 note=F[1]-not-total"),
    ("outside", "FAIL validate_map witness=1≤1≤1,zz note=F[1]-target-outside-level"),
], ids=["delete", "outside"])
def test_culf_pushforward_refuses_a_map_that_is_not_valid(d6, how, line):
    """A level-1 component entry of the counit deleted or sent outside the
    codomain: no map to push forward, refused when it is made with the
    validation line `culf_pushforward` once raised, not a KeyError."""
    from decomp.presheaf import ShapeError

    _, counit = dec_bot(d6)
    table = dict(counit.components[1])
    if how == "delete":
        del table[f"1{SEP}1{SEP}1"]
    else:
        table[f"1{SEP}1{SEP}1"] = "zz"
    with pytest.raises(ShapeError) as got:
        replace(counit, components={**counit.components, 1: table})
    assert got.value.report.lines() == [line]


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


def test_homomorphism_names_an_arrow_whose_counit_is_not_preserved(poset_nerves):
    """A target table whose counit differs at one arrow, the comultiplication
    the same: the identity arrow map fails there, on the counit alone."""
    X = poset_nerves["d6"]
    table = comult(X)
    a = X.levels[1][0]
    target = replace(table, counit={**table.counit, a: 1 - table.counit[a]})
    rep = Report("culf_pushforward")
    _homomorphism(rep, X, {b: b for b in X.levels[1]}, target, "comultiplication-not-preserved")
    assert rep.lines() == [f"FAIL culf_pushforward degree=1 witness={a} note=counit-not-preserved"]
