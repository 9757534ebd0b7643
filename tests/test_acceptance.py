"""Acceptance criteria, one test per criterion, each printing a verdict
line and enforcing its stated runtime budget.  Expected values come from
the independent oracles in oracles.py or are classically known."""

import time
from collections import Counter

import pytest

from decomp.axioms import (
    check_decomposition,
    check_flanked,
    check_map_class,
    check_segal,
)
from decomp.incidence import (
    classify,
    comult,
    counit_vec,
    convolve,
    mobius,
    universal_mobius,
    verify_inversion,
    zeta,
)
from decomp.ingest import nerve_poset
from decomp.interval import canonicalize, factorisation_interval
from decomp.presheaf import dec_bot, dec_top, i_star, nondegenerate, u_star
from decomp.registry import Registry, build_fragment, fragment_square_report
from conftest import subposet
from oracles import convolution_inverse, counit_eps, isomorphic, rota_mobius, unit_eta

SEP = "≤"


def _verdict(name: str, ok: bool, started: float, budget: float | None):
    elapsed = time.perf_counter() - started
    print(f"{'PASS' if ok else 'FAIL'} {name} elapsed={elapsed:.2f}s")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded {budget}s"


def test_criterion_1_poset_mobius_inversion(posets, poset_nerves):
    started = time.perf_counter()
    ok = True
    for name in ("d12", "d30", "d60", "b2", "b3"):
        spec = posets[name]
        X = poset_nerves[name]
        mu = mobius(X)
        oracle = rota_mobius(spec)
        for x in spec.elements:
            for y in spec.elements:
                if spec.leq(x, y):
                    ok = ok and mu[SEP.join([x, y])] == oracle(x, y)
        table = comult(X, check=False)
        eps = counit_vec(table)
        z = zeta(table)
        ok = ok and convolve(table, z, mu) == eps
        ok = ok and convolve(table, mu, z) == eps
    ok = ok and mobius(poset_nerves["d30"])[SEP.join(["1", "30"])] == -1
    _verdict("acceptance-1-poset-mobius", ok, started, 5.0)


def test_criterion_2_monoid_mobius(trunc_add):
    started = time.perf_counter()
    mu = mobius(trunc_add)
    ok = mu["0"] == 1 and mu["1"] == -1
    ok = ok and all(mu[str(n)] == 0 for n in range(2, 7))
    inverse = convolution_inverse(comult(trunc_add, check=False))
    ok = ok and all(mu[a] == inverse[a] for a in trunc_add.levels[1])
    _verdict("acceptance-2-monoid-mobius", ok, started, 1.0)


def test_criterion_3_decomposition_equivalence(corpus):
    started = time.perf_counter()
    objects = dict(corpus)
    objects["dec_bot_d12"] = dec_bot(corpus["d12"])[0]
    objects["dec_top_d6"] = dec_top(corpus["d6"])[0]
    assert len(objects) >= 10
    expected_fail = {"chipped", "invalid"}
    ok = True
    for name, X in objects.items():
        direct = check_decomposition(X, "direct")
        decal = check_decomposition(X, "decalage")
        agree = direct.status == decal.status
        right = (direct.status == "FAIL") == (name in expected_fail)
        ok = ok and agree and right
    _verdict("acceptance-3-axiom-equivalence", ok, started, 30.0)


def test_criterion_4_interval_correctness(posets, poset_nerves):
    started = time.perf_counter()
    ok = True
    for name, X in poset_nerves.items():
        spec = posets[name]
        for a in X.levels[1]:
            x, y = a.split(SEP)
            iv, embed = factorisation_interval(X, a)
            model = nerve_poset(subposet(spec, x, y), X.cap - 2)
            ok = ok and isomorphic(i_star(iv.data), model) is not None
            ok = ok and check_map_class(embed, "culf").ok
    _verdict("acceptance-4-interval-correctness", ok, started, 30.0)


def test_criterion_5_interval_invariance(mobius_corpus):
    started = time.perf_counter()
    ok = True
    for X in mobius_corpus.values():
        for dec in (dec_bot, dec_top):
            D, counit = dec(X)
            if D.cap < 3:
                continue
            m1 = counit.components[1]
            for b in D.levels[1]:
                upstairs = canonicalize(factorisation_interval(D, b)[0])
                downstairs = canonicalize(factorisation_interval(X, m1[b])[0])
                ok = ok and upstairs.digest == downstairs.digest
    _verdict("acceptance-5-culf-invariance", ok, started, None)


@pytest.fixture(scope="module")
def closed_registry(poset_nerves):
    reg = Registry()
    X12 = poset_nerves["d12"]
    XB3 = poset_nerves["b3"]
    reg.insert(factorisation_interval(X12, SEP.join(["1", "12"]))[0], name="d12")
    reg.insert(factorisation_interval(XB3, SEP.join(["o", "abc"]))[0], name="b3")
    return reg.close()


def test_criterion_6_classifying_map(closed_registry, poset_nerves):
    started = time.perf_counter()
    ok = True
    mu_r, inversion = universal_mobius(closed_registry)
    ok = ok and inversion.ok
    for name in ("d12", "b3"):
        X = poset_nerves[name]
        mapping, rep = classify(X, closed_registry)
        ok = ok and rep.ok
        mu = mobius(X)
        for a in X.levels[1]:
            ok = ok and mu[a] == mu_r[mapping[a]]
    _verdict("acceptance-6-classifying-map", ok, started, None)


def test_criterion_7_registry_square(closed_registry):
    started = time.perf_counter()
    frag = build_fragment(closed_registry, top=3)
    rep = fragment_square_report(frag)
    ok = rep.ok
    # exact fiber counts over the named entries
    counts = rep.data["counts"]
    d12 = closed_registry.names["d12"]
    triv = next(d for d, c in counts.items() if c[0] == 1)
    ok = ok and counts[triv] == {0: 1, 1: 1, 2: 1, 3: 1}
    # 2- and 3-subdivisions of the full divisor interval
    ok = ok and counts[d12][1] == 1
    ok = ok and counts[d12][2] == len(
        [d for d in (1, 2, 3, 4, 6, 12)])  # midpoints
    ok = ok and counts[d12][3] == 18  # weakly increasing divisor pairs
    _verdict("acceptance-7-registry-square", ok, started, None)


def test_criterion_8_axiom_suite(corpus, mobius_corpus):
    started = time.perf_counter()
    ok = True
    for name, X in mobius_corpus.items():
        A = u_star(X)
        ok = ok and check_flanked(A).ok                     # u* lands flanked
        ok = ok and check_map_class(counit_eps(X), "culf").ok
        ok = ok and check_map_class(unit_eta(A), "culf").ok
        ok = ok and check_segal(i_star(A)).ok               # intervals are Segal
        table = comult(X, check=False)
        for a in table.basis:
            left: Counter = Counter()
            right: Counter = Counter()
            for (l, r), m in table.pairs[a].items():
                for (u, v), m2 in table.pairs[l].items():
                    left[(u, v, r)] += m * m2
                for (u, v), m2 in table.pairs[r].items():
                    right[(l, u, v)] += m * m2
            ok = ok and left == right
            lhs = Counter()
            for (l, r), m in table.pairs[a].items():
                if table.counit[l]:
                    lhs[r] += m
            ok = ok and lhs == Counter({a: 1})
        from math import comb

        nd = {k: len(nondegenerate(X, k)) for k in range(X.cap + 1)}
        for k in range(X.cap + 1):
            total = sum(comb(k, m) * nd[k - m] for m in range(k + 1))
            ok = ok and total == len(X.levels[k])
        ok = ok and verify_inversion(X).ok
    _verdict("acceptance-8-axiom-suite", ok, started, 120.0)
