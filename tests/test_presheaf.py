import gc
import re
import weakref
from dataclasses import FrozenInstanceError, replace
from math import comb

import pytest
from oracles import (
    counit_eps,
    ez_decompose,
    flanked_bonus_report,
    i_star_map,
    indexed_square,
    isomorphic,
    pullback_issue,
    u_star_map,
    unit_eta,
    xi_representable,
)

from decomp.axioms import check_flanked, check_map_class
from decomp.ingest import nerve_poset
from decomp.presheaf import (
    CapError,
    FinSSet,
    ShapeError,
    SSetMap,
    dec_bot,
    dec_top,
    fibres,
    i_star,
    long_edge_table,
    nondegenerate,
    pullback_failure,
    truncate,
    u_star,
    validate,
    validate_map,
    validate_sset,
    validate_xiset,
)
from conftest import chain_poset, divisor_poset, point_sset, point_xiset

SEP = "≤"


def test_presheaves_are_frozen_and_memoise_per_object():
    X = nerve_poset(divisor_poset(6), 4)
    for obj in (X, u_star(X)):
        with pytest.raises(FrozenInstanceError):
            obj.stable_from = None
        with pytest.raises(FrozenInstanceError):
            obj.faces = {}
        assert validate(obj) is validate(obj)
        assert validate(replace(obj)) is not validate(obj)
    A = u_star(X)
    assert i_star(A) is i_star(A)
    assert u_star(X) is A
    assert u_star(replace(X)) is not A


def test_memo_holds_no_reference_cycle():
    """An object is freed when its last reference goes, memo and all,
    without the cyclic garbage collector."""
    gc.disable()
    try:
        X = nerve_poset(divisor_poset(6), 4)
        long_edge_table(X, 3)
        validate(X)
        u_star(X)
        fibres(X, 2, True)
        ref = weakref.ref(X)
        del X
        assert ref() is None
    finally:
        gc.enable()


def test_validate_point():
    assert validate(point_sset(3)).ok
    assert validate(point_xiset(3)).ok


def test_validate_nerve():
    assert validate_sset(nerve_poset(chain_poset(2), 4)).ok


def test_validate_reports_planted_violation():
    X = nerve_poset(chain_poset(1), 3)
    broken = dict(X.faces[(2, 0)])
    key = SEP.join(["0", "0", "1"])
    broken[key] = SEP.join(["0", "0"])
    X = replace(X, faces={**X.faces, (2, 0): broken})
    rep = validate_sset(X)
    assert not rep.ok
    assert any(key in line for line in rep.lines())


def test_a_table_from_a_level_that_repeats_an_id_is_refused():
    """An id table whose source level repeats an id is not made into
    positions even when an extra source makes it as long as that level, so
    the constructor names the extra source as well as the repeat."""
    X = nerve_poset(chain_poset(1), 2)
    faces = {**X.faces, (1, 0): {**X.faces[(1, 0)], "extra": "0"}}
    with pytest.raises(ShapeError) as got:
        FinSSet(2, {**X.levels, 1: X.levels[1] + [SEP.join("01")]}, faces, dict(X.degens))
    assert got.value.kind is FinSSet
    assert got.value.report.lines() == [
        "FAIL validate degree=1 note=duplicate-identifiers",
        "FAIL validate degree=1 witness=extra note=d0-extra-source"]


def test_dec_bot_level_zero_counts():
    X = nerve_poset(chain_poset(2), 4)
    D, counit = dec_bot(X)
    assert len(D.levels[0]) == len(X.levels[1]) == 6
    assert validate_sset(D).ok
    assert validate_map(counit).ok
    assert check_map_class(counit, "culf").ok


def test_dec_point_is_point():
    D, _ = dec_bot(point_sset(4))
    assert D == truncate(point_sset(4), 3)


def test_dec_orders_commute():
    X = nerve_poset(divisor_poset(6), 5)
    ab, _ = dec_bot(X)
    ab, _ = dec_top(ab)
    ba, _ = dec_top(X)
    ba, _ = dec_bot(ba)
    assert ab == ba


def test_u_star_counts_and_validity():
    X = nerve_poset(chain_poset(1), 4)
    A = u_star(X)
    assert len(A.levels[-1]) == 3
    assert validate_xiset(A).ok


def test_u_star_point():
    A = u_star(point_sset(4))
    assert all(len(v) == 1 for v in A.levels.values())


def test_u_star_flanked_on_decomposition_corpus(poset_nerves):
    for X in poset_nerves.values():
        assert check_flanked(u_star(X)).ok
        assert flanked_bonus_report(u_star(X)).ok


def test_i_star_representable_is_simplex():
    R = xi_representable(1, 4)
    model = nerve_poset(chain_poset(3), 4)
    assert isomorphic(i_star(R), model) is not None


def test_i_star_point():
    assert i_star(point_xiset(3)) == point_sset(3)


def test_i_star_u_star_is_double_dec():
    X = nerve_poset(divisor_poset(6), 5)
    top, _ = dec_top(X)
    both, _ = dec_bot(top)
    assert i_star(u_star(X)) == both


def test_unit_identity_on_point():
    eta = unit_eta(point_xiset(4))
    assert all(t == {"pt": "pt"} for t in eta.components.values())


def test_unit_refuses_a_cap_below_2():
    """The unit's codomain u*i*A needs i*A at cap 2 or more, so a cap-1
    interval-site presheaf is refused by the unit's own guard."""
    A = truncate(u_star(nerve_poset(chain_poset(2), 4)), 1)
    with pytest.raises(CapError, match=r"^unit needs cap >= 2$"):
        unit_eta(A)


def test_unit_counit_classes(poset_nerves):
    X = poset_nerves["d6"]
    eps = counit_eps(X)
    assert validate_map(eps).ok
    assert check_map_class(eps, "culf").ok
    A = u_star(X)
    eta = unit_eta(A)
    assert validate_map(eta).ok
    assert check_map_class(eta, "culf").ok


def test_triangle_identities(poset_nerves):
    X = poset_nerves["d6"]
    # (u* eps) . (eta u*): identity on the double-shifted levels
    A = u_star(X)
    eta = unit_eta(A)
    for k in range(-1, A.cap - 1):
        step = eta.components[k]
        eps_table = {
            x: X.faces[(k + 3, k + 3)][X.faces[(k + 4, 0)][x]]
            for x in step.values()
        }
        for x in A.levels[k]:
            assert eps_table[step[x]] == x
    # (eps i*) . (i* eta): identity on the underlying levels
    under = i_star(A)
    eps2 = counit_eps(under)
    for k in range(0, under.cap - 1):
        for x in under.levels[k]:
            y = A.degens[(k + 1, -1)][A.degens[(k, k + 1)][x]]
            assert eps2.components[k][y] == x


def test_nondegenerate_counts():
    X = nerve_poset(divisor_poset(12), 6)
    assert nondegenerate(X, 0) == X.levels[0]
    assert len(nondegenerate(X, 1)) == 12  # strict divisor pairs
    table = long_edge_table(X, 3)
    top = SEP.join(["1", "12"])
    hits = [x for x in nondegenerate(X, 3) if table[x] == top]
    assert len(hits) == 3


def test_ez_decompose_examples():
    X = nerve_poset(chain_poset(1), 4)
    nd = SEP.join(["0", "1"])
    assert ez_decompose(X, 1, nd) == ([], nd)
    deg = SEP.join(["0", "0"])
    assert ez_decompose(X, 1, deg) == ([0], "0")
    double = SEP.join(["0", "0", "0"])
    assert ez_decompose(X, 2, double) == ([1, 0], "0")


def test_ez_decompose_refuses_a_degree_outside_the_cap_or_an_id_outside_the_level():
    """An edge is not a 2-simplex, nor is a made-up id; a degree above the
    cap or below 0 is refused as `nondegenerate` refuses it."""
    X = nerve_poset(chain_poset(1), 4)
    for x in (SEP.join(["0", "1"]), "nope"):
        with pytest.raises(ValueError, match=f"^{x!r} is not a simplex of degree 2$"):
            ez_decompose(X, 2, x)
    for k in (9, 5, -1):
        with pytest.raises(CapError, match=f"^degree {k} outside cap 4$"):
            ez_decompose(X, k, SEP.join(["0", "1"]))


@pytest.mark.parametrize("make, message", [
    (lambda: dec_bot(point_sset(0)), "decalage needs cap >= 1"),
    (lambda: dec_top(point_sset(0)), "decalage needs cap >= 1"),
    (lambda: u_star(point_sset(1)), "u* needs cap >= 2"),
    (lambda: truncate(point_sset(2), 3), "cannot truncate cap 2 to 3"),
    (lambda: truncate(point_xiset(2), -1), "cannot truncate cap 2 to -1"),
    (lambda: counit_eps(point_sset(1)), "counit needs cap >= 2"),
    (lambda: nondegenerate(point_sset(2), 3), "degree 3 outside cap 2"),
    (lambda: nondegenerate(point_sset(2), -1), "degree -1 outside cap 2"),
], ids=["dec_bot", "dec_top", "u_star", "truncate-up", "truncate-below-0", "counit",
        "nondegenerate-above", "nondegenerate-below"])
def test_cap_guards_refuse_by_their_whole_message(make, message):
    """Each construction names the cap it needs, and `nondegenerate` the
    degree it cannot read, as the whole message."""
    with pytest.raises(CapError, match=f"^{re.escape(message)}$"):
        make()


def test_ez_decompose_refuses_a_degeneracy_that_merges_two_simplices():
    """Two vertices sent by s_0 to one edge: the walk down from that edge
    has two preimages to choose from, and is refused, naming the edge."""
    X = FinSSet(1, {0: ["a", "b"], 1: ["e"]},
                {(1, 0): {"e": "a"}, (1, 1): {"e": "a"}}, {(0, 0): {"a": "e", "b": "e"}})
    assert not validate(X).ok
    with pytest.raises(ValueError, match="^degeneracy s_0 not injective at e$"):
        ez_decompose(X, 1, "e")


def test_ez_words_strictly_decreasing_and_reconstruct():
    X = nerve_poset(divisor_poset(6), 5)
    for k in range(X.cap + 1):
        for x in X.levels[k]:
            word, root = ez_decompose(X, k, x)
            assert all(a > b for a, b in zip(word, word[1:]))
            deg = k - len(word)
            assert root in set(nondegenerate(X, deg))
            rebuilt = root
            for pos, j in enumerate(reversed(word)):
                rebuilt = X.degens[(deg + pos, j)][rebuilt]
            assert rebuilt == x


def test_ez_bijection_counts(poset_nerves):
    for X in poset_nerves.values():
        nd = {k: len(nondegenerate(X, k)) for k in range(X.cap + 1)}
        for k in range(X.cap + 1):
            total = sum(comb(k, m) * nd[k - m] for m in range(k + 1))
            assert total == len(X.levels[k])


def square_issue(*square):
    """pullback_failure on the indexed square of id tables, checked against
    the reason the reference enumeration names on the id tables."""
    got = pullback_failure(*indexed_square(*square))
    assert got == pullback_issue(*square)
    return got


def test_pullback_identity_square():
    ids = ["a", "b"]
    table = {x: x for x in ids}
    assert square_issue(ids, ids, ids, table, table, table, table) is None


def test_pullback_of_constructed_fiber_product():
    A = ["a1", "a2"]
    B = ["b1", "b2", "b3"]
    f = {"a1": "c1", "a2": "c2"}
    g = {"b1": "c1", "b2": "c1", "b3": "c2"}
    P = [f"{a}|{b}" for a in A for b in B if f[a] == g[b]]
    p = {x: x.split("|")[0] for x in P}
    q = {x: x.split("|")[1] for x in P}
    assert square_issue(P, A, B, p, q, f, g) is None
    # plant a duplicate: collapsing two fiber points breaks injectivity
    P2 = P + ["extra"]
    p2 = dict(p, extra="a1")
    q2 = dict(q, extra="b1")
    assert square_issue(P2, A, B, p2, q2, f, g) == "comparison-not-injective:a1|b1,extra"


def test_pullback_rejects_noncommuting():
    assert (square_issue(["x"], ["a"], ["b"], {"x": "a"}, {"x": "b"},
                         {"a": "c1"}, {"b": "c2"})
            == "square-does-not-commute:x")


def test_pullback_kernel_rejection_never_passes(monkeypatch):
    """A square the counting kernel rejects is never a pullback: when the
    enumeration names no fault in it, the fault is that the two disagree."""
    import decomp.presheaf

    ids = ["a", "b"]
    table = {x: x for x in ids}
    square = indexed_square(ids, ids, ids, table, table, table, table)
    assert pullback_failure(*square) is None
    monkeypatch.setattr(decomp.presheaf, "_counted_pullback",
                        lambda p, q, f, g, over, injective, commutes: False)
    assert pullback_failure(*square) == "kernel-and-enumeration-disagree"


def _one_face_retargeted(X):
    """X with d0 of its first 2-simplex sent to another edge: total, but
    no longer a simplicial set."""
    x, d0 = X.levels[2][0], dict(X.faces[(2, 0)])
    d0[x] = next(y for y in X.levels[1] if y != d0[x])
    return replace(X, faces={**X.faces, (2, 0): d0})


def test_validate_map_reports_an_invalid_end():
    """An end with a shape fault is refused when it is made; an end that
    breaks a relation gets its own validation report back, the domain's
    first, where the naturality check would read a wrong square.  A map
    whose components have a shape fault too is refused with that end's
    report, as `validate_map` would give it."""
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 5))
    levels = dict(counit.cod.levels)
    levels[0] = levels[0] + levels[0][:1]
    with pytest.raises(ShapeError) as got:
        replace(counit.cod, levels=levels)
    assert got.value.report.lines() == ["FAIL validate degree=0 note=duplicate-identifiers"]
    faces = {key: t for key, t in counit.dom.faces.items() if key != (1, 0)}
    with pytest.raises(ShapeError) as got:
        replace(counit.dom, faces=faces)
    assert got.value.report.lines() == ["FAIL validate degree=1 note=missing-face-d0"]
    bad_dom, bad_cod = map(_one_face_retargeted, (counit.dom, counit.cod))
    want_dom, want_cod = validate(bad_dom).lines(), validate(bad_cod).lines()
    assert not validate(bad_dom).ok and not validate(bad_cod).ok
    assert validate_map(replace(counit, cod=bad_cod)).lines() == want_cod
    assert validate_map(replace(counit, dom=bad_dom)).lines() == want_dom
    assert validate_map(replace(counit, dom=bad_dom, cod=bad_cod)).lines() == want_dom
    comps = {k: dict(t) for k, t in counit.components.items()}
    del comps[1][counit.dom.levels[1][0]]
    for dom, cod, want in ((bad_dom, bad_cod, want_dom), (counit.dom, bad_cod, want_cod)):
        with pytest.raises(ShapeError) as got:
            SSetMap(dom, cod, comps)
        assert got.value.kind is SSetMap and got.value.report.lines() == want


def test_validate_map_names_a_missing_component():
    """A degree under the domain's cap with no component is refused as
    missing-component at that degree, whether a component above it is there
    or not, though the others are handed over as positions."""
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 5))
    comps = dict(counit.components.index)
    for k in (0, 2, counit.dom.cap):
        with pytest.raises(ShapeError) as got:
            SSetMap(counit.dom, counit.cod, {j: t for j, t in comps.items() if j != k})
        assert got.value.report.lines() == [f"FAIL validate_map degree={k} note=missing-component"]


def test_u_star_of_culf_is_cartesian(poset_nerves):
    X = poset_nerves["d6"]
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 5))
    # restriction: u* needs two spare degrees on the domain side
    F = u_star_map(counit)
    assert validate_map(F).ok
    assert check_map_class(F, "culf").ok


def test_i_star_of_cartesian_is_culf(poset_nerves):
    A = u_star(poset_nerves["d6"])
    eta = unit_eta(A)
    F = i_star_map(eta)
    assert validate_map(F).ok
    assert check_map_class(F, "culf").ok


def test_truncate_preserves_validity():
    X = nerve_poset(divisor_poset(6), 5)
    assert validate_sset(truncate(X, 3)).ok
    assert validate_xiset(truncate(u_star(X), 2)).ok
