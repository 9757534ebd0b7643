from dataclasses import replace

import pytest

from decomp.axioms import (
    check_complete,
    check_decomposition,
    check_flanked,
    check_map_class,
    check_mobius,
    check_segal,
    check_tight,
)
from decomp.ingest import nerve_poset
from decomp.presheaf import (
    FinSSet,
    ShapeError,
    _counted_pullback,
    actions,
    dec_bot,
    u_star,
    validate,
)
from conftest import (
    chain_poset,
    chipped_object,
    divisor_poset,
    point_sset,
    spine_object,
    twin_object,
)
from oracles import check_wide, flanked_bonus_report, transpose_arrow, unit_eta, xi_representable

SEP = "≤"


def test_segal_on_nerves(poset_nerves):
    for X in poset_nerves.values():
        assert check_segal(X).ok


def test_direct_exactness_and_segal_record_their_work():
    """Squares per corner degree and the table compositions each check made
    itself in the object's one action memo.  Segal decides one square of
    stored outer faces per degree from 2 and composes no table, so the memo
    holds direct exactness's compositions alone, before Segal and after."""
    X = nerve_poset(divisor_poset(12), 6)
    direct = check_decomposition(X, "direct")
    assert direct.data == {"squares": {1: 2, 2: 4, 3: 8, 4: 12, 5: 16, 6: 8},
                           "compositions": 48}
    fresh = nerve_poset(divisor_poset(12), 6)
    assert check_segal(fresh).data == {"squares": {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}}
    assert actions(fresh).compositions == 0
    assert check_segal(X).data == {"squares": {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}}
    assert actions(X).compositions == 48
    assert check_decomposition(X, "direct").data["compositions"] == 48


def test_every_square_is_decided_by_pullback_failure(monkeypatch):
    """Each check sends every square it decides, passing ones included,
    through the module-level `pullback_failure`, so a wrapper bound to that
    name sees them all.  Segal decides one square per degree from 2.  `both`
    decides each square of a decomposition space once, as its counits' culf
    squares and its decalages' Segal squares are direct ones; on an input
    that fails direct exactness it decides both decalages' Segal squares and
    both counits' squares as well."""
    import decomp.axioms

    calls = []
    decide = decomp.axioms.pullback_failure

    def counted(*square):
        calls.append(square)
        return decide(*square)

    monkeypatch.setattr(decomp.axioms, "pullback_failure", counted)
    for X in (nerve_poset(divisor_poset(12), 6), chipped_object()):
        calls.clear()
        rep = check_decomposition(X, "direct")
        assert len(calls) == sum(rep.data["squares"].values())
    assert not rep.ok
    for X in (nerve_poset(divisor_poset(12), 6), chipped_object()):
        calls.clear()
        rep = check_segal(X)
        assert len(calls) == sum(rep.data["squares"].values()) == X.cap - 1
    X = nerve_poset(divisor_poset(12), 6)
    calls.clear()
    assert check_decomposition(X, "both").ok
    assert len(calls) == sum(check_decomposition(X, "direct").data["squares"].values()) == 50
    X = chipped_object()
    calls.clear()
    assert not check_decomposition(X, "both").ok
    cap = X.cap - 1
    culf = sum(k + 1 for k in range(cap)) + sum(k - 1 for k in range(2, cap + 1))
    segal = 2 * (cap - 1)
    assert len(calls) == (sum(check_decomposition(X, "direct").data["squares"].values())
                          + 2 * culf + segal)
    _, counit = dec_bot(nerve_poset(divisor_poset(12), 5))
    calls.clear()
    assert check_map_class(counit, "culf").ok
    cap = counit.dom.cap
    degeneracies = sum(k + 1 for k in range(cap))
    inner_faces = sum(k - 1 for k in range(2, cap + 1))
    assert len(calls) == degeneracies + inner_faces
    A = u_star(nerve_poset(divisor_poset(12), 6))
    calls.clear()
    assert check_flanked(A).ok
    assert len(calls) == 2 * A.cap


def test_segal_point():
    assert check_segal(point_sset(4)).ok


def test_segal_fails_on_spine_with_witness():
    rep = check_segal(spine_object())
    assert not rep.ok
    lines = "\n".join(rep.lines())
    assert "degree=2" in lines
    assert SEP.join(["0", "1"]) in lines and SEP.join(["1", "2"]) in lines


def test_segal_fails_on_a_second_filler_with_both_witnesses():
    """A second filler of (0≤1, 1≤2) with the same long edge is a valid
    object with two 2-simplices over one pair of outer faces."""
    X = nerve_poset(chain_poset(2), 2)
    faces = {key: dict(table) for key, table in X.faces.items()}
    for i, edge in enumerate(["1≤2", "0≤2", "0≤1"]):
        faces[(2, i)]["twin"] = edge
    twin = FinSSet(2, {**X.levels, 2: X.levels[2] + ["twin"]}, faces, X.degens)
    assert validate(twin).ok
    assert check_segal(twin).lines() == [
        "FAIL check_segal degree=2 note=comparison-not-injective:0≤1≤2,twin"]


def test_segal_square_that_only_the_pair_test_rejects():
    """The 3-chain's nerve at cap 2 with 1≤2≤3 traded for a twin of
    0≤1≤2: as many 2-simplices as composable pairs and a square that
    commutes, so only the distinct-pair test finds the twin."""
    Y = twin_object(2)
    assert validate(Y).ok
    assert check_segal(Y).lines() == [
        "FAIL check_segal degree=2 note=comparison-not-injective:0≤1≤2,twin"]
    d = Y.faces.index
    assert _counted_pullback(d[2, 2], d[2, 0], d[1, 0], d[1, 1], None, True)
    assert not _counted_pullback(d[2, 2], d[2, 0], d[1, 0], d[1, 1])


def test_segal_names_the_fault_of_an_invalid_object():
    """The one-element poset's edge with d0 sent outside level 0 is no
    object: the constructor refuses it with the validation line that
    `check_segal` once reported for it, so no check meets it."""
    X = nerve_poset(chain_poset(0), 2)
    (edge,) = X.levels[1]
    with pytest.raises(ShapeError) as got:
        replace(X, faces={**X.faces, (1, 0): {edge: "nowhere"}})
    assert got.value.report.lines() == [
        "FAIL validate degree=1 witness=0≤0,nowhere note=d0-target-outside-level"]


def test_segal_names_the_fault_of_a_spine_that_is_no_string():
    """A 2-simplex zz whose outer faces are both the edge 0≤1, handed over
    with every table as positions, makes an object of the right shape; its
    outer faces meet at no vertex, so the check names zz as the element at
    which its square does not commute."""
    X = nerve_poset(chain_poset(2), 2)
    at = {k: {x: n for n, x in enumerate(ids)} for k, ids in X.levels.items()}
    faces = {key: list(t) for key, t in X.faces.index.items()}
    for i, edge in enumerate(["0≤1", "0≤2", "0≤1"]):
        faces[(2, 2 - i)].append(at[1][edge])
    Y = FinSSet(2, {**X.levels, 2: X.levels[2] + ["zz"]}, faces, dict(X.degens.index))
    assert check_segal(Y).lines() == [
        "FAIL check_segal degree=2 note=square-does-not-commute:zz"]


def test_decomposition_on_nerves(poset_nerves):
    X = poset_nerves["d12"]
    assert check_decomposition(X, "direct").ok
    assert check_decomposition(X, "decalage").ok
    assert check_decomposition(X, "both").ok


def test_decomposition_point():
    assert check_decomposition(point_sset(4)).ok


def test_decomposition_methods_agree_on_planted_objects():
    spine = spine_object()
    d = check_decomposition(spine, "direct")
    dec = check_decomposition(spine, "decalage")
    assert d.status == dec.status
    # the spine composes no pair of its nondegenerate edges, yet every
    # exactness square is a pullback: it decomposes without being Segal
    assert d.ok
    chipped = chipped_object()
    d = check_decomposition(chipped, "direct")
    dec = check_decomposition(chipped, "decalage")
    assert d.status == dec.status == "FAIL"
    both = check_decomposition(chipped, "both")
    assert not both.ok


@pytest.mark.parametrize("method", ["direct", "decalage", "both"])
def test_decomposition_refuses_a_degeneracy_its_face_does_not_split(method):
    """The direct check takes a degeneracy side of a square as injective,
    as d0 s0 = id makes it; on an object where s0 sends two vertices to one
    edge that identity fails, and the check gives validate's lines, never
    a verdict of its own."""
    X = nerve_poset(chain_poset(1), 4)
    X = replace(X, degens={**X.degens, (0, 0): {**X.degens[(0, 0)], "1": "0≤0"}})
    base = validate(X)
    assert not base.ok and "note=d0s0" in "\n".join(base.lines())
    rep = check_decomposition(X, method)
    assert rep.status == "FAIL"
    assert rep.lines() == [f"FAIL check_decomposition[{method}] {line[len('FAIL validate '):]}"
                           " via=validate" for line in base.lines()]


def test_non_segal_decomposition_example(trunc_add):
    assert not check_segal(trunc_add).ok
    assert check_decomposition(trunc_add, "both").ok


def test_complete_on_nerves(poset_nerves):
    for X in poset_nerves.values():
        assert check_complete(X)


def test_complete_planted_failure():
    X = FinSSet(
        cap=1,
        levels={0: ["a", "b"], 1: ["e"]},
        faces={(1, 0): {"e": "a"}, (1, 1): {"e": "a"}},
        degens={(0, 0): {"a": "e", "b": "e"}},
    )
    assert not check_complete(X)


def test_complete_implies_all_degeneracies_injective(poset_nerves):
    for X in poset_nerves.values():
        if not check_complete(X):
            continue
        for (k, j), table in X.degens.items():
            assert len(set(table.values())) == len(table), (k, j)


def test_map_class_identity():
    X = nerve_poset(divisor_poset(6), 5)
    from decomp.presheaf import SSetMap

    F = SSetMap(X, X, {k: {x: x for x in X.levels[k]}
                       for k in range(X.cap + 1)})
    assert check_map_class(F, "culf").ok


def test_map_class_counit(poset_nerves):
    _, counit = dec_bot(poset_nerves["chain2"])
    assert check_map_class(counit, "culf").ok
    assert check_map_class(counit, "conservative").ok
    assert check_map_class(counit, "ulf").ok


def test_map_class_names_a_component_that_is_not_total(poset_nerves):
    """The counit's components are the codomain's own face tables, so the
    entry is deleted from a copy; the map is refused when it is made, with
    the line `check_map_class` once reported for it."""
    from decomp.presheaf import SSetMap

    _, counit = dec_bot(poset_nerves["d6"])
    comps = {k: dict(t) for k, t in counit.components.items()}
    del comps[1]["1≤1≤1"]
    with pytest.raises(ShapeError) as got:
        SSetMap(counit.dom, counit.cod, comps)
    assert got.value.report.lines() == ["FAIL validate_map witness=1≤1≤1 note=F[1]-not-total"]
    assert "1≤1≤1" in counit.components[1]


def test_map_class_reports_components_above_the_codomain_cap():
    """The identity components of the 1-chain nerve at cap 5 into the same
    nerve at cap 4 are refused when the map is made, with the line
    `validate_map` and `check_map_class` once reported, as ids or as
    positions."""
    from decomp.presheaf import SSetMap

    dom, cod = nerve_poset(chain_poset(1), 5), nerve_poset(chain_poset(1), 4)
    for comps in ({k: {x: x for x in dom.levels[k]} for k in range(dom.cap + 1)},
                  {k: list(range(len(dom.levels[k]))) for k in range(dom.cap + 1)}):
        with pytest.raises(ShapeError) as got:
            SSetMap(dom, cod, comps)
        assert got.value.report.lines() == ["FAIL validate_map note=dom-cap-exceeds-cod-cap"]


def test_map_class_subposet_inclusion():
    """The edge 0<=1 includes the 1-chain into the 2-chain as a full
    subcategory closed under factorisations, hence cartesian on generics."""
    from decomp.presheaf import SSetMap

    small = nerve_poset(chain_poset(1), 4)
    big = nerve_poset(chain_poset(2), 4)
    comps = {k: {x: x for x in small.levels[k]} for k in range(small.cap + 1)}
    F = SSetMap(small, big, comps)
    assert check_map_class(F, "ulf").ok
    assert check_map_class(F, "culf").ok


def test_flanked_examples(poset_nerves):
    assert check_flanked(u_star(poset_nerves["d6"])).ok
    assert check_flanked(xi_representable(1, 4)).ok
    assert flanked_bonus_report(xi_representable(1, 4)).ok


def test_flanked_planted_failure(poset_nerves):
    """An extra outer degeneracy into degree 0 retargeted at 1≤1: only its
    square against the opposite outer face fails, and the line names it."""
    A = u_star(poset_nerves["d6"])
    for key, square in (((-1, -1), "sbot-vs-dtop"), ((-1, 0), "stop-vs-dbot")):
        table = dict(A.degens[key])
        table[f"1{SEP}1"] = next(v for v in A.levels[0] if v != table[f"1{SEP}1"])
        rep = check_flanked(replace(A, degens={**A.degens, key: table}))
        assert rep.lines() == [
            f"FAIL check_flanked degree=0 note={square}:square-does-not-commute:1{SEP}1{SEP}1"]


def test_wide_and_cartesian(poset_nerves):
    X = poset_nerves["d12"]
    A = u_star(X)
    eta = unit_eta(A)
    assert check_map_class(eta, "culf").ok
    g = transpose_arrow(X, SEP.join(["1", "12"]))
    assert not check_wide(g)  # codomain degree -1 has many arrows
    from decomp.presheaf import XiSetMap

    ident = XiSetMap(A, A, {k: {x: x for x in A.levels[k]}
                            for k in range(-1, A.cap + 1)})
    assert check_wide(ident) and check_map_class(ident, "culf").ok


def test_tight_requires_certificate(poset_nerves):
    X = nerve_poset(divisor_poset(12), 6)
    rep = check_tight(X)
    assert rep.ok
    assert rep.data["bounds"][SEP.join(["1", "12"])] == 3
    X = replace(X, stable_from=None)
    assert check_tight(X).status == "INCONCLUSIVE"


def test_tight_bounds_simple_cases():
    pt = point_sset(4)
    rep = check_tight(pt)
    assert rep.ok and set(rep.data["bounds"].values()) == {0}
    X = nerve_poset(chain_poset(1), 4)
    rep = check_tight(X)
    assert rep.data["bounds"][SEP.join(["0", "1"])] == 1


def test_tight_detects_false_claim():
    # false: there are nondegenerate 2-simplices
    X = replace(nerve_poset(divisor_poset(6), 5), stable_from=1)
    rep = check_tight(X)
    assert rep.status == "FAIL"


def test_mobius_verdicts(poset_nerves, trunc_add):
    for X in poset_nerves.values():
        assert check_mobius(X).ok
    assert check_mobius(trunc_add).ok
    assert check_mobius(point_sset(4)).ok
    loose = replace(nerve_poset(divisor_poset(6), 5), stable_from=None)
    assert check_mobius(loose).status == "INCONCLUSIVE"


def test_mobius_fails_on_incomplete():
    X = FinSSet(
        cap=1,
        levels={0: ["a", "b"], 1: ["e"]},
        faces={(1, 0): {"e": "a"}, (1, 1): {"e": "a"}},
        degens={(0, 0): {"a": "e", "b": "e"}},
    )
    assert check_mobius(X).status == "FAIL"


def test_unknown_method_and_map_class_are_refused_by_name(poset_nerves):
    """A method or map class that the checks do not know raises ValueError
    naming it, before any square is decided."""
    X = poset_nerves["d6"]
    with pytest.raises(ValueError) as err:
        check_decomposition(X, "sideways")
    assert str(err.value) == "unknown method 'sideways'"
    with pytest.raises(ValueError) as err:
        check_map_class(dec_bot(X)[1], "wide")
    assert str(err.value) == "unknown map class 'wide'"


def test_invalid_input_fails_both_methods():
    from conftest import invalid_object

    X = invalid_object()
    d = check_decomposition(X, "direct")
    dec = check_decomposition(X, "decalage")
    assert d.status == dec.status == "FAIL"
