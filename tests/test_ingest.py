from math import comb

import pytest

import oracles

from decomp.axioms import check_complete, check_decomposition, check_segal
from decomp.ingest import (
    CategorySpec,
    MonoidSpec,
    PosetSpec,
    SpecError,
    boolean_poset,
    chain_poset,
    divisor_poset,
    nerve,
    nerve_category,
    nerve_monoid,
    nerve_poset,
    truncated_addition,
)
from decomp.interval import factorisation_interval, interval_category, ssets_isomorphic
from decomp.presheaf import nondegenerate, point_sset, validate_sset


def test_poset_closure_and_interval():
    spec = divisor_poset(12)
    assert spec.leq("1", "12") and spec.leq("2", "4")
    assert not spec.leq("4", "6")
    sub = spec.interval("2", "12")
    assert sorted(sub.elements) == ["12", "2", "4", "6"]
    assert spec.longest_strict_chain() == 3


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
    assert ssets_isomorphic(X, point_sset(4)) is not None


def test_monoid_rejects_unit_factorisation():
    with pytest.raises(SpecError) as err:
        MonoidSpec.build(
            ["e", "g"], "e",
            {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
             ("g", "g"): "e"})
    assert "unit" in str(err.value)


def test_monoid_rejects_idempotent():
    with pytest.raises(SpecError) as err:
        MonoidSpec.build(
            ["0", "1"], "0",
            {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1",
             ("1", "1"): "1"})
    assert "factorisations" in str(err.value)


def test_truncated_addition_monoid():
    spec = truncated_addition(3)
    assert spec.chain_bound() == 3
    X = nerve_monoid(spec, 5)
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
    assert ssets_isomorphic(X, Y) is not None


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
    assert spec.chain_bound() is None
    with pytest.raises(SpecError):
        nerve_category(spec)
    X = nerve_category(spec, 4)
    assert X.stable_from is None
    assert validate_sset(X).ok


def _categories():
    """The interval categories of the top arrows of B3, d12 and a chain,
    with the categories built above: (spec, cap)."""
    for spec, arrow in ((boolean_poset(3), "o≤abc"), (divisor_poset(12), "1≤12"),
                        (chain_poset(3), "0≤3")):
        iv, _ = factorisation_interval(nerve(spec), arrow)
        yield interval_category(iv.data)[0], 5
    yield CategorySpec.build(["x", "y"], {"ix": ("x", "x"), "iy": ("y", "y"),
                                          "f": ("x", "y")}, {"x": "ix", "y": "iy"}, {}), 3
    yield CategorySpec.build(["x"], {"ix": ("x", "x"), "f": ("x", "x")},
                             {"x": "ix"}, {("f", "f"): "f"}), 4


def test_nerve_category_matches_reference():
    """Levels, tables, and the order of tables and of their keys."""
    for spec, cap in _categories():
        got, want = nerve_category(spec, cap), oracles.nerve_category(spec, cap)
        assert got == want
        for tables in ("faces", "degens"):
            g, w = getattr(got, tables), getattr(want, tables)
            assert list(g) == list(w)
            assert all(list(g[key]) == list(w[key]) for key in g)


def test_level_guard(monkeypatch):
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", "10")
    with pytest.raises(SpecError) as err:
        nerve_poset(divisor_poset(60), 4)
    assert "DECOMP_MAX_LEVEL_SIZE" in str(err.value)


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
    assert b3.longest_strict_chain() == 3
