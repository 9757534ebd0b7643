import re
from itertools import product

import pytest

from decomp.simplex import (
    DegreeMismatch,
    MonotoneMap,
    coface,
    codegeneracy,
    compose,
    free_generators,
    generator_word,
    generic_generators,
    identity,
    is_free,
    is_generic,
    pushout_generic_free,
)
from oracles import (
    XiMap,
    all_monotone,
    all_xi_maps,
    delta_to_xi_free,
    generic_free_factor,
    pushout_universal_property_holds,
    two_step_factorisations,
    xi_compose,
    xi_initial,
)


def test_compose_identity():
    assert compose(identity(2), identity(2)) == identity(2)


def test_compose_pointwise():
    d1 = coface(1, 1)
    s0 = codegeneracy(2, 0)
    assert compose(d1, s0) == MonotoneMap(1, 1, (0, 1))
    assert compose(coface(0, 0), coface(1, 0)) == MonotoneMap(0, 2, (2,))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(coface(1, 0), coface(1, 0))


def test_generic_free_predicates():
    assert is_generic(codegeneracy(1, 0)) and not is_free(codegeneracy(1, 0))
    d0 = coface(1, 0)
    assert not is_generic(d0) and is_free(d0)
    for n in range(4):
        assert is_generic(identity(n)) and is_free(identity(n))


def test_factorisation_examples():
    a = MonotoneMap(1, 3, (1, 3))
    g, f = generic_free_factor(a)
    assert g == MonotoneMap(1, 2, (0, 2))
    assert f == MonotoneMap(2, 3, (1, 2, 3))
    assert generic_free_factor(identity(2)) == (identity(2), identity(2))
    g, f = generic_free_factor(MonotoneMap(0, 2, (1,)))
    assert g == identity(0) and f == MonotoneMap(0, 2, (1,))


def test_factorisation_unique_exhaustively():
    for m, n in product(range(7), range(7)):
        for a in all_monotone(m, n):
            pairs = two_step_factorisations(a)
            assert pairs == [generic_free_factor(a)], a


def test_pushout_examples():
    f2, g2 = pushout_generic_free(codegeneracy(1, 0), coface(1, 0))
    assert f2 == coface(0, 0)
    assert g2 == codegeneracy(2, 1)
    # pushout along an identity is trivial
    for f in free_generators(2):
        f2, g2 = pushout_generic_free(identity(2), f)
        assert f2 == f and g2 == identity(f.tgt)
    f2, g2 = pushout_generic_free(coface(1, 1), MonotoneMap(1, 2, (0, 1)))
    assert f2 == MonotoneMap(2, 3, (0, 1, 2))
    assert g2 == coface(2, 1)


def test_pushout_against_universal_property():
    for m in range(4):
        for g in generic_generators(m):
            for f in free_generators(m):
                f2, g2 = pushout_generic_free(g, f)
                assert pushout_universal_property_holds(g, f, f2, g2)


def test_pushout_stability():
    for m in range(6):
        for g in generic_generators(m):
            for f in free_generators(m):
                f2, g2 = pushout_generic_free(g, f)
                assert is_free(f2) and is_generic(g2)
                assert compose(g, f2) == compose(f, g2)


def test_pushout_preconditions():
    with pytest.raises(ValueError):
        pushout_generic_free(coface(1, 0), coface(1, 0))
    with pytest.raises(ValueError):
        pushout_generic_free(codegeneracy(1, 0), codegeneracy(1, 0))


def test_generic_generators():
    assert generic_generators(0) == []
    assert generic_generators(1) == [coface(1, 1), codegeneracy(1, 0)]
    assert generic_generators(2) == [
        coface(2, 1), coface(2, 2), codegeneracy(2, 0), codegeneracy(2, 1)]


def test_orthogonality_unique_fillers():
    """Each commuting square from a generic to a free map fills uniquely."""
    pool = {(p, q): list(all_monotone(p, q))
            for p in range(5) for q in range(5)}
    generics = [a for maps in pool.values() for a in maps if is_generic(a)]
    frees = [a for maps in pool.values() for a in maps if is_free(a)]
    for g in generics:
        for f in frees:
            fillers = {}
            for w in pool[(g.tgt, f.src)]:
                key = (compose(g, w).values, compose(w, f).values)
                fillers[key] = fillers.get(key, 0) + 1
            squares = 0
            by_bottom = {}
            for u in pool[(g.src, f.src)]:
                by_bottom.setdefault(compose(u, f).values, []).append(u)
            for v in pool[(g.tgt, f.tgt)]:
                for u in by_bottom.get(compose(g, v).values, ()):
                    squares += 1
                    assert fillers.get((u.values, v.values), 0) == 1
            assert squares == sum(fillers.values())


def test_hom_count_identity():
    for n in range(5):
        for k in range(-1, 4):
            xi = sum(1 for _ in all_xi_maps(n, k))
            delta = sum(1 for _ in all_monotone(n, k + 2))
            assert xi == delta


def test_xi_delta_conversions():
    x = delta_to_xi_free(identity(0))
    assert x.rep == identity(2)
    x = delta_to_xi_free(coface(1, 1))
    assert x.rep == MonotoneMap(3, 4, (0, 1, 3, 4))
    for n in range(4):
        assert xi_initial(n).rep == MonotoneMap(1, n + 2, (0, n + 2))


def test_generator_word_reconstructs():
    for m, n in product(range(5), range(5)):
        for a in all_monotone(m, n):
            word = generator_word(a)
            acc = identity(m)
            for gen in word:
                acc = compose(acc, gen)
            assert acc == a


def _refused(exc, message, make):
    """make() raises exc with exactly message."""
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: MonotoneMap(-1, 2, ()), "bad ordinal degrees [-1]->[2]"),
    (lambda: MonotoneMap(1, -1, (0, 0)), "bad ordinal degrees [1]->[-1]"),
    (lambda: MonotoneMap(2, 1, (0, 1)), "expected 3 values, got 2"),
    (lambda: MonotoneMap(1, 2, (0, 3)), "value 3 at position 1 outside [0, 2]"),
    (lambda: MonotoneMap(1, 2, (-1, 0)), "value -1 at position 0 outside [0, 2]"),
    (lambda: MonotoneMap(2, 2, (0, 2, 1)), "not monotone at position 2: (0, 2, 1)"),
    (lambda: coface(1, 3), "coface index 3 out of range for [1]->[2]"),
    (lambda: coface(1, -1), "coface index -1 out of range for [1]->[2]"),
    (lambda: codegeneracy(2, 2), "codegeneracy index 2 out of range for [2]->[1]"),
    (lambda: codegeneracy(0, 0), "codegeneracy index 0 out of range for [0]->[-1]"),
    (lambda: XiMap(-2, 0, identity(2)), "bad interval degrees [-2]->[0]"),
    (lambda: XiMap(0, 0, identity(1)), "representative <[1]->[1]:0,1> has wrong degrees"),
    (lambda: XiMap(0, 0, MonotoneMap(2, 2, (0, 1, 1))),
     "representative <[2]->[2]:0,1,1> does not fix endpoints"),
    (lambda: pushout_generic_free(coface(1, 0), coface(1, 0)),
     "<[1]->[2]:1,2> is not generic"),
    (lambda: pushout_generic_free(codegeneracy(1, 0), codegeneracy(1, 0)),
     "<[1]->[0]:0,0> is not free"),
    (lambda: generic_generators(-1), "degree must be >= 0"),
], ids=["mono-src", "mono-tgt", "mono-count", "mono-above", "mono-below", "mono-order",
        "coface-above", "coface-below", "codegeneracy-above", "codegeneracy-degree",
        "xi-degrees", "xi-rep-degrees", "xi-endpoints", "not-generic", "not-free",
        "generic-degree"])
def test_constructors_refuse_by_their_whole_message(make, message):
    """Each guard of the simplex and interval categories names the arrow or
    index it refuses, and the text is the whole message."""
    _refused(ValueError, message, make)


def test_composites_of_mismatched_degrees_are_refused_by_name():
    """compose, xi_compose and the pushout name both arrows whose degrees
    do not meet."""
    _refused(DegreeMismatch, "cannot compose <[1]->[2]:1,2> then <[1]->[2]:1,2>",
             lambda: compose(coface(1, 0), coface(1, 0)))
    x = delta_to_xi_free(identity(0))
    _refused(DegreeMismatch, f"cannot compose {x} then {xi_initial(1)}",
             lambda: xi_compose(x, xi_initial(1)))
    _refused(DegreeMismatch, "sources differ: <[2]->[1]:0,0,1> vs <[1]->[2]:1,2>",
             lambda: pushout_generic_free(codegeneracy(2, 0), coface(1, 0)))
