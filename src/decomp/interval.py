"""Algebraic intervals and the factorisation-interval construction.

An interval is a reduced complete flanked presheaf on the strict-interval
site whose underlying simplicial set is Segal, hence a decomposition space
(GKT I).  The interval of an arrow is cut out of the ambient object by the
long-edge fiber formula.  A Segal interval is fixed by its 2-truncation,
its arrow category, so canonicalization truncates at cap 2 and relabels by
canonical position: isomorphic intervals get identical serializations and
content digests, and the Möbius length is read off the composite table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .axioms import check_complete, check_flanked, check_segal
from .axioms import check_decomposition  # noqa: F401 -- perfbench/tracer.py wraps it here
from .axioms import check_mobius  # noqa: F401 -- perfbench/tracer.py wraps it here
from .ingest import CategorySpec, SpecError, mobius_length, nerve_category
from .labeling import UnarySystem, canonical_order
from .presheaf import (
    CapError,
    FinSSet,
    FinXiSet,
    SSetMap,
    _fibre_positions,
    _gather,
    _name,
    _table_keys,
    i_star,
    nondeg_bound,
    truncate,
    u_star,
    validate_xiset,
)
from .report import Report


class IntervalError(ValueError):
    pass


@dataclass
class AlgebraicInterval:
    """A reduced complete flanked Segal presheaf: its data alone."""

    data: FinXiSet


@dataclass
class IntervalClass:
    """An interval in canonical form together with its content digest."""

    canonical: AlgebraicInterval
    digest: str


def longest_edge(A: FinXiSet) -> str:
    """The image of the unique degree -1 element under both outer
    degeneracies."""
    s = A.degens.index
    (base,) = s[(-1, 0)]
    return A.levels[1][s[(0, -1)][base]]


def validate_interval(A: AlgebraicInterval) -> Report:
    """Valid + reduced + complete + flanked + Segal (from cap 2).  An input
    that is not valid gets its own `validate` report back."""
    data = A.data
    base = validate_xiset(data)
    if not base.ok:
        return base
    rep = Report("validate_interval")
    if len(data.levels[-1]) != 1:
        rep.fail(degree=-1, note="not-reduced")
        return rep
    if data.cap < 1:  # validation's d0 s0 = id makes s0 injective, so complete
        raise CapError("completeness needs cap >= 1")
    under = i_star(data)
    rep.absorb(check_flanked(data))
    rep.absorb(check_segal(under))
    rep.verified_upto = data.cap
    return rep


# ---------------------------------------------------------------------------
# factorisation intervals


def factorisation_interval(X: FinSSet, a: str) -> tuple[AlgebraicInterval, SSetMap]:
    """The interval of the arrow a, with the embedding of its underlying
    simplicial set back into X.

    Level k of the interval is the fibre over a of the X_{k+2} long-edge
    table, and its tables are u*X's restricted to the fibres, as positions.
    The embedding is the double outer face, cartesian on all generic maps,
    its components handed over as positions too.
    """
    if X.cap < 3:
        raise CapError("factorisation interval needs cap >= 3")
    if a not in X.levels[1]:
        raise IntervalError(f"{a!r} is not an arrow of the input")
    if not check_complete(X):
        raise IntervalError("input fails completeness")
    U, at = u_star(X), X.levels[1].index(a)
    keep = {k: _fibre_positions(X, k + 2)[at] for k in range(-1, U.cap + 1)}
    new = {k: dict(zip(ns, range(len(ns)))) for k, ns in keep.items()}
    data = FinXiSet(U.cap, {k: _gather(U.levels[k], ns) for k, ns in keep.items()},
                    *({(k, i): _gather(new[k + family.step], _gather(t, keep[k]))
                       for (k, i), t in family.index.items()} for family in (U.faces, U.degens)))
    if U.stable_from is not None:
        data = replace(data, stable_from=nondeg_bound(i_star(data)))
    d = X.faces.index
    comps = {k: _gather(d[k + 1, k + 1], _gather(d[k + 2, 0], keep[k])) for k in range(U.cap + 1)}
    return AlgebraicInterval(data), SSetMap(i_star(data), X, comps)


# ---------------------------------------------------------------------------
# canonical forms


def labelling_system(X: FinSSet | FinXiSet) -> UnarySystem:
    """X's level sizes as sorts and its face and degeneracy position tables
    as maps, in the order validation reports them, each labelled with its
    XISET name."""
    xi = isinstance(X, FinXiSet)
    kinds = (("d", X.faces.index, -1), ("s", X.degens.index, 1))
    maps = [(_name(letter, k, i), k, k + step, tables[(k, i)])
            for (letter, tables, step), keys in zip(kinds, _table_keys(X.cap, xi))
            for k, i in keys]
    return UnarySystem({k: len(X.levels[k]) for k in range(-xi, X.cap + 1)}, maps)


def canonicalize_with_map(
    A: AlgebraicInterval,
) -> tuple[IntervalClass, dict[int, dict[str, str]]]:
    """Canonical form plus the relabeling from the truncated input.

    The interval is truncated at cap 2, its arrow category, which pins down
    a Segal interval (at cap 1 when it has at most two objects and so no
    composable pair of non-identity arrows), and relabeled
    n<degree>_<position>; the digest is the hash of the canonical
    serialization, so it agrees for isomorphic intervals regardless of
    where they were cut or their ambient cap.  source[k] lists the
    truncation's elements in the string order of their names, place[k] the
    inverse, and the tables are handed over as positions.
    """
    data = A.data
    canon_cap = 1 if len(data.levels[0]) <= 2 else 2
    if canon_cap > data.cap:
        raise IntervalError(
            f"interval has {len(data.levels[0])} objects at cap {data.cap}; "
            "its canonical form needs cap 2")
    T = truncate(data, canon_cap)
    order = canonical_order(labelling_system(T))
    source = {k: sorted(range(len(o)), key=lambda n: str(o[n])) for k, o in order.items()}
    place = {k: sorted(range(len(s)), key=s.__getitem__) for k, s in source.items()}
    faces, degens = ({(k, i): _gather(place[k + step], _gather(t, source[k]))
                      for (k, i), t in family.index.items()}
                     for family, step in ((T.faces, -1), (T.degens, 1)))
    levels = {k: [f"n{k}_{order[k][n]}" for n in s] for k, s in source.items()}
    canon = FinXiSet(canon_cap, levels, faces, degens)
    from .formats import write_xiset

    text = write_xiset(canon)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    relabel = {k: {x: f"n{k}_{p}" for x, p in zip(T.levels[k], o)} for k, o in order.items()}
    return IntervalClass(AlgebraicInterval(canon), digest), relabel


def canonicalize(A: AlgebraicInterval) -> IntervalClass:
    return canonicalize_with_map(A)[0]


# ---------------------------------------------------------------------------
# rebuilding the category and extending the level data


def interval_category(data: FinXiSet) -> CategorySpec:
    """The finite category with objects A_0 and arrows A_1 under data's own
    ids, element names as a canonical form's are; composition is read off
    the (unique, by the Segal property) level-2 fillers, on positions, and
    every element is named once at the end."""
    d, s0 = data.faces.index, data.degens.index[(0, 0)]
    objects, arrows = data.levels[0], data.levels[1]
    comp: dict[tuple[int, int], int] = {}
    if data.cap >= 2:
        ident_set = set(s0)
        for f, g, h in zip(d[(2, 2)], d[(2, 0)], d[(2, 1)]):
            if ident_set.isdisjoint((f, g)) and comp.setdefault((f, g), h) != h:
                raise IntervalError(f"ambiguous composite for {arrows[f]};{arrows[g]}")
    return CategorySpec.build(
        objects, {f: (objects[x], objects[y]) for f, x, y in zip(arrows, d[(1, 1)], d[(1, 0)])},
        dict(zip(objects, _gather(arrows, s0))),
        {(arrows[f], arrows[g]): arrows[h] for (f, g), h in comp.items()})


def category_nerve(c: IntervalClass, cap: int = 0) -> FinSSet:
    """The nerve of c's arrow category at the larger of cap and 4.  Its
    levels 0 and 1 and their tables are c's own, and a k-simplex is the
    '*'-join of k level-1 ids of c.  The category has an initial and a
    terminal object, so the nerve is c's underlying simplicial set, its
    longest edge the arrow from the one to the other."""
    return nerve_category(interval_category(c.canonical.data), max(cap, 4))


def extend_interval(A: AlgebraicInterval, xi_cap: int) -> AlgebraicInterval:
    """Rebuild the interval at the requested cap via its arrow category, in
    A's own ids: canonicalize a cut interval, whose ids are not element names."""
    if xi_cap < 1:
        raise CapError("extension cap must be >= 1")
    X = nerve_category(interval_category(A.data), xi_cap + 2)
    return factorisation_interval(X, longest_edge(A.data))[0]


# ---------------------------------------------------------------------------
# certification


def certify_mobius_interval(c: IntervalClass) -> Report:
    """Leroux's Mobius conditions off the composite table of c's arrow
    category, where N_r(h) counts the strings of r non-identity arrows
    composing to h.  PASS, at the Möbius length, when no composable cycle
    keeps the strings alive, with the longest-edge profile N_r(top) and the
    total of nondegenerate simplices; INCONCLUSIVE otherwise or if no
    category has the table."""
    data = c.canonical.data
    rep = Report("certify_mobius_interval")
    try:
        spec = interval_category(data)
    except (SpecError, IntervalError):
        rep.inconclusive(note="composite-table-refused")
        return rep
    counts, loop = mobius_length(spec.composites(), set(spec.identities.values()))
    if loop:
        rep.inconclusive(note="composable-cycle")
        return rep
    top = longest_edge(data)
    rep.data["phi_profile"] = [int(spec.is_identity(top))] + [n.get(top, 0) for n in counts]
    rep.data["nondegenerate_total"] = len(spec.objects) + sum(sum(n.values()) for n in counts)
    rep.verified_upto = len(counts)
    return rep
