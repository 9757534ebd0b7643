"""Algebraic intervals and the factorisation-interval construction.

An interval is a reduced complete flanked presheaf on the strict-interval
site whose underlying simplicial set satisfies the exactness axiom.  The
interval of an arrow is cut out of the ambient object by the long-edge
fiber formula; canonicalization truncates at the intrinsic nondegeneracy
bound and relabels by canonical position, so isomorphic intervals get
identical serializations and content digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from sys import intern

from .axioms import (
    check_complete,
    check_decomposition,
    check_flanked,
    check_mobius,
)
from .ingest import CategorySpec, nerve_category
from .labeling import UnarySystem, canonical_order, find_isomorphism
from .presheaf import (
    CapError,
    FinSSet,
    FinXiSet,
    SSetMap,
    XiSetMap,
    _name,
    _table_keys,
    actions,
    fibres,
    i_star,
    nondeg_bound,
    nondegenerate,
    truncate,
    u_star,
    validate_xiset,
)
from .report import Report
from .simplex import xi_initial


class IntervalError(ValueError):
    pass


@dataclass
class AlgebraicInterval:
    """A reduced complete flanked exact presheaf, with optional provenance."""

    data: FinXiSet
    provenance: tuple[str, str] | None = None


@dataclass
class IntervalClass:
    """An interval in canonical form together with its content digest."""

    canonical: AlgebraicInterval
    digest: str


@dataclass
class SubdividedInterval:
    """A k-simplex of an interval whose long edge is the longest edge."""

    k: int
    target: str
    widemap: str


def longest_edge(A: FinXiSet) -> str:
    """The image of the unique degree -1 element under both outer
    degeneracies."""
    (base,) = A.levels[-1]
    return A.degens[(0, -1)][A.degens[(-1, 0)][base]]


def validate_interval(A: AlgebraicInterval) -> Report:
    """Valid + reduced + complete + flanked (+ exactness when cap allows).
    An input that is not valid gets its own `validate` report back."""
    data = A.data
    base = validate_xiset(data)
    if not base.ok:
        return base
    rep = Report("validate_interval")
    if len(data.levels[-1]) != 1:
        rep.fail(degree=-1, note="not-reduced")
        return rep
    under = i_star(data)
    if not check_complete(under):
        rep.fail(degree=0, note="not-complete")
    fl = check_flanked(data)
    if not fl.ok:
        rep.absorb(fl)
    if data.cap >= 3:
        dc = check_decomposition(under, "direct")
        if not dc.ok:
            rep.absorb(dc)
    rep.verified_upto = data.cap
    return rep


# ---------------------------------------------------------------------------
# the wide-cartesian factorisation


def wide_cartesian_factor(g: XiSetMap) -> tuple[XiSetMap, XiSetMap]:
    """Factor g: B -> A through the pullback of A along B_{-1} -> A_{-1}.

    The middle object has level n the fiber product B_{-1} x_{A_{-1}} A_n
    over the unique structure map to degree -1; the first factor is a
    bijection in degree -1, the second is a levelwise pullback.
    """
    B, A = g.dom, g.cod
    if B.cap > A.cap:
        raise CapError("wide-cartesian factorisation needs dom.cap <= cod.cap")
    cap = B.cap
    gm1 = g.components[-1]

    to_init = {n: actions(A)(xi_initial(n).rep) for n in range(-1, cap + 1)}
    levels: dict[int, list[str]] = {}
    pairs: dict[int, list[tuple[str, str]]] = {}
    for n in range(-1, cap + 1):
        ps = [(b, x) for b in B.levels[-1] for x in A.levels[n]
              if gm1[b] == to_init[n][x]]
        pairs[n] = ps
        levels[n] = [intern(f"{b}&{x}") for b, x in ps]

    def lift(key, table):
        return {intern(f"{b}&{x}"): intern(f"{b}&{table[x]}") for b, x in pairs[key[0]]}

    T = truncate(A, cap)
    mid = FinXiSet(cap, levels, {key: lift(key, t) for key, t in T.faces.items()},
                   {key: lift(key, t) for key, t in T.degens.items()})

    to_init_B = {n: actions(B)(xi_initial(n).rep) for n in range(-1, cap + 1)}
    wide_comps = {
        n: {y: intern(f"{to_init_B[n][y]}&{g.components[n][y]}") for y in B.levels[n]}
        for n in range(-1, cap + 1)
    }
    cart_comps = {n: {intern(f"{b}&{x}"): x for b, x in pairs[n]}
                  for n in range(-1, cap + 1)}
    wide = XiSetMap(B, mid, wide_comps)
    cart = XiSetMap(mid, A, cart_comps)
    return wide, cart


# ---------------------------------------------------------------------------
# factorisation intervals


def factorisation_intervals(
    X: FinSSet, arrows: list[str] | None = None
) -> dict[str, tuple[AlgebraicInterval, SSetMap]]:
    """The interval of each arrow (every arrow of X by default), with the
    embedding of its underlying simplicial set back into X.

    Level k of the interval of a is a copy of the fibre over a of the
    X_{k+2} long-edge table, read from X's memoised `fibres`.  The embedding
    is the double outer face, which is cartesian on all generic maps.
    """
    if X.cap < 3:
        raise CapError("factorisation interval needs cap >= 3")
    arrows = list(X.levels[1]) if arrows is None else arrows
    known = set(X.levels[1])
    for a in arrows:
        if a not in known:
            raise IntervalError(f"{a!r} is not an arrow of the input")
    if not check_complete(X):
        raise IntervalError("input fails completeness")
    U = u_star(X)
    cap = U.cap
    out = {}
    for a in arrows:
        fibers = {k: list(fibres(X, k + 2, False)[a]) for k in range(-1, cap + 1)}
        data = FinXiSet(cap, fibers,
                        {key: {x: t[x] for x in fibers[key[0]]} for key, t in U.faces.items()},
                        {key: {x: t[x] for x in fibers[key[0]]} for key, t in U.degens.items()})
        if U.stable_from is not None:
            data = replace(data, stable_from=nondeg_bound(i_star(data)))
        interval = AlgebraicInterval(data, provenance=("interval", a))
        comps = {}
        for k in range(0, cap + 1):
            top = X.faces[(k + 1, k + 1)]
            bot = X.faces[(k + 2, 0)]
            comps[k] = {x: top[bot[x]] for x in fibers[k]}
        out[a] = (interval, SSetMap(i_star(data), X, comps))
    return out


def factorisation_interval(X: FinSSet, a: str) -> tuple[AlgebraicInterval, SSetMap]:
    """The interval of the arrow a and its embedding into X."""
    return factorisation_intervals(X, [a])[a]


# ---------------------------------------------------------------------------
# canonical forms


def labelling_system(X: FinSSet | FinXiSet) -> UnarySystem:
    """X's levels as sorts and its face and degeneracy tables as maps, in
    the order validation reports them, each labelled with its XISET name."""
    xi = isinstance(X, FinXiSet)
    kinds = (("d", X.faces, -1), ("s", X.degens, 1))
    maps = [(_name(letter, k, i), k, k + step, tables[(k, i)])
            for (letter, tables, step), keys in zip(kinds, _table_keys(X.cap, xi))
            for k, i in keys]
    return UnarySystem({k: list(X.levels[k]) for k in range(-xi, X.cap + 1)}, maps)


def canonicalize_with_map(
    A: AlgebraicInterval,
) -> tuple[IntervalClass, dict[int, dict[str, str]]]:
    """Canonical form plus the relabeling from the truncated input.

    The interval is truncated at its certified nondegeneracy bound (which
    pins down everything above it) and relabeled n<degree>_<position>; the
    digest is the hash of the canonical serialization, so it agrees for
    isomorphic intervals regardless of provenance or ambient cap.
    """
    data = A.data
    if data.stable_from is None:
        raise IntervalError(
            "interval has no certified stabilization degree; "
            "canonical truncation would be unsound")
    canon_cap = max(1, data.stable_from)
    if canon_cap > data.cap:
        raise IntervalError(
            f"stabilization degree {data.stable_from} exceeds cap {data.cap}")
    T = truncate(data, canon_cap)
    order = canonical_order(labelling_system(T))
    relabel = {k: {x: f"n{k}_{order[k][x]}" for x in T.levels[k]}
               for k in range(-1, canon_cap + 1)}
    levels = {k: sorted(relabel[k].values()) for k in range(-1, canon_cap + 1)}
    faces = {(k, i): {relabel[k][x]: relabel[k - 1][y] for x, y in t.items()}
             for (k, i), t in T.faces.items()}
    degens = {(k, j): {relabel[k][x]: relabel[k + 1][y] for x, y in t.items()}
              for (k, j), t in T.degens.items()}
    canon = FinXiSet(canon_cap, levels, faces, degens, stable_from=T.stable_from)
    from .formats import write_xiset

    text = write_xiset(canon)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cls = IntervalClass(AlgebraicInterval(canon, A.provenance), digest)
    return cls, relabel


def canonicalize(A: AlgebraicInterval) -> IntervalClass:
    return canonicalize_with_map(A)[0]


def isomorphic(A: FinSSet | FinXiSet, B: FinSSet | FinXiSet) -> dict[int, dict[str, str]] | None:
    """A levelwise bijection from A to B commuting with every structure
    map, or None; A and B have the same kind and cap."""
    if A.cap != B.cap:
        raise CapError("isomorphism search needs equal caps")
    return find_isomorphism(labelling_system(A), labelling_system(B))


# ---------------------------------------------------------------------------
# rebuilding the category and extending the level data


def interval_category(data: FinXiSet) -> tuple[CategorySpec, dict[str, str]]:
    """The finite category with objects A_0 and arrows A_1.

    Composition is read off the (unique, by the Segal property) level-2
    fillers; elements are renamed to neutral identifiers since ambient
    simplex names may use reserved characters.
    """
    objs = sorted(data.levels[0])
    arrs = sorted(data.levels[1])
    obj_name = {x: f"o{i}" for i, x in enumerate(objs)}
    arr_name = {f: f"a{i}" for i, f in enumerate(arrs)}
    d0, d1 = data.faces[(1, 0)], data.faces[(1, 1)]
    s0 = data.degens[(0, 0)]
    arrows = {arr_name[f]: (obj_name[d1[f]], obj_name[d0[f]]) for f in arrs}
    idents = {obj_name[x]: arr_name[s0[x]] for x in objs}
    comp: dict[tuple[str, str], str] = {}
    if data.cap >= 2:
        ident_set = set(s0.values())
        dd0, dd1, dd2 = data.faces[(2, 0)], data.faces[(2, 1)], data.faces[(2, 2)]
        for sig in data.levels[2]:
            f, g, h = dd2[sig], dd0[sig], dd1[sig]
            if f in ident_set or g in ident_set:
                continue
            key = (arr_name[f], arr_name[g])
            if key in comp and comp[key] != arr_name[h]:
                raise IntervalError(f"ambiguous composite for {f};{g}")
            comp[key] = arr_name[h]
    spec = CategorySpec.build(list(obj_name.values()), arrows, idents, comp)
    return spec, arr_name


def category_nerve(c: IntervalClass, cap: int = 0) -> tuple[FinSSet, dict[str, str]]:
    """The nerve of c's arrow category at the larger of cap and
    max(1, stable_from) + 2, and the nerve id of each level-1 id of c.  The
    category has an initial and a terminal object, so the nerve is c's
    underlying simplicial set, its longest edge the arrow from the one to
    the other."""
    data = c.canonical.data
    spec, arr_name = interval_category(data)
    return nerve_category(spec, max(cap, max(1, data.stable_from or 0) + 2)), arr_name


def extend_interval(A: AlgebraicInterval, xi_cap: int) -> AlgebraicInterval:
    """Rebuild the interval at the requested cap via its arrow category."""
    if xi_cap < 1:
        raise CapError("extension cap must be >= 1")
    spec, arr_name = interval_category(A.data)
    X = nerve_category(spec, xi_cap + 2)
    return factorisation_interval(X, arr_name[longest_edge(A.data)])[0]


# ---------------------------------------------------------------------------
# subdivisions and certification


def _fiber(data: FinXiSet, k: int, nondeg: bool) -> list[str]:
    """The k-simplices over the longest edge: the memoised list, not a copy."""
    return fibres(i_star(data), k, nondeg)[longest_edge(data)]


def subdivisions(
    c: IntervalClass, k: int, nondegenerate: bool = False
) -> list[SubdividedInterval]:
    """All k-simplices over the longest edge; the degree-k fiber of the
    forget-the-subdivision projection over this interval."""
    if k < 0:
        raise CapError("subdivision degree must be >= 0")
    if k <= c.canonical.data.cap:
        data = c.canonical.data
    else:
        data = extend_interval(c.canonical, k).data
    return [SubdividedInterval(k, c.digest, x)
            for x in sorted(_fiber(data, k, nondegenerate))]


def certify_mobius_interval(c: IntervalClass) -> Report:
    """Mobius conditions on the underlying simplicial set, plus the finite
    total of nondegenerate simplices and the longest-edge profile."""
    data = c.canonical.data
    N, arr_name = category_nerve(c)
    rep = check_mobius(N)
    rep.check = "certify_mobius_interval"
    longest = arr_name[longest_edge(data)]
    rep.data["phi_profile"] = [len(fibres(N, r, True)[longest])
                               for r in range((data.stable_from or 0) + 1)]
    rep.data["nondegenerate_total"] = sum(len(nondegenerate(N, r)) for r in range(N.cap + 1))
    return rep
