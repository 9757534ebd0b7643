"""Independent oracles that the suite checks the library against.

These deliberately avoid the code paths they certify: pushouts are checked
against the raw universal property, Mobius vectors against Rota's recursion
and against power-series inversion of zeta computed on raw tables and against the alternating sum of one
counting vector per degree, the inversion check's failing sides against
their supports on raw tables,
factorisations against exhaustive two-step search, canonical labeling
against the dict-keyed refinement that recomputes every signature each
round, presheaf actions against the generator-by-generator walk of each
word, the interval cut against one that walks every long-edge table afresh
and against the bulk cut of every arrow in one sweep, the classifying map
and the arrow tables, each read through interval embeddings off the tables
of maximal arrows' classes, against the labelling of every arrow, an
interval's Mobius certificate against the one read off its top interval cut
from a nerve two levels larger, nondegeneracy by degeneracy images against
the principal-edge test, the nerves of posets, partial monoids and
categories against the string-by-string builds, the index-list axiom checks
against the same checks counted on id tables, the Segal squares' verdicts
against the spines of every level, the exactness check against
itself as it was with every pushout made and every fibre counted per square, the constructors' shape
refusals (on the levels and tables given, `Raw` and `RawMap`) and map
validation against the walk of every naturality square simplex by simplex, the interval-site
relations and culf squares checked in simplicial coordinates against every
composable pair of site generators and the square on every generator, the
registry coalgebra read off the objects of each class against the degree-2
level of the fragment and against the 2-simplices over the longest edge of
its canonical form, subdivisions named in the category nerve against those
of the interval extended to their degree, and the SSET and XISET parser, which reads a writer's tables
against their level lines, against the parse of every table body entry by
entry.

The first section holds the constructions of GKT III that no command or
library path runs, which the tests check as theorems: interval-site arrows
as a type of their own (`XiMap`) beside the representing monotone maps that
`presheaf.actions` takes, the representables and the transpose of an arrow,
the i_*/u^* adjunction on maps with its unit and counit, the wide/cartesian
factorisation, the generic/free factorisation of one map, the
Eilenberg-Zilber decomposition of a simplex, the counting vectors `phi`,
the subdivisions of an interval class, the pushforward of a culf map (its
arrow map, checked to be a coalgebra homomorphism) and the isomorphism
search between two objects.  `is_closed` asks whether a registry's arrow
tables name only its entries.  The last section holds the writers of the
formats no command writes, SMAP, POSET, MONOID and CAT, with which the
tests make their input files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from sys import intern

from decomp import labeling
from decomp.axioms import check_map_class
from decomp.formats import _sorted
from decomp.incidence import NotCertified, QVec, _homomorphism, comult
from decomp.ingest import CategorySpec, MonoidSpec, PosetSpec
from decomp.interval import IntervalClass, category_nerve, labelling_system, longest_edge
from decomp.labeling import UnarySystem
from decomp.report import Report
from decomp.presheaf import (
    CapError,
    FinSSet,
    FinXiSet,
    SSetMap,
    XiSetMap,
    _gather,
    actions,
    fibres,
    i_star,
    sset_action,
    truncate,
    u_star,
    validate_map,
)
from decomp.simplex import (
    DegreeMismatch,
    MonotoneMap,
    codegeneracy,
    coface,
    compose,
    is_free,
    is_generic,
)


# ---------------------------------------------------------------------------
# GKT III constructions that no command or library path runs, the culf
# pushforward and the isomorphism search


def generic_free_factor(a: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Factor a as an endpoint-preserving map followed by a shift.

    The middle ordinal is [a(src) - a(0)]; the pair is the unique such
    factorisation (checked exhaustively in the tests).
    """
    lo = a.values[0]
    mid = a.values[-1] - lo
    g = MonotoneMap(a.src, mid, tuple(v - lo for v in a.values))
    f = MonotoneMap(mid, a.tgt, tuple(i + lo for i in range(mid + 1)))
    return g, f


def all_monotone(m: int, n: int):
    """All monotone maps [m] -> [n]."""
    for vals in combinations_with_replacement(range(n + 1), m + 1):
        yield MonotoneMap(m, n, vals)


# Arrows of the interval category are encoded as endpoint-preserving
# monotone maps one white dot wider on each side: the object with k black
# dots and two white ones is [k-1], and its arrows [k] -> [n] correspond to
# generic maps [k+2] -> [n+2].


@dataclass(frozen=True)
class XiMap:
    """An interval-category arrow [src] -> [tgt], degrees >= -1.

    rep is the representing monotone map [src+2] -> [tgt+2]; it fixes both
    endpoints (the white dots sit at positions 0 and src+2 / tgt+2).
    """

    src: int
    tgt: int
    rep: MonotoneMap

    def __post_init__(self):
        if self.src < -1 or self.tgt < -1:
            raise ValueError(f"bad interval degrees [{self.src}]->[{self.tgt}]")
        if (self.rep.src, self.rep.tgt) != (self.src + 2, self.tgt + 2):
            raise ValueError(f"representative {self.rep} has wrong degrees")
        if not is_generic(self.rep):
            raise ValueError(f"representative {self.rep} does not fix endpoints")


def xi_compose(x: XiMap, y: XiMap) -> XiMap:
    if x.tgt != y.src:
        raise DegreeMismatch(f"cannot compose {x} then {y}")
    return XiMap(x.src, y.tgt, compose(x.rep, y.rep))


def delta_to_xi_free(a: MonotoneMap) -> XiMap:
    """Extend a simplex-category arrow by a white dot on each side."""
    vals = (0,) + tuple(v + 1 for v in a.values) + (a.tgt + 2,)
    return XiMap(a.src, a.tgt, MonotoneMap(a.src + 2, a.tgt + 2, vals))


def xi_initial(n: int) -> XiMap:
    """The unique arrow [-1] -> [n]: the long-edge inclusion [1] -> [n+2]."""
    return XiMap(-1, n, MonotoneMap(1, n + 2, (0, n + 2)))


def all_xi_maps(n: int, k: int):
    """All interval-category arrows [n] -> [k]."""
    for rep in all_monotone(n + 2, k + 2):
        if is_generic(rep):
            yield XiMap(n, k, rep)


def _face_arrow(k: int, i: int) -> XiMap:
    return XiMap(k - 1, k, coface(k + 1, i + 1))


def _degen_arrow(k: int, j: int) -> XiMap:
    return XiMap(k + 1, k, codegeneracy(k + 3, j + 1))


def xi_representable(k: int, cap: int) -> FinXiSet:
    """The presheaf represented by the interval-site object [k]."""
    def name(h: XiMap) -> str:
        return intern("x" + "_".join(map(str, h.rep.values)))

    homs = {n: {name(h): h for h in all_xi_maps(n, k)}
            for n in range(-1, cap + 1)}
    levels = {n: sorted(homs[n]) for n in range(-1, cap + 1)}

    def act(arrow: XiMap) -> dict[str, str]:
        return {nm: name(xi_compose(arrow, h))
                for nm, h in homs[arrow.tgt].items()}

    faces = {(n, i): act(_face_arrow(n, i))
             for n in range(cap + 1) for i in range(n + 1)}
    degens = {(n, j): act(_degen_arrow(n, j))
              for n in range(-1, cap) for j in range(-1, n + 2)}
    stable = k + 2 if k + 2 <= cap else None
    return FinXiSet(cap, levels, faces, degens, stable_from=stable)


def transpose_arrow(X: FinSSet, a: str) -> XiSetMap:
    """The map from the initial representable picking out the arrow a."""
    dom = xi_representable(-1, X.cap - 2)
    cod = u_star(X)
    comps = {n: {intern("x" + "_".join(map(str, h.rep.values))): sset_action(cod, h.rep)[a]
                 for h in all_xi_maps(n, -1)} for n in range(-1, dom.cap + 1)}
    return XiSetMap(dom, cod, comps)


def u_star_map(F: SSetMap) -> XiSetMap:
    comps = {k: F.components.index[k + 2] for k in range(-1, F.dom.cap - 1)}
    return XiSetMap(u_star(F.dom), u_star(F.cod), comps)


def i_star_map(G: XiSetMap) -> SSetMap:
    comps = {k: G.components.index[k] for k in range(G.dom.cap + 1)}
    return SSetMap(i_star(G.dom), i_star(G.cod), comps)


def unit_eta(A: FinXiSet) -> XiSetMap:
    """The unit A -> u*i*A, the composite of the two extra degeneracies."""
    if A.cap < 2:
        raise CapError("unit needs cap >= 2")
    s = A.degens.index
    comps = {k: _gather(s[(k + 1, -1)], s[(k, k + 1)]) for k in range(-1, A.cap - 1)}
    return XiSetMap(truncate(A, A.cap - 2), u_star(i_star(A)), comps)


def counit_eps(X: FinSSet) -> SSetMap:
    """The counit i*u*X -> X, the composite of the two outer faces."""
    if X.cap < 2:
        raise CapError("counit needs cap >= 2")
    d = X.faces.index
    comps = {k: _gather(d[(k + 1, k + 1)], d[(k + 2, 0)]) for k in range(X.cap - 1)}
    return SSetMap(i_star(u_star(X)), X, comps)


def wide_cartesian_factor(g: XiSetMap) -> tuple[XiSetMap, XiSetMap]:
    """Factor g: B -> A through the pullback of A along B_{-1} -> A_{-1}.

    The middle object has level n the fiber product B_{-1} x_{A_{-1}} A_n
    over the unique structure map to degree -1, its pairs (b, x) found and
    its tables and both factors' components handed over as positions, and
    each pair named `b&x` once; the first factor is a bijection in degree
    -1, the second is a levelwise pullback.  A g that `validate_map` fails
    raises ValueError with the report's first line.
    """
    B, A = g.dom, g.cod
    if not (rep := validate_map(g)).ok:
        raise ValueError(rep.lines()[0])
    T, comps = truncate(A, B.cap), g.components.index
    pairs = {n: [(b, x) for b, c in enumerate(comps[-1])
                 for x, t in enumerate(actions(A).index(xi_initial(n).rep)) if c == t]
             for n in range(-1, T.cap + 1)}
    at = {n: dict(zip(ps, range(len(ps)))) for n, ps in pairs.items()}
    faces, degens = ({key: [at[key[0] + step][b, t[x]] for b, x in pairs[key[0]]]
                      for key, t in family.index.items()}
                     for family, step in ((T.faces, -1), (T.degens, 1)))
    mid = FinXiSet(T.cap, {n: [intern(f"{B.levels[-1][b]}&{A.levels[n][x]}") for b, x in ps]
                           for n, ps in pairs.items()}, faces, degens)
    wide = {n: [at[n][pair] for pair in zip(actions(B).index(xi_initial(n).rep), comps[n])]
            for n in pairs}
    cart = {n: [x for _, x in ps] for n, ps in pairs.items()}
    return XiSetMap(B, mid, wide), XiSetMap(mid, A, cart)


def check_wide(g: XiSetMap) -> bool:
    """Is the degree -1 component a bijection on positions?"""
    idx = g.components.index[-1]
    return len(set(idx)) == len(idx) == len(g.cod.levels[-1])


def ez_decompose(X: FinSSet, k: int, x: str) -> tuple[list[int], str]:
    """Unique degeneracy word (decreasing indices) and nondegenerate root.

    The word lists the indices outermost first: applying s_{w[-1]}, then
    s_{w[-2]}, ..., to the root reproduces x.  A degree outside the cap
    raises CapError, an id outside level k ValueError.
    """
    if k < 0 or k > X.cap:
        raise CapError(f"degree {k} outside cap {X.cap}")
    if x not in X.levels[k]:
        raise ValueError(f"{x!r} is not a simplex of degree {k}")
    word: list[int] = []
    cur = X.levels[k].index(x)
    while k > 0:
        for j in range(k - 1, -1, -1):
            pre = [n for n, v in enumerate(X.degens.index[(k - 1, j)]) if v == cur]
            if pre:
                if len(pre) > 1:
                    raise ValueError(f"degeneracy s_{j} not injective at {X.levels[k][cur]}")
                word.append(j)
                cur, k = pre[0], k - 1
                break
        else:
            break
    return word, X.levels[k][cur]


def phi(X: FinSSet, k: int) -> QVec:
    """Count of nondegenerate k-simplices over each long edge."""
    counts = {a: len(over) for a, over in fibres(X, k, True).items()}
    return QVec(frozenset(X.levels[1]), counts)


def subdivisions(c: IntervalClass, k: int, nondegenerate: bool = False) -> list[str]:
    """All k-simplices over the longest edge, the degree-k fiber of the
    forget-the-subdivision projection over this interval: c's category
    nerve's, '*'-joins of k level-1 ids of c, as the fragment reads them."""
    if k < 0:
        raise CapError("subdivision degree must be >= 0")
    return sorted(fibres(category_nerve(c, k), k, nondegenerate)[longest_edge(c.canonical.data)])


def culf_pushforward(F: SSetMap) -> tuple[dict[str, str], Report]:
    """The arrow-level map of a valid culf map, checked to be a coalgebra
    homomorphism."""
    rep = Report("culf_pushforward")
    base = validate_map(F)
    if not base.ok:
        raise NotCertified("map is not valid:\n" + str(base))
    culf = check_map_class(F, "culf")
    if not culf.ok:
        raise NotCertified("map is not cartesian on generics:\n" + str(culf))
    if F.dom.cap < 2:
        raise NotCertified("comultiplication needs cap >= 2")
    m1 = dict(zip(F.dom.levels[1], _gather(F.cod.levels[1], F.components.index[1])))
    _homomorphism(rep, F.dom, m1, comult(F.cod, check=False), "comultiplication-not-preserved")
    return m1, rep


def find_isomorphism(sys_a: UnarySystem, sys_b: UnarySystem) -> dict | None:
    """A sort-preserving bijection commuting with every labeled map, or None.

    The systems are isomorphic exactly when their least serializations
    agree.  The bijection returned, {sort: [position in sys_b of element p
    of sys_a, for each p]}, sends each element to the element of sys_b at
    the same canonical position: the one with the same color in the
    coloring that gives the least serialization.
    """
    if (sys_a.sizes, sorted(m[:3] for m in sys_a.maps)) != (
            sys_b.sizes, sorted(m[:3] for m in sys_b.maps)):
        return None
    ga, key_a, color_a = labeling._canonical(sys_a)
    _, key_b, color_b = labeling._canonical(sys_b)
    if key_a != key_b:
        return None
    at = sorted(range(len(color_b)), key=color_b.__getitem__)
    return {s: [at[color_a[i]] - ga.members[s].start for i in ga.members[s]]
            for s in sys_a.sizes}


def isomorphic(A: FinSSet | FinXiSet, B: FinSSet | FinXiSet) -> dict[int, dict[str, str]] | None:
    """A levelwise bijection from A to B commuting with every structure
    map, or None; A and B have the same kind and cap."""
    if A.cap != B.cap:
        raise CapError("isomorphism search needs equal caps")
    iso = find_isomorphism(labelling_system(A), labelling_system(B))
    return None if iso is None else {
        k: dict(zip(A.levels[k], _gather(B.levels[k], ps))) for k, ps in iso.items()}


# ---------------------------------------------------------------------------
# factorisations, pushouts, Mobius vectors, pullbacks and validation


_FREE_POOL: dict[tuple[int, int], list] = {}


def free_maps(q: int, n: int) -> list:
    """All distance-preserving maps [q] -> [n], by filtered enumeration."""
    if (q, n) not in _FREE_POOL:
        _FREE_POOL[(q, n)] = [f for f in all_monotone(q, n) if is_free(f)]
    return _FREE_POOL[(q, n)]


def two_step_factorisations(a):
    """All generic-then-free pairs composing to a, by exhaustive search.

    Free maps are injective, so for each candidate (q, f) the middle map
    is forced pointwise; the search still covers the whole candidate
    space without assuming anything about the factorisation under test.
    """
    from decomp.simplex import MonotoneMap

    out = []
    for q in range(a.tgt + 1):
        for f in free_maps(q, a.tgt):
            c = f.values[0]
            gvals = tuple(v - c for v in a.values)
            if any(not 0 <= v <= q for v in gvals):
                continue
            g = MonotoneMap(a.src, q, gvals)
            if is_generic(g) and compose(g, f) == a:
                out.append((g, f))
    return out


def pushout_universal_property_holds(g, f, f2, g2, max_extra=2):
    """Does the cospan (f2, g2) satisfy the pushout property for (g, f)?

    Quantifies over every cocone into ordinals up to the corner degree
    plus max_extra and demands exactly one mediating map each time; also
    checks the mediator count matches the cocone count, so no commuting
    square is silently skipped.
    """
    if compose(g, f2) != compose(f, g2):
        return False
    q = f2.tgt
    for t in range(q + max_extra + 1):
        mediators_by_cocone = {}
        for w in all_monotone(q, t):
            key = (compose(f2, w).values, compose(g2, w).values)
            mediators_by_cocone[key] = mediators_by_cocone.get(key, 0) + 1
        cocones = 0
        by_restriction = {}
        for u in all_monotone(g.tgt, t):
            by_restriction.setdefault(compose(g, u).values, []).append(u)
        for v in all_monotone(f.tgt, t):
            for u in by_restriction.get(compose(f, v).values, ()):
                cocones += 1
                if mediators_by_cocone.get((u.values, v.values), 0) != 1:
                    return False
        if cocones != sum(mediators_by_cocone.values()):
            return False
    return True


def rota_mobius(poset):
    """The classical recursive Mobius function of a finite poset."""
    memo: dict[tuple[str, str], Fraction] = {}

    def mu(x, y):
        if (x, y) in memo:
            return memo[(x, y)]
        if x == y:
            val = Fraction(1)
        else:
            val = -sum(
                (mu(x, z) for z in poset.elements
                 if z != y and poset.leq(x, z) and poset.leq(z, y)),
                Fraction(0))
        memo[(x, y)] = val
        return val

    return mu


def convolution_inverse(table):
    """Invert zeta as the alternating geometric series, on raw dicts.

    Works whenever the counit-free part of zeta is convolution-nilpotent;
    raises otherwise, so a wrong tightness claim cannot slip through.
    """
    basis = sorted(table.basis)
    eps = {a: Fraction(table.counit[a]) for a in basis}

    def conv(u, v):
        out = {a: Fraction(0) for a in basis}
        for a in basis:
            for (l, r), mult in table.pairs[a].items():
                out[a] += mult * u[l] * v[r]
        return out

    zplus = {a: Fraction(1) - eps[a] for a in basis}
    total = dict(eps)
    power = dict(eps)
    sign = 1
    for _ in range(len(basis) + 2):
        power = conv(power, zplus)
        if not any(power.values()):
            return total
        sign = -sign
        for a in basis:
            total[a] += sign * power[a]
    raise ValueError("zeta minus counit is not convolution-nilpotent")


def vector_sum(basis, vectors) -> QVec:
    """The sum over basis of QVecs, added entry by entry in a dict."""
    total = dict.fromkeys(basis, Fraction(0))
    for v in vectors:
        for a, c in v.coeffs.items():
            total[a] += c
    return QVec(frozenset(basis), total)


def mobius_by_phi(X):
    """The Mobius vector as one QVec per degree: the alternating sum of
    phi(X, k) up to X's stable degree, under the same certificate."""
    from decomp.axioms import check_mobius
    from decomp.incidence import NotCertified

    cert = check_mobius(X)
    if not cert.ok:
        raise NotCertified("Mobius conditions not certified:\n" + str(cert))
    terms = [phi(X, k) for k in range(X.stable_from + 1)]
    return vector_sum(X.levels[1], [QVec(t.basis, {a: (-1) ** k * v for a, v in t.coeffs.items()})
                                    for k, t in enumerate(terms)])


def inversion_lines_by_support(table, mu):
    """The FAIL lines of verify_inversion for mu, each convolution taken on
    raw dicts: a side of zeta * mu = counit = mu * zeta fails at the arrows
    in the symmetric difference of its support and the counit's, and at
    those in its support where the two differ."""
    basis = sorted(table.basis)
    eps = {a: Fraction(table.counit[a]) for a in basis if table.counit[a]}
    m = {a: Fraction(mu[a]) for a in basis}

    def support(u, v):
        out = {}
        for a in basis:
            total = sum((mult * u[l] * v[r] for (l, r), mult in table.pairs[a].items()),
                        Fraction(0))
            if total:
                out[a] = total
        return out

    one = dict.fromkeys(basis, Fraction(1))
    lines = []
    for side, got in (("zeta*mu", support(one, m)), ("mu*zeta", support(m, one))):
        if got != eps:
            bad = sorted(set(got) ^ set(eps) | {a for a in got if got[a] != eps.get(a)})
            lines.append(f"FAIL verify_inversion witness={','.join(bad[:3])} "
                         f"note={side}-differs-from-counit")
    return lines


def pullback_failure_by_enumeration(P, A, B, p, q, f, g):
    """Why P -> A x_C B is not a bijection, element by element.

    Walks P once (commutativity, then injectivity of the comparison), then
    every pair of A x_C B fibre by fibre; returns the first failure or None.
    """
    seen = {}
    for x in P:
        a, b = p[x], q[x]
        if f[a] != g[b]:
            raise ValueError(f"square-does-not-commute:{x}")
        key = (a, b)
        if key in seen:
            return f"comparison-not-injective:{seen[key]},{x}"
        seen[key] = x
    by_corner = {}
    for b in B:
        by_corner.setdefault(g[b], []).append(b)
    for a in A:
        for b in by_corner.get(f[a], ()):
            if (a, b) not in seen:
                return f"missing-fiber-pair:{a},{b}"
    return None


@dataclass
class Raw:
    """The levels and tables a constructor of kind is given, id tables or
    position lists, which the validators below read as they read an
    object's; make() is what the constructor makes of them."""

    kind: type
    cap: int
    levels: dict
    faces: dict
    degens: dict
    stable_from: int | None = None

    def make(self):
        return self.kind(self.cap, self.levels, self.faces, self.degens, self.stable_from)


@dataclass
class RawMap:
    """The ends and components a map constructor of kind is given."""

    kind: type
    dom: object
    cod: object
    components: dict

    def make(self):
        return self.kind(self.dom, self.cod, self.components)


def _totality_by_item(report, label, table, src_ids, tgt_ids, degree=None):
    src = set(src_ids)
    tgt = set(tgt_ids)
    missing = src - set(table)
    if missing:
        report.fail(degree, witness=sorted(missing)[:3], note=f"{label}-not-total")
    for x, y in table.items():
        if x not in src:
            report.fail(degree, witness=(x,), note=f"{label}-extra-source")
        elif y not in tgt:
            report.fail(degree, witness=(x, y), note=f"{label}-target-outside-level")


def validate_sset_by_simplex(X):
    """The simplicial-set validator, checking every identity one simplex at
    a time and every table one entry at a time."""
    from decomp.report import Report

    rep = Report("validate")
    if sorted(X.levels) != list(range(0, X.cap + 1)):
        rep.fail(note="levels-do-not-match-cap")
        return rep
    for k in range(0, X.cap + 1):
        if len(set(X.levels[k])) != len(X.levels[k]):
            rep.fail(degree=k, note="duplicate-identifiers")
    for k in range(1, X.cap + 1):
        for i in range(k + 1):
            if (k, i) not in X.faces:
                rep.fail(degree=k, note=f"missing-face-d{i}")
            else:
                _totality_by_item(rep, f"d{i}", X.faces[(k, i)],
                                  X.levels[k], X.levels[k - 1], k)
    for k in range(0, X.cap):
        for j in range(k + 1):
            if (k, j) not in X.degens:
                rep.fail(degree=k, note=f"missing-degeneracy-s{j}")
            else:
                _totality_by_item(rep, f"s{j}", X.degens[(k, j)],
                                  X.levels[k], X.levels[k + 1], k)
    for k, i in sorted(X.faces):
        if not (1 <= k <= X.cap and 0 <= i <= k):
            rep.fail(degree=k, note=f"extra-face-d{i}")
    for k, j in sorted(X.degens):
        if not (0 <= k < X.cap and 0 <= j <= k):
            rep.fail(degree=k, note=f"extra-degeneracy-s{j}")
    if not rep.ok:
        return rep

    for k in range(2, X.cap + 1):
        for j in range(1, k + 1):
            for i in range(j):
                di, dj = X.faces[(k, i)], X.faces[(k, j)]
                da, db = X.faces[(k - 1, i)], X.faces[(k - 1, j - 1)]
                for x in X.levels[k]:
                    if da[dj[x]] != db[di[x]]:
                        rep.fail(degree=k, witness=(x,), note=f"d{i}d{j}")
    for k in range(0, X.cap - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                si, sj = X.degens[(k, i)], X.degens[(k, j)]
                sa, sb = X.degens[(k + 1, i)], X.degens[(k + 1, j + 1)]
                for x in X.levels[k]:
                    if sa[sj[x]] != sb[si[x]]:
                        rep.fail(degree=k, witness=(x,), note=f"s{i}s{j}")
    for k in range(0, X.cap):
        for j in range(k + 1):
            sj = X.degens[(k, j)]
            for i in range(k + 2):
                di = X.faces[(k + 1, i)]
                for x in X.levels[k]:
                    got = di[sj[x]]
                    if i == j or i == j + 1:
                        want = x
                    elif i < j:
                        want = X.degens[(k - 1, j - 1)][X.faces[(k, i)][x]]
                    else:
                        want = X.degens[(k - 1, j)][X.faces[(k, i - 1)][x]]
                    if got != want:
                        rep.fail(degree=k, witness=(x,), note=f"d{i}s{j}")
    if X.stable_from is not None:
        for k in range(X.stable_from + 1, X.cap + 1):
            degenerate = set()
            for j in range(k):
                degenerate.update(X.degens[(k - 1, j)].values())
            for x in X.levels[k]:
                if x not in degenerate:
                    rep.fail(degree=k, witness=(x,), note="stable_from-violated")
    rep.verified_upto = X.cap
    return rep


# ---------------------------------------------------------------------------
# canonical labeling: every signature recomputed each round on (sort, position) keys


def _elements(sys: UnarySystem):
    return [(s, p) for s in sorted(sys.sizes) for p in range(sys.sizes[s])]


def _edges(sys: UnarySystem):
    out_edges = {e: [] for e in _elements(sys)}
    in_edges = {e: [] for e in _elements(sys)}
    for label, src, tgt, table in sorted(sys.maps, key=lambda m: m[0]):
        for x, y in enumerate(table):
            out_edges[(src, x)].append((label, (tgt, y)))
            in_edges[(tgt, y)].append((label, (src, x)))
    return out_edges, in_edges


def _refine(elements, out_edges, in_edges, colors):
    ncolors = len(set(colors.values()))
    while True:
        sigs = {}
        for e in elements:
            sigs[e] = (
                colors[e],
                tuple((lbl, colors[y]) for lbl, y in out_edges[e]),
                tuple(sorted((lbl, colors[y]) for lbl, y in in_edges[e])),
            )
        ranks = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        colors = {e: ranks[sigs[e]] for e in elements}
        n = len(set(colors.values()))
        if n == ncolors:
            return colors
        ncolors = n


def _initial_colors(sys: UnarySystem):
    order = {s: i for i, s in enumerate(sorted(sys.sizes))}
    return {e: order[e[0]] for e in _elements(sys)}


def canonical_order(sys: UnarySystem) -> dict:
    """Canonical position of every element within its sort.

    Returns {sort: [canonical position of element p, for each p]};
    isomorphic systems produce orderings under which their serializations
    coincide.
    """
    elements = _elements(sys)
    out_edges, in_edges = _edges(sys)
    maps = sorted(sys.maps, key=lambda m: m[0])
    best: list = [None, None]

    def serialize(order):
        key = [tuple(sys.sizes[s] for s in sorted(sys.sizes))]
        for label, src, tgt, table in maps:
            ranked = sorted(range(sys.sizes[src]), key=lambda x: order[(src, x)])
            key.append(tuple(order[(tgt, table[x])] for x in ranked))
        return tuple(key)

    def descend(colors):
        classes: dict[int, list] = {}
        for e in elements:
            classes.setdefault(colors[e], []).append(e)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            order = dict(colors)
            key = serialize(order)
            if best[0] is None or key < best[0]:
                best[0], best[1] = key, order
            return
        fresh = max(colors.values()) + 1
        for e in target:
            nxt = dict(colors)
            nxt[e] = fresh
            descend(_refine(elements, out_edges, in_edges, nxt))

    descend(_refine(elements, out_edges, in_edges, _initial_colors(sys)))
    order = best[1]
    result: dict = {}
    for s in sys.sizes:
        ranked = sorted(range(sys.sizes[s]), key=lambda x: order[(s, x)])
        result[s] = [0] * sys.sizes[s]
        for i, x in enumerate(ranked):
            result[s][x] = i
    return result


def canonicalize_with_map_by_ids(A):
    """Digest, relabelling and canonical form, made as id tables: the
    truncation's tables read as ids, each entry relabelled
    n<degree>_<position> by the reference canonical order, and the form
    built from the relabelled id tables, its levels in string order."""
    import hashlib

    from decomp.formats import write_xiset
    from decomp.interval import labelling_system
    from decomp.presheaf import FinXiSet, truncate

    data = A.data
    canon_cap = 1 if len(data.levels[0]) <= 2 else 2
    T = truncate(data, canon_cap)
    order = canonical_order(labelling_system(T))
    relabel = {k: {x: f"n{k}_{p}" for x, p in zip(T.levels[k], order[k])}
               for k in range(-1, canon_cap + 1)}
    levels = {k: sorted(relabel[k].values()) for k in range(-1, canon_cap + 1)}
    faces = {(k, i): {relabel[k][x]: relabel[k - 1][y] for x, y in t.items()}
             for (k, i), t in T.faces.items()}
    degens = {(k, j): {relabel[k][x]: relabel[k + 1][y] for x, y in t.items()}
              for (k, j), t in T.degens.items()}
    canon = FinXiSet(canon_cap, levels, faces, degens)
    return hashlib.sha256(write_xiset(canon).encode("utf-8")).hexdigest(), relabel, canon


def _action(X, a, shift):
    """X(a) walked generator by generator from the identity of levels[a.tgt]."""
    from decomp.presheaf import _generator_table
    from decomp.simplex import generator_word

    table = {x: x for x in X.levels[a.tgt - shift]}
    for gen in reversed(generator_word(a)):
        step = _generator_table(X, gen, shift)
        table = {x: step[y] for x, y in table.items()}
    return table


def nondegenerate_by_principal_edges(X, r):
    """The r-simplices none of whose principal edges i -> i+1 is degenerate,
    read through per-word actions."""
    if r == 0:
        return list(X.levels[0])
    degenerate = set(X.degens[(0, 0)].values())
    tables = [_action(X, MonotoneMap(1, r, (i, i + 1)), 0) for i in range(r)]
    return [x for x in X.levels[r] if all(t[x] not in degenerate for t in tables)]


def factorisation_interval(X, a):
    """The interval of the arrow a, cut on its own: every long-edge table is
    walked afresh for this one arrow."""
    from decomp.axioms import check_complete
    from decomp.interval import AlgebraicInterval, IntervalError
    from decomp.presheaf import CapError, FinXiSet, SSetMap, i_star, nondeg_bound, u_star
    from decomp.simplex import MonotoneMap

    if X.cap < 3:
        raise CapError("factorisation interval needs cap >= 3")
    if a not in set(X.levels[1]):
        raise IntervalError(f"{a!r} is not an arrow of the input")
    if not check_complete(X):
        raise IntervalError("input fails completeness")

    U = u_star(X)
    cap = U.cap
    fibers: dict[int, list[str]] = {}
    for k in range(-1, cap + 1):
        table = _action(X, MonotoneMap(1, k + 2, (0, k + 2)), 0)
        fibers[k] = [x for x in U.levels[k] if table[x] == a]

    def restrict(key, table):
        return {x: table[x] for x in fibers[key[0]]}

    data = FinXiSet(cap, fibers, {key: restrict(key, t) for key, t in U.faces.items()},
                    {key: restrict(key, t) for key, t in U.degens.items()})
    if U.stable_from is not None:
        data = replace(data, stable_from=nondeg_bound(i_star(data)))
    interval = AlgebraicInterval(data)

    comps = {}
    for k in range(0, cap + 1):
        top = X.faces[(k + 1, k + 1)]
        bot = X.faces[(k + 2, 0)]
        comps[k] = {x: top[bot[x]] for x in fibers[k]}
    embed = SSetMap(i_star(data), X, comps)
    return interval, embed


def factorisation_intervals(X, arrows=None):
    """The interval and embedding of each arrow (every arrow of X by
    default), cut in one sweep over X's memoised long-edge `fibres`."""
    from decomp.axioms import check_complete
    from decomp.interval import AlgebraicInterval, IntervalError
    from decomp.presheaf import CapError, FinXiSet, SSetMap, fibres, i_star, nondeg_bound, u_star

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
        comps = {}
        for k in range(0, cap + 1):
            top = X.faces[(k + 1, k + 1)]
            bot = X.faces[(k + 2, 0)]
            comps[k] = {x: top[bot[x]] for x in fibers[k]}
        out[a] = (AlgebraicInterval(data),
                  SSetMap(i_star(data), X, comps))
    return out


def classify_by_arrow(X, reg):
    """The classifying map with every arrow's interval cut and labelled,
    none read off an arrow table, and the same homomorphism check."""
    from decomp.axioms import check_mobius
    from decomp.incidence import NotCertified, _homomorphism, registry_comult
    from decomp.interval import canonicalize
    from decomp.registry import RegistryError
    from decomp.report import Report

    rep = Report("classify")
    cert = check_mobius(X)
    if not cert.ok:
        raise NotCertified("Mobius conditions not certified:\n" + str(cert))
    mapping = {}
    for a, (iv, _) in factorisation_intervals(X).items():
        digest = canonicalize(iv).digest
        if digest not in reg.entries:
            raise RegistryError(
                f"registry is not closed: arrow {a!r} classifies to "
                f"{digest[:12]} which is missing")
        mapping[a] = digest
    _homomorphism(rep, X, mapping, registry_comult(reg), "not-a-coalgebra-homomorphism")
    return mapping, rep


def arrow_table_by_arrow(c):
    """The arrow table of the interval class c with every arrow's interval
    cut from c's category nerve and labelled, none read off another table."""
    from decomp.interval import canonicalize, category_nerve

    return {j: canonicalize(iv).digest
            for j, (iv, _) in factorisation_intervals(category_nerve(c)).items()}


def longest_edge_fiber(data, k, nondegenerate=False):
    """The k-simplices over the longest edge of the interval data, read off
    the long-edge fibres of its underlying simplicial set."""
    from decomp.interval import longest_edge
    from decomp.presheaf import fibres, i_star

    return fibres(i_star(data), k, nondegenerate)[longest_edge(data)]


def certify_by_top_interval(c):
    """The status, longest-edge profile and nondegenerate total of the
    Mobius certificate of the interval class c, read off the top interval
    cut from the nerve of its category built two levels above its object
    count less one, which bounds the length of a string of non-identity
    arrows when no such string closes a cycle, rather than off that nerve
    itself.  The profile runs up to the longest edge's tightness bound."""
    from decomp.axioms import check_mobius
    from decomp.interval import extend_interval, longest_edge
    from decomp.presheaf import fibres, i_star, nondegenerate

    bound = len(c.canonical.data.levels[0]) - 1
    top = extend_interval(c.canonical, bound + 2).data
    under = i_star(top)
    cert = check_mobius(under)
    length = cert.data["bounds"][longest_edge(top)] if cert.ok else bound
    profile = [len(fibres(under, r, True)[longest_edge(top)]) for r in range(length + 1)]
    total = sum(len(nondegenerate(under, r)) for r in range(under.cap + 1))
    return cert.status, profile, total


def subdivisions_by_extension(c, k, nondegenerate=False):
    """The k-simplices over the longest edge of the interval class c, read
    on its canonical form up to its cap and, above it, on the interval
    rebuilt at cap k through its arrow category and cut out of that nerve."""
    from decomp.interval import extend_interval

    data = c.canonical.data
    if k > data.cap:
        data = extend_interval(c.canonical, k).data
    return sorted(longest_edge_fiber(data, k, nondegenerate))


# ---------------------------------------------------------------------------
# Möbius lengths: one computation per kind of spec, on its own relation


def longest_strict_chain(spec):
    """The longest strict chain of a poset, by depth over all pairs."""
    depth = {e: 0 for e in spec.elements}
    order = sorted(spec.elements, key=lambda e: sum(
        1 for z in spec.elements if spec.leq(z, e)))
    for b in order:
        for a in spec.elements:
            if a != b and spec.leq(a, b):
                depth[b] = max(depth[b], depth[a] + 1)
    return max(depth.values(), default=0)


def monoid_chain_bound(spec):
    """Longest defined product of non-unit elements; a monoid whose
    factorisations never die out raises the SpecError that names the
    least element of the first repeated frontier of products."""
    from decomp.ingest import SpecError

    e = spec.unit
    nonunits = frozenset(x for x in spec.elements if x != e)
    current = nonunits
    seen = set()
    length = 0
    while current:
        if current in seen:
            witness = sorted(current)[0]
            raise SpecError(
                "decomposition property fails: element "
                f"{witness} admits arbitrarily long factorisations")
        seen.add(current)
        length += 1
        nxt = set()
        for x in current:
            for u in nonunits:
                xu = spec.mul(x, u)
                if xu is not None:
                    nxt.add(xu)
        current = frozenset(nxt)
    return length


def category_chain_bound(spec):
    """Longest identity-free composable string, None when unbounded, by a
    frontier of last arrows."""
    nonid = [f for f in spec.arrows if not spec.is_identity(f)]
    frontier = set(nonid)
    seen = set()
    length = 0
    while frontier:
        key = frozenset(frontier)
        if key in seen:
            return None
        seen.add(key)
        length += 1
        frontier = {g for f in frontier for g in nonid
                    if spec.tgt(f) == spec.src(g)}
    return length


# ---------------------------------------------------------------------------
# nerves: every string built as a tuple, every face sliced or composed afresh


def nerve_poset(spec, cap):
    """One simplex per weakly increasing chain, ids joined by '≤'; each face
    and degeneracy slices the chain's vertex tuple."""
    ups = spec.up_sets()
    sep = "≤"
    chains = {0: [(e,) for e in spec.elements]}
    for k in range(1, cap + 1):
        chains[k] = [c + (b,) for c in chains[k - 1] for b in ups[c[-1]]]
    name = {c: intern(sep.join(c)) for k in chains for c in chains[k]}
    levels = {k: [name[c] for c in sorted(chains[k])] for k in range(cap + 1)}
    faces = {}
    degens = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            faces[(k, i)] = {name[c]: name[c[:i] + c[i + 1:]] for c in chains[k]}
    for k in range(cap):
        for j in range(k + 1):
            degens[(k, j)] = {name[c]: name[c[:j + 1] + c[j:]] for c in chains[k]}
    return FinSSet(cap, levels, faces, degens,
                   stable_from=min(longest_strict_chain(spec), cap))


def nerve_monoid(spec, cap):
    """One object; k-simplices are strings with every product defined, ids
    joined by '+'; each inner face asks the spec for its product."""
    e = spec.unit
    strings = {0: [()]}
    products = {(): e}
    for k in range(1, cap + 1):
        nxt = []
        for s in strings[k - 1]:
            for m in spec.elements:
                p = spec.mul(products[s], m)
                if p is not None:
                    t = s + (m,)
                    products[t] = p
                    nxt.append(t)
        strings[k] = sorted(nxt)
    name = {s: intern("+".join(s) if s else "*") for k in strings for s in strings[k]}
    levels = {k: [name[s] for s in strings[k]] for k in range(cap + 1)}
    faces = {}
    degens = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            table = {}
            for s in strings[k]:
                if i == 0:
                    out = s[1:]
                elif i == k:
                    out = s[:-1]
                else:
                    out = s[:i - 1] + (spec.mul(s[i - 1], s[i]),) + s[i + 1:]
                table[name[s]] = name[out]
            faces[(k, i)] = table
    for k in range(cap):
        for j in range(k + 1):
            degens[(k, j)] = {name[s]: name[s[:j] + (e,) + s[j:]] for s in strings[k]}
    return FinSSet(cap, levels, faces, degens,
                   stable_from=min(monoid_chain_bound(spec), cap))


def nerve_category(spec, cap):
    """k-simplices are composable arrow strings, ids joined by '*'; each
    level re-sorts the arrows for every string, and each inner face asks
    the spec for its composite."""
    strings = {1: [(f,) for f in sorted(spec.arrows)]}
    for k in range(2, cap + 1):
        strings[k] = [s + (g,) for s in strings[k - 1] for g in sorted(spec.arrows)
                      if spec.tgt(s[-1]) == spec.src(g)]
    name = {s: intern("*".join(s)) for k in strings for s in strings[k]}
    name.update({(x,): intern(x) for x in spec.objects})
    levels = {0: sorted(name[(x,)] for x in spec.objects)}
    levels.update({k: sorted(name[s] for s in strings[k]) for k in range(1, cap + 1)})
    faces = {}
    degens = {}
    for k in range(1, cap + 1):
        for i in range(k + 1):
            table = {}
            for s in strings[k]:
                if k == 1:
                    out = (spec.tgt(s[0]) if i == 0 else spec.src(s[0]),)
                elif i == 0:
                    out = s[1:]
                elif i == k:
                    out = s[:-1]
                else:
                    out = s[:i - 1] + (spec.compose(s[i - 1], s[i]),) + s[i + 1:]
                table[name[s]] = name[out]
            faces[(k, i)] = table
    degens[(0, 0)] = {name[(x,)]: name[(spec.identities[x],)] for x in spec.objects}
    for k in range(1, cap):
        for j in range(k + 1):
            table = {}
            for s in strings[k]:
                at = spec.src(s[0]) if j == 0 else spec.tgt(s[j - 1])
                table[name[s]] = name[s[:j] + (spec.identities[at],) + s[j:]]
            degens[(k, j)] = table
    bound = category_chain_bound(spec)
    stable = None if bound is None else min(bound, cap)
    return FinSSet(cap, levels, faces, degens, stable_from=stable)


# ---------------------------------------------------------------------------
# axiom checks on id tables: pullback squares counted on names, spines as
# tuples of ids against the strings of edges, every naturality square one
# simplex at a time


def pullback_by_counting(P, A, B, p, q, f, g) -> bool:
    """True if the square commutes, P injects into A x B, and the pairs
    are as many as A x_C B has elements, all counted on ids."""
    pa = list(map(p.__getitem__, P))
    qb = list(map(q.__getitem__, P))
    if list(map(f.__getitem__, pa)) != list(map(g.__getitem__, qb)):
        return False
    if len(set(zip(pa, qb))) != len(P):
        return False
    if not (set(A).issuperset(pa) and set(B).issuperset(qb)):
        return False
    over_b = Counter(map(g.__getitem__, B))
    return len(P) == sum(map(over_b.__getitem__, map(f.__getitem__, A)))


def indexed_square(P, A, B, p, q, f, g):
    """The square of id tables as `pullback_failure` takes it: the id lists
    P, A and B, then p and q as positions in A and B, and f and g as
    positions of the ids of C they reach.  A table that is not total, or
    an image outside A or B, raises KeyError."""
    at_a = dict(zip(A, range(len(A))))
    at_b = dict(zip(B, range(len(B))))
    corner = {}
    return (P, A, B,
            list(map(at_a.__getitem__, map(p.__getitem__, P))),
            list(map(at_b.__getitem__, map(q.__getitem__, P))),
            [corner.setdefault(f[a], len(corner)) for a in A],
            [corner.setdefault(g[b], len(corner)) for b in B])


def pullback_issue(P, A, B, p, q, f, g):
    """None for a pullback square, else the reason the enumeration names,
    a non-commuting square included."""
    try:
        if pullback_by_counting(P, A, B, p, q, f, g):
            return None
    except KeyError:
        pass
    try:
        return pullback_failure_by_enumeration(P, A, B, p, q, f, g)
    except ValueError as exc:
        return str(exc)


def _composable_strings_by_ids(X, k):
    """Every k-string of edges glued tail to head, as edge ids, in the
    order of level 1."""
    d0, d1 = X.faces[(1, 0)], X.faces[(1, 1)]
    strings = [(e,) for e in X.levels[1]]
    for _ in range(k - 1):
        strings = [s + (e,) for s in strings for e in X.levels[1] if d1[e] == d0[s[-1]]]
    return strings


def _composable_count(X, k):
    """Number of k-strings of edges glued tail to head, counted through
    the heads of the (k-1)-strings."""
    d0, d1 = X.faces[(1, 0)], X.faces[(1, 1)]
    counts = dict.fromkeys(X.levels[1], 1)
    for _ in range(k - 1):
        by_head = Counter()
        for e, c in counts.items():
            by_head[d0[e]] += c
        counts = {e: by_head[d1[e]] for e in X.levels[1]}
    return sum(counts.values())


def check_segal_by_spines(X):
    """Segal, with each simplex's spine a tuple of edge ids read from its
    principal-edge tables, against the number of strings of edges."""
    from decomp.presheaf import sset_action
    from decomp.report import Report

    rep = Report("check_segal")
    for k in range(2, X.cap + 1):
        tables = [sset_action(X, MonotoneMap(1, k, (i, i + 1))) for i in range(k)]
        spine = {x: tuple(t[x] for t in tables) for x in X.levels[k]}
        seen = {}
        collision = False
        for x, s in spine.items():
            if s in seen:
                rep.fail(degree=k, witness=(seen[s], x), note="spine-collision")
                collision = True
            seen[s] = x
        if not collision and len(spine) != _composable_count(X, k):
            missing = next(s for s in _composable_strings_by_ids(X, k) if s not in seen)
            rep.fail(degree=k, witness=missing, note="no-filler")
    rep.verified_upto = X.cap
    return rep


def check_segal_by_squares(X):
    """Segal, each square of outer faces X_{n+1} -> X_n x_{X_{n-1}} X_n,
    front face first, decided on id tables by enumeration."""
    from decomp.report import Report

    rep = Report("check_segal")
    squares = Counter()
    for n in range(1, X.cap):
        squares[n + 1] += 1
        bad = pullback_issue(X.levels[n + 1], X.levels[n], X.levels[n], X.faces[(n + 1, n + 1)],
                             X.faces[(n + 1, 0)], X.faces[(n, 0)], X.faces[(n, n)])
        if bad is not None:
            rep.fail(degree=n + 1, note=bad)
    rep.data["squares"] = dict(squares)
    rep.verified_upto = X.cap
    return rep


def check_map_class_by_names(F, cls="culf"):
    """Each naturality square on degeneracies and inner faces, on ids."""
    from decomp.report import Report

    rep = Report(f"check_map_class[{cls}]")
    Y, X = F.dom, F.cod
    if cls in ("conservative", "culf"):
        for k in range(0, Y.cap):
            for j in range(k + 1):
                bad = pullback_issue(Y.levels[k], Y.levels[k + 1], X.levels[k],
                                     Y.degens[(k, j)], F.components[k],
                                     F.components[k + 1], X.degens[(k, j)])
                if bad is not None:
                    rep.fail(degree=k, note=f"s{j}:{bad}")
    if cls in ("ulf", "culf"):
        for k in range(2, Y.cap + 1):
            for i in range(1, k):
                bad = pullback_issue(Y.levels[k], Y.levels[k - 1], X.levels[k],
                                     Y.faces[(k, i)], F.components[k],
                                     F.components[k - 1], X.faces[(k, i)])
                if bad is not None:
                    rep.fail(degree=k, note=f"d{i}:{bad}")
    rep.verified_upto = Y.cap
    return rep


def decalage_squares(X) -> int:
    """The squares the decalage check of X decides, counted from the cap:
    each decalage, at cap c = X.cap - 1, has c - 1 Segal squares, and its
    counit one culf square per degeneracy and per inner face."""
    c = X.cap - 1
    return 2 * (c - 1 + sum(k + 1 for k in range(c)) + sum(k - 1 for k in range(2, c + 1)))


def check_decomposition_by_names(X, method):
    """The exactness check, every pullback square on id tables: the direct
    squares of all generic-free pushouts under the cap, or both decalages
    Segal with culf counits, or both cross-checked."""
    from decomp.presheaf import CapError, actions, dec_bot, dec_top, sset_action
    from decomp.report import Report
    from decomp.simplex import free_generators, generic_generators, pushout_generic_free

    rep = Report(f"check_decomposition[{method}]")
    if X.cap < 3:
        raise CapError("decomposition check needs cap >= 3")
    base = validate_sset_by_simplex(X)
    if not base.ok:
        rep.absorb(base)
        return rep
    if method == "both":
        direct = check_decomposition_by_names(X, "direct")
        deca = check_decomposition_by_names(X, "decalage")
        if direct.status != deca.status:
            rep.fail(note=f"methods-disagree:{direct.status}/{deca.status}")
        rep.absorb(direct)
        rep.absorb(deca)
    elif method == "decalage":
        direct = check_decomposition_by_names(X, "direct")
        rep.data["shared"] = decalage_squares(X) if direct.ok else 0
        for which, dec in (("top", dec_top), ("bot", dec_bot)):
            D, counit = dec(X)
            seg = check_segal_by_squares(D)
            if not seg.ok:
                rep.fail(note=f"dec_{which}-not-segal")
                rep.absorb(seg)
            culf = check_map_class_by_names(counit, "culf")
            if not culf.ok:
                rep.fail(note=f"dec_{which}-counit-not-culf")
                rep.absorb(culf)
    else:
        act = actions(X)
        before = act.compositions
        squares = {}
        for m in range(0, X.cap + 1):
            for g in generic_generators(m):
                for f in free_generators(m):
                    corner = g.tgt + 1
                    if corner > X.cap or f.tgt > X.cap:
                        continue
                    squares[corner] = squares.get(corner, 0) + 1
                    f2, g2 = pushout_generic_free(g, f)
                    bad = pullback_issue(X.levels[f2.tgt], X.levels[g.tgt], X.levels[f.tgt],
                                         *(sset_action(X, a) for a in (f2, g2, g, f)))
                    if bad is not None:
                        rep.fail(degree=corner, note=f"pushout({g},{f}):{bad}")
        rep.data["squares"] = squares
        rep.data["compositions"] = act.compositions - before
    rep.verified_upto = X.cap
    return rep


def _counted_pullback_per_square(p, q, f, g):
    """The counting kernel as it was before fibre counts were shared: the
    pair test and `Counter(g)` made afresh for every square."""
    from decomp.presheaf import _gather

    if _gather(f, p) != _gather(g, q) or len(set(zip(p, q))) != len(p):
        return False
    over = Counter(g)
    return len(p) == sum(map(over.get, f, [0] * len(f)))


def pullback_failure_per_square(P, A, B, p, q, f, g):
    """`presheaf.pullback_failure` as it was on the per-square kernel: a
    rejected square enumerated in the order of P, then of A and B."""
    if _counted_pullback_per_square(p, q, f, g):
        return None
    seen = {}
    for n, (a, b) in enumerate(zip(p, q)):
        if f[a] != g[b]:
            return f"square-does-not-commute:{P[n]}"
        if (a, b) in seen:
            return f"comparison-not-injective:{P[seen[a, b]]},{P[n]}"
        seen[a, b] = n
    by_corner = {}
    for b, c in enumerate(g):
        by_corner.setdefault(c, []).append(b)
    for a, c in enumerate(f):
        for b in by_corner.get(c, ()):
            if (a, b) not in seen:
                return f"missing-fiber-pair:{A[a]},{B[b]}"
    return "kernel-and-enumeration-disagree"


def check_decomposition_per_square(X, method):
    """The exactness check as it was before its squares were listed once
    per cap: every direct square's pushout made in the loop and decided by
    the per-square kernel, each counit square matched against a pushout
    made afresh."""
    from decomp.axioms import check_map_class, check_segal
    from decomp.presheaf import CapError, _map_squares, actions, dec_bot, dec_top, validate_sset
    from decomp.report import Report
    from decomp.simplex import (codegeneracy, coface, free_generators, generic_generators,
                                pushout_generic_free)

    def squares_shared(counit, act, top):
        for letter, k, i, square in _map_squares(counit, "culf"):
            g = codegeneracy(k + 1, i) if letter == "s" else coface(k - 1, i)
            f = free_generators(g.src)[top]
            f2, g2 = pushout_generic_free(g, f)
            if square[3:] != tuple(map(act.index, (g2, f2, f, g))):
                return False
        return True

    rep = Report(f"check_decomposition[{method}]")
    if X.cap < 3:
        raise CapError("decomposition check needs cap >= 3")
    base = validate_sset(X)
    if not base.ok:
        rep.absorb(base)
        return rep
    if method == "both":
        direct = check_decomposition_per_square(X, "direct")
        deca = check_decomposition_per_square(X, "decalage")
        if direct.status != deca.status:
            rep.fail(note=f"methods-disagree:{direct.status}/{deca.status}")
        rep.absorb(direct)
        rep.absorb(deca)
    elif method == "decalage":
        direct = check_decomposition_per_square(X, "direct")
        rep.data["shared"] = decalage_squares(X) if direct.ok else 0
        for which, dec in (("top", dec_top), ("bot", dec_bot)):
            D, counit = dec(X)
            seg = check_segal(D)
            if not seg.ok:
                rep.fail(note=f"dec_{which}-not-segal")
                rep.absorb(seg)
            if direct.ok and squares_shared(counit, actions(X), which == "top"):
                continue
            culf = check_map_class(counit, "culf")
            if not culf.ok:
                rep.fail(note=f"dec_{which}-counit-not-culf")
                rep.absorb(culf)
    else:
        act = actions(X)
        before = act.compositions
        squares = {}
        for m in range(0, X.cap + 1):
            for g in generic_generators(m):
                for f in free_generators(m):
                    corner = g.tgt + 1
                    if corner > X.cap or f.tgt > X.cap:
                        continue
                    squares[corner] = squares.get(corner, 0) + 1
                    f2, g2 = pushout_generic_free(g, f)
                    bad = pullback_failure_per_square(
                        X.levels[f2.tgt], X.levels[g.tgt], X.levels[f.tgt],
                        *map(act.index, (f2, g2, g, f)))
                    if bad is not None:
                        rep.fail(degree=corner, note=f"pushout({g},{f}):{bad}")
        rep.data["squares"] = squares
        rep.data["compositions"] = act.compositions - before
    rep.verified_upto = X.cap
    return rep


def validate_sset_map_by_simplex(F):
    """Totality of each component, then naturality simplex by simplex."""
    from decomp.report import Report

    rep = Report("validate_map")
    X, Y = F.dom, F.cod
    if X.cap > Y.cap:
        rep.fail(note="dom-cap-exceeds-cod-cap")
        return rep
    for k in range(0, X.cap + 1):
        if k not in F.components:
            rep.fail(degree=k, note="missing-component")
            continue
        _totality_by_item(rep, f"F[{k}]", F.components[k], X.levels[k], Y.levels[k])
    for k in sorted(F.components):
        if not 0 <= k <= X.cap:
            rep.fail(degree=k, note="extra-component")
    if not rep.ok:
        return rep
    for k in range(1, X.cap + 1):
        for i in range(k + 1):
            fk, fk1 = F.components[k], F.components[k - 1]
            dX, dY = X.faces[(k, i)], Y.faces[(k, i)]
            for x in X.levels[k]:
                if fk1[dX[x]] != dY[fk[x]]:
                    rep.fail(degree=k, witness=(x,), note=f"naturality-d{i}")
    for k in range(0, X.cap):
        for j in range(k + 1):
            fk, fk1 = F.components[k], F.components[k + 1]
            sX, sY = X.degens[(k, j)], Y.degens[(k, j)]
            for x in X.levels[k]:
                if fk1[sX[x]] != sY[fk[x]]:
                    rep.fail(degree=k, witness=(x,), note=f"naturality-s{j}")
    rep.verified_upto = X.cap
    return rep


def validate_xiset_map_by_simplex(G):
    """Totality of each component, then naturality against every site
    generator, simplex by simplex."""
    from decomp.presheaf import _generator_table
    from decomp.report import Report

    rep = Report("validate_map")
    A, B = G.dom, G.cod
    if A.cap > B.cap:
        rep.fail(note="dom-cap-exceeds-cod-cap")
        return rep
    for k in range(-1, A.cap + 1):
        if k not in G.components:
            rep.fail(degree=k, note="missing-component")
            continue
        _totality_by_item(rep, f"G[{k}]", G.components[k], A.levels[k], B.levels[k])
    for k in sorted(G.components):
        if not -1 <= k <= A.cap:
            rep.fail(degree=k, note="extra-component")
    if not rep.ok:
        return rep
    for name, arrow, tA in xi_generators(A):
        tB = _generator_table(B, arrow.rep, 2)
        ga, gb = G.components[arrow.src], G.components[arrow.tgt]
        for x in A.levels[arrow.tgt]:
            if ga[tA[x]] != tB[gb[x]]:
                rep.fail(degree=arrow.tgt, witness=(x,), note=f"naturality-{name}")
    rep.verified_upto = A.cap
    return rep


# ---------------------------------------------------------------------------
# interval-site presheaves through their site arrows: each generator as the
# monotone map two degrees up that represents it, each relation as a
# composable pair of generators


def _xi_keys(cap):
    """The face and degeneracy keys of an interval-site presheaf of cap."""
    faces = [(k, i) for k in range(1, cap + 1) for i in range(k + 1)] + [(0, 0)]
    degens = [(k, j) for k in range(cap) for j in range(k + 1)]
    return faces, degens + [(k, j) for k in range(-1, cap) for j in (-1, k + 1)]


def _xi_name(letter, k, i):
    if letter == "d":
        return "dnew" if (k, i) == (0, 0) else f"d[{k},{i}]"
    return {-1: f"sbot[{k}]", k + 1: f"stop[{k}]"}.get(i, f"s[{k},{i}]")


def xi_generators(A):
    """The site generators acting on A whose tables A has, as (name, arrow,
    table) triples in XISET order: d_0 at degree 0 is `dnew`, and s_{-1}
    and s_{k+1} at degree k are `sbot[k]` and `stop[k]`."""
    faces, degens = _xi_keys(A.cap)
    gens = [(_xi_name("d", k, i), XiMap(k - 1, k, coface(k + 1, i + 1)), A.faces[(k, i)])
            for k, i in faces if (k, i) in A.faces]
    gens += [(_xi_name("s", k, j), XiMap(k + 1, k, codegeneracy(k + 3, j + 1)),
              A.degens[(k, j)]) for k, j in degens if (k, j) in A.degens]
    return gens


def validate_xiset_by_pairs(A):
    """The interval-site validator through site arrows: shape table by table
    (each missing or extra table named by its degree, kind and XISET name,
    each entry at fault by the table's XISET name), then every composable pair of generators (u, v) against
    the walk of the normal-form word of their composite, one simplex at a
    time.  A pair in normal form is compared with itself and passes."""
    from decomp.report import Report

    rep = Report("validate")
    if sorted(A.levels) != list(range(-1, A.cap + 1)):
        rep.fail(note="levels-do-not-match-cap")
        return rep
    for k in range(-1, A.cap + 1):
        if len(set(A.levels[k])) != len(A.levels[k]):
            rep.fail(degree=k, note="duplicate-identifiers")
    faces, degens = _xi_keys(A.cap)
    kinds = (("d", "face", A.faces, faces, -1), ("s", "degeneracy", A.degens, degens, 1))
    for letter, kind, tables, keys, step in kinds:
        for k, i in keys:
            if (k, i) not in tables:
                rep.fail(degree=k, note=f"missing-{kind}-{_xi_name(letter, k, i)}")
            else:
                _totality_by_item(rep, _xi_name(letter, k, i), tables[(k, i)],
                                  A.levels[k], A.levels[k + step], k)
    for letter, kind, tables, keys, _ in kinds:
        for k, i in sorted(tables.keys() - set(keys)):
            rep.fail(degree=k, note=f"extra-{kind}-{_xi_name(letter, k, i)}")
    if not rep.ok:
        return rep
    gens = xi_generators(A)
    for uname, u, tu in gens:
        for vname, v, tv in gens:
            if u.tgt != v.src:
                continue
            w = xi_compose(u, v)
            want = _action(A, w.rep, 2)
            for x in A.levels[w.tgt]:
                if tu[tv[x]] != want[x]:
                    rep.fail(degree=w.tgt, witness=(x,), note=f"relation:{uname};{vname}")
    if A.stable_from is not None:
        for k in range(A.stable_from + 1, A.cap + 1):
            degenerate = set()
            for j in range(k):
                degenerate.update(A.degens[(k - 1, j)].values())
            for x in A.levels[k]:
                if x not in degenerate:
                    rep.fail(degree=k, witness=(x,), note="stable_from-violated")
    rep.verified_upto = A.cap
    return rep


def cartesian_report_by_generators(G):
    """Cartesianness of an interval-site map, one naturality square per
    site generator, each counted on ids."""
    from decomp.presheaf import _generator_table
    from decomp.report import Report

    rep = Report("check_map_class[culf]")
    A, B = G.dom, G.cod
    for name, arrow, tA in xi_generators(A):
        bad = pullback_issue(A.levels[arrow.tgt], A.levels[arrow.src], B.levels[arrow.tgt],
                             tA, G.components[arrow.tgt], G.components[arrow.src],
                             _generator_table(B, arrow.rep, 2))
        if bad is not None:
            rep.fail(degree=arrow.tgt, note=f"{name}:{bad}")
    rep.verified_upto = A.cap
    return rep


def flanked_bonus_report(A):
    """The squares of each extra outer degeneracy, sbot and stop, against
    every face d_i and every degeneracy s_j, each counted on ids; the two
    per degree that `check_flanked` tests are among them."""
    from decomp.report import Report

    rep = Report("flanked_bonus")

    def square(n, step, note, p, q, f, g):
        bad = pullback_issue(A.levels[n], A.levels[n + step], A.levels[n + 1], p, q, f, g)
        if bad is not None:
            rep.fail(degree=n, note=f"{note}:{bad}")

    d, s = A.faces, A.degens
    for n in range(A.cap):
        for i in range(n + 1):
            square(n, -1, f"sbot-d{i}", d[n, i], s[n, -1], s[n - 1, -1], d[n + 1, i + 1])
            square(n, -1, f"stop-d{i}", d[n, i], s[n, n + 1], s[n - 1, n], d[n + 1, i])
    for n in range(A.cap - 1):
        for j in range(-1, n + 1):
            square(n, 1, f"sbot-s{j}", s[n, j], s[n, -1], s[n + 1, -1], s[n + 1, j + 1])
            square(n, 1, f"stop-s{j}", s[n, j], s[n, n + 1], s[n + 1, n + 2], s[n + 1, j])
    rep.verified_upto = A.cap - 1
    return rep


def registry_comult_by_fragment(reg):
    """The registry coalgebra on the degree-2 level of the fragment, whose
    outer faces cut and label the interval of every edge they meet."""
    from decomp.registry import build_fragment

    frag = build_fragment(reg, top=2)
    pairs = {d: Counter() for d in reg.entries}
    for digest, x in frag.levels[2]:
        lower = frag.faces[(2, 2)][(digest, x)][0]
        upper = frag.faces[(2, 0)][(digest, x)][0]
        pairs[digest][(lower, upper)] += 1
    zero = {d for d, _ in frag.levels[0]}
    counit = {d: 1 if d in zero else 0 for d in reg.entries}
    return pairs, counit


def registry_comult_by_midpoints(reg):
    """The registry coalgebra read off level 2 of each class's canonical
    form: the classes of the d2 and d0 edges of each 2-simplex over the
    longest edge.  Below cap 2 those are the two degeneracies of the
    longest edge, which coincide when it is degenerate itself.  The counit
    is 1 exactly on classes with a 0-simplex over the longest edge."""
    from decomp.interval import longest_edge

    pairs, counit = {}, {}
    for digest, entry in reg.entries.items():
        table, data = reg.arrow_table(digest), entry.interval.canonical.data
        if data.cap >= 2:
            d2, d0 = data.faces[(2, 2)], data.faces[(2, 0)]
            mids = [(d2[x], d0[x]) for x in longest_edge_fiber(data, 2)]
        else:
            top, s0 = longest_edge(data), data.degens[(0, 0)]
            mids = sorted({(s0[data.faces[(1, 1)][top]], top),
                           (top, s0[data.faces[(1, 0)][top]])})
        pairs[digest] = Counter((table[lo], table[up]) for lo, up in mids)
        counit[digest] = 1 if longest_edge_fiber(data, 0) else 0
    return pairs, counit


def is_closed(reg) -> bool:
    """Does every entry's arrow table, filled where missing, name only
    entries?"""
    return all(set(reg.arrow_table(digest).values()) <= reg.entries.keys()
               for digest in reg.entries)


def close_by_work_list(reg):
    """The closure as a work-list over entry digests: pop an entry, make its
    arrow table if it has none, and insert and queue each class the table
    names that is not an entry, as a table made on the way found it, or
    else cut from the entry's category nerve at the first arrow naming it."""
    from decomp.interval import canonicalize, category_nerve, factorisation_interval

    found, queue = {}, list(reg.entries)
    while queue:
        entry = reg.entries[queue.pop()]
        first = {}
        for j, sub in sorted(reg._table(entry.interval, found).items()):
            if sub not in reg.entries:
                first.setdefault(sub, j)
        for sub, j in first.items():
            cls = found[sub][0] if sub in found else canonicalize(
                factorisation_interval(category_nerve(entry.interval), j)[0])
            queue.append(reg.insert(cls))
    return reg


def fragment_by_extensions(reg, top):
    """The fragment of U read on extended intervals: each class rebuilt from
    its arrow category at cap max(top + 1, objects - 1) + 2, its top interval
    cut out with the embedding back, and its ids read in interval coordinates
    (flanked chains, an identity on each side).  Every arrow interval of an
    extension is cut at its first use, and each outer face is carried through
    the embedding and then through the cut subinterval."""
    from decomp.ingest import nerve_category
    from decomp.interval import (
        canonicalize_with_map,
        factorisation_interval,
        interval_category,
        longest_edge,
    )
    from decomp.presheaf import actions, i_star, long_edge_table
    from decomp.registry import Fragment, RegistryError
    from decomp.simplex import MonotoneMap

    exts = {}
    for digest, entry in reg.entries.items():
        canon = entry.interval.canonical
        X = nerve_category(interval_category(canon.data),
                           max(top + 1, len(canon.data.levels[0]) - 1) + 2)
        interval, embed = factorisation_interval(X, longest_edge(canon.data))
        exts[digest] = (interval.data, X, embed)

    levels = {k: [(digest, x) for digest in sorted(reg.entries)
                  for x in sorted(longest_edge_fiber(exts[digest][0], k))]
              for k in range(top + 1)}
    cuts, cache = {}, {}

    def subinterval(digest, arrow):
        if (digest, arrow) not in cache:
            if digest not in cuts:
                cuts[digest] = factorisation_intervals(exts[digest][1])
            sub, _ = cuts[digest][arrow]
            cls, relabel = canonicalize_with_map(sub)
            if cls.digest not in reg.entries:
                raise RegistryError(f"registry is not closed: missing {cls.digest[:12]}")
            cache[(digest, arrow)] = (cls.digest, relabel[1], sub.data)
        return cache[(digest, arrow)]

    def outer_face(digest, x, k, i):
        data, N, embed = exts[digest]
        tau = data.faces[(k, i)][x]
        ell = long_edge_table(i_star(data), k - 1)[tau]
        sub_digest, sub_arrows, sub = subinterval(digest, embed.components[1][ell])
        tau_n = embed.components[k - 1][tau]
        flank = N.degens[(k, 0)][N.degens[(k - 1, k - 1)][tau_n]]
        at = sub.levels[k - 1].index(flank)
        act = actions(sub)
        chain = [sub.levels[1][act.index(MonotoneMap(3, k + 1, (0, pos - 1, pos, k + 1)))[at]]
                 for pos in range(1, k + 2)]
        return sub_digest, "*".join(sub_arrows[h] for h in chain)

    faces = {}
    for k in range(1, top + 1):
        for i in range(k + 1):
            faces[(k, i)] = {
                (digest, x): (digest, exts[digest][0].faces[(k, i)][x]) if 0 < i < k
                else outer_face(digest, x, k, i)
                for digest, x in levels[k]}
    return Fragment(top, levels, faces, {digest: ext[1] for digest, ext in exts.items()})


# ---------------------------------------------------------------------------
# SSET/XISET text: every table body parsed entry by entry


def lines_by_splitlines(text):
    """(lineno, line) for each line of text that is not blank once its
    comment is cut, from one `str.splitlines` of the whole text."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield lineno, line


def parse_levelled_by_entries(text, source, header):
    """The FinSSet or FinXiSet of a levelled file, every table body read by
    `formats._entries`, and its ParseError texts those of the library."""
    from decomp.formats import ParseError, _directives, _entries, _int, _once
    from decomp.presheaf import FinXiSet

    cap = stable = None
    levels, faces, degens = {}, {}, {}
    xi = False
    seen = set()

    def store(table, key, directive, body, lineno):
        if key in table:
            raise ParseError(source, lineno, f"duplicate directive '{directive}'")
        table[key] = _entries(body, source, lineno)

    for lineno, line in _directives(text, source, header):
        key, _, rest = line.partition(" ")
        head, _, body = rest.partition(":")
        if key == "cap":
            _once(seen, key, source, lineno)
            cap = _int(rest.strip(), source, lineno)
        elif key == "stable":
            _once(seen, key, source, lineno)
            stable = _int(rest.strip(), source, lineno)
            if stable < -1:
                raise ParseError(source, lineno, f"stable degree {stable} below -1")
        elif key == "level":
            k = _int(head.strip(), source, lineno)
            ids = body.split()
            for tok in ids:
                if "->" in tok or ";" in tok:
                    raise ParseError(source, lineno,
                                     f"identifier {tok!r} uses reserved characters")
            if k in levels:
                raise ParseError(source, lineno, f"duplicate level {k}")
            levels[k] = [intern(tok) for tok in ids]
        elif key in ("d", "s"):
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(source, lineno, f"expected '{key} <k> <i>:'")
            k, i = (_int(p, source, lineno) for p in parts)
            if not 0 <= i <= k or (key == "d" and k < 1):
                raise ParseError(source, lineno, f"index out of range in '{key} {k} {i}'")
            store(faces if key == "d" else degens, (k, i), f"{key} {k} {i}", body, lineno)
        elif line.partition(":")[0].rstrip() == "dnew":
            xi = True
            store(faces, (0, 0), "dnew", line.partition(":")[2], lineno)
        elif key in ("sbot", "stop"):
            xi = True
            k = _int(head.strip(), source, lineno)
            if k < -1:
                raise ParseError(source, lineno, f"index out of range in '{key} {k}'")
            store(degens, (k, -1 if key == "sbot" else k + 1), f"{key} {k}", body, lineno)
        else:
            raise ParseError(source, lineno, f"unknown directive {key!r}")
    if cap is None:
        raise ParseError(source, 0, "missing cap")
    if header == "SSET v1":
        if xi:
            raise ParseError(source, 0, "interval-site directives in an SSET file")
        return FinSSet(cap, levels, faces, degens, stable)
    return FinXiSet(cap, levels, faces, degens, stable)


# ---------------------------------------------------------------------------
# SSET/XISET/SMAP text: every table written entry by entry from its ids


def _entries_line(lead, table):
    body = " ; ".join(f"{a}->{table[a]}" for a in sorted(table))
    return f"{lead}: {body}" if body else f"{lead}:"


def write_levelled_by_ids(X, header, xi):
    """The SSET or XISET text of X, each level sorted and each table written
    from its id table one entry at a time, sources in sorted order."""
    out = [header, f"cap {X.cap}"]
    if X.stable_from is not None:
        out.append(f"stable {X.stable_from}")
    for k in range(-1 if xi else 0, X.cap + 1):
        line = " ".join(sorted(X.levels[k]))
        out.append(f"level {k}: {line}" if line else f"level {k}:")
    maps = [(f"d {k} {i}", X.faces[(k, i)]) for k in range(1, X.cap + 1) for i in range(k + 1)]
    maps += [("dnew", X.faces[(0, 0)])] if xi else []
    maps += [(f"s {k} {j}", X.degens[(k, j)]) for k in range(X.cap) for j in range(k + 1)]
    if xi:
        maps += [(f"sbot {k}", X.degens[(k, -1)]) for k in range(-1, X.cap)]
        maps += [(f"stop {k}", X.degens[(k, k + 1)]) for k in range(-1, X.cap)]
    return "\n".join(out + [_entries_line(lead, t) for lead, t in maps] + [""])


def write_smap_by_ids(F, dom_path, cod_path):
    """The SMAP text of F, each component written from its id table."""
    from decomp.presheaf import XiSetMap

    lines = ["SMAP v1", f"dom {dom_path}", f"cod {cod_path}"]
    lines += [_entries_line(f"level {k}", F.components[k])
              for k in range(-1 if isinstance(F, XiSetMap) else 0, F.dom.cap + 1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SMAP, POSET, MONOID and CAT writers: no command writes these formats


def write_smap(M: SSetMap | XiSetMap, dom_path: str, cod_path: str) -> str:
    """SMAP text; a dom or cod path that is empty or holds '#', a line
    break, or leading or trailing whitespace raises ValueError."""
    for key, path in (("dom", dom_path), ("cod", cod_path)):
        if "#" in path or path.splitlines() != [path] or path != path.strip():
            raise ValueError(f"{key} path {path!r} is empty or holds '#', a line break, "
                             "or leading or trailing whitespace")
    out = ["SMAP v1", f"\ndom {dom_path}", f"\ncod {cod_path}"]
    for k in range(-1 if isinstance(M, XiSetMap) else 0, M.dom.cap + 1):
        order, ids = _sorted(M.dom.levels[k])  # an entry is x, '->', y, ' ; ': no new string
        parts = ["\n", f"level {k}:", " "] + ["", "->", "", " ; "] * len(ids)
        parts[3::4] = ids
        parts[5::4] = _gather(M.components.targets[k + M.components.step],
                              _gather(M.components.index[k], order))
        parts[-1] = ""  # no ' ; ' after the last entry, nor ' ' after an empty level's ':'
        out += parts
    out.append("\n")
    return "".join(out)


def covers(spec: PosetSpec) -> list[tuple[str, str]]:
    """The covering pairs a < b of spec, with nothing strictly between."""
    out = []
    for a, b in sorted(spec.le):
        if a == b:
            continue
        if any(z not in (a, b) and spec.leq(a, z) and spec.leq(z, b)
               for z in spec.elements):
            continue
        out.append((a, b))
    return out


def write_poset(spec: PosetSpec) -> str:
    out = ["POSET v1", "elements: " + " ".join(sorted(spec.elements))]
    out += [f"le {a} {b}" for a, b in covers(spec)]
    return "\n".join(out) + "\n"


def write_monoid(spec: MonoidSpec) -> str:
    out = ["MONOID v1",
           "elements: " + " ".join(sorted(spec.elements)),
           f"unit: {spec.unit}"]
    out += [f"mul {a} {b}: {c}" for (a, b), c in sorted(spec.table.items())]
    return "\n".join(out) + "\n"


def write_category(spec: CategorySpec) -> str:
    out = ["CAT v1", "objects: " + " ".join(sorted(spec.objects))]
    out += [f"id {x}: {spec.identities[x]}" for x in sorted(spec.objects)]
    for f in sorted(spec.arrows):
        if spec.is_identity(f):
            continue
        s, t = spec.arrows[f]
        out.append(f"arrow {f}: {s} -> {t}")
    out += [f"compose {f} {g}: {h}" for (f, g), h in sorted(spec.comp.items())]
    return "\n".join(out) + "\n"


def write_spec(spec) -> str:
    """The POSET, MONOID or CAT text of a spec."""
    return {PosetSpec: write_poset, MonoidSpec: write_monoid,
            CategorySpec: write_category}[type(spec)](spec)


def save_spec(spec, path) -> None:
    """Write a spec's text to path, as a user would write the file."""
    Path(path).write_text(write_spec(spec), encoding="utf-8")
