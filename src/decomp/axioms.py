"""Decision procedures for the structural conditions on finite presheaves.

Every condition is a family of finite pullback squares, each decided by
`presheaf.pullback_failure`; each checker reports the degree range it
actually verified, and tightness is never claimed without a certified
stabilization degree.  `check_map_class` takes maps of either presheaf
kind: an interval-site map, read in simplicial coordinates, is cartesian
exactly when it is culf.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .presheaf import (
    CapError,
    FinSSet,
    FinXiSet,
    SSetMap,
    XiSetMap,
    _label,
    _map_squares,
    actions,
    dec_bot,
    dec_top,
    fibres,
    memoised,
    nondegenerate,
    pullback_failure,
    sset_action,  # noqa: F401 -- perfbench/tracer.py counts calls through this name
    validate_sset,
)
from .report import Report
from .simplex import codegeneracy, coface, free_generators
from .simplex import generic_generators, pushout_generic_free


# ---------------------------------------------------------------------------
# Segal


@memoised
def check_segal(X: FinSSet) -> Report:
    """Is each square of outer faces X_{n+1} -> X_n x_{X_{n-1}} X_n, front
    face first, a pullback?  One square per degree n+1 from 2 up to the cap,
    counted in data["squares"]; together they make every level the fibre
    product of its principal edges (GKT I, §2)."""
    rep = Report("check_segal")
    for k, square in _segal_squares(X):
        bad = pullback_failure(*square)
        if bad is not None:
            rep.fail(degree=k, note=bad)
    rep.data["squares"] = dict.fromkeys(range(2, X.cap + 1), 1)
    rep.verified_upto = X.cap
    return rep


def _segal_squares(X: FinSSet) -> list:
    """X's Segal squares, (degree, square) in `pullback_failure`'s order."""
    d, L = X.faces.index, X.levels
    return [(n + 1, (L[n + 1], L[n], L[n], d[n + 1, n + 1], d[n + 1, 0], d[n, 0], d[n, n]))
            for n in range(1, X.cap)]


def check_complete(X: FinSSet) -> bool:
    """Is the degree-0 degeneracy injective?"""
    if X.cap < 1:
        raise CapError("completeness needs cap >= 1")
    s0 = X.degens.index[(0, 0)]
    return len(set(s0)) == len(s0)


# ---------------------------------------------------------------------------
# the exactness condition


@cache
def _generic_free_squares(cap: int) -> dict:
    """The generic-free squares of generators under cap, (g, f): (f2, g2), in `direct`'s order."""
    return {(g, f): pushout_generic_free(g, f) for m in range(1, cap)
            for g in generic_generators(m) if g.tgt < cap for f in free_generators(m)}


@memoised
def check_decomposition(X: FinSSet, method: str = "both") -> Report:
    """Check that images of generic-free pushouts are pullbacks.

    `direct` tests the pushout squares of all generator pairs fitting under
    the cap, recording them per corner degree in data["squares"] and its own
    table compositions in data["compositions"]; `decalage` tests that both
    decalages are Segal with culf counits, reading each square off a passing
    `direct` (data["shared"]); `both` cross-validates, deciding each once.
    """
    if method not in ("direct", "decalage", "both"):
        raise ValueError(f"unknown method {method!r}")
    rep = Report(f"check_decomposition[{method}]")
    if X.cap < 3:
        raise CapError("decomposition check needs cap >= 3")
    base = validate_sset(X)
    if not base.ok:
        rep.absorb(base)
        return rep
    if method == "both":
        direct = check_decomposition(X, "direct")
        deca = check_decomposition(X, "decalage")
        if direct.status != deca.status:
            rep.fail(note=f"methods-disagree:{direct.status}/{deca.status}")
        rep.absorb(direct)
        rep.absorb(deca)
        rep.verified_upto = X.cap
        return rep
    if method == "decalage":
        direct, rep.data["shared"] = check_decomposition(X, "direct"), 0
        for which, dec in (("top", dec_top), ("bot", dec_bot)):
            D, counit = dec(X)
            shared = _squares_shared(D, counit, actions(X), which == "top") if direct.ok else 0
            rep.data["shared"] += shared
            if shared:
                continue
            seg = check_segal(D)
            if not seg.ok:
                rep.fail(note=f"dec_{which}-not-segal")
                rep.absorb(seg)
            culf = check_map_class(counit, "culf")
            if not culf.ok:
                rep.fail(note=f"dec_{which}-counit-not-culf")
                rep.absorb(culf)
        rep.verified_upto = X.cap
        return rep
    act, over, pairs = actions(X), {}, _generic_free_squares(X.cap)
    before = act.compositions
    for (g, f), (f2, g2) in pairs.items():
        sides = list(map(act.index, (f2, g2, g, f)))
        if f not in over:  # X(f)'s fibres, counted once; only the two out of [m] kept
            over = {h: n for h, n in over.items() if h.src == f.src}
            over[f] = Counter(sides[3])
        bad = pullback_failure(X.levels[f2.tgt], X.levels[g.tgt], X.levels[f.tgt], *sides,
                               over[f], g.tgt < g.src)  # codegeneracy g: X(g2) a split degeneracy
        if bad is not None:
            rep.fail(degree=g.tgt + 1, note=f"pushout({g},{f}):{bad}")
    rep.data["squares"] = dict(Counter(g.tgt + 1 for g, _ in pairs))
    rep.data["compositions"] = act.compositions - before
    rep.verified_upto = X.cap
    return rep


def _squares_shared(D: FinSSet, counit: SSetMap, act, top: bool) -> int:
    """How many squares decalage D of X (actions act) and its counit decide, if each is X's
    generic-free square of (g, f) as index lists, else 0: D's at degree n+1 that of (delta^1,
    delta^{n+1}), for Dec_top (delta^n, delta^0) legs swapped; the counit's on s_j or d_i
    that of (sigma^j or inner delta^i, the deleted coface), transposed."""
    given = [(square, coface(k - 1, k - 1 if top else 1), not top, top)
             for k, square in _segal_squares(D)]
    given += [(square, codegeneracy(k + 1, i) if letter == "s" else coface(k - 1, i), top, True)
              for letter, k, i, square in _map_squares(counit, "culf")]
    for square, g, outer, swapped in given:
        f = free_generators(g.src)[outer]
        f2, g2 = _generic_free_squares(counit.cod.cap)[g, f]
        if square[3:] != tuple(map(act.index, (g2, f2, f, g) if swapped else (f2, g2, g, f))):
            return 0
    return len(given)


# ---------------------------------------------------------------------------
# map classes


def check_map_class(F: SSetMap | XiSetMap, cls: str = "culf") -> Report:
    """Is each naturality square of F on a degeneracy (unless cls is "ulf")
    and on an inner face (unless cls is "conservative") a pullback?

    In simplicial coordinates an interval-site map's generators are all
    degeneracies and inner faces, so "culf" tests the square on every one
    of its structure maps: such a map is cartesian exactly when culf."""
    if cls not in ("conservative", "ulf", "culf"):
        raise ValueError(f"unknown map class {cls!r}")
    rep = Report(f"check_map_class[{cls}]")
    xi = isinstance(F.dom, FinXiSet)
    for letter, k, i, square in _map_squares(F, cls):
        bad = pullback_failure(*square)
        if bad is not None:
            rep.fail(degree=k, note=f"{_label(xi, letter, k, i)}:{bad}")
    rep.verified_upto = F.dom.cap
    return rep


# ---------------------------------------------------------------------------
# flanked presheaves and interval-site map classes


def check_flanked(A: FinXiSet) -> Report:
    """Do the extra outer degeneracies form pullbacks against the opposite
    outer faces: sbot against the top face, stop against the bottom one?"""
    rep = Report("check_flanked")
    faces, degens = A.faces.index, A.degens.index
    for n in range(0, A.cap):
        for note, d, s, s_below, d_above in (("sbot-vs-dtop", n, -1, -1, n + 1),
                                             ("stop-vs-dbot", 0, n + 1, n, 0)):
            bad = pullback_failure(A.levels[n], A.levels[n - 1], A.levels[n + 1],
                                   faces[(n, d)], degens[(n, s)],
                                   degens[(n - 1, s_below)], faces[(n + 1, d_above)])
            if bad is not None:
                rep.fail(degree=n, note=f"{note}:{bad}")
    rep.verified_upto = A.cap - 1
    return rep


# ---------------------------------------------------------------------------
# finiteness conditions


@memoised
def check_tight(X: FinSSet) -> Report:
    """Certified bound on nondegenerate dimension per long edge.

    Requires a stabilization degree at most cap-2 whose claim survives the
    degeneracy scan; without one the verdict is INCONCLUSIVE, never PASS.
    """
    rep = Report("check_tight")
    if not check_complete(X):
        raise ValueError("tightness needs a complete input")
    ell = X.stable_from
    if ell is None:
        rep.inconclusive(note="no-stabilization-degree")
        return rep
    if ell > X.cap - 2:
        rep.inconclusive(degree=ell, note="stabilization-above-cap-2")
        return rep
    for k in range(ell + 1, X.cap + 1):
        stray = nondegenerate(X, k)
        if stray:
            rep.fail(degree=k, witness=stray[:2], note="stabilization-claim-false")
            return rep
    bounds = {a: 0 for a in X.levels[1]}
    for r in range(1, ell + 1):
        for a, over in fibres(X, r, True).items():
            if over:
                bounds[a] = r
    rep.data["bounds"] = bounds
    rep.verified_upto = X.cap
    return rep


def check_mobius(X: FinSSet) -> Report:
    """Complete + tight, with the per-arrow bound table.

    Local finiteness needs no check: every level is a finite list, so every
    fibre of s_0 and d_1 is finite.
    """
    rep = Report("check_mobius")
    if not check_complete(X):
        rep.fail(degree=0, note="not-complete")
        return rep
    tight = check_tight(X)
    rep.absorb(tight)
    rep.data.update(tight.data)
    rep.verified_upto = X.cap
    return rep
