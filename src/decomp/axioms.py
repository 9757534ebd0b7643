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
from .simplex import free_generators, generic_generators, pushout_generic_free


# ---------------------------------------------------------------------------
# Segal


@memoised
def check_segal(X: FinSSet) -> Report:
    """Is each square of outer faces X_{n+1} -> X_n x_{X_{n-1}} X_n, front
    face first, a pullback?  One square per degree n+1 from 2 up to the cap,
    counted in data["squares"]; together they make every level the fibre
    product of its principal edges (GKT I, §2)."""
    rep, d, L = Report("check_segal"), X.faces.index, X.levels
    for n in range(1, X.cap):
        bad = pullback_failure(L[n + 1], L[n], L[n], d[n + 1, n + 1], d[n + 1, 0], d[n, 0], d[n, n])
        if bad is not None:
            rep.fail(degree=n + 1, note=bad)
    rep.data["squares"] = dict.fromkeys(range(2, X.cap + 1), 1)
    rep.verified_upto = X.cap
    return rep


def check_complete(X: FinSSet) -> bool:
    """Is the degree-0 degeneracy injective?"""
    if X.cap < 1:
        raise CapError("completeness needs cap >= 1")
    s0 = X.degens.index[(0, 0)]
    return len(set(s0)) == len(s0)


# ---------------------------------------------------------------------------
# the exactness condition


@cache
def _generic_free_squares(cap: int, every: bool) -> dict:
    """The generic-free squares of generators under cap, (g, f): (f2, g2), in `direct`'s order;
    unless every, only those of inner cofaces and of sigma^0: [1] -> [0]."""
    return {(g, f): pushout_generic_free(g, f) for m in range(1, cap)
            for g in generic_generators(m) if g.tgt < cap and (every or m == 1 or g.tgt > m)
            for f in free_generators(m)}


@memoised
def check_decomposition(X: FinSSet, method: str = "both") -> Report:
    """Check that images of generic-free pushouts are pullbacks.

    `direct` decides the squares of generator pairs under the cap whose
    generic map is an inner coface or sigma^0: [1] -> [0].  They decide the
    rest: for sigma^j: [m] -> [m-1], m >= 2, and an inner delta^i: [m-1] ->
    [m], i in {j, j+1}, delta^i's square on a free map out of [m-1] is
    listed; pasted to sigma^j's on its pushout leg, it makes the square of
    sigma^j delta^i = id, so sigma^j's is a pullback (pasting in Set).  X
    passed `validate`, so it is a functor: its squares commute untested.  A
    fault reruns every square into a fresh report, naming each.
    data["squares"] counts the squares decided per corner degree, a rerun's
    too, data["compositions"] the tables composed.  `decalage` tests that
    both decalages are Segal with culf counits (GKT I).  Each of those
    squares is a generic-free square of X under the cap, a pullback by the
    pasting above once `direct` passes; so they pass unbuilt, counted in
    data["shared"]: c - 1 Segal and c^2 culf squares a decalage of cap c =
    X.cap - 1.  Only a failing `direct` has them built and decided, each
    fault named: only there does `both` cross-check two independent methods.
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
        c, direct = X.cap - 1, check_decomposition(X, "direct")
        rep.data["shared"] = 2 * (c * c + c - 1) if direct.ok else 0
        for which, dec in () if direct.ok else (("top", dec_top), ("bot", dec_bot)):
            D, counit = dec(X)
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
    act, decided = actions(X), Counter()
    before = act.compositions
    for every in (False, True):  # the face squares; on a fault all, into a fresh report
        if every and rep.ok:
            break
        rep, over, pairs = Report(rep.check), {}, _generic_free_squares(X.cap, every)
        for (g, f), (f2, g2) in pairs.items():
            sides = list(map(act.index, (f2, g2, g, f)))
            if f not in over:  # X(f)'s fibres, counted once; only the two out of [m] kept
                over = {h: n for h, n in over.items() if h.src == f.src}
                over[f] = Counter(sides[3])
            bad = pullback_failure(X.levels[f2.tgt], X.levels[g.tgt], X.levels[f.tgt], *sides,
                                   over[f], g.tgt < g.src, True)  # codegeneracy g: X(g2) split
            if bad is not None:
                rep.fail(degree=g.tgt + 1, note=f"pushout({g},{f}):{bad}")
        decided.update(g.tgt + 1 for g, _ in pairs)
    rep.data["squares"] = dict(decided)
    rep.data["compositions"] = act.compositions - before
    rep.verified_upto = X.cap
    return rep


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
