"""Finite level-capped presheaves on the simplex and strict-interval sites.

Simplicial sets store every simplex up to the cap, including degenerate
ones, as opaque string identifiers with explicit face/degeneracy tables.
Interval-site presheaves additionally carry the degree -1 level, the extra
face into it, and the two extra outer degeneracies per degree.  All
structure-map bookkeeping is reduced to monotone-map words, so there is a
single source of truth for the relations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .report import Report
from .simplex import (
    MonotoneMap,
    XiMap,
    coface,
    codegeneracy,
    compose,
    generator_word,
    xi_compose,
    xi_initial,
)


class CapError(ValueError):
    pass


@dataclass
class FinSSet:
    """A simplicial set truncated at degree `cap`.

    faces[(k, i)] is d_i: levels[k] -> levels[k-1] for 1 <= k <= cap;
    degens[(k, j)] is s_j: levels[k] -> levels[k+1] for 0 <= k < cap.
    stable_from, when set, claims every simplex above that degree is
    degenerate (the claim is checked by `validate`).
    """

    cap: int
    levels: dict[int, list[str]]
    faces: dict[tuple[int, int], dict[str, str]]
    degens: dict[tuple[int, int], dict[str, str]]
    stable_from: int | None = None

    def level(self, k: int) -> list[str]:
        return self.levels[k]

    def face(self, k: int, i: int) -> dict[str, str]:
        return self.faces[(k, i)]

    def degen(self, k: int, j: int) -> dict[str, str]:
        return self.degens[(k, j)]


@dataclass
class FinXiSet:
    """An interval-site presheaf truncated at degree `cap`, levels from -1.

    On top of the simplicial tables, dnew is the extra face
    levels[0] -> levels[-1], and sbot[k] / stop[k] are the extra outer
    degeneracies levels[k] -> levels[k+1] for -1 <= k < cap.
    """

    cap: int
    levels: dict[int, list[str]]
    faces: dict[tuple[int, int], dict[str, str]]
    degens: dict[tuple[int, int], dict[str, str]]
    dnew: dict[str, str] = field(default_factory=dict)
    sbot: dict[int, dict[str, str]] = field(default_factory=dict)
    stop: dict[int, dict[str, str]] = field(default_factory=dict)
    stable_from: int | None = None

    def level(self, k: int) -> list[str]:
        return self.levels[k]

    def face(self, k: int, i: int) -> dict[str, str]:
        return self.faces[(k, i)]

    def degen(self, k: int, j: int) -> dict[str, str]:
        return self.degens[(k, j)]

    def bot_face(self, k: int) -> dict[str, str]:
        """d_0 at level k, reading the extra face as the outer face of A_0."""
        return self.faces[(k, 0)] if k >= 1 else self.dnew

    def top_face(self, k: int) -> dict[str, str]:
        return self.faces[(k, k)] if k >= 1 else self.dnew


@dataclass
class SSetMap:
    """A simplicial map given by per-level components; dom.cap <= cod.cap."""

    dom: FinSSet
    cod: FinSSet
    components: dict[int, dict[str, str]]


@dataclass
class XiSetMap:
    dom: FinXiSet
    cod: FinXiSet
    components: dict[int, dict[str, str]]


# ---------------------------------------------------------------------------
# presheaf actions of arbitrary site maps


def _compose_tables(outer: dict[str, str], inner: dict[str, str]) -> dict[str, str]:
    return dict(zip(inner, map(outer.__getitem__, inner.values())))


def sset_action(X: FinSSet, a: MonotoneMap) -> dict[str, str]:
    """The action X(a): levels[a.tgt] -> levels[a.src] of a monotone map."""
    table = {x: x for x in X.levels[a.tgt]}
    for gen in reversed(generator_word(a)):
        if gen.tgt == gen.src + 1:  # coface delta_i: [p] -> [p+1]
            i = next(v for v in range(gen.tgt + 1) if v not in set(gen.values))
            t = X.faces[(gen.tgt, i)]
        else:  # codegeneracy sigma_j: [p] -> [p-1]
            j = next(v for v in range(gen.src) if gen.values[v] == gen.values[v + 1])
            t = X.degens[(gen.tgt, j)]
        table = _compose_tables(t, table)
    return table


def _xi_generator_table(A: FinXiSet, gen: MonotoneMap) -> dict[str, str]:
    """Table of one site generator presented by its representative map."""
    p = gen.src
    if gen.tgt == p + 1:  # delta_i with 0 < i < p+1; acts A_{p-1} -> A_{p-2}
        i = next(v for v in range(gen.tgt + 1) if v not in set(gen.values))
        if p - 1 >= 1:
            return A.faces[(p - 1, i - 1)]
        return A.dnew
    # sigma_j: [p] -> [p-1]; acts A_{p-3} -> A_{p-2}
    j = next(v for v in range(p) if gen.values[v] == gen.values[v + 1])
    k = p - 3
    if j == 0:
        return A.sbot[k]
    if j == p - 1:
        return A.stop[k]
    return A.degens[(k, j - 1)]


def xi_action(A: FinXiSet, rep: MonotoneMap) -> dict[str, str]:
    """Action of the interval-site map represented by the generic map rep."""
    table = {x: x for x in A.levels[rep.tgt - 2]}
    for gen in reversed(generator_word(rep)):
        table = _compose_tables(_xi_generator_table(A, gen), table)
    return table


def xi_edge_to_initial(A: FinXiSet, n: int) -> dict[str, str]:
    """The unique structure map A_n -> A_{-1} (long-edge-and-flanks)."""
    return xi_action(A, xi_initial(n).rep)


# ---------------------------------------------------------------------------
# validation


def _check_totality(report, label, table, src_ids, tgt_ids):
    src = set(src_ids)
    tgt = set(tgt_ids)
    if table.keys() == src and tgt.issuperset(table.values()):
        return
    missing = src - set(table)
    if missing:
        report.fail(witness=sorted(missing)[:3], note=f"{label}-not-total")
    for x, y in table.items():
        if x not in src:
            report.fail(witness=(x,), note=f"{label}-extra-source")
        elif y not in tgt:
            report.fail(witness=(x, y), note=f"{label}-target-outside-level")


def validate(X) -> Report:
    if isinstance(X, FinXiSet):
        return validate_xiset(X)
    return validate_sset(X)


def validate_sset(X: FinSSet) -> Report:
    """Check level/table shape and every simplicial identity under the cap.

    Each identity is checked on a whole level at once: both sides are
    mapped over levels[k] as lists and the two lists compared.  The images
    d_i(levels[k]) and s_j(levels[k]) are computed once and shared by every
    relation; only a relation whose lists differ walks the level simplex by
    simplex to name its witnesses.
    """
    rep = Report("validate")
    lo = 0
    if sorted(X.levels) != list(range(lo, X.cap + 1)):
        rep.fail(note="levels-do-not-match-cap")
        return rep
    for k in range(lo, X.cap + 1):
        if len(set(X.levels[k])) != len(X.levels[k]):
            rep.fail(degree=k, note="duplicate-identifiers")
    for k in range(1, X.cap + 1):
        for i in range(k + 1):
            if (k, i) not in X.faces:
                rep.fail(degree=k, note=f"missing-face-d{i}")
            else:
                _check_totality(rep, f"d[{k},{i}]", X.faces[(k, i)],
                                X.levels[k], X.levels[k - 1])
    for k in range(0, X.cap):
        for j in range(k + 1):
            if (k, j) not in X.degens:
                rep.fail(degree=k, note=f"missing-degeneracy-s{j}")
            else:
                _check_totality(rep, f"s[{k},{j}]", X.degens[(k, j)],
                                X.levels[k], X.levels[k + 1])
    if not rep.ok:
        return rep

    levels, faces, degens = X.levels, X.faces, X.degens
    d_img = {(k, i): list(map(faces[(k, i)].__getitem__, levels[k]))
             for k in range(1, X.cap + 1) for i in range(k + 1)}
    s_img = {(k, j): list(map(degens[(k, j)].__getitem__, levels[k]))
             for k in range(X.cap) for j in range(k + 1)}

    def compare(k, note, got, want):
        if got != want:
            for x, u, v in zip(levels[k], got, want):
                if u != v:
                    rep.fail(degree=k, witness=(x,), note=note)

    for k in range(2, X.cap + 1):
        for j in range(1, k + 1):
            for i in range(j):
                compare(k, f"d{i}d{j}",
                        list(map(faces[(k - 1, i)].__getitem__, d_img[(k, j)])),
                        list(map(faces[(k - 1, j - 1)].__getitem__, d_img[(k, i)])))
    for k in range(0, X.cap - 1):
        for j in range(k + 1):
            for i in range(j + 1):
                compare(k, f"s{i}s{j}",
                        list(map(degens[(k + 1, i)].__getitem__, s_img[(k, j)])),
                        list(map(degens[(k + 1, j + 1)].__getitem__, s_img[(k, i)])))
    for k in range(0, X.cap):
        for j in range(k + 1):
            for i in range(k + 2):
                got = list(map(faces[(k + 1, i)].__getitem__, s_img[(k, j)]))
                if i == j or i == j + 1:
                    want = levels[k]
                elif i < j:
                    want = list(map(degens[(k - 1, j - 1)].__getitem__, d_img[(k, i)]))
                else:
                    want = list(map(degens[(k - 1, j)].__getitem__, d_img[(k, i - 1)]))
                compare(k, f"d{i}s{j}", got, want)
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


def xi_generators(A: FinXiSet):
    """All site generators acting on A: (name, arrow, table) triples."""
    gens = []
    for k in range(1, A.cap + 1):
        for i in range(k + 1):
            arrow = XiMap(k - 1, k, coface(k + 1, i + 1))
            gens.append((f"d[{k},{i}]", arrow, A.faces[(k, i)]))
    gens.append(("dnew", XiMap(-1, 0, coface(1, 1)), A.dnew))
    for k in range(0, A.cap):
        for j in range(k + 1):
            arrow = XiMap(k + 1, k, codegeneracy(k + 3, j + 1))
            gens.append((f"s[{k},{j}]", arrow, A.degens[(k, j)]))
    for k in range(-1, A.cap):
        gens.append((f"sbot[{k}]", XiMap(k + 1, k, codegeneracy(k + 3, 0)), A.sbot[k]))
        gens.append((f"stop[{k}]", XiMap(k + 1, k, codegeneracy(k + 3, k + 2)), A.stop[k]))
    return gens


def validate_xiset(A: FinXiSet) -> Report:
    """Shape checks plus functoriality on all composable generator pairs.

    Every relation is verified through the representing monotone maps: the
    composite arrow's canonical action must agree with composing the two
    stored generator tables.
    """
    rep = Report("validate")
    if sorted(A.levels) != list(range(-1, A.cap + 1)):
        rep.fail(note="levels-do-not-match-cap")
        return rep
    for k in range(-1, A.cap + 1):
        if len(set(A.levels[k])) != len(A.levels[k]):
            rep.fail(degree=k, note="duplicate-identifiers")
    try:
        gens = xi_generators(A)
    except KeyError as exc:
        rep.fail(note=f"missing-structure-map:{exc}")
        return rep
    for name, arrow, table in gens:
        _check_totality(rep, name, table, A.levels[arrow.tgt], A.levels[arrow.src])
    if not rep.ok:
        return rep

    for uname, u, tu in gens:
        for vname, v, tv in gens:
            if u.tgt != v.src:
                continue
            w = xi_compose(u, v)
            canon = xi_action(A, w.rep)
            for x in A.levels[w.tgt]:
                if tu[tv[x]] != canon[x]:
                    rep.fail(degree=w.tgt, witness=(x,),
                             note=f"relation:{uname};{vname}")
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


def validate_sset_map(F: SSetMap) -> Report:
    """Totality plus naturality against every generator under dom.cap."""
    rep = Report("validate_map")
    X, Y = F.dom, F.cod
    if X.cap > Y.cap:
        rep.fail(note="dom-cap-exceeds-cod-cap")
        return rep
    for k in range(0, X.cap + 1):
        if k not in F.components:
            rep.fail(degree=k, note="missing-component")
            continue
        _check_totality(rep, f"F[{k}]", F.components[k], X.levels[k], Y.levels[k])
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


def validate_xiset_map(G: XiSetMap) -> Report:
    rep = Report("validate_map")
    A, B = G.dom, G.cod
    if A.cap > B.cap:
        rep.fail(note="dom-cap-exceeds-cod-cap")
        return rep
    for k in range(-1, A.cap + 1):
        if k not in G.components:
            rep.fail(degree=k, note="missing-component")
            continue
        _check_totality(rep, f"G[{k}]", G.components[k], A.levels[k], B.levels[k])
    if not rep.ok:
        return rep
    for name, arrow, tA in xi_generators(A):
        tB = _table_for_generator(B, name)
        ga, gb = G.components[arrow.src], G.components[arrow.tgt]
        for x in A.levels[arrow.tgt]:
            if ga[tA[x]] != tB[gb[x]]:
                rep.fail(degree=arrow.tgt, witness=(x,), note=f"naturality-{name}")
    rep.verified_upto = A.cap
    return rep


def _table_for_generator(B: FinXiSet, name: str) -> dict[str, str]:
    kind, _, rest = name.partition("[")
    if kind == "dnew":
        return B.dnew
    args = [int(v) for v in rest.rstrip("]").split(",")]
    if kind == "d":
        return B.faces[(args[0], args[1])]
    if kind == "s":
        return B.degens[(args[0], args[1])]
    if kind == "sbot":
        return B.sbot[args[0]]
    return B.stop[args[0]]


# ---------------------------------------------------------------------------
# decalage and the basic adjunction


def dec_bot(X: FinSSet) -> tuple[FinSSet, SSetMap]:
    """Delete the bottom level and all d_0/s_0, shifting indices down."""
    if X.cap < 1:
        raise CapError("decalage needs cap >= 1")
    cap = X.cap - 1
    levels = {k: X.levels[k + 1] for k in range(cap + 1)}
    faces = {(k, i): X.faces[(k + 1, i + 1)]
             for k in range(1, cap + 1) for i in range(k + 1)}
    degens = {(k, j): X.degens[(k + 1, j + 1)]
              for k in range(cap) for j in range(k + 1)}
    stable = X.stable_from if (X.stable_from is not None and X.stable_from <= cap) else None
    D = FinSSet(cap, levels, faces, degens, stable)
    counit = SSetMap(D, X, {k: X.faces[(k + 1, 0)] for k in range(cap + 1)})
    return D, counit


def dec_top(X: FinSSet) -> tuple[FinSSet, SSetMap]:
    """Delete the top face and degeneracy in each degree."""
    if X.cap < 1:
        raise CapError("decalage needs cap >= 1")
    cap = X.cap - 1
    levels = {k: X.levels[k + 1] for k in range(cap + 1)}
    faces = {(k, i): X.faces[(k + 1, i)]
             for k in range(1, cap + 1) for i in range(k + 1)}
    degens = {(k, j): X.degens[(k + 1, j)]
              for k in range(cap) for j in range(k + 1)}
    stable = X.stable_from if (X.stable_from is not None and X.stable_from <= cap) else None
    D = FinSSet(cap, levels, faces, degens, stable)
    counit = SSetMap(D, X, {k: X.faces[(k + 1, k + 1)] for k in range(cap + 1)})
    return D, counit


def u_star(X: FinSSet) -> FinXiSet:
    """Delete the bottom level twice over: outer faces become the new
    extra face, outer degeneracies the extra outer degeneracies."""
    if X.cap < 2:
        raise CapError("u* needs cap >= 2")
    cap = X.cap - 2
    levels = {k: X.levels[k + 2] for k in range(-1, cap + 1)}
    faces = {(k, i): X.faces[(k + 2, i + 1)]
             for k in range(1, cap + 1) for i in range(k + 1)}
    degens = {(k, j): X.degens[(k + 2, j + 1)]
              for k in range(cap) for j in range(k + 1)}
    dnew = X.faces[(2, 1)]
    sbot = {k: X.degens[(k + 2, 0)] for k in range(-1, cap)}
    stop = {k: X.degens[(k + 2, k + 2)] for k in range(-1, cap)}
    stable = X.stable_from if (X.stable_from is not None and X.stable_from <= cap) else None
    return FinXiSet(cap, levels, faces, degens, dnew, sbot, stop, stable)


def i_star(A: FinXiSet) -> FinSSet:
    """Forget the degree -1 level and all the extra structure maps."""
    levels = {k: A.levels[k] for k in range(A.cap + 1)}
    return FinSSet(A.cap, levels, dict(A.faces), dict(A.degens), A.stable_from)


def u_star_map(F: SSetMap) -> XiSetMap:
    comps = {k: F.components[k + 2] for k in range(-1, F.dom.cap - 1)}
    return XiSetMap(u_star(F.dom), u_star(F.cod), comps)


def i_star_map(G: XiSetMap) -> SSetMap:
    comps = {k: G.components[k] for k in range(G.dom.cap + 1)}
    return SSetMap(i_star(G.dom), i_star(G.cod), comps)


def truncate_sset(X: FinSSet, cap: int) -> FinSSet:
    if cap > X.cap or cap < 0:
        raise CapError(f"cannot truncate cap {X.cap} to {cap}")
    levels = {k: X.levels[k] for k in range(cap + 1)}
    faces = {ki: t for ki, t in X.faces.items() if ki[0] <= cap}
    degens = {kj: t for kj, t in X.degens.items() if kj[0] < cap}
    stable = X.stable_from if (X.stable_from is not None and X.stable_from <= cap) else None
    return FinSSet(cap, levels, faces, degens, stable)


def truncate_xiset(A: FinXiSet, cap: int) -> FinXiSet:
    if cap > A.cap or cap < 0:
        raise CapError(f"cannot truncate cap {A.cap} to {cap}")
    levels = {k: A.levels[k] for k in range(-1, cap + 1)}
    faces = {ki: t for ki, t in A.faces.items() if ki[0] <= cap}
    degens = {kj: t for kj, t in A.degens.items() if kj[0] < cap}
    sbot = {k: t for k, t in A.sbot.items() if k < cap}
    stop = {k: t for k, t in A.stop.items() if k < cap}
    stable = A.stable_from if (A.stable_from is not None and A.stable_from <= cap) else None
    return FinXiSet(cap, levels, faces, degens, A.dnew, sbot, stop, stable)


def unit_eta(A: FinXiSet) -> XiSetMap:
    """The unit A -> u*i*A, the composite of the two extra degeneracies."""
    if A.cap < 1:
        raise CapError("unit needs cap >= 1")
    cod = u_star(i_star(A))
    comps = {}
    for k in range(-1, A.cap - 1):
        comps[k] = _compose_tables(A.sbot[k + 1], A.stop[k])
    return XiSetMap(truncate_xiset(A, A.cap - 2), cod, comps)


def counit_eps(X: FinSSet) -> SSetMap:
    """The counit i*u*X -> X, the composite of the two outer faces."""
    if X.cap < 2:
        raise CapError("counit needs cap >= 2")
    dom = i_star(u_star(X))
    comps = {}
    for k in range(0, X.cap - 1):
        comps[k] = _compose_tables(X.faces[(k + 1, k + 1)], X.faces[(k + 2, 0)])
    return SSetMap(dom, X, comps)


# ---------------------------------------------------------------------------
# nondegeneracy


def degenerate_edges(X: FinSSet) -> set[str]:
    return set(X.degens[(0, 0)].values())


def principal_edge_tables(X: FinSSet, r: int) -> list[dict[str, str]]:
    return [sset_action(X, MonotoneMap(1, r, (i, i + 1))) for i in range(r)]


def nondegenerate(X: FinSSet, r: int) -> list[str]:
    """Simplices none of whose principal edges are degenerate."""
    if r < 0 or r > X.cap:
        raise CapError(f"degree {r} outside cap {X.cap}")
    if r == 0:
        return list(X.levels[0])
    bad = degenerate_edges(X)
    tables = principal_edge_tables(X, r)
    return [x for x in X.levels[r] if all(t[x] not in bad for t in tables)]


def long_edge_table(X: FinSSet, r: int) -> dict[str, str]:
    """levels[r] -> levels[1]: restriction to the long edge (s_0 at r = 0)."""
    if r == 0:
        return dict(X.degens[(0, 0)])
    return sset_action(X, MonotoneMap(1, r, (0, r)))


def ez_level_nondegenerate(X: FinSSet, k: int) -> list[str]:
    """Simplices not in the image of any degeneracy."""
    if k == 0:
        return list(X.levels[0])
    degenerate = set()
    for j in range(k):
        degenerate.update(X.degens[(k - 1, j)].values())
    return [x for x in X.levels[k] if x not in degenerate]


def nondeg_bound(X: FinSSet) -> int:
    """Largest degree under the cap carrying a nondegenerate simplex."""
    bound = 0
    for k in range(X.cap + 1):
        if ez_level_nondegenerate(X, k):
            bound = k
    return bound


def ez_decompose(X: FinSSet, k: int, x: str) -> tuple[list[int], str]:
    """Unique degeneracy word (decreasing indices) and nondegenerate root.

    The word lists the indices outermost first: applying s_{w[-1]}, then
    s_{w[-2]}, ..., to the root reproduces x.
    """
    word: list[int] = []
    deg = k
    cur = x
    while deg > 0:
        stripped = False
        for j in range(deg - 1, -1, -1):
            table = X.degens[(deg - 1, j)]
            pre = [y for y, v in table.items() if v == cur]
            if pre:
                if len(pre) > 1:
                    raise ValueError(f"degeneracy s_{j} not injective at {cur}")
                word.append(j)
                cur = pre[0]
                deg -= 1
                stripped = True
                break
        if not stripped:
            break
    return word, cur


# ---------------------------------------------------------------------------
# finite pullback squares


def pullback_failure(P, A, B, p, q, f, g) -> str | None:
    """Why P -> A x_C B fails to be a bijection, or None if it is one.

    The square is p: P -> A, q: P -> B over f: A -> C, g: B -> C; it must
    commute (f.p = g.q), otherwise ValueError.

    The common case is decided by counting.  When the square commutes and
    the pairs (p x, q x) are distinct and all lie in A x B, they are
    distinct elements of A x_C B, so the comparison is onto, and the square
    a pullback, exactly when there are |A x_C B| of them: the sum over a in
    A of |g^-1(f a) & B|, read off fibre counts of g.  Any other square is
    enumerated element by element, which names the first failure.
    """
    try:
        if _pullback_by_counting(P, A, B, p, q, f, g):
            return None
    except KeyError:
        pass  # the enumeration raises it again, at the same element
    seen: dict[tuple[str, str], str] = {}
    for x in P:
        a, b = p[x], q[x]
        if f[a] != g[b]:
            raise ValueError(f"square does not commute at {x}")
        key = (a, b)
        if key in seen:
            return f"comparison-not-injective:{seen[key]},{x}"
        seen[key] = x
    by_corner: dict[str, list[str]] = {}
    for b in B:
        by_corner.setdefault(g[b], []).append(b)
    for a in A:
        for b in by_corner.get(f[a], ()):
            if (a, b) not in seen:
                return f"missing-fiber-pair:{a},{b}"
    return None


def _pullback_by_counting(P, A, B, p, q, f, g) -> bool:
    """True if the square commutes, P injects into A x B, and the pairs
    are as many as A x_C B has elements."""
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


# ---------------------------------------------------------------------------
# small constructors


def xi_representable(k: int, cap: int) -> FinXiSet:
    """The presheaf represented by the interval-site object [k]."""
    from .simplex import all_xi_maps

    def name(h: XiMap) -> str:
        return "x" + "_".join(map(str, h.rep.values))

    homs = {n: {name(h): h for h in all_xi_maps(n, k)}
            for n in range(-1, cap + 1)}
    levels = {n: sorted(homs[n]) for n in range(-1, cap + 1)}

    def act(arrow: XiMap) -> dict[str, str]:
        return {nm: name(xi_compose(arrow, h))
                for nm, h in homs[arrow.tgt].items()}

    faces = {(n, i): act(XiMap(n - 1, n, coface(n + 1, i + 1)))
             for n in range(1, cap + 1) for i in range(n + 1)}
    degens = {(n, j): act(XiMap(n + 1, n, codegeneracy(n + 3, j + 1)))
              for n in range(cap) for j in range(n + 1)}
    dnew = act(XiMap(-1, 0, coface(1, 1)))
    sbot = {n: act(XiMap(n + 1, n, codegeneracy(n + 3, 0)))
            for n in range(-1, cap)}
    stop = {n: act(XiMap(n + 1, n, codegeneracy(n + 3, n + 2)))
            for n in range(-1, cap)}
    stable = k + 2 if k + 2 <= cap else None
    return FinXiSet(cap, levels, faces, degens, dnew, sbot, stop,
                    stable_from=stable)


def transpose_arrow(X: FinSSet, a: str) -> XiSetMap:
    """The map from the initial representable picking out the arrow a."""
    from .simplex import all_xi_maps

    dom = xi_representable(-1, X.cap - 2)
    cod = u_star(X)
    comps = {}
    for n in range(-1, dom.cap + 1):
        comps[n] = {"x" + "_".join(map(str, h.rep.values)):
                    xi_action(cod, h.rep)[a]
                    for h in all_xi_maps(n, -1)}
    return XiSetMap(dom, cod, comps)


def point_sset(cap: int, name: str = "pt") -> FinSSet:
    levels = {k: [name] for k in range(cap + 1)}
    table = {name: name}
    faces = {(k, i): dict(table) for k in range(1, cap + 1) for i in range(k + 1)}
    degens = {(k, j): dict(table) for k in range(cap) for j in range(k + 1)}
    return FinSSet(cap, levels, faces, degens, stable_from=0)


def point_xiset(cap: int, name: str = "pt") -> FinXiSet:
    levels = {k: [name] for k in range(-1, cap + 1)}
    table = {name: name}
    faces = {(k, i): dict(table) for k in range(1, cap + 1) for i in range(k + 1)}
    degens = {(k, j): dict(table) for k in range(cap) for j in range(k + 1)}
    sbot = {k: dict(table) for k in range(-1, cap)}
    stop = {k: dict(table) for k in range(-1, cap)}
    return FinXiSet(cap, levels, faces, degens, dict(table), sbot, stop, stable_from=0)
