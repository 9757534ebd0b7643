"""Finite level-capped presheaves on the simplex and strict-interval sites.

Simplicial sets store every simplex up to the cap, including degenerate
ones, as opaque string identifiers with explicit face/degeneracy tables.
Interval-site presheaves keep the same two tables and add the degree -1
level.  A site arrow [k] -> [n] is represented by an endpoint-preserving
monotone map [k+2] -> [n+2], so the extra structure maps are the boundary
members of the ordinary families: the face into degree -1 is d_0 at
degree 0 (the XISET `dnew` directive), and the two extra outer
degeneracies at degree k are s_{-1} and s_{k+1} (`sbot k` and `stop k`).
All structure-map bookkeeping is reduced to monotone-map words, so there
is a single source of truth for the relations.

The checks read an interval-site presheaf in simplicial coordinates: its
degree k and index i are degree k + 2 and index i + 1 of a simplicial set
that has only its inner faces and all its degeneracies, the generic maps
(GKT III).  So one loop serves both kinds for each of the shape faults,
the relations, the validation of a map (its ends first), the pullback
squares of a culf map (GKT I: cartesian on the generic maps, so an
interval-site map is cartesian exactly when it is culf) and the labelling
system; only the labels in FAIL lines differ: `d0` or `s1` in a
simplicial set, `dnew`, `sbot[0]` or `d[2,1]` in an interval-site
presheaf.

Each object stores its levels, lists of string ids, and every table once,
as the position in its target level of each simplex's image, in level
order; a map stores each component so, into the codomain's level.  The
constructor decides shape once: it makes the positions of id tables, and
raises `ShapeError`, naming each fault as `validate` or `validate_map`
does, when the tables make no object or map.  The nerve builder, the
parser, the cut, decalage, `u_star`, `i_star`, `truncate` and the map
producers hand tables over as positions, checked by key alone.  `X.faces`,
`X.degens` and `F.components` read the tables as ids (`_Tables`), each
made on first read and kept, its keys and values the very strings of the
level lists.  Objects are frozen, and each memoises its `actions`,
`i_star`, `u_star`, nondegenerate positions, long-edge `fibres` and its
`validate_sset`/`validate_xiset`/`check_decomposition`/`check_tight`
verdicts.  A changed object is a new one (`dataclasses.replace`).

The checks run on positions: identities (face-face ones on nondegenerate
simplices alone), relations and naturality compare position lists level by
level, each composed by `_gather` in one C call.  actions(X).index(a)
composes X(a) and keeps it; `sset_action` names it in ids afresh.  Every
pullback square is given as position lists with the id lists of its three
corners and goes through `pullback_failure`: one counting kernel decides
it, and only a failing square is enumerated, to name its fault by id.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, reduce, wraps
from itertools import count, repeat
from operator import itemgetter

from .report import Report
from .simplex import MonotoneMap, compose, generator_word, identity


class CapError(ValueError):
    pass


class ShapeError(ValueError):
    """Tables that make no object or map of kind: report names each fault,
    as `validate` or `validate_map` names one."""

    def __init__(self, report: Report, kind: type):
        super().__init__(str(report))
        self.report, self.kind = report, kind


def _gather(outer, inner: list) -> list:
    """[outer[n] for n in inner], by one `itemgetter` call when inner has
    two entries or more (for one it returns a scalar, for none it raises)."""
    return list(itemgetter(*inner)(outer)) if len(inner) > 1 else [outer[n] for n in inner]


class _Tables(Mapping):
    """An object's faces (step -1) or degeneracies (step 1), or a map's
    components (step 0).  index[key] lists, in level order, the position in
    targets[k + step] of the image of each simplex of levels[k], k the key's
    degree: (k, i) for an object, k for a map.  Read by key, it is the id
    table, made from the positions on first read and kept in ids."""

    def __init__(self, levels: dict, targets: dict, step: int, index: dict):
        self.levels, self.targets, self.step, self.index = levels, targets, step, index
        self.ids: dict = {}

    def __getitem__(self, key) -> dict[str, str]:
        table = self.ids.get(key)
        if table is None:
            k = key if isinstance(key, int) else key[0]
            image = _gather(self.targets[k + self.step], self.index[key])
            table = self.ids[key] = dict(zip(self.levels[k], image))
        return table

    def __contains__(self, key) -> bool:
        return key in self.index

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


def _positions(rep: Report, label: str, table, src: list, tgt: list, at: dict | None,
               degree: int | None = None) -> list | None:
    """table from src into tgt as positions: a list as it is, an id table
    made into one when at gives the position of each id of tgt (neither
    level repeating one) and it is total; else None, and rep names each
    entry at fault as label-not-total, -extra-source or
    -target-outside-level."""
    if isinstance(table, list):
        return table
    if at is not None and len(table) == len(src):
        try:
            return _gather(at, _gather(table, src))
        except KeyError:
            pass
    src, tgt = set(src), set(tgt)
    missing = src - table.keys()
    if missing:
        rep.fail(degree, witness=sorted(missing)[:3], note=f"{label}-not-total")
    for x, y in table.items():
        if x not in src:
            rep.fail(degree, witness=(x,), note=f"{label}-extra-source")
        elif y not in tgt:
            rep.fail(degree, witness=(x, y), note=f"{label}-target-outside-level")
    return None


@dataclass(frozen=True)
class _Presheaf:
    """Levels of ids with face and degeneracy tables, truncated at degree
    `cap`.  stable_from, when set, claims every simplex above that degree
    is degenerate (the claim is checked by `validate`).  Each table is given
    as ids or, by a producer, as positions; `dataclasses.replace` hands the
    stored positions on when the levels stay the same, and else reads the
    tables as ids."""

    cap: int
    levels: dict[int, list[str]]
    faces: Mapping[tuple[int, int], Mapping[str, str]]
    degens: Mapping[tuple[int, int], Mapping[str, str]]
    stable_from: int | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Store every table as positions, or raise `ShapeError` naming the
        levels that do not match the cap, each level that repeats an id,
        and each table missing, not total or extra (missing-face-d0,
        d1-not-total, extra-degeneracy-sbot[9]) by its degree and `_label`.
        Position lists come only from levels that repeat no id, so when all
        tables are lists, only a level that is no table's degree is searched,
        and lists under the right keys are stored as they are."""
        xi, levels, rep = isinstance(self, FinXiSet), self.levels, Report("validate")
        if sorted(levels) != list(range(-xi, self.cap + 1)):
            rep.fail(note="levels-do-not-match-cap")
            raise ShapeError(rep, type(self))
        families = [t.index if isinstance(t, _Tables) and t.levels is levels else t
                    for t in (self.faces, self.degens)]
        *keys, read = _table_keys(self.cap, xi)
        lists = all(isinstance(t, list) for tables in families for t in tables.values())
        if not (fast := lists and all(t.keys() == ks.keys() for t, ks in zip(families, keys))):
            read = {k for tables in families for k, _ in tables} if lists else ()
        at = {k: dict(zip(ids, count())) for k, ids in sorted(levels.items()) if k not in read}
        for k, pos in at.items():
            if len(pos) != len(levels[k]):
                rep.fail(degree=k, note="duplicate-identifiers")
                at[k] = None
        if not fast:
            kinds = list(zip("ds", ("face", "degeneracy"), families, (-1, 1), keys))
            families = [dict.fromkeys(tables) for _, _, tables, _, _ in kinds]  # keys as given
            for (letter, kind, tables, step, ks), made in zip(kinds, families):
                for k, i in ks:
                    if (k, i) not in tables:
                        rep.fail(degree=k, note=f"missing-{kind}-{_label(xi, letter, k, i)}")
                    else:
                        pos = None if at.get(k) is None else at.get(k + step)
                        made[k, i] = _positions(rep, _label(xi, letter, k, i), tables[k, i],
                                                levels[k], levels[k + step], pos, k)
            for letter, kind, tables, _, ks in kinds:
                for k, i in sorted(tables.keys() - ks.keys()):
                    rep.fail(degree=k, note=f"extra-{kind}-{_label(xi, letter, k, i)}")
        if not rep.ok:
            raise ShapeError(rep, type(self))
        for name, tables, step in zip(("faces", "degens"), families, (-1, 1)):
            object.__setattr__(self, name, _Tables(levels, levels, step, tables))


class FinSSet(_Presheaf):
    """A simplicial set: faces[(k, i)] is d_i: levels[k] -> levels[k-1] for
    1 <= k <= cap; degens[(k, j)] is s_j: levels[k] -> levels[k+1] for
    0 <= k < cap."""


class FinXiSet(_Presheaf):
    """An interval-site presheaf, levels from -1: faces[(k, i)] is d_i for
    0 <= i <= k <= cap, the extra face faces[(0, 0)]; degens[(k, j)] is s_j
    for -1 <= k < cap and -1 <= j <= k+1, the extra outer degeneracies
    degens[(k, -1)] and degens[(k, k+1)]."""


@dataclass
class _Map:
    """A map given by per-level components; dom.cap <= cod.cap.
    components[k], F_k: dom.levels[k] -> cod.levels[k], is stored as the
    objects' tables are, in `_Tables` of step 0, given as ids or, by a
    producer, as positions."""

    dom: FinSSet | FinXiSet
    cod: FinSSet | FinXiSet
    components: Mapping[int, Mapping[str, str]]

    def __post_init__(self):
        """Store every component as positions, in the order given, or raise
        `ShapeError` naming a domain above the codomain's cap and each
        component missing, not total or extra; if an end fails `validate`,
        with its report instead, the domain's first, as `validate_map` does."""
        X, Y, rep = self.dom, self.cod, Report("validate_map")
        xi, comps, made = isinstance(X, FinXiSet), self.components, dict.fromkeys(self.components)
        at = ({} if all(isinstance(t, list) for t in comps.values())
              else {k: dict(zip(ids, count())) for k, ids in Y.levels.items()})
        if X.cap > Y.cap:
            rep.fail(note="dom-cap-exceeds-cod-cap")
        else:
            for k in range(-xi, X.cap + 1):
                if k not in comps:
                    rep.fail(degree=k, note="missing-component")
                else:
                    made[k] = _positions(rep, f"{'G' if xi else 'F'}[{k}]", comps[k],
                                         X.levels[k], Y.levels[k], at.get(k))
            for k in sorted(set(comps).difference(range(-xi, X.cap + 1))):
                rep.fail(degree=k, note="extra-component")
        if not rep.ok:
            raise ShapeError(next((e for e in map(validate, (X, Y)) if not e.ok), rep), type(self))
        self.components = _Tables(X.levels, Y.levels, 0, made)


class SSetMap(_Map):
    """A simplicial map."""


class XiSetMap(_Map):
    """A map of interval-site presheaves."""


# ---------------------------------------------------------------------------
# presheaf actions of arbitrary site maps


def memoised(fn):
    """fn(X, ...), computed once per object and arguments and kept in X's
    memo; every caller gets the one stored result and must not change it."""
    @wraps(fn)
    def once(X, *args, **kwargs):
        key = (fn.__name__, *args, *sorted(kwargs.items()))
        if key not in X._memo:
            X._memo[key] = fn(X, *args, **kwargs)
        return X._memo[key]
    return once


@cache
def _table_keys(cap: int, xi: bool) -> tuple[dict, dict, set]:
    """The keys of the face and degeneracy tables an object of this cap
    must have, in validation's order, as two dicts' keys, and the degrees
    they read, made once per cap; xi adds the extra interval-site maps."""
    faces = [(k, i) for k in range(1, cap + 1) for i in range(k + 1)]
    degens = [(k, j) for k in range(cap) for j in range(k + 1)]
    if xi:
        faces += [(0, 0)]
        degens += [(k, j) for k in range(-1, cap) for j in (-1, k + 1)]
    return dict.fromkeys(faces), dict.fromkeys(degens), {k for k, _ in faces + degens}


def _name(letter: str, k: int, i: int) -> str:
    """The face ("d") or degeneracy ("s") of key (k, i) as XISET text names
    it: d_0 at degree 0 is `dnew`, s_{-1} and s_{k+1} at degree k are
    `sbot[k]` and `stop[k]`, and any other is `d[k,i]` or `s[k,i]`."""
    special = {(0, 0): "dnew"} if letter == "d" else {(k, -1): f"sbot[{k}]",
                                                      (k, k + 1): f"stop[{k}]"}
    return special.get((k, i), f"{letter}[{k},{i}]")


def _label(xi: bool, letter: str, k: int, i: int) -> str:
    """How a check's FAIL lines name a structure map: by its index alone in
    a simplicial set (`d2`), by its `_name` in an interval-site presheaf
    (`d[2,1]`, `dnew`, `sbot[0]`)."""
    return _name(letter, k, i) if xi else f"{letter}{i}"


def _generator_table(act, gen: MonotoneMap, shift: int) -> list[int]:
    """The position table of one coface or codegeneracy acting on the
    object whose `_Actions` act is.

    shift is 0 for a simplicial set and 2 for an interval-site presheaf,
    whose arrows are represented two degrees up with one index more.
    """
    if gen.tgt == gen.src + 1:  # coface delta_i: [p] -> [p+1]
        i = next(v for v in range(gen.tgt + 1) if v not in set(gen.values))
        return act.faces[(gen.tgt - shift, i - shift // 2)]
    # codegeneracy sigma_j: [p] -> [p-1]
    j = next(v for v in range(gen.src) if gen.values[v] == gen.values[v + 1])
    return act.degens[(gen.tgt - shift, j - shift // 2)]


def _reindexed(X, kind, cap: int, shift: int, offset: int, stable: int | None):
    """The object of kind at cap whose level k is X's level k + shift and
    whose table at (k, i) is X's table at (k + shift, i + offset), for each
    key `_table_keys` gives, handed over as X stores it."""
    xi = kind is FinXiSet
    face_keys, degen_keys, _ = _table_keys(cap, xi)
    return kind(cap, {k: X.levels[k + shift] for k in range(-xi, cap + 1)},
                {(k, i): X.faces.index[(k + shift, i + offset)] for k, i in face_keys},
                {(k, j): X.degens.index[(k + shift, j + offset)] for k, j in degen_keys}, stable)


class _Actions:
    """X(a) for monotone maps a, each composed once as a position list.

    It holds X's levels and position tables but not X, so the memo of X
    that keeps it makes no reference cycle, and X is freed with its last
    reference.
    """

    def __init__(self, X):
        self.levels, self.faces, self.degens = X.levels, X.faces.index, X.degens.index
        self.shift = 2 if isinstance(X, FinXiSet) else 0
        self.tables: dict[MonotoneMap, list[int]] = {}
        self.compositions = 0

    def index(self, a: MonotoneMap) -> list[int]:
        """X(a) as positions: entry n is the position of the image of the
        n-th simplex of levels[a.tgt]."""
        table = self.tables.get(a)
        return self._walk(a, generator_word(a)) if table is None else table

    def _walk(self, a: MonotoneMap, word: list[MonotoneMap]) -> list[int]:
        table = self.tables.get(a)
        if table is None:
            if word:  # a generator's action is its stored table itself
                table, rest = _generator_table(self, word[-1], self.shift), word[:-1]
                if rest:
                    table = _gather(self._walk(reduce(compose, rest, identity(a.src)), rest), table)
                self.compositions += 1
            else:
                table = list(range(len(self.levels[a.tgt - self.shift])))
            self.tables[a] = table
        return table


@memoised
def actions(X) -> _Actions:
    """X's memoised actions X(a): levels[a.tgt] -> levels[a.src], as
    positions.

    An interval-site presheaf takes the representing monotone map of a site
    arrow.  act.index(a) counts as one composition: the stored list of the
    last generator of a's word, itself if it is the only one, else gathered
    through the memoised X(p) of the composite p of the rest, p's own word.
    act.compositions counts the compositions made on X so far.
    """
    return _Actions(X)


def sset_action(X, a: MonotoneMap) -> dict[str, str]:
    """The action X(a): levels[a.tgt] -> levels[a.src] of a monotone map
    (for an interval-site presheaf, a site arrow's representing map), as a
    table of ids, named afresh from `actions(X).index(a)` on each call."""
    act = actions(X)
    tgt, src = (X.levels[end - act.shift] for end in (a.tgt, a.src))
    return dict(zip(tgt, _gather(src, act.index(a))))


# ---------------------------------------------------------------------------
# validation


def _compare(rep: Report, ids, note: str, got: list, want: list, degree: int) -> None:
    """Two images of the level ids, as lists; only a mismatch walks the
    level, failing once per simplex whose images differ."""
    if got != want:
        for x, u, v in zip(ids, got, want):
            if u != v:
                rep.fail(degree=degree, witness=(x,), note=note)


def validate(X) -> Report:
    return (validate_xiset if isinstance(X, FinXiSet) else validate_sset)(X)


def _check_relations(rep: Report, X, every: bool = True) -> None:
    """Check every simplicial identity among X's structure maps, each on a
    whole level at once, in simplicial coordinates, the face-face ones,
    unless every, only where no degeneracy (`sbot`, `stop` too) reaches;
    rep.data counts the simplices each family ("dd", "ss", "ds") compared.

    Degree K and index I are X's own degree and index for a simplicial set,
    and X's degree K - 2 and index I - 1 for an interval-site presheaf,
    which has the inner faces (0 < I < K) and all the degeneracies; the
    identities among these maps are the relations of its site.  Both sides
    of an identity are composed by `_gather` over level K; only a relation
    whose lists differ walks the level to name its witnesses.  A simplicial
    set names the relation d{i}d{j}, s{i}s{j} or d{i}s{j}; an interval-site
    presheaf names its side that is not in `generator_word`'s normal form,
    as relation:<outer>;<inner> with the map applied last first.
    """
    xi = isinstance(X, FinXiSet)
    face_keys, degen_keys, _ = _table_keys(X.cap, xi)
    d = {(k + 2 * xi, i + xi): X.faces.index[(k, i)] for k, i in face_keys}
    s = {(k + 2 * xi, j + xi): X.degens.index[(k, j)] for k, j in degen_keys}
    tables = {"d": d, "s": s}
    rep.data.update(dd=0, ss=0, ds=0)
    def relation(ids, note, outer, inner, want, rows=tables):
        """Compare want with the side outer after inner (read from rows) over ids."""
        (a, L, I), (b, M, J) = outer, inner
        got = _gather(tables[a][L, I], rows[b][M, J])
        rep.data[a + b] += len(got)
        if got != want:
            if xi:
                note = f"relation:{_name(a, L - 2, I - 1)};{_name(b, M - 2, J - 1)}"
            _compare(rep, ids, note, got, want, M - 2 * xi)

    top = X.cap + 2 * xi
    for K in range(2, top + 1):
        ids, rows = X.levels[K - 2 * xi], tables
        if not every:
            at = _nondegenerate_at(X, K - 2 * xi, xi)
            ids = _gather(ids, at)
            rows = {"d": {(K, j): _gather(d[K, j], at) for j in range(xi, K + 1 - xi)}}
        for j in range(1, K + 1 - xi):
            for i in range(xi, j):
                relation(ids, f"d{i}d{j}", ("d", K - 1, i), ("d", K, j),
                         _gather(d[K - 1, j - 1], rows["d"][K, i]), rows)
    for K in range(xi, top - 1):
        for j in range(K + 1):
            for i in range(j + 1):
                relation(X.levels[K - 2 * xi], f"s{i}s{j}", ("s", K + 1, j + 1), ("s", K, i),
                         _gather(s[K + 1, i], s[K, j]))
    for K in range(xi, top):
        same = list(range(len(ids := X.levels[K - 2 * xi])))
        for j in range(K + 1):
            for i in range(xi, K + 2 - xi):
                if i == j or i == j + 1:
                    want = same
                elif i < j:
                    want = _gather(s[K - 1, j - 1], d[K, i])
                else:
                    want = _gather(s[K - 1, j], d[K, i - 1])
                relation(ids, f"d{i}s{j}", ("d", K + 1, i), ("s", K, j), want)


def _validated(X) -> Report:
    """Every relation and the stabilization claim; the constructor decided
    the shape.  Face-face identities on nondegenerate simplices decide all
    once the d-s ones hold, which rewrite both sides on s_m y into
    degeneracies of one on y (Eilenberg-Zilber); a fault reruns every
    relation on every simplex, to name each."""
    rep = Report("validate")
    _check_relations(rep, X, every=False)
    if not rep.ok:
        _check_relations(rep := Report("validate"), X)
    _check_stable(rep, X)
    rep.verified_upto = X.cap
    return rep


@memoised
def validate_sset(X: FinSSet) -> Report:
    """Check every simplicial identity under the cap."""
    return _validated(X)


@memoised
def validate_xiset(A: FinXiSet) -> Report:
    """Check every relation of the site under the cap."""
    return _validated(A)


def _check_stable(rep: Report, X) -> None:
    """Every simplex above stable_from must be degenerate."""
    if X.stable_from is not None:
        for k in range(X.stable_from + 1, X.cap + 1):
            for x in nondegenerate(X, k):
                rep.fail(degree=k, witness=(x,), note="stable_from-violated")


def _map_squares(F, cls: str | None = None) -> list:
    """F's naturality squares as (letter, k, i, square) for the face "d" or
    degeneracy "s" of key (k, i), square in `pullback_failure`'s argument
    order: every face, then every degeneracy; for a map class, each
    degeneracy unless cls is "ulf", then each inner face unless it is
    "conservative"."""
    Y, X, xi = F.dom, F.cod, isinstance(F.dom, FinXiSet)
    comp, (face_keys, degen_keys, _) = F.components.index, _table_keys(Y.cap, xi)
    d = [("d", k, i, -1, Y.faces.index, X.faces.index) for k, i in face_keys
         if cls is None or cls != "conservative" and 0 < i + xi < k + 2 * xi]
    s = [("s", k, i, 1, Y.degens.index, X.degens.index) for k, i in degen_keys if cls != "ulf"]
    keyed = d + s if cls is None else s + d
    return [(letter, k, i, (Y.levels[k], Y.levels[k + step], X.levels[k],
                            tY[k, i], comp[k], comp[k + step], tX[k, i]))
            for letter, k, i, step, tY, tX in keyed]


def validate_map(F: SSetMap | XiSetMap) -> Report:
    """Both ends valid, then naturality against every face and degeneracy,
    each square compared as index lists on a whole level; the constructor
    decided the shape.  An end that is not valid gets its own `validate`
    report back, the domain's first."""
    X, Y = F.dom, F.cod
    for end in map(validate, (X, Y)):
        if not end.ok:
            return end
    rep, xi = Report("validate_map"), isinstance(X, FinXiSet)
    for letter, k, i, (P, _, _, p, q, f, g) in _map_squares(F):
        _compare(rep, P, f"naturality-{_label(xi, letter, k, i)}", _gather(f, p), _gather(g, q), k)
    rep.verified_upto = X.cap
    return rep


# ---------------------------------------------------------------------------
# decalage and the basic adjunction


def _stable_under(X, cap: int) -> int | None:
    return X.stable_from if X.stable_from is not None and X.stable_from <= cap else None


def _decalage(X: FinSSet, bottom: bool) -> tuple[FinSSet, SSetMap]:
    """Delete the bottom (or top) face and degeneracy in each degree; the
    counit is the deleted face.  Deleting the bottom shifts indices down."""
    if X.cap < 1:
        raise CapError("decalage needs cap >= 1")
    cap = X.cap - 1
    D = _reindexed(X, FinSSet, cap, 1, int(bottom), _stable_under(X, cap))
    counit = {k: X.faces.index[(k + 1, 0 if bottom else k + 1)] for k in range(cap + 1)}
    return D, SSetMap(D, X, counit)


def dec_bot(X: FinSSet) -> tuple[FinSSet, SSetMap]:
    """Delete the bottom level and all d_0/s_0, shifting indices down."""
    return _decalage(X, bottom=True)


def dec_top(X: FinSSet) -> tuple[FinSSet, SSetMap]:
    """Delete the top face and degeneracy in each degree."""
    return _decalage(X, bottom=False)


@memoised
def u_star(X: FinSSet) -> FinXiSet:
    """Delete the bottom level twice over: X_{k+2} becomes degree k, and
    d_{i+1}, s_{j+1} become d_i, s_j, outer indices included."""
    if X.cap < 2:
        raise CapError("u* needs cap >= 2")
    cap = X.cap - 2
    return _reindexed(X, FinXiSet, cap, 2, 1, _stable_under(X, cap))


@memoised
def i_star(A: FinXiSet) -> FinSSet:
    """Forget the degree -1 level and all the extra structure maps."""
    return _reindexed(A, FinSSet, A.cap, 0, 0, A.stable_from)


def truncate(X, cap: int):
    """The same simplicial set or interval-site presheaf, capped lower."""
    if cap > X.cap or cap < 0:
        raise CapError(f"cannot truncate cap {X.cap} to {cap}")
    return _reindexed(X, type(X), cap, 0, 0, _stable_under(X, cap))


# ---------------------------------------------------------------------------
# nondegeneracy and long-edge fibres


@memoised
def _nondegenerate_at(X, k: int, outer: bool) -> list[int]:
    """The positions in levels[k] no s_j, 0 <= j < k (with outer -1 <= j <= k), reaches."""
    hit = set().union(*(X.degens.index[k - 1, j] for j in range(-outer, k + outer)))
    return [n for n in range(len(X.levels[k])) if n not in hit]


def nondegenerate(X, k: int) -> list[str]:
    """Simplices not in the image of any degeneracy, in level order.

    In a complete decomposition space these are exactly the simplices none
    of whose principal edges is degenerate (GKT II, section 2).
    """
    if k < 0 or k > X.cap:
        raise CapError(f"degree {k} outside cap {X.cap}")
    return _gather(X.levels[k], _nondegenerate_at(X, k, False))


def long_edge_table(X: FinSSet, r: int) -> dict[str, str]:
    """levels[r] -> levels[1]: restriction to the long edge (s_0 at r = 0)."""
    return sset_action(X, MonotoneMap(1, r, (0, r)))


@memoised
def _fibre_positions(X: FinSSet, k: int) -> list[list[int]]:
    """For each arrow, by position, the positions of the k-simplices whose
    long edge it is, in level order."""
    over: list[list[int]] = [[] for _ in X.levels[1]]
    for n, a in enumerate(actions(X).index(MonotoneMap(1, k, (0, k)))):
        over[a].append(n)
    return over


@memoised
def fibres(X: FinSSet, k: int, nondeg: bool) -> dict[str, list[str]]:
    """Every arrow's k-simplices, those whose long edge it is, in level
    order; with nondeg only the nondegenerate ones."""
    ids = X.levels[k]
    keep = set(_nondegenerate_at(X, k, False)) if nondeg else None
    return {a: [ids[n] for n in over if keep is None or n in keep]
            for a, over in zip(X.levels[1], _fibre_positions(X, k))}


def nondeg_bound(X: FinSSet) -> int:
    """Largest degree under the cap carrying a nondegenerate simplex."""
    return max((k for k in range(X.cap + 1) if _nondegenerate_at(X, k, False)), default=0)


# ---------------------------------------------------------------------------
# finite pullback squares


def pullback_failure(P: list, A: list, B: list, p: list[int], q: list[int], f: list[int],
                     g: list[int], over: Counter | None = None, injective=False) -> str | None:
    """Why the square p: P -> A, q: P -> B over f: A -> C, g: B -> C fails
    to be a pullback, or None if it is one.

    p, q, f, g, over and injective are as `_counted_pullback` takes them:
    entry n of p is the position in A of the image of P[n], and f and g
    list the positions in C that A and B reach; P, A and B list the ids
    naming those positions.  Only a square the kernel rejects is
    enumerated, in P's order, then A's and B's, to name its first fault: a
    position where the square does not commute, two elements of P with one
    pair, or a pair of A x_C B that P misses; if the enumeration finds
    none, the fault is that it and the kernel disagree.
    """
    if _counted_pullback(p, q, f, g, over, injective):
        return None
    seen: dict[tuple[int, int], int] = {}
    for n, (a, b) in enumerate(zip(p, q)):
        if f[a] != g[b]:
            return f"square-does-not-commute:{P[n]}"
        if (a, b) in seen:
            return f"comparison-not-injective:{P[seen[a, b]]},{P[n]}"
        seen[a, b] = n
    by_corner: dict[int, list[int]] = {}
    for b, c in enumerate(g):
        by_corner.setdefault(c, []).append(b)
    for a, c in enumerate(f):
        for b in by_corner.get(c, ()):
            if (a, b) not in seen:
                return f"missing-fiber-pair:{A[a]},{B[b]}"
    return "kernel-and-enumeration-disagree"


def _counted_pullback(p: list[int], q: list[int], f: list[int], g: list[int],
                      over: Counter | None = None, injective: bool = False) -> bool:
    """Is the square of index lists p: P -> A, q: P -> B over f: A -> C,
    g: B -> C a pullback?

    The entries of p, q index A and B, which f and g list.  When the square
    commutes and its pairs (p x, q x) are distinct, untested if injective
    says q is, they are elements of A x_C B, so the comparison is onto, and
    the square a pullback, exactly when there are |A x_C B| of them: the
    sum over a in A of #{b : g b = f a}, read off g's fibre counts (over).
    """
    if _gather(f, p) != _gather(g, q) or not injective and len(set(zip(p, q))) != len(p):
        return False
    return len(p) == sum(map((Counter(g) if over is None else over).get, f, repeat(0)))
