"""Finite posets, partial monoids and categories, and their nerves.

All three nerves come from one builder: level k holds the strings of k
composable arrows whose composite is defined.  A poset's arrows are its
relations a≤b, a partial monoid's are its elements on one object `*`, and
a category's are its arrows.  Monoid multiplication tables may be partial:
a string is a simplex only when all its contiguous products are defined.
That is what makes truncations of infinite monoids (the additive naturals
cut at a bound, say) ingestible while genuinely non-stabilizing monoids
are rejected up front.  `mobius_length` counts the strings of non-identity
arrows by length and composite off the composite table: the longest is the
nerve's stable degree, and plus 3 its default cap.  Categories with
composable cycles have no such bound and need an explicit cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from sys import intern

from .presheaf import FinSSet

MAX_LEVEL_ENV = "DECOMP_MAX_LEVEL_SIZE"


class SpecError(ValueError):
    pass


def max_level_size() -> int:
    """The level-size limit: 100000 when unset or empty, else a positive
    integer; anything else is a SpecError rather than a silent default."""
    raw = os.environ.get(MAX_LEVEL_ENV, "")
    if not raw:
        return 100000
    try:
        size = int(raw)
    except ValueError:
        size = 0
    if size < 1:
        raise SpecError(f"{MAX_LEVEL_ENV}={raw!r} is not a positive integer")
    return size


def _guard_level(k: int, size: int) -> None:
    if size > max_level_size():
        raise SpecError(
            f"level {k} would hold {size} simplices, over the "
            f"{MAX_LEVEL_ENV} limit {max_level_size()}"
        )


# A nerve's face and degeneracy tables may hold this many entries per unit
# of the level-size limit: 2,000,000 at the default limit.
_TABLE_ENTRIES_PER_LEVEL_SIZE = 20


def _guard_tables(k: int, entries: int) -> None:
    limit = _TABLE_ENTRIES_PER_LEVEL_SIZE * max_level_size()
    if entries > limit:
        raise SpecError(
            f"the tables up to level {k} would hold {entries} entries, over the "
            f"limit {limit} ({_TABLE_ENTRIES_PER_LEVEL_SIZE} x {MAX_LEVEL_ENV})"
        )


_FORBIDDEN = ("->", ";", "#", "≤", "*", "+", "&")


def check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise SpecError(f"bad element name {name!r}")
    for frag in _FORBIDDEN:
        if frag in name:
            raise SpecError(f"element name {name!r} contains reserved {frag!r}")
    return name


# ---------------------------------------------------------------------------
# the one nerve builder


def mobius_length(comp, units) -> tuple[list[dict], frozenset]:
    """The strings of arrows outside units with a defined composite, where
    comp[f][g] is the composite f then g: frontier n maps each composite h
    to the number of n-strings composing to h, and its keys fix the next.
    Returns the frontiers before the first key set met twice, whose number
    is the Möbius length, and that key set, empty exactly when it is bounded.
    """
    counts, frontier = [], {f: 1 for f in comp if f not in units}
    while frontier and all(frontier.keys() != old.keys() for old in counts):
        counts.append(frontier)
        frontier = {}
        for c, n in counts[-1].items():
            for g, h in comp[c].items():
                if g not in units:
                    frontier[h] = frontier.get(h, 0) + n
    return counts, frozenset(frontier)


def _nerve(objects, arrows, identities, comp, link, cap, sort_levels=False) -> FinSSet:
    """Level k holds the strings p·g of a (k-1)-string p and an arrow g
    whose composite with p's composite is defined.

    objects is level 0 and arrows ({name: (src, tgt)}) level 1, in order;
    comp[f][g] is the composite f then g, inner keys in arrow order; a
    string's id is its prefix's id followed by link[g].  Every face and
    degeneracy of s = p·g is p, or a face or degeneracy of p, or s itself,
    extended by one arrow: one lookup in the index of the level below or
    above, keyed by (prefix id, arrow).  Levels keep the order of
    generation unless sort_levels sorts them by id.

    Each simplex of level k is the source of k + 1 face entries (k >= 1)
    and k + 1 degeneracy entries (k < cap).  The entries are counted from
    the rows as each level is generated, and past the limit of
    `_guard_tables` the build stops before any table exists.
    """
    counts, loop = mobius_length(comp, set(identities.values()))
    if cap is None:
        if loop:
            raise SpecError("category has composable cycles; pass an explicit cap")
        cap = len(counts) + 3
    if cap < 2:
        raise SpecError("nerve needs cap >= 2")
    objects = [intern(x) for x in objects]
    arrows = {intern(g): (intern(s), intern(t)) for g, (s, t) in arrows.items()}
    ident_after = {g: intern(identities[t]) for g, (_, t) in arrows.items()}
    # a row is (id, prefix id, last arrow, composite, last two arrows composed)
    rows = {1: [(g, s, g, g, None) for g, (s, _) in arrows.items()]}
    _guard_level(1, len(rows[1]))
    entries = len(objects) + 2 * len(rows[1])
    for k in range(2, cap + 1):
        rows[k] = [(intern(p + link[g]), p, g, h, comp[f][g])
                   for p, _, f, c, _ in rows[k - 1] for g, h in comp[c].items()]
        _guard_level(k, len(rows[k]))
        entries += (k + 1) * len(rows[k]) + k * len(rows[k - 1])
        _guard_tables(k, entries)
    levels = {0: objects, **{k: [row[0] for row in rows[k]] for k in rows}}
    if sort_levels:
        levels = {k: sorted(ids) for k, ids in levels.items()}
    faces = {(1, 0): {g: t for g, (_, t) in arrows.items()},
             (1, 1): {g: s for g, (s, _) in arrows.items()}}
    degens = {(0, 0): {x: intern(identities[x]) for x in objects}}
    below = {(s, g): g for g, (s, _) in arrows.items()}
    for k in range(2, cap + 1):
        # faces of level k look up in level k-1, degeneracies of level k-1 in level k
        ext = {(p, g): s for s, p, g, _, _ in rows[k]}
        for i in range(k - 1):
            fi = faces[k - 1, i]
            faces[k, i] = {s: below[fi[p], g] for s, p, g, _, _ in rows[k]}
        up = faces[k - 1, k - 1]
        faces[k, k - 1] = {s: below[up[p], m] for s, p, _, _, m in rows[k]}
        faces[k, k] = {s: p for s, p, _, _, _ in rows[k]}
        for j in range(k - 1):
            sj = degens[k - 2, j]
            degens[k - 1, j] = {s: ext[sj[p], g] for s, p, g, _, _ in rows[k - 1]}
        degens[k - 1, k - 1] = {s: ext[s, ident_after[g]] for s, _, g, _, _ in rows[k - 1]}
        below = ext
        del rows[k - 1]
    stable = None if loop else min(len(counts), cap)
    return FinSSet(cap, levels, faces, degens, stable_from=stable)


# ---------------------------------------------------------------------------
# posets


@dataclass
class PosetSpec:
    elements: list[str]
    le: set[tuple[str, str]] = field(default_factory=set)

    @classmethod
    def from_pairs(cls, elements, pairs) -> PosetSpec:
        """Build the reflexive-transitive closure (Warshall) and check
        antisymmetry, naming the first violating pair in sorted order."""
        elems = [check_name(e) for e in elements]
        if len(set(elems)) != len(elems):
            raise SpecError("duplicate poset elements")
        known = set(elems)
        rel = {(e, e) for e in elems}
        for a, b in pairs:
            if a not in known or b not in known:
                raise SpecError(f"relation {a} <= {b} uses unknown element")
            rel.add((a, b))
        for b in elems:
            for a in elems:
                if (a, b) in rel:
                    rel.update((a, c) for c in elems if (b, c) in rel)
        for a, b in sorted(rel):
            if a != b and (b, a) in rel:
                raise SpecError(f"antisymmetry violated by {a} and {b}")
        return cls(sorted(elems), rel)

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.le

    def covers(self) -> list[tuple[str, str]]:
        out = []
        for a, b in sorted(self.le):
            if a == b:
                continue
            if any(z not in (a, b) and self.leq(a, z) and self.leq(z, b)
                   for z in self.elements):
                continue
            out.append((a, b))
        return out

    def up_sets(self) -> dict[str, list[str]]:
        return {a: [b for b in self.elements if self.leq(a, b)]
                for a in self.elements}

    def interval(self, x: str, y: str) -> PosetSpec:
        """The sub-poset of elements between x and y."""
        if not self.leq(x, y):
            raise SpecError(f"{x} is not below {y}")
        elems = [z for z in self.elements if self.leq(x, z) and self.leq(z, y)]
        keep = {p for p in self.le if p[0] in elems and p[1] in elems}
        return PosetSpec(elems, keep)


def nerve_poset(spec: PosetSpec, cap: int | None = None) -> FinSSet:
    """Nerve with one simplex per weakly increasing chain, ids joined by ≤."""
    ups = spec.up_sets()
    arrow = {(a, b): intern(f"{a}≤{b}") for a in spec.elements for b in ups[a]}
    comp = {f: {arrow[b, c]: arrow[a, c] for c in ups[b]} for (a, b), f in arrow.items()}
    return _nerve(spec.elements, {f: ab for ab, f in arrow.items()},
                  {a: arrow[a, a] for a in spec.elements}, comp,
                  {f: "≤" + b for (_, b), f in arrow.items()}, cap)


# ---------------------------------------------------------------------------
# partial monoids


@dataclass
class MonoidSpec:
    elements: list[str]
    unit: str
    table: dict[tuple[str, str], str]

    @classmethod
    def build(cls, elements, unit, table) -> MonoidSpec:
        elems = [check_name(e) for e in elements]
        if len(set(elems)) != len(elems):
            raise SpecError("duplicate monoid elements")
        known = set(elems)
        if unit not in known:
            raise SpecError(f"unit {unit} is not an element")
        tbl = dict(table)
        for (a, b), c in tbl.items():
            if a not in known or b not in known or c not in known:
                raise SpecError(f"product {a}.{b}={c} uses unknown element")
        spec = cls(sorted(elems), unit, tbl)
        spec._validate()
        return spec

    def mul(self, a: str, b: str) -> str | None:
        return self.table.get((a, b))

    def _validate(self) -> None:
        e = self.unit
        for a in self.elements:
            if self.mul(e, a) != a or self.mul(a, e) != a:
                raise SpecError(f"unit laws fail at {a}")
        for a in self.elements:
            for b in self.elements:
                ab = self.mul(a, b)
                for c in self.elements:
                    bc = self.mul(b, c)
                    left = self.mul(ab, c) if ab is not None else None
                    right = self.mul(a, bc) if bc is not None else None
                    if left != right:
                        raise SpecError(f"associativity fails on ({a},{b},{c})")
        for (a, b), c in self.table.items():
            if c == e and (a, b) != (e, e):
                raise SpecError(
                    f"decomposition property fails: {a}.{b} = unit")
        # factorisations into non-units must die out, else no Mobius inversion
        _, loop = mobius_length(self.composites(), {e})
        if loop:
            raise SpecError(
                "decomposition property fails: element "
                f"{min(loop)} admits arbitrarily long factorisations")

    def composites(self) -> dict[str, dict[str, str]]:
        """comp[a][b] = a.b wherever it is defined, keys in element order."""
        elems, table = self.elements, self.table
        return {a: {b: table[a, b] for b in elems if (a, b) in table} for a in elems}


def nerve_monoid(spec: MonoidSpec, cap: int | None = None) -> FinSSet:
    """One-object nerve; k-simplices are strings with all products defined."""
    return _nerve(["*"], {m: ("*", "*") for m in spec.elements}, {"*": spec.unit},
                  spec.composites(), {m: "+" + m for m in spec.elements}, cap)


def truncated_addition(bound: int) -> MonoidSpec:
    """The additive naturals cut off above `bound` (a partial monoid)."""
    elems = [str(i) for i in range(bound + 1)]
    table = {}
    for i in range(bound + 1):
        for j in range(bound + 1 - i):
            table[(str(i), str(j))] = str(i + j)
    return MonoidSpec.build(elems, "0", table)


# ---------------------------------------------------------------------------
# categories


@dataclass
class CategorySpec:
    objects: list[str]
    arrows: dict[str, tuple[str, str]]
    identities: dict[str, str]
    comp: dict[tuple[str, str], str]

    @classmethod
    def build(cls, objects, arrows, identities, comp) -> CategorySpec:
        objs = [check_name(o) for o in objects]
        if len(set(objs)) != len(objs):
            raise SpecError("duplicate objects")
        arrs = {check_name(f): (s, t) for f, (s, t) in arrows.items()}
        for f, (s, t) in arrs.items():
            if s not in objs or t not in objs:
                raise SpecError(f"arrow {f}: {s} -> {t} uses unknown object")
        idents = dict(identities)
        if sorted(idents) != sorted(objs):
            raise SpecError("every object needs exactly one identity arrow")
        for x, i in idents.items():
            if arrs.get(i) != (x, x):
                raise SpecError(f"identity {i} of {x} is not an endo-arrow")
        spec = cls(sorted(objs), arrs, idents,
                   {tuple(k): v for k, v in comp.items()})
        spec._validate()
        return spec

    def src(self, f: str) -> str:
        return self.arrows[f][0]

    def tgt(self, f: str) -> str:
        return self.arrows[f][1]

    def is_identity(self, f: str) -> bool:
        return self.identities.get(self.src(f)) == f

    def compose(self, f: str, g: str) -> str:
        """f then g."""
        if self.tgt(f) != self.src(g):
            raise SpecError(f"{f} and {g} are not composable")
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        return self.comp[(f, g)]

    def _validate(self) -> None:
        for (f, g), h in self.comp.items():
            if f not in self.arrows or g not in self.arrows or h not in self.arrows:
                raise SpecError(f"composite {f};{g}={h} uses unknown arrow")
            if self.tgt(f) != self.src(g):
                raise SpecError(f"composite listed for non-composable {f};{g}")
            if (self.src(h), self.tgt(h)) != (self.src(f), self.tgt(g)):
                raise SpecError(f"composite {f};{g}={h} has wrong endpoints")
            if self.is_identity(f) and h != g:
                raise SpecError(f"identity law fails on {f};{g}")
            if self.is_identity(g) and h != f:
                raise SpecError(f"identity law fails on {f};{g}")
        nonid = [f for f in self.arrows if not self.is_identity(f)]
        for f in nonid:
            for g in nonid:
                if self.tgt(f) == self.src(g) and (f, g) not in self.comp:
                    raise SpecError(f"missing composite for {f};{g}")
        for f in nonid:
            for g in nonid:
                if self.tgt(f) != self.src(g):
                    continue
                for h in nonid:
                    if self.tgt(g) != self.src(h):
                        continue
                    if self.compose(self.compose(f, g), h) != \
                            self.compose(f, self.compose(g, h)):
                        raise SpecError(f"associativity fails on ({f},{g},{h})")

    def composites(self) -> dict[str, dict[str, str]]:
        """comp[f][g] = f then g for every g leaving f's target, in name order."""
        arrows = sorted(self.arrows)
        after = {x: [g for g in arrows if self.src(g) == x] for x in self.objects}
        return {f: {g: self.compose(f, g) for g in after[self.tgt(f)]} for f in arrows}


def nerve_category(spec: CategorySpec, cap: int | None = None) -> FinSSet:
    """k-simplices are composable arrow strings, ids joined by '*', sorted."""
    arrows = {f: spec.arrows[f] for f in sorted(spec.arrows)}
    return _nerve(spec.objects, arrows, spec.identities, spec.composites(),
                  {f: "*" + f for f in arrows}, cap, sort_levels=True)


def nerve(spec, cap: int | None = None) -> FinSSet:
    if isinstance(spec, PosetSpec):
        return nerve_poset(spec, cap)
    if isinstance(spec, MonoidSpec):
        return nerve_monoid(spec, cap)
    if isinstance(spec, CategorySpec):
        return nerve_category(spec, cap)
    raise SpecError(f"cannot build a nerve from {type(spec).__name__}")


# ---------------------------------------------------------------------------
# stock posets used throughout the tests and docs


def divisor_poset(n: int) -> PosetSpec:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    pairs = [(str(a), str(b)) for a in divs for b in divs if b % a == 0]
    return PosetSpec.from_pairs([str(d) for d in divs], pairs)


def boolean_poset(n: int) -> PosetSpec:
    """Subsets of an n-element set ordered by inclusion."""
    subsets = [frozenset(c) for m in range(n + 1)
               for c in combinations(range(n), m)]

    def name(s):
        return "o" if not s else "".join(chr(ord("a") + i) for i in sorted(s))

    pairs = [(name(a), name(b)) for a in subsets for b in subsets if a <= b]
    return PosetSpec.from_pairs([name(s) for s in subsets], pairs)


def chain_poset(n: int) -> PosetSpec:
    elems = [str(i) for i in range(n + 1)]
    pairs = [(str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)]
    return PosetSpec.from_pairs(elems, pairs)
