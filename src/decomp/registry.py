"""Content-addressed registry of interval classes, closure under
subintervals, and the finite fragment of the space of subdivided intervals.

Each entry keeps its arrow table, the degree-1 outer faces: the digest of
the interval of every arrow of its canonical form.  Closing the registry
fills the tables by a work-list over entry digests, each table transported
along the culf embeddings of its maximal arrows' intervals off their
classes' tables, so only those arrows are labelled.  The coalgebra is read
off each class's objects x and its table: [bottom, x] (x) [x, top].

Level k of the fragment collects, over every registered class, its
k-subdivisions (`interval.subdivisions`): the k-simplices over the longest
edge of its category nerve, whose ids, like its arrow table's, are the
class's own, a k-simplex the '*'-join of k level-1 ids.  Inner faces are the
nerve's own.  An outer face passes to the class of the face's long edge, and
is read off the face itself: its edges from its first to its last vertex
through each of its steps are that class's arrows, relabelled onto its ids.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from .formats import parse_xiset, write_xiset
from .ingest import SpecError
from .interval import (
    AlgebraicInterval,
    IntervalClass,
    IntervalError,
    canonicalize,
    canonicalize_with_map,
    category_nerve,
    certify_mobius_interval,
    factorisation_interval,
    longest_edge,
    validate_interval,
)
from .interval import extend_interval  # noqa: F401 -- perfbench/tracer.py wraps it here
from .presheaf import CapError, FinSSet, actions, fibres, long_edge_table
from .report import Report
from .simplex import MonotoneMap


class RegistryError(ValueError):
    pass


_DIGEST = re.compile("[0-9a-f]{64}")


@dataclass
class RegistryEntry:
    name: str
    interval: IntervalClass
    # level-1 id of the canonical form -> digest of that arrow's interval
    arrows: dict[str, str] | None = None


@dataclass
class Registry:
    entries: dict[str, RegistryEntry] = field(default_factory=dict)
    names: dict[str, str] = field(default_factory=dict)

    def insert(self, A: AlgebraicInterval | IntervalClass,
               name: str | None = None) -> str:
        """Validate, certify, canonicalize and store; duplicates collapse by
        digest."""
        if isinstance(A, IntervalClass):
            cls = A
        else:
            rep = validate_interval(A)
            if not rep.ok:
                raise RegistryError("entry fails validation:\n" + str(rep))
            cls = canonicalize(A)
        if cls.digest in self.entries:
            return cls.digest
        cert = certify_mobius_interval(cls)
        if not cert.ok:
            raise RegistryError(
                "entry fails interval certification:\n" + str(cert))
        if name is None:
            name = f"iv-{cls.digest[:10]}"
        if name in self.names:
            raise RegistryError(f"name {name!r} already in use")
        self.entries[cls.digest] = RegistryEntry(name, cls)
        self.names[name] = cls.digest
        return cls.digest

    def get(self, digest: str) -> RegistryEntry:
        try:
            return self.entries[digest]
        except KeyError:
            raise RegistryError(f"unknown digest {digest}")

    def close(self) -> Registry:
        """Insert the class of every arrow of every entry to fixpoint, giving
        every entry its arrow table; each class's table is made once."""
        found: dict[str, tuple[IntervalClass, dict[str, str]]] = {}
        queue = list(self.entries)
        while queue:
            for cls in self._subclasses(queue.pop(), found):
                queue.append(self.insert(cls))
        return self

    def is_closed(self) -> bool:
        """Does every entry's arrow table, filled where missing, name only
        entries?"""
        return all(set(self.arrow_table(digest).values()) <= self.entries.keys()
                   for digest in self.entries)

    def arrow_table(self, digest: str) -> dict[str, str]:
        """The entry's arrow table, transported if it has none yet."""
        return self._table(self.get(digest).interval, {})

    def _table(self, cls: IntervalClass, found: dict) -> dict[str, str]:
        """cls's arrow table: its entry's, or one kept in found, or else read
        off the tables of its maximal proper arrows' classes, made first and
        kept by their entries, if any."""
        entry = self.entries.get(cls.digest)
        if entry is not None and entry.arrows is not None:
            return entry.arrows
        if cls.digest not in found:
            top = longest_edge(cls.canonical.data)
            table = {top: cls.digest}
            for _, sub, pairs in maximal_cuts(_category_nerve(cls), top):
                table.update((a, self._table(sub, found)[t]) for a, t in pairs)
            found[cls.digest] = cls, table
        if entry is not None:
            entry.arrows = found[cls.digest][1]
        return found[cls.digest][1]

    def _subclasses(self, digest: str, found: dict) -> list[IntervalClass]:
        """The classes that are not entries that the entry's table, made if
        missing, names: as found, or else cut from the first arrow naming it."""
        entry = self.entries[digest]
        first: dict[str, str] = {}
        for j, sub in sorted(self._table(entry.interval, found).items()):
            if sub not in self.entries:
                first.setdefault(sub, j)
        return [found[sub][0] if sub in found else _arrow_class(entry.interval, j)
                for sub, j in first.items()]

    # -- persistence --------------------------------------------------------

    def index_rows(self) -> list[str]:
        """The index.tsv row of each entry, in digest order: its digest, name,
        1 (every entry is certified Mobius) and cap, tab-separated."""
        return [f"{digest}\t{e.name}\t1\t{e.interval.canonical.data.cap}"
                for digest, e in sorted(self.entries.items())]

    def save(self, directory: str) -> None:
        """Write every entry and its arrow table, if it has one, then the
        index.  Each file is replaced whole, so a failure part way leaves
        every stored file as it was or new."""
        os.makedirs(directory, exist_ok=True)
        for digest, e in sorted(self.entries.items()):
            _replace_file(os.path.join(directory, f"{digest}.xiset"),
                          write_xiset(e.interval.canonical.data))
            if e.arrows is not None:
                _replace_file(os.path.join(directory, f"{digest}.arrows"),
                              _arrows_text(digest, e.arrows))
        _replace_file(os.path.join(directory, "index.tsv"),
                      "".join(row + "\n" for row in self.index_rows()))

    @classmethod
    def load(cls, directory: str) -> Registry:
        """Read a saved registry.  An entry stored as a v1 canonical form,
        with a `stable` line or a cap above 2, is refused.  An entry whose
        bytes hash to its digest is as `save` wrote it; any other must
        re-canonicalize to its digest.  An arrow table is read only if it is
        intact; any other is left for `close` to recompute."""
        reg = cls()
        index = os.path.join(directory, "index.tsv")
        if not os.path.exists(index):
            raise RegistryError(f"no index.tsv under {directory}")
        try:
            with open(index, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise RegistryError(f"{index} is not UTF-8 text: {exc.reason}")
        for line in lines:
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4 or not _DIGEST.fullmatch(fields[0]) or fields[2] != "1":
                raise RegistryError(f"malformed line in {index}: {line!r}")
            digest, name = fields[:2]
            if name in reg.names or digest in reg.entries:
                raise RegistryError(f"repeated entry in {index}: {line!r}")
            path = os.path.join(directory, f"{digest}.xiset")
            with open(path, "rb") as xfh:
                raw = xfh.read()
            try:
                iv = AlgebraicInterval(parse_xiset(raw.decode("utf-8"), path))
                if iv.data.stable_from is not None or iv.data.cap > 2:
                    raise RegistryError(
                        f"stored entry {digest[:12]} is a v1 canonical form "
                        "(a stable line or a cap above 2); rebuild the registry")
                stored = IntervalClass(iv, digest)
                if hashlib.sha256(raw).hexdigest() != digest:
                    stored = canonicalize(iv)
            except RegistryError:
                raise
            except (ValueError, KeyError) as exc:
                raise RegistryError(
                    f"stored entry {digest[:12]} is damaged: {exc}")
            if stored.digest != digest:
                raise RegistryError(
                    f"stored entry {digest[:12]} does not match its digest")
            reg.entries[digest] = RegistryEntry(
                name, stored,
                _read_arrows(os.path.join(directory, f"{digest}.arrows"), digest,
                             stored.canonical.data.levels[1]))
            reg.names[name] = digest
        return reg


def maximal_cuts(X: FinSSet, skip: str | None = None):
    """Cut and label the interval of each maximal arrow a of X, the middle
    edge of no 3-simplex whose long edge is another arrow but skip, and then
    of any arrow no cut reached.  Yield a, its class and, along the culf
    embedding, (arrow of X, level-1 id of the class with that arrow's class)."""
    if X.cap < 3:
        raise CapError("factorisation interval needs cap >= 3")
    mid, long = actions(X)(MonotoneMap(1, 3, (1, 2))), long_edge_table(X, 3)
    covered = {mid[s] for s in X.levels[3] if long[s] not in (mid[s], skip)}
    reached = {skip}
    for a in [a for a in X.levels[1] if a not in covered] + X.levels[1]:
        if a not in reached:
            iv, embed = factorisation_interval(X, a)
            cls, relabel = canonicalize_with_map(iv)
            pairs = [(embed.components[1][j], relabel[1][j]) for j in iv.data.levels[1]]
            reached.update(x for x, _ in pairs)
            yield a, cls, pairs


def _category_nerve(cls: IntervalClass, cap: int = 0) -> FinSSet:
    """category_nerve(cls, cap), what it refuses named by cls's digest."""
    try:
        return category_nerve(cls, cap)
    except (SpecError, IntervalError) as exc:
        raise RegistryError(f"registry entry {cls.digest[:12]}: {exc}")


def _arrow_class(cls: IntervalClass, j: str) -> IntervalClass:
    """The class of the interval of cls's level-1 id j, cut from its nerve."""
    return canonicalize(factorisation_interval(_category_nerve(cls), j)[0])


def _arrows_text(digest: str, table: dict[str, str]) -> str:
    """An arrow table file: a header naming the entry, one id and digest
    per line, and the SHA-256 of those lines last."""
    body = f"arrows {digest}\n" + "".join(f"{j}\t{table[j]}\n" for j in sorted(table))
    return body + hashlib.sha256(body.encode("utf-8")).hexdigest() + "\n"


def _read_arrows(path: str, digest: str, ids: list[str]) -> dict[str, str] | None:
    """The arrow table at path, or None unless it is intact: its checksum
    holds, its header names digest, and it maps exactly ids to digests."""
    try:
        with open(path, "rb") as fh:
            body, _, check = fh.read().removesuffix(b"\n").rpartition(b"\n")
        body += b"\n"
        if hashlib.sha256(body).hexdigest().encode() != check:
            return None
        header, *rows = body.decode("utf-8").split("\n")[:-1]
        table = dict(row.split("\t") for row in rows)
    except (OSError, UnicodeDecodeError, ValueError):
        return None
    if (header != f"arrows {digest}" or len(table) != len(rows) or set(table) != set(ids)
            or not all(map(_DIGEST.fullmatch, table.values()))):
        return None
    return table


def _replace_file(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then move it into place."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# the fragment of subdivided intervals


@dataclass
class Fragment:
    """Finite levels of subdivided registry intervals with all face maps."""

    top: int
    levels: dict[int, list[tuple[str, str]]]
    faces: dict[tuple[int, int], dict[tuple[str, str], tuple[str, str]]]
    nerves: dict[str, FinSSet]


def build_fragment(reg: Registry, top: int = 3) -> Fragment:
    """Materialize degrees 0..top of the subdivided-interval space, each
    class read in the nerve of its arrow category."""
    if top < 0:
        raise CapError(f"fragment degree must be >= 0, got {top}")
    nerves = {digest: _category_nerve(entry.interval, top)
              for digest, entry in reg.entries.items()}
    longest = {digest: longest_edge(entry.interval.canonical.data)
               for digest, entry in reg.entries.items()}
    levels = {k: [(digest, x) for digest in sorted(nerves)
                  for x in sorted(fibres(nerves[digest], k, False)[longest[digest]])]
              for k in range(top + 1)}

    @cache
    def label(digest: str, arrow: str) -> tuple[str, dict[str, str]]:
        """The digest of an arrow's interval and its level-1 relabeling onto
        that class's ids, the interval cut and labelled at its first use."""
        cls, relabel = canonicalize_with_map(factorisation_interval(nerves[digest], arrow)[0])
        if cls.digest not in reg.entries:
            raise RegistryError(f"registry is not closed: missing {cls.digest[:12]}")
        return cls.digest, relabel[1]

    def outer_face(digest: str, x: str, k: int, i: int) -> tuple[str, str]:
        """The face tau subdivides the interval T of its long edge: its edges
        (0, p - 1, p, k - 1) are 3-simplices over that edge, T's arrows
        from bottom to top, which relabelled as T's ids join into tau's
        simplex of T's nerve; at k = 1 tau is T's one object."""
        N = nerves[digest]
        tau = N.faces[(k, i)][x]
        target, relabel = label(digest, long_edge_table(N, k - 1)[tau])
        chain = [relabel[actions(N)(MonotoneMap(3, k - 1, (0, p - 1, p, k - 1)))[tau]]
                 for p in range(1, k)]
        return target, "*".join(chain) if chain else nerves[target].levels[0][0]

    faces: dict[tuple[int, int], dict] = {}
    for k in range(1, top + 1):
        for i in range(k + 1):
            faces[(k, i)] = {(digest, x): outer_face(digest, x, k, i) if i in (0, k)
                             else (digest, nerves[digest].faces[(k, i)][x])
                             for digest, x in levels[k]}
    return Fragment(top, levels, faces, nerves)


def fragment_square_report(frag: Fragment) -> Report:
    """The degree-3 exactness square of the fragment, checked fiberwise.

    The comparison sends a 3-subdivision to (inner face, (top face, bottom
    edge)); it must biject onto the matching pairs, and the per-entry
    counts are reported.
    """
    from .presheaf import pullback_failure

    rep = Report("fragment_square")
    if frag.top < 3:
        rep.inconclusive(note="fragment-too-shallow")
        return rep
    d = frag.faces
    u3, u2, u1, u0 = (frag.levels[k] for k in (3, 2, 1, 0))
    fp1 = []
    by_vertex: dict = {}
    for y in u1:
        by_vertex.setdefault(d[(1, 1)][y], []).append(y)
    for t in u2:
        for y in by_vertex.get(d[(1, 0)][d[(2, 0)][t]], ()):
            fp1.append((t, y))
    fp1.sort()
    at1 = dict(zip(fp1, range(len(fp1))))
    fp0 = {}
    for y in u1:
        for y2 in by_vertex.get(d[(1, 0)][y], ()):
            fp0[(y, y2)] = len(fp0)
    at2 = dict(zip(u2, range(len(u2))))
    bad = pullback_failure(
        u3, u2, [f"fp1#{n}" for n in range(len(fp1))],
        [at2[d[(3, 1)][x]] for x in u3],
        [at1[(d[(3, 3)][x], d[(2, 0)][d[(3, 0)][x]])] for x in u3],
        [fp0[(d[(2, 2)][t], d[(2, 0)][t])] for t in u2],
        [fp0[(d[(2, 1)][t], y)] for t, y in fp1],
    )
    if bad is not None:
        rep.fail(degree=3, note=bad)
    counts = {}
    for digest in frag.nerves:
        counts[digest] = {
            k: sum(1 for c, _ in frag.levels[k] if c == digest)
            for k in range(4)
        }
    rep.data["counts"] = counts
    rep.verified_upto = 3
    return rep


# ---------------------------------------------------------------------------
# the registry coalgebra


def registry_comult(reg: Registry):
    """Comultiplication per registered class, read off its objects and its
    arrow table.

    Returns (pairs, counit): pairs maps a digest to the multiset, over the
    objects x, of the classes of the arrows bottom -> x and x -> top, each
    unique as the bottom is initial and the top terminal; the counit is 1
    exactly on the class with one object.
    """
    pairs: dict[str, Counter] = {}
    counit: dict[str, int] = {}
    for digest, entry in reg.entries.items():
        table = reg.arrow_table(digest)
        missing = sorted(set(table.values()).difference(reg.entries))
        if missing:
            raise RegistryError(f"registry is not closed: missing {missing[0][:12]}")
        data = entry.interval.canonical.data
        d0, d1, top = data.faces[(1, 0)], data.faces[(1, 1)], longest_edge(data)
        lower = {d0[f]: table[f] for f in data.levels[1] if d1[f] == d1[top]}
        upper = {d1[f]: table[f] for f in data.levels[1] if d0[f] == d0[top]}
        pairs[digest] = Counter((lower[x], upper[x]) for x in data.levels[0])
        counit[digest] = int(len(data.levels[0]) == 1)
    return pairs, counit
