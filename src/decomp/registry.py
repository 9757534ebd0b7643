"""Content-addressed registry of interval classes, closure under
subintervals, and the finite fragment of the space of subdivided intervals.

Each entry keeps its arrow table, the degree-1 outer faces: the digest of
each arrow's interval.  `arrow_classes` transports: only maximal arrows'
intervals are cut and labelled, and every other arrow reads its class off
their tables along the culf embeddings.  An entry's table is that transport
in its category nerve, made by `close` in one pass.  `_cut` makes every cut,
from an object at cap 4 or less, so at cap 2.

Level k of the fragment collects, over every registered class, its
k-subdivisions: the k-simplices over the longest edge of its category
nerve, whose ids, like its arrow table's, are the class's own, a k-simplex
the '*'-join of k level-1 ids.  Inner faces are the nerve's own.  An outer
face passes to the class of the face's long edge, and is read off the face
itself: its edges from its first to its last vertex through each of its
steps are that class's arrows, relabelled onto its ids.  Each nerve is read
on positions, and a subdivision is named by its id once.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from functools import cache

from .formats import _replace_file, parse_xiset, write_xiset
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
from .presheaf import CapError, FinSSet, _fibre_positions, actions, long_edge_table, truncate
from .presheaf import sset_action
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
        """Give every entry its arrow table in one pass, keeping in found each
        class a transport meets, and each class only a stored table names, cut
        at the first arrow naming it; then insert every class found."""
        found: dict[str, tuple[IntervalClass, dict[str, str]]] = {}
        for entry in list(self.entries.values()):
            for j, sub in sorted(self._table(entry.interval, found).items()):
                if sub not in self.entries and sub not in found:
                    self._table(_cut(_category_nerve(entry.interval), j)[0], found)
        for cls, table in found.values():
            self.entries[self.insert(cls)].arrows = table
        return self

    def arrow_table(self, digest: str) -> dict[str, str]:
        """The entry's arrow table, transported if it has none yet."""
        return self._table(self.get(digest).interval, {})

    def arrow_classes(self, X: FinSSet) -> dict[str, str]:
        """The digest of each arrow's interval: a maximal arrow's is cut and
        labelled, and every arrow its culf embedding reaches reads its class
        off that class's table."""
        return self._transport(X, None, {})

    def _transport(self, X: FinSSet, skip: str | None, found: dict) -> dict[str, str]:
        """arrow_classes(X) but for skip; found keeps the table of each class
        that is not an entry."""
        return {x: self._table(cls, found)[t]
                for _, cls, pairs in maximal_cuts(X, skip) for x, t in pairs}

    def _table(self, cls: IntervalClass, found: dict) -> dict[str, str]:
        """cls's arrow table: its entry's, or one kept in found, or else
        transported in its category nerve, its longest edge its own."""
        entry = self.entries.get(cls.digest)
        if entry is not None and entry.arrows is not None:
            return entry.arrows
        if cls.digest not in found:
            top = longest_edge(cls.canonical.data)
            nerve = _category_nerve(cls, 0, "interval class" if entry is None else "registry entry")
            found[cls.digest] = cls, {top: cls.digest, **self._transport(nerve, top, found)}
        if entry is not None:
            entry.arrows = found[cls.digest][1]
        return found[cls.digest][1]

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
        re-canonicalize to its digest.  Either must be an interval, and its
        index row must give its cap.  An arrow table is read only if it is
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
            rep = validate_interval(stored.canonical)
            if not rep.ok:
                raise RegistryError(f"stored entry {digest[:12]} is not an interval:\n{rep}")
            if fields[3] != str(stored.canonical.data.cap):
                raise RegistryError(f"malformed line in {index}: {line!r}")
            reg.entries[digest] = RegistryEntry(
                name, stored,
                _read_arrows(os.path.join(directory, f"{digest}.arrows"), digest,
                             stored.canonical.data.levels[1]))
            reg.names[name] = digest
        return reg


def maximal_cuts(X: FinSSet, skip: str | None = None):
    """Cut and label, in X truncated at cap 4, the interval of each maximal
    arrow a, the middle edge of no 3-simplex whose long edge is another arrow
    but skip, then of any arrow no cut reached.  Yield a, its class and, along
    the culf embedding, (middle edge, the class's level-1 id with its class)."""
    if X.cap < 3:
        raise CapError("factorisation interval needs cap >= 3")
    X = truncate(X, 4) if X.cap > 4 else X
    mid, long = sset_action(X, MonotoneMap(1, 3, (1, 2))), long_edge_table(X, 3)
    covered = {mid[s] for s in X.levels[3] if long[s] not in (mid[s], skip)}
    reached = {skip}
    for a in [a for a in X.levels[1] if a not in covered] + X.levels[1]:
        if a not in reached:
            cls, relabel = _cut(X, a)
            pairs = [(mid[s], j) for s, j in relabel.items()]
            reached.update(x for x, _ in pairs)
            yield a, cls, pairs


def _category_nerve(cls: IntervalClass, cap: int = 0, kind: str = "registry entry") -> FinSSet:
    """category_nerve(cls, cap), what it refuses named by kind and cls's digest."""
    try:
        return category_nerve(cls, cap)
    except (SpecError, IntervalError) as exc:
        raise RegistryError(f"{kind} {cls.digest[:12]}: {exc}")


def _cut(X: FinSSet, a: str) -> tuple[IntervalClass, dict[str, str]]:
    """The class of the interval of X's arrow a and the relabelling of its
    level 1 onto the class's ids; X's cap is at most 4, so the cut's is 2."""
    cls, relabel = canonicalize_with_map(factorisation_interval(X, a)[0])
    return cls, relabel[1]


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
    class read in the nerve of its arrow category on positions (the fibres
    over its longest edge, its faces and a face's edges), and a
    subdivision named by its id in the nerve."""
    if top < 0:
        raise CapError(f"fragment degree must be >= 0, got {top}")
    nerves = {digest: _category_nerve(entry.interval, top)
              for digest, entry in reg.entries.items()}
    low = {digest: truncate(N, 4) if top > 4 else N for digest, N in nerves.items()}
    over = {digest: nerves[digest].levels[1].index(longest_edge(entry.interval.canonical.data))
            for digest, entry in reg.entries.items()}
    fibre = {k: [(digest, n) for digest, N in sorted(nerves.items())
                 for n in sorted(_fibre_positions(N, k)[over[digest]], key=N.levels[k].__getitem__)]
             for k in range(top + 1)}
    levels = {k: [(digest, nerves[digest].levels[k][n]) for digest, n in ps]
              for k, ps in fibre.items()}

    @cache
    def label(digest: str, arrow: str) -> tuple[str, dict[str, str]]:
        """The digest of an arrow's interval and its level-1 relabeling onto
        that class's ids, the interval cut and labelled at its first use."""
        cls, relabel = _cut(low[digest], arrow)
        if cls.digest not in reg.entries:
            raise RegistryError(f"registry is not closed: missing {cls.digest[:12]}")
        return cls.digest, relabel

    def face(digest: str, n: int, k: int, i: int) -> tuple[str, str]:
        """An inner face is the nerve's own.  An outer face tau subdivides
        the interval T of its long edge: its edges (0, p - 1, p, k - 1) are
        3-simplices over that edge, T's arrows from bottom to top, which
        relabelled as T's ids join into tau's simplex of T's nerve; at k = 1
        tau is T's one object."""
        N = nerves[digest]
        tau = N.faces.index[(k, i)][n]
        if i not in (0, k):
            return digest, N.levels[k - 1][tau]
        act = actions(N).index
        target, relabel = label(digest, N.levels[1][act(MonotoneMap(1, k - 1, (0, k - 1)))[tau]])
        chain = [relabel[N.levels[3][act(MonotoneMap(3, k - 1, (0, p - 1, p, k - 1)))[tau]]]
                 for p in range(1, k)]
        return target, "*".join(chain) if chain else nerves[target].levels[0][0]

    faces = {(k, i): {x: face(digest, n, k, i) for x, (digest, n) in zip(levels[k], fibre[k])}
             for k in range(1, top + 1) for i in range(k + 1)}
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
