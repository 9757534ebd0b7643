"""Content-addressed registry of interval classes, closure under
subintervals, and the finite fragment of the space of subdivided intervals.

Each entry keeps its arrow table, the degree-1 outer faces: the digest of
the interval of every arrow of its canonical form.  Closing the registry
fills the tables, and the registry coalgebra is read off them.

Level k of the fragment collects, over every registered class, the
k-simplices whose long edge is the longest edge; inner faces act within a
class, outer faces pass to the subinterval of the dropped-vertex long edge
and transport the simplex along its arrow chain.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections import Counter
from dataclasses import dataclass, field

from .formats import parse_xiset, write_xiset
from .interval import (
    AlgebraicInterval,
    ExtendedInterval,
    IntervalClass,
    _fiber,
    canonicalize,
    canonicalize_with_map,
    category_nerve,
    certify_mobius_interval,
    extend_interval,
    factorisation_intervals,
    longest_edge,
    validate_interval,
)
from .interval import factorisation_interval  # noqa: F401 -- perfbench/tracer.py wraps it here
from .presheaf import _index_view, actions, i_star, long_edge_table
from .report import Report
from .simplex import MonotoneMap


class RegistryError(ValueError):
    pass


_DIGEST = re.compile("[0-9a-f]{64}")


@dataclass
class RegistryEntry:
    digest: str
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
        self.entries[cls.digest] = RegistryEntry(cls.digest, name, cls)
        self.names[name] = cls.digest
        return cls.digest

    def get(self, digest: str) -> RegistryEntry:
        try:
            return self.entries[digest]
        except KeyError:
            raise RegistryError(f"unknown digest {digest}")

    def close(self) -> Registry:
        """Insert the interval of every arrow of every entry to fixpoint,
        giving every entry its arrow table."""
        for cls in self._missing():
            self.insert(cls)
        return self

    def is_closed(self) -> bool:
        return next(self._missing(), None) is None

    def arrow_table(self, digest: str) -> dict[str, str]:
        """The entry's arrow table, cut and labelled if it has none yet."""
        entry = self.get(digest)
        if entry.arrows is None:
            entry.arrows = {j: c.digest for j, c in _arrow_classes(entry.interval).items()}
        return entry.arrows

    def _missing(self):
        """Lazily, the classes of arrow intervals of entries that are not
        entries, walking on into each class it yields.  An entry without an
        arrow table is cut and labelled whole and gets one; of an entry with
        one, only an arrow of each digest missing from the registry is.  A
        class is yielded again at its next sight unless the caller inserts
        it."""
        queue = [entry.interval for entry in self.entries.values()]
        while queue:
            cls = queue.pop()
            entry = self.entries.get(cls.digest)
            if entry is None or entry.arrows is None:
                found = _arrow_classes(cls)
                if entry is not None:
                    entry.arrows = {j: c.digest for j, c in found.items()}
            else:
                first: dict[str, str] = {}
                for j, digest in sorted(entry.arrows.items()):
                    if digest not in self.entries:
                        first.setdefault(digest, j)
                found = _arrow_classes(cls, list(first.values())) if first else {}
            for sub in found.values():
                if sub.digest not in self.entries:
                    yield sub
                    queue.append(sub)

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
        """Read a saved registry.  An entry whose bytes hash to its digest is
        as `save` wrote it; any other must re-canonicalize to its digest.
        An arrow table is read only if it is intact; any other is left for
        `close` to recompute."""
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
                stored = IntervalClass(iv, digest)
                if hashlib.sha256(raw).hexdigest() != digest:
                    stored = canonicalize(iv)
            except (ValueError, KeyError) as exc:
                raise RegistryError(
                    f"stored entry {digest[:12]} is damaged: {exc}")
            if stored.digest != digest:
                raise RegistryError(
                    f"stored entry {digest[:12]} does not match its digest")
            reg.entries[digest] = RegistryEntry(
                digest, name, stored,
                _read_arrows(os.path.join(directory, f"{digest}.arrows"), digest,
                             stored.canonical.data.levels[1]))
            reg.names[name] = digest
        return reg


def _arrow_classes(cls: IntervalClass,
                   ids: list[str] | None = None) -> dict[str, IntervalClass]:
    """The class of the interval of each level-1 id of cls (every one by
    default), cut from the nerve of its arrow category."""
    N, arr_name = category_nerve(cls)
    arrows = None if ids is None else [arr_name[j] for j in ids]
    level1 = {a: j for j, a in arr_name.items()}
    return {level1[a]: canonicalize(sub)
            for a, (sub, _) in factorisation_intervals(N, arrows).items()}


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
    extensions: dict[str, ExtendedInterval]


def build_fragment(reg: Registry, top: int = 3) -> Fragment:
    """Materialize degrees 0..top of the subdivided-interval space."""
    exts: dict[str, ExtendedInterval] = {}
    for digest, entry in reg.entries.items():
        canon = entry.interval.canonical
        exts[digest] = extend_interval(canon, max(top + 1, canon.data.stable_from or 0))

    levels: dict[int, list[tuple[str, str]]] = {}
    for k in range(top + 1):
        members = []
        for digest in sorted(reg.entries):
            members += [(digest, x)
                        for x in sorted(_fiber(exts[digest].interval.data, k, False))]
        levels[k] = members

    cuts: dict[str, dict] = {}
    cache: dict[tuple[str, str], tuple] = {}

    def subinterval(digest: str, arrow: str):
        """Canonical class, level-1 relabeling and presheaf of an arrow's
        interval; every interval of an extension is cut at its first use."""
        key = (digest, arrow)
        if key not in cache:
            if digest not in cuts:
                cuts[digest] = factorisation_intervals(exts[digest].nerve)
            sub, _ = cuts[digest][arrow]
            cls, relabel = canonicalize_with_map(sub)
            if cls.digest not in reg.entries:
                raise RegistryError(
                    f"registry is not closed: missing {cls.digest[:12]}")
            cache[key] = (cls.digest, relabel[1], sub.data)
        return cache[key]

    def outer_face(digest: str, x: str, k: int, i: int) -> tuple[str, str]:
        ext = exts[digest]
        data = ext.interval.data
        tau = data.faces[(k, i)][x]
        ell = long_edge_table(i_star(data), k - 1)[tau]
        arrow = ext.embed.components[1][ell]
        sub_digest, sub_arrows, sub = subinterval(digest, arrow)
        N = ext.nerve
        tau_n = ext.embed.components[k - 1][tau]
        flank = N.degens[(k, 0)][N.degens[(k - 1, k - 1)][tau_n]]
        at = _index_view(sub).pos[k - 1][flank]
        act = actions(sub)
        chain = [sub.levels[1][act.index(MonotoneMap(3, k + 1, (0, pos - 1, pos, k + 1)))[at]]
                 for pos in range(1, k + 2)]
        target_ext = exts[sub_digest]
        new_id = target_ext.chain_id([sub_arrows[h] for h in chain])
        return (sub_digest, new_id)

    faces: dict[tuple[int, int], dict] = {}
    for k in range(1, top + 1):
        for i in range(k + 1):
            table = {}
            for digest, x in levels[k]:
                if 0 < i < k:
                    table[(digest, x)] = (digest, exts[digest].interval.data.faces[(k, i)][x])
                else:
                    table[(digest, x)] = outer_face(digest, x, k, i)
            faces[(k, i)] = table
    level_sets = {k: set(members) for k, members in levels.items()}
    for (k, _i), table in faces.items():
        for value in table.values():
            if value not in level_sets[k - 1]:
                raise RegistryError(f"fragment face left the fragment: {value}")
    return Fragment(top, levels, faces, exts)


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
    for digest in frag.extensions:
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
    """Comultiplication by midpoint subdivision, per registered class, read
    off the arrow tables.

    Returns (pairs, counit): pairs maps a digest to the multiset of
    (lower digest, upper digest) over its 2-subdivisions, the classes of
    their d2 and d0 edges; the counit is 1 exactly on classes admitting a
    0-subdivision.
    """
    pairs: dict[str, Counter] = {}
    counit: dict[str, int] = {}
    for digest, entry in reg.entries.items():
        table = reg.arrow_table(digest)
        missing = sorted(set(table.values()).difference(reg.entries))
        if missing:
            raise RegistryError(f"registry is not closed: missing {missing[0][:12]}")
        data = entry.interval.canonical.data
        pairs[digest] = Counter((table[lo], table[up]) for lo, up in _midpoints(data))
        counit[digest] = 1 if _fiber(data, 0, False) else 0
    return pairs, counit


def _midpoints(data) -> list[tuple[str, str]]:
    """The d2 and d0 edges of each 2-simplex over the longest edge.  Below
    cap 2 no 2-simplex is nondegenerate, so these are the two degeneracies
    of the longest edge, which coincide when it is degenerate itself."""
    if data.cap >= 2:
        d2, d0 = data.faces[(2, 2)], data.faces[(2, 0)]
        return [(d2[x], d0[x]) for x in _fiber(data, 2, False)]
    top, s0 = longest_edge(data), data.degens[(0, 0)]
    return sorted({(s0[data.faces[(1, 1)][top]], top), (top, s0[data.faces[(1, 0)][top]])})
