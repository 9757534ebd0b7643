"""Canonical labeling of finite unary structures, and isomorphism decided
by comparing canonical forms.

A structure is a family of sorted carriers with labeled total functions
between them (faces, degeneracies, the extra interval-site maps), given
as sort sizes and position tables.  The elements are numbered 0..n-1,
sorts in order and each sort in its own order, and a partition is an
ordered list of cells in which an element's color is the position of its
cell.

Colors are refined in synchronous rounds.  An element's signature is the
colors of its out-neighbors in label order followed by its sorted in-edges,
each encoded as label rank * n + color, which orders exactly as the
(label, color) pairs would.  Out-edges carry no label: the maps are total,
so elements of one sort have the same out-labels in the same order.  Each
cell splits in place into sub-cells ordered by signature and the colors are
renumbered densely; refinement stops after a round in which no cell split.
A worklist (Paige & Tarjan) limits a round to the cells with a neighbor in
a part of a cell split the round before, skipping the largest part of each
split: members of any other cell agree on their edges into it already.

Remaining ties are broken by individualization and backtracking, taking
the minimum serialized form, so equal canonical forms mean isomorphic
structures and conversely.  A leaf serializing as the first leaf does gives
an automorphism (McKay & Piperno 2014).  Automorphisms skip the children of
a first-path node that they carry an explored sibling onto, and such a leaf
off the first path ends its subtree.  Skipped leaves repeat serializations
met earlier, so every order and digest is that of the full search.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add


@dataclass
class UnarySystem:
    """sizes: sort-key -> element count; maps: (label, src sort, tgt sort,
    table), table[p] the position in tgt of the image of element p of src.

    Labels are distinct; a table not of its source's size is a ValueError.
    """

    sizes: dict
    maps: list


class _Indexed:
    """A system on indices 0..n-1: edges, per-sort members and map images."""

    def __init__(self, sys: UnarySystem):
        self.members, n = {}, 0
        for s in sorted(sys.sizes):
            self.members[s], n = range(n, n + sys.sizes[s]), n + sys.sizes[s]
        self.sizes = tuple(map(len, self.members.values()))
        self.maps = sorted(sys.maps, key=lambda m: m[0])
        rank = {lbl: r for r, lbl in enumerate(sorted({m[0] for m in self.maps}))}
        self.out = [[] for _ in range(n)]
        self.in_code = [[] for _ in range(n)]
        self.in_src = [[] for _ in range(n)]
        self.images = []
        for label, src, tgt, table in self.maps:
            members, offset = self.members[src], self.members[tgt].start
            if len(table) != len(members):
                raise ValueError(f"table {label} has {len(table)} entries, not {len(members)}")
            code = rank[label] * n
            image = [-1] * n
            for i, p in zip(members, table):
                image[i] = j = offset + p
                self.out[i].append(j)
                self.in_code[j].append(code)
                self.in_src[j].append(i)
            self.images.append(image)
        self.neighbors = [o + s for o, s in zip(self.out, self.in_src)]

    def initial(self):
        """One cell per nonempty sort, every element touched."""
        cells = [list(m) for m in self.members.values() if m]
        color = [c for c, cell in enumerate(cells) for _ in cell]
        return color, cells, range(len(color))

    def serialize(self, color):
        """The tables under a discrete coloring, rows in color order."""
        get = color.__getitem__
        ranked = {s: sorted(m, key=get) for s, m in self.members.items()}
        key = [self.sizes]
        for (_, src, _, _), image in zip(self.maps, self.images):
            key.append(tuple(map(get, map(image.__getitem__, ranked[src]))))
        return tuple(key)


def _refine(g: _Indexed, color, cells, touched):
    """Refine in place to a stable coloring; touched holds the elements of
    the cell parts that changed last, less the largest part of each split."""
    out, in_code, in_src, neighbors = g.out, g.in_code, g.in_src, g.neighbors
    while True:
        get = color.__getitem__
        candidates = {color[j] for i in touched for j in neighbors[i]}
        splits = {}
        for c in candidates:
            cell = cells[c]
            if len(cell) == 1:
                continue
            parts: dict[tuple, list] = {}
            for i in cell:
                sig = (*map(get, out[i]),
                       *sorted(map(add, in_code[i], map(get, in_src[i]))))
                parts.setdefault(sig, []).append(i)
            if len(parts) > 1:
                splits[c] = [parts[sig] for sig in sorted(parts)]
        if not splits:
            return color, cells
        first = min(splits)
        refined = cells[:first]
        touched = []
        for c in range(first, len(cells)):
            parts = splits.get(c)
            if parts is None:
                refined.append(cells[c])
                continue
            refined += parts
            largest = max(parts, key=len)
            for part in parts:
                if part is not largest:
                    touched += part
        for c in range(first, len(refined)):
            for i in refined[c]:
                color[i] = c
        cells = refined


def _orbit(seeds, gens) -> set:
    """The orbit of the seeds under the group the index maps gens generate."""
    orbit = frontier = set(seeds)
    while frontier:
        frontier = {a[x] for a in gens for x in frontier} - orbit
        orbit |= frontier
    return orbit


def _canonical(sys: UnarySystem):
    """The indexed system, its least serialization and the discrete
    coloring that first gives it, searching with automorphism pruning."""
    g = _Indexed(sys)
    first: list = []
    best: list = [None, None]
    autos: list = []

    def descend(color, cells, path):
        """Search below a node; a depth to jump back to, or None."""
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            key = g.serialize(color)
            if not first:
                first[:] = path, key, color
            if best[0] is None or key < best[0]:
                best[:] = key, color
            if key != first[1] or path is first[0]:
                return None
            # kept only if it fixes the first path above the branch point d,
            # so it fixes the prefix of every first-path node still open
            at = sorted(range(len(color)), key=color.__getitem__)
            auto = [at[c] for c in first[2]]
            top = first[0]
            d = next(d for d, (u, v) in enumerate(zip(top, path)) if u != v)
            if [auto[v] for v in top[:d + 1]] != path[:d + 1] or any(
                    auto[i] not in m for m in g.members.values() for i in m):
                return None
            autos.append(auto)
            return d
        t = color[target[0]]
        explored: list = []
        for e in target:
            if explored and path == first[0][:len(path)] and e in _orbit(explored, autos):
                continue
            explored.append(e)
            nxt = color[:]
            nxt[e] = len(cells)
            split = cells[:t] + [[i for i in target if i != e]] + cells[t + 1:] + [[e]]
            back = descend(*_refine(g, nxt, split, [e]), path + [e])
            if back is not None and back < len(path):
                return back
        return None

    descend(*_refine(g, *g.initial()), [])
    return g, best[0], best[1]


def canonical_order(sys: UnarySystem) -> dict:
    """Canonical position of every element within its sort.

    Returns {sort: [canonical position of element p, for each p]};
    isomorphic systems produce orderings under which their serializations
    coincide.
    """
    g, _, color = _canonical(sys)
    ranked = {s: sorted(g.members[s], key=color.__getitem__) for s in sys.sizes}
    return {s: sorted(range(len(r)), key=r.__getitem__) for s, r in ranked.items()}
