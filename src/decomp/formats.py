"""Line-oriented text formats: parsers for six formats, writers for SSET,
XISET.

The writers emit UTF-8 with LF line endings, sorted identifiers and no
trailing whitespace, so identical objects serialize identically; parsers
accept '#' comments and blank lines and report positions on errors.  The
writers refuse level ids their parser could not read back, and that parser
reads the tables they write against the level lines.
"""

from __future__ import annotations

import os
from sys import intern

from .ingest import CategorySpec, MonoidSpec, PosetSpec, SpecError
from .presheaf import FinSSet, FinXiSet, ShapeError, SSetMap, XiSetMap, _gather


class ParseError(ValueError):
    def __init__(self, source: str, lineno: int, msg: str):
        super().__init__(f"{source}:{lineno}: {msg}")
        self.source = source
        self.lineno = lineno


def _lines(text: str):
    """(lineno, line) for each line not blank once its comment is cut, as
    `str.splitlines` numbers them: each slice keeps the '\\n' it ends at, so
    a break before it ('\\x0b\\n') counts a line, as the whole text would."""
    lineno, start = 0, 0
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        for raw in text[start:stop].splitlines():
            lineno += 1
            line = (raw.split("#", 1)[0] if "#" in raw else raw).rstrip()
            if line:
                yield lineno, line
        start = stop


def _directives(text: str, source: str, header: str):
    """(lineno, line) for every line after the header, which must come
    first; empty text is an error."""
    lines = _lines(text)
    for lineno, line in lines:
        if line != header:
            raise ParseError(source, lineno, f"expected header {header!r}")
        yield from lines
        return
    raise ParseError(source, 0, "empty file")


def _spec(build, source: str, *args):
    """build(*args), a SpecError raised as a ParseError of the file."""
    try:
        return build(*args)
    except SpecError as exc:
        raise ParseError(source, 0, str(exc))


def _entries(body: str, source: str, lineno: int) -> dict[str, str]:
    table: dict[str, str] = {}
    body = body.strip()
    if not body:
        return table
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if "->" not in chunk:
            raise ParseError(source, lineno, f"expected src->tgt, got {chunk!r}")
        a, b = chunk.split("->", 1)
        a, b = intern(a.strip()), intern(b.strip())
        if not a or not b or " " in a or " " in b:
            raise ParseError(source, lineno, f"bad map entry {chunk!r}")
        if a in table:
            raise ParseError(source, lineno, f"duplicate source {a!r}")
        table[a] = b
    return table


def _once(seen: set, directive: str, source: str, lineno: int) -> None:
    """Refuse a directive that already occurred in the file."""
    if directive in seen:
        raise ParseError(source, lineno, f"duplicate directive '{directive}'")
    seen.add(directive)


def _int(tok: str, source: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(source, lineno, f"expected an integer, got {tok!r}")


# ---------------------------------------------------------------------------
# SSET v1 / XISET v1


_RESERVED = ("#", "->", ";")


def _sorted(level: list[str]) -> tuple[list[int], list[str]]:
    """A level's positions in the order of its ids, and those ids."""
    order = sorted(range(len(level)), key=level.__getitem__)
    return order, _gather(level, order)


def _write_levelled(X: FinSSet | FinXiSet, header: str, xi: bool) -> str:
    """Shared writer; an XISET adds level -1 and the dnew (d_0 at degree
    0), sbot k (s_{-1}) and stop k (s_{k+1}) lines.  A level id that is
    empty or holds whitespace, '#', '->' or ';' raises ValueError.  A table
    line's pieces (line break, lead, per entry a ' ; x->' head shared by the
    level's tables and a target) go to one list, joined once."""
    cap, faces, degens = X.cap, X.faces, X.degens
    out = [header, f"\ncap {cap}"]
    if X.stable_from is not None:
        out.append(f"\nstable {X.stable_from}")
    sorts = {k: _sorted(X.levels[k]) for k in range(-1 if xi else 0, cap + 1)}
    for k, (order, ids) in sorts.items():
        line = " ".join(ids)
        if line.split() != ids or any(c in line for c in _RESERVED):
            bad = next(x for x in ids if x.split() != [x] or any(c in x for c in _RESERVED))
            raise ValueError(f"level {k} id {bad!r} is empty or holds whitespace, "
                             "'#', '->' or ';'")
        out.append(f"\nlevel {k}: {line}" if line else f"\nlevel {k}:")
        sorts[k] = order, [f" {x}->" for x in ids[:1]] + [f" ; {x}->" for x in ids[1:]]
    maps = [(f"d {k} {i}", faces, (k, i)) for k in range(1, cap + 1) for i in range(k + 1)]
    if xi:
        maps.append(("dnew", faces, (0, 0)))
    maps += [(f"s {k} {j}", degens, (k, j)) for k in range(cap) for j in range(k + 1)]
    if xi:
        maps += [(f"sbot {k}", degens, (k, -1)) for k in range(-1, cap)]
        maps += [(f"stop {k}", degens, (k, k + 1)) for k in range(-1, cap)]
    for directive, tables, (k, i) in maps:
        order, heads = sorts[k]
        parts = ["\n", f"{directive}:"] * (len(order) + 1)
        parts[2::2] = heads
        parts[3::2] = _gather(tables.targets[k + tables.step], _gather(tables.index[k, i], order))
        out += parts
    out.append("\n")
    return "".join(out)


def write_sset(X: FinSSet) -> str:
    return _write_levelled(X, "SSET v1", xi=False)


def write_xiset(A: FinXiSet) -> str:
    return _write_levelled(A, "XISET v1", xi=True)


def _table(body: str, prefixes: list[str], at: dict) -> list[int] | None:
    """The target positions of a body ' x->y ; ...', as it follows its line's
    ':', split at ' ;': prefixes[n] is ' ' + the n-th source id + '->', and at
    positions the targets; None for a body the writer would not write."""
    entries = body.split(" ;") if body else []
    if len(entries) != len(prefixes) or not all(map(str.startswith, entries, prefixes)):
        return None
    try:
        return list(map(at.__getitem__, map(str.removeprefix, entries, prefixes)))
    except KeyError:
        return None


def _parse_levelled(text: str, source: str, header: str, cls):
    """The FinSSet or FinXiSet (cls) a levelled file holds.

    The interval-site directives dnew, sbot and stop (refused in an SSET)
    fill the boundary indices d_0 at degree 0 and s_{-1}, s_{k+1} at degree
    k, so `d` and `s` lines are held to the simplicial index ranges and may
    not alias them.  A table body is read as positions by `_table` against
    the level lines above it when neither repeats an id, or else by
    `_entries` as ids; the constructor decides the shape of both.
    """
    cap = None
    stable = None
    levels: dict[int, list[str]] = {}
    read: dict[int, tuple | None] = {}  # position map, entry prefixes; None on repeats
    faces: dict[tuple[int, int], list[int] | dict[str, str]] = {}
    degens: dict[tuple[int, int], list[int] | dict[str, str]] = {}
    xi = False
    seen: set = set()

    def store(key, step, directive, body, lineno):
        tables = faces if step < 0 else degens
        if key in tables:
            raise ParseError(source, lineno, f"duplicate directive '{directive}'")
        src, tgt = read.get(key[0]), read.get(key[0] + step)
        made = _table(body, src[1], tgt[0]) if src and tgt else None
        tables[key] = _entries(body, source, lineno) if made is None else made

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
            if "->" in body or ";" in body:
                bad = next(t for t in body.split() if "->" in t or ";" in t)
                raise ParseError(source, lineno, f"identifier {bad!r} uses reserved characters")
            if k in levels:
                raise ParseError(source, lineno, f"duplicate level {k}")
            levels[k] = ids = list(map(intern, body.split()))
            at = dict(zip(ids, range(len(ids))))
            read[k] = (at, [f" {x}->" for x in ids]) if len(at) == len(ids) else None
        elif key in ("d", "s"):
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(source, lineno, f"expected '{key} <k> <i>:'")
            k, i = (_int(p, source, lineno) for p in parts)
            if not 0 <= i <= k or (key == "d" and k < 1):
                raise ParseError(source, lineno, f"index out of range in '{key} {k} {i}'")
            store((k, i), -1 if key == "d" else 1, f"{key} {k} {i}", body, lineno)
        elif line.partition(":")[0].rstrip() == "dnew":
            xi = True
            store((0, 0), -1, "dnew", line.partition(":")[2], lineno)
        elif key in ("sbot", "stop"):
            xi = True
            k = _int(head.strip(), source, lineno)
            if k < -1:
                raise ParseError(source, lineno, f"index out of range in '{key} {k}'")
            store((k, -1 if key == "sbot" else k + 1), 1, f"{key} {k}", body, lineno)
        else:
            raise ParseError(source, lineno, f"unknown directive {key!r}")
    if cap is None:
        raise ParseError(source, 0, "missing cap")
    if xi and cls is FinSSet:
        raise ParseError(source, 0, "interval-site directives in an SSET file")
    return cls(cap, levels, faces, degens, stable)


def parse_sset(text: str, source: str = "<sset>") -> FinSSet:
    return _parse_levelled(text, source, "SSET v1", FinSSet)


def parse_xiset(text: str, source: str = "<xiset>") -> FinXiSet:
    return _parse_levelled(text, source, "XISET v1", FinXiSet)


# ---------------------------------------------------------------------------
# SMAP v1


def parse_smap_text(text: str, source: str = "<smap>"):
    dom_path = cod_path = None
    comps: dict[int, dict[str, str]] = {}
    seen: set[str] = set()
    for lineno, line in _directives(text, source, "SMAP v1"):
        key, _, rest = line.partition(" ")
        if key == "dom":
            _once(seen, "dom", source, lineno)
            dom_path = rest.strip()
        elif key == "cod":
            _once(seen, "cod", source, lineno)
            cod_path = rest.strip()
        elif key == "level":
            head, _, body = rest.partition(":")
            k = _int(head.strip(), source, lineno)
            _once(seen, f"level {k}", source, lineno)
            comps[k] = _entries(body, source, lineno)
        else:
            raise ParseError(source, lineno, f"unknown directive {key!r}")
    if dom_path is None or cod_path is None:
        raise ParseError(source, 0, "missing dom/cod")
    return dom_path, cod_path, comps


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(path, 0, f"not UTF-8 text: {exc.reason}")


def load_smap(path: str) -> SSetMap | XiSetMap:
    dom_path, cod_path, comps = parse_smap_text(_read(path), path)
    base, ends = os.path.dirname(os.path.abspath(path)), []
    for key, p in (("dom", dom_path), ("cod", cod_path)):
        try:
            end = load(os.path.join(base, p))
        except ShapeError as exc:  # raised once both kinds are checked, the domain's first
            end = exc
        ends.append((end, end.kind if isinstance(end, ShapeError) else type(end)))
        if not issubclass(ends[-1][1], (FinSSet, FinXiSet)):
            raise ParseError(path, 0, f"{key} file {p!r} is not an SSET or XISET")
    (dom, kind), (cod, other) = ends
    if kind is not other:
        raise ParseError(path, 0, "dom and cod files are of different kinds")
    if fault := next((end for end in (dom, cod) if isinstance(end, ShapeError)), None):
        raise fault
    return (XiSetMap if kind is FinXiSet else SSetMap)(dom, cod, comps)


# ---------------------------------------------------------------------------
# POSET v1 / MONOID v1 / CAT v1


def parse_poset(text: str, source: str = "<poset>") -> PosetSpec:
    elements: list[str] = []
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in _directives(text, source, "POSET v1"):
        key, _, rest = line.partition(" ")
        if key == "elements:":
            _once(seen, "elements", source, lineno)
            elements = rest.split()
        elif key == "le":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError(source, lineno, "expected 'le <a> <b>'")
            pairs.append((parts[0], parts[1]))
        else:
            raise ParseError(source, lineno, f"unknown directive {key!r}")
    return _spec(PosetSpec.from_pairs, source, elements, pairs)


def parse_monoid(text: str, source: str = "<monoid>") -> MonoidSpec:
    elements: list[str] = []
    unit = None
    table: dict[tuple[str, str], str] = {}
    seen: set[str] = set()
    for lineno, line in _directives(text, source, "MONOID v1"):
        key, _, rest = line.partition(" ")
        if key == "elements:":
            _once(seen, "elements", source, lineno)
            elements = rest.split()
        elif key == "unit:":
            _once(seen, "unit", source, lineno)
            unit = rest.strip()
        elif key == "mul":
            head, _, val = rest.partition(":")
            parts = head.split()
            if len(parts) != 2 or not val.strip():
                raise ParseError(source, lineno, "expected 'mul <a> <b>: <c>'")
            _once(seen, f"mul {parts[0]} {parts[1]}", source, lineno)
            table[(parts[0], parts[1])] = val.strip()
        else:
            raise ParseError(source, lineno, f"unknown directive {key!r}")
    if unit is None:
        raise ParseError(source, 0, "missing unit")
    return _spec(MonoidSpec.build, source, elements, unit, table)


def parse_category(text: str, source: str = "<cat>") -> CategorySpec:
    objects: list[str] = []
    arrows: dict[str, tuple[str, str]] = {}
    idents: dict[str, str] = {}
    comp: dict[tuple[str, str], str] = {}
    seen: set[str] = set()
    for lineno, line in _directives(text, source, "CAT v1"):
        key, _, rest = line.partition(" ")
        if key == "objects:":
            _once(seen, "objects", source, lineno)
            objects = rest.split()
        elif key == "id":
            head, _, val = rest.partition(":")
            if not head.strip() or not val.strip():
                raise ParseError(source, lineno, "expected 'id <x>: <ix>'")
            _once(seen, f"id {head.strip()}", source, lineno)
            idents[head.strip()] = val.strip()
        elif key == "arrow":
            head, _, sig = rest.partition(":")
            if "->" not in sig:
                raise ParseError(source, lineno, "expected 'arrow <f>: <x> -> <y>'")
            s, t = (p.strip() for p in sig.split("->", 1))
            _once(seen, f"arrow {head.strip()}", source, lineno)
            arrows[head.strip()] = (s, t)
        elif key == "compose":
            head, _, val = rest.partition(":")
            parts = head.split()
            if len(parts) != 2 or not val.strip():
                raise ParseError(source, lineno, "expected 'compose <f> <g>: <h>'")
            _once(seen, f"compose {parts[0]} {parts[1]}", source, lineno)
            comp[(parts[0], parts[1])] = val.strip()
        else:
            raise ParseError(source, lineno, f"unknown directive {key!r}")
    for x, i in idents.items():
        arrows.setdefault(i, (x, x))
    return _spec(CategorySpec.build, source, objects, arrows, idents, comp)


# ---------------------------------------------------------------------------
# sniffing loaders


_PARSERS = {
    "SSET v1": parse_sset,
    "XISET v1": parse_xiset,
    "POSET v1": parse_poset,
    "MONOID v1": parse_monoid,
    "CAT v1": parse_category,
}


def parse_any(text: str, source: str = "<input>"):
    for lineno, line in _lines(text):
        parser = _PARSERS.get(line)
        if parser is None:
            raise ParseError(source, lineno, f"unknown format header {line!r}")
        return parser(text, source)
    raise ParseError(source, 0, "empty file")


def load(path: str):
    return parse_any(_read(path), path)


def write_any(obj) -> str:
    if isinstance(obj, FinXiSet):
        return write_xiset(obj)
    if isinstance(obj, FinSSet):
        return write_sset(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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


def save(obj, path: str) -> None:
    """Write obj's text to path: replace a regular (or new) file, write others in place."""
    text = write_any(obj)  # before a file is opened, so a refusal empties nothing
    if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        _replace_file(path, text)
