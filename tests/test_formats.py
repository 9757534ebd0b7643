import contextlib
import io
import os
import re
import stat
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import oracles
import pytest
from oracles import save_spec, write_category, write_monoid, write_poset, write_smap, write_spec
from conftest import (
    divisor_poset,
    fail_writes_part_way,
    point_sset,
    point_xiset,
    truncated_addition,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import poset_specs
from test_ingest import free_categories, truncated_free_monoids

from decomp.cli import main
from decomp.formats import (
    ParseError,
    _lines,
    load,
    load_smap,
    parse_any,
    parse_category,
    parse_monoid,
    parse_poset,
    parse_smap_text,
    parse_sset,
    parse_xiset,
    save,
    write_any,
    write_sset,
    write_xiset,
)
from decomp.ingest import MonoidSpec, nerve, nerve_poset
from decomp.interval import factorisation_interval
from decomp.presheaf import (
    FinXiSet,
    FinSSet,
    ShapeError,
    SSetMap,
    dec_bot,
    dec_top,
    u_star,
    validate,
)


def test_sset_roundtrip_is_canonical():
    X = nerve_poset(divisor_poset(6), 4)
    text = write_sset(X)
    again = parse_sset(text)
    assert write_sset(again) == text
    assert again == X or sorted(again.levels[1]) == sorted(X.levels[1])
    assert text.endswith("\n")
    assert not any(line != line.rstrip() for line in text.splitlines())


def test_xiset_roundtrip_is_canonical():
    A = u_star(nerve_poset(divisor_poset(6), 4))
    text = write_xiset(A)
    assert write_xiset(parse_xiset(text)) == text


def test_sset_rejects_xiset_directives():
    X = nerve_poset(divisor_poset(6), 4)
    bad = write_sset(X) + "sbot 0: x->y\n"
    with pytest.raises(ParseError):
        parse_sset(bad)


def test_dnew_directive_matches_exactly():
    from decomp.presheaf import u_star

    text = write_xiset(u_star(nerve_poset(divisor_poset(6), 4)))
    assert "dnew:" in text
    parse_xiset(text)
    with pytest.raises(ParseError, match="dnewfoo"):
        parse_xiset(text.replace("dnew:", "dnewfoo:"))


def test_repeated_map_directive_is_rejected():
    X = nerve_poset(divisor_poset(6), 4)
    text = write_sset(X)
    line = next(ln for ln in text.splitlines() if ln.startswith("d 1 0:"))
    with pytest.raises(ParseError, match="duplicate directive 'd 1 0'"):
        parse_sset(text + line + "\n")
    xtext = write_xiset(u_star(X))
    line = next(ln for ln in xtext.splitlines() if ln.startswith("sbot 0:"))
    with pytest.raises(ParseError, match="duplicate directive 'sbot 0'"):
        parse_xiset(xtext + line + "\n")


@pytest.mark.parametrize("parse, write", [(parse_sset, write_sset), (parse_xiset, write_xiset)])
@pytest.mark.parametrize("directive", ["cap", "stable"])
def test_repeated_cap_or_stable_is_rejected(parse, write, directive):
    """A second cap or stable line is refused at its line, not obeyed."""
    X = nerve_poset(divisor_poset(6), 4)
    lines = write(X if parse is parse_sset else u_star(X)).splitlines()
    line = next(ln for ln in lines if ln.split()[0] == directive)
    text = "\n".join(lines + [line]) + "\n"
    with pytest.raises(ParseError, match=f":{len(lines) + 1}: duplicate directive '{directive}'"):
        parse(text)


def _counit_smap_text():
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 4))
    return write_smap(counit, "dom.sset", "cod.sset")


SPEC_TEXTS = {
    "smap": (parse_smap_text, _counit_smap_text),
    "poset": (parse_poset, lambda: write_poset(divisor_poset(6))),
    "monoid": (parse_monoid, lambda: write_monoid(truncated_addition(3))),
    "cat": (parse_category,
            lambda: "CAT v1\nobjects: x\nid x: ix\narrow f: x -> x\ncompose f f: f\n"),
}


@pytest.mark.parametrize("kind, directive", [
    ("smap", "dom"), ("smap", "cod"), ("smap", "level 1"),
    ("poset", "elements"),
    ("monoid", "elements"), ("monoid", "unit"), ("monoid", "mul 1 1"),
    ("cat", "objects"), ("cat", "id x"), ("cat", "arrow f"), ("cat", "compose f f"),
])
def test_repeated_spec_directive_is_rejected(kind, directive):
    """A second line of a directive is refused at its line; the last one
    used to win."""
    parse, make = SPEC_TEXTS[kind]
    text = make()
    lines = text.splitlines()
    line = next(ln for ln in lines if ln.startswith(directive)
                and ln[len(directive)] in " :")
    parse(text)
    with pytest.raises(ParseError, match=f":{len(lines) + 1}: duplicate directive '{directive}'"):
        parse("\n".join(lines + [line]) + "\n")


@pytest.mark.parametrize("directive", ["d 0 0", "d 1 2", "d 2 -1", "s 1 -1", "s 1 2",
                                       "sbot -2", "stop -2"])
def test_map_directive_index_out_of_range(directive):
    """d and s lines may not reach the indices dnew, sbot and stop hold."""
    text = write_xiset(u_star(nerve_poset(divisor_poset(6), 4))).splitlines()
    at = len(text) + 1
    with pytest.raises(ParseError, match=f":{at}: index out of range"):
        parse_xiset("\n".join(text + [f"{directive}:"]) + "\n")


@pytest.mark.parametrize("write, parse, obj", [
    (write_sset, parse_sset, nerve_poset(divisor_poset(6), 4)),
    (write_xiset, parse_xiset, u_star(nerve_poset(divisor_poset(6), 4))),
], ids=["sset", "xiset"])
def test_stable_degree_below_minus_one_is_refused(write, parse, obj):
    """-1 claims level 0 is degenerate and parses; lower degrees name the line."""
    lines = write(obj).splitlines()
    at = lines.index("stable 2") + 1
    lines[at - 1] = "stable -1"
    assert parse("\n".join(lines) + "\n").stable_from == -1
    lines[at - 1] = "stable -3"
    with pytest.raises(ParseError, match=f":{at}: stable degree -3 below -1"):
        parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("parse", [parse_sset, parse_xiset, parse_poset, parse_monoid,
                                   parse_category, parse_smap_text])
@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment"])
def test_every_parser_refuses_empty_text(parse, text):
    with pytest.raises(ParseError, match="empty file"):
        parse(text, "x")


def test_sset_rejects_empty_dnew():
    text = write_sset(nerve_poset(divisor_poset(6), 4)) + "dnew:\n"
    with pytest.raises(ParseError, match="interval-site directives"):
        parse_sset(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_monoid, "MONOID v1\nelements: e\nmul e e: e\n", "<monoid>:0: missing unit"),
    (parse_sset, "SSET v1\ncap 1\nlevel 0: a\nedge 1: a\n", "<sset>:4: unknown directive 'edge'"),
    (parse_xiset, "XISET v1\n# x\ncap 0\n\nsnew 0: a->a\n",
     "<xiset>:5: unknown directive 'snew'"),
], ids=["monoid-unit", "sset-directive", "xiset-directive"])
def test_parsers_name_a_missing_unit_and_an_unknown_directive(parse, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_sset, "SSET v1\ncap 1\nlevel 0: a\nlevel 1: e\nd 1:\n",
     "<sset>:5: expected 'd <k> <i>:'"),
    (parse_sset, "SSET v1\ncap 1\nlevel 0: a\nlevel 1: e\ns 0 0 0: a->e\n",
     "<sset>:5: expected 's <k> <i>:'"),
    (parse_poset, "POSET v1\nelements: a b\nle a\n", "<poset>:3: expected 'le <a> <b>'"),
    (parse_monoid, "MONOID v1\nelements: e\nunit: e\nmul e: e\n",
     "<monoid>:4: expected 'mul <a> <b>: <c>'"),
    (parse_monoid, "MONOID v1\nelements: e\nunit: e\nmul e e:\n",
     "<monoid>:4: expected 'mul <a> <b>: <c>'"),
    (parse_category, "CAT v1\nobjects: x\nid x:\n", "<cat>:3: expected 'id <x>: <ix>'"),
    (parse_category, "CAT v1\nobjects: x\nid x: 1\narrow f: x\n",
     "<cat>:4: expected 'arrow <f>: <x> -> <y>'"),
    (parse_category, "CAT v1\nobjects: x\nid x: 1\narrow f: x -> x\ncompose f: f\n",
     "<cat>:5: expected 'compose <f> <g>: <h>'"),
], ids=["sset-d", "sset-s", "poset-le", "monoid-mul-args", "monoid-mul-value", "cat-id",
        "cat-arrow", "cat-compose"])
def test_parsers_name_a_malformed_directive_and_its_line(parse, text, message):
    """A directive whose head does not have its fields is refused by the
    form it should have, at its line."""
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_a_body_cut_short_of_its_next_source_is_refused():
    """Split at ' ;', the body below has three entries, as level 1 has
    three ids, but the second does not start with ' y->'.  Read against
    the level lines it would be y->b; it is read entry by entry, and the
    bare 'b' is refused at its line."""
    text = ("SSET v1\ncap 1\nlevel 0: a b\nlevel 1: x y z\n"
            "d 1 0: x->a ;b ; z->b\nd 1 1: x->a ; y->b ; z->b\ns 0 0: a->x ; b->z\n")
    with pytest.raises(ParseError, match="^<sset>:5: expected src->tgt, got 'b'$"):
        parse_sset(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_sset("SSET v1\ncap x\n")
    assert ":2:" in str(err.value)


# Every line boundary `str.splitlines` knows, \r\n among them.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.one_of(st.text(alphabet="a #\t", max_size=3), st.sampled_from(_LINE_BREAKS)),
                max_size=16).map("".join))
@example("".join(f"x{brk}" for brk in _LINE_BREAKS) + "end")
@example("a\r\n\r\nb\n\rc\r")
@example("\x0b\na")
@example("a\x85\n\nb")
def test_lines_read_a_slice_at_a_time_as_splitlines_does(text):
    """The lines and line numbers the parsers read, from one slice of text
    up to a newline at a time, are those of one `str.splitlines` of it."""
    assert list(_lines(text)) == list(oracles.lines_by_splitlines(text))


def test_comments_and_blanks_ignored():
    text = "# leading comment\n\nPOSET v1\nelements: a b  # trailing\nle a b\n"
    spec = parse_poset(text)
    assert spec.leq("a", "b")


def test_poset_roundtrip_and_antisymmetry():
    spec = divisor_poset(12)
    text = write_poset(spec)
    assert write_poset(parse_poset(text)) == text
    with pytest.raises(ParseError) as err:
        parse_poset("POSET v1\nelements: a b\nle a b\nle b a\n")
    assert str(err.value) == "<poset>:0: antisymmetry violated by a and b"


def test_monoid_roundtrip_and_rejection():
    spec = truncated_addition(3)
    text = write_monoid(spec)
    assert write_monoid(parse_monoid(text)) == text
    bad = ("MONOID v1\nelements: 0 1\nunit: 0\n"
           "mul 0 0: 0\nmul 0 1: 1\nmul 1 0: 1\nmul 1 1: 1\n")
    with pytest.raises(ParseError) as err:
        parse_monoid(bad)
    assert "factorisations" in str(err.value)


def test_category_roundtrip_and_validation():
    text = ("CAT v1\nobjects: x y\nid x: ix\nid y: iy\n"
            "arrow f: x -> y\n")
    spec = parse_category(text)
    assert write_category(parse_category(write_category(spec))) == \
        write_category(spec)
    with pytest.raises(ParseError):
        parse_category("CAT v1\nobjects: x\nid x: ix\n"
                       "arrow f: x -> x\narrow g: x -> x\n")  # missing f;g


def test_smap_roundtrip(tmp_path):
    X = nerve_poset(divisor_poset(6), 4)
    D, counit = dec_bot(X)
    save(X, tmp_path / "cod.sset")
    save(D, tmp_path / "dom.sset")
    text = write_smap(counit, "dom.sset", "cod.sset")
    (tmp_path / "counit.smap").write_text(text, encoding="utf-8")
    M = load_smap(str(tmp_path / "counit.smap"))
    assert isinstance(M, SSetMap)
    assert M.components == counit.components
    assert M.dom == D and M.cod == X


@pytest.mark.parametrize("body, lineno, message", [
    ("dom d.sset\ncod d6.poset\nlevel 0:\n", 0, "cod file 'd6.poset' is not an SSET or XISET"),
    ("dom d.sset\ncod u.xiset\nlevel 0:\n", 0, "dom and cod files are of different kinds"),
    ("# no cod line\ndom d.sset\nlevel 0:\n", 0, "missing dom/cod"),
    ("dom d.sset\n\ncod d.sset\nlevel 0: 1->1 ; ->2\n", 5, "bad map entry '->2'"),
    ("dom d.sset\ncod d.sset\nlevel 0: 1->1 ; 2 3->2\n", 4, "bad map entry '2 3->2'"),
], ids=["cod-not-a-presheaf", "different-kinds", "missing-cod", "empty-source",
        "spaced-source"])
def test_load_smap_input_guards_name_their_line(tmp_path, body, lineno, message):
    """Each refusal of an SMAP file names the file and the line it is on, 0
    for a fault of the file as a whole; `check culf` prints it on stderr
    and exits 2."""
    X = nerve_poset(divisor_poset(6), 3)
    save(X, tmp_path / "d.sset")
    save(u_star(X), tmp_path / "u.xiset")
    save_spec(divisor_poset(6), tmp_path / "d6.poset")
    smap = tmp_path / "m.smap"
    smap.write_text("SMAP v1\n" + body, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_smap(str(smap))
    assert (err.value.lineno, str(err.value)) == (lineno, f"{smap}:{lineno}: {message}")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as got:
        assert main(["check", "culf", str(smap)]) == 2
    assert (out.getvalue(), got.getvalue()) == ("", f"error: {smap}:{lineno}: {message}\n")


def test_load_sniffs_format(tmp_path):
    save_spec(divisor_poset(6), tmp_path / "p.poset")
    spec = load(str(tmp_path / "p.poset"))
    assert spec.leq("2", "6")
    with pytest.raises(ParseError):
        load(__file__)


# ---------------------------------------------------------------------------
# failed saves, unreadable ids, round trips and mutated text


def test_failed_save_keeps_the_file(tmp_path):
    """The text is made before the file is opened, so a save that fails
    leaves the file's bytes as they were."""
    path = tmp_path / "kept.poset"
    save_spec(divisor_poset(6), path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="cannot serialize object"):
        save(object(), path)
    with pytest.raises(TypeError, match="^cannot serialize PosetSpec$"):
        save(divisor_poset(6), path)
    with pytest.raises(ValueError, match="'p#q'"):
        save(point_sset(3, "p#q"), path)
    assert path.read_bytes() == before


def test_save_that_fails_part_way_keeps_the_file(tmp_path, monkeypatch):
    """A write that fails part way, as on a full disk, raises its OSError,
    leaves the bytes at the path as they were and no temporary file."""
    path = tmp_path / "kept.sset"
    save(nerve_poset(divisor_poset(6), 3), path)
    before = path.read_bytes()
    wrote = fail_writes_part_way(monkeypatch)
    with pytest.raises(OSError, match="No space left on device"):
        save(nerve_poset(divisor_poset(12), 3), path)
    assert len(wrote) == 1 and wrote[0] > 0
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["kept.sset"]


def test_save_writes_a_fifo_or_a_symlinks_target_in_place(tmp_path):
    """Only a new or regular file is replaced whole: a FIFO at the path is
    fed the text and stays a FIFO, and a symlink stays a link whose target
    holds the text, as when the file is opened for writing."""
    X = nerve_poset(divisor_poset(6), 2)
    fifo, link, target = tmp_path / "out.sset", tmp_path / "link.sset", tmp_path / "t.sset"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the text fits the pipe's buffer
    try:
        save(X, fifo)
        got = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(fifo.lstat().st_mode) and got.decode() == write_sset(X)
    target.write_text("old\n")
    link.symlink_to(target)
    save(X, link)
    assert link.is_symlink() and target.read_text() == write_sset(X)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.sset", "out.sset", "t.sset"]


@pytest.mark.parametrize("kind, bound", [("sset", 1.75), ("xiset", 1.75), ("smap", 2.25)])
def test_writers_hold_one_copy_of_the_text(poset_nerves, kind, bound):
    """Each writer appends the pieces of its lines to one list and joins it
    once, so no string is made per line.  Besides the text it holds that
    list and each level's id order; the SSET/XISET writers also hold the
    ' ; x->' head of each source id, shared by the level's tables, where
    an SMAP entry is four pieces, ' ; ', x, '->' and y.  For d60 at cap 7
    (8,678 simplices) the peak is 1.50x (SSET), 1.55x (XISET) and 1.92x
    (SMAP) the text.  A writer that joins per-line strings holds the text
    twice and peaks at 2.24x, 2.29x and 5.37x."""
    X = poset_nerves["d60"]
    write, *args = {"sset": (write_sset, X), "xiset": (write_xiset, u_star(X)),
                    "smap": (write_smap, dec_bot(X)[1], "dom.sset", "cod.sset")}[kind]
    tracemalloc.start()
    try:
        text = write(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * sys.getsizeof(text)


@pytest.mark.parametrize("bad", ["p#q", "", "a b", "a\tb", "a\u2028b", "a->b", "a;b"])
@pytest.mark.parametrize("write, make", [(write_sset, point_sset), (write_xiset, point_xiset)],
                         ids=["sset", "xiset"])
def test_writers_refuse_ids_their_parser_cannot_read(bad, write, make):
    """A valid object whose level id is empty or holds whitespace, '#', '->'
    or ';' is refused by the writer, naming the first such id."""
    X = make(3, bad)
    assert validate(X).ok
    lo = -1 if write is write_xiset else 0
    with pytest.raises(ValueError) as err:
        write(X)
    assert str(err.value) == (f"level {lo} id {bad!r} is empty or holds whitespace, "
                              "'#', '->' or ';'")


def test_writer_names_the_first_unreadable_id():
    """Two 2-simplices renamed, the tables handed over as positions: the
    writer names the first unreadable id in its sorted order."""
    X = nerve_poset(divisor_poset(6), 3)
    levels = dict(X.levels)
    levels[2] = ["zz z", *X.levels[2][1:-1], "a#"]
    with pytest.raises(ValueError, match="level 2 id 'a#'"):
        write_sset(FinSSet(X.cap, levels, X.faces.index, X.degens.index))


def test_a_table_outside_its_level_is_refused_as_object_and_as_text():
    """A table with one entry sent outside its level makes no object, so
    there is nothing to write: the constructor and the parser of the text
    holding that entry refuse it with the same validation line."""
    X = nerve_poset(divisor_poset(6), 3)
    key = X.levels[2][0]
    want = [f"FAIL validate degree=2 witness={key},nowhere note=d0-target-outside-level"]
    with pytest.raises(ShapeError) as got:
        replace(X, faces={**X.faces, (2, 0): {**X.faces[(2, 0)], key: "nowhere"}})
    assert got.value.report.lines() == want
    text = re.sub(f"(d 2 0:.*{re.escape(key)}->)[^ ]*", r"\1nowhere", write_sset(X))
    assert f"{key}->nowhere" in text
    with pytest.raises(ShapeError) as got:
        parse_sset(text)
    assert got.value.report.lines() == want


@pytest.mark.parametrize("bad", ["", "a#b.sset", " lead.sset", "trail.sset ", "a\nb.sset",
                                 "a\rb.sset", "a\u2028b.sset", "end.sset\n"])
@pytest.mark.parametrize("which", ["dom", "cod"])
def test_write_smap_refuses_paths_its_parser_cannot_read(bad, which):
    """A dom or cod path that is empty or holds '#', a line break, or
    leading or trailing whitespace would not read back: `a#b.sset` would
    read as `a` and ` lead.sset` as `lead.sset`."""
    _, counit = dec_bot(nerve_poset(divisor_poset(6), 4))
    paths = {"dom": "dom.sset", "cod": "cod.sset", which: bad}
    with pytest.raises(ValueError) as err:
        write_smap(counit, paths["dom"], paths["cod"])
    assert str(err.value) == (f"{which} path {bad!r} is empty or holds '#', a line break, "
                              "or leading or trailing whitespace")


def test_load_smap_names_a_file_that_is_not_a_presheaf(tmp_path, capsys):
    save_spec(divisor_poset(6), tmp_path / "d6.poset")
    smap = tmp_path / "p.smap"
    smap.write_text("SMAP v1\ndom d6.poset\ncod d6.poset\nlevel 0:\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_smap(str(smap))
    assert str(err.value) == f"{smap}:0: dom file 'd6.poset' is not an SSET or XISET"
    assert main(["check", "culf", str(smap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {smap}:0: dom file 'd6.poset' is not an SSET or XISET\n"


@st.composite
def levelled_objects(draw):
    """A drawn poset nerve, truncated addition, free monoid or free category
    nerve, or the XISET of one of its arrows' intervals or of its u*."""
    spec, cap = draw(st.one_of(poset_specs(), truncated_free_monoids(), free_categories(),
                               st.tuples(st.builds(truncated_addition, st.integers(0, 4)),
                                         st.integers(2, 5))))
    if isinstance(spec, MonoidSpec):
        spec = MonoidSpec.build(spec.elements, spec.unit, spec.table)
    X = nerve(spec, max(cap, 3))
    kind = draw(st.sampled_from(["sset", "interval", "u_star"]))
    if kind == "sset":
        return X
    return (u_star(X) if kind == "u_star"
            else factorisation_interval(X, draw(st.sampled_from(X.levels[1])))[0].data)


def _spec_objects():
    return st.one_of(poset_specs(), truncated_free_monoids(), free_categories()).map(
        lambda spec_cap: spec_cap[0] if not isinstance(spec_cap[0], MonoidSpec)
        else MonoidSpec.build(spec_cap[0].elements, spec_cap[0].unit, spec_cap[0].table))


ROUNDTRIP = settings(max_examples=60, deadline=None, database=None)


@ROUNDTRIP
@given(levelled_objects())
def test_levelled_write_parse_roundtrip(X):
    text = write_any(X)
    again = parse_any(text)
    assert type(again) is type(X) and again == X
    assert write_any(again) == text


@ROUNDTRIP
@given(_spec_objects())
def test_spec_write_parse_roundtrip(spec):
    """POSET, MONOID and CAT text parses back to a spec that writes the
    same text and builds the same nerve."""
    text = write_spec(spec)
    again = parse_any(text)
    assert type(again) is type(spec)
    assert write_spec(again) == text
    assert write_sset(nerve(again, 3)) == write_sset(nerve(spec, 3))


def _reads_back(path):
    """Does an SMAP dom line read back as this path, naming a file?"""
    try:
        return parse_smap_text(f"SMAP v1\ndom {path}\ncod c\n")[0] == path != ""
    except ParseError:
        return False


_PATHS = st.one_of(st.just("dom.sset"),
                   st.text(st.sampled_from("ab./é #\t\n\r\x0b\x0c\x1c\x85\u2028\u3000"),
                           max_size=5))


@ROUNDTRIP
@given(levelled_objects().filter(lambda X: not isinstance(X, FinXiSet)),
       st.sampled_from([dec_bot, dec_top]), _PATHS, _PATHS)
def test_smap_write_parse_roundtrip(X, dec, dom, cod):
    """Paths that read back make the round trip; the writer refuses the
    first path that does not, naming it."""
    _, counit = dec(X)
    unreadable = [(which, path) for which, path in (("dom", dom), ("cod", cod))
                  if not _reads_back(path)]
    if unreadable:
        which, path = unreadable[0]
        with pytest.raises(ValueError, match=f"^{which} path {re.escape(repr(path))} "):
            write_smap(counit, dom, cod)
        return
    text = write_smap(counit, dom, cod)
    assert parse_smap_text(text) == (dom, cod, counit.components)


def _mutated(draw, text):
    """text with one to three edits: a character deleted, a token inserted,
    or a line deleted, repeated or swapped with the next."""
    lines = text.splitlines()
    for how in draw(st.lists(st.sampled_from(["delete", "insert", "drop", "repeat", "swap"]),
                             min_size=1, max_size=3)):
        n = draw(st.integers(0, len(lines) - 1))
        if how in ("delete", "insert"):
            at = draw(st.integers(0, len(lines[n])))
            if how == "delete":
                lines[n] = lines[n][:at] + lines[n][at + 1:]
            else:
                token = draw(st.sampled_from([" ", "\t", "#", ";", "->", ":", "-", "9", "0",
                                              "x", "≤", " ; ", "\n", "level 9: x"]))
                lines[n] = lines[n][:at] + token + lines[n][at:]
        elif how == "drop":
            del lines[n]
        elif how == "repeat":
            lines.insert(n, lines[n])
        elif n + 1 < len(lines):
            lines[n], lines[n + 1] = lines[n + 1], lines[n]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def mutated_files(draw):
    """(files, commands): the text of a drawn object of one of the six
    formats with a few edits, and the CLI commands that read it, with {d}
    for the directory that holds the files."""
    kind = draw(st.sampled_from(["sset", "xiset", "smap", "spec"]))
    if kind == "spec":
        text = write_spec(draw(_spec_objects()))
        return {"in.txt": _mutated(draw, text)}, [["nerve", "{d}/in.txt", "-o", "{d}/out.sset"]]
    X = draw(levelled_objects().filter(lambda X: isinstance(X, FinXiSet) == (kind == "xiset")))
    if kind == "xiset":
        return ({"in.xiset": _mutated(draw, write_xiset(X))},
                [["check", "flanked", "{d}/in.xiset"], ["registry", "add", "{d}/r", "{d}/in.xiset"]])
    if kind == "smap":
        D, counit = dec_bot(X)
        files = {"dom.sset": write_sset(D), "cod.sset": write_sset(X),
                 "in.smap": write_smap(counit, "dom.sset", "cod.sset")}
        name = draw(st.sampled_from(sorted(files)))
        files[name] = _mutated(draw, files[name])
        return files, [["check", "culf", "{d}/in.smap"]]
    arrow = draw(st.sampled_from(X.levels[1]))
    return {"in.sset": _mutated(draw, write_sset(X))}, [
        ["check", what, "{d}/in.sset"] for what in ("segal", "decomp", "complete", "mobius")
    ] + [["mobius", "{d}/in.sset"], ["coalg-table", "{d}/in.sset"],
         ["dec", "bot", "{d}/in.sset", "-o", "{d}/out.sset"],
         ["interval", "{d}/in.sset", "--arrow", arrow, "-o", "{d}/out.xiset"]]


@settings(max_examples=150, deadline=None, database=None)
@given(mutated_files())
def test_cli_on_mutated_text_exits_with_a_code(case):
    """Every command on edited text of every format exits 0, 1 or 2 and
    raises nothing."""
    files, commands = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv in commands:
            argv = [a.replace("{d}", tmp) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv
