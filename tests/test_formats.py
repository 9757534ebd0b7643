import contextlib
import io
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import poset_specs
from test_ingest import free_categories, truncated_free_monoids

from decomp.cli import main
from decomp.formats import (
    ParseError,
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
    write_category,
    write_monoid,
    write_poset,
    write_smap,
    write_sset,
    write_xiset,
)
from decomp.ingest import MonoidSpec, divisor_poset, nerve, nerve_poset, truncated_addition
from decomp.interval import factorisation_interval
from decomp.presheaf import (
    FinXiSet,
    SSetMap,
    dec_bot,
    dec_top,
    point_sset,
    point_xiset,
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


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_sset("SSET v1\ncap x\n")
    assert ":2:" in str(err.value)


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


def test_load_sniffs_format(tmp_path):
    save(divisor_poset(6), tmp_path / "p.poset")
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
    save(divisor_poset(6), path)
    before = path.read_bytes()
    with pytest.raises(TypeError, match="cannot serialize object"):
        save(object(), path)
    with pytest.raises(ValueError, match="'p#q'"):
        save(point_sset(3, "p#q"), path)
    assert path.read_bytes() == before


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
    X = nerve_poset(divisor_poset(6), 3)
    levels = dict(X.levels)
    levels[2] = ["zz z", *X.levels[2], "a#"]
    with pytest.raises(ValueError, match="level 2 id 'a#'"):
        write_sset(replace(X, levels=levels))


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
    save(divisor_poset(6), tmp_path / "d6.poset")
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
    text = write_any(spec)
    again = parse_any(text)
    assert type(again) is type(spec)
    assert write_any(again) == text
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
        text = write_any(draw(_spec_objects()))
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
