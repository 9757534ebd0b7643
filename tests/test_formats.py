import pytest

from decomp.formats import (
    ParseError,
    load,
    load_smap,
    parse_category,
    parse_monoid,
    parse_poset,
    parse_smap_text,
    parse_sset,
    parse_xiset,
    save,
    write_category,
    write_monoid,
    write_poset,
    write_smap,
    write_sset,
    write_xiset,
)
from decomp.ingest import divisor_poset, nerve_poset, truncated_addition
from decomp.presheaf import SSetMap, dec_bot, u_star


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
    assert "a" in str(err.value) and "b" in str(err.value)


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
