import hashlib
import os
import re
import shutil
import stat
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import decomp
from decomp.cli import main
from decomp.formats import load, save, write_xiset
from decomp.ingest import PosetSpec, nerve
from decomp.interval import canonicalize, factorisation_interval
from decomp.presheaf import truncate, u_star
from decomp.registry import Registry
from conftest import (
    chain_poset,
    divisor_poset,
    filter_nerve,
    invalid_object,
    spine_object,
    truncated_addition,
)
from oracles import save_spec, write_smap
from test_fastpaths import _REPORT_LINE

SEP = "≤"


@pytest.fixture()
def d6_file(tmp_path) -> str:
    save_spec(divisor_poset(6), tmp_path / "d6.poset")
    return str(tmp_path / "d6.poset")


@pytest.fixture()
def d6_sset(tmp_path, d6_file) -> str:
    out = str(tmp_path / "d6.sset")
    assert main(["nerve", d6_file, "-o", out]) == 0
    return out


def test_nerve_and_checks(d6_sset, capsys):
    assert main(["check", "segal", d6_sset]) == 0
    assert main(["check", "decomp", d6_sset]) == 0
    assert main(["check", "complete", d6_sset]) == 0
    assert main(["check", "mobius", d6_sset]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_nerve_writes_os_devnull_in_place(d6_file, capsys, monkeypatch):
    """`-o os.devnull` keeps only the report: the device is written in
    place and stays a character device.  Replacing files is refused here,
    so a save that would move a file over the device fails this test and
    leaves the device alone."""
    def refuse(path, text):
        raise AssertionError(f"would replace {path}")
    monkeypatch.setattr("decomp.formats._replace_file", refuse)
    assert main(["nerve", d6_file, "-o", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert capsys.readouterr().err == ""


def test_check_fails_with_exit_one(tmp_path, capsys):
    save(spine_object(), tmp_path / "spine.sset")
    assert main(["check", "segal", str(tmp_path / "spine.sset")]) == 1
    out = capsys.readouterr().out
    assert "FAIL check_segal" in out


def test_nerve_that_fails_validation_exits_one_and_writes_nothing(
        d6_file, tmp_path, capsys, monkeypatch):
    """A nerve the builder got wrong is not saved: `nerve` prints its
    validation lines and exits 1."""
    monkeypatch.setattr("decomp.cli.nerve", lambda spec, cap: invalid_object())
    out = tmp_path / "bad.sset"
    assert main(["nerve", d6_file, "-o", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL validate degree=2 witness=0{SEP}0{SEP}1 note=d0d1",
        f"FAIL validate degree=3 witness=0{SEP}0{SEP}0{SEP}1 note=d0d2",
        f"FAIL validate degree=3 witness=0{SEP}0{SEP}1{SEP}1 note=d0d2",
        f"FAIL validate degree=3 witness=0{SEP}0{SEP}1{SEP}1 note=d0d3",
        f"FAIL validate degree=1 witness=0{SEP}1 note=d0s0",
        f"FAIL validate degree=2 witness=0{SEP}0{SEP}1 note=d0s1",
        f"FAIL validate degree=2 witness=0{SEP}0{SEP}1 note=d0s2"]
    assert not out.exists()


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("POSET v1\nelements: a b\nle a b\nle b a\n", encoding="utf-8")
    assert main(["nerve", str(bad), "-o", str(tmp_path / "x.sset")]) == 2
    assert "error:" in capsys.readouterr().err


def test_antisymmetry_witness_is_the_first_pair_under_any_hash_seed(tmp_path):
    """The closure is a set of string pairs, so its order follows the
    string hash; the refusal names the first violating pair in sorted order."""
    bad = tmp_path / "two.poset"
    bad.write_text("POSET v1\nelements: a b c d\nle a b\nle b a\nle c d\nle d c\n",
                   encoding="utf-8")
    src = str(Path(decomp.__file__).parents[1])
    errs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-m", "decomp.cli", "nerve", str(bad),
                              "-o", str(tmp_path / "two.sset")],
                             capture_output=True, text=True, env=env, check=False)
        assert (run.returncode, run.stdout) == (2, "")
        errs.add(run.stderr)
    assert errs == {f"error: {bad}:0: antisymmetry violated by a and b\n"}


@pytest.mark.parametrize("command", ["mobius", "interval"])
@pytest.mark.parametrize("arrow", ["x y", "a,b", ""])
def test_an_unknown_arrow_is_refused_before_any_output(tmp_path, d6_sset, capsys,
                                                       command, arrow):
    """An arrow that is not one of the input's is refused on stderr, so no
    report line carries the user's string as a witness."""
    out = tmp_path / "out.xiset"
    argv = [command, d6_sset, "--arrow", arrow] + (["-o", str(out)] if command == "interval" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {arrow!r} is not an arrow of the input\n")
    assert not out.exists()


def test_mobius_output(d6_sset, capsys):
    assert main(["mobius", d6_sset, "--arrow", f"1{SEP}6"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == f"1{SEP}6\t1/1"
    assert main(["mobius", d6_sset]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert all("\t" in line for line in lines)


def test_mobius_uncertified_exits_two(tmp_path, capsys):
    from decomp.formats import write_sset
    from decomp.ingest import nerve_poset

    X = replace(nerve_poset(divisor_poset(6), 5), stable_from=None)
    (tmp_path / "loose.sset").write_text(write_sset(X), encoding="utf-8")
    assert main(["mobius", str(tmp_path / "loose.sset")]) == 2


def test_coalg_table(d6_sset, capsys):
    assert main(["coalg-table", d6_sset]) == 0
    rows = [line.split("\t") for line in
            capsys.readouterr().out.strip().splitlines()]
    assert all(len(r) == 4 for r in rows)
    top = [r for r in rows if r[0] == f"1{SEP}6"]
    assert len(top) == 4


def test_coalg_table_refuses_cap_two(tmp_path, capsys):
    """Segal at cap 2 certifies nothing at degree 3: a cap-2 SSET is refused
    by the exactness check's cap."""
    from decomp.formats import write_sset
    from decomp.ingest import nerve_poset

    path = tmp_path / "d6.sset"
    path.write_text(write_sset(nerve_poset(divisor_poset(6), 2)), encoding="utf-8")
    assert main(["coalg-table", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: decomposition check needs cap >= 3\n")


def test_dec(tmp_path, d6_sset, capsys):
    out = str(tmp_path / "dec.sset")
    assert main(["dec", "bot", d6_sset, "-o", out]) == 0
    assert main(["check", "segal", out]) == 0


@pytest.mark.parametrize("argv, note", [
    (["check", "segal", "{poset}"], "check note=input-is-not-an-SSET"),
    (["check", "flanked", "{poset}"], "check_flanked note=input-is-not-an-XISET"),
    (["registry", "add", "{out}", "{poset}"], "registry-add note=input-is-not-an-XISET"),
    (["nerve", "{sset}", "-o", "{out}"], "nerve note=input-is-already-a-presheaf"),
], ids=["check", "check-flanked", "registry-add", "nerve"])
def test_notes_keep_the_line_grammar_for_any_path(tmp_path, argv, note, capsys):
    """A refused input's note names what the input is not, never its path,
    so a path with a space still prints lines of the key=value grammar."""
    where = tmp_path / "my dir"
    where.mkdir()
    save_spec(divisor_poset(6), where / "d6 x.poset")
    save(nerve(divisor_poset(6)), where / "d6 x.sset")
    paths = {"poset": str(where / "d6 x.poset"), "sset": str(where / "d6 x.sset"),
             "out": str(where / "out put")}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 2
    out = capsys.readouterr().out
    assert out == f"FAIL {note}\n"
    assert all(_REPORT_LINE.match(line) for line in out.splitlines())
    assert not (where / "out put").exists()


@pytest.mark.parametrize("argv", [
    ["dec", "top", "{input}", "-o", "{out}"],
    ["interval", "{input}", "--arrow", "1", "-o", "{out}"],
    ["mobius", "{input}"],
    ["coalg-table", "{input}"],
    ["classify", "{input}", "--registry", "{out}"],
], ids=lambda argv: argv[0])
def test_sset_commands_refuse_other_inputs(tmp_path, d6_file, capsys, argv):
    out = str(tmp_path / "out")
    assert main([arg.format(input=d6_file, out=out) for arg in argv]) == 2
    assert capsys.readouterr().out == f"FAIL {argv[0]} note=input-is-not-an-SSET\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["mobius", "{input}"],
    ["interval", "{input}", "--arrow", f"1{SEP}6", "-o", "{out}"],
    ["dec", "bot", "{input}", "-o", "{out}"],
    ["coalg-table", "{input}"],
    ["classify", "{input}", "--registry", "{out}"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("directive", ["s 0 0:", "d 2 1:", "d 9 0: zz->yy"])
def test_sset_commands_validate_their_input(tmp_path, d6_sset, capsys, argv, directive):
    """An SSET without one structure-map line, or with a table above its cap
    of 5, fails validation, exits 2 and writes nothing, instead of raising
    KeyError or writing a file.  A directive of the file is deleted, and
    the one it lacks is appended."""
    text = (tmp_path / "d6.sset").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(directive)]
    broken = tmp_path / "broken.sset"
    broken.write_text("".join(kept if kept != lines else lines + [directive + "\n"]),
                      encoding="utf-8")
    assert text != broken.read_text(encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    out = str(tmp_path / "out")
    assert main([arg.format(input=broken, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL validate")
    if directive.startswith("d 9 0"):
        assert captured.out == "FAIL validate degree=9 note=extra-face-d0\n"
    assert "Traceback" not in captured.out + captured.err
    assert sorted(tmp_path.iterdir()) == before


def test_interval_and_flanked(tmp_path, d6_sset, capsys):
    out = str(tmp_path / "i.xiset")
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", out]) == 0
    assert main(["check", "flanked", out]) == 0


def test_registry_workflow(tmp_path, d6_sset, capsys):
    iv = str(tmp_path / "i.xiset")
    main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", iv])
    reg = str(tmp_path / "reg")
    assert main(["registry", "add", reg, iv]) == 0
    assert main(["registry", "close", reg]) == 0
    capsys.readouterr()
    assert main(["registry", "list", reg]) == 0
    listing = capsys.readouterr().out.strip().splitlines()
    assert len(listing) == 3
    assert all(len(line.split("\t")) == 4 for line in listing)
    assert main(["registry", "mu", reg]) == 0
    mu_out = capsys.readouterr().out
    assert "PASS universal_mobius" in mu_out
    assert main(["classify", d6_sset, "--registry", reg]) == 0
    cls_out = capsys.readouterr().out
    assert "PASS classify" in cls_out
    assert f"1{SEP}6\t" in cls_out


def test_check_rejects_unknown_dnew_directive(tmp_path, d6_sset, capsys):
    iv = tmp_path / "i.xiset"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", str(iv)]) == 0
    iv.write_text(iv.read_text(encoding="utf-8").replace("dnew:", "dnewfoo:"),
                  encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "flanked", str(iv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "dnewfoo" in captured.err
    assert "Traceback" not in captured.err


def test_repeated_directive_exits_two(tmp_path, d6_sset, capsys):
    path = tmp_path / "twice.sset"
    text = Path(d6_sset).read_text(encoding="utf-8")
    line = next(ln for ln in text.splitlines() if ln.startswith("d 1 0:"))
    path.write_text(text + line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "segal", str(path)]) == 2
    captured = capsys.readouterr()
    assert "duplicate directive 'd 1 0'" in captured.err
    assert "Traceback" not in captured.err


def test_registry_refuses_repeated_name(tmp_path, d6_sset, capsys):
    iv = str(tmp_path / "i.xiset")
    reg = tmp_path / "reg"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", iv]) == 0
    assert main(["registry", "add", str(reg), iv]) == 0
    assert main(["registry", "close", str(reg)]) == 0
    index = reg / "index.tsv"
    rows = index.read_text(encoding="utf-8").splitlines()
    first, second = (row.split("\t") for row in rows[:2])
    same_name = [rows[0], "\t".join([second[0], first[1]] + second[2:])] + rows[2:]
    same_digest = rows + ["\t".join([first[0], "other"] + first[2:])]
    for damaged in (same_name, same_digest):
        index.write_text("\n".join(damaged) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["registry", "list", str(reg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "repeated entry" in captured.err


def test_max_level_size_must_be_a_positive_integer(monkeypatch, d6_file, tmp_path, capsys):
    monkeypatch.setenv("DECOMP_MAX_LEVEL_SIZE", "ten")
    assert main(["nerve", d6_file, "-o", str(tmp_path / "x.sset")]) == 2
    assert "DECOMP_MAX_LEVEL_SIZE='ten'" in capsys.readouterr().err


def test_nerve_refuses_tables_over_the_budget(d6_file, tmp_path, capsys):
    """d6 at cap 100 has no level over the level-size limit, but its tables
    would hold about 5.3e7 entries: the build stops before making any."""
    started = time.perf_counter()
    assert main(["nerve", d6_file, "--cap", "100", "-o", str(tmp_path / "x.sset")]) == 2
    assert time.perf_counter() - started < 5
    assert "DECOMP_MAX_LEVEL_SIZE" in capsys.readouterr().err
    assert not (tmp_path / "x.sset").exists()


def test_registry_add_refuses_damaged_registry(tmp_path, capsys):
    save_spec(divisor_poset(12), tmp_path / "d12.poset")
    sset = str(tmp_path / "d12.sset")
    iv = str(tmp_path / "i.xiset")
    reg = tmp_path / "reg"
    assert main(["nerve", str(tmp_path / "d12.poset"), "-o", sset]) == 0
    assert main(["interval", sset, "--arrow", f"1{SEP}12", "-o", iv]) == 0
    assert main(["registry", "add", str(reg), iv]) == 0
    assert main(["registry", "close", str(reg)]) == 0
    index = reg / "index.tsv"
    before = index.read_bytes()
    digests = [line.split("\t")[0] for line in before.decode().splitlines()]
    assert len(digests) == 5
    listing = sorted(p.name for p in reg.iterdir())
    assert listing == sorted(["index.tsv"] + [f"{d}.xiset" for d in digests]
                             + [f"{d}.arrows" for d in digests])
    # damage one entry: another entry's content under its digest
    damaged = reg / f"{digests[0]}.xiset"
    intact = damaged.read_bytes()
    damaged.write_bytes((reg / f"{digests[1]}.xiset").read_bytes())
    capsys.readouterr()
    assert main(["registry", "add", str(reg), iv]) == 2
    assert "error:" in capsys.readouterr().err
    assert index.read_bytes() == before
    assert sorted(p.name for p in reg.iterdir()) == listing
    # a malformed index line is refused the same way, without a traceback
    damaged.write_bytes(intact)
    index.write_bytes(before + b"not-a-digest\n")
    assert main(["registry", "add", str(reg), iv]) == 2
    assert "malformed" in capsys.readouterr().err
    assert index.read_bytes() == before + b"not-a-digest\n"


def _shape_faulty(tmp_path, d6_sset) -> dict:
    """An SSET whose d 1 0 line lost its first pair, and the interval of
    1≤6 without its sbot 0 line, each with the validation line it fails."""
    iv = tmp_path / "i.xiset"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", str(iv)]) == 0
    lines = Path(d6_sset).read_text(encoding="utf-8").splitlines(keepends=True)
    n = next(n for n, line in enumerate(lines) if line.startswith("d 1 0:"))
    head, _, body = lines[n].partition(": ")
    lines[n] = f"{head}: {body.partition(' ; ')[2]}"
    bad = {"sset": tmp_path / "bad.sset", "xiset": tmp_path / "bad.xiset"}
    bad["sset"].write_text("".join(lines), encoding="utf-8")
    bad["xiset"].write_text("".join(ln for ln in iv.read_text(encoding="utf-8").splitlines(
        keepends=True) if not ln.startswith("sbot 0:")), encoding="utf-8")
    return {"sset": (str(bad["sset"]), f"FAIL validate degree=1 witness=1{SEP}1 note=d0-not-total"),
            "xiset": (str(bad["xiset"]), "FAIL validate degree=0 note=missing-degeneracy-sbot[0]")}


@pytest.mark.parametrize("argv, kind, code, out", [
    (["nerve", "{}", "-o", "{out}"], "sset", 2, "FAIL nerve note=input-is-already-a-presheaf"),
    (["nerve", "{}", "-o", "{out}"], "xiset", 2, "FAIL nerve note=input-is-already-a-presheaf"),
    (["dec", "bot", "{}", "-o", "{out}"], "xiset", 2, "FAIL dec note=input-is-not-an-SSET"),
    (["check", "segal", "{}"], "xiset", 2, "FAIL check note=input-is-not-an-SSET"),
    (["check", "flanked", "{}"], "sset", 2, "FAIL check_flanked note=input-is-not-an-XISET"),
    (["registry", "add", "{reg}", "{}"], "sset", 2, "FAIL registry-add note=input-is-not-an-XISET"),
    (["dec", "bot", "{}", "-o", "{out}"], "sset", 2, None),
    (["check", "segal", "{}"], "sset", 1, None),
    (["check", "flanked", "{}"], "xiset", 1, None),
], ids=["nerve-sset", "nerve-xiset", "dec-xiset", "segal-xiset", "flanked-sset",
        "add-sset", "dec-sset", "segal-sset", "flanked-xiset"])
def test_kind_refusals_print_before_any_shape_line(tmp_path, d6_sset, capsys, argv, kind,
                                                   code, out):
    """A file whose tables make no object is refused for its kind first, as
    a valid one is; of the kind the command reads, it gets its validation
    line, with exit 2 where the command refuses its input and 1 from a
    check."""
    path, line = _shape_faulty(tmp_path, d6_sset)[kind]
    reg, dest = tmp_path / "reg", tmp_path / "out"
    capsys.readouterr()
    assert main([a.format(path, out=dest, reg=reg) for a in argv]) == code
    assert capsys.readouterr() == ((out or line) + "\n", "")
    assert not reg.exists() and not dest.exists()


def test_registry_add_refuses_a_shape_fault_as_failed_validation(tmp_path, d6_sset, capsys):
    """An interval file whose tables make no object is refused as an entry
    that fails validation, with the line naming its fault, on stderr."""
    path, line = _shape_faulty(tmp_path, d6_sset)["xiset"]
    capsys.readouterr()
    assert main(["registry", "add", str(tmp_path / "reg"), path]) == 2
    assert capsys.readouterr() == ("", f"error: entry fails validation:\n{line}\n")


_INVALID_INTERVAL = {
    "sbot 0:": "FAIL validate degree=0 note=missing-degeneracy-sbot[0]",
    "level -1:": "FAIL validate note=levels-do-not-match-cap",
    "dnew:": "FAIL validate degree=0 note=missing-face-dnew",
    "sbot 9: a->b": "FAIL validate degree=9 note=extra-degeneracy-sbot[9]",
}


@pytest.mark.parametrize("directive", sorted(_INVALID_INTERVAL))
def test_registry_add_refuses_invalid_interval(tmp_path, d6_sset, capsys, directive):
    """A directive of the interval file is deleted; the one it lacks, a map
    above its cap, is appended.  Validation names the table by its degree,
    kind and XISET name."""
    iv = tmp_path / "i.xiset"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", str(iv)]) == 0
    lines = iv.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [ln for ln in lines if not ln.startswith(directive)]
    iv.write_text("".join(kept if kept != lines else lines + [directive + "\n"]),
                  encoding="utf-8")
    reg = tmp_path / "reg"
    capsys.readouterr()
    assert main(["registry", "add", str(reg), str(iv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert _INVALID_INTERVAL[directive] in captured.err.splitlines()
    assert not reg.exists()


def test_registry_add_refuses_unreduced_interval(tmp_path, d6_sset, capsys):
    """u* of a whole nerve has one degree -1 element per vertex."""
    save(u_star(load(d6_sset)), tmp_path / "u.xiset")
    reg = tmp_path / "reg"
    capsys.readouterr()
    assert main(["registry", "add", str(reg), str(tmp_path / "u.xiset")]) == 2
    assert capsys.readouterr().err == (
        "error: entry fails validation:\n"
        "FAIL validate_interval degree=-1 note=not-reduced\n")
    assert not reg.exists()


@pytest.mark.parametrize("later", ["sset", "unreduced"])
def test_registry_add_prints_no_row_when_a_later_file_is_refused(tmp_path, d6_sset, capsys,
                                                                 later):
    """A valid interval followed by an SSET, or by an interval that fails
    validation: nothing is stored, so no digest row is printed."""
    save(factorisation_interval(load(d6_sset), f"1{SEP}6")[0].data, tmp_path / "top.xiset")
    save(u_star(load(d6_sset)), tmp_path / "u.xiset")
    files = {"sset": d6_sset, "unreduced": str(tmp_path / "u.xiset")}
    reg = tmp_path / "reg"
    capsys.readouterr()
    assert main(["registry", "add", str(reg), str(tmp_path / "top.xiset"), files[later]]) == 2
    assert capsys.readouterr() == {
        "sset": ("FAIL registry-add note=input-is-not-an-XISET\n", ""),
        "unreduced": ("", "error: entry fails validation:\n"
                          "FAIL validate_interval degree=-1 note=not-reduced\n")}[later]
    assert not reg.exists()


def test_registry_add_refuses_an_interval_that_is_not_exact(tmp_path, capsys):
    """The interval of 0≤4 in the nerve of the 4-chain without the chains
    through 1 < 2 < 3 is valid, reduced, complete and flanked, but neither
    Segal nor exact: `registry add` prints the Segal check's lines, one per
    degree from 2, and stores nothing."""
    X = nerve(chain_poset(4))
    planted = replace(filter_nerve(X, lambda vs: not {"1", "2", "3"} <= set(vs)),
                      stable_from=X.stable_from)
    iv, _ = factorisation_interval(planted, f"0{SEP}4")
    save(iv.data, tmp_path / "planted.xiset")
    reg = tmp_path / "reg"
    capsys.readouterr()
    assert main(["registry", "add", str(reg), str(tmp_path / "planted.xiset")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    head, *lines = captured.err.splitlines()
    assert head == "error: entry fails validation:"
    assert lines[0] == (
        "FAIL validate_interval degree=2 note=missing-fiber-pair:0≤1≤2≤4,0≤2≤3≤4"
        " via=check_segal")
    assert [line.split()[2] for line in lines] == [f"degree={k}" for k in range(2, 6)]
    assert all(line.startswith("FAIL validate_interval degree=")
               and " note=missing-fiber-pair:" in line and line.endswith(" via=check_segal")
               for line in lines)
    assert not reg.exists()


def test_registry_add_refuses_a_cap_one_interval_with_no_composites(tmp_path, capsys):
    """chain2's interval of 0≤2 written at cap 1 and claiming `stable 1`:
    with three objects and no level 2 it has no composites, so it has no
    canonical 2-truncation, and the refusal names its object count and cap;
    nothing is stored."""
    iv, _ = factorisation_interval(nerve(chain_poset(2)), f"0{SEP}2")
    save(replace(truncate(iv.data, 1), stable_from=1), tmp_path / "low.xiset")
    reg = tmp_path / "reg"
    capsys.readouterr()
    assert main(["registry", "add", str(reg), str(tmp_path / "low.xiset")]) == 2
    assert capsys.readouterr() == (
        "", "error: interval has 3 objects at cap 1; its canonical form needs cap 2\n")
    assert not reg.exists()


def _counit_smap(tmp_path, d6_sset):
    from decomp.presheaf import dec_bot

    D, counit = dec_bot(load(d6_sset))
    save(D, tmp_path / "dec.sset")
    path = tmp_path / "counit.smap"
    path.write_text(write_smap(counit, "dec.sset", "d6.sset"), encoding="utf-8")
    return path


def test_culf_check(tmp_path, d6_sset, capsys):
    assert main(["check", "culf", str(_counit_smap(tmp_path, d6_sset))]) == 0


@pytest.mark.parametrize("argv", [
    ["mobius", "garbled.sset"],
    ["check", "segal", "garbled.sset"],
    ["nerve", "adir", "-o", "x.sset"],
    ["check", "culf", "cod-is-adir.smap"],
    ["registry", "list", "garbled-reg"],
])
def test_unreadable_input_exits_two(tmp_path, d6_sset, capsys, monkeypatch, argv):
    """Bytes that are not UTF-8, or a directory where a file belongs, are
    input errors: exit 2 with one error line and no traceback."""
    (tmp_path / "garbled.sset").write_bytes(b"\xff" + Path(d6_sset).read_bytes())
    (tmp_path / "adir").mkdir()
    smap = _counit_smap(tmp_path, d6_sset).read_text(encoding="utf-8")
    (tmp_path / "cod-is-adir.smap").write_text(smap.replace("d6.sset", "adir"),
                                               encoding="utf-8")
    (tmp_path / "garbled-reg").mkdir()
    (tmp_path / "garbled-reg" / "index.tsv").write_bytes(b"\xff\n")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def _ends_smap(tmp_path, d6_sset, dom: str, cod: str):
    """The counit of d6's bottom decalage as an SMAP, its ends renamed."""
    text = _counit_smap(tmp_path, d6_sset).read_text(encoding="utf-8")
    path = tmp_path / "ends.smap"
    path.write_text(text.replace("dom dec.sset", f"dom {dom}").replace("cod d6.sset", f"cod {cod}"),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("dom, cod, error", [
    ("d6.poset", "bad.sset", "dom file 'd6.poset' is not an SSET or XISET"),
    ("bad.sset", "d6.poset", "cod file 'd6.poset' is not an SSET or XISET"),
    ("bad.sset", "bad.xiset", "dom and cod files are of different kinds"),
    ("bad.xiset", "bad.sset", "dom and cod files are of different kinds"),
])
def test_culf_check_refuses_a_wrong_kind_before_a_shape_line(tmp_path, d6_sset, capsys,
                                                              dom, cod, error):
    """An SMAP end of the wrong kind is an input error whichever end has
    tables that make no object: each end's kind is checked as it loads, and
    the kinds against each other, before either end's validation line."""
    _shape_faulty(tmp_path, d6_sset)
    path = _ends_smap(tmp_path, d6_sset, dom, cod)
    capsys.readouterr()
    assert main(["check", "culf", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:0: {error}\n")


def test_culf_check_names_a_shape_fault_of_either_end(tmp_path, d6_sset, capsys):
    """Ends of one kind: the first end whose tables make no object gets its
    validation line, the domain's first."""
    _, line = _shape_faulty(tmp_path, d6_sset)["sset"]
    for dom, cod in (("bad.sset", "d6.sset"), ("dec.sset", "bad.sset"), ("bad.sset", "bad.sset")):
        path = _ends_smap(tmp_path, d6_sset, dom, cod)
        capsys.readouterr()
        assert main(["check", "culf", str(path)]) == 1
        assert capsys.readouterr() == (line + "\n", "")


def test_culf_check_refuses_repeated_level(tmp_path, d6_sset, capsys):
    path = _counit_smap(tmp_path, d6_sset)
    text = path.read_text(encoding="utf-8")
    line = next(ln for ln in text.splitlines() if ln.startswith("level 1:"))
    path.write_text(text + line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "culf", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate directive 'level 1'" in captured.err


@pytest.mark.parametrize("xi, extra", [(False, "level 9: zz->yy"), (True, "level 9:"),
                                       (True, "level -5:")])
def test_culf_check_refuses_extra_component(tmp_path, d6_sset, capsys, xi, extra):
    """A component outside the domain's degrees fails map validation; it
    used to be ignored, and the check passed."""
    from decomp.formats import load_smap
    from oracles import u_star_map

    path = _counit_smap(tmp_path, d6_sset)
    if xi:
        M = u_star_map(load_smap(str(path)))
        save(M.dom, tmp_path / "dom.xiset")
        save(M.cod, tmp_path / "cod.xiset")
        path.write_text(write_smap(M, "dom.xiset", "cod.xiset"), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "culf", str(path)]) == 0
    capsys.readouterr()
    path.write_text(path.read_text(encoding="utf-8") + extra + "\n", encoding="utf-8")
    assert main(["check", "culf", str(path)]) == 1
    degree = extra.split()[1].rstrip(":")
    assert capsys.readouterr().out == (
        f"FAIL validate_map degree={degree} note=extra-component\n")


def test_culf_check_validates_both_ends(tmp_path, d6_sset, capsys):
    """A map whose XISET ends lack a map line fails validation of that end
    instead of raising in the naturality check; the line names the missing
    table with its degree."""
    from decomp.presheaf import XiSetMap

    iv = tmp_path / "i.xiset"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}6", "-o", str(iv)]) == 0
    A = load(str(iv))
    ident = XiSetMap(A, A, {k: {x: x for x in A.levels[k]} for k in range(-1, A.cap + 1)})
    smap = tmp_path / "id.smap"
    smap.write_text(write_smap(ident, "i.xiset", "i.xiset"), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "culf", str(smap)]) == 0
    text = iv.read_text(encoding="utf-8")
    iv.write_text("".join(ln for ln in text.splitlines(keepends=True)
                          if not ln.startswith("sbot 0:")), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "culf", str(smap)]) == 1
    assert capsys.readouterr().out == "FAIL validate degree=0 note=missing-degeneracy-sbot[0]\n"


_RELATION_FAILURES = {
    "sbot 0:": """\
FAIL validate degree=-1 witness=1≤2 note=relation:s[0,0];sbot[-1]
FAIL validate degree=0 witness=1≤1≤2 note=relation:s[1,1];sbot[0]
FAIL validate degree=0 witness=1≤1≤2 note=relation:stop[1];sbot[0]
FAIL validate degree=0 witness=1≤1≤2 note=relation:d[1,0];sbot[0]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:d[2,1];sbot[1]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:d[2,2];sbot[1]
FAIL validate degree=1 witness=1≤1≤2≤2 note=relation:d[2,2];sbot[1]
""",
    "s 1 0:": """\
FAIL validate degree=0 witness=1≤1≤2 note=relation:s[1,0];sbot[0]
FAIL validate degree=0 witness=1≤1≤2 note=relation:s[1,1];s[0,0]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:s[2,1];sbot[1]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:s[2,2];s[1,0]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:stop[2];s[1,0]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:d[2,0];s[1,0]
FAIL validate degree=1 witness=1≤1≤1≤2 note=relation:d[2,1];s[1,0]
FAIL validate degree=2 witness=1≤1≤1≤1≤2 note=relation:d[3,2];s[2,0]
FAIL validate degree=2 witness=1≤1≤1≤1≤2 note=relation:d[3,3];s[2,0]
FAIL validate degree=2 witness=1≤1≤1≤2≤2 note=relation:d[3,3];s[2,0]
FAIL validate degree=2 witness=1≤1≤1≤1≤2 note=relation:d[3,0];s[2,1]
""",
}


@pytest.mark.parametrize("directive", sorted(_RELATION_FAILURES))
def test_check_flanked_names_broken_relations(tmp_path, d6_sset, capsys, directive):
    """One sbot or s entry of the interval of 1≤2 sent to another simplex
    of its level: validation names every relation it breaks, by the side
    not in normal form, and the check exits 1."""
    iv = tmp_path / "i12.xiset"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}2", "-o", str(iv)]) == 0
    lines = iv.read_text(encoding="utf-8").splitlines()
    n = next(n for n, line in enumerate(lines) if line.startswith(directive))
    head, body = lines[n].split(": ")
    src, _ = body.split(" ; ")[0].split("->")
    wrong = body.split(" ; ")[1].split("->")[1]
    lines[n] = f"{head}: {src}->{wrong} ; " + " ; ".join(body.split(" ; ")[1:])
    iv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "flanked", str(iv)]) == 1
    assert capsys.readouterr().out == _RELATION_FAILURES[directive]


def test_culf_check_fails_a_map_to_the_point(tmp_path, d6_sset, capsys):
    """The interval of 1≤2 at cap 1 mapped to the point: naturality holds,
    but no square on a generator is a pullback."""
    from decomp.presheaf import XiSetMap
    from conftest import point_xiset

    iv = tmp_path / "i12.xiset"
    assert main(["interval", d6_sset, "--arrow", f"1{SEP}2", "-o", str(iv)]) == 0
    A = truncate(load(str(iv)), 1)
    save(A, iv)
    save(point_xiset(1), tmp_path / "pt.xiset")
    G = XiSetMap(A, point_xiset(1), {k: dict.fromkeys(A.levels[k], "pt") for k in range(-1, 2)})
    smap = tmp_path / "to-pt.smap"
    smap.write_text(write_smap(G, "i12.xiset", "pt.xiset"), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "culf", str(smap)]) == 1
    assert capsys.readouterr().out == """\
FAIL check_map_class[culf] degree=0 note=s[0,0]:missing-fiber-pair:1≤1≤2≤2,pt
FAIL check_map_class[culf] degree=-1 note=sbot[-1]:missing-fiber-pair:1≤2≤2,pt
FAIL check_map_class[culf] degree=-1 note=stop[-1]:missing-fiber-pair:1≤1≤2,pt
FAIL check_map_class[culf] degree=0 note=sbot[0]:missing-fiber-pair:1≤2≤2≤2,pt
FAIL check_map_class[culf] degree=0 note=stop[0]:missing-fiber-pair:1≤1≤1≤2,pt
FAIL check_map_class[culf] degree=1 note=d[1,0]:comparison-not-injective:1≤1≤2≤2,1≤2≤2≤2
FAIL check_map_class[culf] degree=1 note=d[1,1]:comparison-not-injective:1≤1≤1≤2,1≤1≤2≤2
FAIL check_map_class[culf] degree=0 note=dnew:comparison-not-injective:1≤1≤2,1≤2≤2
"""


def test_main_builds_its_parser_once(d6_sset, capsys):
    import decomp.cli

    decomp.cli.build_parser.cache_clear()
    assert main(["check", "segal", d6_sset]) == 0
    assert main(["check", "complete", d6_sset]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS check_complete degree=0"
    assert decomp.cli.build_parser.cache_info().misses == 1


def test_monoid_nerve_via_cli(tmp_path, capsys):
    save_spec(truncated_addition(3), tmp_path / "add.monoid")
    out = str(tmp_path / "add.sset")
    assert main(["nerve", str(tmp_path / "add.monoid"), "-o", out]) == 0
    assert main(["check", "decomp", out]) == 0
    assert main(["check", "segal", out]) == 1


@pytest.fixture(scope="module")
def d6_registry(tmp_path_factory) -> str:
    reg = Registry()
    reg.insert(factorisation_interval(nerve(divisor_poset(6)), f"1{SEP}6")[0])
    out = str(tmp_path_factory.mktemp("reg"))
    reg.close().save(out)
    return out


# The classes of d6's closed registry: a point, a two-element chain and
# the square.
_POINT = "a24da4aa746ba8159d6a1c9939cc628fe4169dc00cd374f425149d193ef34cb5"
_CHAIN = "d34c284e64d2a122e32227080e11876b06722e24896538777a7ab16d5a6ecb8b"
_SQUARE = "f545f5367cf6a843ade3bb056359fa0405590fd2264f1864185137ee2600faa6"


def test_a_v1_registry_is_refused_and_left_as_it_was(tmp_path, d6_sset, capsys):
    """A registry saved before canonical forms became 2-truncations: d6's
    top interval truncated at its stable degree 2, with its `stable 2` line,
    stored under its SHA-256.  Every registry command exits 2 naming the
    entry and its version, and no file changes."""
    iv, _ = factorisation_interval(load(d6_sset), f"1{SEP}6")
    save(iv.data, tmp_path / "i16.xiset")
    text = write_xiset(replace(canonicalize(iv).canonical.data, stable_from=2))
    old = "a7fa97992f921925eac6b6bb737f0f3c0712952a79407f028c1bd6cc40f81858"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == old
    reg = tmp_path / "reg"
    reg.mkdir()
    (reg / f"{old}.xiset").write_text(text, encoding="utf-8")
    (reg / "index.tsv").write_text(f"{old}\tiv-{old[:10]}\t1\t2\n", encoding="utf-8")

    def hashes():
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in reg.iterdir()}

    before = hashes()
    for argv in (["registry", "list", str(reg)], ["registry", "close", str(reg)],
                 ["registry", "mu", str(reg)],
                 ["registry", "add", str(reg), str(tmp_path / "i16.xiset")]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", (
            f"error: stored entry {old[:12]} is a v1 canonical form "
            "(a stable line or a cap above 2); rebuild the registry\n"))
        assert hashes() == before


def test_registry_coalgebra_checks_fail_on_a_rewired_arrow_table(
        tmp_path, d6_sset, d6_registry, capsys):
    """The chain's own row of its arrow table pointed at the point, and the
    checksum line rewritten so that the table is read: the registry
    coalgebra no longer inverts the universal Mobius function, and no arrow
    of d6 classified to the chain maps its comultiplication over."""
    reg = tmp_path / "reg"
    shutil.copytree(d6_registry, reg)
    path = reg / f"{_CHAIN}.arrows"
    body = path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]
    assert body[3] == f"n1_2\t{_CHAIN}\n"
    body[3] = f"n1_2\t{_POINT}\n"
    text = "".join(body)
    path.write_text(text + hashlib.sha256(text.encode("utf-8")).hexdigest() + "\n",
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["registry", "mu", str(reg)]) == 1
    assert capsys.readouterr().out == (
        f"{_POINT}\tiv-{_POINT[:10]}\t1/1\n"
        f"{_CHAIN}\tiv-{_CHAIN[:10]}\t-1/1\n"
        f"{_SQUARE}\tiv-{_SQUARE[:10]}\t1/1\n"
        "FAIL universal_mobius note=registry-inversion-fails\n")
    assert main(["classify", d6_sset, "--registry", str(reg)]) == 1
    classes = {"1≤1": _POINT, "1≤2": _CHAIN, "1≤3": _CHAIN, "1≤6": _SQUARE, "2≤2": _POINT,
               "2≤6": _CHAIN, "3≤3": _POINT, "3≤6": _CHAIN, "6≤6": _POINT}
    assert capsys.readouterr().out == "".join(
        [f"{a}\t{d}\n" for a, d in classes.items()]
        + [f"FAIL classify degree=2 witness={a} note=not-a-coalgebra-homomorphism\n"
           for a in ("1≤2", "1≤3", "2≤6", "3≤6")])


@pytest.mark.parametrize("argv", [
    ["check", "segal", "{input}"],
    ["check", "decomp", "{input}"],
    ["check", "complete", "{input}"],
    ["check", "mobius", "{input}"],
    ["mobius", "{input}"],
    ["coalg-table", "{input}"],
    ["dec", "bot", "{input}", "-o", "{out}"],
    ["dec", "top", "{input}", "-o", "{out}"],
    ["interval", "{input}", "--arrow", f"1{SEP}6", "-o", "{out}"],
    ["classify", "{input}", "--registry", "{registry}"],
], ids=lambda argv: "-".join(argv[:2]).replace("-{input}", ""))
@pytest.mark.parametrize("cap", [0, 1, 2])
def test_sset_commands_on_low_caps(tmp_path, d6_sset, d6_registry, capsys, argv, cap):
    """Every SSET command on a truncated nerve ends with a verdict or an
    error line, never a traceback."""
    low = str(tmp_path / f"d6-cap{cap}.sset")
    save(truncate(load(d6_sset), cap), low)
    args = [a.format(input=low, out=str(tmp_path / "out"), registry=d6_registry)
            for a in argv]
    code = main(args)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2 and not captured.out:
        assert captured.err.startswith("error: ")


def test_classify_refuses_a_certified_input_below_cap_three(tmp_path, capsys):
    """The two-element antichain's nerve at cap 2 passes `check mobius`, as
    it is stable from degree 0, so `classify` goes on to cut its maximal
    arrows' intervals, which needs cap 3: exit 2 and one error line on
    stderr, whole, with no traceback and nothing on stdout."""
    poset, sset, reg = (str(tmp_path / name) for name in ("ab.poset", "ab.sset", "reg"))
    save_spec(PosetSpec.from_pairs(["a", "b"], []), poset)
    assert main(["nerve", poset, "--cap", "2", "-o", sset]) == 0
    assert main(["check", "mobius", sset]) == 0
    assert main(["registry", "add", reg]) == 0
    capsys.readouterr()
    assert main(["classify", sset, "--registry", reg]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: factorisation interval needs cap >= 3\n")


@pytest.mark.parametrize("action", ["list", "close", "mu"])
def test_registry_actions_other_than_add_refuse_files(tmp_path, capsys, action):
    """`registry list`, `close` and `mu` take no files: extra arguments
    are refused by the action's name with exit 2, before the registry is
    read, and nothing is written (an unclosed registry stays unclosed)."""
    reg = tmp_path / "reg"
    unclosed = Registry()
    unclosed.insert(factorisation_interval(nerve(divisor_poset(6)), f"1{SEP}6")[0])
    unclosed.save(str(reg))
    before = {p.name: p.read_bytes() for p in reg.iterdir()}
    capsys.readouterr()
    assert main(["registry", action, str(reg), "d6.sset", "nonexistent.file"]) == 2
    assert capsys.readouterr() == (
        "", f"error: registry {action} takes no files: d6.sset nonexistent.file\n")
    assert {p.name: p.read_bytes() for p in reg.iterdir()} == before


def test_check_names_a_refused_file_and_checks_the_next(tmp_path, d6_sset, capsys):
    """A file whose check raises is refused by its path on stderr, and the
    files after it are still checked; the exit code is the largest over the
    files."""
    from decomp.formats import write_sset
    from decomp.ingest import nerve_poset

    d2 = tmp_path / "d2.sset"
    d2.write_text(write_sset(nerve_poset(divisor_poset(6), 2)), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "decomp", str(d2), d6_sset]) == 2
    assert capsys.readouterr() == (
        "PASS check_decomposition[both] degree=5\n",
        f"error: {d2}: decomposition check needs cap >= 3\n")


_DEGENERATE_FACE_FAULT = f"""\
FAIL validate degree=2 witness=1{SEP}1{SEP}2 note=d0d1
FAIL validate degree=3 witness=1{SEP}1{SEP}1{SEP}2 note=d0d2
FAIL validate degree=3 witness=1{SEP}1{SEP}2{SEP}2 note=d0d2
FAIL validate degree=3 witness=1{SEP}1{SEP}2{SEP}2 note=d0d3
FAIL validate degree=3 witness=1{SEP}1{SEP}2{SEP}6 note=d0d3
FAIL validate degree=1 witness=1{SEP}2 note=d0s0
FAIL validate degree=2 witness=1{SEP}1{SEP}2 note=d0s1
FAIL validate degree=2 witness=1{SEP}1{SEP}2 note=d0s2
"""


@pytest.mark.parametrize("what", ["segal", "decomp"])
def test_a_fault_on_a_degenerate_simplex_is_named_on_every_simplex(tmp_path, d6_sset, capsys,
                                                                   what):
    """d0 of the degenerate 2-simplex 1≤1≤2 of d6's nerve sent to 1≤3: the
    face-face identities compared on nondegenerate simplices alone miss the
    faults, which lie on degeneracies only, and the pass fails through the
    d-s identities; validation then names every relation on every simplex,
    face-face lines first, as a check prints them."""
    from decomp.presheaf import _check_relations
    from decomp.report import Report

    text = Path(d6_sset).read_text(encoding="utf-8")
    lines = text.splitlines()
    n = next(n for n, line in enumerate(lines) if line.startswith("d 2 0:"))
    assert f" 1{SEP}1{SEP}2->1{SEP}2 ;" in lines[n]
    lines[n] = lines[n].replace(f" 1{SEP}1{SEP}2->1{SEP}2 ;", f" 1{SEP}1{SEP}2->1{SEP}3 ;")
    bad = tmp_path / "bad.sset"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rep = Report("validate")
    _check_relations(rep, load(str(bad)), every=False)
    assert rep.lines() and all(re.search(r"note=d\d+s\d+$", line) for line in rep.lines())
    capsys.readouterr()
    assert main(["check", what, str(bad)]) == 1
    assert capsys.readouterr() == (_DEGENERATE_FACE_FAULT, "")


_NOT_NATURAL = f"""\
FAIL validate_map degree=1 witness=1{SEP}1{SEP}2 note=naturality-d0
FAIL validate_map degree=1 witness=1{SEP}2{SEP}2 note=naturality-d0
FAIL validate_map degree=1 witness=1{SEP}2{SEP}2 note=naturality-d1
FAIL validate_map degree=1 witness=1{SEP}2{SEP}6 note=naturality-d1
FAIL validate_map degree=0 witness=1{SEP}2 note=naturality-s0
"""


def test_culf_check_names_a_map_that_is_not_natural(tmp_path, d6_sset, capsys):
    """The counit of d6's bottom decalage with 1≤2 sent to 3 in place of 2:
    both ends are valid, so the check prints the naturality lines of
    `validate_map` and exits 1 before any square is decided."""
    path = _counit_smap(tmp_path, d6_sset)
    text = path.read_text(encoding="utf-8")
    assert f"level 0: 1{SEP}1->1 ; 1{SEP}2->2 ;" in text
    path.write_text(text.replace(f"level 0: 1{SEP}1->1 ; 1{SEP}2->2 ;",
                                 f"level 0: 1{SEP}1->1 ; 1{SEP}2->3 ;"), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "culf", str(path)]) == 1
    assert capsys.readouterr() == (_NOT_NATURAL, "")


def test_an_sset_without_a_cap_line_is_refused(tmp_path, d6_sset, capsys):
    text = Path(d6_sset).read_text(encoding="utf-8")
    bad = tmp_path / "nocap.sset"
    bad.write_text(text.replace("cap 5\n", "", 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["check", "segal", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}:0: missing cap\n")
