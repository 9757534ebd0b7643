import contextlib
import hashlib
import io
import os
import re
from collections import Counter
from dataclasses import replace

import oracles
import pytest
from conftest import (
    boolean_poset,
    chain_poset,
    divisor_poset,
    fail_writes_part_way,
    filter_nerve,
    idempotent_interval,
    point_sset,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_closed, save_spec
from test_fastpaths import drawn_posets

from decomp import registry
from decomp.cli import main
from decomp.formats import save, write_xiset
from decomp.ingest import PosetSpec, nerve, nerve_poset
from decomp.incidence import registry_comult
from decomp.interval import AlgebraicInterval, canonicalize, factorisation_interval
from decomp.presheaf import CapError, FinXiSet, truncate, u_star
from decomp.registry import (
    Registry,
    RegistryError,
    build_fragment,
    fragment_square_report,
)

SEP = "≤"


def arrow(x, y):
    return SEP.join([x, y])


@pytest.fixture()
def diamond_interval(poset_nerves):
    iv, _ = factorisation_interval(poset_nerves["d6"], arrow("1", "6"))
    return iv


@pytest.fixture()
def diamond_registry(diamond_interval):
    reg = Registry()
    reg.insert(diamond_interval, name="diamond")
    return reg.close()


def test_insert_deduplicates(diamond_interval):
    reg = Registry()
    pt, _ = factorisation_interval(point_sset(5), "pt")
    d1 = reg.insert(pt, name="triv")
    d2 = reg.insert(pt)
    assert d1 == d2 and len(reg.entries) == 1


def test_insert_refuses_a_name_in_use_and_get_an_unknown_digest(poset_nerves):
    """A second class under a name already given is refused by that name
    and not stored; `get` of a digest no entry has names that digest."""
    X = poset_nerves["d12"]
    reg = Registry()
    first = reg.insert(factorisation_interval(X, arrow("1", "2"))[0], name="prime")
    other = canonicalize(factorisation_interval(X, arrow("1", "4"))[0])
    with pytest.raises(RegistryError) as got:
        reg.insert(other, name="prime")
    assert str(got.value) == "name 'prime' already in use"
    assert list(reg.entries) == [first] and reg.names == {"prime": first}
    with pytest.raises(RegistryError) as got:
        reg.get(other.digest)
    assert str(got.value) == f"unknown digest {other.digest}"


def test_registry_list_refuses_a_directory_without_an_index(tmp_path, capsys):
    """`registry list` of a directory with no index.tsv exits 2 naming the
    directory, and writes nothing there."""
    root = tmp_path / "reg"
    root.mkdir()
    capsys.readouterr()
    assert main(["registry", "list", str(root)]) == 2
    assert capsys.readouterr() == ("", f"error: no index.tsv under {root}\n")
    assert list(root.iterdir()) == []


def test_insert_refuses_a_composable_cycle(tmp_path, capsys):
    """The interval of an idempotent is valid and Segal, but its strings of
    non-identity arrows never die out: insert refuses it with its
    certificate, and `registry add` exits 2 and writes nothing."""
    iv = idempotent_interval()
    with pytest.raises(RegistryError, match="note=composable-cycle"):
        Registry().insert(iv)
    save(iv.data, tmp_path / "cycle.xiset")
    capsys.readouterr()
    assert main(["registry", "add", str(tmp_path / "reg"), str(tmp_path / "cycle.xiset")]) == 2
    assert capsys.readouterr() == ("", (
        "error: entry fails interval certification:\n"
        "INCONCLUSIVE certify_mobius_interval note=composable-cycle\n"))
    assert not (tmp_path / "reg").exists()


def test_insert_builds_no_nerve_and_close_one_per_class(monkeypatch):
    """Certification reads the composite table, so B3's top interval goes in
    without a category nerve, and closing builds one nerve per class."""
    import decomp.interval

    calls = []
    real = decomp.interval.nerve_category
    monkeypatch.setattr(decomp.interval, "nerve_category",
                        lambda spec, cap=None: calls.append(spec) or real(spec, cap))
    reg = Registry()
    reg.insert(factorisation_interval(nerve_poset(boolean_poset(3)), "o≤abc")[0])
    assert calls == []
    reg.close()
    assert len(calls) == len(reg.entries) == 4


def test_failed_save_keeps_stored_files(diamond_registry, tmp_path, monkeypatch):
    """A save that fails part way, writing an entry or an arrow table,
    leaves every stored file as it was."""
    reg_dir = tmp_path / "reg"
    diamond_registry.save(str(reg_dir))
    loaded = Registry.load(str(reg_dir))
    keep = dict(list(loaded.entries.items())[:2])
    loaded.entries = keep
    loaded.names = {e.name: d for d, e in keep.items()}
    small = tmp_path / "small"
    loaded.save(str(small))
    before = {p.name: p.read_bytes() for p in small.iterdir()}
    assert len(before) == 5
    assert sum(name.endswith(".arrows") for name in before) == 2

    for writer in ("write_xiset", "_arrows_text"):
        real = getattr(registry, writer)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args)

        monkeypatch.setattr(registry, writer, failing)
        with pytest.raises(OSError):
            Registry.load(str(small)).save(str(small))
        monkeypatch.undo()
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in small.iterdir()} == before
        again = Registry.load(str(small))
        assert len(again.entries) == 2
        assert all(e.arrows is not None for e in again.entries.values())


def test_save_that_fails_part_way_keeps_stored_files(diamond_registry, tmp_path, monkeypatch):
    """A save whose first file write fails part way, as on a full disk,
    raises its OSError and leaves every stored file as it was, with no
    temporary file beside them."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    wrote = fail_writes_part_way(monkeypatch)
    with pytest.raises(OSError, match="No space left on device"):
        diamond_registry.save(str(root))
    monkeypatch.undo()
    assert len(wrote) == 1 and wrote[0] > 0
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


def test_registry_close_removes_the_temporary_file_of_a_failed_move(
        diamond_interval, tmp_path, monkeypatch, capsys):
    """`registry close` whose move of a written file into place fails exits
    2 with the error on stderr, removes the temporary file it wrote, and
    leaves index.tsv and every stored file byte-identical."""
    reg = Registry()
    reg.insert(diamond_interval, name="diamond")
    root = tmp_path / "reg"
    reg.save(str(root))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    moves = []

    def failing(src, dst):
        moves.append((os.path.exists(src), dst))
        raise OSError(f"cannot move {os.path.basename(src)}")

    monkeypatch.setattr(registry.os, "replace", failing)
    capsys.readouterr()
    assert main(["registry", "close", str(root)]) == 2
    monkeypatch.undo()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot move ") and err.endswith(".tmp\n")
    assert moves and moves[0][0]
    assert not list(root.glob("*.tmp"))
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    assert (root / "index.tsv").read_bytes() == before["index.tsv"]


def test_closure_of_diamond(diamond_registry):
    assert len(diamond_registry.entries) == 3
    assert is_closed(diamond_registry)
    caps = sorted(e.interval.canonical.data.cap
                  for e in diamond_registry.entries.values())
    assert caps == [1, 1, 2]  # terminal, one-step chain, diamond


def test_is_closed_of_closed_registry_labels_nothing(diamond_registry, labelling_calls):
    labelling_calls.clear()
    assert is_closed(diamond_registry)
    assert labelling_calls == []


def test_close_inserts_the_class_a_stored_table_names(tmp_path, labelling_calls):
    """B3's closed registry with one index row dropped: a stored table
    names the class it lacks, so it is not closed, which the tables show
    without labelling anything; close inserts exactly that class."""
    reg = Registry()
    top = reg.insert(factorisation_interval(nerve_poset(boolean_poset(3)), arrow("o", "abc"))[0])
    reg.close()
    root = tmp_path / "reg"
    reg.save(str(root))
    index = root / "index.tsv"
    rows = index.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = next(row for row in rows if not row.startswith(top))
    index.write_text("".join(row for row in rows if row != dropped), encoding="utf-8")
    again = Registry.load(str(root))
    labelling_calls.clear()
    assert not is_closed(again)
    assert labelling_calls == []
    before = set(again.entries)
    again.close()
    assert set(again.entries) - before == {dropped.split("\t")[0]}
    assert set(again.entries) == set(reg.entries) and is_closed(again)


def test_closed_registry_without_arrow_tables_is_closed(tmp_path, diamond_registry):
    """Tables left unsaved are filled when asked for, and name only entries."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    for path in root.glob("*.arrows"):
        path.unlink()
    again = Registry.load(str(root))
    assert all(e.arrows is None for e in again.entries.values())
    assert is_closed(again)
    assert all(e.arrows is not None for e in again.entries.values())


def test_closure_of_chain2(poset_nerves):
    d4 = nerve_poset(divisor_poset(4), 5)
    reg = Registry()
    reg.insert(factorisation_interval(d4, arrow("1", "4"))[0], name="chain2")
    assert not is_closed(reg)
    assert len(reg.entries) == 1
    reg.close()
    assert len(reg.entries) == 3
    assert is_closed(reg)


def test_save_load_roundtrip(tmp_path, diamond_registry):
    diamond_registry.save(str(tmp_path / "reg"))
    again = Registry.load(str(tmp_path / "reg"))
    assert set(again.entries) == set(diamond_registry.entries)
    assert again.names == diamond_registry.names


def test_load_ignores_consistent_renaming(tmp_path, diamond_registry):
    """Content addressing sees isomorphism classes, not identifiers."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    victim = sorted(root.glob("*.xiset"))[0]
    text = victim.read_text(encoding="utf-8")
    victim.write_text(text.replace("n0_0", "m0_0"), encoding="utf-8")
    again = Registry.load(str(root))
    assert set(again.entries) == set(diamond_registry.entries)


def test_load_detects_tampering(tmp_path, diamond_registry):
    """The square's stored form with the inner face of one 2-simplex moved:
    its bytes no longer hash to its digest, and it re-canonicalizes to
    another."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    victim = next(p for p in root.glob("*.xiset")
                  if "cap 2" in p.read_text(encoding="utf-8"))
    text = victim.read_text(encoding="utf-8")
    row = next(line for line in text.splitlines() if line.startswith("d 2 1: "))
    first, second = row[len("d 2 1: "):].split(" ; ")[:2]
    moved = f"{first.split('->')[0]}->{second.split('->')[1]}"
    assert moved != first
    victim.write_text(text.replace(row, row.replace(first, moved, 1)), encoding="utf-8")
    with pytest.raises(RegistryError, match=f"stored entry {victim.stem[:12]} does not match"):
        Registry.load(str(root))


def test_load_refuses_an_entry_above_cap_2(tmp_path, poset_nerves):
    """An entry stored above cap 2 is a v1 canonical form even with no
    stable line: d12's top interval at cap 3, stored under its SHA-256, is
    refused by digest before it is canonicalized again."""
    iv, _ = factorisation_interval(poset_nerves["d12"], arrow("1", "12"))
    text = write_xiset(replace(truncate(iv.data, 3), stable_from=None))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (tmp_path / f"{digest}.xiset").write_text(text, encoding="utf-8")
    (tmp_path / "index.tsv").write_text(f"{digest}\td12\t1\t3\n", encoding="utf-8")
    with pytest.raises(RegistryError, match=f"^stored entry {digest[:12]} is a v1 canonical"):
        Registry.load(str(tmp_path))


@pytest.mark.parametrize("damage", [b"# \xff\n", b"cap 1\n"], ids=["not-utf8", "second-cap"])
def test_load_refuses_unreadable_entry(tmp_path, diamond_registry, damage):
    """An entry that is not UTF-8, or does not parse, is reported as damaged
    and named; a byte that is not UTF-8 used to escape as a traceback."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    victim = sorted(root.glob("*.xiset"))[0]
    victim.write_bytes(victim.read_bytes() + damage)
    with pytest.raises(RegistryError, match=f"stored entry {victim.stem[:12]} is damaged"):
        Registry.load(str(root))


def test_load_refuses_an_entry_whose_table_is_not_total(tmp_path, diamond_registry):
    """An entry whose d 1 0 line lost its first pair makes no object: the
    parser's constructor refuses it, and the refusal names the table's
    fault by its validation line, where it once named only the table's key
    (`damaged: (1, 0)`)."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    digest = diamond_registry.names["diamond"]
    victim = root / f"{digest}.xiset"
    lines = victim.read_text(encoding="utf-8").split("\n")
    at = next(n for n, line in enumerate(lines) if line.startswith("d 1 0:"))
    head, _, body = lines[at].partition(": ")
    lines[at] = f"{head}: {body.partition(' ; ')[2]}"
    victim.write_text("\n".join(lines), encoding="utf-8")
    want = (f"stored entry {digest[:12]} is damaged: "
            "FAIL validate degree=1 witness=n1_0 note=d[1,0]-not-total")
    with pytest.raises(RegistryError, match=f"^{re.escape(want)}$"):
        Registry.load(str(root))


def test_fragment_counts(diamond_registry):
    frag = build_fragment(diamond_registry, top=3)
    diamond = diamond_registry.names["diamond"]
    counts = {k: sum(1 for c, _ in frag.levels[k] if c == diamond)
              for k in range(4)}
    assert counts == {0: 0, 1: 1, 2: 4, 3: 9}
    assert len(frag.levels[0]) == 1  # only the terminal interval


def test_fragment_faces_satisfy_simplicial_identities(diamond_registry):
    frag = build_fragment(diamond_registry, top=3)
    for k in (2, 3):
        for j in range(1, k + 1):
            for i in range(j):
                left = frag.faces[(k - 1, i)]
                right = frag.faces[(k - 1, j - 1)]
                for e in frag.levels[k]:
                    assert left[frag.faces[(k, j)][e]] == \
                        right[frag.faces[(k, i)][e]]


def test_fragment_refuses_a_negative_degree(diamond_registry):
    with pytest.raises(CapError, match="^fragment degree must be >= 0, got -1$"):
        build_fragment(diamond_registry, top=-1)


def test_fragment_names_a_missing_class(diamond_registry):
    point = next(d for d, e in diamond_registry.entries.items()
                 if len(e.interval.canonical.data.levels[0]) == 1)
    del diamond_registry.entries[point]
    with pytest.raises(RegistryError, match=f"^registry is not closed: missing {point[:12]}$"):
        build_fragment(diamond_registry, top=1)


def test_fragment_square(diamond_registry):
    frag = build_fragment(diamond_registry, top=3)
    rep = fragment_square_report(frag)
    assert rep.ok
    assert rep.data["counts"][diamond_registry.names["diamond"]][3] == 9


def test_fragment_square_names_a_changed_face_entry(diamond_registry):
    """The inner face of one 3-subdivision sent to another 2-subdivision
    breaks the square at that 3-subdivision."""
    frag = build_fragment(diamond_registry, top=3)
    x, y = frag.levels[3][-1], frag.levels[2][0]
    assert frag.faces[(3, 1)][x] != y
    frag.faces[(3, 1)] = {**frag.faces[(3, 1)], x: y}
    assert fragment_square_report(frag).lines() == [
        f"FAIL fragment_square degree=3 note=square-does-not-commute:{x}"]


def test_fragment_square_needs_degree_3(diamond_registry):
    rep = fragment_square_report(build_fragment(diamond_registry, top=2))
    assert rep.lines() == ["INCONCLUSIVE fragment_square note=fragment-too-shallow"]


def _closed(spec, top: str) -> Registry:
    reg = Registry()
    reg.insert(factorisation_interval(nerve_poset(spec), top)[0])
    return reg.close()


@pytest.mark.parametrize("spec, top", [
    (divisor_poset(6), arrow("1", "6")),
    (divisor_poset(12), arrow("1", "12")),
    (boolean_poset(3), arrow("o", "abc")),
    (chain_poset(4), arrow("0", "4")),
    # not self-dual: a lower and an upper interval read the wrong way round differ
    (PosetSpec.from_pairs(["0", "a", "b", "c", "1"],
                          [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")]),
     arrow("0", "1")),
], ids=["diamond", "d12", "B3", "chain4", "diamond-below-an-edge"])
def test_registry_comult_matches_fragment(spec, top):
    reg = _closed(spec, top)
    t = registry_comult(reg)
    assert t.basis == frozenset(reg.entries)
    assert (t.pairs, t.counit) == oracles.registry_comult_by_fragment(reg)


@st.composite
def drawn_intervals(draw):
    """The interval of a drawn arrow of a drawn poset's nerve."""
    X = nerve_poset(draw(drawn_posets()))
    return factorisation_interval(X, draw(st.sampled_from(sorted(X.levels[1]))))[0]


@settings(max_examples=40, deadline=None, database=None)
@given(drawn_intervals())
def test_registry_comult_of_drawn_intervals_matches_fragment(iv):
    reg = Registry()
    reg.insert(iv)
    reg.close()
    t = registry_comult(reg)
    assert t.basis == frozenset(reg.entries)
    assert (t.pairs, t.counit) == oracles.registry_comult_by_fragment(reg)


@settings(max_examples=60, deadline=None, database=None)
@given(drawn_intervals(), st.randoms(use_true_random=False))
def test_digest_ignores_relabelling(iv, rnd):
    """Renaming every id of an interval by a bijection, and reordering its
    levels, leaves the digest as it was."""
    data = iv.data
    new = {}
    for k, ids in data.levels.items():
        names = [f"r{k}.{i}" for i in range(len(ids))]
        rnd.shuffle(names)
        new[k] = dict(zip(ids, names))
    levels = {k: rnd.sample(sorted(names.values()), len(names)) for k, names in new.items()}
    faces = {(k, i): {new[k][x]: new[k - 1][y] for x, y in t.items()}
             for (k, i), t in data.faces.items()}
    degens = {(k, j): {new[k][x]: new[k + 1][y] for x, y in t.items()}
              for (k, j), t in data.degens.items()}
    renamed = FinXiSet(data.cap, levels, faces, degens, data.stable_from)
    assert canonicalize(AlgebraicInterval(renamed)).digest == canonicalize(iv).digest


def test_registry_comult_names_a_missing_class(diamond_registry, labelling_calls):
    """A table digest missing from the registry is reported; close cuts and
    labels one arrow to get its class back.  That class, the point, has no
    table yet, but its one arrow is its longest edge, so making the table
    labels nothing."""
    point = next(d for d, e in diamond_registry.entries.items()
                 if len(e.interval.canonical.data.levels[0]) == 1)
    del diamond_registry.names[diamond_registry.entries.pop(point).name]
    with pytest.raises(RegistryError, match=f"registry is not closed: missing {point[:12]}"):
        registry_comult(diamond_registry)
    labelling_calls.clear()
    diamond_registry.close()
    assert point in diamond_registry.entries
    assert len(labelling_calls) == 1
    t = registry_comult(diamond_registry)
    assert t.basis == frozenset(diamond_registry.entries)
    assert (t.pairs, t.counit) == oracles.registry_comult_by_fragment(diamond_registry)


def test_registry_comult_matches_midpoints(diamond_registry):
    t = registry_comult(diamond_registry)
    pairs, counit = t.pairs, t.counit
    names = {d: e.name for d, e in diamond_registry.entries.items()}
    diamond = diamond_registry.names["diamond"]
    labelled = Counter(
        {(names[a], names[b]): m for (a, b), m in pairs[diamond].items()})
    chain1 = next(n for n in names.values()
                  if n not in ("diamond",) and _is_chain1(diamond_registry, n))
    triv = next(n for n in names.values() if n not in ("diamond", chain1))
    assert labelled == Counter({
        ("diamond", triv): 1,
        (triv, "diamond"): 1,
        (chain1, chain1): 2,
    })
    assert counit[diamond_registry.names[triv]] == 1
    assert counit[diamond] == 0
    # the point and the single arrow have cap 1: no level 2 to read midpoints off
    assert (pairs, counit) == oracles.registry_comult_by_midpoints(diamond_registry)


def _is_chain1(reg, name):
    entry = reg.entries[reg.names[name]]
    return len(entry.interval.canonical.data.levels[0]) == 2


def test_classify_requires_closed_registry(poset_nerves, diamond_interval):
    """A registry that lacks a class of d6, empty or the diamond alone: the
    first arrow of d6 in level order whose class is missing is named, as
    when every arrow is labelled.  The diamond's table, made without
    inserting anything, names the classes the registry lacks."""
    from decomp.incidence import classify

    X, reg = poset_nerves["d6"], Registry()
    point = canonicalize(factorisation_interval(X, arrow("1", "1"))[0]).digest
    for fill in (lambda: None, lambda: reg.insert(diamond_interval, name="diamond")):
        fill()
        with pytest.raises(RegistryError) as want:
            oracles.classify_by_arrow(X, reg)
        with pytest.raises(RegistryError, match="^registry is not closed: arrow '1≤1' "
                           f"classifies to {point[:12]} which is missing$") as got:
            classify(X, reg)
        assert str(got.value) == str(want.value)
    assert list(reg.entries) == [reg.names["diamond"]]
    assert reg.entries[reg.names["diamond"]].arrows is not None


def test_a_stored_entry_without_a_category_is_named(tmp_path, capsys):
    """A hand-built registry whose one entry, whose bytes hash to its
    digest, is the canonical form of the interval of 0≤4 in the nerve of the
    4-chain without the chains through 1 < 2 < 3: valid but not Segal, so its
    composite table misses a composite.  Loading refuses it by digest with
    its `check_segal` line: `registry close`, `classify` of that nerve and
    `registry mu` exit 2 with that refusal, and nothing is written.  Against
    an empty registry, `classify` names the class as an interval class, and
    the missing composite by two of its level-1 ids."""
    from decomp.incidence import classify

    X = nerve(chain_poset(4))
    planted = replace(filter_nerve(X, lambda vs: not {"1", "2", "3"} <= set(vs)),
                      stable_from=X.stable_from)
    c = canonicalize(factorisation_interval(planted, arrow("0", "4"))[0])
    text, digest = write_xiset(c.canonical.data), c.digest
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    root = tmp_path / "reg"
    root.mkdir()
    (root / f"{digest}.xiset").write_text(text, encoding="utf-8")
    (root / "index.tsv").write_text(f"{digest}\tplanted\t1\t{c.canonical.data.cap}\n",
                                    encoding="utf-8")
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    sset = str(tmp_path / "planted.sset")
    save(planted, sset)
    refused = (f"stored entry {digest[:12]} is not an interval:\n"
               "FAIL validate_interval degree=2 note=missing-fiber-pair:n1_8,n1_6 via=check_segal")
    for argv in (["registry", "close", str(root)], ["classify", sset, "--registry", str(root)],
                 ["registry", "mu", str(root)]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {refused}\n")
    with pytest.raises(RegistryError) as got:
        Registry.load(str(root))
    assert str(got.value) == refused
    with pytest.raises(RegistryError, match=f"^interval class {digest[:12]}: missing composite") as got:
        classify(planted, Registry())
    f, g = str(got.value).split(" missing composite for ")[1].split(";")
    assert {f, g} <= set(c.canonical.data.levels[1])
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


def test_a_stored_entry_that_is_not_an_interval_is_refused(tmp_path, capsys):
    """A hand-built entry whose bytes hash to its digest, the canonical form
    of u*(N(d6)): nine elements at degree -1, so not reduced.  Every command
    that loads the registry exits 2 naming the entry and its
    `validate_interval` line, and nothing is written."""
    c = canonicalize(AlgebraicInterval(u_star(nerve(divisor_poset(6)))))
    text = write_xiset(c.canonical.data)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert len(c.canonical.data.levels[-1]) == 9
    root = tmp_path / "reg"
    root.mkdir()
    (root / f"{digest}.xiset").write_text(text, encoding="utf-8")
    (root / "index.tsv").write_text(f"{digest}\tbad\t1\t2\n", encoding="utf-8")
    sset = str(tmp_path / "d6.sset")
    save(nerve(divisor_poset(6)), sset)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    refused = (f"error: stored entry {digest[:12]} is not an interval:\n"
               "FAIL validate_interval degree=-1 note=not-reduced\n")
    for argv in (["registry", "list", str(root)], ["registry", "mu", str(root)],
                 ["registry", "close", str(root)], ["classify", sset, "--registry", str(root)]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", refused)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_a_stored_entry_with_reserved_ids_is_named(tmp_path, diamond_interval, capsys):
    """A hand-built entry, trusted because its bytes hash to its digest,
    that keeps the cut ids of d6's top interval truncated at cap 2: every
    id holds the reserved '≤', so no category is read off it.  `registry
    close` exits 2 naming the entry, `registry mu` names its inconclusive
    certificate, and nothing is written."""
    text = write_xiset(replace(truncate(diamond_interval.data, 2), stable_from=None))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    root = tmp_path / "reg"
    root.mkdir()
    (root / f"{digest}.xiset").write_text(text, encoding="utf-8")
    (root / "index.tsv").write_text(f"{digest}\thand\t1\t2\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    capsys.readouterr()
    assert main(["registry", "close", str(root)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: registry entry {digest[:12]}: element name ")
    assert err.endswith(f" contains reserved {SEP!r}\n") and err.count("\n") == 1
    assert main(["registry", "mu", str(root)]) == 2
    assert capsys.readouterr().err == (
        f"error: stored entry {digest[:12]} is not certified Mobius:\n"
        "INCONCLUSIVE certify_mobius_interval note=composite-table-refused\n")
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


def test_intact_load_runs_no_labelling(tmp_path, diamond_registry, labelling_calls):
    """Entries whose bytes hash to their digests are read as stored, and
    equal the classes that re-canonicalizing them gives and the classes
    that were saved."""
    root = str(tmp_path / "reg")
    diamond_registry.save(root)
    again = Registry.load(root)
    assert labelling_calls == []
    for digest, entry in again.entries.items():
        assert entry.interval == canonicalize(entry.interval.canonical)
        assert entry.interval == diamond_registry.entries[digest].interval
    assert labelling_calls


def test_load_rechecks_crlf_entry(tmp_path, diamond_registry, labelling_calls):
    """CRLF line endings change the bytes but not the class: the entry is
    re-canonicalized and still reaches its digest."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    victim = sorted(root.glob("*.xiset"))[0]
    victim.write_bytes(victim.read_bytes().replace(b"\n", b"\r\n"))
    again = Registry.load(str(root))
    assert len(labelling_calls) == 1
    assert again.entries[victim.stem].interval.canonical.data == (
        diamond_registry.entries[victim.stem].interval.canonical.data)


def test_close_of_closed_registry_labels_nothing(tmp_path, diamond_registry,
                                                 labelling_calls, capsys):
    """Every entry of a closed registry has its arrow table, so closing it
    again cuts and labels nothing and rewrites the same files."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    assert sum(name.endswith(".arrows") for name in before) == 3
    labelling_calls.clear()
    assert main(["registry", "close", str(root)]) == 0
    assert capsys.readouterr().out == "PASS registry-close note=entries:3->3\n"
    assert labelling_calls == []
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before


@pytest.fixture(scope="module")
def d12_walkthrough(tmp_path_factory):
    """A closed d12 registry made through the CLI, with the outputs of
    `registry mu` and `classify` on it."""
    root = tmp_path_factory.mktemp("d12")
    save_spec(divisor_poset(12), root / "d12.poset")
    sset, reg = str(root / "d12.sset"), str(root / "reg")
    assert main(["nerve", str(root / "d12.poset"), "-o", sset]) == 0
    assert main(["interval", sset, "--arrow", arrow("1", "12"), "-o", str(root / "i.xiset")]) == 0
    assert main(["registry", "add", reg, str(root / "i.xiset")]) == 0
    assert main(["registry", "close", reg]) == 0
    files = {name: (root / "reg" / name).read_bytes() for name in os.listdir(reg)}
    return sset, files, _outputs(sset, reg)


def _outputs(sset: str, reg: str) -> tuple:
    out = []
    for argv in (["registry", "mu", reg], ["classify", sset, "--registry", reg]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out.append((code, buf.getvalue()))
    return tuple(out)


def _retable(digest: str, table: dict, how: str) -> str:
    """An arrow table file with one fault and a checksum that holds."""
    if how == "wrong-header":
        return registry._arrows_text("0" * 64, table)
    return registry._arrows_text(digest, {"m" + j: d for j, d in table.items()})


@pytest.mark.parametrize("how", ["flipped-byte", "wrong-header", "foreign-keys", "deleted"])
def test_damaged_arrow_tables_are_recomputed(tmp_path, d12_walkthrough, how):
    """A table that is damaged, names another entry, has other keys, or is
    gone is not read: `mu` and `classify` print what they print on the
    intact registry, and `close` writes the table again."""
    sset, files, outputs = d12_walkthrough
    root = tmp_path / "reg"
    root.mkdir()
    for name, raw in files.items():
        (root / name).write_bytes(raw)
    tables = sorted(root.glob("*.arrows"))
    assert len(tables) == 5
    for path in tables:
        if how == "deleted":
            path.unlink()
        elif how == "flipped-byte":
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 1
            path.write_bytes(bytes(raw))
        else:
            table = Registry.load(str(root)).entries[path.stem].arrows
            path.write_text(_retable(path.stem, table, how), encoding="utf-8")
    assert all(e.arrows is None for e in Registry.load(str(root)).entries.values())
    assert _outputs(sset, str(root)) == outputs
    assert main(["registry", "close", str(root)]) == 0
    assert {p.name: p.read_bytes() for p in root.iterdir()} == files


@pytest.mark.parametrize("bad", ["../x", "upper"])
def test_load_refuses_malformed_digest(tmp_path, diamond_registry, bad):
    """An index row whose digest is not 64 lowercase hex digits is malformed
    and is refused before any path is made from it."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    entry = sorted(root.glob("*.xiset"))[0]
    digest = entry.stem.upper() if bad == "upper" else bad
    (root / f"{digest}.xiset").write_bytes(entry.read_bytes())
    index = root / "index.tsv"
    index.write_text(index.read_text(encoding="utf-8") + f"{digest}\tstray\t1\t1\n",
                     encoding="utf-8")
    with pytest.raises(RegistryError, match="malformed line"):
        Registry.load(str(root))


@pytest.mark.parametrize("flag", ["0", "", "true"])
def test_load_refuses_a_third_field_other_than_one(tmp_path, diamond_registry, capsys, flag):
    """Every entry is certified, so the index writes 1 in its third field;
    a row with anything else there is malformed, and the CLI exits 2."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    index = root / "index.tsv"
    rows = [row.split("\t") for row in index.read_text(encoding="utf-8").splitlines()]
    assert {row[2] for row in rows} == {"1"}
    rows[0][2] = flag
    index.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(RegistryError, match="malformed line"):
        Registry.load(str(root))
    assert main(["registry", "list", str(root)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed line in ")


@pytest.mark.parametrize("cap", ["zz", "", "3"])
def test_load_refuses_a_cap_field_other_than_the_entry_cap(tmp_path, diamond_registry,
                                                            capsys, cap):
    """The index's fourth field is the stored entry's cap; a row with any
    other is malformed, `registry close` exits 2, and nothing is rewritten."""
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    index = root / "index.tsv"
    rows = [row.split("\t") for row in index.read_text(encoding="utf-8").splitlines()]
    rows[0][3] = cap
    index.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    files = {p.name: p.read_bytes() for p in root.iterdir()}
    with pytest.raises(RegistryError, match="malformed line"):
        Registry.load(str(root))
    assert main(["registry", "close", str(root)]) == 2
    line = "\t".join(rows[0])
    assert capsys.readouterr() == ("", f"error: malformed line in {index}: {line!r}\n")
    assert {p.name: p.read_bytes() for p in root.iterdir()} == files
