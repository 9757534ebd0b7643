import contextlib
import io
import os
from collections import Counter
from dataclasses import replace

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fastpaths import drawn_posets

from decomp import registry
from decomp.cli import main
from decomp.formats import save
from decomp.ingest import boolean_poset, chain_poset, divisor_poset, nerve_poset
from decomp.interval import AlgebraicInterval, canonicalize, factorisation_interval
from decomp.presheaf import CapError, FinXiSet, point_sset, truncate
from decomp.registry import (
    Registry,
    RegistryError,
    build_fragment,
    fragment_square_report,
    registry_comult,
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


def test_insert_requires_certificate(diamond_interval):
    loose = AlgebraicInterval(replace(
        truncate(diamond_interval.data, diamond_interval.data.cap), stable_from=None))
    with pytest.raises(ValueError):
        Registry().insert(loose)


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


def test_closure_of_diamond(diamond_registry):
    assert len(diamond_registry.entries) == 3
    assert diamond_registry.is_closed()
    caps = sorted(e.interval.canonical.data.cap
                  for e in diamond_registry.entries.values())
    assert caps == [1, 1, 2]  # terminal, one-step chain, diamond


def test_closure_of_chain2(poset_nerves):
    d4 = nerve_poset(divisor_poset(4), 5)
    reg = Registry()
    reg.insert(factorisation_interval(d4, arrow("1", "4"))[0], name="chain2")
    assert not reg.is_closed()
    assert len(reg.entries) == 1
    reg.close()
    assert len(reg.entries) == 3
    assert reg.is_closed()


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
    root = tmp_path / "reg"
    diamond_registry.save(str(root))
    victim = next(p for p in root.glob("*.xiset")
                  if "stable 2" in p.read_text(encoding="utf-8"))
    text = victim.read_text(encoding="utf-8")
    victim.write_text(text.replace("stable 2", "stable 1"), encoding="utf-8")
    with pytest.raises(RegistryError):
        Registry.load(str(root))


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


def _closed(spec, top: str) -> Registry:
    reg = Registry()
    reg.insert(factorisation_interval(nerve_poset(spec), top)[0])
    return reg.close()


@pytest.mark.parametrize("spec, top", [
    (divisor_poset(6), arrow("1", "6")),
    (divisor_poset(12), arrow("1", "12")),
    (boolean_poset(3), arrow("o", "abc")),
    (chain_poset(4), arrow("0", "4")),
], ids=["diamond", "d12", "B3", "chain4"])
def test_registry_comult_matches_fragment(spec, top):
    reg = _closed(spec, top)
    assert registry_comult(reg) == oracles.registry_comult_by_fragment(reg)


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
    assert registry_comult(reg) == oracles.registry_comult_by_fragment(reg)


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
    labels one arrow to get its class back, and then labels the interval
    of each arrow of that class, which has no table yet."""
    point = next(d for d, e in diamond_registry.entries.items()
                 if len(e.interval.canonical.data.levels[0]) == 1)
    del diamond_registry.names[diamond_registry.entries.pop(point).name]
    with pytest.raises(RegistryError, match=f"registry is not closed: missing {point[:12]}"):
        registry_comult(diamond_registry)
    labelling_calls.clear()
    diamond_registry.close()
    assert point in diamond_registry.entries
    assert len(labelling_calls) == 2
    assert registry_comult(diamond_registry) == (
        oracles.registry_comult_by_fragment(diamond_registry))


def test_registry_comult_matches_midpoints(diamond_registry):
    pairs, counit = registry_comult(diamond_registry)
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


def _is_chain1(reg, name):
    entry = reg.entries[reg.names[name]]
    return len(entry.interval.canonical.data.levels[0]) == 2


def test_classify_requires_closed_registry(poset_nerves, diamond_interval):
    reg = Registry()
    reg.insert(diamond_interval, name="diamond")
    from decomp.incidence import classify

    with pytest.raises(RegistryError):
        classify(poset_nerves["d6"], reg)


@pytest.fixture()
def labelling_calls(monkeypatch):
    """The systems handed to canonical_order from here on."""
    import decomp.interval

    calls = []
    real = decomp.interval.canonical_order
    monkeypatch.setattr(decomp.interval, "canonical_order",
                        lambda sys: calls.append(sys) or real(sys))
    return calls


def test_intact_load_runs_no_labelling(tmp_path, diamond_registry, labelling_calls):
    """Entries whose bytes hash to their digests are read as stored, and
    equal the classes that re-canonicalizing them gives (provenance aside:
    a stored entry has none)."""
    root = str(tmp_path / "reg")
    diamond_registry.save(root)
    again = Registry.load(root)
    assert labelling_calls == []
    for digest, entry in again.entries.items():
        assert entry.interval == canonicalize(entry.interval.canonical)
        assert entry.interval.canonical.data == (
            diamond_registry.entries[digest].interval.canonical.data)
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
    save(divisor_poset(12), root / "d12.poset")
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
