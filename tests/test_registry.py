from collections import Counter
from dataclasses import replace

import pytest

from decomp.ingest import divisor_poset, nerve_poset
from decomp.interval import AlgebraicInterval, canonicalize, factorisation_interval
from decomp.presheaf import point_sset, truncate
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
    """A save that fails part way leaves every stored file as it was."""
    from decomp import registry

    reg_dir = tmp_path / "reg"
    diamond_registry.save(str(reg_dir))
    loaded = Registry.load(str(reg_dir))
    keep = dict(list(loaded.entries.items())[:2])
    loaded.entries = keep
    loaded.names = {e.name: d for d, e in keep.items()}
    small = tmp_path / "small"
    loaded.save(str(small))
    before = {p.name: p.read_bytes() for p in small.iterdir()}
    assert len(before) == 3

    real = registry.write_xiset
    calls = []

    def failing(data):
        calls.append(data)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(data)

    monkeypatch.setattr(registry, "write_xiset", failing)
    with pytest.raises(OSError):
        Registry.load(str(small)).save(str(small))
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in small.iterdir()} == before
    assert len(Registry.load(str(small)).entries) == 2


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


def test_fragment_square(diamond_registry):
    frag = build_fragment(diamond_registry, top=3)
    rep = fragment_square_report(frag)
    assert rep.ok
    assert rep.data["counts"][diamond_registry.names["diamond"]][3] == 9


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
