"""The README's CLI walkthrough, run command by command through `cli.main`,
and the names its library table gives."""

import hashlib
import importlib
import re
import shlex
from pathlib import Path

import decomp
from decomp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough() -> tuple[str, str, list[list[str]]]:
    """The walkthrough's heredoc as (file name, text), and the arguments of
    each `decomp` line with its comment dropped."""
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?\n)EOF\n", block, re.S)
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("decomp ")]
    return heredoc.group(1), heredoc.group(2), commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    name, text, commands = walkthrough()
    assert name == "d6.poset" and len(commands) == 13
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr())
    assert "PASS classify" in capsys.readouterr().out


# The SHA-256 of the walkthrough's joined stdout and of every file its
# commands write.  A stored .xiset hashes to its own digest.
WALKTHROUGH_STDOUT = "3f0a3ba6ba719a297bc5287d99c9ff53215afe73a975533e548c280348cbdae8"
WALKTHROUGH_FILES = {
    "d6.sset": "c4da7e28c137e43712b2b2d9bc53f7803ce239a9f92f046f931e5b31b8063f82",
    "d6dec.sset": "eb764ca70f142e3cb947e88d4f5d61b2971a4e458ba48bd870af20647534a420",
    "i16.xiset": "813b25c905f2c227660fe9c85f8da735e60a58bebaab0cbfbb2a23c05b2ae55d",
    "reg/index.tsv": "acc4da6318eb494dec2e5149d0e58d02023a7e15b3b6df24842c9015680fd16b",
    "reg/a24da4aa746ba8159d6a1c9939cc628fe4169dc00cd374f425149d193ef34cb5.arrows":
        "87e18fe3db0caaeb5fae8158b4f5f68234f291b8c3cfb0e0fc6219e77ed5c6a1",
    "reg/d34c284e64d2a122e32227080e11876b06722e24896538777a7ab16d5a6ecb8b.arrows":
        "b79285b59924f6cf364ec222a36eda45e43ed1a391ae23bfd9bc7a3869135fa5",
    "reg/f545f5367cf6a843ade3bb056359fa0405590fd2264f1864185137ee2600faa6.arrows":
        "f4026d32fd55f02d31ced03e2ea2e443b991805f27e4ac28f3a1fcd3f2a752e1",
} | {f"reg/{digest}.xiset": digest for digest in (
    "a24da4aa746ba8159d6a1c9939cc628fe4169dc00cd374f425149d193ef34cb5",
    "d34c284e64d2a122e32227080e11876b06722e24896538777a7ab16d5a6ecb8b",
    "f545f5367cf6a843ade3bb056359fa0405590fd2264f1864185137ee2600faa6")}

def test_readme_walkthrough_output_is_pinned(tmp_path, monkeypatch, capsys):
    """The walkthrough's stdout and every file it writes are byte for byte
    what they were: a change that keeps CLI output and registry files
    leaves these hashes alone."""
    name, text, commands = walkthrough()
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WALKTHROUGH_STDOUT
    written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.rglob("*") if p.is_file() and p.name != name}
    assert written == WALKTHROUGH_FILES


def test_readme_walkthrough_labels_only_maximal_arrows(tmp_path, monkeypatch, capsys,
                                                      labelling_calls):
    """A count, not a time: `registry add` labels its entry, and `close` and
    `classify` label only the maximal arrows of each class and of the input,
    reading every other arrow's class off a table.  Labelling every arrow
    again, as `close` and `classify` once did, takes 23 labellings here."""
    name, text, commands = walkthrough()
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0
    assert len(labelling_calls) <= 16


def library_rows() -> list[tuple[str, list[str]]]:
    """Each row of the "Library layout" table: its module, and the
    identifiers among the code spans of its contents cell."""
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    rows = re.findall(r"^\| `(decomp\.\w+)` \| (.*) \|$", section, re.M)
    return [(module, [span for span in re.findall(r"`([^`]*)`", cell)
                      if re.fullmatch(r"[A-Za-z_]\w*", span)])
            for module, cell in rows]


def test_readme_library_names_resolve():
    """Every name a row of the library table gives is bound in that row's
    module, exported by the package, or the package itself."""
    rows = library_rows()
    assert [module for module, _ in rows] == [
        "decomp.simplex", "decomp.presheaf", "decomp.axioms", "decomp.interval",
        "decomp.labeling", "decomp.registry", "decomp.incidence", "decomp.ingest",
        "decomp.formats", "decomp.cli"]
    for module, names in rows:
        bound = vars(importlib.import_module(module))
        unknown = [name for name in names
                   if name not in bound and name not in decomp.__all__ and name != "decomp"]
        assert not unknown, (module, unknown)
