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
WALKTHROUGH_STDOUT = "ba4bda783d49afa6c92f06cc32c0a7d7f830b0fe92d09022bfe85cd582db9d86"
WALKTHROUGH_FILES = {
    "d6.sset": "c4da7e28c137e43712b2b2d9bc53f7803ce239a9f92f046f931e5b31b8063f82",
    "d6dec.sset": "eb764ca70f142e3cb947e88d4f5d61b2971a4e458ba48bd870af20647534a420",
    "i16.xiset": "813b25c905f2c227660fe9c85f8da735e60a58bebaab0cbfbb2a23c05b2ae55d",
    "reg/index.tsv": "22fb5cb92734dffeda8c8844e8817243a0ca450afd651908730426d3528d496d",
    "reg/5747e2f1a673282d879e22bb76344b439cf4a9c1683e216fe49849a226cf0adf.arrows":
        "1e0044c5437be2c740c2cd8cc03e5cc429acf018f24b66cba6ad1b2c05c32e03",
    "reg/787d3aac08169252df3c51162e479092e8a47782de1c7258493f1d659d4bbc08.arrows":
        "2e0e8bc688215650491b3cee4c9bf23661fbd79a5b33e8952c79dea459742e85",
    "reg/a7fa97992f921925eac6b6bb737f0f3c0712952a79407f028c1bd6cc40f81858.arrows":
        "2723c92f2a1e02880da349f94566d4d39c8699dbfa8911ffafb53b54950ef089",
} | {f"reg/{digest}.xiset": digest for digest in (
    "5747e2f1a673282d879e22bb76344b439cf4a9c1683e216fe49849a226cf0adf",
    "787d3aac08169252df3c51162e479092e8a47782de1c7258493f1d659d4bbc08",
    "a7fa97992f921925eac6b6bb737f0f3c0712952a79407f028c1bd6cc40f81858")}


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
