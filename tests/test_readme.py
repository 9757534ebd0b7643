"""The README's CLI walkthrough, run command by command through `cli.main`,
and the names its library table gives."""

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
