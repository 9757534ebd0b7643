"""The README's CLI walkthrough, run command by command through `cli.main`."""

import re
import shlex
from pathlib import Path

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
