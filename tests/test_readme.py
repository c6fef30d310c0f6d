"""The README's example document and its commands work as the README says."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from betticong.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_example() -> tuple[str, list[list[str]]]:
    """The input document block and the command block that follows it."""
    text = README.read_text(encoding="utf-8")
    document = re.search(r"```\n(complex .*?)```", text, re.S).group(1)
    commands = re.search(r"```sh\n(betticong theorem2 .*?)```", text, re.S).group(1)
    return document, [shlex.split(line)[1:] for line in commands.splitlines()]


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    document, commands = _readme_example()
    assert [argv[0] for argv in commands] == ["theorem2", "algebra-check", "suite"]
    monkeypatch.chdir(tmp_path)
    for name in ("s2.bc", "odd.bc"):
        (tmp_path / name).write_text(document, encoding="utf-8")
    for argv in commands:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().out)
    # The README algebra's delta is a square-zero derivation, so Theorem 1
    # applies to it.
    assert main(["theorem1-alg", "odd.bc"]) == 0
    assert "CHECK theorem1-algebraic: PASS — 6 vs 2 (mod 4)" in capsys.readouterr().out
