"""Every ``blowfish`` command in the README's "CLI tour" and "Figure tables"
blocks runs, in order and in one directory, with exit status 0."""

import re
import shlex
from pathlib import Path

import pytest

from blowfish_privacy.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = ("## CLI tour", "## Figure tables")


def section_commands(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(heading + "\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words:
                commands.append(words)
    return commands


@pytest.mark.parametrize("heading", SECTIONS, ids=["cli_tour", "figure_tables"])
def test_readme_section_has_blowfish_commands(heading):
    commands = section_commands(heading)
    assert commands
    assert all(words[0] == "blowfish" for words in commands)


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for heading in SECTIONS:
        for words in section_commands(heading):
            assert main(words[1:]) == 0, shlex.join(words)
