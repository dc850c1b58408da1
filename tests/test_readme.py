"""The README's examples run as written.

Every ```` ```python ```` block of ``README.md`` runs, in order, in one
namespace (later blocks reuse names the quickstart imports), and every
``ratemec ...`` line of its plain code blocks runs through ``cli.main``
and must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from ratemec import cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: (info string, body) of each fenced code block.
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)

COMMANDS = [
    line
    for tag, body in _BLOCKS
    if tag == ""
    for line in body.splitlines()
    if line.startswith("ratemec ")
]


def test_python_blocks_run_in_one_namespace(capsys):
    namespace: dict = {}
    for tag, body in _BLOCKS:
        if tag == "python":
            exec(compile(body, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    # The quickstart's first print, with the value its comment quotes.
    assert printed[0] == "0.25110501447786054"


def test_commands_cover_every_subcommand():
    assert {line.split()[1] for line in COMMANDS} == {"solve", "sweep", "oracle", "simulate"}


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
