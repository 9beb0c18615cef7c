"""Every documented ``python -m repro`` command line parses.

Command lines are collected from README.md, docs/*.md and the
:mod:`repro.cli` docstring: a line that starts with ``python -m
repro``, joined with its ``\\`` continuations, with ``#`` comments
dropped. Lines holding a ``...`` placeholder are skipped.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PREFIX = "python -m repro"


def _command_lines(name: str, text: str) -> list[tuple[str, str]]:
    """``(source:line number, command)`` for each command in ``text``."""
    commands = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line.startswith(PREFIX + " "):
            continue
        start = index
        while line.endswith("\\") and index < len(lines):
            line = line[:-1].rstrip() + " " + lines[index].strip()
            index += 1
        if "..." not in line:
            commands.append((f"{name}:{start}", line))
    return commands


def _documented() -> list[tuple[str, str]]:
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    commands = [
        command
        for path in sources
        for command in _command_lines(
            str(path.relative_to(ROOT)), path.read_text()
        )
    ]
    return commands + _command_lines("repro/cli.py", repro.cli.__doc__)


DOCUMENTED = _documented()


def test_the_scan_finds_the_documented_commands():
    sources = {source.split(":")[0] for source, _ in DOCUMENTED}
    assert {"README.md", "docs/api.md", "docs/schedules.md",
            "repro/cli.py"} <= sources
    assert len(DOCUMENTED) >= 40


def test_the_scan_joins_continuations_and_skips_placeholders():
    text = (
        "python -m repro sweep --model m \\\n"
        "    --parallelism TP2 TP4   # two plans\n"
        "python -m repro run ... --governor thermal\n"
        "see `python -m repro serve` inline\n"
    )
    assert _command_lines("t", text) == [
        ("t:1", "python -m repro sweep --model m "
                "--parallelism TP2 TP4   # two plans"),
    ]


@pytest.mark.parametrize(
    "source,line", DOCUMENTED, ids=[source for source, _ in DOCUMENTED]
)
def test_documented_command_parses(source, line):
    argv = shlex.split(line, comments=True)[3:]
    try:
        build_parser().parse_args(argv)
    except SystemExit as error:
        pytest.fail(f"{source}: {line!r} does not parse (exit {error.code})")
