"""Golden ``--help`` texts: ``repro --help`` and every subcommand's.

The parser is generated from the request types of :mod:`repro.commands`
and the subcommand table of :mod:`repro.cli`, so a refactor of either can
move a flag, a default or a help line without any other test noticing.
These goldens pin the whole text at a fixed terminal width (argparse
wraps at ``$COLUMNS``); the text is the same on Python 3.10 to 3.13.

Refreshing after an *intentional* CLI change::

    PYTHONPATH=src REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_cli_help.py -q
"""

import os
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN_DIR = Path(__file__).parent / "golden_help"

#: Every parser the CLI builds, by its argv prefix.
COMMANDS = [
    (),
    ("run",),
    ("sweep",),
    ("cluster",),
    ("tune",),
    ("precompute",),
    ("serve",),
    ("cache",),
    ("cache", "stats"),
    ("cache", "gc"),
    ("cache", "export"),
    ("cache", "import"),
]


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv) or "repro")
def test_help_text_matches_its_golden(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = help_text(argv, capsys)
    golden = GOLDEN_DIR / ("_".join(("repro",) + argv) + ".txt")
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden.write_text(text)
    assert text == golden.read_text()


def test_every_subcommand_has_a_golden():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in COMMANDS if argv} == set(subcommands)
    cache = subcommands["cache"]._subparsers._group_actions[0].choices
    assert {argv[1] for argv in COMMANDS if len(argv) == 2} == set(cache)
