"""Pins the CLI surface: every subcommand's options and the 3/4 exit codes.

``cli_surface.json`` records, per subcommand, each option's flags,
default, choices, type, ``required`` and action class, read off the
argparse tree ``main`` builds.  Regenerate it deliberately (and review the
diff) with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.__main__ import main

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


class _Captured(Exception):
    def __init__(self, parser: argparse.ArgumentParser) -> None:
        super().__init__()
        self.parser = parser


def _root_parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds, captured at its ``parse_args`` call."""

    def capture(self, *args, **kwargs):
        raise _Captured(self)

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = capture
    try:
        main(["train"])
    except _Captured as captured:
        return captured.parser
    finally:
        argparse.ArgumentParser.parse_args = original
    raise AssertionError("main() never parsed its arguments")


def _option(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "flags": list(action.option_strings),
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "type": None if kind is None else kind.__name__,
        "required": action.required,
        "action": type(action).__name__,
    }


def cli_surface() -> dict:
    """``{subcommand: {dest: option record}}`` for the whole CLI."""
    root = _root_parser()
    (subparsers,) = [a for a in root._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {action.dest: _option(action) for action in parser._actions
               if not isinstance(action, argparse._HelpAction)}
        for name, parser in sorted(subparsers.choices.items())
    }


def _render(surface: dict) -> str:
    """JSON with one line per option, so a surface change is a one-line diff."""
    commands = []
    for command, options in sorted(surface.items()):
        rows = ",\n".join(
            f"    {json.dumps(dest)}: {json.dumps(option, sort_keys=True)}"
            for dest, option in sorted(options.items())
        )
        commands.append(f"  {json.dumps(command)}: {{\n{rows}\n  }}")
    return "{\n" + ",\n".join(commands) + "\n}\n"


def test_cli_surface_matches_the_snapshot():
    assert cli_surface() == json.loads(SNAPSHOT.read_text())


_CAMPAIGN = ["campaign", "--rd", "0", "--traces", "256",
             "--segment-length", "1600", "--first-checkpoint", "128",
             "--patience", "1", "--shard-size", "128", "--workers", "1"]
_TVLA = ["tvla", "--traces", "8", "--segment-length", "160",
         "--batch-size", "8", "--shard-size", "8", "--capture-mode", "fast",
         "--workers", "1"]


def _parallel(command: str):
    if command == "campaign":
        from repro.runtime.parallel import ParallelCampaign
        return ParallelCampaign, _CAMPAIGN
    from repro.evaluation import ParallelTvlaCampaign
    return ParallelTvlaCampaign, _TVLA


@pytest.mark.parametrize("command", ["campaign", "tvla"])
def test_partial_result_exits_3(command, monkeypatch, capsys):
    cls, argv = _parallel(command)
    run = cls.run

    def partial_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        return dataclasses.replace(result, partial=True, failed_shards=(1,))

    monkeypatch.setattr(cls, "run", partial_run)
    assert main(argv) == 3
    assert "PARTIAL RESULT" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["campaign", "tvla"])
def test_shard_failure_exits_4(command, monkeypatch, capsys):
    from repro.runtime.retry import ShardFailure

    cls, argv = _parallel(command)

    def failing_run(self, *args, **kwargs):
        raise ShardFailure(0, 3, RuntimeError("injected"))

    monkeypatch.setattr(cls, "run", failing_run)
    assert main(argv) == 4
    assert "no shard completed" in capsys.readouterr().err


if __name__ == "__main__":
    SNAPSHOT.write_text(_render(cli_surface()))
    print(f"wrote {SNAPSHOT}")
