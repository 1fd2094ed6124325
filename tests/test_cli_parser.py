"""The CLI's usage surface and the cost of building its parser.

``cli_usage_snapshot.json`` records stdout, stderr and the exit code of
every ``--help`` and of six usage errors, as the CLI printed them when it
still built all nine parsers up front; building a subcommand's parser
only when it runs must leave every byte the same.
"""

import argparse
import contextlib
import io
import json
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from zetapoly import cli

SNAPSHOT = json.loads((Path(__file__).parent / "cli_usage_snapshot.json").read_text())


def usage_surface(argv) -> dict:
    """stdout, stderr and exit code of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture()
def fixed_width(monkeypatch):
    """argparse wraps help to the terminal width, which it reads from COLUMNS."""
    monkeypatch.setenv("COLUMNS", "80")


def test_snapshot_covers_every_help_and_the_usage_errors():
    helps = {case for case in SNAPSHOT if case.startswith("help")}
    assert helps == {"help"} | {f"help {name}" for name in cli.COMMANDS}
    assert len(SNAPSHOT) - len(helps) == 7
    assert all(entry["exit"] == (0 if case in helps else 2) for case, entry in SNAPSHOT.items())


@pytest.mark.parametrize("case", sorted(SNAPSHOT))
def test_usage_surface_matches_snapshot(case, fixed_width):
    entry = SNAPSHOT[case]
    expected = {key: entry[key] for key in ("exit", "stdout", "stderr")}
    assert usage_surface(entry["argv"]) == expected


def _data(name):
    return str(resources.files("zetapoly.data").joinpath(name))


RUNS = {
    "rv-forward": [_data("r_delta_minus.json")],
    "rv-inverse": [_data("z_delta_minus.json")],
    "check": ["es1", _data("r_delta_minus.json")],
    "thm2": [_data("r_delta_minus.json"), "--n", "1"],
    "delta": ["--prec", "64"],
    "wspace": ["4"],
    "lvalues": ["--prec", "64"],
    "roots": [_data("r_delta_minus.json")],
}


def _parsers_built(argv) -> int:
    """How many ArgumentParser objects ``cli.main(argv)`` initialises."""
    real = argparse.ArgumentParser.__init__
    with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True, side_effect=real) as init:
        usage_surface(argv)
    return init.call_count


def test_runs_cover_every_subcommand():
    assert set(RUNS) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_subcommand_builds_only_its_own_parser(name):
    assert _parsers_built([name] + RUNS[name]) == 2
    assert _parsers_built([name, "--help"]) == 2


def test_top_level_help_builds_one_parser():
    assert _parsers_built(["--help"]) == 1
