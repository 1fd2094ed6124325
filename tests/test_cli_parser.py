"""The CLI's usage surface, its argv reader and the cost of its parser.

``cli_usage_snapshot.json`` records stdout, stderr and the exit code of
every ``--help`` and of seven usage errors, as the CLI printed them when it
still built all nine parsers up front.  argparse now runs only for help,
usage errors and the argv forms that ``cli._read_argv`` does not take;
every byte must stay the same.  Wherever the reader answers,
its namespace must equal the one argparse builds.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _parsers_built(argv) -> tuple:
    """How many ArgumentParser objects ``cli.main(argv)`` initialises, and its exit code."""
    real = argparse.ArgumentParser.__init__
    with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True, side_effect=real) as init:
        code = usage_surface(argv)["exit"]
    return init.call_count, code


def test_runs_cover_every_subcommand():
    assert set(RUNS) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_subcommand_builds_only_its_own_parser(name):
    """A run that the reader takes builds no parser."""
    assert _parsers_built([name] + RUNS[name]) == (0, 0)


# ---------------------------------------------------------------------
# The reader against argparse
# ---------------------------------------------------------------------


def _argparse_namespace(argv):
    """``vars()`` of argparse's namespace for argv, or None on a usage error or help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _agrees(argv) -> bool:
    """True when the reader answers argv, with argparse's namespace."""
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == _argparse_namespace(argv), argv
    return read is not None


def _texts(options, wild):
    """Texts for an argument with these options: ones argparse takes, and
    with ``wild`` ones it may refuse or read as an option."""
    if "choices" in options:
        good = [str(choice) for choice in options["choices"]]
    elif options.get("type") is int:
        good = ["64", "100", "-3", "0", "+7"]
    else:
        good = ["1", "1,2,3", "out.json", "", "-1", "-.5"]
    bad = ["x", "-x", "-1e-10", "1.5", "-", "--", "-h", "--prec", " 5", "\u0663", "1 2", "-1 2"]
    return st.sampled_from(good * 4 + bad if wild else good)


@st.composite
def _argvs(draw, wild):
    """An argv from the command grammar: global flags on either side of
    the subcommand, its own options after it, positionals mixed in, flags
    repeated, ``--flag=VALUE`` forms; with ``wild``, also wrong texts,
    positional counts and mutations (abbreviations, ``--``, help, tokens
    dropped, repeated or moved)."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    specs = cli.COMMANDS[command][2]
    flags = [spec for spec in specs if spec[0][0] == "-"] + list(cli._GLOBAL_FLAGS)
    groups = [[draw(_texts(opts, wild))] for name, opts in specs
              if name[0] != "-" and (opts.get("nargs") != "?" or draw(st.booleans()))]
    before = []
    for _ in range(draw(st.integers(0, 5))):
        flag, opts = draw(st.sampled_from(flags))
        text = draw(_texts(opts, wild))
        group = [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
        if (flag, opts) in cli._GLOBAL_FLAGS and draw(st.booleans()):
            before += group
        else:
            groups.insert(draw(st.integers(0, len(groups))), group)
    argv = before + [command] + [arg for group in groups for arg in group]
    if wild:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(argv)))
            kind = draw(st.sampled_from(["abbreviate", "insert", "drop", "repeat", "move"]))
            if kind == "abbreviate" and i < len(argv) and argv[i].startswith("--") and len(argv[i]) > 3:
                argv[i] = argv[i][:draw(st.integers(2, len(argv[i]) - 1))]
            elif kind == "insert":
                token = draw(st.sampled_from(["--", "-h", "--help", "--bogus", "x", "-1", command]))
                argv.insert(i, token)
            elif i < len(argv) and kind == "drop":
                del argv[i]
            elif i < len(argv) and kind == "repeat":
                argv.insert(i, argv[i])
            elif i < len(argv):
                argv.insert(draw(st.integers(0, len(argv) - 1)), argv.pop(i))
    return argv


@given(_argvs(wild=False))
@settings(max_examples=300, deadline=None)
def test_the_reader_takes_the_grammar_as_argparse_does(argv):
    assert _agrees(argv), argv


@given(_argvs(wild=True))
@settings(max_examples=600, deadline=None)
def test_where_the_reader_answers_argparse_agrees(argv):
    _agrees(argv)


@pytest.mark.parametrize("argv", [
    ["wspace", "10", "--form", "json"],
    ["--tol", "1e-10", "--", "wspace", "10"],
    ["wspace", "-h"],
    ["thm2", "f.json", "--n"],
    ["wspace", "10", "11"],
    ["wspace", "ten"],
    ["--format", "xml", "wspace", "10"],
    ["--eps", "1", "check", "fricke", "f.json"],
    ["--tol", "-1e-10", "wspace", "10"],
    ["--tol=--", "delta"],
], ids=lambda argv: " ".join(argv))
def test_the_reader_leaves_other_forms_to_argparse(argv):
    assert cli._read_argv(argv) is None


@pytest.mark.parametrize("argv", [
    ["check", "fricke", "f.json", "--eps", "-1"],
    ["check", "fricke", "--eps=-1", "f.json"],
    ["--tol=-1e-10", "thm2", "f.json"],
    ["--prec", "64", "lvalues", "--prec=256", "--kmax", "9"],
    ["--format", "text", "wspace", "-4", "--format=json", "--out", ""],
], ids=lambda argv: " ".join(argv))
def test_the_reader_takes_these_forms(argv):
    assert _agrees(argv)


def test_the_reader_takes_every_run():
    for name, args in RUNS.items():
        assert _agrees([name] + args)


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # its dataclass looks itself up there
        spec.loader.exec_module(module)
    return module


def test_the_reader_takes_every_benchmark_argv(tmp_path):
    """Every argv the benchmark's three workloads run, with both signs of
    the seeded Fricke inputs' ``--eps``, as perfbench/run.py spells it."""
    workloads = _perfbench_workloads()
    argvs = []
    for seed in range(8):
        for workload in workloads.COMMAND_METRICS:
            for inv in workloads.build(workload, seed, tmp_path / f"{workload}{seed}"):
                argvs.append(list(inv.argv) + ["--format", "json", "--out", str(inv.out)])
    eps = {argv[argv.index("--eps") + 1] for argv in argvs if "--eps" in argv}
    assert eps == {"1", "-1"}
    assert all(_agrees(argv) for argv in argvs)
