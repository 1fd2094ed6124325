"""What a start loads: ``import zetapoly.cli`` loads exactly the package
modules in ``AT_START`` and imports neither ``dataclasses`` (with
``inspect``), nor mpmath, nor ``cmath``, nor argparse (with ``gettext``
and ``locale``), nor the general root finder, nor the Q(i) value type of
``zetapoly.gaussian``; no command but ``roots`` loads any of them, and
``roots`` loads only the root finder.  argparse loads only for help, usage
errors and the argv forms that ``cli._read_argv`` does not take.  Every
start compiles each module it imports, so a module that slips back onto
the import path costs every command.  No module of the package imports
mpmath or ``cmath`` at all: the tests read mpmath as an oracle only, and
the Aberth seeds take math.cos and math.sin.  No module imports
``_thread`` or ``threading`` or names the interpreter's int-to-str digit
cap.  Outside ``gaussian``, only ``exactnum.parse_rational`` imports
``fractions``, inside the function, and no command computes with Fraction."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WATCHED = (
    "argparse", "cmath", "dataclasses", "gettext", "inspect", "locale", "mpmath",
    "zetapoly.gaussian", "zetapoly.rootfind",
)
AT_START = {
    "zetapoly", "zetapoly.cli", "zetapoly.delta", "zetapoly.dyadic", "zetapoly.errors",
    "zetapoly.exactnum", "zetapoly.lvalues", "zetapoly.polyspace", "zetapoly.rv", "zetapoly.zeta",
}


def _data(name: str) -> str:
    return str(resources.files("zetapoly.data").joinpath(name))


def _loaded_by(argv=None, watched=WATCHED) -> set:
    """The ``watched`` modules that ``import zetapoly.cli``, then
    ``cli.main(argv)`` when given (help or a usage error included), add to
    a fresh interpreter's ``sys.modules``."""
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import zetapoly.cli\n"
        f"argv = {argv!r}\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        with contextlib.suppress(SystemExit):\n"
        "            zetapoly.cli.main(argv)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    return loaded if watched is None else loaded & set(watched)


def test_import_loads_no_watched_module():
    assert _loaded_by() == set()


def test_import_loads_exactly_the_start_modules():
    loaded = {m for m in _loaded_by(watched=None) if m.split(".")[0] == "zetapoly"}
    assert loaded == AT_START


def test_delta_does_not_load_the_root_finder():
    assert _loaded_by(["delta", "--prec", "64"]) == set()


@pytest.mark.parametrize("argv", [
    ["thm2", _data("r_delta_minus.json")],
    ["wspace", "10"],
    ["check", "es1", _data("r_delta_minus.json")],
    ["rv-forward", _data("r_delta_minus.json")],
    ["rv-inverse", _data("z_delta_minus.json")],
    ["lvalues"],
], ids=lambda argv: argv[0])
def test_other_commands_load_no_watched_module(argv):
    assert _loaded_by(argv) == set()


@pytest.mark.parametrize("argv", [
    ["thm2", _data("r_delta_plus.json"), "--n", "1,2,3,4,5"],
    ["check", "fricke", _data("r_delta_minus.json"), "--eps", "-1"],
    ["delta", "--prec", "128"],
], ids=lambda argv: argv[0])
def test_benchmark_argv_forms_load_no_watched_module(argv):
    """As perfbench/run.py spells them, with ``--format json --out FILE``."""
    assert _loaded_by(argv + ["--format", "json", "--out", os.devnull]) == set()


@pytest.mark.parametrize("argv", [["--help"], ["wspace", "--help"], ["--form", "json", "wspace", "4"]],
                         ids=" ".join)
def test_help_and_the_forms_the_reader_leaves_load_argparse(argv):
    assert {"argparse", "gettext"} <= _loaded_by(argv)


# The second number type: no command and no ASCII rational text ("p/q", integers,
# plain decimals) loads ``fractions``; rarer text (whitespace, underscores, other
# digits) does, at 2.5-4.2 ms of import.  No command computes with Fraction.
NUMBER_TYPES = ("decimal", "fractions", "numbers")


def test_import_loads_no_second_number_type():
    assert _loaded_by(watched=NUMBER_TYPES) == set()


@pytest.mark.parametrize("argv", [
    ["delta", "--prec", "128"],
    ["thm2", _data("r_delta_plus.json"), "--n", "1,2,3,4,5"],
    ["thm2", _data("r_delta_minus.json"), "--n", "1,2,3,4,5"],
    ["wspace", "10"],
    ["wspace", "30"],
    ["check", "fricke", _data("r_delta_minus.json"), "--eps", "1"],
    ["check", "es1", _data("r_delta_plus.json")],
    ["rv-forward", _data("r_delta_minus.json")],
    ["rv-inverse", _data("z_delta_minus.json")],
], ids=["delta", "thm2-plus", "thm2-minus", "wspace10", "wspace30", "check-fricke", "check-es1", "rv-forward",
        "rv-inverse"])
def test_benchmark_argv_forms_load_no_second_number_type(argv):
    """Each perfbench argv form, with ``--format json --out FILE``, loads
    none of ``fractions``, ``decimal`` and ``numbers``."""
    assert _loaded_by(argv + ["--format", "json", "--out", os.devnull], watched=NUMBER_TYPES) == set()


@pytest.mark.parametrize("argv", [
    ["thm2", _data("r_delta_minus.json"), "--tol", "1e-8"],
    ["thm2", _data("r_delta_minus.json"), "--tol=2.5E-12"],
    ["thm2", _data("r_delta_minus.json"), "--tol", "0.0001"],
    ["check", "es1", "DECIMALS"],
], ids=["tol 1e-8", "tol=2.5E-12", "tol 0.0001", "check-decimal-entries"])
def test_typed_decimal_forms_load_no_second_number_type(argv, tmp_path):
    """Decimal tolerances and coefficient entries as a user types them
    are read with ``int``: none loads ``fractions``, ``decimal`` or
    ``numbers``.  DECIMALS names a file whose entries are "0.25",
    "-1.5e3" and "7"."""
    from zetapoly.cli import EXIT_INPUT, main

    path = tmp_path / "decimals.json"
    path.write_text(json.dumps({"w": 2, "coeffs": [["0.25", "-1.5e3"], ["7", "0"], ["0", "0"]]}))
    argv = [str(path) if arg == "DECIMALS" else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) != EXIT_INPUT  # every text was read
    assert _loaded_by(argv, watched=NUMBER_TYPES) == set()


@pytest.mark.parametrize("mode", [None, "critical_line", "unit_circle"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_roots_loads_no_second_number_type(mode, fmt):
    """``roots`` on r_-, with and without ``--mode``, certifies its roots
    and decides the line / circle check on integers alone."""
    argv = ["--format", fmt, "roots", _data("r_delta_minus.json")] + (["--mode", mode] if mode else [])
    assert _loaded_by(argv, watched=NUMBER_TYPES) == set()


def _scopes_importing(module: str, top: str) -> set:
    """Where ``module`` imports the ``top`` package: "module" for code that
    runs at import, "module.function" inside a function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            else:
                names = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            if any(name.split(".")[0] == top for name in names):
                found.add(scope)
            deferred = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}" if deferred else scope)

    visit(_tree(module), module)
    return found


def test_fractions_is_imported_at_module_level_only_by_modules_no_workload_loads():
    """Only ``gaussian`` imports ``fractions`` at module level; elsewhere
    only ``exactnum.parse_rational`` imports it, inside the function, for
    text rarer than the ASCII forms it reads with ``int``."""
    scopes = set()
    for name in sorted(os.listdir(os.path.join(SRC, "zetapoly"))):
        if name.endswith(".py"):
            scopes |= _scopes_importing(name[:-3], "fractions")
    assert {s for s in scopes if "." not in s} <= {"gaussian"}
    assert {s for s in scopes if "." in s} <= {"exactnum.parse_rational"}


def test_roots_loads_the_root_finder():
    for mode in ([], ["--mode", "unit_circle"]):
        assert _loaded_by(["roots", _data("r_delta_minus.json"), *mode]) == {"zetapoly.rootfind"}


def test_no_module_imports_mpmath():
    package = os.path.join(SRC, "zetapoly")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""]
                else:
                    continue
                for banned in ("cmath", "mpmath"):
                    assert not any(m == banned or m.startswith(banned + ".") for m in imported), (name, node.lineno)


def _tree(module: str) -> ast.Module:
    with open(os.path.join(SRC, "zetapoly", module + ".py")) as f:
        return ast.parse(f.read(), module)


def test_no_module_uses_threads_or_the_digit_cap():
    """Every module is pure by construction: none imports ``_thread`` or
    ``threading``, and none names ``set_int_max_str_digits``, whose cap is
    global to the interpreter, so lifting it for one call lifts it for
    every thread."""
    for name in sorted(os.listdir(os.path.join(SRC, "zetapoly"))):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_tree(name[:-3])):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            else:
                imported = []
            assert not {"_thread", "threading"} & {m.split(".")[0] for m in imported}, (name, node.lineno)
            named = {getattr(node, field, None) for field in ("attr", "id", "name")}
            assert "set_int_max_str_digits" not in named, (name, getattr(node, "lineno", None))


def test_sign_counts_run_on_integers_and_the_aberth_stage_lives_in_rootfind():
    """``signcount`` holds no float literal and calls none of ``float``,
    ``ldexp`` and ``as_integer_ratio``; from ``zeta`` it imports only the
    report, the root order and the tolerance parser.  The double-precision
    Aberth stage and its constants are defined in ``rootfind`` and not in
    ``zeta``, which every start compiles."""
    imported = set()
    for node in ast.walk(_tree("signcount")):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), node.lineno
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in ("float", "ldexp", "as_integer_ratio"), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "zetapoly.zeta":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] + [alias.name for alias in node.names]
            assert "zeta" not in names and "zetapoly.zeta" not in names, node.lineno
    assert imported == {"RootCheckReport", "_sorted_roots", "as_tolerance"}

    def defined(module):
        names = set()
        for node in _tree(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        return names

    aberth = {"_aberth", "_horner2", "_ABERTH_MAX_ITER", "_SEED_ANGLE_OFFSET", "_ISOLATION_BITS"}
    assert not aberth & defined("zeta")
    assert aberth <= defined("rootfind")
