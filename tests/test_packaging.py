"""The dependency contract of ``pyproject.toml``: the package imports only
the standard library and itself, as ``dependencies = []`` declares, and
every third-party module the tests and perfbench import is listed in
``[project.optional-dependencies] test``.  ``requires-python`` allows
3.10, which has no ``tomllib``, so the file is read by hand."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def dist_name(spec: str) -> str:
    """The distribution name of a requirement, without version specifiers
    or extras, lowercased with ``-`` as ``_``."""
    return re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower().replace("-", "_")


def declared(table: str, key: str) -> set:
    """The distribution names in the array ``key`` of ``[table]``."""
    text = (ROOT / "pyproject.toml").read_text()
    body = re.search(rf"^\[{re.escape(table)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    array = re.search(rf"^{re.escape(key)}\s*=\s*\[(.*?)\]", body.group(1), re.M | re.S)
    return {dist_name(s) for s in re.findall(r"[\"']([^\"']+)[\"']", array.group(1))}


def imported(*dirs: str) -> dict:
    """Each top-level module name imported anywhere under ``dirs``, with
    one file that imports it; relative imports, which stay inside their
    package, are left out."""
    found = {}
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    found.setdefault(name.partition(".")[0], str(path.relative_to(ROOT)))
    return found


def test_the_package_imports_only_the_standard_library_and_itself():
    assert declared("project", "dependencies") == set()
    allowed = set(sys.stdlib_module_names) | {"__future__", "zetapoly"}
    extra = {name: path for name, path in imported("src/zetapoly").items() if name not in allowed}
    assert not extra


def test_tests_and_perfbench_import_only_declared_test_dependencies():
    local = {"zetapoly", "tests", "perfbench"}
    local |= {path.stem for d in ("tests", "perfbench") for path in (ROOT / d).glob("*.py")}
    allowed = set(sys.stdlib_module_names) | local | declared("project.optional-dependencies", "test")
    extra = {name: path for name, path in imported("tests", "perfbench").items() if name not in allowed}
    assert not extra


def test_the_hand_reader_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert declared("project", "dependencies") == {dist_name(s) for s in project["dependencies"]}
    test = project["optional-dependencies"]["test"]
    assert declared("project.optional-dependencies", "test") == {dist_name(s) for s in test}
