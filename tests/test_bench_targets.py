"""The benchmark's span targets still name functions of the package.

``perfbench/spans.py`` wraps the functions listed in ``TARGETS`` when a
benchmark run is traced.  It is loaded here by file path, and every target
is resolved along the same getattr chain that ``Tracer.install`` walks, so
renaming or deleting a traced function fails this suite instead of the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_resolves_to_a_callable(name):
    modname, attr, _note = TARGETS[name]
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{name}: {modname} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {modname}.{attr} is not callable"
