"""The benchmark's span targets still name functions of the package.

``perfbench/spans.py`` wraps the functions listed in ``TARGETS`` when a
benchmark run is traced.  It is loaded here by file path, and every target
is resolved along the same getattr chain that ``Tracer.install`` walks, so
renaming or deleting a traced function fails this suite instead of the
traced benchmark run.
"""

import importlib
import importlib.util
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from zetapoly import cli, zeta
from zetapoly.exactnum import PowerSeries

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


def test_thm2_reaches_its_traced_targets(capsys):
    """The thm2 command still runs through the functions its spans wrap, so
    those spans cannot read 0 on working code.  The methods are patched
    with autospec, which binds self, and side_effect, since autospec
    ignores ``wraps`` on Python 3.11."""
    golden = resources.files("zetapoly.data").joinpath("r_delta_plus.json")
    patch = mock.patch.object
    with (
        patch(zeta, "laurent_coeffs", wraps=zeta.laurent_coeffs) as laurent,
        patch(PowerSeries, "mul", autospec=True, side_effect=PowerSeries.mul) as mul,
        patch(PowerSeries, "inverse", autospec=True, side_effect=PowerSeries.inverse) as inv,
    ):
        assert cli.main(["thm2", str(golden), "--n", "1"]) == 0
    capsys.readouterr()
    for wrapper in (laurent, mul, inv):
        assert wrapper.called
