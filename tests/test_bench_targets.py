"""The benchmark's span targets still name functions of the package.

``perfbench/spans.py`` wraps the functions listed in ``TARGETS`` when a
benchmark run is traced.  It is loaded here by file path, and every target
is resolved along the same getattr chain that ``Tracer.install`` walks, so
renaming or deleting a traced function fails this suite instead of the
traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest

from zetapoly import cli, zeta

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"
INVOKE_PATH = ROOT / "perfbench" / "invoke.py"


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
    """The thm2 command still runs through ``laurent_coeffs``, so its span
    cannot read 0 on working code."""
    golden = resources.files("zetapoly.data").joinpath("r_delta_plus.json")
    with mock.patch.object(zeta, "laurent_coeffs", wraps=zeta.laurent_coeffs) as laurent:
        assert cli.main(["thm2", str(golden), "--n", "1"]) == 0
    capsys.readouterr()
    assert laurent.called


def _workload_commands(tmp: Path) -> list:
    """The kinds of command the benchmark workloads run, on small inputs:
    rv-inverse reads the file rv-forward writes."""
    data = ROOT / "src" / "zetapoly" / "data"
    cmds = [["delta", "--prec", "128"], ["wspace", "10"]]
    for part in ("r_delta_plus.json", "r_delta_minus.json"):
        for rel in ("fricke", "es1", "es2", "res1", "res2"):
            eps = ["--eps", "1"] if rel == "fricke" else []
            cmds.append(["check", rel, str(data / part)] + eps)
    z = tmp / "z.json"
    cmds += [
        ["rv-forward", str(data / "r_delta_minus.json"), "--out", str(z)],
        ["rv-inverse", str(z)],
        ["thm2", str(data / "r_delta_plus.json"), "--n", "1"],
    ]
    return cmds


@pytest.fixture(scope="module")
def traced_span_names(tmp_path_factory) -> set:
    """Names of the spans that traced runs of the workload commands record,
    each command in its own interpreter through perfbench/invoke.py."""
    tmp = tmp_path_factory.mktemp("traced")
    names = set()
    for k, argv in enumerate(_workload_commands(tmp)):
        request = tmp / f"request{k}.json"
        result = tmp / f"result{k}.json"
        request.write_text(json.dumps(
            {"argv": argv, "trace": True, "src": str(ROOT / "src"), "result": str(result)}
        ))
        proc = subprocess.run(
            [sys.executable, str(INVOKE_PATH), str(request)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        out = json.loads(result.read_text())
        assert "error" not in out, out["error"]
        assert proc.returncode in (0, 1), (argv, proc.stderr)
        names.update(row[2] for row in out["spans"])
    return names


# Targets that no workload command reaches, each pinned as unreached: the
# two lvalues spans read 0 on delta, since run_delta calls
# critical_lambdas, not completed_l, and assembles r from those values
# without build_r (FOUND entries in CHANGES.md); the two PowerSeries spans
# read 0 on thm2, since laurent_coeffs is a closed-form convolution on
# ints; the two root spans read 0 on delta, whose three root lines are
# proved by sign counts and the exact r_-(0) = 0.  A target that a
# workload reaches again fails its case here and must leave this set.
UNREACHED = {
    "lvalues.completed_l",
    "lvalues.build_r",
    "zeta.roots",
    "zeta.rh_check",
    "exactnum.PowerSeries.mul",
    "exactnum.PowerSeries.inverse",
}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_workloads_record_the_target(name, traced_span_names):
    if name in UNREACHED:
        assert name not in traced_span_names, f"{name} is reached now; drop it from UNREACHED"
    else:
        assert name in traced_span_names
