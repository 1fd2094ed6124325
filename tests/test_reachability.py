"""Every public function and method of zetapoly is reached by a command.

``cli.main`` runs in this process under ``sys.setprofile`` over every
subcommand, and each public function or method defined in a ``zetapoly``
module (dunder methods included) must be among the code objects called,
or be named in ``ALLOWED`` with the reason it stays.  A function that no
command reaches and nothing else needs is deleted, not allowlisted.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from importlib import resources

import pytest

import zetapoly
from zetapoly import cli
from zetapoly.lvalues import delta_coefficients, required_nmax

# Public names no command reaches, each with the reason it stays.
ALLOWED = {
    "dyadic.Dyadic.__eq__": "the tests compare reported values, and records holding them, "
    "with it",
    "dyadic.Dyadic.__hash__": "defining __eq__ alone would make the values, and the frozen "
    "reports holding them, unhashable",
    "dyadic.Dyadic.__repr__": "the form that failing asserts and the REPL print",
    "exactnum.DensePoly.coeffs": "acceptance criterion 01 reads the transform's coefficients "
    "as Q(i) values",
    "exactnum.DensePoly.degree": "acceptance criterion 10, through hilbert_hypotheses",
    "exactnum.Record.__delattr__": "refuses deletion, so records stay immutable; no command "
    "deletes a field",
    "exactnum.Record.__hash__": "equal records hash alike, as frozen dataclasses did; the "
    "tests hash them",
    "exactnum.Record.__init_subclass__": "runs once per record class, when its module is "
    "imported, before any command",
    "exactnum.Record.__repr__": "the form that failing asserts and the REPL print",
    "exactnum.Record.__setattr__": "refuses assignment, so records stay immutable; no command "
    "assigns to a field",
    "gaussian.GaussianRational.__add__": "acceptance criteria 04 and 05 sum Q(i) values, "
    "criterion 04 through conftest.exact_identity_value",
    "gaussian.GaussianRational.__eq__": "the asserts compare Q(i) values, in the tests and "
    "the acceptance criteria",
    "gaussian.GaussianRational.__hash__": "defining __eq__ alone would make Q(i) values "
    "unhashable",
    "gaussian.GaussianRational.__init__": "every Q(i) value the tests and the acceptance "
    "criteria build",
    "gaussian.GaussianRational.__mul__": "acceptance criteria 04 and 05 multiply Q(i) values",
    "gaussian.GaussianRational.__neg__": "acceptance criterion 05's -(I ** (-w))",
    "gaussian.GaussianRational.__pow__": "acceptance criterion 05's I ** (-w) and I ** (n + 1)",
    "gaussian.GaussianRational.__radd__": "test_exactnum's mixed-scalar test adds an int to "
    "a Q(i) value",
    "gaussian.GaussianRational.__repr__": "the form that failing asserts and the REPL print",
    "gaussian.GaussianRational.__rmul__": "test_exactnum's mixed-scalar test multiplies a "
    "Fraction by a Q(i) value",
    "gaussian.GaussianRational.__str__": "the printer parity test holds exactnum.pair_text "
    "to its bytes",
    "gaussian.GaussianRational.__sub__": "acceptance criterion 04, through "
    "conftest.exact_identity_value; the Yun, poly-division and slash oracles subtract",
    "gaussian.GaussianRational.__truediv__": "the conftest gcd oracle, and through it the "
    "Yun oracle, makes each remainder monic with it",
    "gaussian.GaussianRational.coerce": "each operator reads its operand with it; the "
    "conftest slash and matrix oracles read matrix entries with it",
    "gaussian.GaussianRational.inverse": "acceptance criterion 05's I ** (-w), through "
    "__pow__; the conftest poly-division oracle divides by a leading coefficient with it",
    "gaussian.GaussianRational.is_zero": "acceptance criterion 05 tests the Laurent "
    "coefficients with it; the slash oracle and the Yun oracle's helpers do too",
    "gaussian.GaussianRational.norm2": "acceptance criterion 04 measures |total - limit| "
    "with it",
    "gaussian.GaussianRational.to_str_pair": "the printer parity test holds "
    "exactnum.str_pair to its bytes",
    "gaussian.PowerSeries.inverse": "perfbench span target",
    "gaussian.PowerSeries.mul": "perfbench span target",
    "gaussian.binom_poly_in_s": "acceptance criterion 09 calls it",
    "gaussian.binom_poly_in_s_scaled": "acceptance criterion 09, through binom_poly_in_s",
    "gaussian.from_pairs": "builds the Q(i) values read from DensePoly.coeffs, "
    "LaurentCoeffs.coeff and Thm2Report (acceptance criteria 01, 04 and 05)",
    "gaussian.qi": "acceptance criterion 05 builds 1 - i and -1 with it",
    "lvalues.build_r": "perfbench span target; acceptance criterion 08 calls it",
    "lvalues.completed_l": "perfbench span target",
    "zeta.LaurentCoeffs.coeff": "acceptance criteria 04 and 05 read the expansion with it",
    "zeta.Thm2Report.exact_part": "acceptance criterion 04 reads it",
    "zeta.Thm2Report.partial_sums": "acceptance criterion 04 reads it; perfbench's thm2 "
    "span note counts it",
    "zeta.Thm2Report.total": "acceptance criterion 04 reads it; perfbench's thm2 span "
    "note reads its denominators",
    "zeta.functional_eq_residual": "acceptance criterion 02 calls it",
    "zeta.hilbert_hypotheses": "acceptance criterion 10 calls it",
}


def _public_functions() -> dict:
    """'module.name' or 'module.Class.name' -> code object, for every
    public function and method written in a zetapoly module; methods that
    are not written there (generated, or inherited from outside) are
    skipped.  The records' dunders are written in ``exactnum.Record``."""
    found = {}
    for info in pkgutil.iter_modules(zetapoly.__path__):
        module = importlib.import_module(f"zetapoly.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [
                    (f"{name}.{attr}", member)
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_") or attr.endswith("__")
                ]
            for qualname, member in members:
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                    found[f"{info.name}.{qualname}"] = member.__code__
    return found


def _commands(tmp_path) -> list:
    """(argv, exit code) for every subcommand, in text and JSON."""
    data = resources.files("zetapoly.data")
    r_minus = str(data.joinpath("r_delta_minus.json"))
    r_plus = str(data.joinpath("r_delta_plus.json"))
    z_minus = str(tmp_path / "z.json")
    newform = tmp_path / "newform.json"
    an = delta_coefficients(required_nmax(1, 12, 64))
    newform.write_text(json.dumps(
        {"level": 1, "weight": 12, "fricke": 1, "an": [str(a) for a in an], "label": "1.12.a.a"}
    ))
    cmds = [
        (["--format", "json", "--prec", "64", "delta"], 0),
        (["delta"], 0),
        (["thm2", r_plus, "--n", "1,2"], 0),
        (["--format", "json", "thm2", r_plus, "--n", "1"], 0),
        (["wspace", "10"], 0),
        (["--form", "json", "wspace", "10"], 0),  # an abbreviation: argparse reads it
        (["rv-forward", r_minus, "--out", z_minus], 0),
        (["rv-inverse", z_minus], 0),
        (["thm2", z_minus], 0),
        (["--prec", "64", "lvalues"], 0),
        (["--prec", "64", "lvalues", str(newform)], 0),
        (["roots", r_minus], 0),
        (["roots", r_minus, "--mode", "critical_line"], 1),
        (["roots", r_minus, "--mode", "unit_circle"], 1),
    ]
    for relation, code in (("fricke", 0), ("res1", 0), ("res2", 0), ("es1", 0), ("es2", 1)):
        eps = ["--eps", "1"] if relation == "fricke" else []
        cmds.append((["check", relation, r_minus] + eps, code))
    return cmds


@pytest.fixture(scope="module")
def called_codes(tmp_path_factory) -> set:
    tmp_path = tmp_path_factory.mktemp("reach")
    cmds = _commands(tmp_path)
    called = set()
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in cmds:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in cmds]
    return called


def test_every_public_function_is_reached_or_allowed(called_codes):
    public = _public_functions()
    missing = sorted(
        n for n, code in public.items() if code not in called_codes and n not in ALLOWED
    )
    assert not missing, f"no command reaches {missing}: delete them, or allow them with a reason"


def test_allowlist_names_only_unreached_functions(called_codes):
    public = _public_functions()
    stale = sorted(n for n in ALLOWED if n not in public or public[n] in called_codes)
    assert not stale, f"ALLOWED names functions that are gone or reached: {stale}"
