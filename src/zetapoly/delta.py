"""End-to-end reproduction of the weight-12, level-1 example.

Builds the period polynomial of the discriminant form from its critical
L-values, applies the numeric transform, and compares the results
against the classical reference values: the even/odd scale factors, the
rounded zeta-polynomial coefficients, the exact rational golden data
shipped with the package, and the root locations (critical line for the
zeta-polynomial, unit circle for the period polynomial), proved by
certified sign counts (``signcount.sign_count_check``) or failed, and the
exact distance 1 of the odd part's trivial zero X = 0 from the circle.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import mpmath
from mpmath import mp

from zetapoly.errors import InputError
from zetapoly.exactnum import Record
from zetapoly.lvalues import (
    NumericPoly,
    _r_from_lambdas,
    critical_lambdas,
    delta_newform,
    numeric_rv,
    printed_digits,
)
from zetapoly.polyspace import PolyX, fricke_residual, rescaled_es1_residual, rescaled_es2_residual
from zetapoly.rv import ZetaPoly, rv_forward
from zetapoly.zeta import RootCheckReport, as_tolerance

# Reference values for the discriminant-form example, as printed in the
# classical tables (6 and 3-4 significant digits respectively).
REFERENCE_EVEN_SCALE = "0.114379"
REFERENCE_ODD_SCALE = "0.00926927"
REFERENCE_Z_COEFFS = {
    10: "5.11e-7",
    9: "-2.554e-6",
    8: "6.01e-5",
    7: "-2.25e-4",
    6: "0.00180",
    5: "-0.00463",
    4: "0.0155",
    3: "-0.0235",
    2: "0.0310",
    1: "-0.0199",
    0: "0.00596",
}
EVEN_PATTERN = (Fraction(36, 691), 0, 1, 0, 3, 0, 3, 0, 1, 0, Fraction(36, 691))
ODD_PATTERN = (0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0)

SCALE_REL_TOL = Fraction(1, 100000)  # 5 significant digits
ROOT_TOL = "1e-8"  # tolerance of the two proved root checks; r_- must miss the circle by more


def _load_golden(name: str) -> dict:
    with resources.files("zetapoly.data").joinpath(name).open() as fh:
        return json.load(fh)


def golden_r_minus() -> PolyX:
    return PolyX.from_dict(_load_golden("r_delta_minus.json"))


def golden_r_plus() -> PolyX:
    return PolyX.from_dict(_load_golden("r_delta_plus.json"))


def golden_z_minus() -> ZetaPoly:
    return ZetaPoly.from_dict(_load_golden("z_delta_minus.json"))


def decimal_ulp(printed: str) -> mpmath.mpf:
    """One unit in the last printed decimal place of a reference string."""
    exponent = Decimal(printed).as_tuple().exponent
    return mpmath.mpf(10) ** exponent


class DeltaReport(Record):
    """Everything the reproduction run computed and how it compared.

    ``lambda_symmetry_max`` = max_s |Lambda(s) - eps Lambda(12-s)| is 0 by
    construction (the split series is symmetric term by term), so it does
    not check the Fricke sign.  ``z_roots`` and ``r_roots`` come from
    ``sign_count_check`` when it proves the locations, with
    ``max_deviation`` 0, else fail with no roots and +inf.
    ``r_minus_circle_deviation`` is 1 if r_-(0) = 0 exactly, else 0: a
    proved lower bound on the largest distance of a root of r_- from
    |X| = 1, and that distance (the roots are 0, +-i/2, +-i, +-i, +-2i)."""

    prec: int
    lambdas: tuple
    lambda_symmetry_max: mpmath.mpf
    scale_even: mpmath.mpf
    scale_odd: mpmath.mpf
    scale_even_ok: bool
    scale_odd_ok: bool
    pattern_max_rel_dev: mpmath.mpf
    z_coeff_checks: tuple  # (power, printed, computed, ok)
    exact_z_match: bool
    golden_relations_ok: bool
    z_roots: RootCheckReport
    r_roots: RootCheckReport
    r_minus_circle_deviation: mpmath.mpf
    passed: bool
    r_numeric: NumericPoly
    z_numeric: NumericPoly

    def to_dict(self) -> dict:
        digits = printed_digits(self.prec)
        return {
            "prec": self.prec,
            "lambda_values": {
                str(s): mpmath.nstr(v, digits) for s, v in self.lambdas
            },
            "lambda_symmetry_max": mpmath.nstr(self.lambda_symmetry_max, 8),
            "scale_even": mpmath.nstr(self.scale_even, 12),
            "scale_odd": mpmath.nstr(self.scale_odd, 12),
            "scale_even_ok": self.scale_even_ok,
            "scale_odd_ok": self.scale_odd_ok,
            "pattern_max_rel_dev": mpmath.nstr(self.pattern_max_rel_dev, 8),
            "z_coeffs": [
                {
                    "power": p,
                    "reference": ref,
                    "computed": mpmath.nstr(val, 12),
                    "ok": ok,
                }
                for p, ref, val, ok in self.z_coeff_checks
            ],
            "exact_z_match": self.exact_z_match,
            "golden_relations_ok": self.golden_relations_ok,
            "z_roots_critical_line": self.z_roots.to_dict(),
            "r_roots_unit_circle": self.r_roots.to_dict(),
            "r_minus_circle_deviation": mpmath.nstr(self.r_minus_circle_deviation, 8),
            "passed": self.passed,
        }


def run_delta(prec: int = 128) -> DeltaReport:
    """Run the whole pipeline at ``prec`` bits and compare against the
    reference data.  ``passed`` is True only if every comparison holds."""
    if prec < 64:
        raise InputError(f"precision must be at least 64 bits, got {prec}")
    nf = delta_newform(prec)
    values = critical_lambdas(nf, prec)
    with mp.workprec(prec + 32):
        sym_max = max(abs(values[s - 1] - nf.fricke * values[11 - s]) for s in range(1, 12))

    rnum = _r_from_lambdas(nf.w, values, prec)
    znum = numeric_rv(rnum)

    with mp.workprec(prec + 32):
        scale_even = rnum.coeffs[8]
        scale_odd = rnum.coeffs[9] / 4
        even_ref = mpmath.mpf(REFERENCE_EVEN_SCALE)
        odd_ref = mpmath.mpf(REFERENCE_ODD_SCALE)
        rel_tol = mpmath.mpf(SCALE_REL_TOL.numerator) / SCALE_REL_TOL.denominator
        scale_even_ok = bool(abs(scale_even - even_ref) / even_ref < rel_tol)
        scale_odd_ok = bool(abs(scale_odd - odd_ref) / odd_ref < rel_tol)

        # Every coefficient must follow scale * pattern; doubles as the
        # coefficientwise period-relation check.
        max_dev = mpmath.mpf(0)
        for j in range(11):
            pattern = EVEN_PATTERN[j] if j % 2 == 0 else ODD_PATTERN[j]
            scale = scale_even if j % 2 == 0 else scale_odd
            expect = scale * mpmath.mpf(Fraction(pattern).numerator) / Fraction(pattern).denominator
            if expect != 0:
                max_dev = max(max_dev, abs(rnum.coeffs[j] / expect - 1))

        z_checks = []
        for p in range(10, -1, -1):
            ref = REFERENCE_Z_COEFFS[p]
            ulp = decimal_ulp(ref)
            ok = bool(abs(znum.coeffs[p] - mpmath.mpf(ref)) <= mpmath.mpf("0.51") * ulp)
            z_checks.append((p, ref, znum.coeffs[p], ok))

    r_minus = golden_r_minus()
    r_plus = golden_r_plus()
    exact_z_match = rv_forward(r_minus) == golden_z_minus()
    golden_relations_ok = all(
        res.is_zero()
        for poly in (r_minus, r_plus)
        for res in (
            fricke_residual(poly, 1),
            rescaled_es1_residual(poly),
            rescaled_es2_residual(poly),
        )
    )

    # Imported here, not at the top: with bytecode not cached, every start
    # compiles each module it imports, and no other command needs this one.
    from zetapoly.signcount import sign_count_check

    # Lambda(s) = eps Lambda(k - s) gives r_(w-n) = eps r_n, hence Z(1 - s) = eps Z(s).
    eps = nf.fricke * (-1) ** (nf.weight // 2)
    z_roots, r_roots = (
        sign_count_check(poly, mode, eps, tol=ROOT_TOL, precision=prec)
        or RootCheckReport(mode, (), mpmath.inf, as_tolerance(ROOT_TOL), False)
        for poly, mode in ((znum, "critical_line"), (rnum, "unit_circle"))
    )
    r_minus_circle = mpmath.mpf(1 if r_minus.pairs[0] == (0, 0) else 0)  # X = 0 lies 1 off |X| = 1

    passed = bool(
        scale_even_ok
        and scale_odd_ok
        and all(ok for _, _, _, ok in z_checks)
        and exact_z_match
        and golden_relations_ok
        and z_roots.passed
        and r_roots.passed
        and r_minus_circle > mpmath.mpf(ROOT_TOL)
    )
    return DeltaReport(
        prec=prec,
        lambdas=tuple(enumerate(values, start=1)),
        lambda_symmetry_max=sym_max,
        scale_even=scale_even,
        scale_odd=scale_odd,
        scale_even_ok=scale_even_ok,
        scale_odd_ok=scale_odd_ok,
        pattern_max_rel_dev=max_dev,
        z_coeff_checks=tuple(z_checks),
        exact_z_match=exact_z_match,
        golden_relations_ok=golden_relations_ok,
        z_roots=z_roots,
        r_roots=r_roots,
        r_minus_circle_deviation=r_minus_circle,
        passed=passed,
        r_numeric=rnum,
        z_numeric=znum,
    )
