"""End-to-end reproduction of the weight-12, level-1 example.

Builds the period polynomial of the discriminant form from its critical
L-values, applies the numeric transform, and compares the results
against the classical reference values: the even/odd scale factors, the
rounded zeta-polynomial coefficients, the exact rational golden data
shipped with the package, and the root locations (critical line for the
zeta-polynomial, unit circle for the period polynomial), proved by
certified sign counts (``signcount.sign_count_check``) or failed, and the
exact distance 1 of the odd part's trivial zero X = 0 from the circle.
The parts of r are real multiples of the golden r_+ and r_- (Kohnen and
Zagier, 1984): each coefficient must match its golden one within its proved error.
"""

from __future__ import annotations

import json
import os

from zetapoly.dyadic import INF, Dyadic, aligned, nstr, quotient, rounded
from zetapoly.errors import InputError
from zetapoly.exactnum import Record, parse_rational
from zetapoly.lvalues import (
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

SCALE_REL_TOL = (1, 100000)  # 5 significant digits, as (num, den)
ROOT_TOL = "1e-8"  # tolerance of the two proved root checks; r_- must miss the circle by more


def _load_golden(name: str) -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
        return json.load(fh)


def golden_r_minus() -> PolyX:
    return PolyX.from_dict(_load_golden("r_delta_minus.json"))


def golden_r_plus() -> PolyX:
    return PolyX.from_dict(_load_golden("r_delta_plus.json"))


def golden_z_minus() -> ZetaPoly:
    return ZetaPoly.from_dict(_load_golden("z_delta_minus.json"))


def decimal_ulp(printed: str) -> tuple[int, int]:
    """One unit in the last printed decimal place of a reference string, as
    (num, den): 10^-k for k digits after the point and the exponent e of the
    text, k - e = 2 - (-7) = 9 for "5.11e-7"."""
    mantissa, _, exp = printed.lower().partition("e")
    k = len(mantissa.partition(".")[2]) - int(exp or 0)
    return (1, 10**k) if k >= 0 else (10**-k, 1)


def _excess(man: int, exp: int, ref: tuple, bound: tuple) -> int:
    """|man 2^exp - ref| - bound times a positive integer, for ref and bound
    given as (num, den), on integers: its sign decides the comparison with no
    gcd of the long mantissa."""
    (rn, rd), (bn, bd) = ref, bound
    scale = 1 << max(-exp, 0)
    off = abs((man << max(exp, 0)) * rd - rn * scale)
    return off * bd - bn * rd * scale


class DeltaReport(Record):
    """Everything the reproduction run computed and how it compared.

    ``lambda_symmetry_max`` = max_s |Lambda(s) - eps Lambda(12-s)| is 0 by
    construction (the split series is symmetric term by term), so it does
    not check the Fricke sign.  ``run_delta`` builds ``z_roots`` and
    ``r_roots`` from the roots ``sign_count_check`` proves, with
    ``max_deviation`` 0, else fails them with no roots and +inf.
    ``r_minus_circle_deviation`` is 1 if r_-(0) = 0 exactly, else 0: a
    proved lower bound on the largest distance of a root of r_- from
    |X| = 1, and that distance (the roots are 0, +-i/2, +-i, +-i, +-2i).
    ``passed`` holds if every check does, and fails when a coefficient of r
    leaves its proved allowance against the golden parts (see ``run_delta``)."""

    prec: int
    lambdas: tuple
    lambda_symmetry_max: Dyadic
    scale_even: Dyadic
    scale_odd: Dyadic
    scale_even_ok: bool
    scale_odd_ok: bool
    pattern_max_rel_dev: Dyadic
    z_coeff_checks: tuple  # (power, printed, computed, ok)
    exact_z_match: bool
    golden_relations_ok: bool
    z_roots: RootCheckReport
    r_roots: RootCheckReport
    r_minus_circle_deviation: Dyadic
    passed: bool

    def to_dict(self) -> dict:
        digits = printed_digits(self.prec)
        return {
            "prec": self.prec,
            "lambda_values": {
                str(s): nstr(v, digits) for s, v in self.lambdas
            },
            "lambda_symmetry_max": nstr(self.lambda_symmetry_max, 8),
            "scale_even": nstr(self.scale_even, 12),
            "scale_odd": nstr(self.scale_odd, 12),
            "scale_even_ok": self.scale_even_ok,
            "scale_odd_ok": self.scale_odd_ok,
            "pattern_max_rel_dev": nstr(self.pattern_max_rel_dev, 8),
            "z_coeffs": [
                {
                    "power": p,
                    "reference": ref,
                    "computed": nstr(val, 12),
                    "ok": ok,
                }
                for p, ref, val, ok in self.z_coeff_checks
            ],
            "exact_z_match": self.exact_z_match,
            "golden_relations_ok": self.golden_relations_ok,
            "z_roots_critical_line": self.z_roots.to_dict(),
            "r_roots_unit_circle": self.r_roots.to_dict(),
            "r_minus_circle_deviation": nstr(self.r_minus_circle_deviation, 8),
            "passed": self.passed,
        }


def run_delta(prec: int = 128) -> DeltaReport:
    """Run the whole pipeline at ``prec`` bits and compare against the
    reference data.  ``passed`` is True only if every comparison holds."""
    if prec < 64:
        raise InputError(f"precision must be at least 64 bits, got {prec}")
    nf = delta_newform(prec)
    values = critical_lambdas(nf, prec)
    exp, lams = aligned([v.man_exp for v in values])
    sym_max = max(abs(a - nf.fricke * b) for a, b in zip(lams, lams[::-1]))

    rnum = _r_from_lambdas(nf.w, values, prec)
    znum = numeric_rv(rnum)
    m = rnum.mans

    scale_even, scale_odd = Dyadic(m[8], rnum.exp), Dyadic(m[9], rnum.exp - 2)
    tn, td = SCALE_REL_TOL
    even_ref, odd_ref = parse_rational(REFERENCE_EVEN_SCALE), parse_rational(REFERENCE_ODD_SCALE)
    scale_even_ok = _excess(m[8], rnum.exp, even_ref, (tn * even_ref[0], td * even_ref[1])) < 0
    scale_odd_ok = _excess(m[9], rnum.exp - 2, odd_ref, (tn * odd_ref[0], td * odd_ref[1])) < 0

    # Each coefficient follows the golden part of its parity (which doubles
    # as the period-relation check): with a_j its golden numerator and i = 8
    # for even j, 9 for odd j, the deviation over the common 2^E is |a_i m_j
    # - m_i a_j| / |m_i a_j|, the largest kept as a ratio.  a_i r_j = a_j r_i
    # exactly, so the proved errors e_j bound its numerator by |a_i| e_j + |a_j| e_i.
    r_minus = golden_r_minus()
    r_plus = golden_r_plus()
    a = [(r_minus if j % 2 else r_plus).pairs[j][0] for j in range(11)]
    max_dev, within = (0, 1), True
    for j in range(11):
        i = 8 + j % 2
        num, den = abs(a[i] * m[j] - m[i] * a[j]), abs(m[i] * a[j])
        within = within and num <= abs(a[i]) * rnum.errs[j] + abs(a[j]) * rnum.errs[i]
        if num * max_dev[1] > max_dev[0] * den:
            max_dev = (num, den)

    z_checks = []
    for p in range(10, -1, -1):
        ref = REFERENCE_Z_COEFFS[p]
        un, ud = decimal_ulp(ref)
        ok = _excess(znum.mans[p], znum.exp, parse_rational(ref), (51 * un, 100 * ud)) <= 0
        z_checks.append((p, ref, Dyadic(znum.mans[p], znum.exp), ok))

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
    root_tol = as_tolerance(ROOT_TOL)
    z_roots, r_roots = (
        RootCheckReport(mode, roots, Dyadic(0), root_tol, True) if roots is not None
        else RootCheckReport(mode, (), INF, root_tol, False)
        for poly, mode in ((znum, "critical_line"), (rnum, "unit_circle"))
        for roots in [sign_count_check(poly, mode, eps)]
    )
    r_minus_circle = 1 if r_minus.pairs[0] == (0, 0) else 0  # X = 0 lies 1 off |X| = 1

    passed = bool(
        scale_even_ok
        and scale_odd_ok
        and within
        and all(ok for _, _, _, ok in z_checks)
        and exact_z_match
        and golden_relations_ok
        and z_roots.passed
        and r_roots.passed
        and r_minus_circle * root_tol[1] > root_tol[0]
    )
    return DeltaReport(
        prec=prec,
        lambdas=tuple(enumerate(values, start=1)),
        lambda_symmetry_max=Dyadic(*rounded(sym_max, exp, prec + 32)),
        scale_even=scale_even,
        scale_odd=scale_odd,
        scale_even_ok=scale_even_ok,
        scale_odd_ok=scale_odd_ok,
        pattern_max_rel_dev=Dyadic(*quotient(*max_dev, 0, prec + 32)),
        z_coeff_checks=tuple(z_checks),
        exact_z_match=exact_z_match,
        golden_relations_ok=golden_relations_ok,
        z_roots=z_roots,
        r_roots=r_roots,
        r_minus_circle_deviation=Dyadic(r_minus_circle),
        passed=passed,
    )
