import json
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from mpmath import mp

import zetapoly
from conftest import mpc
from zetapoly import delta, rootfind, signcount
from zetapoly.cli import EXIT_CHECK_FAILED, main
from zetapoly.delta import (
    ROOT_TOL,
    decimal_ulp,
    golden_r_minus,
    golden_r_plus,
    golden_z_minus,
    run_delta,
)
from zetapoly.dyadic import INF, Dyadic
from zetapoly.errors import InputError
from zetapoly.lvalues import (
    NumericPoly,
    _r_from_lambdas,
    build_r,
    completed_l,
    critical_lambdas,
    delta_newform,
    numeric_rv,
)
from zetapoly.polyspace import PolyX, fricke_residual
from zetapoly.rv import rv_forward
from zetapoly.signcount import sign_count_check
from zetapoly.zeta import rh_check


@pytest.fixture(scope="module")
def report128():
    return run_delta(128)


class TestGoldenData:
    def test_files_parse_and_satisfy_relations(self):
        rm = golden_r_minus()
        rp = golden_r_plus()
        assert rm.w == 10 and rp.w == 10
        assert fricke_residual(rm, 1).is_zero()
        assert fricke_residual(rp, 1).is_zero()

    def test_transform_of_golden_matches_golden(self):
        assert rv_forward(golden_r_minus()) == golden_z_minus()


class TestDecimalUlp:
    def test_scientific(self):
        assert Fraction(*decimal_ulp("5.11e-7")) == Fraction(1, 10**9)
        assert Fraction(*decimal_ulp("-2.554e-6")) == Fraction(1, 10**9)

    def test_plain(self):
        assert Fraction(*decimal_ulp("0.00180")) == Fraction(1, 10**5)
        assert Fraction(*decimal_ulp("0.0310")) == Fraction(1, 10**4)


class TestRunDelta:
    def test_everything_passes_at_128_bits(self, report128):
        assert report128.passed
        assert report128.scale_even_ok and report128.scale_odd_ok
        assert all(ok for _, _, _, ok in report128.z_coeff_checks)
        assert report128.exact_z_match
        assert report128.golden_relations_ok
        assert report128.z_roots.passed
        assert report128.r_roots.passed

    def test_lambda_symmetry_tiny(self, report128):
        with mp.workprec(64):
            assert report128.lambda_symmetry_max < mpmath.mpf(2) ** -140

    def test_minus_part_fails_circle_by_one(self, report128):
        assert report128.r_minus_circle_deviation == Dyadic(1)

    def test_pattern_deviation_far_below_print_precision(self, report128):
        with mp.workprec(64):
            assert report128.pattern_max_rel_dev < mpmath.mpf("1e-30")

    @pytest.mark.parametrize("prec", [128, 1024, 4096])
    def test_l_values_off_by_a_relative_step_fail_the_run(self, prec, monkeypatch):
        # Lambda(4) and Lambda(8) scaled together keep the functional equation,
        # the scale factors, the printed Z digits and the sign counts; r_7 and
        # r_3 then leave their proved allowance against the golden odd part.
        honest = critical_lambdas
        for shift in (20, prec - 8):
            def scaled(f, p, shift=shift):
                return [Dyadic(v.man_exp[0] * ((1 << shift) + 1), v.man_exp[1] - shift) if s in (4, 8) else v
                        for s, v in enumerate(honest(f, p), start=1)]

            monkeypatch.setattr(delta, "critical_lambdas", scaled)
            report = run_delta(prec)
            assert report.scale_even_ok and report.scale_odd_ok and report.golden_relations_ok, shift
            assert report.z_roots.passed and report.r_roots.passed, shift
            assert report.passed is False, shift

    def test_low_precision_still_passes(self):
        assert run_delta(64).passed

    def test_precision_floor(self):
        with pytest.raises(InputError):
            run_delta(32)

    def test_period_polynomial_matches_build_r(self, report128):
        rnum = build_r(delta_newform(128), 128)
        assert report128.scale_even == Dyadic(rnum.mans[8], rnum.exp)
        assert report128.scale_odd == Dyadic(rnum.mans[9], rnum.exp - 2)
        assert tuple(v for _, v in report128.lambdas) == tuple(
            completed_l(delta_newform(128), s, 128) for s in range(1, 12)
        )

    def test_deterministic_serialization(self, report128):
        again = run_delta(128)
        assert json.dumps(report128.to_dict()) == json.dumps(again.to_dict())

    def test_report_dict_shape(self, report128):
        d = report128.to_dict()
        assert set(d) >= {
            "prec",
            "lambda_values",
            "scale_even",
            "scale_odd",
            "z_coeffs",
            "passed",
        }
        assert len(d["z_coeffs"]) == 11
        assert len(d["lambda_values"]) == 11


def _delta_numeric(prec: int):
    """The numeric period polynomial r and zeta-polynomial Z of the
    discriminant form at ``prec`` bits, as ``run_delta`` builds them."""
    nf = delta_newform(prec)
    rnum = _r_from_lambdas(nf.w, critical_lambdas(nf, prec), prec)
    return numeric_rv(rnum), rnum




def _oracle_sign_changes(poly, mode: str, roots) -> int:
    """Sign changes of the real function on the symmetry curve, counted in
    Fractions, independently of ``sign_count_check``: a sign counts only
    where |value| exceeds the error bound (else the test fails).  The
    points are the ends and the midpoints between consecutive roots.

    Line: Z(1/2 + it) as h(u), u = t^2, from the Fraction Taylor shift,
    against sum_j e_j max(1, 1/4 + u)^ceil(j/2) >= sum_j e_j |s|^j.
    Circle: Re X^(-w/2) r(X) at y = 2 cos(theta) as sum_j r_j T_|j-w/2|(y/2),
    against sum_j e_j."""
    c, e = ([m * Fraction(2) ** poly.exp for m in mans] for mans in (poly.mans, poly.errs))
    roots = [mpc(z) for z in roots]
    w = poly.w
    if mode == "critical_line":
        q = [sum(c[j] * math.comb(j, k) * Fraction(1, 2) ** (j - k) for j in range(k, w + 1))
             for k in range(w + 1)]
        knots = sorted({Fraction(float(mpmath.im(z))) ** 2 for z in roots if mpmath.im(z) > 0})
        mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
        points = [Fraction(0)] + mids + [2 * knots[-1] + 1]

        def value(u):
            return sum(q[2 * m] * (-u) ** m for m in range(w // 2 + 1))

        def bound(u):
            return sum(ej * max(1, Fraction(1, 4) + u) ** ((j + 1) // 2) for j, ej in enumerate(e))
    else:
        knots = sorted({Fraction(float(2 * mpmath.re(z))) for z in roots})
        points = [Fraction(-2)] + [(a + b) / 2 for a, b in zip(knots, knots[1:])] + [Fraction(2)]

        def value(y):
            cheb = [Fraction(1), y / 2]  # T_k(y/2)
            while len(cheb) <= w // 2:
                cheb.append(y * cheb[-1] - cheb[-2])
            return sum(cj * cheb[abs(j - w // 2)] for j, cj in enumerate(c))

        def bound(y):
            return sum(e)
    signs = []
    for x in points:
        v = value(x)
        assert abs(v) > bound(x), f"uncertified sign at {x}"
        signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _nstr20(rts) -> list:
    return [(mpmath.nstr(mpc(z).real, 20), mpmath.nstr(mpc(z).imag, 20)) for z in rts]


class TestSignCountCheck:
    """``sign_count_check`` on the numeric Z and r of the discriminant form."""

    EPS = 1  # fricke = 1, weight 12: eps = fricke (-1)^(k/2)

    @pytest.mark.parametrize("prec", [64, 128, 1024, 4096])
    def test_five_plus_five_certified_changes(self, prec):
        znum, rnum = _delta_numeric(prec)
        for poly, mode in ((znum, "critical_line"), (rnum, "unit_circle")):
            rep = sign_count_check(poly, mode, self.EPS, tol=ROOT_TOL, precision=prec)
            assert rep is not None and rep.passed and rep.max_deviation == Dyadic(0)
            assert len(rep.roots) == 10 and len(set(rep.roots)) == 10
            with mp.workprec(128):
                if mode == "critical_line":
                    assert all(mpc(z).real == mpmath.mpf(1) / 2 for z in rep.roots)
                else:
                    assert all(abs(abs(mpc(z)) - 1) < mpmath.mpf(2) ** -120 for z in rep.roots)
            assert _oracle_sign_changes(poly, mode, rep.roots) == 5

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_wrong_eps_is_not_proved(self, prec):
        for poly, mode in zip(_delta_numeric(prec), ("critical_line", "unit_circle")):
            assert sign_count_check(poly, mode, -self.EPS, precision=prec) is None

    def test_eps_must_be_a_sign(self):
        znum, _ = _delta_numeric(128)
        with pytest.raises(InputError):
            sign_count_check(znum, "critical_line", 0)
        with pytest.raises(InputError):
            sign_count_check(znum, "circle", 1)

    def test_missing_error_bound_is_not_proved(self):
        znum, _ = _delta_numeric(128)
        bare = NumericPoly(w=znum.w, exp=znum.exp, mans=znum.mans, prec=znum.prec)
        assert sign_count_check(bare, "critical_line", self.EPS) is None

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_coefficient_moved_past_its_error_is_not_proved(self, prec):
        """A move of 2^40 times the largest coefficient error breaks the
        symmetry the theory promises: Z_0 alone keeps Z(1/2 + x) even, and
        r_5 alone keeps r palindromic, so those two are left out."""
        znum, rnum = _delta_numeric(prec)
        for poly, mode, fixed in ((znum, "critical_line", 0), (rnum, "unit_circle", 5)):
            step = max(poly.errs) << 40
            for j in range(11):
                if j == fixed:
                    continue
                mans = list(poly.mans)
                mans[j] += step
                moved = NumericPoly(w=10, exp=poly.exp, mans=tuple(mans), prec=prec, errs=poly.errs)
                assert sign_count_check(moved, mode, self.EPS, precision=prec) is None, j

    @pytest.mark.parametrize("prec", [64, 128, 1024, 4096])
    def test_proved_roots_match_rh_check_to_20_digits(self, prec):
        """Equal printed digits, except components below 2^(16 - prec) in
        size, which are rounding noise on both sides."""
        limit = mpmath.mpf(2) ** (16 - prec)
        for poly, mode in zip(_delta_numeric(prec), ("critical_line", "unit_circle")):
            proved = sign_count_check(poly, mode, self.EPS, tol=ROOT_TOL, precision=prec)
            general = rh_check(poly, mode, tol=ROOT_TOL, precision=prec)
            assert general.passed
            for a, b in zip(_nstr20(proved.roots), _nstr20(general.roots)):
                for x, y in zip(a, b):
                    assert x == y or max(abs(mpmath.mpf(x)), abs(mpmath.mpf(y))) < limit, (a, b)


class TestRootCheckPath:
    @pytest.mark.parametrize("prec", [64, 128, 1024, 4096])
    def test_general_root_finder_never_runs(self, prec, monkeypatch):
        """All three root lines are proofs: ``run_delta`` reaches neither
        ``rootfind.roots`` nor ``rootfind.rh_check``, never loads
        ``zetapoly.rootfind``, and ``delta`` imports neither name."""
        assert not {"roots", "rh_check"} & set(vars(delta))
        # With the loaded module hidden, any import of it during the run
        # would load it afresh into sys.modules.
        monkeypatch.delitem(sys.modules, "zetapoly.rootfind")
        monkeypatch.delattr(zetapoly, "rootfind")
        with mock.patch.object(rootfind, "roots", wraps=rootfind.roots) as roots_spy, \
                mock.patch.object(rootfind, "rh_check", wraps=rootfind.rh_check) as rh_spy:
            report = run_delta(prec)
        assert "zetapoly.rootfind" not in sys.modules
        assert report.passed
        assert roots_spy.call_count == 0 and rh_spy.call_count == 0
        assert report.z_roots.max_deviation == report.r_roots.max_deviation == Dyadic(0)

    def test_sign_counts_prove_every_precision_tried(self):
        """No precision from 64 to 256 bits, nor 512 to 4096, needs more
        than the sign counts: a failed count would fail the run."""
        for prec in [*range(64, 257), 512, 1024, 2048, 4096]:
            report = run_delta(prec)
            assert report.passed, prec
            assert report.z_roots.max_deviation == report.r_roots.max_deviation == Dyadic(0), prec

    def test_unproved_roots_fail_the_run(self, capsys):
        with mock.patch.object(signcount, "sign_count_check", return_value=None):
            report = run_delta(128)
            code = main(["delta"])
        assert report.passed is False
        for rep in (report.z_roots, report.r_roots):
            assert rep.passed is False and rep.roots == () and rep.max_deviation is INF
        assert code == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "zeta roots on critical line: False (max dev +inf)" in out
        assert "period roots on unit circle: False (max dev +inf)" in out
        assert out.endswith("overall: FAIL\n")


class TestOddPartCircle:
    """The odd part's line states r_-(0) = 0 exactly: its root X = 0 lies
    1 from |X| = 1, which the general root finder confirms numerically."""

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_general_root_finder_agrees(self, prec):
        rep = rh_check(golden_r_minus(), "unit_circle", tol=ROOT_TOL, precision=prec)
        assert not rep.passed
        with mp.workprec(64):
            assert abs(rep.max_deviation - 1) < mpmath.mpf(2) ** -40

    def test_nonzero_constant_term_fails_the_run(self):
        """Every other check is forced to hold, so the circle line alone
        fails the run: with r_-(0) != 0 nothing proves a root off the circle."""
        rm = golden_r_minus()
        moved = PolyX(rm.w, rm.den, ((1, 0),) + rm.pairs[1:])
        zero = PolyX.make(rm.w, [])
        with mock.patch.multiple(
            delta,
            golden_r_minus=lambda: moved,
            rv_forward=lambda poly: golden_z_minus(),
            fricke_residual=lambda poly, eps: zero,
            rescaled_es1_residual=lambda poly: zero,
            rescaled_es2_residual=lambda poly: zero,
        ):
            report = run_delta(128)
        assert report.r_minus_circle_deviation == Dyadic(0)
        assert report.exact_z_match and report.golden_relations_ok
        assert report.z_roots.passed and report.r_roots.passed
        assert report.passed is False
        assert report.to_dict()["r_minus_circle_deviation"] == "0.0"
