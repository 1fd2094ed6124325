import json

import mpmath
import pytest
from mpmath import mp

from zetapoly.delta import (
    decimal_ulp,
    golden_r_minus,
    golden_r_plus,
    golden_z_minus,
    run_delta,
)
from zetapoly.errors import InputError
from zetapoly.lvalues import build_r, completed_l, delta_newform
from zetapoly.polyspace import fricke_residual
from zetapoly.rv import rv_forward


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
        assert decimal_ulp("5.11e-7") == mpmath.mpf(10) ** -9
        assert decimal_ulp("-2.554e-6") == mpmath.mpf(10) ** -9

    def test_plain(self):
        assert decimal_ulp("0.00180") == mpmath.mpf(10) ** -5
        assert decimal_ulp("0.0310") == mpmath.mpf(10) ** -4


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
        with mp.workprec(64):
            assert abs(report128.r_minus_circle_deviation - 1) < mpmath.mpf(2) ** -40

    def test_pattern_deviation_far_below_print_precision(self, report128):
        with mp.workprec(64):
            assert report128.pattern_max_rel_dev < mpmath.mpf("1e-30")

    def test_low_precision_still_passes(self):
        assert run_delta(64).passed

    def test_precision_floor(self):
        with pytest.raises(InputError):
            run_delta(32)

    def test_period_polynomial_matches_build_r(self, report128):
        rnum = build_r(delta_newform(128), 128)
        assert report128.r_numeric == rnum
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
