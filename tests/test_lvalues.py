import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from conftest import mpf, mpmath_loop_lambdas, numeric_poly, pentagonal_tau, poly_values
from zetapoly.errors import InputError, PrecisionError
from zetapoly.exactnum import binom_poly_in_s_scaled
from zetapoly.lvalues import (
    GUARD_BITS,
    NewformData,
    NumericPoly,
    _r_from_lambdas,
    build_r,
    completed_l,
    critical_lambdas,
    delta_coefficients,
    delta_newform,
    l_from_lambda,
    numeric_rv,
    required_nmax,
)
from zetapoly.polyspace import PolyX
from zetapoly.rv import rv_forward


def eta24_oracle(order: int) -> list[int]:
    """Literal product expansion of prod_{n<=order} (1-q^n)^24, no
    pentagonal shortcut; coefficients up to degree order-1."""
    poly = [1]
    for n in range(1, order + 1):
        for _ in range(24):
            out = [0] * min(order, len(poly) + n)
            for i, c in enumerate(poly):
                if i < len(out):
                    out[i] += c
                if i + n < len(out):
                    out[i + n] -= c
            poly = out
    return poly[:order]


class TestTau:
    def test_against_literal_product_oracle(self):
        assert delta_coefficients(8) == eta24_oracle(8)

    def test_against_pentagonal_oracle(self):
        # every truncation up to 600 (460 is the 4096-bit case), and 2000
        tau = pentagonal_tau(600)
        for nmax in range(1, 601):
            assert delta_coefficients(nmax) == tau[:nmax]
        assert delta_coefficients(2000) == pentagonal_tau(2000)

    def test_known_values(self):
        tau = delta_coefficients(6)
        assert tau[0] == 1
        assert tau[1] == -24
        assert tau[4] == 4830
        assert tau == [1, -24, 252, -1472, 4830, -6048]

    def test_multiplicativity_on_coprime_pairs(self):
        nmax = 144
        tau = delta_coefficients(nmax)

        def t(n):
            return tau[n - 1]

        bound = math.isqrt(nmax)
        for m in range(1, bound + 1):
            for n in range(1, bound + 1):
                if math.gcd(m, n) == 1:
                    assert t(m * n) == t(m) * t(n)

    def test_nmax_validated(self):
        with pytest.raises(InputError):
            delta_coefficients(0)


class TestNewformData:
    def test_validation(self):
        with pytest.raises(InputError):
            NewformData(level=0, weight=12, fricke=1, an=(1,))
        with pytest.raises(InputError):
            NewformData(level=1, weight=11, fricke=1, an=(1,))
        with pytest.raises(InputError):
            NewformData(level=1, weight=12, fricke=2, an=(1,))
        with pytest.raises(InputError):
            NewformData(level=1, weight=12, fricke=1, an=(2,))
        with pytest.raises(InputError):
            NewformData(level=1, weight=12, fricke=1, an=())

    def test_dict_roundtrip(self):
        nf = delta_newform(96)
        an = [str(a) for a in nf.an]
        data = {"level": 1, "weight": 12, "fricke": 1, "an": an, "label": "1.12.a.a"}
        assert NewformData.from_dict(data) == nf

    def test_coefficient_bound(self):
        # |a_n| <= n^((k+1)/2), compared exactly: 4^(13/2) = 8192 passes
        an = [1, 0, 0, 8192]
        assert NewformData(level=1, weight=12, fricke=1, an=tuple(an)).an[3] == 8192
        for a4 in (8193, -8193):
            with pytest.raises(InputError, match="a_4 = "):
                NewformData(level=1, weight=12, fricke=1, an=(1, 0, 0, a4, 10**40))

    def test_tau_meets_the_coefficient_bound(self):
        assert len(delta_newform(4096).an) == required_nmax(1, 12, 4096)

    def test_from_dict_requires_a_list_of_coefficients(self):
        with pytest.raises(InputError, match="'an' must be a JSON list"):
            NewformData.from_dict({"level": 1, "weight": 12, "fricke": 1, "an": "12"})

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(InputError):
            NewformData.from_dict({"level": 1})
        with pytest.raises(InputError):
            NewformData.from_dict("nope")

    def test_w_property(self):
        assert delta_newform(64).w == 10


class TestCompletedL:
    def test_required_nmax_grows_with_precision(self):
        a = required_nmax(1, 12, 64)
        b = required_nmax(1, 12, 128)
        c = required_nmax(1, 12, 256)
        assert a < b < c
        assert required_nmax(4, 12, 128) > b  # larger level needs more terms

    def test_required_nmax_terminates_for_large_levels(self):
        # slow geometric ratio (c = 2 pi / sqrt(N) well below 0.1)
        need = required_nmax(10007, 4, 64)
        assert need > 1000

    @staticmethod
    def linear_nmax(N, k, prec):
        """The one-step-at-a-time scan that ``required_nmax`` replaced."""
        c = 2 * math.pi / math.sqrt(N)
        p = (k + 1) / 2
        target = -(prec + GUARD_BITS) * math.log(2)
        m = max(1, math.ceil(2 * (k - 1) / c), math.ceil(1 / c))
        while True:
            m += 1
            q = math.exp(-c + p * math.log1p(1.0 / (m + 1)))
            if q >= 1.0:
                continue
            log_tail = math.log(4) + p * math.log(m + 1) - c * (m + 1) - math.log(1 - q)
            if log_tail <= target:
                return m

    def test_required_nmax_search_agrees_with_the_linear_scan(self):
        for N in [*range(1, 51), *(10**j for j in range(2, 7))]:
            for k in range(4, 25, 2):
                for prec in (64, 128, 1024, 4096):
                    assert required_nmax(N, k, prec) == self.linear_nmax(N, k, prec), (N, k, prec)

    @pytest.mark.parametrize("power", [300, 302, 400, 700, 4000, 4299])
    def test_required_nmax_meets_the_tail_bound_past_the_double_range(self, power):
        # the docstring's log tail bound in 60-digit mpmath: at the target
        # at nmax, up to the rounding of doubles near (p + 1) s log 2 (about
        # 10^-11 at s = 7000), and above it a relative 10^-10 lower; levels
        # past 2^1000 are searched on N / 4^s
        level, k, prec = 10**power, 12, 128
        need = required_nmax(level, k, prec)
        with mp.workdps(60):
            c, p = 2 * mp.pi / mp.sqrt(level), mpmath.mpf(k + 1) / 2
            target = -(prec + GUARD_BITS) * mp.log(2)

            def log_tail(m):
                q1 = -mp.expm1(-c + p * mp.log1p(1 / (m + 1)))  # 1 - q
                return mp.log(4) + p * mp.log(m + 1) - c * (m + 1) - mp.log(q1)

            assert log_tail(mpmath.mpf(need)) <= target + mpmath.mpf("1e-9")
            assert log_tail(need * (1 - mpmath.mpf("1e-10"))) > target

    def test_insufficient_coefficients_flagged(self):
        short = NewformData(level=1, weight=12, fricke=1, an=(1, -24, 252))
        with pytest.raises(PrecisionError) as err:
            completed_l(short, 1, 128)
        assert str(required_nmax(1, 12, 128)) in str(err.value)

    def test_s_range_validated(self):
        nf = delta_newform(64)
        for bad in (0, 12, -1, "3"):
            with pytest.raises(InputError):
                completed_l(nf, bad, 64)

    def test_symmetry_is_exact_for_the_split_series(self):
        nf = delta_newform(128)
        with mp.workprec(192):
            for s in range(1, 12):
                a = completed_l(nf, s, 128)
                b = completed_l(nf, 12 - s, 128)
                assert abs(mpf(a) - mpf(b)) < mpmath.mpf(2) ** -120

    def test_two_precision_agreement(self):
        nf = delta_newform(192)
        with mp.workprec(256):
            for s in (1, 3, 6):
                lo = completed_l(nf, s, 128)
                hi = completed_l(nf, s, 192)
                assert abs(mpf(lo) - mpf(hi)) < mpmath.mpf(2) ** -120

    def test_l_values_positive(self):
        nf = delta_newform(128)
        for s, lam in enumerate(critical_lambdas(nf, 128), start=1):
            assert mpf(l_from_lambda(nf, s, lam, 128)) > 0

    def test_determinism(self):
        nf = delta_newform(128)
        assert completed_l(nf, 5, 128) == completed_l(nf, 5, 128)


def synthetic_newform(level: int, weight: int, fricke: int, seed: int, prec: int = 192) -> NewformData:
    """Seeded integer coefficients with |a_n| <= n^((k-1)/2), as many as
    ``prec``-bit work needs; not a modular form, only data for the series."""
    rng = random.Random(seed)
    nmax = required_nmax(level, weight, prec)
    an = [1] + [
        rng.randint(-math.isqrt(n ** (weight - 1)), math.isqrt(n ** (weight - 1)))
        for n in range(2, nmax + 1)
    ]
    return NewformData(level=level, weight=weight, fricke=fricke, an=tuple(an))


def divisor_bound_newform(level: int, weight: int, fricke: int, seed: int, prec: int) -> NewformData:
    """Seeded signs on |a_n| = floor(d(n) n^((k-1)/2)), the largest size a
    newform's coefficients reach, for ``prec``-bit work."""
    rng = random.Random(seed)
    an = [
        rng.choice((-1, 1)) * sum(n % d == 0 for d in range(1, n + 1)) * math.isqrt(n ** (weight - 1))
        for n in range(1, required_nmax(level, weight, prec) + 1)
    ]
    an[0] = 1
    return NewformData(level=level, weight=weight, fricke=fricke, an=tuple(an))


# Each builds its data for the given number of bits.
FORMS = {
    "delta": delta_newform,
    "N4k8-": lambda prec: synthetic_newform(4, 8, -1, seed=1, prec=prec),
    "N11k4+": lambda prec: synthetic_newform(11, 4, 1, seed=2, prec=prec),
    "N3k10-": lambda prec: synthetic_newform(3, 10, -1, seed=3, prec=prec),
    "N7k10+dn": lambda prec: divisor_bound_newform(7, 10, 1, seed=4, prec=prec),
}


def gammainc_lambdas(f: NewformData, prec: int) -> list:
    """Lambda(f, s), s = 1..k-1, straight from the split series with
    mpmath's upper incomplete gamma function, over every supplied a_n."""
    k = f.weight
    sign = f.fricke * (-1) ** (k // 2)
    out = []
    with mp.workprec(prec + 64):
        c = 2 * mpmath.pi / mpmath.sqrt(f.level)
        for s in range(1, k):
            total = mpmath.mpf(0)
            for n, a in enumerate(f.an, start=1):
                x = c * n
                total += a * (
                    mpmath.gammainc(s, x) / x**s + sign * mpmath.gammainc(k - s, x) / x ** (k - s)
                )
            out.append(total)
    return out


class TestCriticalLambdas:
    @pytest.mark.parametrize(
        "form",
        [
            lambda: delta_newform(192),
            lambda: synthetic_newform(4, 8, -1, seed=1),
            lambda: synthetic_newform(11, 4, 1, seed=2),
            lambda: synthetic_newform(3, 10, -1, seed=3),
        ],
        ids=["delta", "N4k8-", "N11k4+", "N3k10-"],
    )
    def test_matches_incomplete_gamma_oracle(self, form):
        nf = form()
        got = critical_lambdas(nf, 128)
        ref = gammainc_lambdas(nf, 128)
        assert len(got) == nf.weight - 1
        with mp.workprec(192):
            top = max(abs(r) for r in ref)
            for s, (g, r) in enumerate(zip(got, ref), start=1):
                if nf.fricke * (-1) ** (nf.weight // 2) == -1 and 2 * s == nf.weight:
                    # the functional equation forces Lambda(k/2) = 0
                    assert mpf(g) == 0 and abs(r) < mpmath.mpf(2) ** -120 * top
                else:
                    assert abs(g - r) < mpmath.mpf(2) ** -120 * abs(r), s

    @pytest.mark.parametrize("prec", [64, 65, 128, 1024])
    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_within_the_stated_bound(self, name, prec):
        """The integer pass against the mpmath loop with the same
        truncation at 96 more bits (the rounding part of the bound,
        2^-(prec+32) + 2^-(prec+31) |Lambda|), and against the incomplete
        gamma series over a_n for 64 more bits, which adds the tail
        (the whole bound, 2^-(prec+16) max(1, |Lambda|))."""
        nf = FORMS[name](prec + 64)
        got = critical_lambdas(nf, prec)
        loop = mpmath_loop_lambdas(nf, prec, prec + 96)
        series = gammainc_lambdas(nf, prec)
        with mp.workprec(prec + 128):
            for g, r, t in zip(got, loop, series):
                assert abs(g - r) <= mpmath.mpf(2) ** -(prec + 30) * max(1, abs(r))
                assert abs(g - t) <= mpmath.mpf(2) ** -(prec + 16) * max(1, abs(t))

    def test_4096_bits_in_one_fast_pass(self):
        nf = delta_newform(4096)
        start = time.perf_counter()
        lam = critical_lambdas(nf, 4096)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"critical_lambdas at 4096 bits took {elapsed:.2f} s"
        assert all(lam[s - 1] == lam[11 - s] for s in range(1, 12))  # Lambda(s) = Lambda(12-s)
        R = poly_values(_r_from_lambdas(10, lam, 4096))
        assert mpmath.nstr(R[8], 12) == "0.114379022439"
        with mp.workprec(4096 + 32):
            assert mpmath.nstr(R[9] / 4, 12) == "0.00926927616237"


class TestBuildR:
    def test_scale_factors_match_reference(self):
        R = poly_values(build_r(delta_newform(128), 128))
        with mp.workprec(160):
            even_scale = R[8]
            odd_scale = R[9] / 4
            assert abs(even_scale / mpmath.mpf("0.114379") - 1) < mpmath.mpf("1e-5")
            assert abs(odd_scale / mpmath.mpf("0.00926927") - 1) < mpmath.mpf("1e-5")

    def test_exact_rational_structure_of_coefficient_ratios(self):
        R = poly_values(build_r(delta_newform(128), 128))
        with mp.workprec(160):
            assert abs(R[8] / R[4] - mpmath.mpf(1) / 3) < mpmath.mpf("1e-6")
            assert abs(R[9] / R[1] - 1) < mpmath.mpf("1e-6")
            assert abs(R[10] / R[8] - mpmath.mpf(36) / 691) < mpmath.mpf("1e-6")

    def test_numeric_fricke_residual_tiny(self):
        R = poly_values(build_r(delta_newform(128), 128))
        # spec bound: 10^(3 - prec log10 2)
        bound = mpmath.mpf(10) ** (3 - 128 * mpmath.log10(2))
        with mp.workprec(160):  # max_j |a_j + i^w a_(w-j)|, i^10 = -1
            residual = max(abs(R[j] - R[10 - j]) for j in range(11))
        assert residual < bound

    def test_error_bounds_present(self):
        R = build_r(delta_newform(128), 128)
        assert R.errs is not None
        assert all(e > 0 for e in R.errs)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("name", ["delta", "N11k4+", "N7k10+dn"])
    def test_error_bounds_hold(self, name, prec):
        """|value - reference| <= coeff_err, the reference 64 bits higher."""
        R = build_r(FORMS[name](prec), prec)
        ref = build_r(FORMS[name](prec + 64), prec + 64)
        with mp.workprec(prec + 128):
            for v, r, e in zip(poly_values(R), poly_values(ref), poly_values(R, errs=True)):
                assert abs(v - r) <= e

    def test_bit_for_bit_reproducible(self):
        a = build_r(delta_newform(128), 128)
        b = build_r(delta_newform(128), 128)
        assert a == b


class TestNumericRv:
    def test_agrees_with_exact_route(self):
        # cast an exact polynomial to numerics and compare transforms
        R_exact = PolyX.make(10, [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0])
        Z_exact = rv_forward(R_exact)
        prec = 128
        with mp.workprec(prec + 32):
            Rnum = numeric_poly([int(c.re) for c in R_exact.coeffs], prec)
            Znum = poly_values(numeric_rv(Rnum))
            for t in range(11):
                exact = mpmath.mpf(Z_exact.coeffs[t].re.numerator) / mpmath.mpf(
                    Z_exact.coeffs[t].re.denominator
                )
                assert abs(Znum[t] - exact) < mpmath.mpf(2) ** (-prec)

    def test_functional_equation_numeric(self):
        prec = 128
        R = build_r(delta_newform(prec), prec)
        Z = poly_values(numeric_rv(R))
        with mp.workprec(prec + 32):
            # residual coefficients of Z(s) + i^w Z(1-s), computed numerically
            w = R.w
            phase = (-1) ** (w // 2)
            res = [mpmath.mpf(0)] * (w + 1)
            for p in range(w + 1):
                res[p] += Z[p]
            for p in range(w + 1):
                for t in range(p + 1):
                    res[t] += phase * Z[p] * math.comb(p, t) * (-1) ** t
            assert max(abs(r) for r in res) < mpmath.mpf("1e-20")

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("name", ["delta", "N11k4+", "N7k10+dn"])
    def test_error_bounds_hold(self, name, prec):
        """|value - reference| <= coeff_err, the reference 64 bits higher."""
        Z = numeric_rv(build_r(FORMS[name](prec), prec))
        ref = numeric_rv(build_r(FORMS[name](prec + 64), prec + 64))
        with mp.workprec(prec + 128):
            for v, r, e in zip(poly_values(Z), poly_values(ref), poly_values(Z, errs=True)):
                assert abs(v - r) <= e

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("name", ["delta", "N4k8-", "N11k4+"])
    def test_error_bound_covers_the_basis_sum(self, name, prec):
        """coeff_err >= sum_j |b_(t,j)| e_j + the half-ulp, with b from the
        basis expansion Z(s) = sum_j a_j C(w-s-j, w), and the rounding
        alone is within it: with e = 0, Z is within coeff_err of the exact
        transform of R's dyadic coefficients (of both signs for the
        synthetic forms), and coeff_err is under 2^-(prec+30) |Z_t|."""
        R = build_r(FORMS[name](prec), prec)
        Z = numeric_rv(R)
        exact = rv_forward(PolyX.make(R.w, [m * Fraction(2) ** R.exp for m in R.mans]))
        bare = numeric_rv(NumericPoly(w=R.w, exp=R.exp, mans=R.mans, prec=prec))
        w_fact = math.factorial(R.w)
        r_err, z_err = poly_values(R, errs=True), poly_values(Z, errs=True)
        (bare_val, bare_err), z_val = (poly_values(bare, e) for e in (False, True)), poly_values(Z)
        with mp.workprec(prec + 128):
            for t in range(R.w + 1):
                basis = sum(
                    abs(binom_poly_in_s_scaled(R.w, R.w - j, -1)[t]) * r_err[j]
                    for j in range(R.w + 1)
                ) / w_fact
                assert z_err[t] >= basis
                z = exact.coeffs[t].re
                assert abs(bare_val[t] - mpmath.mpf(z.numerator) / z.denominator) <= bare_err[t]
                assert bare_err[t] <= mpmath.mpf(2) ** -(prec + 30) * abs(bare_val[t])
                assert bare_val[t] == z_val[t]

    def test_zero_beside_positive_exponents(self):
        # 4 = 2^2 and 8 = 2^3 over the common exponent 2; the transform's
        # zero coefficients take mantissa 0 in the common form, not a negative shift.
        R = NumericPoly(w=2, exp=2, mans=(1, 0, 2), prec=64)
        Z = numeric_rv(R)
        exact = rv_forward(PolyX.make(2, [4, 0, 8]))
        assert [mpmath.mpf(c.re.numerator) / c.re.denominator for c in exact.coeffs] == list(poly_values(Z))

    def test_error_propagation(self):
        R = build_r(delta_newform(128), 128)
        Z = numeric_rv(R)
        assert Z.errs is not None
        assert all(e >= 0 for e in Z.errs)


class TestNumericPoly:
    def test_length_validated(self):
        with pytest.raises(InputError):
            NumericPoly(w=2, exp=0, mans=(1,), prec=64)

    # Each of these once reached the numeric code: with w = 10, 10 error
    # bounds let a sign count drop the last coefficient's error, 12 raised
    # "negative shift count" there while numeric_rv truncated silently, and
    # a short list raised IndexError on the unit circle.
    @pytest.mark.parametrize("count", [3, 10, 12])
    def test_error_bound_count_validated(self, count):
        with pytest.raises(InputError, match="error bounds"):
            NumericPoly(w=10, exp=0, mans=(1,) * 11, prec=64, errs=(1,) * count)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(InputError, match=">= 0"):
            NumericPoly(w=2, exp=0, mans=(1, 0, 1), prec=64, errs=(0, -1, 0))

    @pytest.mark.parametrize("field", ["mans", "errs"])
    def test_mantissas_must_be_integers(self, field):
        values = {"mans": (1, 0, 1), "errs": (0, 0, 0), field: (1, 0.5, 1)}
        with pytest.raises(InputError, match="integer mantissas"):
            NumericPoly(w=2, exp=0, prec=64, **values)
