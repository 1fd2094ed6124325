import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import horner, linear_pow, polyx_values, qi_values, rand_polyx, rand_qi, scaled
from zetapoly.errors import InputError
from zetapoly.exactnum import ONE, PowerSeries, ZERO, binom_poly_in_s, from_pairs, qi
from zetapoly.polyspace import PolyX
from zetapoly.rv import ZetaPoly, rv_forward, rv_inverse, series_coeffs

R_DELTA_MINUS = PolyX.make(10, [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0])

# the ten nonzero coefficients of the zeta-polynomial of the odd period part
Z_DELTA_MINUS_COEFFS = [
    Fraction(0),
    Fraction(-727, 1260),
    Fraction(403, 360),
    Fraction(-13193, 11340),
    Fraction(70841, 90720),
    Fraction(-2137, 8640),
    Fraction(833, 8640),
    Fraction(-367, 30240),
    Fraction(7, 2160),
    Fraction(-5, 36288),
    Fraction(1, 36288),
]


def monomial(w: int, j: int) -> PolyX:
    return PolyX.make(w, [0] * j + [1])


class TestBinomialInS:
    """The transform of X^j is the basis polynomial C(w - s - j, w)."""

    def test_w2_j0(self):
        b = rv_forward(monomial(2, 0))
        assert [c.re for c in b.coeffs] == [1, Fraction(-3, 2), Fraction(1, 2)]
        assert horner(b.coeffs, 0) == ONE

    def test_w10_j1_at_minus_one(self):
        assert horner(rv_forward(monomial(10, 1)).coeffs, -1) == ONE  # C(10, 10)

    def test_leading_coefficient_is_inverse_factorial(self):
        for w in (2, 4, 10):
            for j in range(w + 1):
                assert rv_forward(monomial(w, j)).coeffs[w] == qi(Fraction(1, math.factorial(w)))

    @given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 8), st.integers(0, 10))
    def test_matches_integer_binomials_at_nonpositive_arguments(self, w, j, n):
        if j > w:
            j = w
        assert horner(rv_forward(monomial(w, j)).coeffs, -n) == qi(math.comb(w + n - j, w))


class TestForward:
    def test_delta_minus_golden(self):
        Z = rv_forward(R_DELTA_MINUS)
        assert [c.re for c in Z.coeffs] == Z_DELTA_MINUS_COEFFS
        assert all(c.im == 0 for c in Z.coeffs)
        assert horner(Z.coeffs, 0).is_zero()

    def test_constant_gives_binomial_series(self):
        Z = rv_forward(PolyX.make(2, [1]))
        assert series_coeffs(Z, 4) == [(Z.den * v, 0) for v in (1, 3, 6, 10)]

    def test_top_monomial(self):
        # R = X^2 at w = 2: the series X^2/(1-X)^3 = X^2 + 3X^3 + ... gives
        # Z(s) = C(-s, 2) with Z(0) = Z(-1) = 0 and Z(-2) = 1
        Z = rv_forward(PolyX.make(2, [0, 0, 1]))
        assert horner(Z.coeffs, 0).is_zero()
        assert horner(Z.coeffs, -1).is_zero()
        assert horner(Z.coeffs, -2) == ONE
        assert horner(Z.coeffs, -3) == qi(3)

    @given(polyx_values)
    @settings(max_examples=40)
    def test_leading_coefficient_is_coefficient_sum_over_factorial(self, R):
        Z = rv_forward(R)
        total = ZERO
        for a in R.coeffs:
            total = total + a
        assert Z.coeffs[R.w] == total * qi(Fraction(1, math.factorial(R.w)))

    @given(polyx_values, polyx_values, qi_values)
    @settings(max_examples=30)
    def test_linearity(self, R1, R2, alpha):
        if R1.w != R2.w:
            R2 = PolyX.make(R1.w, list(R2.coeffs)[: R1.w + 1])
        lhs = rv_forward(scaled(R1, alpha) + R2)
        rhs = ZetaPoly.make(
            R1.w, [alpha * a + b for a, b in zip(rv_forward(R1).coeffs, rv_forward(R2).coeffs)]
        )
        assert lhs == rhs

    def test_generating_series_two_routes(self):
        # series route from the binomial expansion of (1-X)^-(w+1)
        rng = random.Random(41)
        for w in (2, 4, 6):
            R = rand_polyx(rng, w)
            Z = rv_forward(R)
            count = 3 * w + 1
            denom = PowerSeries(tuple(linear_pow(qi(-1), ONE, w + 1)))
            series = PowerSeries(R.coeffs).mul(denom.inverse(count), count)
            assert series.coeffs == from_pairs(Z.den, series_coeffs(Z, count))


def mixed_polyx(seed: int, w: int) -> PolyX:
    """Seeded complex coefficients with denominators up to 97 and about a
    quarter of them zero."""
    rng = random.Random(seed)
    return PolyX.make(w, [ZERO if rng.random() < 0.25 else rand_qi(rng, 99, 97) for _ in range(w + 1)])


class TestForwardOracles:
    """rv_forward against two routes that share none of its steps."""

    @pytest.mark.parametrize("w", [2, 4, 10, 30, 100])
    def test_binomial_basis_sum(self, w):
        # the defining expansion Z(s) = sum_j a_j C(w - s - j, w)
        R = mixed_polyx(w, w)
        re = [Fraction(0)] * (w + 1)
        im = [Fraction(0)] * (w + 1)
        for j, a in enumerate(R.coeffs):
            for t, b in enumerate(binom_poly_in_s(w, w - j, -1)):
                re[t] += a.re * b
                im[t] += a.im * b
        Z = rv_forward(R)
        assert [c.re for c in Z.coeffs] == re
        assert [c.im for c in Z.coeffs] == im

    @pytest.mark.parametrize("w", [2, 4, 10, 30, 100])
    def test_values_at_nonpositive_integers(self, w):
        # Z(-n) = [X^n] R(X)/(1-X)^(w+1) = sum_{j<=n} a_j C(w+n-j, w)
        R = mixed_polyx(w + 1, w)
        Z = rv_forward(R)
        for part in ("re", "im"):
            a = [getattr(c, part) for c in R.coeffs]
            z = [getattr(c, part) for c in Z.coeffs]
            for n in range(w + 4):
                want = sum(a[j] * math.comb(w + n - j, w) for j in range(min(n, w) + 1))
                assert sum(c * (-n) ** t for t, c in enumerate(z)) == want, (part, n)


class TestInverse:
    def test_delta_roundtrip(self):
        assert rv_inverse(rv_forward(R_DELTA_MINUS)) == R_DELTA_MINUS

    def test_constant_z(self):
        Z = ZetaPoly.make(2, [1])
        R = rv_inverse(Z)
        assert rv_forward(R) == Z

    def test_binomial_z_recovers_constant(self):
        Z = ZetaPoly.make(2, [1, Fraction(-3, 2), Fraction(1, 2)])  # C(2-s, 2)
        assert rv_inverse(Z) == PolyX.make(2, [1])

    @given(polyx_values)
    @settings(max_examples=60)
    def test_roundtrip_forward_first(self, R):
        assert rv_inverse(rv_forward(R)) == R

    @given(polyx_values)
    @settings(max_examples=40)
    def test_roundtrip_inverse_first(self, R):
        Z = rv_forward(R)  # any ZetaPoly arises this way
        assert rv_forward(rv_inverse(Z)) == Z

    def test_zero(self):
        assert rv_inverse(ZetaPoly.make(4, [])).is_zero()


class TestSeriesCoeffs:
    def test_count_validated(self):
        with pytest.raises(InputError):
            series_coeffs(ZetaPoly.make(2, [1]), 0)

    @pytest.mark.parametrize("seed", [43, 44, 45])
    @pytest.mark.parametrize("w", [2, 10, 30])
    def test_convolution_reproduces_coefficients(self, w, seed):
        # convolving the series with (1-X)^(w+1) gives R, then zeros: the
        # defining identity, an oracle apart from rv_inverse's algorithm
        rng = random.Random(seed)
        R = rand_polyx(rng, w)
        Z = rv_forward(R)
        vals = from_pairs(Z.den, series_coeffs(Z, 2 * w + 3))
        signed = [(-1) ** j * math.comb(w + 1, j) for j in range(w + 2)]
        for m in range(2 * w + 3):
            acc = ZERO
            for j in range(min(m, w + 1) + 1):
                acc = acc + vals[m - j] * signed[j]
            if m <= w:
                assert acc == R.coeffs[m]
            else:
                assert acc.is_zero()


class TestZetaPolySerialization:
    def test_dict_roundtrip(self):
        Z = rv_forward(R_DELTA_MINUS)
        d = Z.to_dict()
        assert d["variable"] == "s"
        assert ZetaPoly.from_dict(d) == Z

    def test_variable_mismatch(self):
        d = rv_forward(R_DELTA_MINUS).to_dict()
        d["variable"] = "X"
        with pytest.raises(InputError):
            ZetaPoly.from_dict(d)


class TestPolyTypesStayApart:
    def test_sum_and_difference_refuse_mixed_types(self):
        p, z = PolyX.make(2, [1]), ZetaPoly.make(2, [1])
        for a, b in ((p, z), (z, p)):
            with pytest.raises(InputError):
                a + b
            with pytest.raises(TypeError):  # no difference is defined at all
                a - b

    def test_equal_coefficients_in_different_variables_differ(self):
        assert PolyX.make(2, [1]) != ZetaPoly.make(2, [1])
        assert ZetaPoly.make(2, [1]) != PolyX.make(2, [1])
