import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import horner, polyx_values, rand_polyx, rand_qi, symmetric_polyx
from zetapoly.errors import InputError
from zetapoly.exactnum import ZERO, GaussianRational, I, ONE, qi
from zetapoly.polyspace import (
    Mat2,
    PolyX,
    S_MAT,
    U_MAT,
    _integer_nullspace,
    _relation_rows,
    es1_residual,
    es_residuals,
    fricke_residual,
    rescaled_es1_residual,
    rescaled_es2_residual,
    slash,
    wspace_basis,
)

R_DELTA_MINUS = PolyX.make(10, [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0])
R_DELTA_PLUS = PolyX.make(
    10, [Fraction(36, 691), 0, 1, 0, 3, 0, 3, 0, 1, 0, Fraction(36, 691)]
)


def rescale_level_one(r: PolyX) -> PolyX:
    """R(X) = i^(-(w+1)) r(X / i), the classical-to-rescaled change of
    variable at level 1: R_j = r_j i^(-(w+1+j))."""
    return PolyX(r.w, tuple(c * I ** (-(r.w + 1 + j)) for j, c in enumerate(r.coeffs)))


def classical_level_one(R: PolyX) -> PolyX:
    """The inverse of ``rescale_level_one``: r_j = R_j i^(w+1+j)."""
    return PolyX(R.w, tuple(c * I ** (R.w + 1 + j) for j, c in enumerate(R.coeffs)))


class TestPolyX:
    def test_length_enforced(self):
        with pytest.raises(InputError):
            PolyX(2, (ONE, ONE))
        with pytest.raises(InputError):
            PolyX.make(2, [1, 2, 3, 4])

    def test_w_must_be_even_and_at_least_two(self):
        for w in (0, 1, 3, -2):
            with pytest.raises(InputError):
                PolyX.make(w, [])

    def test_degree_tracks_weight_separately(self):
        assert R_DELTA_MINUS.w == 10
        assert R_DELTA_MINUS.degree() == 9
        assert PolyX.make(4, []).degree() == -1
        assert PolyX.make(4, []).is_zero()

    def test_mixed_w_arithmetic_rejected(self):
        with pytest.raises(InputError):
            PolyX.make(2, []) + PolyX.make(4, [])

    def test_dict_roundtrip(self):
        d = R_DELTA_PLUS.to_dict()
        assert d["variable"] == "X"
        assert len(d["coeffs"]) == 11
        assert PolyX.from_dict(d) == R_DELTA_PLUS

    def test_from_dict_validates(self):
        with pytest.raises(InputError):
            PolyX.from_dict({"w": 2, "coeffs": [["1", "0"]]})
        with pytest.raises(InputError):
            PolyX.from_dict({"w": 2, "coeffs": [["1", "0"], ["x", "0"], ["0", "0"]]})
        with pytest.raises(InputError):
            PolyX.from_dict(
                {"w": 2, "variable": "s", "coeffs": [["1", "0"], ["0", "0"], ["0", "0"]]}
            )
        with pytest.raises(InputError):
            PolyX.from_dict([1, 2, 3])


class TestSlash:
    def test_monomial_flip(self):
        p = PolyX.make(2, [0, 0, 1])
        assert slash(p, S_MAT) == PolyX.make(2, [1, 0, 0])

    def test_u_cubed_is_minus_identity(self):
        u3 = U_MAT @ U_MAT @ U_MAT
        assert u3 == Mat2(-1, 0, 0, -1)

    @given(polyx_values)
    @settings(max_examples=60)
    def test_s_acts_as_involution(self, p):
        assert slash(slash(p, S_MAT), S_MAT) == p

    @given(polyx_values)
    @settings(max_examples=60)
    def test_u_acts_with_order_three(self, p):
        assert slash(slash(slash(p, U_MAT), U_MAT), U_MAT) == p

    def test_right_group_action(self):
        rng = random.Random(11)
        for _ in range(25):
            w = rng.choice([2, 4, 6, 8])
            p = rand_polyx(rng, w)
            g = _random_unimodular(rng)
            h = _random_unimodular(rng)
            assert slash(slash(p, g), h) == slash(p, g @ h)

    def test_determinant_normalization(self):
        # diag(2, 1) has det 2: (P|g)(X) = 2^(-w/2) P(2X)
        p = PolyX.make(2, [0, 0, 1])
        g = Mat2(2, 0, 0, 1)
        assert slash(p, g) == PolyX.make(2, [0, 0, 2])

    def test_singular_matrix_rejected(self):
        with pytest.raises(InputError):
            Mat2(1, 2, 2, 4)

    def test_matches_pointwise_definition_over_q_i(self):
        # Fractional complex entries and non-unit determinants exercise the
        # clearing of denominators; each side is evaluated exactly in Q(i).
        rng = random.Random(23)
        for _ in range(40):
            w = rng.choice([2, 4, 6, 10])
            p = rand_polyx(rng, w)
            g = Mat2(*(rand_qi(rng, span=5, max_den=6) for _ in range(4)))
            image = slash(p, g)
            for _ in range(3):
                x = rand_qi(rng)
                den = g.c * x + g.d
                if den.is_zero():
                    continue
                value = horner(p.coeffs, (g.a * x + g.b) / den)
                expected = g.det() ** (-(w // 2)) * den**w * value
                assert horner(image.coeffs, x) == expected


def _random_unimodular(rng: random.Random) -> Mat2:
    m = Mat2(1, 0, 0, 1)
    for _ in range(rng.randint(1, 4)):
        b = rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        m = m @ Mat2(1, b, 0, 1) @ Mat2(1, 0, c, 1)
    return m


class TestFricke:
    def test_delta_minus_palindromic(self):
        assert fricke_residual(R_DELTA_MINUS, 1).is_zero()

    def test_small_palindromic(self):
        assert fricke_residual(PolyX.make(2, [1, 1, 1]), 1).is_zero()

    def test_violating_constant(self):
        res = fricke_residual(PolyX.make(2, [1]), 1)
        assert res == PolyX.make(2, [1, 0, -1])

    def test_eps_validated(self):
        with pytest.raises(InputError):
            fricke_residual(R_DELTA_MINUS, 2)

    def test_substitution_route_agrees(self):
        # independent route: X^w R(1/X) = (-1)^(w/2) (R | (0,1;1,0))
        rng = random.Random(23)
        j_mat = Mat2(0, 1, 1, 0)
        for _ in range(20):
            w = rng.choice([2, 4, 6, 10])
            eps = rng.choice([1, -1])
            R = rand_polyx(rng, w)
            reversal = slash(R, j_mat).scale((-1) ** (w // 2))
            expected = R + reversal.scale(GaussianRational(eps) * I**w)
            assert fricke_residual(R, eps) == expected

    def test_parity_parts_inherit_symmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            w = rng.choice([2, 4, 6, 8, 10])
            eps = rng.choice([1, -1])
            R = symmetric_polyx(rng, w, eps)
            even, odd = (
                PolyX(w, tuple(c if j % 2 == parity else ZERO for j, c in enumerate(R.coeffs)))
                for parity in (0, 1)
            )
            assert fricke_residual(even, eps).is_zero()
            assert fricke_residual(odd, eps).is_zero()


class TestRescaledRelations:
    def test_delta_parts_satisfy_both(self):
        for R in (R_DELTA_MINUS, R_DELTA_PLUS):
            assert rescaled_es1_residual(R).is_zero()
            assert rescaled_es2_residual(R).is_zero()

    def test_constant_fails_two_term(self):
        assert rescaled_es1_residual(PolyX.make(2, [1])) == PolyX.make(2, [1, 0, -1])

    def test_two_term_matches_fricke_plus_one(self):
        # oracle: the defining expression, R plus the slash by [[0, -i], [-i, 0]]
        res1_mat = Mat2(0, -I, -I, 0)
        rng = random.Random(3)
        for _ in range(25):
            R = rand_polyx(rng, rng.choice([2, 4, 6, 10, 30]))
            assert R + slash(R, res1_mat) == fricke_residual(R, 1)
            assert rescaled_es1_residual(R) == fricke_residual(R, 1)

    def test_three_term_by_pointwise_substitution(self):
        # independent oracle: evaluate the defining expression directly
        # at sample points with exact Q(i) division
        rng = random.Random(17)
        samples = [qi(2), qi(Fraction(1, 3)), qi(1, 1), qi(-2, 3)]
        for _ in range(10):
            w = rng.choice([2, 4, 6])
            R = rand_polyx(rng, w)
            res = rescaled_es2_residual(R)
            for x in samples:
                t1 = horner(R.coeffs, x)
                arg2 = (x - I) / (-I * x)
                t2 = (-I * x) ** w * horner(R.coeffs, arg2)
                arg3 = -I / (-I * x - 1)
                t3 = (-I * x - 1) ** w * horner(R.coeffs, arg3)
                assert horner(res.coeffs, x) == t1 + t2 + t3

    def test_x_at_w2_passes_res1_fails_res2(self):
        R = PolyX.make(2, [0, 1])
        assert rescaled_es1_residual(R).is_zero()
        res2 = rescaled_es2_residual(R)
        assert res2 == PolyX.make(2, [I, qi(-1), -I])

    def test_zero_poly_satisfies_everything(self):
        z = PolyX.make(6, [])
        assert rescaled_es1_residual(z).is_zero()
        assert rescaled_es2_residual(z).is_zero()
        assert fricke_residual(z, 1).is_zero()
        assert all(r.is_zero() for r in es_residuals(z))


class TestClassicalRelations:
    def test_es1_residual_is_one_plus_s_slash(self):
        rng = random.Random(43)
        for w in (2, 4, 10, 30, 100):
            r = rand_polyx(rng, w)
            assert es1_residual(r) == r + slash(r, S_MAT)
            assert es_residuals(r)[0] == es1_residual(r)

    def test_coboundary_satisfies_es1(self):
        for w in (2, 4, 6, 8, 10):
            r = PolyX.make(w, [-1] + [0] * (w - 1) + [1])  # X^w - 1
            res_s, _ = es_residuals(r)
            assert res_s.is_zero()

    def test_delta_minus_transported(self):
        r = classical_level_one(R_DELTA_MINUS)
        res_s, res_u = es_residuals(r)
        assert res_s.is_zero()
        assert res_u.is_zero()


class TestChangeOfVariable:
    def test_relation_transport_at_level_one(self):
        # R satisfies the rescaled relations iff r satisfies the classical ones
        rng = random.Random(31)
        basis, _, _ = wspace_basis(10)
        for r in basis:
            R = rescale_level_one(r)
            assert rescaled_es1_residual(R).is_zero()
            assert rescaled_es2_residual(R).is_zero()
        for _ in range(10):
            r = rand_polyx(rng, 4)
            R = rescale_level_one(r)
            es1_zero = es_residuals(r)[0].is_zero()
            res1_zero = rescaled_es1_residual(R).is_zero()
            assert es1_zero == res1_zero
            es2_zero = es_residuals(r)[1].is_zero()
            res2_zero = rescaled_es2_residual(R).is_zero()
            assert es2_zero == res2_zero


class TestWSpace:
    @pytest.mark.parametrize(
        "w,dims",
        [(2, (1, 0)), (4, (1, 0)), (6, (1, 0)), (8, (1, 0)), (10, (2, 1))],
    )
    def test_dimensions(self, w, dims):
        basis, dim_plus, dim_minus = wspace_basis(w)
        assert (dim_plus, dim_minus) == dims
        assert len(basis) == dim_plus + dim_minus

    @pytest.mark.parametrize("w", range(2, 101, 2))
    def test_dimensions_match_cusp_form_count(self, w):
        # Eichler-Shimura-Manin: dim W+ = dim S_(w+2) + 1, dim W- = dim S_(w+2)
        cusp = cusp_form_dimension(w + 2)
        basis, dim_plus, dim_minus = wspace_basis(w)
        assert (dim_plus, dim_minus) == (cusp + 1, cusp)
        assert len(basis) == dim_plus + dim_minus

    @pytest.mark.parametrize("w", [10, 30, 60])
    def test_basis_elements_satisfy_relations(self, w):
        basis, _, _ = wspace_basis(w)
        for b in basis:
            res_s, res_u = es_residuals(b)
            assert res_s.is_zero()
            assert res_u.is_zero()

    def test_deterministic(self):
        assert wspace_basis(8) == wspace_basis(8)

    @pytest.mark.parametrize("w", [10, 30, 60])
    def test_basis_is_primitive_integer(self, w):
        basis, _, _ = wspace_basis(w)
        for b in basis:
            assert all(c.is_integer() for c in b.coeffs)
            assert math.gcd(*(int(c.re) for c in b.coeffs)) == 1
            lead = next(c for c in b.coeffs if not c.is_zero())
            assert lead.re > 0

    def test_odd_w_rejected(self):
        with pytest.raises(InputError):
            wspace_basis(5)


def cusp_form_dimension(k: int) -> int:
    """dim S_k for SL_2(Z) and even k >= 4."""
    return k // 12 - 1 if k % 12 == 2 else k // 12


class TestRelationRows:
    @pytest.mark.parametrize("w", [2, 10, 30])
    def test_columns_are_slashed_monomials(self, w):
        rows = _relation_rows(w)
        assert len(rows) == 2 * (w + 1)
        for j in range(w + 1):
            monomial = PolyX.make(w, [0] * j + [1])
            res_s = monomial + slash(monomial, S_MAT)
            res_u = es_residuals(monomial)[1]
            column = [GaussianRational(row[j]) for row in rows]
            assert column == list(res_s.coeffs) + list(res_u.coeffs)


def fraction_nullspace(rows, cols):
    """Reference nullspace: Fraction RREF with the lowest-column pivot rule,
    one primitive vector with positive leading entry per free column."""
    m = [[Fraction(row[c]) for c in cols] for row in rows]
    pivots = []
    for col in range(len(cols)):
        rank = len(pivots)
        sel = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for r in range(len(m)):
            f = m[r][col]
            if r != rank:
                m[r] = [v - f * p for v, p in zip(m[r], m[rank])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(len(cols)) if c not in pivots):
        vec = [Fraction(0)] * len(cols)
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        ints = [v * math.lcm(*(x.denominator for x in vec)) for v in vec]
        g = math.gcd(*(int(v) for v in ints))
        sign = 1 if next(v for v in ints if v) > 0 else -1
        basis.append([int(sign * v / g) for v in ints])
    return basis


class TestIntegerNullspace:
    def test_matches_fraction_rref_on_random_rank_deficient_matrices(self):
        rng = random.Random(41)
        for _ in range(150):
            ncols = rng.randint(1, 9)
            rank = rng.randint(0, ncols)
            left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rng.randint(1, 8))]
            right = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(rank)]
            rows = [
                [sum(lr[i] * right[i][c] for i in range(rank)) for c in range(ncols)]
                for lr in left
            ]
            rows = [[0] * ncols if rng.random() < 0.2 else row for row in rows]
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
            rng.shuffle(rows)
            subsets = [list(range(ncols)), sorted(rng.sample(range(ncols), rng.randint(1, ncols)))]
            for cols in subsets:
                assert _integer_nullspace(rows, cols) == fraction_nullspace(rows, cols)

    def test_relation_rows_agree_with_fraction_rref(self):
        rows = _relation_rows(20)
        for cols in (list(range(21)), list(range(0, 21, 2)), list(range(1, 21, 2))):
            assert _integer_nullspace(rows, cols) == fraction_nullspace(rows, cols)
