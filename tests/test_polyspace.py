import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    horner,
    mat_mul,
    polyx_values,
    rand_polyx,
    rand_qi,
    scaled,
    slash_oracle,
    small_fractions,
    symmetric_polyx,
    violating_polyx,
)
from zetapoly import polyspace
from zetapoly.errors import InputError
from zetapoly.exactnum import ZERO, GaussianRational, I, qi
from zetapoly.polyspace import (
    U2_MAT,
    U_MAT,
    PolyX,
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
from zetapoly.rv import ZetaPoly, rv_forward, rv_inverse
from zetapoly.zeta import functional_eq_residual

R_DELTA_MINUS = PolyX.make(10, [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0])
R_DELTA_PLUS = PolyX.make(
    10, [Fraction(36, 691), 0, 1, 0, 3, 0, 3, 0, 1, 0, Fraction(36, 691)]
)


def rescale_level_one(r: PolyX) -> PolyX:
    """R(X) = i^(-(w+1)) r(X / i), the classical-to-rescaled change of
    variable at level 1: R_j = r_j i^(-(w+1+j))."""
    return PolyX.make(r.w, [c * I ** (-(r.w + 1 + j)) for j, c in enumerate(r.coeffs)])


def classical_level_one(R: PolyX) -> PolyX:
    """The inverse of ``rescale_level_one``: r_j = R_j i^(w+1+j)."""
    return PolyX.make(R.w, [c * I ** (R.w + 1 + j) for j, c in enumerate(R.coeffs)])


class TestPolyX:
    def test_length_enforced(self):
        with pytest.raises(InputError):
            PolyX(2, 1, ((1, 0), (1, 0)))
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

    @given(polyx_values, st.integers(min_value=1, max_value=10**30))
    def test_canonical_form(self, P, k):
        assert math.gcd(P.den, *(x for p in P.pairs for x in p)) == 1
        assert P.coeffs == tuple(qi(Fraction(x, P.den), Fraction(y, P.den)) for x, y in P.pairs)
        Q = PolyX(P.w, k * P.den, tuple((k * x, k * y) for x, y in P.pairs))
        assert (Q.den, Q.pairs) == (P.den, P.pairs)
        assert Q == P and hash(Q) == hash(P)
        assert PolyX.from_dict(P.to_dict()) == P

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


S_MAT = (0, -1, 1, 0)
# the matrices the relations slash by: S, U, U^2 and the functional
# equation's [[-1, 1], [0, 1]]
RELATION_MATS = (S_MAT, U_MAT, U2_MAT, (-1, 1, 0, 1))
# The rescaled three-term matrices [[1, -i], [-i, 0]] and [[0, -i], [-i, -1]],
# U and U^2 conjugated by diag(i, 1): for the Q(i) slash oracle only.
_RES2_MAT_B = (1, -I, -I, 0)
_RES2_MAT_C = (0, -I, -I, -1)
# generators of the random words: [[1,1],[0,1]], S, [[1,0],[1,1]] and the
# det -1 matrix [[0,1],[1,0]]
WORD_GENS = ((1, 1, 0, 1), S_MAT, (1, 0, 1, 1), (0, 1, 1, 0))


def _int_mat_mul(g, h) -> tuple:
    """The product of two integer matrices, with int entries."""
    return tuple(int(x.re) for x in mat_mul(g, h))


def _random_word(rng: random.Random) -> tuple:
    g = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        g = _int_mat_mul(g, rng.choice(WORD_GENS))
    return g


def _in_domain(g) -> bool:
    """c is 0 or +-1; every word has integer entries and det +-1."""
    return g[2] in (0, 1, -1)


class TestSlash:
    def test_monomial_flip(self):
        p = PolyX.make(2, [0, 0, 1])
        assert slash(p, S_MAT) == PolyX.make(2, [1, 0, 0])

    def test_u_cubed_is_minus_identity(self):
        assert mat_mul(U_MAT, U_MAT) == U2_MAT
        assert mat_mul(U2_MAT, U_MAT) == (-1, 0, 0, -1)

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
        checked = 0
        while checked < 40:
            g, h = _random_word(rng), _random_word(rng)
            if not all(_in_domain(m) for m in (g, h, _int_mat_mul(g, h))):
                continue
            p = rand_polyx(rng, rng.choice([2, 4, 6, 8]))
            assert slash(slash(p, g), h) == slash(p, _int_mat_mul(g, h))
            checked += 1

    @pytest.mark.parametrize(
        "g",
        [(Fraction(1, 2), 0, 0, 2), (2, 0, 0, 1), (1, 2, 2, 4), (1, 0, 2, 1),
         (1, I, 0, 1), ((0, 1), 0, 0, 1), (1, (0, -1), (0, -1), 0)],
        ids=["non-integer-entry", "non-unit-det", "singular", "c-not-a-unit",
             "gaussian-entry", "gaussian-pair-entry", "rescaled-three-term-matrix"],
    )
    def test_outside_the_domain_rejected(self, g):
        with pytest.raises(InputError):
            slash(PolyX.make(2, [1, 2, 3]), g)

    def test_matches_pointwise_definition_over_q_i(self):
        # Each side evaluated exactly in Q(i): slash on random words, the
        # oracle on fractional entries and non-unit determinants as well.
        rng = random.Random(23)
        cases = 0
        while cases < 40:
            w = rng.choice([2, 4, 6, 10])
            p = rand_polyx(rng, w)
            g = _random_word(rng)
            h = tuple(rand_qi(rng, span=5, max_den=6) for _ in range(4))
            if not _in_domain(g) or (h[0] * h[3] - h[1] * h[2]).is_zero():
                continue
            for mat, image in ((g, slash(p, g)), (h, slash_oracle(p, h))):
                a, b, c, d = (GaussianRational.coerce(x) for x in mat)
                for _ in range(3):
                    x = rand_qi(rng)
                    den = c * x + d
                    if den.is_zero():
                        continue
                    value = horner(p.coeffs, (a * x + b) / den)
                    expected = (a * d - b * c) ** (-(w // 2)) * den**w * value
                    assert horner(image.coeffs, x) == expected
            cases += 1

    def test_oracle_determinant_normalization(self):
        # diag(2, 1) has det 2: (P|g)(X) = 2^(-w/2) P(2X)
        p = PolyX.make(2, [0, 0, 1])
        assert slash_oracle(p, (2, 0, 0, 1)) == PolyX.make(2, [0, 0, 2])

    def test_matches_the_oracle_bit_for_bit(self):
        # Dense inputs: the relation matrices and random words up to w = 30
        # (a word outside the domain is rejected), S at w = 100; the other
        # relation matrices meet the oracle at w = 100 in TestResidualOracle.
        rng = random.Random(29)
        words = [_random_word(rng) for _ in range(40)]
        cases = [(w, g) for w in (2, 4, 6, 10) for g in RELATION_MATS + tuple(words)]
        cases += [(30, g) for g in RELATION_MATS + tuple(words[:8])] + [(100, S_MAT)]
        for w, g in cases:
            p = rand_polyx(rng, w)
            if not _in_domain(g):
                with pytest.raises(InputError):
                    slash(p, g)
                continue
            got, want = slash(p, g).coeffs, slash_oracle(p, g).coeffs
            assert [(c.re, c.im) for c in got] == [(c.re, c.im) for c in want]


class TestResidualOracle:
    """The residuals built on slash against the same residuals built on
    slash_oracle, for inputs that satisfy the relations (W_w, the golden
    parts, symmetric R) and perturbed ones that fail them; at w = 100,
    where each oracle slash takes about half a second, the perturbed ones."""

    @pytest.mark.parametrize("w", [2, 4, 10, 30, 100])
    def test_residuals_match_the_oracle(self, w):
        rng = random.Random(w)
        good = PolyX.make(w, [])
        for b in wspace_basis(w)[0] if w < 100 else ():
            good = good + scaled(b, rng.randint(-3, 3))
        bump = [0] * rng.randrange(w // 2) + [rand_qi(rng)]
        cases = [(good + PolyX.make(w, bump), False)] + ([(good, True)] if w < 100 else [])
        if w == 10:
            cases += [(classical_level_one(R), True) for R in (R_DELTA_MINUS, R_DELTA_PLUS)]
        for r, holds in cases:
            res = es_residuals(r)[1]
            assert res == r + slash_oracle(r, U_MAT) + slash_oracle(r, U2_MAT)
            R = rescale_level_one(r)
            res2 = rescaled_es2_residual(R)
            assert res2 == R + slash_oracle(R, _RES2_MAT_B) + slash_oracle(R, _RES2_MAT_C)
            assert res2.is_zero() == res.is_zero()
            assert all(x.is_zero() for x in es_residuals(r)) == holds
        for eps in (1, -1) if w < 100 else (1,):
            pairs = [(violating_polyx(rng, w, eps), False)]
            pairs += [(symmetric_polyx(rng, w, eps), True)] if w < 100 else []
            for R, holds in pairs:
                Z = rv_forward(R)
                flipped = slash_oracle(PolyX.make(w, Z.coeffs), (-1, 1, 0, 1))
                res = functional_eq_residual(Z, eps)
                assert res == Z + scaled(ZetaPoly.make(w, flipped.coeffs), eps)
                assert res.is_zero() == holds


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
        j_mat = (0, 1, 1, 0)
        for _ in range(20):
            w = rng.choice([2, 4, 6, 10])
            eps = rng.choice([1, -1])
            R = rand_polyx(rng, w)
            reversal = scaled(slash(R, j_mat), (-1) ** (w // 2))
            expected = R + scaled(reversal, GaussianRational(eps) * I**w)
            assert fricke_residual(R, eps) == expected

    def test_parity_parts_inherit_symmetry(self):
        rng = random.Random(5)
        for _ in range(20):
            w = rng.choice([2, 4, 6, 8, 10])
            eps = rng.choice([1, -1])
            R = symmetric_polyx(rng, w, eps)
            even, odd = (
                PolyX.make(w, [c if j % 2 == parity else ZERO for j, c in enumerate(R.coeffs)])
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
        res1_mat = (0, -I, -I, 0)
        rng = random.Random(3)
        for _ in range(25):
            R = rand_polyx(rng, rng.choice([2, 4, 6, 10, 30]))
            assert R + slash_oracle(R, res1_mat) == fricke_residual(R, 1)
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
            assert all(c.re.denominator == 1 and not c.im for c in b.coeffs)
            assert math.gcd(*(int(c.re) for c in b.coeffs)) == 1
            lead = next(c for c in b.coeffs if not c.is_zero())
            assert lead.re > 0

    def test_odd_w_rejected(self):
        with pytest.raises(InputError):
            wspace_basis(5)

    @pytest.mark.parametrize("w", [*range(2, 61, 2), 100])
    def test_parity_bases_merge_to_the_full_elimination(self, w):
        # the oracle is the elimination of the stacked system on all w + 1 columns at once
        full = _integer_nullspace(stacked_relation_rows(w), list(range(w + 1)))
        with mock.patch.object(polyspace, "_integer_nullspace", wraps=_integer_nullspace) as solve:
            basis, _, _ = wspace_basis(w)
        assert solve.call_count == 2
        assert [[int(c.re) for c in b.coeffs] for b in basis] == full
        assert all(not c.im for b in basis for c in b.coeffs)


class TestTurnedBasis:
    """X -> iX (R_j = i^j b_j) carries W_w, as wspace prints it, into the
    rescaled normalization that thm2 reads: rational combinations of one
    parity part keep both rescaled relations, the transform round trip
    and the functional equation exactly."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rational_combinations_of_one_parity(self, data):
        w = data.draw(st.sampled_from(range(2, 31, 2)), label="w")
        parts = ([], [])
        for b in wspace_basis(w)[0]:
            parts[next(j for j, c in enumerate(b.coeffs) if not c.is_zero()) % 2].append(b)
        part = parts[data.draw(st.sampled_from([p for p in (0, 1) if parts[p]]), label="parity")]
        cs = data.draw(st.lists(small_fractions, min_size=len(part), max_size=len(part)), label="c")
        R = PolyX.make(w, [
            sum((GaussianRational(c) * b.coeffs[j] for c, b in zip(cs, part)), ZERO) * I**j
            for j in range(w + 1)
        ])
        assert rescaled_es1_residual(R).is_zero()
        assert rescaled_es2_residual(R).is_zero()
        Z = rv_forward(R)
        assert rv_inverse(Z) == R
        assert functional_eq_residual(Z, 1).is_zero()


def cusp_form_dimension(k: int) -> int:
    """dim S_k for SL_2(Z) and even k >= 4."""
    return k // 12 - 1 if k % 12 == 2 else k // 12


def stacked_relation_rows(w: int) -> list[list[int]]:
    """Rows of the stacked (1+S, 1+U+U^2) system on all w + 1 unknowns,
    column j the image of the monomial X^j: the system that
    ``_relation_rows`` folds, kept here as its oracle."""
    rows_s = [[(t == j) + (-1) ** j * (t == w - j) for j in range(w + 1)] for t in range(w + 1)]
    rows_u = [
        [
            (t == j)
            + (-1) ** t * ((math.comb(j, t + j - w) if t + j >= w else 0) + math.comb(w - j, t))
            for j in range(w + 1)
        ]
        for t in range(w + 1)
    ]
    return rows_s + rows_u


def folded_u_rows(w: int) -> list[list[int]]:
    """All w + 1 rows of the stacked U block on the S-folded columns
    j = h..w: U_j - (-1)^j U_(w-j) for j > h, and U_h."""
    h = w // 2
    return [
        [row[j] - (j > h) * (-1) ** j * row[w - j] for j in range(h, w + 1)]
        for row in stacked_relation_rows(w)[w + 1:]
    ]


def parity_columns(w: int, p: int) -> list[int]:
    """Folded columns j - h of the unknowns a_j, j >= h, of parity p;
    a_h is one only for odd h (S forces a_h = 0 for even h)."""
    h = w // 2
    return [j - h for j in range(h, w + 1) if j % 2 == p and (j > h or h % 2)]


class TestRelationRows:
    @pytest.mark.parametrize("w", [2, 4, 10, 20, 30])
    def test_columns_are_slashed_monomials(self, w):
        h = w // 2
        rows = _relation_rows(w)
        assert len(rows) == h + 1
        for j in range(h, w + 1):
            coeffs = [0] * (w + 1)
            coeffs[j] = 1
            if j > h:
                coeffs[w - j] = -((-1) ** j)
            res_u = es_residuals(PolyX.make(w, coeffs))[1]
            column = [GaussianRational(row[j - h]) for row in rows]
            assert column == list(res_u.coeffs[: h + 1])

    @pytest.mark.parametrize("w", [2, 10, 30])
    def test_stacked_oracle_columns_are_slashed_monomials(self, w):
        rows = stacked_relation_rows(w)
        assert len(rows) == 2 * (w + 1)
        for j in range(w + 1):
            monomial = PolyX.make(w, [0] * j + [1])
            res_s = monomial + slash(monomial, S_MAT)
            res_u = es_residuals(monomial)[1]
            column = [GaussianRational(row[j]) for row in rows]
            assert column == list(res_s.coeffs) + list(res_u.coeffs)

    @pytest.mark.parametrize("w", range(2, 121, 2))
    def test_rows_past_h_repeat_rows_below_up_to_one_sign(self, w):
        # eps = [[0, 1], [1, 0]] commutes with 1+U+U^2, so on the unknowns
        # of one parity row w - t of the folded U block is +-row t
        h = w // 2
        rows = folded_u_rows(w)
        assert _relation_rows(w) == rows[: h + 1]
        for p in (0, 1):
            cols = parity_columns(w, p)
            top = [[rows[t][c] for c in cols] for t in range(w + 1)]
            bottom = top[::-1]
            assert bottom in (top, [[-x for x in row] for row in top])

    def test_u_residual_of_one_parity_is_symmetric_or_antisymmetric(self):
        rng = random.Random(43)
        for w in range(2, 41, 2):
            h = w // 2
            for p in (0, 1):
                for _ in range(3):
                    coeffs = [ZERO] * (w + 1)
                    for c in parity_columns(w, p):
                        coeffs[h + c] = rand_qi(rng)
                        coeffs[h - c] = -((-1) ** p) * coeffs[h + c]
                    res_s, res_u = es_residuals(PolyX.make(w, coeffs))
                    assert res_s.is_zero()
                    q = list(res_u.coeffs)
                    assert q[::-1] in (q, [-x for x in q])


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
        for rows in (stacked_relation_rows(20), _relation_rows(20), _relation_rows(22)):
            n = len(rows[0])
            for cols in (list(range(n)), list(range(0, n, 2)), list(range(1, n, 2))):
                assert _integer_nullspace(rows, cols) == fraction_nullspace(rows, cols)
