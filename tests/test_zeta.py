import math
import random
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from conftest import (
    exact_identity_value,
    horner,
    horner_fixed_oracle,
    linear_pow,
    modulus_27_poly,
    mpc,
    naive_mul,
    numeric_poly,
    poly_values,
    poly_with_roots,
    rand_polyx,
    rand_qi,
    scaled,
    symmetric_polyx,
    violating_polyx,
)
from zetapoly.delta import golden_r_plus
from zetapoly.dyadic import Dyadic, aligned
from zetapoly.errors import InputError, PrecisionError
from zetapoly.exactnum import GaussianRational, I, ONE, ZERO, common_denominator, qi
from zetapoly.lvalues import NumericPoly, build_r, delta_newform, numeric_rv
from zetapoly.polyspace import PolyX
from zetapoly.rv import ZetaPoly, rv_forward
from zetapoly.signcount import sign_count_check
from zetapoly import rootfind, signcount, zeta
from zetapoly.zeta import (
    K_MAX_DEFAULT,
    K_MIN,
    RHO,
    as_tolerance,
    functional_eq_residual,
    hilbert_hypotheses,
    laurent_coeffs,
    rh_check,
    roots,
    thm2_residual,
)

R_DELTA_MINUS = PolyX.make(10, [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0])
R_DELTA_PLUS = PolyX.make(
    10, [Fraction(36, 691), 0, 1, 0, 3, 0, 3, 0, 1, 0, Fraction(36, 691)]
)


# -- independent oracles -------------------------------------------------


def literal_term(Z: ZetaPoly, n: int, k: int) -> GaussianRational:
    """The per-k term of the displayed triple sum, with no pruning: each
    Z(m+j-K) is evaluated once and the j-sum is formed for every m."""
    w = Z.w
    K = k + n
    zv = [horner(Z.coeffs, -t) for t in range(K + 1)]  # zv[t] = Z(-t)
    inv_one_minus_i = qi(1, -1).inverse()
    power = inv_one_minus_i ** (w + 1)  # (1-i)^(-(m+w+1))
    total = ZERO
    for m in range(K + 1):
        jsum = ZERO
        for j in range(K - m + 1):
            jsum = jsum + zv[K - m - j] * (math.comb(w + 1, j) * (-1) ** (j + 1))
        total = total + jsum * power * (math.comb(K, n) * math.comb(m + w, w))
        power = power * inv_one_minus_i
    return total * (-I) ** k


def fraction_stop_rule(terms, tol, k_max: int) -> tuple[int, bool]:
    """(k_stop, converged) of the documented stop rule, recomputed from the
    terms with Fraction norms."""
    theta = Fraction(*as_tolerance(tol)) * (1 - Fraction(*RHO)) / Fraction(*RHO)
    norms = [t.norm2() for t in terms]
    for k in range(K_MIN, len(norms)):
        if all(v < theta * theta for v in norms[k - 2 : k + 1]):
            return k, True
    return k_max, False


def tail_bound(terms) -> mpmath.mpf:
    """The geometric tail bound RHO/(1-RHO) max |t| over the last three
    terms, formed at 64 bits from the exact norms."""
    worst = max(t.norm2() for t in terms[-3:])
    with mp.workprec(64):
        return mpmath.sqrt(
            mpmath.mpf(worst.numerator) / mpmath.mpf(worst.denominator)
        ) * mpmath.mpf(RHO[0]) / mpmath.mpf(RHO[1] - RHO[0])


def mixed_den_polyx(rng: random.Random, w: int) -> PolyX:
    """Random R whose coefficient denominators mix odd primes and powers of 2."""
    dens = (1, 2, 3, 5, 7, 8, 12, 16, 40, 63)

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    return PolyX.make(w, [qi(value(), value()) for _ in range(w + 1)])


# -- root-finding oracles ------------------------------------------------


def assert_certified(P, got, prec: int) -> None:
    """Every root in ``got`` has |P(z)| below 2^(-prec/2) times the sup
    norm (at least 1) of the monic P, evaluated at prec + 32 bits."""
    with mp.workprec(prec + 32):
        cs = [mpmath.mpc(
            mpmath.mpf(c.re.numerator) / c.re.denominator,
            mpmath.mpf(c.im.numerator) / c.im.denominator,
        ) for c in P.coeffs[: P.degree() + 1]]
        lead = cs[-1]
        monic = [c / lead for c in cs]
        norm = max(max(abs(c) for c in monic), mpmath.mpf(1))
        for z in map(mpc, got):
            val = mpmath.mpf(0)
            for c in reversed(monic):
                val = val * z + c
            assert abs(val) < mpmath.mpf(2) ** (-(prec // 2)) * norm


def assert_near_polyroots(coeffs, got, prec: int) -> None:
    """Each root of mpmath.polyroots at 2 prec + 64 bits (an independent
    method) has its own computed root within 2^(-prec/2) max(|root|, 1)."""
    with mp.workprec(2 * prec + 64):
        cs = [
            mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                       mpmath.mpf(c.im.numerator) / c.im.denominator)
            if isinstance(c, GaussianRational) else mpmath.mpc(c)
            for c in coeffs
        ]
        while cs[-1] == 0:
            cs.pop()
        expected = mpmath.polyroots(cs[::-1], maxsteps=400, extraprec=2 * prec)
        assert len(got) == len(expected)
        remaining = [mpc(z) for z in got]
        for e in expected:
            nearest = min(remaining, key=lambda z: abs(z - e))
            remaining.remove(nearest)
            assert abs(nearest - e) < mpmath.mpf(2) ** -(prec // 2) * max(abs(e), 1)


def spy_aberth_rungs(monkeypatch) -> list:
    """The list to which each Aberth rung of ``rootfind`` appends its kind,
    "doubles" or "fixed", and its bits when it runs (53 for doubles)."""
    kinds = []
    doubles, fixed = rootfind._aberth, rootfind._aberth_fixed
    monkeypatch.setattr(rootfind, "_aberth", lambda c: kinds.append(("doubles", 53)) or doubles(c))
    monkeypatch.setattr(rootfind, "_aberth_fixed", lambda g, bits: kinds.append(("fixed", bits)) or fixed(g, bits))
    return kinds


def exact_norm2(coeffs, z: GaussianRational) -> Fraction:
    """|P(z)|^2 in exact arithmetic."""
    value = ZERO
    for c in reversed(coeffs):
        value = value * z + c
    return value.norm2()


def as_fraction(z) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of the dyadic z = (a + b i) 2^E."""
    a, b, E = z
    return Fraction(a) * Fraction(2) ** E, Fraction(b) * Fraction(2) ** E


def max_root_error(got, expected, relative: bool = False):
    """Largest distance from each expected root to its nearest unmatched
    computed root, divided by the root's modulus when ``relative``."""
    assert len(got) == len(expected)
    remaining = [mpc(z) for z in got]
    worst = 0
    for e in expected:
        nearest = min(remaining, key=lambda z: abs(z - e))
        remaining.remove(nearest)
        err = abs(nearest - e)
        worst = max(worst, err / abs(e) if relative else err)
    return worst


# -- functional equation -------------------------------------------------


class TestFunctionalEquation:
    def test_delta_minus(self):
        Z = rv_forward(R_DELTA_MINUS)
        assert functional_eq_residual(Z, 1).is_zero()

    def test_small_palindromic(self):
        Z = rv_forward(PolyX.make(2, [1, 1, 1]))
        assert functional_eq_residual(Z, 1).is_zero()

    def test_plain_s(self):
        res = functional_eq_residual(ZetaPoly.make(2, [0, 1]), 1)
        assert res == ZetaPoly.make(2, [-1, 2])  # 2s - 1

    def test_eps_validated(self):
        with pytest.raises(InputError):
            functional_eq_residual(ZetaPoly.make(2, [1]), 0)

    def test_residual_pointwise(self):
        Z2 = ZetaPoly.make(2, [qi(0, 1), qi(2), qi(Fraction(1, 2))])
        Z10 = rv_forward(rand_polyx(random.Random(58), 10))
        for Z in (Z2, Z10):
            for eps in (1, -1):
                res = functional_eq_residual(Z, eps)
                for s0 in (-3, -1, 0, 2, 5):
                    mirror = eps * I**Z.w * horner(Z.coeffs, 1 - s0)
                    assert horner(res.coeffs, s0) == horner(Z.coeffs, s0) + mirror

    def test_random_symmetric_and_violating(self):
        rng = random.Random(57)
        for w in (2, 4, 8, 12, 16):
            for eps in (1, -1):
                for _ in range(25):
                    good = symmetric_polyx(rng, w, eps)
                    assert functional_eq_residual(rv_forward(good), eps).is_zero()
                    bad = violating_polyx(rng, w, eps)
                    assert not functional_eq_residual(rv_forward(bad), eps).is_zero()


# -- Laurent coefficients -------------------------------------------------

# (w, n, M) with M from the pole order up to well past the principal part
LAURENT_GRID = [
    (w, n, M)
    for w in (2, 4, 10, 20, 30)
    for n in (1, 2, 5)
    for M in (-(n + 1), -1, 0, 7, 40)
]


class TestLaurent:
    def test_pole_coefficient_closed_form(self):
        # a_(-(n+1)) = i^n / i^(n+w+2) = -i^(-w) for every even w and n >= 1
        for w in range(2, 31, 2):
            for n in range(1, 6):
                lc = laurent_coeffs(w, n, 0)
                assert lc.coeff(-(n + 1)) == -(I ** (-w))
                if w % 4 == 0:
                    assert lc.coeff(-(n + 1)) == qi(-1)

    def test_w10_n1_hand_values(self):
        # from the logarithmic derivative of the kernel at 0:
        # G'(0)/G(0) = -11 - i + 11(1+i) = 10i, so a_-1 = G(0) * 10i = 10i
        lc = laurent_coeffs(10, 1, 0)
        assert lc.coeff(-2) == ONE
        assert lc.coeff(-1) == qi(0, 10)

    def test_principal_part_only(self):
        lc = laurent_coeffs(10, 1, -1)
        assert lc.M == -1
        assert len(lc.pairs) == 2
        with pytest.raises(InputError):
            lc.coeff(0)

    def test_defining_product_reconstruction(self):
        # multiplying back by the denominator must reproduce the numerator;
        # a_m for m <= M fix the orders 0 .. M+n+1 of the product, so this
        # pins every coefficient of the closed form
        for w, n, M in LAURENT_GRID:
            lc = laurent_coeffs(w, n, M)
            # x^(-(n+1)) times the denominator i^(n+1) x^(n+1) (i + (1-i)x)^(w+1)
            denom = [(I ** (n + 1)) * c for c in linear_pow(qi(1, -1), I, w + 1)]
            numer = naive_mul(linear_pow(qi(-1), ONE, w + 1), linear_pow(ONE, I, n))
            prod = {}
            for midx in range(-(n + 1), M + 1):
                a = lc.coeff(midx)
                if a.is_zero():
                    continue
                for e, d in enumerate(denom):
                    key = midx + n + 1 + e
                    prod[key] = prod.get(key, ZERO) + a * d
            for exp in range(M + n + 2):
                want = numer[exp] if exp < len(numer) else ZERO
                assert prod.get(exp, ZERO) == want, (w, n, M, exp)

    def test_coefficients_are_gaussian_integers(self):
        for w, n, M in LAURENT_GRID:
            lc = laurent_coeffs(w, n, M)
            assert len(lc.pairs) == M + n + 2
            assert all(type(x) is int for pair in lc.pairs for x in pair)

    def test_validation(self):
        with pytest.raises(InputError):
            laurent_coeffs(3, 1, 5)
        with pytest.raises(InputError):
            laurent_coeffs(4, 0, 5)
        with pytest.raises(InputError):
            laurent_coeffs(4, 1, -3)


# -- the convergent identity ----------------------------------------------


class TestThm2:
    def test_terms_match_literal_triple_sum(self):
        rng = random.Random(61)
        for w, n in [(2, 1), (2, 2), (4, 1), (6, 1), (10, 2)]:
            Z = rv_forward(rand_polyx(rng, w))
            rep = thm2_residual(Z, n, tol="1e-30", k_max=20)
            # K = k + n crosses w, where the inner sum stops growing
            for k in sorted({0, 5, 10, 15, 20, max(w - n - 1, 0), w - n, w - n + 1}):
                assert rep.partial_sums[k] == literal_term(Z, n, k)

    def test_integer_kernel_matches_literal_terms_and_stop_rule(self):
        # each tol is loose enough that the sum stops near k = 40-60
        rng = random.Random(89)
        for w, n, tol in [(2, 1, "6e-3"), (4, 2, "25"), (10, 1, "7e4"), (20, 3, "1e12")]:
            Z = rv_forward(mixed_den_polyx(rng, w))
            rep = thm2_residual(Z, n, tol=tol)
            assert rep.converged and K_MIN <= rep.k_stop <= 60
            assert list(rep.partial_sums) == [literal_term(Z, n, k) for k in range(rep.k_stop + 1)]
            assert (rep.k_stop, rep.converged) == fraction_stop_rule(
                rep.partial_sums, tol, K_MAX_DEFAULT
            )
            assert rep.total == rep.exact_part + sum(rep.partial_sums, ZERO)

    def test_integer_kernel_below_k_min(self):
        # every term is below the stop threshold, but k_max < K_MIN leaves
        # the sum unconverged
        Z = rv_forward(mixed_den_polyx(random.Random(97), 4))
        rep = thm2_residual(Z, 2, tol="1e9", k_max=30)
        assert (rep.k_stop, rep.converged) == (30, False) == fraction_stop_rule(
            rep.partial_sums, "1e9", 30
        )
        theta = Fraction(*rep.tol) * (1 - Fraction(*RHO)) / Fraction(*RHO)
        assert all(t.norm2() < theta * theta for t in rep.partial_sums)
        assert list(rep.partial_sums) == [literal_term(Z, 2, k) for k in range(31)]
        assert rep.total == rep.exact_part + sum(rep.partial_sums, ZERO)

    def test_delta_minus_small_n(self):
        Z = rv_forward(R_DELTA_MINUS)
        for n in (1, 2):
            rep = thm2_residual(Z, n, tol="1e-10")
            assert rep.converged
            assert rep.total_below("1e-10")
            assert rep.exact_part + sum(rep.partial_sums, ZERO) == rep.total

    def test_truncated_total_matches_exact_limit_within_bound(self):
        for R, n in [(R_DELTA_MINUS, 1), (PolyX.make(2, [1]), 1), (PolyX.make(2, [0, 1]), 2)]:
            rep = thm2_residual(rv_forward(R), n, tol="1e-12")
            limit = exact_identity_value(R, n)
            gap = (rep.total - limit).norm2()
            bound = Fraction(str(mpmath.nstr(rep.residual_bound, 10)))
            assert gap <= (bound * bound) * Fraction(11, 10)

    def test_identity_value_zero_for_delta_parts(self):
        for R in (R_DELTA_MINUS, R_DELTA_PLUS):
            for n in range(1, 6):
                assert exact_identity_value(R, n).is_zero()

    def test_bad_inputs_yield_nonzero_values(self):
        # R = 1 violates the two-term relation; R = X violates the three-term one
        assert exact_identity_value(PolyX.make(2, [1]), 1) == qi(-3, -2)
        assert exact_identity_value(PolyX.make(2, [0, 1]), 1) == qi(-1, 3)
        for R in (PolyX.make(2, [1]), PolyX.make(2, [0, 1])):
            rep = thm2_residual(rv_forward(R), 1, tol="1e-10")
            assert rep.converged
            assert not rep.total_below("1e-3")

    @pytest.mark.parametrize("w,q", [(42, 42), (100, 45)])
    def test_zero_first_terms_do_not_count_toward_k_min(self, w, q):
        # R = X^q: t_k = 0 exactly while k + n < q, and the value is not 0,
        # so those zeros must not count toward K_MIN
        R = PolyX.make(w, [0] * q + [1])
        assert exact_identity_value(R, 1).norm2() == {42: 3613, 45: 12226}[q]
        rep = thm2_residual(rv_forward(R), 1)
        assert all(t.is_zero() for t in rep.partial_sums[: q - 1])
        assert not rep.partial_sums[q - 1].is_zero()
        assert (rep.k_stop, rep.converged) == (K_MAX_DEFAULT, False)

    @pytest.mark.xfail(
        strict=True,
        reason="tiny first terms meet the stop rule at k = 40 before the q = 42 terms rise; "
        "a proved tail envelope (ROADMAP direction 5) would not stop there",
    )
    def test_tiny_first_terms_stay_within_the_bound(self):
        R = PolyX.make(42, [Fraction(1, 10**30)] + [0] * 41 + [1])
        rep = thm2_residual(rv_forward(R), 1)
        if rep.converged:
            m, e = rep.residual_bound.man_exp
            gap = (rep.total - exact_identity_value(R, 1)).norm2()
            assert gap <= (Fraction(m) * Fraction(2) ** e) ** 2

    @pytest.mark.xfail(
        strict=True,
        reason="at n = 800 the first terms of the golden even part meet the stop rule at "
        "k = 40, far before the terms peak near K = 3.4 n; a proved tail envelope "
        "(ROADMAP direction 5) would not stop there",
    )
    def test_large_n_on_the_even_part_stays_within_the_bound(self):
        # thm2 r_delta_plus.json --n 800 --kmax 6000: converged=True with a
        # residual_bound of 1.08e-35, while |total| is 6.2e23
        R = golden_r_plus()
        rep = thm2_residual(rv_forward(R), 800, k_max=6000)
        if rep.converged:
            m, e = rep.residual_bound.man_exp
            gap = (rep.total - exact_identity_value(R, 800)).norm2()
            assert gap <= (Fraction(m) * Fraction(2) ** e) ** 2

    def test_shared_series_changes_no_report(self):
        # the series memo holds one input at a time and grows B_K on demand:
        # interleaved inputs evict it, and the k_max = 30 calls on the plus
        # part leave B short, so the k_max = 400 calls must extend it
        plus, minus = rv_forward(R_DELTA_PLUS), rv_forward(R_DELTA_MINUS)
        other = rv_forward(mixed_den_polyx(random.Random(113), 10))
        calls = [(Z, n, K_MAX_DEFAULT) for n in (2, 1) for Z in (plus, minus, other)]
        calls += [(plus, n, k_max) for k_max in (30, 400) for n in (5, 1, 3, 1)]
        zeta._thm2_series.cache_clear()
        shared = [thm2_residual(Z, n, k_max=k_max) for Z, n, k_max in calls]
        for rep, (Z, n, k_max) in zip(shared, calls):
            zeta._thm2_series.cache_clear()
            cold = thm2_residual(Z, n, k_max=k_max)
            for field in type(rep)._fields:
                assert getattr(rep, field) == getattr(cold, field), (n, k_max, field)

    def test_shared_series_under_threads(self):
        # six threads start together on a cold memo and fill its B_K at once,
        # switching every microsecond; a lost, misplaced or half-built B_K
        # shows as a wrong or missing report
        Z = rv_forward(mixed_den_polyx(random.Random(127), 40))
        ns = (5, 1, 4, 2, 3, 1)
        cold = {}
        for n in set(ns):
            zeta._thm2_series.cache_clear()
            cold[n] = thm2_residual(Z, n)
        results = {}
        start = threading.Barrier(len(ns))

        def work(i):
            start.wait(timeout=60)
            results[i] = thm2_residual(Z, ns[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                zeta._thm2_series.cache_clear()
                results.clear()
                threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ns))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert sorted(results) == list(range(len(ns)))
                assert all(results[i] == cold[n] for i, n in enumerate(ns))
        finally:
            sys.setswitchinterval(interval)

    def test_nonconvergence_reported(self):
        rep = thm2_residual(rv_forward(R_DELTA_MINUS), 1, tol="1e-10", k_max=30)
        assert not rep.converged
        assert rep.k_stop == 30
        assert len(rep.partial_sums) == 31
        assert mpmath.isinf(rep.residual_bound)

    def test_bound_and_terms_from_the_numerators(self):
        # residual_bound, formed from the last three numerator pairs, is the
        # same mpf as the formula on the normalised terms; the lazily built
        # terms add up to the total
        rng = random.Random(71)
        cases = [(rv_forward(R), n) for R in (R_DELTA_MINUS, R_DELTA_PLUS) for n in range(1, 6)]
        cases += [(rv_forward(mixed_den_polyx(rng, w)), n) for w, n in [(2, 1), (10, 3), (20, 2)]]
        for Z, n in cases:
            rep = thm2_residual(Z, n)
            assert rep.converged
            assert rep.partial_sums is rep.partial_sums
            assert len(rep.partial_sums) == rep.k_stop + 1
            assert rep.residual_bound == tail_bound(rep.partial_sums)
            assert rep.total == rep.exact_part + sum(rep.partial_sums, ZERO)
            short = thm2_residual(Z, n, k_max=30)
            assert not short.converged
            assert mpmath.isinf(short.residual_bound)
            assert short.total == short.exact_part + sum(short.partial_sums, ZERO)

    def test_eventual_decay_ratio_below_three_quarters(self):
        rep = thm2_residual(rv_forward(R_DELTA_MINUS), 1, tol="1e-10")
        norms = [t.norm2() for t in rep.partial_sums]
        ratio_sq = Fraction(9, 16)
        for k in range(190, rep.k_stop):
            assert norms[k + 1] < ratio_sq * norms[k]

    def test_only_series_values_enter(self):
        # all Z-arguments are non-positive, so exact_part and terms live in Q(i)
        rep = thm2_residual(rv_forward(R_DELTA_MINUS), 3, tol="1e-8")
        assert isinstance(rep.exact_part, GaussianRational)
        assert all(isinstance(t, GaussianRational) for t in rep.partial_sums)

    def test_validation(self):
        Z = rv_forward(R_DELTA_MINUS)
        with pytest.raises(InputError):
            thm2_residual(Z, 0)
        with pytest.raises(InputError):
            thm2_residual(Z, 1, tol="0")
        with pytest.raises(InputError):
            thm2_residual(Z, 1, tol="-1e-3")

    def test_report_serialization(self):
        rep = thm2_residual(rv_forward(PolyX.make(2, [1, 1, 1])), 1, tol="1e-10")
        d = rep.to_dict()
        assert set(d) >= {"n", "k_stop", "converged", "abs_total", "residual_bound", "total"}


class TestTolerance:
    def test_parsing(self):
        assert Fraction(*as_tolerance("1e-10")) == Fraction(1, 10**10)
        assert Fraction(*as_tolerance("0.25")) == Fraction(1, 4)
        assert Fraction(*as_tolerance(Fraction(1, 3))) == Fraction(1, 3)
        assert Fraction(*as_tolerance(2)) == 2

    def test_rejects_nonpositive_and_garbage(self):
        for bad in ("0", "-1", "abc", None):
            with pytest.raises(InputError):
                as_tolerance(bad)


# -- roots and diagnostics -------------------------------------------------


class TestRoots:
    def test_quadratic(self):
        got = roots(PolyX.make(2, [-1, 0, 1]), precision=64)
        assert [mpmath.nstr(mpc(z), 8) for z in got] == ["(-1.0 + 0.0j)", "(1.0 + 0.0j)"]

    def test_critical_quadratic(self):
        Z = ZetaPoly.make(2, [Fraction(1, 2), -1, 1])
        got = roots(Z, precision=96)
        with mp.workprec(128):
            assert all(abs(mpmath.re(mpc(z)) - 0.5) < mpmath.mpf(2) ** -90 for z in got)

    def test_origin_roots_are_exact(self):
        got = roots(R_DELTA_MINUS, precision=128)
        assert len(got) == 9
        assert any(mpc(z) == 0 for z in got)

    def test_residual_certificate(self):
        rng = random.Random(71)
        for _ in range(5):
            P = rand_polyx(rng, 6)
            if P.is_zero() or P.degree() < 1:
                continue
            assert_certified(P, roots(P, precision=128), 128)

    def test_double_root_multiplicity(self):
        got = roots(PolyX.make(2, [1, -2, 1]), precision=96)
        assert len(got) == 2
        for z in got:
            assert abs(mpc(z) - 1) < mpmath.mpf("1e-7")

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InputError):
            roots(PolyX.make(2, []))

    def test_precision_floor_is_64_bits(self):
        P = PolyX.make(2, [-1, 0, 1])
        with pytest.raises(InputError, match="^precision must be at least 64 bits$"):
            roots(P, precision=63)
        assert len(roots(P, precision=64)) == 2

    def test_deterministic(self):
        a = roots(R_DELTA_MINUS, precision=96)
        b = roots(R_DELTA_MINUS, precision=96)
        assert a == b

    def test_golden_odd_part_double_roots_at_4096_bits(self):
        # r_- = X (X^2 + 1)^2 (4X^4 + 17X^2 + 4): double roots at +-i.
        start = time.perf_counter()
        got = roots(R_DELTA_MINUS, precision=4096)
        elapsed = time.perf_counter() - start
        expected = [0, 1j, 1j, -1j, -1j, 0.5j, -0.5j, 2j, -2j]
        assert len(got) == len(expected)
        assert sum(1 for z in got if mpc(z) == 0) == 1
        with mp.workprec(4128):
            remaining = [mpc(z) for z in got]
            for e in expected:
                nearest = min(remaining, key=lambda z: abs(z - e))
                assert abs(nearest - e) < mpmath.mpf(2) ** -4000
                remaining.remove(nearest)
        assert elapsed < 1.0

    def test_triple_root_at_1024_bits(self):
        # (X - 1)^3 (X + 2) = X^4 - X^3 - 3X^2 + 5X - 2
        got = roots(PolyX.make(4, [-2, 5, -3, -1, 1]), precision=1024)
        with mp.workprec(1056):
            assert abs(mpc(got[0]) + 2) < mpmath.mpf(2) ** -1000
            assert len(got) == 4
            assert all(abs(mpc(z) - 1) < mpmath.mpf(2) ** -1000 for z in got[1:])

    @pytest.mark.parametrize("double_root", [False, True])
    def test_numeric_coefficients_meet_certificate(self, double_root):
        # A numeric input takes the exact path: its double root is split
        # off by Yun's decomposition, as an exact input's is.
        rng = random.Random(23)
        prec = 1024
        with mp.workprec(prec):
            if double_root:
                cs = (mpmath.mpf(2), mpmath.mpf(-3), mpmath.mpf(0), mpmath.mpf(1))
            else:
                cs = tuple(
                    mpmath.mpf(rng.randint(-99, 99)) / rng.randint(1, 50) for _ in range(11)
                )
        got = roots(numeric_poly(cs, prec), precision=prec)
        assert len(got) == len(cs) - 1
        with mp.workprec(prec + 32):
            monic = [c / cs[-1] for c in cs]
            norm = max(max(abs(c) for c in monic), mpmath.mpf(1))
            for z in map(mpc, got):
                val = mpmath.mpf(0)
                for c in reversed(monic):
                    val = val * z + c
                assert abs(val) < mpmath.mpf(2) ** (-(prec // 2)) * norm

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_numeric_input_equals_exact_input(self, prec):
        # X^3 - 3X + 2 = (X - 1)^2 (X + 2), as exact and as dyadic values.
        values = (2, -3, 0, 1)
        exact = roots(PolyX.make(4, values), precision=prec)
        numeric = roots(numeric_poly(values, prec), precision=prec)
        assert numeric == exact and [mpc(z) for z in exact] == [-2, 1, 1]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_numeric_coefficient_rejected(self, value):
        # a NumericPoly holds integer mantissas only, so it cannot hold these
        with pytest.raises(InputError):
            roots(NumericPoly(w=2, exp=0, mans=(1, float(value), 1), prec=64), precision=64)

    # The first Aberth rung runs in complex doubles; each case below needs
    # its hand-off to the fixed-point rungs (or the Newton ladder past doubles).

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_coefficient_overflowing_doubles(self, prec):
        got = roots(PolyX.make(4, [10**400, 0, 0, 0, 1]), precision=prec)
        with mp.workprec(prec + 32):
            expected = [
                mpmath.mpf(10) ** 100 * mpmath.expjpi(mpmath.mpf(2 * k + 1) / 4)
                for k in range(4)
            ]
            assert max_root_error(got, expected, relative=True) < mpmath.mpf(2) ** -(prec // 2)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_coefficient_underflowing_doubles(self, prec):
        # 10^-400 rounds to 0.0 in a double; X^4 alone would pass the
        # residual certificate with roots far from the true ones.
        got = roots(PolyX.make(4, [Fraction(1, 10**400), 0, 0, 0, 1]), precision=prec)
        with mp.workprec(prec + 32):
            expected = [
                mpmath.mpf(10) ** -100 * mpmath.expjpi(mpmath.mpf(2 * k + 1) / 4)
                for k in range(4)
            ]
            assert max_root_error(got, expected) < mpmath.mpf("1e-100")

    @pytest.mark.xfail(
        strict=True,
        reason="the residual certificate passes roots of X^4 + 10^-400 whose moduli are "
        "0.5-10 % off 10^-100; a certificate relative to |z| (ROADMAP direction 4) would not",
    )
    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_tiny_roots_to_relative_precision(self, prec):
        # the moduli come back 4.3-10.2 % off at 64 and 128 bits and up to
        # 4.7 % off at 256 bits, inside the absolute 1e-100 bound above
        got = roots(PolyX.make(4, [Fraction(1, 10**400), 0, 0, 0, 1]), precision=prec)
        with mp.workprec(prec + 32):
            modulus = mpmath.mpf(10) ** -100
            assert all(abs(abs(mpc(z)) - modulus) < modulus * mpmath.mpf(2) ** -(prec // 2) for z in got)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_roots_closer_than_doubles_separate(self, prec, monkeypatch):
        # (X - 1)(X - 1 - 2^-60)(X + 3).  Above 64 bits the roots from
        # doubles fail the certificate, and the Aberth stage reruns in
        # fixed point at double the bits until they pass.
        kinds = spy_aberth_rungs(monkeypatch)
        close = 1 + Fraction(1, 2**60)
        P = poly_with_roots([1, close, -3])
        got = roots(P, precision=prec)
        assert_certified(P, got, prec)
        reruns = {64: [], 128: [106, 128], 1024: [106, 212, 424]}[prec]
        assert kinds == [("doubles", 53)] + [("fixed", bits) for bits in reruns]
        if prec == 1024:
            with mp.workprec(prec + 32):
                expected = [mpmath.mpf(1), 1 + mpmath.mpf(2) ** -60, mpmath.mpf(-3)]
                assert max_root_error(got, expected) < mpmath.mpf(2) ** -(prec // 2)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_wilkinson_polynomial(self, prec):
        got = roots(poly_with_roots(range(1, 21)), precision=prec)
        with mp.workprec(prec + 32):
            expected = [mpmath.mpf(k) for k in range(1, 21)]
            assert max_root_error(got, expected) < mpmath.mpf(2) ** -(prec // 2)

    @pytest.mark.xfail(
        strict=True,
        reason="the residual certificate passes cluster roots that are 5e-3 off; "
        "inclusion discs would reject them",
    )
    def test_root_cluster_at_128_bits(self):
        # Eight real roots 1, 1.001, ..., 1.007, then -2 and 3i.  At 128 bits
        # the cluster comes back with imaginary parts near 1e-3.
        prec = 128
        cluster = [1 + Fraction(k, 1000) for k in range(8)]
        got = roots(poly_with_roots(cluster + [-2, qi(0, 3)]), precision=prec)
        with mp.workprec(prec + 32):
            expected = [mpmath.mpf(c.numerator) / c.denominator for c in cluster]
            expected += [mpmath.mpf(-2), mpmath.mpc(0, 3)]
            assert max_root_error(got, expected) < mpmath.mpf(2) ** -(prec // 2)

    @pytest.mark.parametrize("prec", [64, 128])
    def test_large_root_fails_certificate_at_low_precision(self, prec, monkeypatch):
        # Documented failure mode: the residual target does not scale with
        # |root|, and Horner's rounding near the root 27 exceeds it.  The
        # rounding bound alone does, so no fixed-point Aberth rerun is tried.
        kinds = spy_aberth_rungs(monkeypatch)
        with pytest.raises(PrecisionError):
            roots(modulus_27_poly(), precision=prec)
        assert kinds and all(kind == ("doubles", 53) for kind in kinds)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("cap", [1, 2, 3, 15])
    def test_a_capped_sweep_raises_or_returns_certified_roots(self, cap, prec, monkeypatch):
        # With the sweep cap at 1-3 sweeps, both Aberth stages end in their
        # final certification pass; roots may then raise PrecisionError, but
        # every root it returns passes the residual certificate on the input
        # (at 15 sweeps golden r_+ comes back and (X-1)...(X-10) still fails).
        monkeypatch.setattr(rootfind, "_ABERTH_MAX_ITER", cap)
        kinds = spy_aberth_rungs(monkeypatch)
        for P in (golden_r_plus(), poly_with_roots(range(1, 11))):
            try:
                got = roots(P, precision=prec)
            except PrecisionError as exc:
                assert str(exc).startswith("root iteration failed to certify residuals below ")
                continue
            monic = [c / P.coeffs[P.degree()] for c in P.coeffs[: P.degree() + 1]]
            for re, im in got:
                E, (a, b) = aligned([re.man_exp, im.man_exp])
                assert TestResidualCertificate.decide(monic, (a, b, E), prec)[0]
        assert any(kind == "fixed" for kind, _ in kinds)  # the doubles stage handed off

    @pytest.mark.parametrize(
        "prec,rungs",
        [
            (64, [64]),
            (128, [64, 128]),
            (1000, [63, 125, 250, 500, 1000]),
            (1024, [64, 128, 256, 512, 1024]),
            (4096, [64, 128, 256, 512, 1024, 2048, 4096]),
        ],
    )
    def test_newton_ladder_takes_one_step_per_rung(self, prec, rungs, monkeypatch):
        # Rungs ceil(prec / 2^k) above the 53 bits of the double Aberth
        # stage, then prec, each floored with 32 guard bits.
        floored, steps = [], []
        floor, step = rootfind._floored, rootfind._newton_step
        monkeypatch.setattr(rootfind, "_floored", lambda form, t: floored.append(t) or floor(form, t))
        monkeypatch.setattr(
            rootfind, "_newton_step", lambda fixed, *a: steps.append(fixed[0]) or step(fixed, *a)
        )
        P = poly_with_roots([1, -2, qi(0, 3)])
        got = roots(P, precision=prec)
        assert floored == [prec + 32] + [r + 32 for r in rungs]  # the certificate's, then the ladder's
        assert steps == [r + 32 for r in rungs for _ in range(3)]
        assert_certified(P, got, prec)

    def test_large_root_certified_at_256_bits(self):
        P = modulus_27_poly()
        got = roots(P, precision=256)
        assert len(got) == 30
        assert_certified(P, got, 256)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_random_roots_against_polyroots(self, prec):
        rng = random.Random(4100 + prec)
        for w in (4, 8, 12):
            P = rand_polyx(rng, w)
            assert_near_polyroots(P.coeffs, roots(P, precision=prec), prec)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_delta_roots_against_polyroots(self, prec):
        R = build_r(delta_newform(prec), prec)
        for P in (R, numeric_rv(R)):
            assert_near_polyroots(poly_values(P), roots(P, precision=prec), prec)

    @pytest.mark.parametrize("prec", [128, 256])
    def test_delta_zeta_roots_in_ascending_imaginary_part(self, prec):
        Z = numeric_rv(build_r(delta_newform(prec), prec))
        got = roots(Z, precision=prec)
        ims = [mpmath.im(mpc(z)) for z in got]
        assert ims == sorted(ims)
        assert len(ims) == 10


class TestResidualCertificate:
    """The fixed-point residual test of ``roots`` stage 4, against exact
    Q(i) evaluation of |P(z)|^2 at the dyadic z it is handed."""

    @staticmethod
    def decide(monic, z, prec):
        """(passed, band, target^2) for the dyadic z = (a + b i) 2^E, with
        the failure band (2B + 1) 2^(s - t) from the kernel's B and s."""
        target2 = max(max(c.norm2() for c in monic), 1) / Fraction(4) ** (prec // 2)
        fixed = rootfind._floored(common_denominator(monic), prec + rootfind._GUARD_BITS)
        ok, point, _ = rootfind._residual_below(fixed, z, (target2.numerator, target2.denominator))
        assert as_fraction(point) == as_fraction(z)  # the kernel evaluated z itself
        *_, bound, s, _ = rootfind._horner_fixed(fixed, z)
        return ok, (2 * bound + 1) * Fraction(2) ** (s - fixed[0]), target2

    def check(self, monic, z, prec) -> bool:
        ok, band, target2 = self.decide(monic, z, prec)
        exact = exact_norm2(monic, qi(*as_fraction(z)))
        if ok:
            assert exact < target2
        else:
            # |P(z)| >= target - band, i.e. (|P(z)| + band)^2 >= target^2
            gap = target2 - exact - band * band
            assert gap <= 0 or 4 * band * band * exact >= gap * gap
        return ok

    def test_decisions_against_exact_residuals(self):
        rng = random.Random(2026)
        decisions = []
        for _ in range(200):
            prec = rng.choice([64, 128, 256])
            rts = [rand_qi(rng) for _ in range(rng.randint(1, 30))]
            monic = list(poly_with_roots(rts).coeffs[: len(rts) + 1])
            rho = rng.choice(rts)
            E = -(prec // 2 + rng.randint(-4, 40))
            a = math.floor(rho.re * 2**-E) + rng.randint(-3, 3)
            b = math.floor(rho.im * 2**-E) + rng.randint(-3, 3)
            decisions.append(self.check(monic, (a, b, E), prec))
        assert 20 <= sum(decisions) <= 180  # both outcomes are exercised

    def test_hand_built_pairs_just_below_and_above_the_target(self):
        # X^2 + 1 at z = i + d has |P(z)| = d sqrt(4 + d^2), against the
        # 128-bit target 2^-64 (||P|| = 1).  With d = (2^94 + j) 2^-159, on
        # the kernel's finest grid, |P(z)| >= 2^-64 exactly when j >= 0,
        # and |P(z)| - 2^-64 is about j 2^-158: only the few j nearest 0
        # fall inside the band, so every pair below them must pass.
        monic = [ONE, ZERO, ONE]
        passed = [self.check(monic, (2**94 + j, 2**159, -159), 128) for j in range(-40, 41)]
        assert not any(passed[40:])
        assert all(passed[:24])

    def test_sweeps_across_the_target_on_random_inputs(self):
        # z = rho + k 2^E on the kernel's finest grid, 2^E about 2^-160 |rho|,
        # walks out from a root rho of a random P.  Bisection on the exact
        # residual finds the first k with |P(z)| >= target; the sweep then
        # steps about one rounding unit of the kernel at a time across it,
        # where a kernel that left out its bound would pass a z whose exact
        # residual is at or above the target.
        rng = random.Random(7)
        prec = 128
        t = prec + rootfind._GUARD_BITS
        for _ in range(8):
            rts = [rand_qi(rng) for _ in range(rng.randint(10, 30))]
            monic = list(poly_with_roots(rts).coeffs[: len(rts) + 1])
            target2 = max(c.norm2() for c in monic) / Fraction(4) ** (prec // 2)
            rho = rts[0]
            e = math.ceil(math.log2(abs(complex(rho.re, rho.im)))) + 1
            E = e - t
            a, b = math.floor(rho.re * 2**-E), math.floor(rho.im * 2**-E)

            def above(k):
                return exact_norm2(monic, qi(*as_fraction((a + k, b, E)))) >= target2

            lo, hi = 0, 1
            while not above(hi):
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if above(mid) else (mid, hi)
            with mp.workprec(64):  # a rounding unit 2^(s - t) of the kernel, in steps of k
                x = mpmath.mpc(float(rho.re), float(rho.im))
                cs = [mpmath.mpc(float(c.re), float(c.im)) for c in monic]
                unit = max(abs(c) * abs(x) ** k for k, c in enumerate(cs)) * mpmath.mpf(2) ** -t
                slope = abs(mpmath.polyval([k * c for k, c in enumerate(cs)][:0:-1], x))
                step = max(1, int(unit / (slope * mpmath.mpf(2) ** E)))
            passed = [self.check(monic, (a + hi + j * step, b, E), prec) for j in range(-8, 9)]
            assert not any(passed[8:])


def seeded_root_poly(rng: random.Random, degree: int, modulus: int) -> PolyX:
    """degree - 1 roots with real and imaginary parts randint(-9, 9) /
    randint(1, 9), and one root of the given modulus on an axis."""
    rts = [
        GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        for _ in range(degree - 1)
    ]
    return poly_with_roots(rts + [rng.choice([ONE, -ONE, I, -I]) * modulus])


def grid_root_poly(rng: random.Random, degree: int) -> PolyX:
    """Roots at ``degree`` distinct points (a + b i) / den, |a|, |b| <= 9,
    one seeded den in 1..9."""
    points = set()
    while len(points) < degree:
        points.add((rng.randint(-9, 9), rng.randint(-9, 9)))
    den = rng.randint(1, 9)
    return poly_with_roots([GaussianRational(Fraction(a, den), Fraction(b, den)) for a, b in sorted(points)])


class TestHornerKernel:
    """``_horner_fixed`` against the four-product kernel of the conftest,
    which evaluates P' at the full t bits."""

    def test_values_bit_identical(self):
        rng = random.Random(1901)
        for degree in range(1, 31):
            coeffs = [rand_qi(rng, span=99, max_den=50) for _ in range(degree)] + [ONE]
            form = common_denominator(coeffs)
            for prec in (64, 128, 256, 1024, 4096):
                fixed = rootfind._floored(form, prec + rootfind._GUARD_BITS)
                E = -rng.randint(prec // 2, prec + 40)
                z = (rng.randint(-(9 << -E), 9 << -E), rng.randint(-(9 << -E), 9 << -E), E)
                want = horner_fixed_oracle(fixed, z)
                assert rootfind._horner_fixed(fixed, z) == want
                got = rootfind._horner_fixed(fixed, z, derivative=True)
                assert got[:2] + got[4:] == want[:2] + want[4:]

    def test_newton_steps_near_the_oracle_steps(self, monkeypatch):
        # Every step the ladder takes, replayed with the oracle kernel: the
        # two new roots differ by at most 2^-rung max(|z|, 1).  The inputs
        # have well-separated roots (distinct points of a grid, and delta's
        # r and z): P''s relative error multiplies the incoming error, and
        # a cluster of roots inflates both.
        calls = []
        step = rootfind._newton_step
        monkeypatch.setattr(rootfind, "_newton_step", lambda fixed, z: calls.append((fixed, z)) or step(fixed, z))
        rng = random.Random(1902)
        for prec in (64, 128, 256, 1024, 4096):
            R = build_r(delta_newform(prec), prec)
            for P in [grid_root_poly(rng, degree) for degree in (2, 9, 17, 30)] + [R, numeric_rv(R)]:
                roots(P, precision=prec)
        monkeypatch.undo()
        assert len(calls) > 500
        for fixed, z in calls:
            got = rootfind._newton_step(fixed, z)
            monkeypatch.setattr(rootfind, "_horner_fixed", horner_fixed_oracle)
            want = rootfind._newton_step(fixed, z)
            monkeypatch.undo()
            assert got[2] == want[2]  # both on the grid of the point evaluated
            gap2 = Fraction((got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2) * Fraction(4) ** got[2]
            size2 = max(Fraction(z[0] ** 2 + z[1] ** 2) * Fraction(4) ** z[2], 1)
            assert gap2 <= size2 / Fraction(4) ** (fixed[0] - rootfind._GUARD_BITS)

    def test_roots_outcomes_match_the_oracle_kernel(self, monkeypatch):
        # 120 seeded inputs of degree 2..24 with one root of modulus 1, 4,
        # 12, 27 or 60, at 64, 128 and 256 bits: each passes or raises
        # PrecisionError as it does with the oracle kernel.  The second run
        # replays the Aberth and Yun results of the first, which do not
        # depend on the kernel, unless its inputs differ.
        def memo(f):
            seen = {}
            return lambda *args: seen[args] if args in seen else seen.setdefault(args, f(*args))

        def outcome(P, prec):
            try:
                return len(roots(P, precision=prec))
            except PrecisionError:
                return "raise"

        aberth, split = memo(rootfind._aberth), memo(rootfind.squarefree_parts)
        monkeypatch.setattr(rootfind, "_aberth", lambda coeffs, *a: list(aberth(tuple(coeffs), *a)))
        monkeypatch.setattr(rootfind, "squarefree_parts", lambda f: split(tuple(f)))
        rng = random.Random(1903)
        inputs = [seeded_root_poly(rng, rng.randint(2, 24), m) for m in (1, 4, 12, 27, 60) for _ in range(24)]
        cases = [(P, prec) for P in inputs for prec in (64, 128, 256)]
        got = [outcome(P, prec) for P, prec in cases]
        monkeypatch.setattr(rootfind, "_horner_fixed", horner_fixed_oracle)
        assert got == [outcome(P, prec) for P, prec in cases]
        assert 0 < got.count("raise") < len(cases) / 2


class TestRhCheck:
    def test_minus_part_fails_unit_circle_with_deviation_one(self):
        rep = rh_check(R_DELTA_MINUS, "unit_circle", tol="1e-8", precision=128)
        assert not rep.passed
        with mp.workprec(64):
            assert abs(rep.max_deviation - 1) < mpmath.mpf(2) ** -40

    def test_scaling_invariance(self):
        Z1 = rv_forward(R_DELTA_MINUS)
        Z3 = rv_forward(scaled(R_DELTA_MINUS, 3))
        a = rh_check(Z1, "critical_line", tol="1e-8", precision=96)
        b = rh_check(Z3, "critical_line", tol="1e-8", precision=96)
        assert a.roots == b.roots  # exact monic normalization before rounding
        assert a.max_deviation == b.max_deviation

    def test_mode_validated(self):
        with pytest.raises(InputError):
            rh_check(R_DELTA_MINUS, "circle", tol="1e-8")

    def test_precision_floor_is_64_bits(self):
        P = PolyX.make(2, [-1, 0, 1])
        with pytest.raises(InputError, match="^precision must be at least 64 bits$"):
            rh_check(P, "unit_circle", precision=63)
        assert rh_check(P, "unit_circle", precision=64).passed

    def test_report_dict(self):
        rep = rh_check(PolyX.make(2, [-1, 0, 1]), "unit_circle", tol="1e-8", precision=64)
        assert rep.passed
        d = rep.to_dict()
        assert d["mode"] == "unit_circle"
        assert len(d["roots"]) == 2


def numeric_zeta(line_ts, extra, prec: int) -> NumericPoly:
    """Z(s) = P(s - 1/2), P(x) = extra(x) prod_t (x^2 + t^2) for ``extra``
    ascending in x, with Fraction coefficients rounded to prec + 32 bits and
    coeff_err 2^-(prec+30) |Z_j|, above the rounding error."""
    P = [Fraction(c) for c in extra]
    for t in line_ts:  # times x^2 + t^2
        P = [t * t * a + b for a, b in zip(P + [0, 0], [0, 0] + P)]
    w = len(P) - 1
    Z = [sum(P[j] * math.comb(j, k) * Fraction(-1, 2) ** (j - k) for j in range(k, w + 1))
         for k in range(w + 1)]
    with mp.workprec(prec + 32):
        coeffs = tuple(mpmath.mpf(c.numerator) / c.denominator for c in Z)
        errs = tuple(mpmath.ldexp(abs(c), -(prec + 30)) for c in coeffs)
    return numeric_poly(coeffs, prec, errs)


DELTA = Fraction(1, 1000)
OFF_LINE = {  # Z(1 - s) = Z(s), real coefficients, degree 10
    # the real pair 1/2 +- 1/1000
    "real_pair": ((1, 2, 3, 4), (-DELTA**2, 0, 1)),
    # 1/2 +- 1/1000 +- 4i: ((x - d)^2 + 16) ((x + d)^2 + 16)
    "quadruple": ((1, 2, 3), ((DELTA**2 + 16) ** 2, 0, 32 - 2 * DELTA**2, 0, 1)),
    # s = 1/2 +- 1 and 1/2 +- 1/2: in v = 4t^2 the roots -4, -1, 1, 4, 9, so
    # the midpoints -2.5, 0, 2.5, 6.5 bracket 5 sign changes out of order
    "two_real_pairs": (
        (Fraction(1, 2), 1, Fraction(3, 2)), (Fraction(1, 4), 0, Fraction(-5, 4), 0, 1)
    ),
}
EDGE = [(Fraction(99, 100), True), (Fraction(101, 100), False)]  # just below / above a bound


def close_pair(delta: Fraction, err: int) -> NumericPoly:
    """Z = ((s - 1/2)^2 + 1)((s - 1/2)^2 + 1 + delta) at 512 bits, exact
    dyadic coefficients over 2^-260 and every error bound err 2^-260: in
    v = 4t^2 the roots 4 and 4 (1 + delta)."""
    P = [1 + delta, 0, 2 + delta, 0, 1]  # in x = s - 1/2
    Z = [sum(P[j] * math.comb(j, k) * Fraction(-1, 2) ** (j - k) for j in range(k, 5)) for k in range(5)]
    return NumericPoly(w=4, exp=-260, mans=tuple(int(c * 2**260) for c in Z), prec=512, errs=(err,) * 5)


class TestSignCountCheck:
    @pytest.mark.parametrize("prec", [64, 128])
    def test_roots_on_the_line_are_proved(self, prec):
        Z = numeric_zeta((1, 2, 3, 4, 5), (1,), prec)
        rep = sign_count_check(Z, "critical_line", 1, precision=prec)
        assert rep is not None and rep.passed and rep.max_deviation == Dyadic(0)
        with mp.workprec(128):
            want = [mpmath.mpc(0.5, t) for t in range(-5, 6) if t]
            assert max(abs(mpc(a) - b) for a, b in zip(rep.roots, want)) < 1e-25

    @pytest.mark.parametrize("factor,proved", EDGE)
    def test_line_bound_at_a_known_point(self, factor, proved):
        """w = 2: Z = s^2 - s + 5/4 (roots 1/2 +- i) gives F = 16 - 4v in
        v = 4t^2, with root 4 and Fujiwara bound 2 |16/-4| < 2^4 from bit
        lengths, so the signs are taken at v = 0 and v = 16, where
        Z(1/2 + 2i) = -3.  With all error on Z_1, the bound there is
        e_1 2^-1 (1 + 16) = 17 e_1 / 2 (>= e_1 |s| = e_1 sqrt(17/4)): the
        count holds just below e_1 = 6/17 and fails just above."""
        with mp.workprec(160):
            zero, e1 = mpmath.mpf(0), mpmath.mpf(6 * factor.numerator) / (17 * factor.denominator)
            Z = numeric_poly((mpmath.mpf(5) / 4, -1, 1), 128, (zero, e1, zero))
        assert (sign_count_check(Z, "critical_line", 1) is not None) is proved

    @pytest.mark.parametrize("factor,proved", EDGE)
    def test_circle_bound_is_the_error_sum(self, factor, proved):
        """w = 2: r = X^2 + X/2 + 1, p(y) = y + 1/2, signs at y = -2 and 2:
        values -3/2 and 5/2, so errors summing to just under 3/2 are proved
        and just over are not."""
        with mp.workprec(160):
            total = mpmath.mpf(3) / 2 * factor.numerator / factor.denominator
            r = numeric_poly((1, mpmath.mpf(0.5), 1), 128, (total / 4, total / 2, total / 4))
        rep = sign_count_check(r, "unit_circle", 1)
        assert (rep is not None) is proved
        if proved:
            with mp.workprec(128):
                assert all(abs(abs(mpc(z)) - 1) < 1e-30 for z in rep.roots)

    @pytest.mark.parametrize("where,value", [("coeffs", "inf"), ("coeffs", "nan"), ("coeff_err", "-1e10")])
    def test_non_finite_coefficients_or_negative_errors_are_not_proved(self, where, value):
        """On Z_0, which keeps Z(1/2 + x) even, so the symmetry guard would
        pass: a NumericPoly refuses such a value, so no check sees it."""
        Z = numeric_zeta((1, 2, 3, 4, 5), (1,), 128)
        fields = {"mans": list(Z.mans), "errs": list(Z.errs)}
        if where == "coeffs":
            fields["mans"][0] = float(value)
        else:
            fields["errs"][0] = int(float(value))
        with pytest.raises(InputError):
            NumericPoly(w=10, exp=Z.exp, prec=128, **{k: tuple(v) for k, v in fields.items()})

    def test_zero_coefficient_beside_positive_exponents(self):
        # r = 4 + 4X^2: the common exponent of 4 = 2^2 is 2, and the zero
        # coefficient and zero errors take mantissa 0.
        r = NumericPoly(w=2, exp=2, mans=(1, 0, 1), prec=64, errs=(0,) * 3)
        rep = sign_count_check(r, "unit_circle", 1, precision=64)
        assert rep is not None and rep.passed
        assert [mpc(z) for z in rep.roots] == [mpmath.mpc(0, -1), mpmath.mpc(0, 1)]

    def test_roots_on_split_points_below_the_top_level(self):
        """r = X^4 - X^3 + 2X^2 - X + 1 with zero errors gives F(y) = 2y(y - 1):
        its roots sit on the first and the second split point of (-2, 2),
        and each must be kept as a root.  The discriminant form's r has the
        exact root F(0) = 0 at 136 and 249 bits, the case of
        ``test_sign_counts_prove_every_precision_tried`` that only reaches
        the top-level point."""
        r = NumericPoly(w=4, exp=0, mans=(1, -1, 2, -1, 1), prec=64, errs=(0,) * 5)
        rep = sign_count_check(r, "unit_circle", 1, precision=64)
        assert rep is not None and rep.passed
        roots = [mpc(z) for z in rep.roots]
        assert roots[:2] == [mpmath.mpc(0, -1), mpmath.mpc(0, 1)]
        with mp.workprec(160):
            for z, sign in zip(roots[2:], (-1, 1)):  # e^(+-i pi/3)
                assert z.real == mpmath.mpf(1) / 2
                assert abs(z.imag - sign * mpmath.sqrt(3) / 2) < mpmath.mpf(2) ** -120

    @pytest.mark.parametrize("log_delta", [0, 2, 10, 20, 30, 40])
    def test_close_roots_are_proved(self, log_delta):
        """Roots 2^-log_delta apart in v are separated on integers: each
        returned root is within 2^-90 of the true one (they carry 96 bits)."""
        delta = Fraction(1, 2**log_delta)
        rep = sign_count_check(close_pair(delta, 1), "critical_line", 1, precision=512)
        assert rep is not None and rep.passed
        with mp.workprec(320):
            t = mpmath.sqrt(1 + mpmath.ldexp(1, -log_delta))
            want = [mpmath.mpc(0.5, y) for y in (-t, -1, 1, t)]
            got = sorted((mpc(z) for z in rep.roots), key=lambda z: z.imag)
            assert max(abs(a - b) for a, b in zip(got, want)) < mpmath.mpf(2) ** -90

    def test_close_roots_with_wider_errors_are_not_proved(self):
        """Between the roots 4 and 4 (1 + 2^-20) of F, |Z(1/2 + it)| is
        2^-42 at most, below the error bound sum_j e_j 2^-j (1 + v)^ceil(j/2),
        about 9.4 e, for e = 2^-40; e = 2^-50 is proved."""
        delta = Fraction(1, 2**20)
        assert sign_count_check(close_pair(delta, 1 << 220), "critical_line", 1, precision=512) is None
        assert sign_count_check(close_pair(delta, 1 << 210), "critical_line", 1, precision=512) is not None

    def test_cluster_that_the_cut_merges_is_isolated_on_f(self, monkeypatch):
        """r = prod_j (X^2 - y_j X + 1) for eight doubles y_j near 0.4034,
        the closest two 3.3e-13 apart, with zero errors: F has 291 bits and
        its cut to 192 merges roots, so they are isolated on F itself.  The
        refined roots are F's exactly: 2 Re X = y_j on |X| = 1."""
        ys = [0.40339279174812503, 0.4033927917484519, 0.40339279175362464, 0.4033927954478713,
              0.40339328441768885, 0.4033937081694603, 0.40348339080810547, 0.40349721908569336]
        R = [Fraction(1)]
        for y in map(Fraction, ys):
            R = [a + b - y * c for a, b, c in zip(R + [0, 0], [0, 0] + R, [0] + R + [0])]
        E = max(c.denominator for c in R).bit_length() - 1
        r = NumericPoly(w=16, exp=-E, mans=tuple(int(c * 2**E) for c in R), prec=256, errs=(0,) * 17)
        calls = []
        isolated = signcount._isolated
        monkeypatch.setattr(signcount, "_isolated", lambda P, limit: calls.append(P) or isolated(P, limit))
        rep = sign_count_check(r, "unit_circle", 1, precision=256)
        assert rep is not None and rep.passed and len(calls) == 2
        assert sorted(2 * mpc(z).real for z in rep.roots) == sorted(ys * 2)

    def test_errors_too_large_to_certify_a_sign(self):
        Z = numeric_zeta((1, 2, 3, 4, 5), (1,), 128)
        with mp.workprec(160):
            loose = numeric_poly(poly_values(Z), 128, [abs(c) / 100 for c in poly_values(Z)])
        assert sign_count_check(loose, "critical_line", 1) is None

    @pytest.mark.parametrize("case", sorted(OFF_LINE))
    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_a_root_pair_off_the_line_is_never_proved(self, case, prec):
        Z = numeric_zeta(*OFF_LINE[case], prec)
        assert sign_count_check(Z, "critical_line", 1, precision=prec) is None
        general = rh_check(Z, "critical_line", tol="1e-8", precision=prec)
        assert not general.passed
        with mp.workprec(64):
            assert general.max_deviation > mpmath.mpf(DELTA.numerator) / DELTA.denominator / 2


class TestHilbert:
    def test_delta_minus_fails_integrality(self):
        Z = rv_forward(R_DELTA_MINUS)
        assert Z.coeffs[10] == qi(Fraction(1, 36288))  # the witness coefficient
        rep = hilbert_hypotheses(Z)
        assert not rep.integer_coefficients
        assert not rep.satisfied
        assert "non-integer coefficient" in rep.detail

    def test_integer_positive_passes(self):
        rep = hilbert_hypotheses(ZetaPoly.make(2, [1, 0, 1]))
        assert rep.integer_coefficients
        assert rep.positive_leading
        assert rep.satisfied

    def test_negative_leading_fails(self):
        rep = hilbert_hypotheses(ZetaPoly.make(2, [0, -1]))
        assert rep.integer_coefficients
        assert not rep.positive_leading
        assert not rep.satisfied

    def test_gaussian_coefficient_fails(self):
        rep = hilbert_hypotheses(ZetaPoly.make(2, [qi(0, 1), 0, 1]))
        assert not rep.integer_coefficients

    @pytest.mark.parametrize("coeffs,detail", [
        ([1, Fraction(-1, 2), 3], "non-integer coefficient -1/2"),
        ([1, qi(2, -3), 3], "non-integer coefficient 2-3*i"),
        ([qi(0, Fraction(-7, 2)), 0, 1], "non-integer coefficient -7/2*i"),
        ([1, qi(Fraction(5, 6), Fraction(-2, 3)), -3],
         "non-integer coefficient 5/6-2/3*i; leading term not a positive real"),
    ])
    def test_detail_bytes(self, coeffs, detail):
        # the first offending coefficient, printed as the check command prints one
        assert hilbert_hypotheses(ZetaPoly.make(2, coeffs)).detail == detail


class TestLazyRootFinder:
    """``zeta`` serves the general root finder from ``rootfind``, which it
    loads on first use (PEP 562), and no other name."""

    def test_roots_and_rh_check_are_rootfinds(self):
        from zetapoly.zeta import rh_check as check, roots as find

        assert find is roots is rootfind.roots
        assert check is rh_check is rootfind.rh_check

    def test_other_names_raise_attribute_error(self):
        for name in ("no_such_name", "squarefree_parts", "_floored", "_horner_fixed"):
            assert not hasattr(zeta, name), name
        with pytest.raises(AttributeError, match="'zetapoly.zeta' has no attribute 'no_such_name'"):
            zeta.no_such_name
