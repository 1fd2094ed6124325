"""The dyadic layer against mpmath as the oracle: the printer digit for
digit against ``mpmath.nstr``, the roundings bit for bit against mpmath's,
and the integer constants of ``lvalues`` against mpmath's pi, exp and
powers."""

import math
import random

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_sqrt, round_ceiling, round_nearest

from conftest import mpf
from zetapoly.dyadic import INF, Dyadic, aligned, nstr, quotient, rounded, sqrt_rounded
from zetapoly.lvalues import NewformData, _pi_fixed, _series_constants, l_from_lambda

DPS = [2, 5, 6, 7, 8, 12, 20, 41, 1235]


def _oracle(x: Dyadic, dps: int) -> str:
    return mpmath.nstr(mpf(x), dps)


def _near(power: int, digits: str, bits: int = 200) -> Dyadic:
    """The dyadic nearest to 0.<digits> 10^power at ``bits`` bits."""
    num, den = int(digits) * 10 ** max(power, 0), 10 ** (len(digits) + max(-power, 0))
    return Dyadic(*quotient(num, den, 0, bits))


class TestPrinter:
    @pytest.mark.parametrize("dps", DPS)
    def test_seeded_dyadics(self, dps):
        rng = random.Random(dps)
        for _ in range(300 if dps < 100 else 30):
            bits = rng.choice([1, 2, 10, 53, 64, 128, 300, 4200])
            man = rng.getrandbits(bits) * rng.choice([1, -1])
            # a quarter of the exponents lie past 2^(+-3500), where mpmath
            # first divides by a rounded power of ten
            far = rng.choice([1, -1]) * rng.randint(3400, 20000)
            x = Dyadic(man, far if rng.random() < 0.25 else rng.randint(-bits - 40, 40))
            assert nstr(x, dps) == _oracle(x, dps), (man, x)

    @pytest.mark.parametrize("dps", DPS)
    def test_both_sides_of_each_fixed_point_boundary(self, dps):
        """Fixed point holds strictly between decimal exponents
        min(-(dps // 3), -5) and dps; a value sits on each side of each."""
        for edge in (min(-(dps // 3), -5), dps):
            for power in (edge - 1, edge, edge + 1, edge + 2):
                for digits in ("1", "15", "999999999999", "123456789"):
                    for sign in (1, -1):
                        x = _near(power, digits, bits=max(200, 4 * dps))
                        x = Dyadic(sign * x.man_exp[0], x.man_exp[1])
                        assert nstr(x, dps) == _oracle(x, dps), (power, digits, sign)

    @pytest.mark.parametrize("dps", DPS)
    def test_nines_carry_into_the_next_digit(self, dps):
        """0.999...95 at dps + 3 digits rounds up to 1.0, and 9.99...5 to 10.0."""
        for power in (0, 1, -3, 7, dps + 1):
            for tail in ("5", "49", "51", "999"):
                x = _near(power, "9" * dps + tail, bits=4 * dps + 200)
                assert nstr(x, dps) == _oracle(x, dps), (power, tail)

    def test_special_values(self):
        for x in (Dyadic(0), INF):
            for dps in DPS:
                assert nstr(x, dps) == _oracle(x, dps)
        assert nstr(Dyadic(0), 8) == "0.0" and nstr(INF, 6) == "+inf"

    def test_exponents_past_the_fixed_range(self):
        """Past 2^(+-3500) the digits may differ from mpmath's only where
        the rounding at digit dps is a near tie; these are no ties."""
        for exp in (-9000, -4200, -3600, 3600, 9000):
            x = Dyadic(3**200 + 1, exp)
            for dps in (8, 20):
                assert nstr(x, dps) == _oracle(x, dps)

    def test_complex_values(self):
        # a complex value is a (real part, imaginary part) pair, printed as mpmath prints an mpc
        with mp.workprec(128):
            for z in (mpmath.mpc(1.5, -2.25), mpmath.mpc(0, 1), mpmath.mpc(-1, 0) / 3):
                (rs, rm, re, _), (is_, im, ie, _) = z._mpc_  # mpmath's man_exp drops the sign
                assert nstr((z.real, z.imag), 20) == mpmath.nstr(z, 20)
                assert nstr((Dyadic(-rm if rs else rm, re), Dyadic(-im if is_ else im, ie)), 20) == mpmath.nstr(z, 20)


class TestRounding:
    def test_the_value_is_held_as_mpmath_holds_it(self):
        rng = random.Random(1)
        for _ in range(2000):
            man, exp = rng.getrandbits(rng.randint(0, 300)) * rng.choice([1, -1]), rng.randint(-500, 500)
            assert Dyadic(man, exp)._mpf_ == from_man_exp(man, exp)
            if man:
                assert Dyadic(*Dyadic(man, exp).man_exp) == Dyadic(man, exp)

    def test_against_mpmath_bit_for_bit(self):
        rng = random.Random(2)
        for _ in range(3000):
            bits = rng.randint(2, 300)
            num = rng.getrandbits(rng.randint(1, 600)) * rng.choice([1, -1]) or 1
            den = rng.getrandbits(rng.randint(1, 600)) or 1
            exp = rng.randint(-100, 100)
            value = from_man_exp(num, exp)
            assert Dyadic(*rounded(num, exp, bits))._mpf_ == from_man_exp(num, exp, bits, round_nearest)
            got = Dyadic(*quotient(num, den, exp, bits))._mpf_
            assert got == mpf_div(value, from_int(den), bits, round_nearest)
            if num > 0:
                got = Dyadic(*quotient(num, den, exp, bits, up=True))._mpf_
                assert got == mpf_div(value, from_int(den), bits, round_ceiling)
                assert Dyadic(*sqrt_rounded(num, exp, bits))._mpf_ == mpf_sqrt(value, bits, round_nearest)

    def test_ties_go_to_even(self):
        assert rounded(0b1011, 0, 3) == (0b110, 1)  # 11 -> 12
        assert rounded(0b1001, 0, 3) == (0b100, 1)  # 9 -> 8
        assert rounded(-0b1011, 0, 3) == (-0b110, 1)

    def test_aligned(self):
        assert aligned([(1, 2), (0, -50), (3, 3)]) == (2, [1, 0, 6])
        assert aligned([(0, 5)]) == (0, [0])

    def test_difference_and_absolute_value_are_exact(self):
        rng = random.Random(3)
        for _ in range(1000):
            x = Dyadic(rng.getrandbits(rng.randint(0, 80)) * rng.choice([1, -1]), rng.randint(-90, 90))
            y = rng.choice([Dyadic(rng.getrandbits(rng.randint(0, 80)) * rng.choice([1, -1]), rng.randint(-90, 90)),
                            rng.randint(-9, 9)])
            with mp.workprec(400):  # wide enough for every difference here
                assert mpf(x - y) == mpf(x) - (mpf(y) if isinstance(y, Dyadic) else y)
                assert mpf(abs(x)) == abs(mpf(x))
                assert x - mpmath.mpf(1) == mpf(x) - 1  # mpmath values subtract as mpmath's own
        assert abs(INF) is INF


class TestConstants:
    @pytest.mark.parametrize("bits", [128, 1024, 4200])
    def test_pi(self, bits):
        with mp.workprec(bits + 64):
            assert _pi_fixed(bits) == int(mpmath.floor(mpmath.ldexp(mpmath.pi, bits)))

    @pytest.mark.parametrize("bits", [128, 1024, 4200])
    @pytest.mark.parametrize("level", [1, 11])
    def test_series_constants_are_mpmaths_floors(self, level, bits):
        """Within 2 units as proved, and here equal to the floors mpmath
        computes at 64 bits more."""
        k, g = 12, int(math.sqrt(level) / (2 * math.pi)) + 2
        q, cinv = _series_constants(level, k, bits, g)
        with mp.workprec(bits + 64 + k * g.bit_length()):
            c = 2 * mpmath.pi / mpmath.sqrt(level)
            exact_q = mpmath.ldexp(mpmath.exp(-c), bits)
            exact_c = [mpmath.ldexp(c**-j, bits) for j in range(k)]
            assert abs(q - exact_q) < 2 and all(abs(a - b) < 2 for a, b in zip(cinv, exact_c))
            assert q == int(mpmath.floor(exact_q)) and cinv == [int(mpmath.floor(x)) for x in exact_c]

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("level", [1, 11])
    def test_l_from_lambda(self, level, prec):
        f = NewformData(level=level, weight=12, fricke=1, an=(1,))
        lam = Dyadic(3**90 + 7, -150)
        with mp.workprec(prec + 96):
            want = mpf(lam) * (2 * mpmath.pi / mpmath.sqrt(level)) ** 5 / 24
            got = mpf(l_from_lambda(f, 5, lam, prec))
            assert abs(got - want) <= mpmath.mpf(2) ** -(prec + 31) * abs(want)
