import math
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    linear_pow,
    naive_mul,
    poly_divmod,
    poly_gcd,
    poly_trim,
    qi_values,
    rand_qi,
    yun_oracle,
)
from zetapoly.exactnum import (
    DensePoly,
    GaussianRational,
    I,
    ONE,
    PowerSeries,
    Record,
    ZERO,
    binom_poly_in_s,
    binom_poly_in_s_scaled,
    common_denominator,
    _clipped,
    decimal_str,
    from_pairs,
    pair_text,
    parse_rational,
    qi,
    reduced,
    str_pair,
)
from zetapoly.cli import main
from zetapoly.delta import run_delta
from zetapoly.errors import InputError
from zetapoly.lvalues import NewformData, NumericPoly, build_r, delta_newform
from zetapoly.polyspace import PolyX
from zetapoly.rootfind import squarefree_parts
from zetapoly.rv import ZetaPoly, rv_forward
from zetapoly.zeta import HilbertReport, as_tolerance, hilbert_hypotheses, laurent_coeffs, thm2_residual


def form(f) -> tuple:
    """The reduced (den, pairs) form of a sequence of Q(i) coefficients."""
    return reduced(*common_denominator(f))


def as_values(parts: list) -> list:
    """``squarefree_parts``'s (form, k) pairs with each form read back as
    its Q(i) coefficients."""
    return [(from_pairs(*g), k) for g, k in parts]


class TestGaussianRational:
    def test_norm_of_one_minus_i(self):
        assert qi(1, -1) * qi(1, 1) == qi(2)

    def test_i_has_order_four(self):
        assert I**10 == qi(-1)
        assert I**4 == ONE
        assert I**-1 == -I

    def test_inverse_of_one_minus_i_squared(self):
        # (1-i)^2 = -2i by hand, so the inverse is i/2
        assert qi(1, -1) ** 2 == qi(0, -2)
        assert qi(1) / qi(1, -1) ** 2 == qi(0, Fraction(1, 2))
        assert qi(1, -1) ** -2 == qi(0, Fraction(1, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_pow_requires_integer(self):
        with pytest.raises(TypeError):
            ONE ** Fraction(1, 2)

    @given(qi_values, qi_values)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(qi_values, qi_values)
    def test_division_roundtrip(self, a, b):
        if not b.is_zero():
            assert (a / b) * b == a

    @given(qi_values)
    def test_conjugate_norm(self, a):
        p = a * qi(a.re, -a.im)
        assert not p.im
        assert p.re == a.norm2()

    @given(qi_values, qi_values, qi_values)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_mixed_scalars(self):
        assert 2 + qi(1, 1) == qi(3, 1)
        assert Fraction(1, 2) * qi(4) == qi(2)
        assert qi(3, 1) - 1 == qi(2, 1)
        assert qi(1, 1) / 2 == qi(Fraction(1, 2), Fraction(1, 2))

    def test_str_pair_serialization(self):
        v = qi(Fraction(36, 691), 0)
        assert v.to_str_pair() == ("36/691", "0/1")
        assert qi(-5, Fraction(1, 3)).to_str_pair() == ("-5/1", "1/3")

    @given(qi_values)
    def test_serialization_roundtrip(self, a):
        # the polynomial parser reads the pair back
        data = {"w": 2, "coeffs": [list(a.to_str_pair()), ["0", "0"], ["0", "0"]]}
        assert PolyX.from_dict(data).coeffs[0] == a

    def test_common_denominator(self):
        den, pairs = common_denominator([qi(Fraction(1, 6), 2), qi(Fraction(3, 4))])
        assert den == 12
        assert pairs == [(2, 24), (9, 0)]


def fraction_oracle(text: str) -> Fraction:
    """The parser that ``parse_rational`` replaced: ``fractions.Fraction``
    behind the decimal-exponent cap."""
    if "e" in text or "E" in text:
        exp = text.strip().lower().rpartition("e")[2].lstrip("+-")
        cap = sys.int_info.default_max_str_digits
        if exp.replace("_", "").isdigit() and int(exp) > cap:
            raise InputError(f"the exponent of {_clipped(repr(text))} exceeds {cap} in magnitude")
    return Fraction(text)


def outcome(parse, text) -> tuple:
    """("ok", the value) or (the exception type, its message)."""
    try:
        value = parse(text)
    except (InputError, ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):
        assert value[1] > 0 and all(type(x) is int for x in value), value
        value = Fraction(*value)
    return "ok", value


def tolerance_oracle(text: str) -> Fraction:
    """``as_tolerance`` on top of ``fraction_oracle``."""
    try:
        out = fraction_oracle(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse tolerance {text!r}") from exc
    if out <= 0:
        raise InputError(f"tolerance must be positive, got {text!r}")
    return out


def entry_outcome(parse, entry) -> tuple:
    """What ``PolyX.from_dict`` makes of the coefficient entry [entry, "0"],
    as ``outcome`` reports it, with ``parse`` reading each part's str()."""
    pair = [entry, "0"]
    try:
        value = parse(str(entry))
    except (ValueError, ZeroDivisionError) as exc:
        return "InputError", f"bad coefficient entry {_clipped(repr(pair))}: {_clipped(str(exc))}"
    except InputError as exc:
        return "InputError", str(exc)
    return "ok", Fraction(*value) if isinstance(value, tuple) else value


def poly_entry(entry) -> tuple:
    data = {"w": 2, "coeffs": [[entry, "0"], ["0", "0"], ["0", "0"]]}
    try:
        return "ok", PolyX.from_dict(data).coeffs[0].re
    except InputError as exc:
        return "InputError", str(exc)


# Strings the parser must read as Fraction does, or refuse with its words.
EDGE_TEXTS = [
    "\u0663", "\u0661\u0662/\u0663", "1_000", "1_000/3_0", "1__0", "_1", "1_", "1_/2",
    " 1/2 ", "\t3/4\n", "\u00a07", "1 / 2", "1/ 2", "1 /2", "- 5", "5 e3",
    "+5", "-5", "+.5", "-.5", ".5", "5.", "5.e3", "+-5", "1/-2", "1/+2", "-0/0",
    "1e4300", "1e-4300", "-1E+4300", "1e4301", "1e-4301", "1E+4301", "1e4_301", "1e\u0664\u0663\u0660\u0661",
    "1/0", "-1/0", "0/0", "nan", "inf", "-inf", "NaN", "infinity",
    "1.d", "1.dd", "1.D", "1.de5", "1.d5", "1e\u00b2", "0x10", "1.2.3", "1/2/3", "1e5e5", "", ".", "-", "e5", "1e", "1/",
    "1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1" * 4301 + "/0", "1/" + "0" * 4301, "0." + "1" * 4301,
    "1e" + "1" * 4301, "x" * 5000,
]
# Pieces of the grammar and of near misses, for the drawn strings.
TOKENS = ["", " ", "\t", "+", "-", "/", ".", "e", "E", "d", "D", "_", "0", "7", "12", "1_0", "\u0663", "\u00b2",
          "\u00a0", "x", "e4300", "e-4300", "e4301", "E-4301", "e+4_301", "nan", "inf"]
grammar_text = st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)
free_text = st.text(st.sampled_from(list("0123456789_+-./eEdD \t") + ["\u0663", "\u00b2", "x"]), max_size=12)


class TestParseRational:
    """``parse_rational`` gives the value ``fractions.Fraction`` gives, or
    raises the error it raises, with the same words, for rational text of
    Fraction's grammar and for near misses; so do the coefficient reader
    and the tolerance reader built on it."""

    @pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda t: _clipped(repr(t), 20))
    def test_edge_texts(self, text):
        assert outcome(parse_rational, text) == outcome(fraction_oracle, text)

    @settings(max_examples=400)
    @given(st.one_of(grammar_text, free_text))
    def test_drawn_texts(self, text):
        assert outcome(parse_rational, text) == outcome(fraction_oracle, text)

    def test_den_is_as_written(self):
        assert parse_rational("6/4") == (6, 4)
        assert parse_rational("-0.0310") == (-310, 10**4)
        assert parse_rational("5.11e-7") == (511, 10**9)
        assert parse_rational("2.5e3") == (25000, 10)

    @pytest.mark.parametrize("entry", EDGE_TEXTS + [True, False, 1.5, -2, 10**30, 1e300, None],
                             ids=lambda t: _clipped(repr(t), 20))
    def test_coefficient_entries(self, entry):
        """JSON true and 1.5 reach the reader as "True" and "1.5"."""
        assert poly_entry(entry) == entry_outcome(parse_rational, entry) == entry_outcome(fraction_oracle, entry)

    @settings(max_examples=200)
    @given(grammar_text)
    def test_drawn_coefficient_entries(self, text):
        assert poly_entry(text) == entry_outcome(fraction_oracle, text)

    @pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda t: _clipped(repr(t), 20))
    def test_tolerances(self, text, capsys):
        expected = outcome(tolerance_oracle, text)
        assert outcome(as_tolerance, text) == expected
        code = main([f"--tol={text}", "wspace", "2"])
        captured = capsys.readouterr()
        if expected[0] == "ok":
            assert (code, captured.err) == (0, "")
        else:
            assert (code, captured.err) == (2, f"error: {expected[1]}\n")

    @settings(max_examples=200)
    @given(grammar_text)
    def test_drawn_tolerances(self, text):
        assert outcome(as_tolerance, text) == outcome(tolerance_oracle, text)


class TestPolyDivision:
    def test_divmod_reconstructs_the_dividend(self):
        rng = random.Random(5)
        for dp, dq in [(0, 0), (3, 5), (6, 2), (8, 8)]:
            p = [rand_qi(rng) for _ in range(dp + 1)]
            q = [rand_qi(rng) for _ in range(dq)] + [qi(1, 1)]
            quot, rem = poly_divmod(p, q)
            assert len(rem) <= dq
            back = naive_mul(quot, q) if quot else []
            back += [ZERO] * (len(p) - len(back))
            for k, c in enumerate(rem):
                back[k] = back[k] + c
            assert poly_trim(back) == poly_trim(p)

    def test_gcd_recovers_a_common_factor(self):
        # (X - i)^2 (X + 1/2) shared; the cofactors X + 3 and X^2 + 2 are coprime
        common = tuple(naive_mul(naive_mul((-I, ONE), (-I, ONE)), (qi(Fraction(1, 2)), ONE)))
        a = naive_mul(common, (qi(3), ONE))
        b = naive_mul(common, (qi(2), ZERO, ONE))
        assert poly_gcd([qi(7) * c for c in a], b) == common
        assert poly_gcd(a, ()) == poly_gcd(a, a) == tuple(c / a[-1] for c in a)
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, (ZERO,))

    def test_squarefree_parts(self):
        x_minus_i, x_plus_half, x_plus_3 = (-I, ONE), (qi(Fraction(1, 2)), ONE), (qi(3), ONE)
        f = naive_mul(naive_mul(x_minus_i, x_minus_i), x_plus_half)
        for _ in range(3):
            f = naive_mul(f, x_plus_3)
        assert as_values(squarefree_parts(form(f))) == [(x_plus_half, 1), (x_minus_i, 2), (x_plus_3, 3)]
        # squarefree inputs return unchanged (the modular coprimality proof)
        g = form(naive_mul(x_minus_i, naive_mul(x_plus_half, x_plus_3)))
        assert squarefree_parts(g) == [(g, 1)]


class TestSquarefreeAgainstYunOracle:
    def test_seeded_products(self):
        # f = prod g_k^k made monic, each g_k with a Gaussian leading
        # coefficient, rational coefficients and often a Gaussian content;
        # degree up to 24, multiplicity up to 4.
        rng = random.Random(1904)
        contents = [ONE, qi(1, 1), qi(2, 1), qi(3), qi(1, 1) * qi(1, -2)]
        exact_runs = 0
        for _ in range(60):
            f = [ONE]
            for k in range(1, rng.randint(1, 4) + 1):
                if len(f) + k > 25 or rng.random() < 0.25:
                    continue
                degree = rng.randint(1, (25 - len(f)) // k)
                g = [rand_qi(rng, span=9, max_den=6) for _ in range(degree)]
                g = [rng.choice(contents) * c for c in g + [qi(rng.randint(1, 5), rng.randint(-5, 5))]]
                for _ in range(k):
                    f = naive_mul(f, g)
            if len(f) < 2:
                continue
            f = tuple(c / f[-1] for c in f)
            split = squarefree_parts(form(f))
            assert all(reduced(*g) == g for g, _ in split)  # each form stays canonical
            parts = as_values(split)
            assert parts == yun_oracle(f)
            back = [ONE]
            for g, k in parts:
                for _ in range(k):
                    back = naive_mul(back, g)
            assert tuple(back) == f
            exact_runs += parts != [(f, 1)]
        assert exact_runs >= 30


def binom(n: int, k: int) -> Fraction:
    """C(n, k) for an integer n of either sign: the constant polynomial
    C(n + 0 s, k) that ``binom_poly_in_s`` expands."""
    coeffs = binom_poly_in_s(k, n, 0)
    assert not any(coeffs[1:])
    return coeffs[0]


class TestBinomInt:
    def test_plain(self):
        assert binom(12, 10) == 66

    def test_negative_upper(self):
        assert binom(-1, 2) == 1
        assert binom(-3, 3) == -10

    def test_zero_band(self):
        assert binom(3, 5) == 0
        assert binom(0, 1) == 0

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binom_poly_in_s(-1, 5, 0)

    def test_against_geometric_series_oracle(self):
        # coefficient of X^3 in (1-X)^(-11), via exact series inversion
        w, n = 10, 3
        denom = PowerSeries(tuple(linear_pow(qi(-1), ONE, w + 1)))
        inv = denom.inverse(n + 1)
        assert inv.coeffs == tuple(qi(math.comb(w + t, t)) for t in range(n + 1))
        assert binom(w + n, n) == 286


class TestBinomPoly:
    def test_w2_shift2(self):
        # C(2 - s, 2) = (2-s)(1-s)/2 = 1 - 3s/2 + s^2/2
        assert binom_poly_in_s(2, 2, -1) == (
            Fraction(1),
            Fraction(-3, 2),
            Fraction(1, 2),
        )

    def test_scaled_matches(self):
        for w, shift, slope in [(2, 2, -1), (4, 1, 1), (6, -1, -1)]:
            scaled = binom_poly_in_s_scaled(w, shift, slope)
            plain = binom_poly_in_s(w, shift, slope)
            fact = math.factorial(w)
            assert tuple(Fraction(c, fact) for c in scaled) == plain

    @given(st.integers(-6, 6), st.sampled_from([2, 4, 6]), st.integers(-4, 8))
    def test_agrees_with_falling_factorial_at_integers(self, shift, w, s0):
        coeffs = binom_poly_in_s(w, shift, 1)
        value = sum(c * s0**t for t, c in enumerate(coeffs))
        falling = math.prod(shift + s0 - t for t in range(w))
        assert value == Fraction(falling, math.factorial(w))


class TestStrPairs:
    """``DensePoly.to_str_pairs`` writes each coefficient exactly as
    ``GaussianRational.to_str_pair`` writes it: in lowest terms, with a
    positive denominator, "0/1" for zero, past the 4300-digit cap too."""

    @staticmethod
    def _via_coeffs(P):
        return [list(c.to_str_pair()) for c in P.coeffs]

    def test_zero_and_negative_parts(self):
        P = PolyX.make(4, [0, Fraction(-3, 4), qi(Fraction(5, 6), Fraction(-2, 3)), qi(0, -7)])
        expected = [["0/1", "0/1"], ["-3/4", "0/1"], ["5/6", "-2/3"], ["0/1", "-7/1"], ["0/1", "0/1"]]
        assert P.to_str_pairs() == expected == self._via_coeffs(P)
        assert PolyX.make(2, []).to_str_pairs() == [["0/1", "0/1"]] * 3

    @given(st.lists(qi_values, min_size=1, max_size=9))
    def test_matches_the_per_coefficient_form(self, coeffs):
        P = PolyX.make(len(coeffs) + len(coeffs) % 2, coeffs)
        assert P.to_str_pairs() == self._via_coeffs(P)

    def test_past_the_int_to_str_cap(self):
        cap = sys.get_int_max_str_digits()
        big = 10**5000 + 7
        P = PolyX.make(2, [Fraction(-big, 3), Fraction(2, big), qi(Fraction(1, 6), Fraction(big, 4))])
        pairs = P.to_str_pairs()
        assert sys.get_int_max_str_digits() == cap
        assert pairs == self._via_coeffs(P)
        digits = "1" + "0" * 4999 + "7"
        assert pairs[0][0] == f"-{digits}/3"
        assert pairs[1] == [f"2/{digits}", "0/1"]


def _lifted(x: int) -> str:
    """str(x) with Python's int-to-str cap lifted: the reference printer."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(cap)


class TestDecimalStr:
    """``decimal_str`` and the printers built on it write ints of any size as
    ``str`` does with the cap lifted, and read or write no interpreter
    setting: the cap is global, so lifting it for one call lifts it for every
    thread, and restoring it can fail another thread's conversion."""

    @pytest.mark.parametrize("cap", [None, 640])
    def test_matches_str_without_touching_the_cap(self, cap):
        rng = random.Random(131)
        values = []
        for digits in (4299, 4301, 10_000, 50_000):
            for x in (rng.randrange(10 ** (digits - 1), 10**digits), 10 ** (digits - 1) + 7):
                values += [x, -x]
        text = {x: _lifted(x) for x in values}
        saved = sys.get_int_max_str_digits()
        try:
            if cap:
                sys.set_int_max_str_digits(cap)
            with mock.patch.object(sys, "set_int_max_str_digits", side_effect=AssertionError), \
                    mock.patch.object(sys, "get_int_max_str_digits", side_effect=AssertionError):
                for x in values:
                    whole, unit = [f"{text[x]}/1", f"{text[-x]}/1"], [f"1/{text[abs(x)]}", f"-1/{text[abs(x)]}"]
                    assert decimal_str(x) == text[x] == str(qi(x))
                    assert str_pair(1, (x, -x)) == whole and str_pair(abs(x), (1, -1)) == unit
                    assert PolyX(2, 1, ((x, -x), (0, 0), (0, 0))).to_str_pairs()[0] == whole
                    assert PolyX(2, abs(x), ((0, 0), (1, -1), (0, 0))).to_str_pairs()[1] == unit
        finally:
            sys.set_int_max_str_digits(saved)

    def test_concurrent_prints_neither_fail_nor_move_the_cap(self):
        # six threads print a 4,400-digit int at once, switching every
        # microsecond, and read the cap after each print; a printer that
        # lifts and restores the global cap shows it lifted to the others,
        # and a restore that overtakes another's print fails that print
        x = -(10**4399 + 12345)
        text = _lifted(x)
        cap, interval = sys.get_int_max_str_digits(), sys.getswitchinterval()
        results = {}
        start = threading.Barrier(6)

        def work(i):
            start.wait(timeout=60)
            results[i] = all(decimal_str(x) == text and sys.get_int_max_str_digits() == cap
                             for _ in range(500))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == dict.fromkeys(range(6), True)
        finally:
            sys.setswitchinterval(interval)
            sys.set_int_max_str_digits(cap)


_BIG = st.integers(1, 999).map(lambda k: 10**4400 + k)  # past the 4300-digit int-to-str cap
_PARTS = st.one_of(st.just(0), st.integers(-60, 60), _BIG, _BIG.map(lambda x: -x))
_DENS = st.one_of(st.just(1), st.integers(1, 60), _BIG)


class TestPairPrinters:
    """The printers of the (den, pairs) form write the bytes of the Q(i)
    value type's printers, which serve as the reference: ``pair_text`` those
    of ``str(GaussianRational)``, ``str_pair`` those of ``to_str_pair``."""

    @given(_DENS, _PARTS, _PARTS)
    def test_match_the_value_printers(self, den, x, y):
        cap = sys.get_int_max_str_digits()
        value = GaussianRational(Fraction(x, den), Fraction(y, den))
        assert pair_text(den, (x, y)) == str(value)
        assert str_pair(den, (x, y)) == list(value.to_str_pair())
        assert sys.get_int_max_str_digits() == cap

    @pytest.mark.parametrize("den,pair,text", [
        (1, (0, 0), "0"), (6, (-3, 0), "-1/2"), (6, (0, -4), "-2/3*i"), (1, (5, 1), "5+1*i"),
        (4, (2, -6), "1/2-3/2*i"), (3, (-3, 3), "-1+1*i"),
    ])
    def test_zero_and_negative_parts(self, den, pair, text):
        assert pair_text(den, pair) == text == str(from_pairs(den, [pair])[0])


class TestPowerSeries:
    def test_geometric_inverse(self):
        one_minus_x = PowerSeries((ONE, qi(-1)))
        inv = one_minus_x.inverse(5)
        assert inv.coeffs == (ONE,) * 5

    def test_linear_gaussian_inverse(self):
        # solving c0*i = 1 and c1*i + c0*(1-i) = 0 gives c0 = -i, c1 = 1-i
        p = PowerSeries((I, qi(1, -1)))
        inv = p.inverse(2)
        assert inv.coeffs == (-I, qi(1, -1))
        assert p.mul(inv, 2).coeffs == (ONE, ZERO)

    @given(st.lists(qi_values, min_size=1, max_size=6), st.integers(1, 8))
    def test_inverse_roundtrip(self, coeffs, order):
        if coeffs[0].is_zero():
            coeffs[0] = ONE
        p = PowerSeries(tuple(coeffs))
        prod = p.mul(p.inverse(order), order)
        assert prod.coeffs == (ONE,) + (ZERO,) * (order - 1)

    def test_inverse_requires_unit(self):
        p = PowerSeries((ZERO, ONE))
        with pytest.raises(ZeroDivisionError):
            p.inverse(3)


class TestRecord:
    """The immutable-record base of the value classes, which replaced
    frozen dataclasses: the same semantics, without the import."""

    @pytest.fixture(scope="class")
    def records(self) -> list:
        R = PolyX.make(10, [0, 4, 0, 25, 0, 42, 0, 25, 0, 4, 0])
        Z = rv_forward(R)
        nf, delta = delta_newform(64), run_delta(64)
        return [
            R, Z, PowerSeries((ONE, I)), nf, build_r(nf, 64), laurent_coeffs(10, 1, 2),
            thm2_residual(Z, 1), hilbert_hypotheses(Z), delta.z_roots, delta,
        ]

    def test_every_record_class_is_covered(self, records):
        def subclasses(cls):
            return {cls} | {c for s in cls.__subclasses__() for c in subclasses(s)}

        assert {type(r) for r in records} == subclasses(Record) - {Record, DensePoly}

    def test_fields_cannot_be_assigned_or_deleted(self, records):
        for r in records:
            field = type(r)._fields[0]
            with pytest.raises(AttributeError, match="immutable"):
                setattr(r, field, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(r, field)
            with pytest.raises(AttributeError, match="immutable"):
                r.extra = 1

    def test_equal_values_hash_alike_only_within_one_class(self, records):
        for r in records:
            twin = type(r)(*r._values())
            assert twin is not r and twin == r and hash(twin) == hash(r)
            assert r != r._values()
        R, Z = records[0], records[1]
        assert ZetaPoly(R.w, R.den, R.pairs) != R and R != ZetaPoly(R.w, R.den, R.pairs)

    def test_polynomials_are_reduced_when_built(self):
        P = PolyX(2, 6, ((2, 0), (4, 2), (0, 6)))
        assert (P.den, P.pairs) == (3, ((1, 0), (2, 1), (0, 3)))
        assert P == PolyX.make(2, [Fraction(1, 3), qi(Fraction(2, 3), Fraction(1, 3)), I])

    def test_cached_properties_are_built_once(self, records):
        P, report = records[0], records[6]
        assert P.coeffs is P.coeffs and "coeffs" in vars(P)
        assert report.partial_sums is report.partial_sums and "partial_sums" in vars(report)

    def test_fields_are_taken_as_a_dataclass_takes_them(self):
        assert NumericPoly(2, 0, (1, 2, 3), 64) == NumericPoly(w=2, prec=64, exp=0, mans=(1, 2, 3), errs=None)
        assert NewformData(1, 12, 1, (1,)).label == ""
        for args, kwargs in [
            ((True, True, True, "", 0), {}),  # too many
            ((True, True, True), {}),  # detail missing
            ((True, True, True, ""), {"detail": ""}),  # detail twice
            ((True, True, True, ""), {"extra": 0}),  # no such field
        ]:
            with pytest.raises(TypeError, match="HilbertReport"):
                HilbertReport(*args, **kwargs)
