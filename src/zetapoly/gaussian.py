"""The Q(i) value type and the helpers built on it.

Every command runs on the integer form (den, pairs) of ``exactnum``; the
values here are built only when read: ``DensePoly.coeffs``,
``LaurentCoeffs.coeff`` and the exact parts of ``Thm2Report``.  The
tests and the acceptance criteria use them as oracles.  No command loads
this module; ``exactnum`` serves its names on first use (PEP 562).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from zetapoly.exactnum import Record, as_ratio, decimal_str, rational_parts

Rationalish = Union[int, Fraction, str]


def _as_fraction(x) -> Fraction:
    """x itself if a Fraction, else the Fraction of what ``exactnum.as_ratio``
    reads: an int, rational text or a (num, den) pair."""
    return x if isinstance(x, Fraction) else Fraction(*as_ratio(x))


class GaussianRational:
    """An exact element of Q(i), stored as a (re, im) pair of Fractions.

    Fractions keep denominators positive and in lowest terms, so equality
    is exact structural equality of the normalized form.  Instances are
    immutable by convention; every operation returns a new value.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        """x itself, or the value of what ``exactnum.rational_parts`` reads."""
        return x if isinstance(x, GaussianRational) else cls(*rational_parts(x))

    def to_str_pair(self) -> tuple[str, str]:
        """Serialize as ("p/q", "r/s"), always carrying the denominator."""
        return tuple(f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}" for x in (self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def norm2(self) -> Fraction:
        """|z|^2 = re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        return self * o.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base, result = self.inverse() if n < 0 else self, ONE
        for bit in bin(abs(n))[2:]:  # square and multiply, leading bit first
            result = result * result * base if bit == "1" else result * result
        return result

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = (part.removesuffix("/1") for part in self.to_str_pair())
        if not self.im:
            return re
        if not self.re:
            return f"{im}*i"
        return f"{re}{'+' if self.im > 0 else '-'}{im.lstrip('-')}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def qi(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor for Q(i) values."""
    return GaussianRational(re, im)


def from_pairs(den: int, pairs) -> tuple[GaussianRational, ...]:
    """The Q(i) values (p + q i)/den of the integer form (den, pairs)."""
    return tuple(GaussianRational(Fraction(p, den), Fraction(q, den)) for p, q in pairs)


# ---------------------------------------------------------------------
# Generalized binomial coefficients
# ---------------------------------------------------------------------

def binom_poly_in_s_scaled(w: int, shift: int, slope: int) -> tuple[int, ...]:
    """Integer coefficients (ascending in s) of w! * C(shift + slope*s, w).

    Expands the falling factorial (shift + slope*s)(shift + slope*s - 1)
    ... (shift + slope*s - w + 1) exactly, avoiding interpolation.
    """
    if w < 0:
        raise ValueError("w must be non-negative")
    coeffs = [1]
    for t in range(w):  # times (shift - t + slope*s)
        coeffs = [(shift - t) * c + slope * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def binom_poly_in_s(w: int, shift: int, slope: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending in s) of C(shift + slope*s, w) as a polynomial in s."""
    fact = math.factorial(w)
    return tuple(Fraction(c, fact) for c in binom_poly_in_s_scaled(w, shift, slope))


# ---------------------------------------------------------------------
# Truncated power series over Q(i)
# ---------------------------------------------------------------------

class PowerSeries(Record):
    """The first ``len(coeffs)`` terms of a power series sum_t coeffs[t] x^t
    over Q(i)."""

    coeffs: tuple[GaussianRational, ...]

    def mul(self, other: "PowerSeries", order: int) -> "PowerSeries":
        """The first ``order`` terms of the product."""
        out = [ZERO] * order
        for a, ca in enumerate(self.coeffs[:order]):
            for b, cb in enumerate(other.coeffs[: order - a]):
                out[a + b] = out[a + b] + ca * cb
        return PowerSeries(tuple(out))

    def inverse(self, order: int) -> "PowerSeries":
        """The first ``order`` terms of the multiplicative inverse; raises
        ZeroDivisionError when the constant term is 0."""
        c0inv = self.coeffs[0].inverse()
        out = [c0inv] + [ZERO] * (order - 1)
        for t in range(1, order):
            terms = range(1, min(t, len(self.coeffs) - 1) + 1)
            out[t] = -c0inv * sum((self.coeffs[u] * out[t - u] for u in terms), ZERO)
        return PowerSeries(tuple(out))
