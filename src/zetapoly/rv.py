"""The transform between period-style polynomials R(X) and zeta-polynomials Z(s).

Z is the unique polynomial of degree <= w with

    R(X) / (1 - X)^(w+1)  =  sum_{n >= 0} Z(-n) X^n.

The forward map uses the closed form Z(s) = sum_j a_j C(w - s - j, w)
(a basis expansion in exact binomial polynomials); the inverse uses the
finite convolution with (1 - X)^(w+1).  Both directions are exact and
round-trip to the identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from zetapoly.errors import InputError
from zetapoly.exactnum import (
    DensePoly,
    GaussianRational,
    binom_poly_in_s_scaled,
    common_denominator,
)
from zetapoly.polyspace import PolyX


class ZetaPoly(DensePoly):
    """A polynomial of degree <= w in the zeta variable s (see DensePoly)."""

    VARIABLE = "s"

    def at_int(self, n: int) -> GaussianRational:
        return self.evaluate(GaussianRational(n))


# ---------------------------------------------------------------------
# Binomial basis polynomials
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _basis_coeffs_scaled(w: int, j: int) -> tuple[int, ...]:
    """Integer coefficients of w! * C(w - s - j, w)."""
    return binom_poly_in_s_scaled(w, w - j, -1)


# ---------------------------------------------------------------------
# The transform
# ---------------------------------------------------------------------


def rv_forward(R: PolyX) -> ZetaPoly:
    """Z(s) = sum_j a_j C(w - s - j, w), exactly.

    Denominators are cleared once so the double loop runs on plain
    integers; each output coefficient is normalized exactly once.
    """
    w = R.w
    den, pairs = common_denominator(R.coeffs)
    scale = den * math.factorial(w)
    acc = [[0, 0] for _ in range(w + 1)]
    for j, (ar, am) in enumerate(pairs):
        if not ar and not am:
            continue
        for t, b in enumerate(_basis_coeffs_scaled(w, j)):
            if b:
                acc[t][0] += ar * b
                acc[t][1] += am * b
    return ZetaPoly(
        w,
        tuple(GaussianRational(Fraction(r, scale), Fraction(m, scale)) for r, m in acc),
    )


def _series_values_int(Z: ZetaPoly, count: int) -> tuple[int, list[tuple[int, int]]]:
    """(den, pairs) with Z(-n) = (pairs[n][0] + pairs[n][1] i)/den, by
    integer Horner evaluation."""
    den, pairs = common_denominator(Z.coeffs)
    out = []
    for n in range(count):
        x = -n
        r = 0
        m = 0
        for cr, cm in reversed(pairs):
            r = r * x + cr
            m = m * x + cm
        out.append((r, m))
    return den, out


def series_coeffs(Z: ZetaPoly, count: int) -> list[GaussianRational]:
    """The generating-series values Z(0), Z(-1), ..., Z(-count+1)."""
    if count < 1:
        raise InputError("count must be >= 1")
    den, vals = _series_values_int(Z, count)
    return [
        GaussianRational(Fraction(r, den), Fraction(m, den)) for r, m in vals
    ]


def rv_inverse(Z: ZetaPoly) -> PolyX:
    """Recover R(X) from Z(s) by convolving the series with (1 - X)^(w+1).

    r_m = sum_{j=0}^{m} (-1)^j C(w+1, j) Z(-(m-j)) for m = 0 .. w, so only
    the w+1 values Z(0) .. Z(-w) are formed.  The tail of the product
    (m > w) is not formed: there the convolution is an order w+1 finite
    difference of a polynomial of degree <= w (DensePoly holds exactly
    w+1 coefficients), which vanishes identically.
    """
    w = Z.w
    den, zvals = _series_values_int(Z, w + 1)
    signed = [(-1) ** j * math.comb(w + 1, j) for j in range(w + 1)]
    out = []
    for m in range(w + 1):
        r = 0
        im = 0
        for j in range(m + 1):
            zr, zm = zvals[m - j]
            r += zr * signed[j]
            im += zm * signed[j]
        out.append(GaussianRational(Fraction(r, den), Fraction(im, den)))
    return PolyX(w, tuple(out))
