"""The transform between period-style polynomials R(X) and zeta-polynomials Z(s).

Z is the unique polynomial of degree <= w with

    R(X) / (1 - X)^(w+1)  =  sum_{n >= 0} Z(-n) X^n.

The forward map writes R in the Bernstein basis X^k (1 - X)^(w-k) with
coordinates c_k; since X^k / (1 - X)^(k+1) = sum_n C(n, k) X^n, this gives
Z(s) = sum_k c_k C(-s, k), expanded by one Horner pass in the rising
factorial.  The inverse uses the finite convolution with (1 - X)^(w+1).
Both directions are exact, run on integers in O(w^2), and round-trip to
the identity.
"""

from __future__ import annotations

import math

from zetapoly.errors import InputError
from zetapoly.exactnum import DensePoly, GaussianRational, from_pairs
from zetapoly.polyspace import PolyX


class ZetaPoly(DensePoly):
    """A polynomial of degree <= w in the zeta variable s (see DensePoly)."""

    VARIABLE = "s"


# ---------------------------------------------------------------------
# The transform
# ---------------------------------------------------------------------


def rv_forward(R: PolyX) -> ZetaPoly:
    """Z(s) = sum_k c_k C(-s, k), exactly, where R = sum_k c_k X^k (1-X)^(w-k).

    The map is real-linear, so the real and imaginary numerators of R
    each go through ``_scaled_forward`` on plain integers, over the
    denominator w! times R's.
    """
    re, im = (_scaled_forward(part) for part in zip(*R.pairs))
    return ZetaPoly(R.w, R.den * math.factorial(R.w), tuple(zip(re, im)))


def _scaled_forward(a: tuple[int, ...], sign: int = -1) -> list[int]:
    """Coefficients of w! Z(s) for R = sum_j a_j X^j with integer a_j.

    The Bernstein coordinates c_k = sum_{j<=k} a_j C(w-j, k-j) are the
    coefficients of sum_j a_j Y^j (1+Y)^(w-j), built by Horner's rule in
    (1 + Y).  Then w! Z(s) = sum_k (-1)^k (w!/k!) c_k s(s+1)...(s+k-1) is
    expanded by Horner's rule in the rising factorial, from k = w down
    to 0.  Each pass is O(w^2) integer additions and small multiples.
    ``sign=1`` drops the (-1)^k: every coefficient of the map is then >= 0.
    """
    bern: list[int] = []
    for x in a:  # bern <- bern * (1 + Y) + a_j Y^j
        bern = [p + q for p, q in zip(bern + [x], [0] + bern)]
    acc: list[int] = []
    fall = 1  # w!/k!
    for k in range(len(a) - 1, -1, -1):  # acc <- acc * (s + k) + sign^k (w!/k!) c_k
        acc = [k * p + q for p, q in zip(acc + [0], [0] + acc)]
        acc[0] += sign**k * fall * bern[k]
        fall *= k
    return acc


def _series_values_int(Z: ZetaPoly, count: int) -> tuple[int, list[tuple[int, int]]]:
    """(den, pairs) with Z(-n) = (pairs[n][0] + pairs[n][1] i)/den, by
    integer Horner evaluation."""
    out = []
    for n in range(count):
        x, r, m = -n, 0, 0
        for cr, cm in reversed(Z.pairs):
            r, m = r * x + cr, m * x + cm
        out.append((r, m))
    return Z.den, out


def series_coeffs(Z: ZetaPoly, count: int) -> list[GaussianRational]:
    """The generating-series values Z(0), Z(-1), ..., Z(-count+1)."""
    if count < 1:
        raise InputError("count must be >= 1")
    return list(from_pairs(*_series_values_int(Z, count)))


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
        r = im = 0
        for j in range(m + 1):
            zr, zm = zvals[m - j]
            r += zr * signed[j]
            im += zm * signed[j]
        out.append((r, im))
    return PolyX(w, den, tuple(out))
