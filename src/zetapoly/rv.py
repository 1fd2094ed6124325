"""The transform between period-style polynomials R(X) and zeta-polynomials Z(s).

Z is the unique polynomial of degree <= w with

    R(X) / (1 - X)^(w+1)  =  sum_{n >= 0} Z(-n) X^n.

The forward map writes R in the Bernstein basis X^k (1 - X)^(w-k) with
coordinates c_k; since X^k / (1 - X)^(k+1) = sum_n C(n, k) X^n, this gives
Z(s) = sum_k c_k C(-s, k), expanded by one Horner pass in the rising
factorial.  The inverse runs both passes backwards: synthetic division by
s + k recovers the c_k, and the Bernstein sum in (1 - X) gives R.  Both
are exact, run on integers in O(w^2), and round-trip to the identity.
"""

from __future__ import annotations

import math

from zetapoly.errors import InputError
from zetapoly.exactnum import DensePoly
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
    denominator w! times R's; a zero part maps to itself.
    """
    re, im = (_scaled_forward(part) if any(part) else part for part in zip(*R.pairs))
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


def series_coeffs(Z: ZetaPoly, count: int) -> list[tuple[int, int]]:
    """The generating-series values Z(0), Z(-1), ..., Z(-count+1) as
    Gaussian-integer pairs over Z.den, by integer Horner evaluation."""
    if count < 1:
        raise InputError("count must be >= 1")
    out = []
    for n in range(count):
        x, r, m = -n, 0, 0
        for cr, cm in reversed(Z.pairs):
            r, m = r * x + cr, m * x + cm
        out.append((r, m))
    return out


def rv_inverse(Z: ZetaPoly) -> PolyX:
    """Recover R(X) from Z(s) by running ``rv_forward`` backwards.

    On the real and the imaginary numerators of Z apart, synthetic
    division of den Z by s, s + 1, ..., s + w leaves the d_k of
    den Z = sum_k d_k s(s+1)...(s+k-1), so den c_k = (-1)^k k! d_k.  Each
    joins den R = sum_k den c_k X^k (1-X)^(w-k) as it comes, by the
    Bernstein pass of ``_scaled_forward`` with (1 - X) for (1 + Y).  Both
    passes are O(w^2) integer operations; R is over Z's denominator.
    """
    parts = []
    for q in map(list, zip(*Z.pairs)):
        bern, fact = [], 1  # fact = (-1)^k k!
        for k in range(Z.w + 1 if any(q) else 0):  # q <- (q - d_k) / (s + k), d_k the remainder
            acc = 0
            for i in range(len(q) - 1, -1, -1):
                acc = q[i] = q[i] - k * acc
            bern = [b - c for b, c in zip(bern + [fact * q.pop(0)], [0] + bern)]
            fact *= -(k + 1)
        parts.append(bern or q)  # a zero part maps to itself
    return PolyX(Z.w, Z.den, tuple(zip(*parts)))
