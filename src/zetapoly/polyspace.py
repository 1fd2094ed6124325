"""Polynomials in the period variable X and the relations they satisfy.

The space V_w of polynomials of degree at most w carries a weight -w
action of 2x2 matrices (the slash operator).  This module implements
that action exactly over Q(i), the residuals of the Fricke relation and
of the Eichler-Shimura relations (both in the classical variable and in
the rescaled variable), and the space W_w cut out by the classical
relations, computed by integer elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from zetapoly.errors import InputError
from zetapoly.exactnum import (
    I,
    DensePoly,
    GaussianRational,
    common_denominator,
    require_even_w,
)

# ---------------------------------------------------------------------
# Dense polynomials in X over Q(i)
# ---------------------------------------------------------------------


class PolyX(DensePoly):
    """A polynomial of degree <= w in the period variable X (see DensePoly)."""

    VARIABLE = "X"


# ---------------------------------------------------------------------
# 2x2 matrices and the slash action
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over Q(i) with nonzero determinant."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, GaussianRational.coerce(getattr(self, name)))
        if self.det().is_zero():
            raise InputError("matrix is not invertible")

    def det(self) -> GaussianRational:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


S_MAT = Mat2(0, -1, 1, 0)
U_MAT = Mat2(1, -1, 1, 0)

# Matrices realizing the rescaled three-term relation; both have det 1,
# so the slash normalization factor is exactly 1.
_RES2_MAT_B = Mat2(1, -I, -I, 0)
_RES2_MAT_C = Mat2(0, -I, -I, -1)


def slash(P: PolyX, g: Mat2) -> PolyX:
    """The weight -w slash action det(g)^(-w/2) (cX+d)^w P((aX+b)/(cX+d)).

    Exact over Q(i): since w is even, det(g)^(-w/2) is an integer power
    of the determinant and no square root is ever taken.

    Scaling g by a common denominator e of its entries multiplies
    sum_j a_j (aX+b)^j (cX+d)^(w-j) by e^w and det(g)^(-w/2) by e^(-w),
    so it is harmless: the sum runs by Horner's rule in (aX+b) on
    Gaussian-integer (re, im) pairs, and det(g)^(-w/2) / (den * e^w)
    is applied once at the end.
    """
    w = P.w
    den, pairs = common_denominator(P.coeffs)
    e, (a, b, c, d) = common_denominator((g.a, g.b, g.c, g.d))
    den_pows = [[(1, 0)]]  # den_pows[t] = (cX+d)^t
    for _ in range(w):
        den_pows.append(_mul_linear(den_pows[-1], c, d))
    acc: list[tuple[int, int]] = []
    for j in range(w, -1, -1):
        acc = _mul_linear(acc, a, b)
        pr, pm = pairs[j]
        if pr or pm:
            acc = [
                (r + pr * qr - pm * qm, m + pr * qm + pm * qr)
                for (r, m), (qr, qm) in zip(acc, den_pows[w - j])
            ]
    factor = g.det() ** (-(w // 2)) * Fraction(1, den * e**w)
    return PolyX(w, tuple(factor * GaussianRational(r, m) for r, m in acc))


def _mul_linear(coeffs: list, a: tuple[int, int], b: tuple[int, int]) -> list:
    """Multiply a dense list of Gaussian-integer (re, im) pairs by (a*X + b)."""
    (ar, am), (br, bm) = a, b
    out = [(cr * br - cm * bm, cr * bm + cm * br) for cr, cm in coeffs] + [(0, 0)]
    for t, (cr, cm) in enumerate(coeffs, 1):
        r, m = out[t]
        out[t] = (r + cr * ar - cm * am, m + cr * am + cm * ar)
    return out


# ---------------------------------------------------------------------
# Relation residuals
# ---------------------------------------------------------------------


def fricke_residual(R: PolyX, eps: int) -> PolyX:
    """Residual of R(X) + eps * i^w * X^w R(1/X), computed coefficientwise.

    The reversal X^w R(1/X) swaps coefficient j with w-j, so the residual
    coefficients are a_j + eps i^w a_{w-j}; the zero polynomial is
    returned exactly when the Fricke relation holds.
    """
    if eps not in (1, -1):
        raise InputError(f"eps must be +1 or -1, got {eps!r}")
    w = R.w
    phase = GaussianRational(eps) * I**w
    res = [R.coeffs[j] + phase * R.coeffs[w - j] for j in range(w + 1)]
    return PolyX(w, tuple(res))


def rescaled_es1_residual(R: PolyX) -> PolyX:
    """Residual of the two-term relation R(X) + (-iX)^w R(1/X).

    This is the slash by [[0, -i], [-i, 0]] (det 1), and (-i)^w = i^w for
    even w, so it is the Fricke residual with eps = +1.
    """
    return fricke_residual(R, 1)


def rescaled_es2_residual(R: PolyX) -> PolyX:
    """Residual of the three-term relation
    R(X) + (-iX)^w R((X-i)/(-iX)) + (-iX-1)^w R(-i/(-iX-1)).

    Each substitution is expanded exactly over Q(i); every term is a
    polynomial of degree <= w because the matrices have determinant 1.
    """
    return R + slash(R, _RES2_MAT_B) + slash(R, _RES2_MAT_C)


def es1_residual(r: PolyX) -> PolyX:
    """r|(1+S) without the slash: for even w, (r|S)_t = (-1)^t r_(w-t)."""
    flipped = (-a if t % 2 else a for t, a in enumerate(reversed(r.coeffs)))
    return r + PolyX(r.w, tuple(flipped))


def es_residuals(r: PolyX) -> tuple[PolyX, PolyX]:
    """Residuals of the classical relations r|(1+S) and r|(1+U+U^2)."""
    res_u = r + slash(r, U_MAT) + slash(r, U_MAT @ U_MAT)
    return es1_residual(r), res_u


# ---------------------------------------------------------------------
# The space W_w cut out by the classical relations
# ---------------------------------------------------------------------


def wspace_basis(w: int) -> tuple[list[PolyX], int, int]:
    """Primitive integer basis of W_w = {P : P|(1+S) = P|(1+U+U^2) = 0},
    together with the dimensions of its even and odd parity parts.

    The stacked integer system is solved by fraction-free elimination
    with pivots chosen at the lowest available column index, so the
    emitted basis is deterministic.
    """
    require_even_w(w)
    rows = _relation_rows(w)
    cols = list(range(w + 1))
    basis = [
        PolyX(w, tuple(GaussianRational(v) for v in vec))
        for vec in _integer_nullspace(rows, cols)
    ]
    dim_plus = len(_integer_nullspace(rows, cols[0::2]))
    dim_minus = len(_integer_nullspace(rows, cols[1::2]))
    return basis, dim_plus, dim_minus


def _relation_rows(w: int) -> list[list[int]]:
    """Rows of the stacked (1+S, 1+U+U^2) system; column j is the image
    of the monomial X^j.

    S, U and U^2 have determinant 1, so X^j|S = (-1)^j X^(w-j),
    X^j|U = (X-1)^j X^(w-j) and X^j|U^2 = (-1)^j (X-1)^(w-j); as w is
    even, the X^t coefficient of the last two is (-1)^t times a binomial.
    """
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


def _integer_nullspace(rows: list[list[int]], cols: list[int]) -> list[list[int]]:
    """Nullspace basis of the columns ``cols`` of an integer matrix via
    fraction-free Gauss-Jordan elimination.

    Each updated row is divided by its content, so the entries stay small.
    Basis vectors are primitive integer vectors with a positive first
    nonzero entry, one per free column in ascending order.
    """
    matrix = [[row[c] for c in cols] for row in rows]
    ncols = len(cols)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        sel = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if sel is None:
            continue
        matrix[rank], matrix[sel] = matrix[sel], matrix[rank]
        prow = matrix[rank]
        pv = prow[col]
        for r, row in enumerate(matrix):
            f = row[col]
            if r != rank and f:
                row = [pv * v - f * p for v, p in zip(row, prow)]
                g = math.gcd(*row)
                matrix[r] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        # row r reads matrix[r][pc] * x_pc + matrix[r][fc] * x_fc = 0
        scale = math.lcm(*(matrix[r][pc] for r, pc in enumerate(pivots) if matrix[r][fc]))
        vec = [0] * ncols
        vec[fc] = scale
        for r, pc in enumerate(pivots):
            vec[pc] = -matrix[r][fc] * scale // matrix[r][pc]
        g = math.gcd(*vec)
        sign = -1 if next(v for v in vec if v) < 0 else 1
        basis.append([sign * v // g for v in vec])
    return basis
