"""Polynomials in the period variable X and the relations they satisfy.

The space V_w of polynomials of degree at most w carries a weight -w
action of 2x2 matrices (the slash operator).  This module implements
that action exactly over Q(i), the residuals of the Fricke relation and
of the Eichler-Shimura relations (both in the classical variable and in
the rescaled variable), parity splitting, the change of variable between
the two normalizations, and the exact nullspace computation for the
space W_w cut out by the relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from zetapoly.errors import ConsistencyError, InputError
from zetapoly.exactnum import (
    I,
    ZERO,
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

    @classmethod
    def zero(cls, w: int) -> "PolyX":
        return cls.make(w, [])

    def __neg__(self) -> "PolyX":
        return PolyX(self.w, tuple(-a for a in self.coeffs))

    def parity_split(self) -> tuple["PolyX", "PolyX"]:
        """Return (even part, odd part); they sum to the polynomial."""
        even = [c if j % 2 == 0 else ZERO for j, c in enumerate(self.coeffs)]
        odd = [c if j % 2 == 1 else ZERO for j, c in enumerate(self.coeffs)]
        return PolyX(self.w, tuple(even)), PolyX(self.w, tuple(odd))


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

# Matrices realizing the rescaled-variable relations; all have det 1,
# so the slash normalization factor is exactly 1.
_RES1_MAT = Mat2(0, -I, -I, 0)
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
    """Residual of the two-term relation R(X) + (-iX)^w R(1/X)."""
    return R + slash(R, _RES1_MAT)


def rescaled_es2_residual(R: PolyX) -> PolyX:
    """Residual of the three-term relation
    R(X) + (-iX)^w R((X-i)/(-iX)) + (-iX-1)^w R(-i/(-iX-1)).

    Each substitution is expanded exactly over Q(i); every term is a
    polynomial of degree <= w because the matrices have determinant 1.
    """
    return R + slash(R, _RES2_MAT_B) + slash(R, _RES2_MAT_C)


def es_residuals(r: PolyX) -> tuple[PolyX, PolyX]:
    """Residuals of the classical relations r|(1+S) and r|(1+U+U^2)."""
    res_s = r + slash(r, S_MAT)
    res_u = r + slash(r, U_MAT) + slash(r, U_MAT @ U_MAT)
    return res_s, res_u


# ---------------------------------------------------------------------
# The space W_w cut out by the classical relations
# ---------------------------------------------------------------------


def wspace_basis(w: int) -> tuple[list[PolyX], int, int]:
    """Exact rational basis of W_w = {P : P|(1+S) = P|(1+U+U^2) = 0},
    together with the dimensions of its even and odd parity parts.

    The stacked linear system is solved by exact rational elimination
    with pivots chosen at the lowest available column index, so the
    emitted basis is deterministic.
    """
    require_even_w(w)
    rows = _relation_rows(w)
    cols = list(range(w + 1))
    basis = [
        PolyX(w, tuple(GaussianRational(v) for v in vec))
        for vec in _rational_nullspace(rows, cols)
    ]
    dim_plus = len(_rational_nullspace(rows, cols[0::2]))
    dim_minus = len(_rational_nullspace(rows, cols[1::2]))
    return basis, dim_plus, dim_minus


def _relation_rows(w: int) -> list[list[Fraction]]:
    """Rows of the stacked (1+S, 1+U+U^2) system; column j is the image
    of the monomial X^j."""
    images = [es_residuals(PolyX.make(w, [0] * j + [1])) for j in range(w + 1)]
    rows = []
    for res_index in range(2):
        for t in range(w + 1):
            row = []
            for img in images:
                c = img[res_index].coeffs[t]
                if not c.is_real():
                    raise ConsistencyError("integer matrices gave a complex action")
                row.append(c.re)
            rows.append(row)
    return rows


def _rational_nullspace(rows: list[list[Fraction]], cols: list[int]) -> list[list[Fraction]]:
    """Nullspace basis of the columns ``cols`` of a rational matrix via
    reduced row echelon form.

    Basis vectors are scaled to primitive integer form with a positive
    first nonzero entry, one per free column in ascending order.
    """
    matrix = [[row[c] for c in cols] for row in rows]
    ncols = len(cols)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                sel = r
                break
        if sel is None:
            continue
        matrix[rank], matrix[sel] = matrix[sel], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [v - f * p for v, p in zip(matrix[r], matrix[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -matrix[r][fc]
        basis.append(_primitive(vec))
    return basis


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    denom = math.lcm(*(v.denominator for v in vec))
    ints = [int(v * denom) for v in vec]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]
