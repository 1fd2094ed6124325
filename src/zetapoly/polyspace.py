"""Polynomials in the period variable X and the relations they satisfy.

The space V_w of polynomials of degree at most w carries a weight -w
action of 2x2 matrices (the slash operator).  This module implements
that action exactly for the matrices every relation uses: integer
entries, determinant +-1 and c in {0, 1, -1}.  On top of it sit the
residuals of the Fricke relation and of the Eichler-Shimura relations
(both in the classical variable and in the rescaled variable, which is
the classical one turned by X -> iX), and the
space W_w cut out by the classical relations: integer elimination on
each parity part, its unknowns folded by S and its rows by X -> 1/X.
"""

from __future__ import annotations

import math

from zetapoly.errors import InputError
from zetapoly.exactnum import DensePoly, require_even_w

# ---------------------------------------------------------------------
# Dense polynomials in X over Q(i)
# ---------------------------------------------------------------------


class PolyX(DensePoly):
    """A polynomial of degree <= w in the period variable X (see DensePoly)."""

    VARIABLE = "X"


# ---------------------------------------------------------------------
# The slash action of integer matrices of determinant +-1
# ---------------------------------------------------------------------

# A matrix is a 4-tuple (a, b, c, d) standing for [[a, b], [c, d]].
U_MAT = (1, -1, 1, 0)
U2_MAT = (0, -1, 1, -1)  # U^2


def slash(P: PolyX, g: tuple) -> PolyX:
    """The weight -w slash action det(g)^(-w/2) (cX+d)^w P((aX+b)/(cX+d))
    of g = (a, b, c, d) with integer entries, det(g) = +-1 and c in
    {0, 1, -1}; any other g raises InputError.

    Such a g is [[a, 0], [0, d]] [[1, ab], [0, 1]] for c = 0, and
    [[1, ac], [0, 1]] [[0, -det c], [c, 0]] [[1, dc], [0, 1]] for c = +-1.
    As det^(-w/2) = det^(w/2), P|g is a Taylor shift, a sign on coefficient
    j (det^(w/2) det^j for c = 0, det^(w/2) (-det)^j and a reversal for
    c = +-1), and a second Taylor shift: O(w^2) integer operations on P's
    numerators, over its denominator.
    """
    a, b, c, d = g
    det = a * d - b * c if all(type(x) is int for x in g) else 0
    if det not in (1, -1) or c not in (0, 1, -1):
        raise InputError(f"slash needs integer entries, det +-1 and c in (0, 1, -1): {g!r}")
    first, step, last = (a * c, -det, d * c) if c else (0, det, a * b)
    signs = (det ** (P.w // 2), det ** (P.w // 2) * step)  # coefficient j gets signs[j % 2]
    pairs = [(signs[j % 2] * x, signs[j % 2] * y) for j, (x, y) in enumerate(_pair_shift(P.pairs, first))]
    return PolyX(P.w, P.den, tuple(_pair_shift(pairs[::-1] if c else pairs, last)))


def _pair_shift(pairs, s: int) -> list:
    """Coefficient pairs of Q(X + s), on real and imaginary parts apart."""
    return list(zip(*(_int_shift(x, s) for x in zip(*pairs)))) if s else list(pairs)


def _turned(R: PolyX, k: int) -> PolyX:
    """R(i^k X): coefficient j times i^(kj)."""
    pairs = (((x, y), (-y, x), (-x, -y), (y, -x))[k * j % 4] for j, (x, y) in enumerate(R.pairs))
    return PolyX(R.w, R.den, tuple(pairs))


def _int_shift(coeffs, s: int) -> list:
    """Coefficients of q(X + s) for integer coefficients and an integer s."""
    x = list(coeffs)
    for i in range(len(x) - 1):
        acc = x[-1]
        for j in range(len(x) - 2, i - 1, -1):
            acc = x[j] = x[j] + s * acc
    return x


# ---------------------------------------------------------------------
# Relation residuals
# ---------------------------------------------------------------------


def fricke_residual(R: PolyX, eps: int) -> PolyX:
    """Residual of R(X) + eps * i^w * X^w R(1/X), computed coefficientwise.

    The reversal X^w R(1/X) swaps coefficient j with w-j, so the residual
    coefficients are a_j + eps i^w a_{w-j}, eps i^w = eps (-1)^(w/2); the
    zero polynomial is returned exactly when the Fricke relation holds.
    """
    if eps not in (1, -1):
        raise InputError(f"eps must be +1 or -1, got {eps!r}")
    phase, p = eps * (-1) ** (R.w // 2), R.pairs
    return PolyX(R.w, R.den, tuple((x + phase * u, y + phase * v) for (x, y), (u, v) in zip(p, p[::-1])))


def rescaled_es1_residual(R: PolyX) -> PolyX:
    """Residual of the two-term relation R(X) + (-iX)^w R(1/X).

    This is the slash by [[0, -i], [-i, 0]] (det 1), and (-i)^w = i^w for
    even w, so it is the Fricke residual with eps = +1.
    """
    return fricke_residual(R, 1)


def rescaled_es2_residual(R: PolyX) -> PolyX:
    """Residual of the three-term relation
    R(X) + (-iX)^w R((X-i)/(-iX)) + (-iX-1)^w R(-i/(-iX-1)).

    The two substitutions are the slashes by [[1, -i], [-i, 0]] and
    [[0, -i], [-i, -1]], which are U and U^2 conjugated by diag(i, 1).  So
    with (T R)(X) = R(iX) the residual is T^-1 of the classical one,
    T^-1(T R + (T R)|U + (T R)|U^2), exactly and with no unit factor.
    """
    return _turned(_u_residual(_turned(R, 1)), -1)


def es1_residual(r: PolyX) -> PolyX:
    """r|(1+S) without the slash: for even w, (r|S)_t = (-1)^t r_(w-t)."""
    p = r.pairs
    return PolyX(r.w, r.den, tuple((x - u, y - v) if t % 2 else (x + u, y + v)
                                   for t, ((x, y), (u, v)) in enumerate(zip(p, p[::-1]))))


def es_residuals(r: PolyX) -> tuple[PolyX, PolyX]:
    """Residuals of the classical relations r|(1+S) and r|(1+U+U^2)."""
    return es1_residual(r), _u_residual(r)


def _u_residual(r: PolyX) -> PolyX:
    """r|(1+U+U^2)."""
    return r + slash(r, U_MAT) + slash(r, U2_MAT)


# ---------------------------------------------------------------------
# The space W_w cut out by the classical relations
# ---------------------------------------------------------------------


def wspace_basis(w: int) -> tuple[list[PolyX], int, int]:
    """Primitive integer basis of W_w = {P : P|(1+S) = P|(1+U+U^2) = 0},
    together with the dimensions of its even and odd parity parts.

    P(X) -> P(-X) maps W_w to itself (Kohnen and Zagier), so each parity
    part is found apart, by fraction-free elimination with pivots lowest
    first on its columns of the folded system (_relation_rows), each kernel
    vector mirrored by a_(w-j) = -(-1)^j a_j = (2p-1) a_j for parity p.  Its
    support is symmetric about h = w/2, so the stacked (1+S, 1+U+U^2)
    system has the same free columns, all at j >= h: a free column c gives
    the unique primitive kernel vector, first nonzero entry positive, that
    is nonzero at c and zero at the other free columns.
    """
    require_even_w(w)
    h, rows, parts = w // 2, _relation_rows(w), ([], [])
    for p, part in enumerate(parts):
        first, half = 2 - h % 2 - p, [0] * (h + 1)  # first folded column of parity p; a_h = 0 for even h
        for v in _integer_nullspace(rows, range(first, h + 1, 2)):
            half[first::2] = v  # the other entries of half stay 0
            vec = [(2 * p - 1) * x for x in half[:0:-1]] + half
            part.append(vec if next(filter(None, vec)) > 0 else [-x for x in vec])
    basis = sorted(parts[0] + parts[1], key=lambda vec: max(j for j, x in enumerate(vec) if x))  # by free column
    return [PolyX(w, 1, tuple((x, 0) for x in vec)) for vec in basis], len(parts[0]), len(parts[1])


def _relation_rows(w: int) -> list[list[int]]:
    """Rows t <= h = w/2 of 1+U+U^2 on the S-folded unknowns a_h..a_w:
    column j > h is the image of X^j - (-1)^j X^(w-j), column h of X^h.

    X^j|S = (-1)^j X^(w-j), so P|(1+S) = 0 is a_(w-j) = -(-1)^j a_j (a_h = 0
    for even h).  eps = [[0, 1], [1, 0]] has eps U eps = U^-1 = -U^2, so it
    commutes with 1+U+U^2; as P|eps = +-P for such a P of one parity, its
    residual has Q_(w-t) = +-Q_t.  The X^t coefficient of X^j|(U+U^2) =
    (X-1)^j X^(w-j) + (-1)^j (X-1)^(w-j) is (-1)^t (C(j, w-t) + C(w-j, t)).
    """
    h = w // 2
    u = [[(t == j) + (-1) ** t * (math.comb(j, w - t) + math.comb(w - j, t)) for j in range(w + 1)]
         for t in range(h + 1)]  # u[t][j]: the X^t coefficient of X^j|(1+U+U^2)
    return [[row[j] - (j > h) * (-1) ** j * row[w - j] for j in range(h, w + 1)] for row in u]


def _integer_nullspace(rows: list[list[int]], cols: range | list[int]) -> list[list[int]]:
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
