"""Property (ii) of the paper proved by certified sign counts: every root
of Z on Re s = 1/2, or of r on |X| = 1, for real coefficients c_j with
proved errors e_j >= |c_j - c*_j|, when theory makes the true polynomial
symmetric: Z*(1 - s) = Z*(s), or X^w r*(1/X) = r*(X).  Then Z*(1/2 + it)
and X^(-w/2) r*(X) on |X| = 1 are real polynomials F* of degree d = w/2 in
v = 4t^2 >= 0 and y = X + 1/X in [-2, 2].  With c_j = m_j 2^E and
e_j = n_j 2^E, the computed real part there is 2^E' F, F on integers:

- line: a Taylor shift gives A(x) = sum_j m_j 2^(w-j) (1 + x)^j =
  2^(w-E) Z(1/2 + x/2); F(v) = sum_k (-1)^k a_(2k) v^k and E' = E - w;
- circle: F = sum_k (m_(d+k) + m_(d-k)) V_k(y), V_k(X + 1/X) = X^k + X^-k
  (V_0 = 1 in this sum), and E' = E - 1.

It is within sum_j e_j |s|^j <= sum_j e_j 2^-j (1 + v)^ceil(j/2) of F* on
the line, sum_j e_j on the circle; a sign counts only where |2^E' F| is
larger, compared on integers.  d changes give d roots of F*, each two roots
(t and -t, X and 1/X) of the true polynomial: all w, simple, on the curve.
"""

from __future__ import annotations

import math

from zetapoly.dyadic import Dyadic, rounded, sqrt_rounded
from zetapoly.errors import InputError, PrecisionError
from zetapoly.polyspace import _taylor_shift
from zetapoly.zeta import RootCheckReport, _aberth, _sorted_roots, as_tolerance

_SIGN_ROOT_BITS = 96  # significant bits of the roots a proved check returns


def sign_count_check(poly, mode: str, eps: int, tol="1e-8", precision: int = 128):
    """Prove that all roots of the true polynomial lie on Re s = 1/2
    (``critical_line``) or |X| = 1 (``unit_circle``), or return None.
    ``poly`` is a NumericPoly, w even, with error bounds; ``eps`` is
    the symmetry's sign, from theory (-1 forces a root at 1/2 or X = 1: None),
    and the data must match it within the errors.  Signs are taken at the
    ends of the range and between the real parts of F's roots from Aberth
    in doubles.  The roots returned are F's, refined by ``_real_newton`` in
    their intervals, each square root in s or X rounded to 128 bits, and
    sorted as ``roots`` sorts; max_deviation is 0.
    """
    if mode not in ("critical_line", "unit_circle") or eps not in (1, -1):
        raise InputError(f"need a known mode and eps +1 or -1, got {mode!r}, {eps!r}")
    w, d, mans, emans, line = poly.w, poly.w // 2, poly.mans, poly.errs, mode == "critical_line"
    if eps != 1 or emans is None or w % 2 or w < 2:
        return None
    if line:
        a, ae = ([x for x, _ in _taylor_shift([(m << w - j, 0) for j, m in enumerate(ms)], (1, 0))]
                 for ms in (mans, emans))
        odd = [(abs(a[k]), ae[k]) for k in range(1, w + 1, 2)]
        F, lo = [(-1) ** k * a[2 * k] for k in range(d + 1)], 0.0
    else:
        odd = [(abs(mans[j] - mans[w - j]), emans[j] + emans[w - j]) for j in range(d)]
        F, prev, cur, lo = [2 * mans[d]] + [0] * d, [2], [0, 1], -2.0
        for k in range(1, d + 1):
            for i, v in enumerate(cur):
                F[i] += (mans[d + k] + mans[d - k]) * v
            prev, cur = cur, [p - q for p, q in zip([0] + cur, prev + [0, 0])]
    if any(x > e for x, e in odd):
        return None
    try:
        seeds = sorted(z.real for z in _aberth([c / F[d] for c in F]))
    except (ZeroDivisionError, OverflowError, PrecisionError):
        return None
    mids = [(x + y) / 2 for x, y in zip(seeds, seeds[1:])]
    points = [lo] + mids + [2 * seeds[-1] + 1 if line else 2.0]
    signs = []
    for x in points:
        num, q = x.as_integer_ratio()  # x = num / 2^b
        b = q.bit_length() - 1
        val = 0
        for k in range(d, -1, -1):  # 2^(bd) F(x)
            val = val * num + (F[k] << b * (d - k))
        if line:  # 2^(bd + w - E) sum_j e_j 2^-j (1 + x)^ceil(j/2)
            bound = sum(e * (q + num) ** (j - j // 2) << w - j + b * (d - j + j // 2)
                        for j, e in enumerate(emans))
        else:  # 2^(bd + 1 - E) sum_j e_j
            bound = sum(emans) << b * d + 1
        if abs(val) <= bound:
            return None
        signs.append(val > 0)
    if sum(s != t for s, t in zip(signs, signs[1:])) < d:
        return None
    found = []
    bits = _SIGN_ROOT_BITS + 32
    for x, left, right in zip(seeds, points, points[1:]):
        X, t = _real_newton(F, x)
        if not left < math.ldexp(X, -t) < right:  # so the points increase, as the count needs
            return None
        if line:  # s = (1 +- i sqrt(v)) / 2 with v = X 2^-t
            (a, ea), (b, eb) = (1, 0), sqrt_rounded(X, -t, bits)
        else:  # X = (y +- i sqrt(4 - y^2)) / 2 with y = X 2^-t, y^2 and 4 - y^2 rounded
            m, e = rounded(X * X, -2 * t, bits)
            low = min(e, 0)
            rest = rounded((4 << -low) - (m << e - low), low, bits)
            (a, ea), (b, eb) = (X, -t), sqrt_rounded(*rest, bits)
        E = min(ea, eb) - 1
        found += [(a << ea - 1 - E, s * b << eb - 1 - E, E) for s in (-1, 1)]
    roots = tuple((Dyadic(a, E), Dyadic(b, E)) for a, b, E in _sorted_roots(found, precision))
    return RootCheckReport(mode, roots, Dyadic(0), as_tolerance(tol), True)


def _real_newton(F: list, x: float) -> tuple[int, int]:
    """A root X 2^-t of the integer polynomial F near x by Newton's method:
    X is rescaled to _SIGN_ROOT_BITS bits (a root near 0 gets as many as
    any), Horner gives N = 2^(td) F and D = 2^(t(d-1)) F', the step is N/D."""
    d = len(F) - 1
    X, q = x.as_integer_ratio()
    t = q.bit_length() - 1
    for _ in range(64):  # a cap: a root near 0 takes about log2(precision) steps
        shift = max(_SIGN_ROOT_BITS - X.bit_length(), -t)
        X, t = X << shift if shift >= 0 else X >> -shift, t + shift
        n, dn = F[d], 0
        for k in range(d - 1, -1, -1):
            dn = dn * X + n
            n = n * X + (F[k] << t * (d - k))
        if not n or not dn:
            break
        step = n // dn
        X -= step
        if abs(step) <= 1 and X.bit_length() >= _SIGN_ROOT_BITS - 1:
            break
    return X, t
