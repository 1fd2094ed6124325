"""Verification machinery for zeta-polynomials Z(s).

Covers the functional-equation residual Z(s) + eps i^w Z(1-s), the
Laurent coefficients and the convergent triple-sum identity attached to
a positive integer n, polynomial root extraction at high precision, the
critical-line / unit-circle root diagnostics, and the integrality and
positivity hypotheses under which Z is a Hilbert polynomial.

Identity checks on exact inputs are exact (equality with the zero
polynomial over Q(i)); tolerances appear only for truncation of the
infinite sum and for the numeric pipeline.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from zetapoly.errors import InputError, PrecisionError
from zetapoly.exactnum import (
    I,
    ZERO,
    DensePoly,
    GaussianRational,
    _trim,
    as_fraction,
    from_pairs,
    qi,
    reduced,
    require_even_w,
    squarefree_parts,
)
from zetapoly.lvalues import _dyadic as _mantissas
from zetapoly.polyspace import PolyX, slash
from zetapoly.rv import ZetaPoly, rv_inverse, series_coeffs

TolLike = Union[str, int, Fraction]


def as_tolerance(tol: TolLike) -> Fraction:
    """Exact positive rational from a decimal string, an int or a Fraction."""
    try:
        out = as_fraction(tol)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse tolerance {tol!r}") from exc
    if out <= 0:
        raise InputError(f"tolerance must be positive, got {tol!r}")
    return out


# ---------------------------------------------------------------------
# Functional equation
# ---------------------------------------------------------------------


def functional_eq_residual(Z: ZetaPoly, eps: int) -> ZetaPoly:
    """The exact polynomial Z(s) + eps * i^w * Z(1-s).

    Zero exactly when the functional equation holds.
    """
    if eps not in (1, -1):
        raise InputError(f"eps must be +1 or -1, got {eps!r}")
    # The slash by [[-1, 1], [0, 1]] is det^(-w/2) P(1-X) = i^w P(1-X).
    flipped = slash(PolyX(Z.w, Z.den, Z.pairs), (-1, 1, 0, 1))
    return Z + ZetaPoly(Z.w, flipped.den, tuple((eps * x, eps * y) for x, y in flipped.pairs))


# ---------------------------------------------------------------------
# Laurent coefficients of the kernel attached to (w, n)
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentCoeffs:
    """Exact Laurent coefficients a_m, m = -(n+1) .. M, of

        (1-x)^(w+1) (x+i)^n / ((x+i-ix)^(w+1) (ix)^(n+1))

    expanded about x = 0.  The pole at 0 has exact order n+1."""

    w: int
    n: int
    M: int
    coeffs: tuple[GaussianRational, ...]

    def coeff(self, m: int) -> GaussianRational:
        if m < -(self.n + 1):
            return ZERO
        if m > self.M:
            raise InputError(f"coefficient a_{m} beyond truncation order {self.M}")
        return self.coeffs[m + self.n + 1]


def laurent_coeffs(w: int, n: int, M: int) -> LaurentCoeffs:
    """Expand the kernel exactly to order M (M >= -(n+1) is allowed to be
    negative: only part of the principal part is then produced).

    As x + i = i(1 - ix) and x + i - ix = i(1 - (1+i)x), the kernel is
    (-1)^(w/2+1) x^(-(n+1)) (1-x)^(w+1) (1-ix)^n / (1-(1+i)x)^(w+1): every
    a_m is a Gaussian integer, from sum_s C(w+s, w) (1+i)^s x^s times w+1
    factors (1-x) and n factors (1-ix), on (re, im) int pairs."""
    require_even_w(w)
    if n < 1:
        raise InputError(f"n must be a positive integer, got {n}")
    if M < -(n + 1):
        raise InputError(f"truncation order M={M} precedes the pole order {-(n + 1)}")
    series, pr, pi = [], (-1) ** (w // 2 + 1), 0
    for s in range(M + n + 2):
        series.append((math.comb(w + s, w) * pr, math.comb(w + s, w) * pi))
        pr, pi = pr - pi, pr + pi  # times (1+i)
    for _ in range(w + 1):  # times (1 - x)
        series = [(a - c, b - d) for (a, b), (c, d) in zip(series, [(0, 0)] + series)]
    for _ in range(n):  # times (1 - ix)
        series = [(a + d, b - c) for (a, b), (c, d) in zip(series, [(0, 0)] + series)]
    return LaurentCoeffs(w, n, M, tuple(GaussianRational(a, b) for a, b in series))


# ---------------------------------------------------------------------
# The convergent triple-sum identity
# ---------------------------------------------------------------------

RHO = Fraction(3, 4)  # documented tail ratio; asymptotic term ratio is 1/sqrt(2)
K_MIN = 40
K_MAX_DEFAULT = 400


@dataclass(frozen=True)
class Thm2Report:
    """Result of evaluating the identity value at a positive integer n.

    ``exact_part`` is Z(-n) + (-i)^w sum_{m=1}^{n+1} a_{-m} Z(1-m);
    ``partial_sums`` holds the exact per-k terms t_0 .. t_{k_stop}, built on
    first read: t_k is ``term_numerators[k]`` over ``term_den`` 2^k.  The
    reported ``total`` is their exact sum plus the exact part.  Under the
    geometric tail model with ratio RHO, |identity value - total| <=
    residual_bound whenever ``converged`` is set.
    """

    w: int
    n: int
    exact_part: GaussianRational
    term_numerators: tuple[tuple[int, int], ...]
    term_den: int
    total: GaussianRational
    k_stop: int
    converged: bool
    residual_bound: mpmath.mpf
    tol: Fraction

    @cached_property
    def partial_sums(self) -> tuple[GaussianRational, ...]:
        return tuple(from_pairs(self.term_den << k, [t])[0] for k, t in enumerate(self.term_numerators))

    @property
    def abs_total(self) -> mpmath.mpf:
        norm = self.total.norm2()
        with mp.workprec(64):
            return mpmath.sqrt(mpmath.mpf(norm.numerator) / mpmath.mpf(norm.denominator))

    def total_below(self, bound: TolLike) -> bool:
        """Exact test |total| < bound."""
        b = as_tolerance(bound)
        return self.total.norm2() < b * b

    def to_dict(self) -> dict:
        return {
            "w": self.w,
            "n": self.n,
            "k_stop": self.k_stop,
            "converged": self.converged,
            "abs_total": mpmath.nstr(self.abs_total, 12),
            "residual_bound": mpmath.nstr(self.residual_bound, 12),
            "total": list(self.total.to_str_pair()),
            "tol": str(self.tol),
        }


def thm2_residual(
    Z: ZetaPoly,
    n: int,
    tol: TolLike = "1e-10",
    k_max: int = K_MAX_DEFAULT,
) -> Thm2Report:
    """Evaluate the three-part identity value at n, with exact per-k terms.

    The identity is stated as a triple sum over k, m and j of Z at the
    non-positive integers m+j-k-n.  With K = k+n, its j-sum is
    sum_{j=0}^{min(K-m, w+1)} (-1)^(j+1) C(w+1, j) Z(-(K-m-j)) = -r_{K-m},
    where r_q is the coefficient of X^q of R = rv_inverse(Z): the series
    sum_t Z(-t) X^t times (1 - X)^(w+1).  Since r_q = 0 for q > w, only
    m >= K-w contributes, and substituting q = K-m gives

    t_k = -C(K, n) (-i)^k sum_{q=0}^{min(K, w)} C(K-q+w, w)
          (1-i)^(-(K-q+w+1)) r_q.

    As (1-i)^(-1) = (1+i)/2, with r_q = h_q/D over one common denominator
    D each term is a Gaussian integer over 2^(K+w+1) D:

    t_k = -C(K, n) (-i)^k (1+i)^(K+w+1) A_K / (2^(K+w+1) D),
    A_K = sum_{q=0}^{w} C(K-q+w, w) (1-i)^q h_q   (C(K-q+w, w) = 0 for q > K).

    The loop runs on int pairs; (-i)^k (1+i)^(K+w+1) steps by (1-i).

    Summation stops at the first k >= K_MIN where the magnitudes of the
    last three terms all fall below theta = tol*(1-RHO)/RHO, or at k_max
    with ``converged`` cleared.  The test is exact, in integers: a term
    (a + b i)/den passes iff (a^2 + b^2) theta2.den < theta2.num den^2,
    where theta2 = theta^2.
    """
    if n < 1:
        raise InputError(f"n must be a positive integer, got {n}")
    w = Z.w
    tol_frac = as_tolerance(tol)
    theta2 = (tol_frac * (1 - RHO) / RHO) ** 2

    zvals = series_coeffs(Z, n + 1)  # zvals[t] = Z(-t)
    principal = laurent_coeffs(w, n, -1).coeffs[::-1]  # a_(-1), ..., a_(-(n+1))
    exact_part = zvals[n] + (-I) ** w * sum((a * z for a, z in zip(principal, zvals)), ZERO)
    R = rv_inverse(Z)  # r_q = h_q / D: h_q = R.pairs[q], D = R.den
    g, fr, fi = [], 1, 0
    for q, (hr, hi) in enumerate(R.pairs):  # g_q = (1-i)^q h_q
        if hr or hi:
            g.append((q, fr * hr - fi * hi, fr * hi + fi * hr))
        fr, fi = fr + fi, fi - fr  # times (1-i)
    f = qi(1, 1) ** (n + w + 1)  # (-i)^k (1+i)^(K+w+1) at k = 0
    fr, fi = f.re.numerator, f.im.numerator
    den = R.den << (n + w)  # 2^(K+w+1) D, here at k = -1
    acc_r = acc_i = 0  # the terms so far, summed over den
    below = 0  # how many of the latest terms are below theta
    terms: list[tuple[int, int]] = []
    converged = False
    for k in range(k_max + 1):
        K = k + n
        ar = ai = 0
        for q, gr, gi in g:
            c = math.comb(K - q + w, w)
            ar += c * gr
            ai += c * gi
        c = -math.comb(K, n)
        tr, ti = c * (fr * ar - fi * ai), c * (fr * ai + fi * ar)
        fr, fi = fr + fi, fi - fr  # times (1-i)
        den <<= 1
        acc_r, acc_i = 2 * acc_r + tr, 2 * acc_i + ti
        terms.append((tr, ti))
        small = (tr * tr + ti * ti) * theta2.denominator < theta2.numerator * den * den
        below = below + 1 if small else 0
        if k >= K_MIN and below >= 3:
            converged = True
            break
    total = exact_part + from_pairs(den, [(acc_r, acc_i)])[0]
    bound = mpmath.inf
    if converged:  # max |t|^2 over the last three terms, as reduced Fractions
        worst = max(Fraction(a * a + b * b, (den >> j) ** 2)
                    for j, (a, b) in enumerate(terms[:-4:-1]))
        with mp.workprec(64):
            bound = mpmath.sqrt(mpmath.mpf(worst.numerator) / mpmath.mpf(worst.denominator))
            bound = bound * mpmath.mpf(RHO.numerator) / mpmath.mpf(RHO.denominator - RHO.numerator)
    return Thm2Report(
        w=w,
        n=n,
        exact_part=exact_part,
        term_numerators=tuple(terms),
        term_den=R.den << (n + w + 1),
        total=total,
        k_stop=k if converged else k_max,
        converged=converged,
        residual_bound=bound,
        tol=tol_frac,
    )


# ---------------------------------------------------------------------
# Root extraction (squarefree split, Aberth, fixed-point Newton ladder,
# proved residual certificate) and diagnostics
# ---------------------------------------------------------------------

_ABERTH_MAX_ITER = 500
_SEED_ANGLE_OFFSET = 0.4  # fixed phase offset; breaks symmetric stalls, deterministic
_ISOLATION_BITS = 53  # the first Aberth rung runs on Python complex doubles
_GUARD_BITS = 32  # fixed-point bits carried beyond each rung's precision


def roots(poly, precision: int = 128) -> list:
    """All complex roots of a nonzero polynomial, multiplicity-aware.

    1. The input is read as one exact form (den, pairs), coefficient k
       (p_k + q_k i)/den: a PolyX / ZetaPoly as held, a NumericPoly as the
       exact dyadics its coefficients hold.  Both take one path: trimmed,
       roots at the origin split off, made monic exactly before any
       rounding, then split by Yun's squarefree decomposition over Q(i)
       into squarefree factors of exact multiplicity.  A linear factor's
       root is rounded once to precision + 32 bits.
    2. Each other factor is isolated by Aberth-Ehrlich iteration, seeded
       on the Fujiwara radius 2 max_k |c_(d-k)|^(1/k), in complex doubles
       (53 bits, or ``precision`` if lower).  This rung hands off to the
       retry of step 4 at once when a coefficient overflows doubles, a
       nonzero coefficient rounds to 0 or to a subnormal, or an iterate
       stops being finite.
    3. Newton takes one step per root on each rung of a ladder counted
       down from ``precision``: ceil(precision / 2^k) for each k that
       leaves more bits than the Aberth stage ran at, then ``precision``
       (64, 128, ..., 2048, 4096 at 4096 bits); stage 4 alone decides
       whether a root is done.  A root is an exact dyadic z = (a + b i) 2^E,
       and every step runs in fixed point on Gaussian integers
       (``_horner_fixed``): with 2^e >= |z| and 2^s near the largest term
       |c_k| |z|^k, Horner evaluates P(2^e y)/2^s at y = z/2^e with the
       rung's bits plus 32 fractional bits, t in all, and P' with
       min(t, t/2 + 32): a step's new error is the incoming error times
       P''s relative error.  Coefficients are floored once per rung from
       one integer form per factor; the step divides on integers.
    4. Each distinct root is evaluated once on the whole monic input P by
       the same kernel with precision + 32 fractional bits, at the exact
       dyadic value that is returned.  The kernel's roundings give an
       a-priori bound B on the error of that value, and the root passes
       only if |value| + B < 2^(-precision/2) max(||P||, 1), ||P|| the sup
       norm of P's coefficients, compared as squares on integers.  A pass
       therefore proves the residual of the returned root below that
       target.  If a root fails, stages 2-4 rerun with the Aberth stage in
       mpmath at double the bits; PrecisionError is raised when the stage
       at full precision fails, or at once when a failing root's bound B
       alone reaches the target, which no rerun near that root can lower.

    The residual target does not scale with |root|, while Horner's
    rounding error grows like sum_k |c_k| |z|^k: at low precision an input
    with a root far outside the unit disc (modulus 27 in a degree-30 case)
    can fail the certificate with PrecisionError; it passes at higher
    precision.  A small residual does not bound the distance to a root
    inside a tight cluster.

    Roots are sorted by real part rounded to the certified 2^(-precision/2)
    grid, then by imaginary part, so the order does not follow the noise
    in the last bits.
    """
    if precision < 8:
        raise InputError("precision must be at least 8 bits")
    if isinstance(poly, DensePoly):
        pairs = _trim(list(poly.pairs))
    else:  # c_k = (m_k + m_(n+k) i) 2^E for n coefficients; the 2^E cancels in the monic
        m = _mantissas([c.real for c in poly.coeffs] + [c.imag for c in poly.coeffs])[1]
        pairs = _trim(list(zip(m, m[len(m) // 2 :])))
    if not pairs:
        raise InputError("the zero polynomial has no root set")
    origin = next(k for k, c in enumerate(pairs) if c != (0, 0))
    lr, li = pairs[-1]  # c / l = c conj(l) / |l|^2
    monic = reduced(lr * lr + li * li, [(p * lr + q * li, q * lr - p * li) for p, q in pairs[origin:]])
    factors = squarefree_parts(monic) if len(monic[1]) > 1 else []
    with mp.workprec(precision + 32):
        found = [mpmath.mpc(0)] * origin + _certified_roots(monic, factors, precision)
        return _sorted_roots(found, precision)


def _sorted_roots(found: list, precision: int) -> list:
    """By real part on the 2^(-precision/2) grid, then by imaginary part."""
    grid = mpmath.mpf(2) ** (precision // 2)
    return sorted(found, key=lambda z: (mpmath.nint(mpmath.re(z) * grid), mpmath.im(z)))


def _round(den: int, pair: tuple) -> mpmath.mpc:
    """The coefficient (p + q i)/den rounded to the working precision, each
    part as the quotient of its numerator and denominator in lowest terms."""
    gp, gq = (math.gcd(x, den) for x in pair)
    return mpmath.mpc(mpmath.mpf(pair[0] // gp) / mpmath.mpf(den // gp),
                      mpmath.mpf(pair[1] // gq) / mpmath.mpf(den // gq))


def _certified_roots(monic: tuple, factors: list, precision: int) -> list:
    """Stages 2-4 of ``roots``: the roots of the squarefree ``factors``
    (g, k) of ``monic``, each repeated k times and certified on ``monic``;
    every polynomial is a reduced form (den, pairs)."""
    den, pairs = monic
    fixed = _floored(monic, precision + _GUARD_BITS)
    norm2 = max(max(p * p + q * q for p, q in pairs), den * den)  # max(||P||, 1)^2 den^2
    target2 = Fraction(norm2, den * den << 2 * (precision // 2))
    bits = min(precision, _ISOLATION_BITS)
    while True:
        try:
            found = [(_refined_roots(g, bits, precision), k) for g, k in factors]
        except PrecisionError:
            if bits == precision:
                raise
        else:
            checked = [([_residual_below(fixed, z, target2) for z in zs], k) for zs, k in found]
            if all(ok for rows, _ in checked for ok, *_ in rows):
                return [_mpc(z) for rows, k in checked for _, _, z, _ in rows * k]
            if bits == precision or any(futile for rows, _ in checked for *_, futile in rows):
                target = mpmath.sqrt(mpmath.mpf(target2.numerator) / target2.denominator)
                raise PrecisionError(
                    f"root iteration failed to certify residuals below {mpmath.nstr(target, 5)}"
                )
        bits = min(2 * bits, precision)


def _refined_roots(g: tuple, bits: int, precision: int) -> list:
    """Roots of one squarefree monic factor, the form ``g`` = (den, pairs),
    as exact dyadics: Aberth at ``bits`` (in complex doubles up to
    _ISOLATION_BITS, else in mpmath), then one fixed-point Newton step per
    root on each rung ceil(precision / 2^k) above ``bits``, from the
    lowest, and on ``precision`` itself."""
    den, pairs = g
    if len(pairs) == 2:
        return [_dyadic(-_round(den, pairs[0]))]
    if bits <= _ISOLATION_BITS:
        try:
            z = [_dyadic(x) for x in _aberth(_doubles(g), bits, complex)]
        except OverflowError as exc:  # abs() of a complex past the double range
            raise PrecisionError("root isolation overflowed doubles") from exc
    else:
        with mp.workprec(bits + 32):
            z = [_dyadic(x) for x in _aberth([_round(den, c) for c in pairs], bits, mpmath.mpc)]
    for k in range(precision.bit_length(), -1, -1):
        rung = -(-precision >> k)  # ceil(precision / 2^k)
        if rung > bits or k == 0:
            fixed = _floored(g, rung + _GUARD_BITS)
            z = [_newton_step(fixed, x) for x in z]
    return z


def _dyadic(x) -> tuple[int, int, int]:
    """A complex double or mpc as the exact dyadic (a, b, E) = (a + b i) 2^E."""
    x = mpmath.mpc(x)
    E, (a, b) = _mantissas([x.real, x.imag])
    return a, b, E


def _mpc(z: tuple) -> mpmath.mpc:
    """The exact value of the dyadic z = (a, b, E), unrounded."""
    a, b, E = z
    return mp.make_mpc((from_man_exp(a, E), from_man_exp(b, E)))


def _floored(form: tuple, t: int) -> tuple:
    """One rung's rounding of a polynomial for ``_horner_fixed`` at t
    fractional bits.  ``form`` = (D, [(p_k, q_k)]) has c_k = (p_k + q_k i)/D.
    Returns (t, d, rows), one row (k, floor(p_k 2^u / D), floor(q_k 2^u / D),
    u, log2|c_k|) per nonzero c_k, with u = t + d + 4 - floor(log2|c_k|):
    enough bits that every shift the kernel applies is a right shift by at
    least 1."""
    den, pairs = form
    d = len(pairs) - 1
    log_den = math.log2(den)
    rows = []
    for k, (p, q) in enumerate(pairs):
        if p or q:
            lc = math.log2(p * p + q * q) / 2 - log_den
            u = t + d + 4 - math.floor(lc)
            if u >= 0:
                rows.append((k, (p << u) // den, (q << u) // den, u, lc))
            else:
                rows.append((k, p // (den << -u), q // (den << -u), u, lc))
    return t, d, rows


def _horner_fixed(fixed: tuple, z: tuple, derivative: bool = False) -> tuple:
    """P and optionally P' near the dyadic z = (a + b i) 2^E, in fixed
    point on Gaussian integers; ``fixed`` is P from ``_floored``.

    With 2^e the least power of 2 at or above |z| and 2^s just above the
    largest term max_k |c_k| |z|^k, Horner runs on Q(y) = P(2^e y) / 2^s
    in units of 2^-t, at y = Y / 2^t: z / 2^e with each part cut toward 0
    to t bits, which keeps |y| <= 1 (exact when z has no more bits).  The coefficient a_k =
    c_k 2^(ek - s) is the per-rung floor shifted right with rounding, off
    by at most 1/2 + 2^-shift <= 1 unit in each part, and each product is
    rounded to the nearest unit, off by at most 1/2.  As |y| <= 1, no
    error grows in later steps, so the returned G is within
    B = ceil(sqrt(2) h / 2) units of 2^t Q(y), with h = d + 1 halves for
    the products plus 2 per nonzero coefficient (2^(l+1) if it had to be
    shifted left by l, which the margin of ``_floored`` rules out).

    Returns (G_re, G_im, D_re, D_im, B, s, point), ``point`` = (Y_re,
    Y_im, e - t) the dyadic 2^e y at which P was evaluated.  D is 2^t Q'(y)
    to the bits a Newton step needs, or 0 without ``derivative``: y and
    each G are floored to t' = min(t, floor(t/2) + 32) bits, each product
    is floored, and D is shifted left by t - t'.  Each of its d steps errs
    by a few units of 2^-t' plus |D| times the cut of y; B does not cover D.
    """
    t, d, rows = fixed
    zr, zi, E = z
    n = zr * zr + zi * zi
    m = ((n - 1).bit_length() + 1) // 2 if n else 0  # least m with |a + b i| <= 2^m
    e = E + m
    if t >= m:
        yr, yi = zr << (t - m), zi << (t - m)
    else:
        yr, yi = (-(-x >> (m - t)) if x < 0 else x >> (m - t) for x in (zr, zi))
    log_z = E + math.log2(n) / 2 if n else E
    s = math.ceil(max(lc + k * log_z for k, _, _, _, lc in rows))
    ar, ai = [0] * (d + 1), [0] * (d + 1)
    halves = d + 1
    for k, cr, ci, u, _ in rows:
        shift = u - (k * e + t - s)
        if shift > 0:
            ar[k], ai[k] = (cr + (1 << shift - 1)) >> shift, (ci + (1 << shift - 1)) >> shift
        else:
            ar[k], ai[k] = cr << -shift, ci << -shift
        halves += 2 << -min(shift, 0)
    half = 1 << t - 1
    ys, yd = yr + yi, yi - yr  # g y = (m - g_i ys) + (m + g_r yd) i, m = y_r (g_r + g_i)
    cut = max((t + 1) // 2 - 32, 0)  # D runs on t - cut = min(t, t // 2 + 32) bits
    hr, hi, tp = yr >> cut, yi >> cut, t - cut
    hs, hd = hr + hi, hi - hr
    gr = gi = dr = di = 0
    for k in range(d, -1, -1):
        if derivative:
            m = hr * (dr + di)
            dr, di = ((m - di * hs) >> tp) + (gr >> cut), ((m + dr * hd) >> tp) + (gi >> cut)
        m = yr * (gr + gi)
        gr, gi = ((m - gi * ys + half) >> t) + ar[k], ((m + gr * yd + half) >> t) + ai[k]
    return gr, gi, dr << cut, di << cut, (3 * halves + 3) // 4, s, (yr, yi, e - t)


def _newton_step(fixed: tuple, z: tuple) -> tuple:
    """One fixed-point Newton step from the dyadic root z: the new root
    (z itself where the derivative vanishes)."""
    gr, gi, dr, di, _, _, (yr, yi, E) = _horner_fixed(fixed, z, derivative=True)
    dd = dr * dr + di * di
    if dd == 0:
        return z
    t = fixed[0]
    sr = ((gr * dr + gi * di) << t) // dd  # the step G / D, in units of 2^E
    si = ((gi * dr - gr * di) << t) // dd
    return yr - sr, yi - si, E


def _residual_below(fixed: tuple, z: tuple, target2: Fraction) -> tuple:
    """Whether |P(point)| < target is proved, ``target2`` = target^2 and
    ``point`` the dyadic at which ``_horner_fixed`` evaluated P near z
    (z itself when it has at most t bits below 2^e): with the kernel's G
    and B it passes iff (isqrt(|G|^2) + 1 + B)^2 < target^2 in the
    kernel's units, and then |P(point)| <= |G| + B < target.

    Returns (passed, band, point, futile); a failure means |P(point)| >=
    target - band, band = (2B + 1) 2^(s - t), and ``futile`` that no G
    could pass: (1 + B) 2^(s - t) >= target."""
    gr, gi, _, _, bound, s, point = _horner_fixed(fixed, z)
    units2 = target2 * Fraction(4) ** (fixed[0] - s)  # target^2 in the kernel's units
    ok = (math.isqrt(gr * gr + gi * gi) + 1 + bound) ** 2 < units2
    band = (2 * bound + 1) * Fraction(2) ** (s - fixed[0])
    return ok, band, point, (1 + bound) ** 2 >= units2


def _doubles(g: tuple) -> list:
    """The form ``g`` = (den, pairs) rounded to complex doubles.  Raises
    PrecisionError when a coefficient overflows, or when a nonzero one rounds
    to 0 or to a subnormal, where the rounding error is no longer relative."""
    den, pairs = g
    out = []
    for p, q in pairs:
        try:
            x = complex(p / den, q / den)
            size = abs(x)
        except OverflowError:
            size = math.inf
        if not size < math.inf or (size < sys.float_info.min and (p or q)):
            raise PrecisionError("a coefficient is outside the normal double range")
        out.append(x)
    return out


def _aberth(coeffs: list, precision: int, num: type) -> list:
    """Aberth-Ehrlich simultaneous iteration on a monic coefficient list,
    in the arithmetic of ``num``: ``complex`` (doubles) or ``mpmath.mpc``
    (at the caller's working precision).

    Stops once every residual is below 2^(-precision/2) times the sup norm
    of the coefficients (at least 1), or once a sweep moves no root by more
    than 2^(-precision/2) relative to max(|z|, 1): the residual rule alone
    cannot be met at low precision when a large root amplifies rounding.
    Raises PrecisionError on an iterate that is not finite (doubles only).
    """
    d = len(coeffs) - 1
    one = abs(num(1))  # the real type of the arithmetic: float or mpf
    norm = max(max(abs(c) for c in coeffs), one)
    step_tol = (2 * one) ** (-(precision // 2))
    target = step_tol * norm
    radius = 2 * max(abs(coeffs[d - k]) ** (one / k) for k in range(1, d + 1)) or one
    z = [
        radius * num(cmath.rect(1, 2 * math.pi * j / d + _SEED_ANGLE_OFFSET))
        for j in range(d)
    ]
    for _ in range(_ABERTH_MAX_ITER):
        residual = moved = 0 * one
        for j in range(d):
            p, dp = _horner2(coeffs, z[j])
            residual = max(residual, abs(p))
            if p == 0:
                continue
            ssum = sum(1 / (z[j] - zl) for zl in z if zl != z[j])  # skips z[j] itself
            denom = dp / p - ssum
            if denom == 0:
                continue
            step = 1 / denom
            z[j] = z[j] - step
            size = abs(z[j])
            if not size < math.inf:
                raise PrecisionError("root isolation left the double range")
            moved = max(moved, abs(step) / max(size, one))
        if residual < target or moved < step_tol:
            return z
    # final certification pass
    if max(abs(_horner2(coeffs, zj)[0]) for zj in z) < target:
        return z
    raise PrecisionError(
        f"root iteration failed to certify residuals below {mpmath.nstr(target, 5)}"
    )


def _horner2(coeffs: list, x):
    """Evaluate p(x) and p'(x) together."""
    p = dp = 0
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


@dataclass(frozen=True)
class RootCheckReport:
    """Deviation of each root from the critical line or the unit circle
    (0 when ``sign_count_check`` proved the locations)."""

    mode: str
    roots: tuple
    max_deviation: mpmath.mpf
    tol: Fraction
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "max_deviation": mpmath.nstr(self.max_deviation, 12),
            "tol": str(self.tol),
            "roots": [
                [mpmath.nstr(mpmath.re(z), 20), mpmath.nstr(mpmath.im(z), 20)]
                for z in self.roots
            ],
        }


def rh_check(poly, mode: str, tol: TolLike = "1e-8", precision: int = 128) -> RootCheckReport:
    """Check whether all roots lie on Re = 1/2 (``critical_line``) or on
    |X| = 1 (``unit_circle``), up to ``tol``."""
    if mode not in ("critical_line", "unit_circle"):
        raise InputError(f"unknown mode {mode!r}")
    tol_frac = as_tolerance(tol)
    rts = roots(poly, precision=precision)
    with mp.workprec(precision + 32):
        if mode == "critical_line":
            devs = tuple(abs(mpmath.re(z) - mpmath.mpf(1) / 2) for z in rts)
        else:
            devs = tuple(abs(abs(z) - 1) for z in rts)
        max_dev = max(devs) if devs else mpmath.mpf(0)
        bound = mpmath.mpf(tol_frac.numerator) / mpmath.mpf(tol_frac.denominator)
        return RootCheckReport(
            mode=mode,
            roots=tuple(rts),
            max_deviation=max_dev,
            tol=tol_frac,
            passed=bool(max_dev < bound),
        )


# ---------------------------------------------------------------------
# Hilbert-polynomial hypotheses
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertReport:
    """Whether Z has integer coefficients and a positive leading term.

    When both hold (and the source R satisfies the Fricke-type
    symmetry), Z is a Hilbert polynomial; no graded-algebra certificate
    is attempted here.
    """

    integer_coefficients: bool
    positive_leading: bool
    satisfied: bool
    detail: str


def hilbert_hypotheses(Z: ZetaPoly) -> HilbertReport:
    integral = Z.den == 1 and not any(y for _, y in Z.pairs)
    deg = Z.degree()
    positive = deg >= 0 and Z.pairs[deg][1] == 0 and Z.pairs[deg][0] > 0
    satisfied = integral and positive
    if satisfied:
        detail = (
            "integer coefficients with positive leading term: Z is a Hilbert "
            "polynomial provided R satisfies the Fricke-type symmetry"
        )
    else:
        reasons = []
        if not integral:
            bad = next(c for c, (x, y) in zip(Z.coeffs, Z.pairs) if y or x % Z.den)
            reasons.append(f"non-integer coefficient {bad}")
        if not positive:
            reasons.append("leading term not a positive real")
        detail = "; ".join(reasons)
    return HilbertReport(
        integer_coefficients=integral,
        positive_leading=positive,
        satisfied=satisfied,
        detail=detail,
    )
