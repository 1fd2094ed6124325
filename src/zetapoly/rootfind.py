"""The general root finder, loaded on first use by ``roots`` or as
``zeta.roots`` / ``zeta.rh_check`` (PEP 562): Yun's squarefree split over
Q(i), Aberth seeds in complex doubles and then in fixed point, roots
certified by a proved residual bound, and the line / circle check on them."""

from __future__ import annotations

import math
import sys
from itertools import zip_longest

from zetapoly.dyadic import Dyadic, aligned, nstr, quotient, sqrt_rounded
from zetapoly.errors import InputError, PrecisionError
from zetapoly.exactnum import DensePoly, reduced
from zetapoly.zeta import RootCheckReport, _sorted_roots, _sqrt64, as_tolerance

_ABERTH_MAX_ITER = 500
_SEED_ANGLE_OFFSET = 0.4  # fixed phase offset; breaks symmetric stalls, deterministic
_ISOLATION_BITS = 53  # the first Aberth rung runs on Python complex doubles


def _trim(p: list) -> list:
    """p without its zero leading coefficients; the zero polynomial is []."""
    while p and p[-1] == (0, 0):
        p.pop()
    return p


_GUARD_BITS = 32  # fixed-point bits carried beyond each rung's precision
_MODULUS = 2**61 - 1  # a prime = 3 mod 4, so Z[i]/(p) is the field of p^2 elements


def _coprime_mod_p(f: list, g: list) -> bool:
    """True when f and g in Z[i][x], lc(f) prime to p = ``_MODULUS``, are
    coprime modulo p.  That proves them coprime over Q(i): by Gauss's lemma
    a common factor can be taken in Z[i][x] with a leading coefficient
    dividing lc(f), so it keeps its degree mod p and divides both there.
    False proves nothing.  Costs O(d^2) word-size operations."""
    p = _MODULUS

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p

    a, b = (_trim([(x % p, y % p) for x, y in h]) for h in (f, g))
    while b:
        norm = pow(b[-1][0] ** 2 + b[-1][1] ** 2, -1, p)
        inv_lead = (b[-1][0] * norm % p, -b[-1][1] * norm % p)
        while len(a) >= len(b):
            c = mul(a[-1], inv_lead)
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                t = mul(c, bj)
                a[shift + j] = ((a[shift + j][0] - t[0]) % p, (a[shift + j][1] - t[1]) % p)
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _quotient(p: list, q: list) -> list:
    """p / q for a nonzero q that divides p in Z[i][x]."""
    (lr, li), dq = q[-1], len(q) - 1
    n, r, out = lr * lr + li * li, list(p), [None] * (len(p) - dq)
    for k in range(len(out) - 1, -1, -1):
        x, y = r[k + dq]
        cr, ci = out[k] = (x * lr + y * li) // n, (y * lr - x * li) // n
        for j, (xr, xi) in enumerate(q[:dq], k):
            r[j] = r[j][0] - cr * xr + ci * xi, r[j][1] - cr * xi - ci * xr
    return out


def _gcd(p: list, q: list) -> list:
    """A primitive gcd of p != 0 and q in Z[i][x], by pseudo-remainders.
    Each divisor is first scaled to a leading coefficient D in Z (by the
    conjugate of its own, over its integer content), so no Gaussian content
    builds up; Euclid on Z[i] takes out what is left at the end."""
    while q:
        lr, li = q[-1]
        q = [(x * lr + y * li, y * lr - x * li) for x, y in q]
        g = math.gcd(*(x for c in q for x in c))
        q = [(x // g, y // g) for x, y in q]
        D, dq, r = q[-1][0], len(q) - 1, list(p)
        while len(r) > dq:
            cr, ci = r.pop()
            r = [(D * x, D * y) for x, y in r]
            for j, (xr, xi) in enumerate(q[:dq], len(r) - dq):
                r[j] = r[j][0] - cr * xr + ci * xi, r[j][1] - cr * xi - ci * xr
            _trim(r)
        p, q = q, r
    a = (math.gcd(*(x * x + y * y for x, y in p)), 0)  # a multiple of the content
    for b in p:  # a = gcd(a, b) by Euclid with rounded quotients
        while b[0] or b[1]:
            n, xr, xi = b[0] ** 2 + b[1] ** 2, a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
            qr, qi = (2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n)
            a, b = b, (a[0] - qr * b[0] + qi * b[1], a[1] - qr * b[1] - qi * b[0])
    return _quotient(p, [a])


def squarefree_parts(f: tuple) -> list:
    """Yun's squarefree decomposition of a monic f of degree >= 1 over Q(i),
    on reduced forms (den, pairs): the pairs (g_k, k) with f = prod g_k^k,
    each g_k monic, squarefree and of degree >= 1.  When f and f' are coprime
    modulo a prime, f is squarefree and returns as it is, without exact gcds.

    The gcds and exact divisions run on den f in Z[i][x]: Yun's b and d
    carry one common scale, so d / a - b' stays exact, and each g_k is
    made monic once at the end."""

    def deriv(p):
        return [(k * x, k * y) for k, (x, y) in enumerate(p)][1:]

    den, b = f
    d = deriv(b)
    if den % _MODULUS and _coprime_mod_p(b, d):
        return [(f, 1)]
    parts, k = [], 0
    while len(b) > 1:
        a = _gcd(b, d)
        b, d = _quotient(b, a), _quotient(d, a)
        if k and len(a) > 1:
            (lr, li), n = a[-1], a[-1][0] ** 2 + a[-1][1] ** 2  # a / lc(a) = a conj(lc(a)) / n
            parts.append((reduced(n, [(x * lr + y * li, y * lr - x * li) for x, y in a]), k))
        d = _trim([(u - x, v - y) for (u, v), (x, y) in zip_longest(d, deriv(b), fillvalue=(0, 0))])
        k += 1
    return parts


def roots(poly, precision: int = 128) -> list:
    """All complex roots of a nonzero polynomial, multiplicity-aware, as
    (real part, imaginary part) pairs of exact Dyadic values.

    1. The input is read as one exact form (den, pairs), coefficient k
       (p_k + q_k i)/den: a PolyX / ZetaPoly as held, a NumericPoly as its
       mantissas (the common 2^E cancels).  Both take one path: trimmed,
       roots at the origin split off, made monic exactly before any
       rounding, then split by Yun's squarefree decomposition over Q(i)
       into squarefree factors of exact multiplicity.  A linear factor's
       root is rounded once to precision + 32 bits.
    2. Each other factor is isolated by Aberth-Ehrlich iteration, seeded
       on the Fujiwara radius 2 max_k |c_(d-k)|^(1/k), in complex doubles
       (53 bits).  This rung hands off to the retry of step 4 at once when
       a coefficient overflows doubles, a nonzero coefficient rounds to 0
       or to a subnormal, an iterate stops being finite, or 500 sweeps
       meet no stop rule.
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
       norm of P's coefficients, compared as squares against the integer
       pair (max(||P||, 1)^2 den^2, den^2 4^(precision/2)) by cross-
       multiplication.  A pass therefore proves the residual of the
       returned root below that target.  If a root fails, stages 2-4 rerun
       with the Aberth stage in fixed point at double the bits;
       PrecisionError is raised when the stage at full precision fails, or
       at once when a failing root's bound B alone reaches the target,
       which no rerun near that root can lower.

    The residual target does not scale with |root|, while Horner's
    rounding error grows like sum_k |c_k| |z|^k: at low precision an input
    with a root far outside the unit disc (modulus 27 in a degree-30 case)
    can fail the certificate with PrecisionError; it passes at higher
    precision.  A small residual does not bound the distance to a root
    inside a tight cluster.

    Roots are sorted by real part rounded to the certified 2^(-precision/2)
    grid, then by imaginary part, so the order does not follow the noise
    in the last bits.  ``precision`` must be at least 64 bits.
    """
    if precision < 64:
        raise InputError("precision must be at least 64 bits")
    pairs = _trim(list(poly.pairs) if isinstance(poly, DensePoly) else [(m, 0) for m in poly.mans])
    if not pairs:
        raise InputError("the zero polynomial has no root set")
    origin = next(k for k, c in enumerate(pairs) if c != (0, 0))
    lr, li = pairs[-1]  # c / l = c conj(l) / |l|^2
    monic = reduced(lr * lr + li * li, [(p * lr + q * li, q * lr - p * li) for p, q in pairs[origin:]])
    factors = squarefree_parts(monic) if len(monic[1]) > 1 else []
    found = [(0, 0, 0)] * origin + _certified_roots(monic, factors, precision)
    return [(Dyadic(a, E), Dyadic(b, E)) for a, b, E in _sorted_roots(found, precision)]


def _below(x2: int, shift: int, target2: tuple) -> bool:
    """Whether x2 4^shift < N / D for ``target2`` = (N, D), by cross-multiplication."""
    N, D = target2
    return x2 * D << 2 * shift < N if shift >= 0 else x2 * D < N << -2 * shift


def _not_certified(target2: tuple) -> PrecisionError:
    """The error for residuals that stay above the target sqrt(N / D), ``target2`` = (N, D)."""
    target = nstr(Dyadic(*_sqrt64(*target2)), 5)
    return PrecisionError(f"root iteration failed to certify residuals below {target}")


def _certified_roots(monic: tuple, factors: list, precision: int) -> list:
    """Stages 2-4 of ``roots``: the roots of the squarefree ``factors``
    (g, k) of ``monic``, each repeated k times and certified on ``monic``,
    as exact dyadics (a, b, E); every polynomial is a reduced form (den, pairs)."""
    den, pairs = monic
    fixed = _floored(monic, precision + _GUARD_BITS)
    norm2 = max(max(p * p + q * q for p, q in pairs), den * den)  # max(||P||, 1)^2 den^2
    target2 = norm2, den * den << 2 * (precision // 2)
    bits = _ISOLATION_BITS
    while True:
        try:
            found = [(_refined_roots(g, bits, precision), k) for g, k in factors]
        except PrecisionError:
            if bits == precision:
                raise
        else:
            checked = [([_residual_below(fixed, z, target2) for z in zs], k) for zs, k in found]
            if all(ok for rows, _ in checked for ok, _, _ in rows):
                return [z for rows, k in checked for _, z, _ in rows * k]
            if bits == precision or any(futile for rows, _ in checked for _, _, futile in rows):
                raise _not_certified(target2)
        bits = min(2 * bits, precision)


def _refined_roots(g: tuple, bits: int, precision: int) -> list:
    """Roots of one squarefree monic factor, the form ``g`` = (den, pairs),
    as exact dyadics: Aberth at ``bits`` (in complex doubles at
    _ISOLATION_BITS, above it in fixed point), then one fixed-point Newton step
    per root on each rung ceil(precision / 2^k) above ``bits``, from the
    lowest, and on ``precision`` itself.  A linear factor's root is rounded
    once to precision + _GUARD_BITS bits."""
    den, pairs = g
    if len(pairs) == 2:
        E, (a, b) = aligned([quotient(-x, den, 0, precision + _GUARD_BITS) for x in pairs[0]])
        return [(a, b, E)]
    if bits > _ISOLATION_BITS:
        z = _aberth_fixed(g, bits)
    else:
        try:
            z = [_dyadic(x) for x in _aberth(_doubles(g))]
        except OverflowError as exc:  # abs() of a complex past the double range
            raise PrecisionError("root isolation overflowed doubles") from exc
    for k in range(precision.bit_length(), -1, -1):
        rung = -(-precision >> k)  # ceil(precision / 2^k)
        if rung > bits or k == 0:
            fixed = _floored(g, rung + _GUARD_BITS)
            z = [_newton_step(fixed, x) for x in z]
    return z


def _aberth(coeffs: list) -> list:
    """Aberth-Ehrlich simultaneous iteration on a monic coefficient list, in
    complex doubles (``_aberth_fixed`` runs it in fixed point).

    Stops once every residual is below 2^(-_ISOLATION_BITS/2) times the sup
    norm of the coefficients (at least 1), or once a sweep moves no root by
    that much relative to max(|z|, 1): the residual rule alone cannot be met
    when a large root amplifies rounding.  Raises PrecisionError, which
    ``_certified_roots`` catches, on an iterate that is not finite or when
    neither rule holds.
    """
    d = len(coeffs) - 1
    norm = max(max(abs(c) for c in coeffs), 1.0)
    step_tol = 2.0 ** -(_ISOLATION_BITS // 2)
    target = step_tol * norm
    radius = 2 * max(abs(coeffs[d - k]) ** (1.0 / k) for k in range(1, d + 1)) or 1.0
    angles = (2 * math.pi * j / d + _SEED_ANGLE_OFFSET for j in range(d))
    z = [radius * complex(math.cos(a), math.sin(a)) for a in angles]
    for _ in range(_ABERTH_MAX_ITER):
        residual = moved = 0.0
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
            moved = max(moved, abs(step) / max(size, 1.0))
        if residual < target or moved < step_tol:
            return z
    if max(abs(_horner2(coeffs, zj)[0]) for zj in z) < target:  # final certification pass
        return z
    raise PrecisionError("root isolation in doubles did not converge")


def _horner2(coeffs: list, x):
    """Evaluate p(x) and p'(x) together."""
    p = dp = 0
    for c in reversed(coeffs):
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _aberth_fixed(g: tuple, bits: int) -> list:
    """``_aberth`` at ``bits`` in fixed point, for a squarefree monic form
    ``g`` = (den, pairs) of degree d >= 2: the same seeds (here from
    ``_floored``'s logs), sweep cap and stop rule, on exact dyadics.

    ``_horner_fixed`` at t = bits + _GUARD_BITS gives G and D at the
    point 2^e y, on the grid 2^(e - t).  The repulsion S = sum_l 1/(z_j - z_l)
    over the other iterates sums floored Gaussian integer quotients in
    units of 2^-(t + e), and the step P / (P' - P S) = 2^e G / (D - 2^e G S)
    is divided as ``_newton_step`` divides G / D, onto the point's grid."""
    den, pairs = g
    fixed = t, d, rows = _floored(g, bits + _GUARD_BITS)
    half, den2 = bits // 2, den * den
    target2 = max(max(p * p + q * q for p, q in pairs), den2), den2 << 2 * half  # max(||g||, 1)^2 4^-half
    log_r = 1 + max(lc / (d - k) for k, *_, lc in rows if k < d)  # 2 max_k |c_(d-k)|^(1/k)
    unit = 2 ** (log_r % 1)
    angles = (2 * math.pi * j / d + _SEED_ANGLE_OFFSET for j in range(d))
    z = [_dyadic(unit * complex(math.cos(a), math.sin(a)), math.floor(log_r)) for a in angles]

    def small(gr, gi, _dr, _di, _bound, s, _point):  # |P| < 2^-half max(||g||, 1), from G and s
        return _below(gr * gr + gi * gi, s - t, target2)

    for _ in range(_ABERTH_MAX_ITER):
        settled, moved = True, False
        for j in range(d):
            h = _horner_fixed(fixed, z[j], derivative=True)
            gr, gi, dr, di, _, _, (yr, yi, E) = h
            settled &= small(*h)
            if not (gr or gi):
                continue
            sr = si = 0  # S in units of 2^-(t + e), e = E + t
            for a, b, F in z[:j] + z[j + 1:]:
                L = min(E, F)
                u, v = (yr << E - L) - (a << F - L), (yi << E - L) - (b << F - L)
                n = u * u + v * v
                if n:
                    sr, si = sr + (u << 2 * t + E - L) // n, si + (-v << 2 * t + E - L) // n
            wr, wi = dr - (gr * sr - gi * si >> t), di - (gr * si + gi * sr >> t)
            if not (wr or wi):
                continue
            sr, si = _ratio(gr, gi, wr, wi, t)
            z[j] = yr - sr, yi - si, E
            x, n = sr * sr + si * si, (yr - sr) ** 2 + (yi - si) ** 2  # |step| >= 2^-half max(|z|, 1)
            moved |= x << 2 * half >= n and x.bit_length() > max(-2 * (half + E), 0)
        if settled or not moved:
            return z
    if all(small(*_horner_fixed(fixed, x)) for x in z):  # final certification pass
        return z
    raise _not_certified(target2)


def _dyadic(x: complex, exp: int = 0) -> tuple[int, int, int]:
    """The complex double x times 2^exp as the exact dyadic (a, b, E) = (a + b i) 2^E."""
    parts = (x.real.as_integer_ratio(), x.imag.as_integer_ratio())  # denominators are powers of 2
    E, (a, b) = aligned([(m, exp + 1 - q.bit_length()) for m, q in parts])
    return a, b, E


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
    the products plus 2 per nonzero coefficient.

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
    for k, cr, ci, u, _ in rows:
        shift = u - (k * e + t - s)
        ar[k], ai[k] = (cr + (1 << shift - 1)) >> shift, (ci + (1 << shift - 1)) >> shift
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
    halves = d + 1 + 2 * len(rows)
    return gr, gi, dr << cut, di << cut, (3 * halves + 3) // 4, s, (yr, yi, e - t)


def _newton_step(fixed: tuple, z: tuple) -> tuple:
    """One fixed-point Newton step from the dyadic root z: the new root
    (z itself where the derivative vanishes)."""
    gr, gi, dr, di, _, _, (yr, yi, E) = _horner_fixed(fixed, z, derivative=True)
    if not (dr or di):
        return z
    sr, si = _ratio(gr, gi, dr, di, fixed[0])  # the step G / D, in units of 2^E
    return yr - sr, yi - si, E


def _ratio(nr: int, ni: int, dr: int, di: int, t: int) -> tuple[int, int]:
    """2^t (nr + ni i) / (dr + di i), each part floored; d != 0."""
    dd = dr * dr + di * di
    return ((nr * dr + ni * di) << t) // dd, ((ni * dr - nr * di) << t) // dd


def _residual_below(fixed: tuple, z: tuple, target2: tuple) -> tuple:
    """Whether |P(point)| < target is proved, ``target2`` = (N, D) with
    target^2 = N / D and ``point`` the dyadic at which ``_horner_fixed``
    evaluated P near z (z itself when it has at most t bits below 2^e):
    with the kernel's G and B it passes iff (isqrt(|G|^2) + 1 + B)^2 <
    target^2 in the kernel's units, and then |P(point)| <= |G| + B < target.

    Returns (passed, point, futile); a failure means |P(point)| >= target
    - (2B + 1) 2^(s - t), and ``futile`` that no G could pass:
    (1 + B) 2^(s - t) >= target."""
    gr, gi, _, _, bound, s, point = _horner_fixed(fixed, z)
    ok = _below((math.isqrt(gr * gr + gi * gi) + 1 + bound) ** 2, s - fixed[0], target2)
    return ok, point, not _below((1 + bound) ** 2, s - fixed[0], target2)


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


def rh_check(poly, mode: str, tol="1e-8", precision: int = 128) -> RootCheckReport:
    """Check whether all roots lie on Re = 1/2 (``critical_line``) or on
    |X| = 1 (``unit_circle``), up to ``tol``, at ``precision`` >= 64 bits."""
    if mode not in ("critical_line", "unit_circle"):
        raise InputError(f"unknown mode {mode!r}")
    tol_pair = as_tolerance(tol)
    rts = roots(poly, precision=precision)
    if mode == "critical_line":
        devs = [abs(x - Dyadic(1, -1)) for x, _ in rts]
    else:  # |z| - 1, |z| rounded to precision + _GUARD_BITS bits
        norms = [aligned([x.man_exp, y.man_exp]) for x, y in rts]
        devs = [abs(Dyadic(*sqrt_rounded(a * a + b * b, 2 * E, precision + _GUARD_BITS)) - 1)
                for E, (a, b) in norms]
    E, mans = aligned([x.man_exp for x in devs])
    m = max(mans, default=0)
    passed = (m * tol_pair[1]) << max(E, 0) < tol_pair[0] << max(-E, 0)
    return RootCheckReport(mode, tuple(rts), Dyadic(m, E), tol_pair, passed)
