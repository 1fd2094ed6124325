import math
import random
from fractions import Fraction

import mpmath
from hypothesis import strategies as st
from mpmath import mp

from zetapoly.dyadic import aligned
from zetapoly.exactnum import ONE, ZERO, GaussianRational, I, from_pairs
from zetapoly.lvalues import NewformData, NumericPoly, required_nmax
from zetapoly.polyspace import PolyX
from zetapoly.rv import rv_forward, series_coeffs
from zetapoly.zeta import laurent_coeffs


# -- seeded-random helpers (bulk tests) --------------------------------

def rand_qi(rng: random.Random, span: int = 9, max_den: int = 4) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
        Fraction(rng.randint(-span, span), rng.randint(1, max_den)),
    )


def rand_polyx(rng: random.Random, w: int) -> PolyX:
    return PolyX.make(w, [rand_qi(rng) for _ in range(w + 1)])


def scaled(P, c):
    """c P for a Q(i) scalar c, coefficient by coefficient, in P's class."""
    return type(P).make(P.w, [GaussianRational.coerce(c) * a for a in P.coeffs])


def poly_with_roots(rts) -> PolyX:
    """The exact product of (X - rho) over ``rts``, in the smallest even
    weight that holds it."""
    coeffs = (ONE,)
    for rho in rts:
        coeffs = naive_mul(coeffs, (-GaussianRational.coerce(rho), ONE))
    return PolyX.make(len(rts) + len(rts) % 2, coeffs)


def modulus_27_poly() -> PolyX:
    """29 seeded roots with real and imaginary parts randint(-9, 9) /
    randint(1, 9), then the root 27: degree 30, one root far outside the
    unit disc."""
    rng = random.Random(5)
    rts = [
        GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        for _ in range(29)
    ]
    return poly_with_roots(rts + [GaussianRational(27)])


def pentagonal_tau(nmax: int) -> list[int]:
    """tau(1), ..., tau(nmax) as the 24th power of Euler's pentagonal
    series for prod (1-q^n), by O(nmax^2) schoolbook products."""
    e = [0] * nmax
    e[0] = 1
    j = 1
    while j * (3 * j - 1) // 2 < nmax:
        sign = -1 if j % 2 else 1
        e[j * (3 * j - 1) // 2] += sign
        g2 = j * (3 * j + 1) // 2
        if g2 < nmax:
            e[g2] += sign
        j += 1

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * nmax
        for i, ai in enumerate(a):
            if ai:
                for t, bt in enumerate(b[: nmax - i]):
                    if bt:
                        out[i + t] += ai * bt
        return out

    e3 = mul(mul(e, e), e)
    e6 = mul(e3, e3)
    e12 = mul(e6, e6)
    return mul(e12, e12)


# -- dyadic values as mpmath values, and back -------------------------


def mpf(x) -> mpmath.mpf:
    """The exact value of a Dyadic (or of anything with ``_mpf_``) as an mpf."""
    return mp.make_mpf(x._mpf_)


def mpc(z) -> mpmath.mpc:
    """The exact value of a (real part, imaginary part) pair of such values."""
    return mp.make_mpc((z[0]._mpf_, z[1]._mpf_))


def numeric_poly(values, prec: int, errs=None) -> NumericPoly:
    """The NumericPoly of degree <= len(values) - 1 holding the exact values
    of the ints or mpf ``values`` and, if given, of the error bounds ``errs``."""
    raw = [v._mpf_ if hasattr(v, "_mpf_") else mpmath.mpf(v)._mpf_ for v in [*values, *(errs or ())]]
    exp, mans = aligned([(-m if sign else m, e) for sign, m, e, _ in raw])
    n = len(values)
    return NumericPoly(n - 1, exp, tuple(mans[:n]), prec, None if errs is None else tuple(mans[n:]))


def poly_values(poly: NumericPoly, errs: bool = False) -> tuple:
    """The coefficients (or, with ``errs``, the error bounds) as exact mpf values."""
    return tuple(mpmath.ldexp(m, poly.exp) for m in (poly.errs if errs else poly.mans))


def mpmath_loop_lambdas(f: NewformData, prec: int, work_prec: int) -> list:
    """Lambda(f, 1..k-1) by the Eichler partial sums S_j = sum a_n q^n n^-j
    in mpmath floats at ``work_prec`` bits, truncated at required_nmax(N, k,
    prec) as critical_lambdas is: q^n by repeated products, a_n q^n divided
    by n up to k-1 times, then A(r) = sum_j (r-1)!/(r-j)! c^-j S_j and
    Lambda(s) = A(s) + eps i^k A(k-s).  Each term is off by at most
    (2n+k) 2^-work_prec relative."""
    k = f.weight
    need = required_nmax(f.level, k, prec)
    sign = f.fricke * (-1) ** (k // 2)
    with mp.workprec(work_prec):
        c = 2 * mpmath.pi / mpmath.sqrt(f.level)
        q = mpmath.exp(-c)
        sums = [mpmath.mpf(0)] * k
        qn = mpmath.mpf(1)
        for n in range(1, need + 1):
            qn = qn * q
            term = f.an[n - 1] * qn
            for j in range(1, k):
                term = term / n
                sums[j] += term
        scaled = [sums[j] / c**j for j in range(k)]
        a = [sum(math.perm(r - 1, j - 1) * scaled[j] for j in range(1, r + 1)) for r in range(k)]
        return [+(a[s] + sign * a[k - s]) for s in range(1, k)]


def linear_pow(a, b, n: int) -> list:
    """Coefficients (ascending) of (a x + b)^n by n repeated products,
    with no binomial coefficient."""
    out = [ONE]
    for _ in range(n):
        nxt = [ZERO] * (len(out) + 1)
        for t, c in enumerate(out):
            nxt[t] = nxt[t] + c * b
            nxt[t + 1] = nxt[t + 1] + c * a
        out = nxt
    return out


def naive_mul(p, q) -> list:
    """Coefficients (ascending) of the product p q, by the double loop."""
    out = [ZERO] * (len(p) + len(q) - 1)
    for a, ca in enumerate(p):
        for b, cb in enumerate(q):
            out[a + b] = out[a + b] + ca * cb
    return out


def mat_mul(g, h) -> tuple:
    """The product of 2x2 matrices given as (a, b, c, d) over Q(i)."""
    a, b, c, d = (GaussianRational.coerce(x) for x in g)
    e, f, p, q = (GaussianRational.coerce(x) for x in h)
    return (a * e + b * p, a * f + b * q, c * e + d * p, c * f + d * q)


def slash_oracle(P: PolyX, g) -> PolyX:
    """The weight -w slash det(g)^(-w/2) sum_j p_j (aX+b)^j (cX+d)^(w-j)
    for any invertible Q(i) matrix g = (a, b, c, d), in exact Q(i)
    arithmetic: the sum by Horner's rule in aX+b, over the table of
    powers of cX+d."""
    a, b, c, d = (GaussianRational.coerce(x) for x in g)
    det = a * d - b * c
    if det.is_zero():
        raise ZeroDivisionError("singular matrix")
    w = P.w
    num = linear_pow(a, b, 1)
    den_pows = [linear_pow(c, d, 0)]
    for _ in range(w):
        den_pows.append(naive_mul(den_pows[-1], linear_pow(c, d, 1)))
    acc = [ZERO]
    for j in range(w, -1, -1):
        acc = naive_mul(acc, num)[: w + 1]
        if not P.coeffs[j].is_zero():
            for t, v in enumerate(den_pows[w - j]):
                acc[t] = acc[t] + P.coeffs[j] * v
    factor = det ** (-(w // 2))
    return PolyX.make(w, [factor * v for v in acc])


def horner(coeffs, x) -> GaussianRational:
    """The value at x of the polynomial with ascending ``coeffs``, by
    Horner's rule in exact Q(i) arithmetic."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_trim(p) -> tuple:
    """Drop zero leading coefficients; the zero polynomial becomes ()."""
    deg = len(p) - 1
    while deg >= 0 and p[deg].is_zero():
        deg -= 1
    return tuple(p[: deg + 1])


def poly_divmod(p, q) -> tuple:
    """Quotient and remainder (ascending, trimmed) of p by a nonzero q,
    by long division over Q(i) in Fractions."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by 0")
    dq = len(q) - 1
    inv_lead = q[-1].inverse()
    rem = list(poly_trim(p))
    quot = [ZERO] * max(len(rem) - dq, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dq] * inv_lead
        quot[k] = c
        if not c.is_zero():
            for j in range(dq):
                rem[k + j] = rem[k + j] - c * q[j]
    return tuple(quot), poly_trim(rem[:dq])


def poly_gcd(p, q) -> tuple:
    """Monic greatest common divisor of p and q, not both zero (Euclid over
    Q(i), each remainder made monic)."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        r = poly_divmod(p, q)[1]
        p, q = q, tuple(c / r[-1] for c in r) if r else ()
    if not p:
        raise ZeroDivisionError("gcd of two zero polynomials")
    return tuple(c / p[-1] for c in p)


def yun_oracle(f) -> list:
    """Yun's squarefree decomposition of a monic f of degree >= 1, by
    ``poly_gcd`` and ``poly_divmod`` over Q(i): the pairs (g_k, k) with
    f = prod g_k^k, each g_k monic and of degree >= 1."""

    def deriv(p):
        return tuple(c * k for k, c in enumerate(p))[1:]

    def sub(p, q):
        q = tuple(q) + (ZERO,) * (len(p) - len(q))
        p = tuple(p) + (ZERO,) * (len(q) - len(p))
        return tuple(a - b for a, b in zip(p, q))

    df = deriv(f)
    a = poly_gcd(f, df)
    b = poly_divmod(f, a)[0]
    d = sub(poly_divmod(df, a)[0], deriv(b))
    parts, k = [], 1
    while len(b) > 1:
        a = poly_gcd(b, d)
        b = poly_divmod(b, a)[0]
        if len(a) > 1:
            parts.append((a, k))
        d = sub(poly_divmod(d, a)[0], deriv(b))
        k += 1
    return parts


def horner_fixed_oracle(fixed: tuple, z: tuple, derivative: bool = False) -> tuple:
    """``rootfind._horner_fixed`` with four integer products per Gaussian
    product and P' at the full t bits: the same (G, B, s, point), and D
    floored at each step from the unrounded y and G."""
    t, d, rows = fixed
    zr, zi, E = z
    n = zr * zr + zi * zi
    m = ((n - 1).bit_length() + 1) // 2 if n else 0
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
    gr = gi = dr = di = 0
    for k in range(d, -1, -1):
        if derivative:
            dr, di = ((dr * yr - di * yi) >> t) + gr, ((dr * yi + di * yr) >> t) + gi
        gr, gi = (
            ((gr * yr - gi * yi + half) >> t) + ar[k],
            ((gr * yi + gi * yr + half) >> t) + ai[k],
        )
    return gr, gi, dr, di, (3 * halves + 3) // 4, s, (yr, yi, e - t)


def exact_identity_value(R: PolyX, n: int) -> GaussianRational:
    """Closed form of the full identity value: the infinite sum equals
    [z^n] of -R(z-i)/(1-z)^(w+1), an exact finite computation."""
    w = R.w
    Z = rv_forward(R)
    zv = from_pairs(Z.den, series_coeffs(Z, max(w, n) + 1))
    princ = laurent_coeffs(w, n, -1)
    exact = zv[n] + ((-I) ** w) * sum(
        (princ.coeff(-m) * zv[m - 1] for m in range(1, n + 2)), ZERO
    )
    recentered = [ZERO] * (w + 1)
    for p, ap in enumerate(R.coeffs):
        if ap.is_zero():
            continue
        for t in range(p + 1):
            recentered[t] = recentered[t] + ap * math.comb(p, t) * (-I) ** (p - t)
    third = ZERO
    for p in range(min(n, w) + 1):
        third = third - recentered[p] * math.comb(w + n - p, n - p)
    return exact + third


def symmetric_polyx(rng: random.Random, w: int, eps: int) -> PolyX:
    """Random R with a_j + eps i^w a_{w-j} = 0 for all j: as w is even,
    a_{w-j} = sign a_j with sign = -eps i^w = -eps (-1)^(w/2)."""
    sign = -eps * (-1) ** (w // 2)
    coeffs = [None] * (w + 1)
    for j in range(w // 2):
        a = rand_qi(rng)
        coeffs[j] = a
        coeffs[w - j] = a if sign == 1 else -a
    coeffs[w // 2] = rand_qi(rng) if sign == 1 else ZERO  # a_mid (1 - sign) = 0
    return PolyX.make(w, coeffs)


def violating_polyx(rng: random.Random, w: int, eps: int) -> PolyX:
    """Random R breaking the symmetry in at least one coefficient pair.

    Only indices j < w/2 are bumped: the middle coefficient never
    constrains the relation (its pair condition is a_mid (1 + eps i^w) = 0,
    which is automatic whenever a_mid is allowed to be nonzero).
    """
    R = symmetric_polyx(rng, w, eps)
    j = rng.randrange(w // 2)
    bump = GaussianRational(rng.randint(1, 5))
    coeffs = list(R.coeffs)
    coeffs[j] = coeffs[j] + bump
    return PolyX.make(w, coeffs)


# -- hypothesis strategies ---------------------------------------------

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
qi_values = st.builds(GaussianRational, small_fractions, small_fractions)
even_w = st.sampled_from([2, 4, 6, 8, 10])


def polyx_of(w: int):
    return st.builds(
        lambda cs: PolyX.make(w, cs),
        st.lists(qi_values, min_size=w + 1, max_size=w + 1),
    )


polyx_values = even_w.flatmap(polyx_of)
