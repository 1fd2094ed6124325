import math
import random
from fractions import Fraction

import mpmath
from hypothesis import strategies as st
from mpmath import mp

from zetapoly.exactnum import ONE, ZERO, GaussianRational, I
from zetapoly.lvalues import NewformData, required_nmax
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
    return PolyX(w, tuple(rand_qi(rng) for _ in range(w + 1)))


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


def horner(coeffs, x) -> GaussianRational:
    """The value at x of the polynomial with ascending ``coeffs``, by
    Horner's rule in exact Q(i) arithmetic."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def exact_identity_value(R: PolyX, n: int) -> GaussianRational:
    """Closed form of the full identity value: the infinite sum equals
    [z^n] of -R(z-i)/(1-z)^(w+1), an exact finite computation."""
    w = R.w
    Z = rv_forward(R)
    zv = series_coeffs(Z, max(w, n) + 1)
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
    """Random R with a_j + eps i^w a_{w-j} = 0 for all j."""
    phase = GaussianRational(-eps) * I ** (-w)
    coeffs = [None] * (w + 1)
    for j in range(w // 2):
        a = rand_qi(rng)
        coeffs[j] = a
        coeffs[w - j] = phase * a
    mid = w // 2
    if (GaussianRational(1) + GaussianRational(eps) * I**w).is_zero():
        coeffs[mid] = rand_qi(rng)
    else:
        coeffs[mid] = GaussianRational(0)
    return PolyX(w, tuple(coeffs))


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
    return PolyX(w, tuple(coeffs))


# -- hypothesis strategies ---------------------------------------------

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
qi_values = st.builds(GaussianRational, small_fractions, small_fractions)
even_w = st.sampled_from([2, 4, 6, 8, 10])


def polyx_of(w: int):
    return st.builds(
        lambda cs: PolyX(w, tuple(cs)),
        st.lists(qi_values, min_size=w + 1, max_size=w + 1),
    )


polyx_values = even_w.flatmap(polyx_of)
