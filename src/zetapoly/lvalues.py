"""High-precision numerics: Fourier coefficients, critical L-values, and
the numeric period polynomial and zeta-polynomial.

The completed L-function Lambda(f, s) = (sqrt(N)/2pi)^s Gamma(s) L(f, s)
is evaluated by the exponentially convergent symmetric series split at
the Fricke fixed point y = 1:

    Lambda(f, s) = sum_{n>=1} a_n [ x_n^-s Gamma(s, x_n)
                                    + eps i^k x_n^-(k-s) Gamma(k-s, x_n) ],

with x_n = 2 pi n / sqrt(N) and Gamma(r, x) the upper incomplete gamma
function, which for integer r >= 1 has the finite closed form
(r-1)! e^-x sum_{t<r} x^t / t!, so all k-1 critical values come from one
pass over n (``critical_lambdas``).  That pass, its constants pi, e^-c and
c^-j, and ``numeric_rv`` run on integers with proved error bounds, and
each result is a dyadic rounded once to prec+32 bits, reproducible bit
for bit.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, repeat
from operator import floordiv, mul

from zetapoly.dyadic import Dyadic, aligned, quotient, rounded
from zetapoly.errors import InputError, PrecisionError
from zetapoly.exactnum import Record
from zetapoly.rv import _scaled_forward

GUARD_BITS = 16


def printed_digits(prec: int) -> int:
    """Decimal digits printed for an L-value computed at ``prec`` bits."""
    return int(prec * 0.3010) + 3


# ---------------------------------------------------------------------
# Newform data
# ---------------------------------------------------------------------


class NewformData(Record):
    """Level, even weight, Fricke eigenvalue, and integer Fourier coefficients.

    ``an[0]`` is a_1 and must equal 1 (normalized eigenform), and every
    |a_n| must be at most n^((k+1)/2), the bound ``required_nmax``'s tail
    estimate assumes (Deligne's bound with d(n) <= n).  The Fricke
    eigenvalue is trusted input: ``zetapoly lvalues newform.json`` uses
    it as given.
    """

    level: int
    weight: int
    fricke: int
    an: tuple[int, ...]
    label: str = ""

    def __post_init__(self):
        if self.level < 1:
            raise InputError(f"level must be positive, got {self.level}")
        if self.weight < 4 or self.weight % 2:
            raise InputError(f"weight must be an even integer >= 4, got {self.weight}")
        if self.fricke not in (1, -1):
            raise InputError(f"fricke eigenvalue must be +1 or -1, got {self.fricke}")
        an = tuple(int(a) for a in self.an)
        if not an or an[0] != 1:
            raise InputError("coefficients must start with a_1 = 1")
        k = self.weight
        bad = next((n for n, a in enumerate(an, 1) if a * a > n ** (k + 1)), None)
        if bad is not None:
            raise InputError(
                f"a_{bad} = {an[bad - 1]} exceeds the bound |a_n| <= n^((k+1)/2) for k = {k}"
            )
        object.__setattr__(self, "an", an)

    @property
    def w(self) -> int:
        return self.weight - 2

    @classmethod
    def from_dict(cls, data: dict) -> "NewformData":
        if not isinstance(data, dict):
            raise InputError("newform payload must be a JSON object")
        if not isinstance(data.get("an", []), list):
            raise InputError(f"'an' must be a JSON list, got {type(data['an']).__name__}")
        try:
            return cls(
                level=int(str(data["level"])),
                weight=int(str(data["weight"])),
                fricke=int(str(data["fricke"])),
                an=tuple(int(str(a)) for a in data["an"]),
                label=str(data.get("label", "")),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"bad newform payload: {exc}") from exc


# ---------------------------------------------------------------------
# Fourier coefficients of the weight-12 level-1 form
# ---------------------------------------------------------------------


def delta_coefficients(nmax: int) -> list[int]:
    """tau(1), ..., tau(nmax): coefficients of q prod (1-q^n)^24, exact.

    By Jacobi's identity prod (1-q^n)^3 = J = sum_k (-1)^k (2k+1) q^(k(k+1)/2),
    the product is J^8: J^2 from J's O(sqrt(nmax)) terms, then two squarings
    of X = J^2(2^(8w)) mod 2^(8w nmax) (Kronecker substitution), unpacked once
    into signed slots of w bytes.  They hold every |tau(n)| <= d(n) n^(11/2)
    <= nmax^(13/2) (Deligne) and every |J^2_i| <= (4i+1)(sqrt(2i)+1)."""
    if nmax < 1:
        raise InputError(f"nmax must be >= 1, got {nmax}")
    terms = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(math.isqrt(2 * nmax) + 1)]
    square = [0] * nmax
    for i, (t, c) in enumerate(terms):
        for u, d in terms[i:]:
            if t + u >= nmax:
                break
            square[t + u] += c * d << (u != t)
    w = ((nmax**13).bit_length() + 17) // 16  # nmax^13 < 2^(16w-2)
    half, mask = 1 << 8 * w - 1, (1 << 8 * w * nmax) - 1
    bias = int.from_bytes(half.to_bytes(w, "little") * nmax, "little")  # half in every slot
    x = int.from_bytes(b"".join((c + half).to_bytes(w, "little") for c in square), "little") - bias
    x = (x * x & mask) ** 2 & mask  # J^4, then J^8
    packed = (x + bias & mask).to_bytes(w * nmax, "little")
    return [int.from_bytes(packed[i : i + w], "little") - half for i in range(0, w * nmax, w)]


def delta_newform(prec: int = 128) -> NewformData:
    """The unique weight-12 level-1 newform, with enough coefficients
    for completed-L work at ``prec`` bits."""
    an = tuple(delta_coefficients(required_nmax(1, 12, prec)))
    return NewformData(level=1, weight=12, fricke=1, an=an, label="1.12.a.a")


# ---------------------------------------------------------------------
# Completed L-values
# ---------------------------------------------------------------------


def required_nmax(N: int, k: int, prec: int) -> int:
    """Smallest nmax whose series tail is provably below 2^-(prec+GUARD_BITS).

    Uses |a_n| <= d(n) n^((k-1)/2) <= n^((k+1)/2) and, for x >= 2r,
    Gamma(r, x) <= 2 x^(r-1) e^-x, so the n-th term is at most
    4 n^((k+1)/2) e^(-c n) with c = 2 pi / sqrt(N); the tail from m+1 is
    bounded by a geometric series once those estimates apply.
    From m0 = max(1, ceil(2(k-1)/c), ceil(1/c)) on, p/(m+1) < c for
    p = (k+1)/2, so the bound strictly decreases: a doubling search from m0,
    then bisection, finds the least m > m0 in O(log m) steps.  The ratio
    q = e^x of consecutive term bounds enters as log(1 - q) = log(-expm1(x)),
    which stays finite where q rounds to 1 (levels from about 10^33 on).
    Past 2^1000, N = N' 4^s and m = m' 2^s move the bound by (p + 1) s log 2
    up to terms of relative size 2^-500, so the search runs on N' and m',
    that much below the target, and nmax is a multiple of 2^s.
    """
    s = max(N.bit_length() - 1000, 0) // 2
    c = 2 * math.pi / math.sqrt(N >> 2 * s)
    p = (k + 1) / 2
    target = -(prec + GUARD_BITS + (p + 1) * s) * math.log(2)

    def below(m):  # the tail bound from m + 1 is at most 2^-(prec+GUARD_BITS)
        x = -c + p * math.log1p(1.0 / (m + 1))
        return math.log(4) + p * math.log(m + 1) - c * (m + 1) - math.log(-math.expm1(x)) <= target

    lo = max(1, math.ceil(2 * (k - 1) / c), math.ceil(1 / c))
    hi = lo + 1
    while not below(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi << s


def critical_lambdas(f: NewformData, prec: int = 128) -> list[Dyadic]:
    """[Lambda(f, 1), ..., Lambda(f, k-1)] from one pass over n, on integers.

    With c = 2 pi / sqrt(N) and q = e^-c, the closed form of Gamma(r, x)
    gives A(r) = sum_n a_n (cn)^-r Gamma(r, cn) = sum_{j<=r} (r-1)!/(r-j)!
    c^-j S_j, S_j = sum_{n<=nmax} a_n q^n n^-j, and Lambda(f, s) = A(s) +
    eps i^k A(k-s), so the functional equation holds exactly.

    In units of 2^-T: Q and C_j from ``_series_constants`` are within 2 of
    q 2^T and c^-j 2^T; q_n = (q_(n-1) Q) >> T, exact from ``_mul_shift``'s
    short product, is within e = 5 + floor(3/c), as its error d_n
    has |d_(n+1)| <= (q + 2^(1-T)) |d_n| + 3 and 1 - q >= c/(1+c); each floor
    in sums[j] = sum_n floor(a_n q_n / n^j) drops under 1, so sums[j] is within
    B = e sum|a_n| + (k-1) nmax of 2^T S_j, for any given a_n.  The integer
    sum_j (r-1)!/(r-j)! C_j sums[j] is then within 2^T M of 2^(2T) A(r): a
    term is off by 2 |sums[j]| + c^-j 2^T B <= 2^T B (1 + c^-j) <= 2^T B G^j
    with G = ceil(1/c) + 1, so M = B sum_{j<k} (k-2)!/(k-1-j)! G^j.
    T = prec + 32 + bitlen(2M) puts each Lambda within 2^-(prec+32) before
    its rounding to prec+32 bits (2^-(prec+31) |Lambda|), and the tail past
    nmax is below 2^-(prec+18) (``required_nmax``'s bound drops a factor
    1/(cn) < 1/(2(k-1))), so each value is within 2^-(prec+17) max(1, |Lambda|).
    Too few a_n raise PrecisionError.

    One divmod per n: a_n q_n = y_n n^(k-1) + r_n gives floor(a_n q_n / n^j) =
    n^(k-1-j) y_n + floor(r_n / n^j), the integer k-1 floor divisions by n give.
    """
    k = f.weight
    need = required_nmax(f.level, k, prec)
    if len(f.an) < need:
        raise PrecisionError(
            f"need Fourier coefficients a_1..a_{need} for {prec}-bit work, got only {len(f.an)}"
        )
    sign = f.fricke * (-1) ** (k // 2)  # eps * i^k, real for even k
    inv_c = math.sqrt(f.level) / (2 * math.pi)
    bound = (5 + int(3 * inv_c)) * sum(map(abs, f.an[:need])) + (k - 1) * need  # B
    g = int(inv_c) + 2  # >= ceil(1/c) + 1
    m = bound * sum(math.perm(k - 2, j - 1) * g**j for j in range(1, k))
    t = prec + 32 + (2 * m).bit_length()
    q, cinv = _series_constants(f.level, k, t, g)
    powers = accumulate(repeat(q, need - 1), partial(_mul_shift, t), initial=q)  # q_1, ..., q_need
    ns = range(1, need + 1)
    big, small = zip(*map(divmod, map(mul, f.an, powers), map(pow, ns, repeat(k - 1))))  # y_n, r_n
    sums, acc, big = [0] * k, [], reversed(big)  # sums[j] ~ 2^t S_j for j = 1..k-1
    for j in range(1, k):  # prefix sums over y_need, ..., y_1, j times, end in sum_n y_n C(n+j-2, j-1)
        small = list(map(floordiv, small, ns))
        sums[j] += sum(small)
        big = list(accumulate(big))
        acc.append(big[-1])
    # After i turns acc[m] = sum_n y_n n^i C(n+m-1, m), as n C(n+m-1, m) = (m+1) C(n+m, m+1) - m C(n+m-1, m)
    for j in range(k - 1, 0, -1):
        sums[j] += acc[0]
        acc = [(m + 1) * y - m * x for m, (x, y) in enumerate(zip(acc, acc[1:]))]
    scaled = [cinv[j] * sums[j] for j in range(k)]
    a = [sum(math.perm(r - 1, j - 1) * scaled[j] for j in range(1, r + 1)) for r in range(k)]
    return [Dyadic(*rounded(a[s] + sign * a[k - s], -2 * t, prec + 32)) for s in range(1, k)]


def _mul_shift(t: int, a: int, b: int) -> int:
    """a b >> t for a, b >= 0 (t first, for ``partial``), by a short product.

    With n = bitlen(a) and s = t - 64 - n > 0, a b = (P + e) 2^s for P = a (b >> s)
    and a real 0 <= e < 2^n, so a b >> t = (P + e) >> (n + 64): that is P >> (n + 64)
    unless bits n .. n+63 of P are all ones.  There, and for s <= 0, the full product decides."""
    n = a.bit_length()
    s = t - 64 - n
    if s > 0:
        p = a * (b >> s)
        if (p >> n) + 1 & (1 << 64) - 1:
            return p >> n + 64
    return a * b >> t


def _pi_fixed(W: int) -> int:
    """pi 2^W within 2, by Chudnovsky's series with binary splitting.

    pi = 426880 sqrt(10005) / S, S = sum_k (-1)^k t_k, t_k = (6k)! (A + Bk)
    / ((3k)! k!^3 640320^(3k)), A = 13591409, B = 545140134.  As t_k / t_(k-1)
    = 24 (6k-5)(2k-1)(6k-1) / (k 640320)^3 (A + Bk)/(A + B(k-1)) < 1728 * 42
    / 640320^3 < 2^-41, the first n = W // 41 + 2 terms leave S off by under
    t_n < 2^-(W+41) t_0 < 2^-(W+40) S.  So 426880 isqrt(10005 4^W) / S_n is
    within 0.04 (the square root's floor) plus 2^-40 pi of pi 2^W, and the
    floor division adds under 1."""

    def split(a: int, b: int) -> tuple[int, int, int]:
        # (prod p_k, prod q_k, R) over a <= k < b, t_k / t_(k-1) = -p_k / q_k;
        # split(0, n) gives S_n = R / Q
        if b - a == 1:
            p = 1 if a == 0 else (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = 1 if a == 0 else a**3 * 10939058860032000  # 640320^3 / 24
            r = p * (13591409 + 545140134 * a)
            return p, q, -r if a & 1 else r
        mid = (a + b) // 2
        p1, q1, r1 = split(a, mid)
        p2, q2, r2 = split(mid, b)
        return p1 * p2, q1 * q2, q2 * r1 + p1 * r2

    _, q, r = split(0, W // 41 + 2)
    return 426880 * math.isqrt(10005 << 2 * W) * q // r


def _series_constants(N: int, k: int, t: int, g: int) -> tuple[int, list[int]]:
    """(Q, [C_0, ..., C_(k-1)]) within 2 of e^-c 2^t and c^-j 2^t, for
    c = 2 pi / sqrt(N) and g >= 1/c + 1, from integers on W = t + G bits.

    pi_W = ``_pi_fixed(W)`` and s_W = isqrt(N 4^W) are within 2 and 1 of
    pi 2^W and sqrt(N) 2^W, so s_W / pi_W is within 1.7 2^-W relative of
    sqrt(N) / pi: X = floor(s_W 2^W / (2 pi_W)) is within 1.7 x + 1 < 2g
    of x 2^W, x = 1/c <= g - 1, and floor(2 pi_W 2^W / s_W) within 12 of
    c 2^W.  In units of 2^-W:

    - c^-j: P_j = (P_(j-1) X) >> W from P_0 = 2^W is off by
      d_j <= g d_(j-1) + 2g^j + 1 <= 3j g^j;
    - e^-c: y = c 2^-r, r = max(5, isqrt(t)), is within 2 (and y < 1/5);
      e^-y by its alternating Taylor series, each term floored from the
      last (off by under 5/4) until one is 0, at most W/2 terms, is within
      D = 5/4 (W/2 + 1) + 2 of e^-y 2^W; each of the r squarings
      E <- E^2 >> W doubles the error and adds 2 (an error below 2^(W/2)
      squares to under 1), to 2^r (D + 2) <= 2^r W.

    G = 32 + r + bitlen(3k) + (k-1) bitlen(g) + bitlen(W) puts both below
    2^(G-32) units, so each value shifted right by G is within 1 + 2^-32."""
    r = max(5, math.isqrt(t))
    base = t + 32 + r + (3 * k).bit_length() + (k - 1) * g.bit_length()
    W = base + base.bit_length() + 1  # bitlen(W) <= bitlen(base) + 1
    pi, root = _pi_fixed(W), math.isqrt(N << 2 * W)
    y = ((pi << W + 1) // root) >> r
    term = total = 1 << W
    n = 0
    while term:
        n += 1
        term = (term * y >> W) // n
        total += -term if n & 1 else term
    for _ in range(r):
        total = total * total >> W
    x = (root << W) // (2 * pi)
    powers = [1 << W]
    for _ in range(k - 1):
        powers.append(powers[-1] * x >> W)
    return total >> W - t, [p >> W - t for p in powers]


def completed_l(f: NewformData, s: int, prec: int = 128) -> Dyadic:
    """Lambda(f, s), integer s in [1, k-1]: entry s-1 of ``critical_lambdas``."""
    if not isinstance(s, int) or not 1 <= s <= f.weight - 1:
        raise InputError(f"s must be an integer in [1, {f.weight - 1}], got {s!r}")
    return critical_lambdas(f, prec)[s - 1]


def l_from_lambda(f: NewformData, s: int, lam: Dyadic, prec: int = 128) -> Dyadic:
    """L(f, s) = Lambda(f, s) (2 pi / sqrt(N))^s / (s-1)!, rounded once to
    prec+32 bits from pi_W and s_W on W = prec + 64 + bitlen(s) bits (see
    ``_series_constants``): their ratio to the power s is within
    2s 2^-W < 2^-(prec+63) relative of (2 pi / sqrt(N))^s."""
    W = prec + 64 + s.bit_length()
    pi, root = _pi_fixed(W), math.isqrt(f.level << 2 * W)
    man, exp = lam.man_exp
    return Dyadic(*quotient(man * (2 * pi) ** s, root**s * math.factorial(s - 1), exp, prec + 32))


# ---------------------------------------------------------------------
# Numeric polynomials
# ---------------------------------------------------------------------


class NumericPoly(Record):
    """The real polynomial sum_j m_j 2^E X^j, j <= w, at a stated
    precision: one exact dyadic form (``exp`` = E, ``mans``), as
    ``DensePoly`` holds (den, pairs).  ``errs``, required, holds integers
    n_j >= 0 over the same 2^E, each n_j 2^E a proved bound on the error of
    coefficient j, 0 if exact (see ``_r_from_lambdas`` and ``numeric_rv``)."""

    w: int
    exp: int
    mans: tuple[int, ...]
    prec: int
    errs: tuple[int, ...]

    def __post_init__(self):
        for name, values in (("coefficients", self.mans), ("error bounds", self.errs)):
            if len(values) != self.w + 1:
                raise InputError(f"expected {self.w + 1} {name} for w={self.w}, got {len(values)}")
            if not all(isinstance(v, int) for v in values):
                raise InputError(f"the {name} must be integer mantissas")
        if min(self.errs) < 0:
            raise InputError("error bounds must be >= 0")


def build_r(f: NewformData, prec: int = 128) -> NumericPoly:
    """The numeric period polynomial from critical L-values: through the
    completed L-function, the coefficient of X^n is C(w, n) Lambda(f, w+1-n)."""
    return _r_from_lambdas(f.w, critical_lambdas(f, prec), prec)


def _r_from_lambdas(w: int, lambdas: list[Dyadic], prec: int) -> NumericPoly:
    """build_r's step; ``lambdas[s-1]`` is Lambda(f, s).  Each coefficient is
    rounded once to prec+32 bits; the exact error bound C(w, n)
    2^-(prec+16) max(1, |Lambda|), twice ``critical_lambdas``'s, covers that."""
    coeffs, errs = [], []
    for n in range(w + 1):
        b, (m, e) = math.comb(w, n), lambdas[w - n].man_exp  # Lambda(f, w+1-n)
        coeffs.append(rounded(b * m, e, prec + 32))
        big = abs(m) >> max(-e, 0)  # |Lambda| >= 1
        errs.append((b * abs(m), e - prec - 16) if big else (b, -prec - 16))
    exp, mans = aligned(coeffs + errs)
    return NumericPoly(w, exp, tuple(mans[: w + 1]), prec, tuple(mans[w + 1 :]))


def numeric_rv(Rnum: NumericPoly) -> NumericPoly:
    """The forward transform of a numeric R on the exact integer map.

    R = 2^E sum_j m_j X^j, so ``rv._scaled_forward`` gives w! Z exactly,
    rounded once per coefficient to prec+32 bits.  Without the signs
    (-1)^k the map's coefficients are all >= 0, so the same pass on the
    errors e_j bounds sum_j |b_(t,j)| e_j; the error bound adds
    2^-(prec+31) |Z_t| for the rounding, and is rounded up."""
    w, p, exp = Rnum.w, Rnum.prec + 32, Rnum.exp
    w_fact = math.factorial(w)
    coeffs, errs = [], []
    for z, u in zip(_scaled_forward(Rnum.mans), _scaled_forward(Rnum.errs, sign=1)):
        coeffs.append(quotient(z, w_fact, exp, p))
        errs.append(quotient((u << p - 1) + abs(z), w_fact, exp + 1 - p, p, up=True))
    exp, mans = aligned(coeffs + errs)
    return NumericPoly(w, exp, tuple(mans[: w + 1]), Rnum.prec, tuple(mans[w + 1 :]))
