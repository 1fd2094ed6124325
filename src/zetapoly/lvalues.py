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
pass over n (``critical_lambdas``).  That pass and ``numeric_rv`` run on
integers with proved error bounds; mpmath supplies pi, e^-c and c^-j and
holds results as prec+32-bit mpf values, reproducible bit for bit.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_ceiling, round_nearest

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

    By Jacobi's identity prod (1-q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2),
    so the product is that series to the 8th power: three squarings, each
    one integer product by Kronecker substitution."""
    if nmax < 1:
        raise InputError(f"nmax must be >= 1, got {nmax}")
    series = [0] * nmax
    k = 0
    while k * (k + 1) // 2 < nmax:
        series[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    for _ in range(3):
        series = _square_truncated(series)
    return series


def _square_truncated(a: list[int]) -> list[int]:
    """The first len(a) coefficients of the square of the series a.

    Each is at most bound = sum|a_i| * max|a_i| in size, so slots of w
    bytes with 8w > bound.bit_length() hold them as signed digits of the
    integer a(2^(8w)), packed and unpacked with to_bytes / from_bytes."""
    n = len(a)
    bound = sum(map(abs, a)) * max(map(abs, a))
    w = bound.bit_length() // 8 + 1
    pos = int.from_bytes(b"".join(max(c, 0).to_bytes(w, "little") for c in a), "little")
    neg = int.from_bytes(b"".join(max(-c, 0).to_bytes(w, "little") for c in a), "little")
    packed = ((pos - neg) ** 2 & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    out, carry, half, full = [], 0, 1 << 8 * w - 1, 1 << 8 * w
    for i in range(0, w * n, w):
        v = int.from_bytes(packed[i : i + w], "little") + carry
        carry = v >= half
        out.append(v - full if carry else v)
    return out


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
    """
    c = 2 * math.pi / math.sqrt(N)
    p = (k + 1) / 2
    target = -(prec + GUARD_BITS) * math.log(2)
    m = max(1, math.ceil(2 * (k - 1) / c), math.ceil(1 / c))
    while True:
        m += 1
        # ratio of consecutive term bounds; < 1 from some m on since c > 0
        q = math.exp(-c + p * math.log1p(1.0 / (m + 1)))
        if q >= 1.0:
            continue
        log_tail = math.log(4) + p * math.log(m + 1) - c * (m + 1) - math.log(1 - q)
        if log_tail <= target:
            return m


def critical_lambdas(f: NewformData, prec: int = 128) -> list:
    """[Lambda(f, 1), ..., Lambda(f, k-1)] from one pass over n, on integers.

    With c = 2 pi / sqrt(N) and q = e^-c, the closed form of Gamma(r, x)
    gives A(r) = sum_n a_n (cn)^-r Gamma(r, cn) = sum_{j<=r} (r-1)!/(r-j)!
    c^-j S_j, S_j = sum_{n<=nmax} a_n q^n n^-j, and Lambda(f, s) = A(s) +
    eps i^k A(k-s), so the functional equation holds exactly.

    In units of 2^-T: Q = floor(q 2^T) and C_j = floor(c^-j 2^T) are within
    2; q_n = (q_(n-1) Q) >> T is within e = 5 + floor(3/c), as its error d_n
    has |d_(n+1)| <= (q + 2^(1-T)) |d_n| + 3 and 1 - q >= c/(1+c); each floor
    division of a_n q_n by n adds under 1, so sums[j] is within
    B = e sum|a_n| + (k-1) nmax of 2^T S_j, for any given a_n.  The integer
    sum_j (r-1)!/(r-j)! C_j sums[j] is then within 2^T M of 2^(2T) A(r): a
    term is off by 2 |sums[j]| + c^-j 2^T B <= 2^T B (1 + c^-j) <= 2^T B G^j
    with G = ceil(1/c) + 1, so M = B sum_{j<k} (k-2)!/(k-1-j)! G^j.
    T = prec + 32 + bitlen(2M) puts each Lambda within 2^-(prec+32) before
    its rounding to prec+32 bits (2^-(prec+31) |Lambda|), and the tail past
    nmax is below 2^-(prec+18) (``required_nmax``'s bound drops a factor
    1/(cn) < 1/(2(k-1))), so each value is within 2^-(prec+17) max(1, |Lambda|).
    Too few a_n raise PrecisionError.
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
    with mp.workprec(t + 32 + (k - 1) * g.bit_length()):
        c = 2 * mpmath.pi / mpmath.sqrt(f.level)
        q = int(mpmath.floor(mpmath.ldexp(mpmath.exp(-c), t)))
        cinv = [int(mpmath.floor(mpmath.ldexp(c**-j, t))) for j in range(k)]
    sums = [0] * k  # sums[j] ~ 2^t S_j for j = 1..k-1
    qn = 1 << t
    for n in range(1, need + 1):
        qn = qn * q >> t
        term = f.an[n - 1] * qn
        for j in range(1, k):
            term //= n
            sums[j] += term
    scaled = [cinv[j] * sums[j] for j in range(k)]
    a = [sum(math.perm(r - 1, j - 1) * scaled[j] for j in range(1, r + 1)) for r in range(k)]
    with mp.workprec(prec + 32):
        return [mpmath.ldexp(mpmath.mpf(a[s] + sign * a[k - s]), -2 * t) for s in range(1, k)]


def completed_l(f: NewformData, s: int, prec: int = 128) -> mpmath.mpf:
    """Lambda(f, s), integer s in [1, k-1]: entry s-1 of ``critical_lambdas``."""
    if not isinstance(s, int) or not 1 <= s <= f.weight - 1:
        raise InputError(f"s must be an integer in [1, {f.weight - 1}], got {s!r}")
    return critical_lambdas(f, prec)[s - 1]


def l_from_lambda(f: NewformData, s: int, lam, prec: int = 128) -> mpmath.mpf:
    """L(f, s) = Lambda(f, s) (2 pi / sqrt(N))^s / (s-1)!."""
    with mp.workprec(prec + 32):
        factor = (2 * mpmath.pi / mpmath.sqrt(f.level)) ** s / mpmath.factorial(s - 1)
        return +(lam * factor)


# ---------------------------------------------------------------------
# Numeric polynomials
# ---------------------------------------------------------------------


class NumericPoly(Record):
    """Dense polynomial with mpmath coefficients at a stated precision;
    ``coeff_err`` (optional) holds a proved absolute error bound for each
    (see ``_r_from_lambdas`` and ``numeric_rv``)."""

    w: int
    coeffs: tuple
    prec: int
    coeff_err: tuple | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.w + 1:
            raise InputError(
                f"expected {self.w + 1} coefficients for w={self.w}, got {len(self.coeffs)}"
            )


def build_r(f: NewformData, prec: int = 128) -> NumericPoly:
    """The numeric period polynomial from critical L-values: through the
    completed L-function, the coefficient of X^n is C(w, n) Lambda(f, w+1-n)."""
    return _r_from_lambdas(f.w, critical_lambdas(f, prec), prec)


def _r_from_lambdas(w: int, lambdas: list, prec: int) -> NumericPoly:
    """build_r's step; ``lambdas[s-1]`` is Lambda(f, s).  The error bound C(w, n)
    2^-(prec+16) max(1, |Lambda|), twice ``critical_lambdas``'s, covers the roundings."""
    terms = [(math.comb(w, n), lambdas[w - n]) for n in range(w + 1)]  # Lambda(f, w+1-n)
    with mp.workprec(prec + 32):
        unit = mpmath.mpf(2) ** -(prec + 16)
        coeffs = tuple(+(b * lam) for b, lam in terms)
        errs = tuple(b * unit * max(1, abs(lam)) for b, lam in terms)
    return NumericPoly(w=w, coeffs=coeffs, prec=prec, coeff_err=errs)


def _dyadic(values) -> tuple[int, list[int]]:
    """(E, m) with mpf values[j] = m[j] 2^E exactly (m[j] = 0 for a zero); InputError if not finite."""
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in (v._mpf_ for v in values)]
    if any(exp and not man for man, exp in parts):  # mpmath's inf and nan
        raise InputError("numeric coefficients must be finite")
    low = min((exp for man, exp in parts if man), default=0)
    return low, [man << (exp - low) if man else 0 for man, exp in parts]


def numeric_rv(Rnum: NumericPoly) -> NumericPoly:
    """The forward transform of a numeric R on the exact integer map.

    mpf values are dyadics, so R = 2^E sum_j m_j X^j with integers m_j and
    ``rv._scaled_forward`` gives w! Z exactly, rounded once per coefficient
    to prec+32 bits.  Without the signs (-1)^k the map's coefficients are
    all >= 0, so the same passes on the errors e_j bound sum_j |b_(t,j)| e_j;
    ``coeff_err`` adds 2^-(prec+31) |Z_t| for the rounding, rounded up."""
    w, p = Rnum.w, Rnum.prec + 32
    w_fact = from_int(math.factorial(w))
    exp, mans = _dyadic(Rnum.coeffs)
    eexp, emans = _dyadic(Rnum.coeff_err or (mpmath.mpf(0),) * (w + 1))
    low = min(eexp, exp + 1 - p)  # 2^low divides both parts of each bound
    coeffs, errs = [], []
    for z, u in zip(_scaled_forward(mans), _scaled_forward(emans, sign=1)):
        coeffs.append(mp.make_mpf(mpf_div(from_man_exp(z, exp), w_fact, p, round_nearest)))
        bound = (u << eexp - low) + (abs(z) << exp + 1 - p - low)
        errs.append(mp.make_mpf(mpf_div(from_man_exp(bound, low), w_fact, p, round_ceiling)))
    return NumericPoly(w=w, coeffs=tuple(coeffs), prec=Rnum.prec, coeff_err=tuple(errs))
