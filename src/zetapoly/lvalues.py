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
pass over n (``critical_lambdas``).  All scalars are mpmath values under
an explicit working precision; summation order is fixed so results are
reproducible bit for bit at fixed precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp

from zetapoly.errors import InputError, PrecisionError
from zetapoly.exactnum import binom_poly_in_s_scaled

GUARD_BITS = 16


def printed_digits(prec: int) -> int:
    """Decimal digits printed for an L-value computed at ``prec`` bits."""
    return int(prec * 0.3010) + 3


# ---------------------------------------------------------------------
# Newform data
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NewformData:
    """Level, even weight, Fricke eigenvalue, and integer Fourier coefficients.

    ``an[0]`` is a_1 and must equal 1 (normalized eigenform).  The Fricke
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
        object.__setattr__(self, "an", an)

    @property
    def w(self) -> int:
        return self.weight - 2

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "weight": self.weight,
            "fricke": self.fricke,
            "an": [str(a) for a in self.an],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NewformData":
        if not isinstance(data, dict):
            raise InputError("newform payload must be a JSON object")
        try:
            return cls(
                level=int(data["level"]),
                weight=int(data["weight"]),
                fricke=int(data["fricke"]),
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
    nmax = required_nmax(1, 12, prec)
    return NewformData(
        level=1,
        weight=12,
        fricke=1,
        an=tuple(delta_coefficients(nmax)),
        label="1.12.a.a",
    )


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
    """[Lambda(f, 1), ..., Lambda(f, k-1)] from one pass over n.

    With x_n = c n, c = 2 pi / sqrt(N) and q = e^-c, the closed form of
    Gamma(r, x) gives A(r) = sum_n a_n x_n^-r Gamma(r, x_n)
    = (r-1)! sum_{t<r} c^(t-r)/t! S_(r-t) with the Eichler-integral partial
    sums S_j = sum_n a_n q^n n^-j, and Lambda(f, s) = A(s) + eps i^k A(k-s).
    One ascending loop over n <= required_nmax forms q^n by repeated
    products and divides a_n q^n by n up to k-1 times.  Each term is off by
    at most (2n+k) 2^-(prec+32) relative, a loss of at most log2(2 nmax + k)
    < 10 bits for the level-1 form at 4096 bits (nmax = 460), well inside
    the 32 guard bits.  A(r) is shared by s and k-s, so the functional
    equation holds exactly.  Too few a_n for ``prec`` raise PrecisionError.
    """
    k = f.weight
    need = required_nmax(f.level, k, prec)
    if len(f.an) < need:
        raise PrecisionError(
            f"need Fourier coefficients a_1..a_{need} for {prec}-bit work, got only {len(f.an)}"
        )
    sign = f.fricke * (-1) ** (k // 2)  # eps * i^k, real for even k
    with mp.workprec(prec + 32):
        c = 2 * mpmath.pi / mpmath.sqrt(f.level)
        q = mpmath.exp(-c)
        sums = [mpmath.mpf(0)] * k  # sums[j] = S_j for j = 1..k-1
        qn = mpmath.mpf(1)
        for n in range(1, need + 1):
            qn = qn * q
            term = f.an[n - 1] * qn
            for j in range(1, k):
                term = term / n
                sums[j] += term
        # A(r) = sum_{j=1..r} (r-1)!/(r-j)! c^-j S_j
        scaled = [sums[j] / c**j for j in range(k)]
        a = [sum(math.perm(r - 1, j - 1) * scaled[j] for j in range(1, r + 1)) for r in range(k)]
        return [+(a[s] + sign * a[k - s]) for s in range(1, k)]


def completed_l(f: NewformData, s: int, prec: int = 128) -> mpmath.mpf:
    """Lambda(f, s) for integer s in the critical range [1, k-1]:
    entry s-1 of ``critical_lambdas(f, prec)``."""
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


@dataclass(frozen=True)
class NumericPoly:
    """Dense polynomial with mpmath coefficients at a stated precision.

    ``coeff_err`` (optional) carries per-coefficient absolute error
    bounds propagated from the L-value computation.
    """

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
    """The numeric period polynomial, assembled from critical L-values.

    Writing the defining L-value sum through the completed L-function
    collapses each coefficient to an exact binomial multiple:
    coefficient of X^n is C(w, n) * Lambda(f, w+1-n).
    """
    return _r_from_lambdas(f.w, critical_lambdas(f, prec), prec)


def _r_from_lambdas(w: int, lambdas: list, prec: int) -> NumericPoly:
    """build_r's assembly step; ``lambdas[s-1]`` is Lambda(f, s)."""
    with mp.workprec(prec + 32):
        err_unit = mpmath.mpf(2) ** (-(prec + 8))
        coeffs = []
        errs = []
        for n in range(w + 1):
            binom = math.comb(w, n)
            lam = lambdas[w - n]  # Lambda(f, w+1-n)
            coeffs.append(+(binom * lam))
            errs.append(binom * err_unit * max(1, abs(lam)))
        return NumericPoly(w=w, coeffs=tuple(coeffs), prec=prec, coeff_err=tuple(errs))


def numeric_rv(Rnum: NumericPoly) -> NumericPoly:
    """The forward transform with mpmath scalars, by the basis expansion
    Z(s) = sum_j a_j C(w-s-j, w), so errors propagate as sum_j |b_(t,j)| e_j."""
    w = Rnum.w
    prec = Rnum.prec
    w_fact = math.factorial(w)
    with mp.workprec(prec + 32):
        acc = [mpmath.mpf(0)] * (w + 1)
        errs = [mpmath.mpf(0)] * (w + 1)
        for j in range(w + 1):
            aj = Rnum.coeffs[j]
            ej = Rnum.coeff_err[j] if Rnum.coeff_err else mpmath.mpf(0)
            for t, b in enumerate(binom_poly_in_s_scaled(w, w - j, -1)):  # w! C(w-s-j, w)
                if not b:
                    continue
                bv = mpmath.mpf(b) / w_fact
                acc[t] = acc[t] + aj * bv
                errs[t] = errs[t] + abs(bv) * ej
        return NumericPoly(
            w=w,
            coeffs=tuple(+c for c in acc),
            prec=prec,
            coeff_err=tuple(+e for e in errs),
        )

