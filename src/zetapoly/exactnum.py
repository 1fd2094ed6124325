"""Exact scalar and series arithmetic over Q and Q(i).

Everything in this module is exact: Gaussian rationals built on
``fractions.Fraction``, the generalized binomial machinery used by the
zeta-polynomial transform, the dense degree-<= w polynomial core shared
by the period and zeta variables, and truncated power series.  No
floating point enters anywhere.
All values are immutable and all operations are pure, so they are safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, zip_longest
from typing import ClassVar, Sequence, Union

from zetapoly.errors import InputError

Rationalish = Union[int, Fraction, str]


def require_even_w(w: int) -> None:
    """Raise InputError unless the weight parameter w is an even integer >= 2."""
    if w < 2 or w % 2:
        raise InputError(f"w must be an even integer >= 2, got {w}")


def _clipped(text: str, limit: int = 80) -> str:
    """``text`` cut to ``limit`` characters and its length, for an error message."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def as_fraction(x: Rationalish) -> Fraction:
    """Coerce an int, Fraction, or fraction string ("36/691", "-5", "1e-10")
    to Fraction.  Raises InputError when a decimal exponent exceeds Python's
    cap on decimal digits (4300), where Fraction would build 10^exponent."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and ("e" in x or "E" in x):
        exp = x.strip().lower().rpartition("e")[2].lstrip("+-")
        cap = sys.int_info.default_max_str_digits
        if exp.replace("_", "").isdigit() and int(exp) > cap:  # past the cap, int() raises ValueError
            raise InputError(f"the exponent of {_clipped(repr(x))} exceeds {cap} in magnitude")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def decimal_str(x: Union[int, Fraction]) -> str:
    """str(x) for any size of x.  Python caps int-to-str conversions at
    4300 digits to guard parsing; exact output may be longer, so past the
    cap the conversion reruns with the cap lifted, and the cap is restored."""
    try:
        return str(x)
    except ValueError:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(cap)


class GaussianRational:
    """An exact element of Q(i), stored as a (re, im) pair of Fractions.

    Fractions keep denominators positive and in lowest terms, so equality
    is exact structural equality of the normalized form.  Instances are
    immutable by convention; every operation returns a new value.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    # -- constructors ------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction, str)):
            return cls(x)
        raise TypeError(f"cannot interpret {x!r} as an element of Q(i)")

    @classmethod
    def from_str_pair(cls, pair: Sequence[str]) -> "GaussianRational":
        """Parse the serialized form ("p/q", "r/s")."""
        if len(pair) != 2:
            raise ValueError(f"expected a (re, im) string pair, got {pair!r}")
        return cls(str(pair[0]), str(pair[1]))

    def to_str_pair(self) -> tuple[str, str]:
        """Serialize as ("p/q", "r/s"), always carrying the denominator."""
        return tuple(f"{decimal_str(x.numerator)}/{decimal_str(x.denominator)}"
                     for x in (self.re, self.im))

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def norm2(self) -> Fraction:
        """|z|^2 = re^2 + im^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        return self * o.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        result = GaussianRational(1)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = decimal_str(self.re), decimal_str(self.im)
        if not self.im:
            return re
        if not self.re:
            return f"{im}*i"
        return f"{re}{'+' if self.im > 0 else '-'}{im.lstrip('-')}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def qi(re: Rationalish = 0, im: Rationalish = 0) -> GaussianRational:
    """Shorthand constructor for Q(i) values."""
    return GaussianRational(re, im)


# ---------------------------------------------------------------------
# Generalized binomial coefficients
# ---------------------------------------------------------------------

def binom_poly_in_s_scaled(w: int, shift: int, slope: int) -> tuple[int, ...]:
    """Integer coefficients (ascending in s) of w! * C(shift + slope*s, w).

    Expands the falling factorial (shift + slope*s)(shift + slope*s - 1)
    ... (shift + slope*s - w + 1) exactly, avoiding interpolation.
    """
    if w < 0:
        raise ValueError("w must be non-negative")
    coeffs = [1]
    for t in range(w):
        const = shift - t
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c * const
            nxt[d + 1] += c * slope
        coeffs = nxt
    return tuple(coeffs)


def binom_poly_in_s(w: int, shift: int, slope: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending in s) of C(shift + slope*s, w) as a polynomial in s."""
    fact = math.factorial(w)
    return tuple(Fraction(c, fact) for c in binom_poly_in_s_scaled(w, shift, slope))


def common_denominator(
    coeffs: Sequence[GaussianRational],
) -> tuple[int, list[tuple[int, int]]]:
    """One positive denominator D and integer pairs (p, q) with each
    coefficient equal to (p + q i)/D.  Lets hot loops run on plain ints."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.re.denominator, c.im.denominator)
    pairs = [
        (
            c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator),
        )
        for c in coeffs
    ]
    return den, pairs


def from_pairs(den: int, pairs) -> tuple[GaussianRational, ...]:
    """The Q(i) values (p + q i)/den: the inverse of ``common_denominator``."""
    return tuple(GaussianRational(Fraction(p, den), Fraction(q, den)) for p, q in pairs)


# ---------------------------------------------------------------------
# Dense polynomials, over Z[i] as ascending (re, im) int pairs and over Q(i)
# ---------------------------------------------------------------------


def _trim(p: list) -> list:
    """p without its zero leading coefficients; the zero polynomial is []."""
    while p and p[-1] == (0, 0):
        p.pop()
    return p


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


def reduced(den: int, pairs) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The form (den, pairs) of coefficients (p + q i)/den, den > 0, with
    gcd(den, every p and q) taken out: one form per polynomial."""
    g = math.gcd(den, *chain.from_iterable(pairs))
    return den // g, tuple(pairs) if g == 1 else tuple((x // g, y // g) for x, y in pairs)


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


@dataclass(frozen=True)
class DensePoly:
    """A polynomial of degree <= w over Q(i), w even and >= 2: coefficient
    j is (p_j + q_j i)/den for ``pairs`` = ((p_0, q_0), ..., (p_w, q_w)),
    ascending, over one positive ``den``, reduced on construction to
    gcd(den, every p_j and q_j) = 1, so equal polynomials have equal fields.
    The weight parameter w is metadata, never inferred from the degree (a
    polynomial of degree 9 may live in V_10).  Subclasses name the variable;
    equality holds only within one class, and + refuses to mix classes or w.
    """

    VARIABLE: ClassVar[str]

    w: int
    den: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        require_even_w(self.w)
        if len(self.pairs) != self.w + 1:
            raise InputError(
                f"expected {self.w + 1} coefficients for w={self.w}, got {len(self.pairs)}"
            )
        den, pairs = reduced(self.den, self.pairs)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "pairs", pairs)

    # -- construction ----------------------------------------------------

    @classmethod
    def make(cls, w: int, values: Sequence):
        """Build from any Q(i) coefficient sequence of length <= w+1 (zero-padded)."""
        vals = [GaussianRational.coerce(v) for v in values]
        if len(vals) > w + 1:
            raise InputError(f"{len(vals)} coefficients exceed degree bound w={w}")
        den, pairs = common_denominator(vals)
        return cls(w, den, pairs + [(0, 0)] * (w + 1 - len(vals)))

    @cached_property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The w+1 coefficients as Q(i) values, built on first read."""
        return from_pairs(self.den, self.pairs)

    # -- basic queries -----------------------------------------------------

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((j for j, p in enumerate(self.pairs) if p != (0, 0)), default=-1)

    def is_zero(self) -> bool:
        return all(p == (0, 0) for p in self.pairs)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        """The sum, over the lcm of the two denominators."""
        if type(other) is not type(self):
            raise InputError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.w != other.w:
            raise InputError(f"mixing w={self.w} and w={other.w} polynomials")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return type(self)(self.w, den, tuple(
            (a * x + b * u, a * y + b * v) for (x, y), (u, v) in zip(self.pairs, other.pairs)
        ))

    # -- serialization -------------------------------------------------------

    def to_str_pairs(self) -> list[list[str]]:
        """The coefficients as ["p/q", "r/s"] pairs in lowest terms, as
        ``GaussianRational.to_str_pair`` writes them, straight from the pairs."""
        def frac(x: int) -> str:
            g = math.gcd(x, self.den)
            return f"{decimal_str(x // g)}/{decimal_str(self.den // g)}"
        return [[frac(x), frac(y)] for x, y in self.pairs]

    def to_dict(self) -> dict:
        return {"w": self.w, "variable": self.VARIABLE, "coeffs": self.to_str_pairs()}

    @classmethod
    def from_dict(cls, data: dict):
        """Validate and load the JSON polynomial schema; ``variable`` may be
        omitted but must otherwise name this class's variable."""
        if not isinstance(data, dict):
            raise InputError("polynomial payload must be a JSON object")
        try:
            w = data["w"]
            raw = data["coeffs"]
        except KeyError as exc:
            raise InputError(f"polynomial payload missing key {exc}") from exc
        if not isinstance(w, int):
            raise InputError(f"'w' must be an integer, got {w!r}")
        variable = data.get("variable")
        if variable is not None and variable != cls.VARIABLE:
            raise InputError(
                f"expected a polynomial in {cls.VARIABLE!r}, got variable={variable!r}"
            )
        if not isinstance(raw, list) or len(raw) != w + 1:
            raise InputError(f"'coeffs' must list exactly w+1 = {w + 1} entries")
        coeffs = []
        for entry in raw:
            if isinstance(entry, (list, tuple)) and len(entry) == 2:
                try:
                    coeffs.append(GaussianRational.from_str_pair(entry))
                except (ValueError, ZeroDivisionError) as exc:
                    msg = f"bad coefficient entry {_clipped(repr(entry))}: {_clipped(str(exc))}"
                    raise InputError(msg) from exc
            else:
                entry = _clipped(repr(entry))
                raise InputError(f"coefficient entries must be [re, im] pairs, got {entry}")
        return cls.make(w, coeffs)


# ---------------------------------------------------------------------
# Truncated power series over Q(i)
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSeries:
    """The first ``len(coeffs)`` terms of a power series sum_t coeffs[t] x^t
    over Q(i)."""

    coeffs: tuple[GaussianRational, ...]

    def mul(self, other: "PowerSeries", order: int) -> "PowerSeries":
        """The first ``order`` terms of the product."""
        out = [ZERO] * order
        for a, ca in enumerate(self.coeffs[:order]):
            if ca.is_zero():
                continue
            for b, cb in enumerate(other.coeffs[: order - a]):
                if not cb.is_zero():
                    out[a + b] = out[a + b] + ca * cb
        return PowerSeries(tuple(out))

    def inverse(self, order: int) -> "PowerSeries":
        """The first ``order`` terms of the multiplicative inverse; raises
        ZeroDivisionError when the constant term is 0."""
        c0inv = self.coeffs[0].inverse()
        out = [c0inv] + [ZERO] * (order - 1)
        for t in range(1, order):
            acc = ZERO
            for u in range(1, min(t, len(self.coeffs) - 1) + 1):
                cu = self.coeffs[u]
                if not cu.is_zero():
                    acc = acc + cu * out[t - u]
            out[t] = -c0inv * acc
        return PowerSeries(tuple(out))

