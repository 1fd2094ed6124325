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
from fractions import Fraction
from functools import cached_property
from itertools import chain
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


class Record:
    """A frozen dataclass without importing ``dataclasses`` and ``inspect``.
    Fields: the annotated names (ClassVar aside) after the bases', defaulting
    to a class attribute of the same name.  Equal only within one exact class,
    hashed alike.  ``cached_property`` works: instances have a ``__dict__``."""

    _fields: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(n for n, t in own.items() if not str(t).startswith("ClassVar"))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        values = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        values.update(zip(fields, args), **kwargs)
        if len(args) > len(fields) or kwargs.keys() & fields[: len(args)] or values.keys() != set(fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
        for f in fields:  # object.__setattr__ keeps values inline, as dataclasses do
            object.__setattr__(self, f, values[f])
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields; nothing by default."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


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


def reduced(den: int, pairs) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The form (den, pairs) of coefficients (p + q i)/den, den > 0, with
    gcd(den, every p and q) taken out: one form per polynomial."""
    g = math.gcd(den, *chain.from_iterable(pairs))
    return den // g, tuple(pairs) if g == 1 else tuple((x // g, y // g) for x, y in pairs)


class DensePoly(Record):
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

    def __init__(self, w: int, den: int, pairs):
        require_even_w(w)
        if len(pairs) != w + 1:
            raise InputError(f"expected {w + 1} coefficients for w={w}, got {len(pairs)}")
        den, pairs = reduced(den, pairs)
        object.__setattr__(self, "w", w)
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

class PowerSeries(Record):
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
