"""The one exact form of every command: polynomials over Q(i) as
Gaussian-integer numerator pairs over one positive denominator, (den, pairs).

Parsing into that form, printing from it at any length, ``DensePoly`` (the
core shared by the period and zeta variables) and ``Record`` (the immutable
base of every value class).  No floating point enters anywhere.  The Q(i)
value type lives in ``gaussian``, which no command loads; its names are
served from here on first use (PEP 562).  All values are immutable and all
operations are pure, reading or writing no interpreter setting, so they are
safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import re
import sys
from functools import cached_property
from itertools import chain
from typing import ClassVar, Sequence

from zetapoly.errors import InputError


def require_even_w(w: int) -> None:
    """Raise InputError unless the weight parameter w is an even integer >= 2."""
    if w < 2 or w % 2:
        raise InputError(f"w must be an even integer >= 2, got {w}")


def _clipped(text: str, limit: int = 80) -> str:
    """``text`` cut to ``limit`` characters and its length, for an error message."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


# Plain ASCII decimal text: [sign] digits [. digits] [e|E [sign] digits], a digit in the mantissa.
_decimal = re.compile(r"([-+]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?").fullmatch


def parse_rational(text: str) -> tuple[int, int]:
    """Rational text ("36/691", "-5", "1e-10", "0.25") as integers (num, den),
    den > 0, with the value and the errors of ``fractions.Fraction``:
    ValueError for text it rejects, ZeroDivisionError "Fraction(p, 0)".
    Raises InputError when a decimal exponent exceeds Python's cap on
    decimal digits (4300), where 10^exponent would be built.  "p/q",
    integers and plain ASCII decimals are read with ``int``, and the pair is
    not reduced: den is q as written, or the power of ten that scales the
    digits of decimal text.  Rarer text (surrounding whitespace,
    underscores, other decimal digits) is Fraction's own to read or refuse."""
    head, slash, den = text.partition("/")
    # "p/q" and "p" first: there int() reads what the grammar reads, once a
    # digit stands on each side of the "/" (int() takes a space or a sign
    # there too); whatever int() refuses is read the long way below, where
    # a "/" form that passes the grammar fails int() again, so q = 0 stops here.
    if not slash or head[-1:].isdecimal() and den[:1].isdecimal():
        try:
            num, den = int(head), int(den) if slash else 1
        except ValueError:
            pass
        else:
            if not den:
                raise ZeroDivisionError(f"Fraction({num}, 0)")
            return num, den
    if "e" in text or "E" in text:
        exp = text.strip().lower().rpartition("e")[2].lstrip("+-")
        cap = sys.int_info.default_max_str_digits
        if exp.replace("_", "").isdigit() and int(exp) > cap:  # past the cap, int() raises ValueError
            raise InputError(f"the exponent of {_clipped(repr(text))} exceeds {cap} in magnitude")
    match = _decimal(text)
    if not match:
        from fractions import Fraction  # loaded only for text rarer than any workload sends

        value = Fraction(text)
        return value.numerator, value.denominator
    sign, whole, frac, exp = match.groups("")
    den = 10 ** len(frac)
    num = int(whole or "0") * den + int(frac or "0")  # field by field as Fraction reads them, so errors match
    if exp:
        exp = int(exp)
        num, den = (num * 10**exp, den) if exp >= 0 else (num, den * 10**-exp)
    return -num if sign == "-" else num, den


def as_ratio(x) -> tuple[int, int]:
    """(num, den), den > 0, of an int or a Fraction (its numerator and
    denominator), of rational text (``parse_rational``) or of a (num, den)
    pair, as given."""
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, tuple):
        return x
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"cannot interpret {x!r} as an exact rational") from None


def decimal_str(n: int) -> str:
    """str(n) for an int of any size.  Python caps int-to-str conversions at
    4300 digits to guard parsing, and exact output may be longer; past the
    cap, |n| splits at 10^k, k about half its digits, and both parts print
    the same way, the low one zero-filled to k digits.  No interpreter
    setting is read or written, so concurrent calls cannot disturb another."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # log10(2) > 3/10, so 10^k has at most half of n's digits
        hi, lo = divmod(abs(n), 10**k)
        return "-" * (n < 0) + decimal_str(hi) + decimal_str(lo).zfill(k)


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


def rational_parts(x) -> tuple:
    """The (re, im) parts of x, each as (num, den) (``as_ratio``): those of
    an (re, im) pair, of a Q(i) value, or of a real x with im = 0."""
    if isinstance(x, tuple):
        return as_ratio(x[0]), as_ratio(x[1])
    return (as_ratio(x.re), as_ratio(x.im)) if hasattr(x, "im") else (as_ratio(x), (0, 1))


def common_denominator(values) -> tuple[int, list[tuple[int, int]]]:
    """One positive denominator D and integer pairs (p, q), one for each
    value, with (p/D, q/D) its ``rational_parts``."""
    parts = [rational_parts(v) for v in values]
    den = math.lcm(1, *(d for pair in parts for _, d in pair))
    return den, [(a * (den // b), c * (den // d)) for (a, b), (c, d) in parts]


def str_pair(den: int, pair) -> list[str]:
    """(x + y i)/den as ["p/q", "r/s"]: each part in lowest terms with its
    denominator, at any length (``GaussianRational.to_str_pair``'s bytes)."""
    out = []
    for x in pair:
        g = math.gcd(x, den)
        out.append(f"{decimal_str(x // g)}/{decimal_str(den // g)}")
    return out


def pair_text(den: int, pair) -> str:
    """(x + y i)/den as text: "re", "im*i" or "re+im*i", each part as
    str(Fraction) writes it (``GaussianRational.__str__``'s bytes)."""
    re, im = (part.removesuffix("/1") for part in str_pair(den, pair))
    if not pair[1]:
        return re
    if not pair[0]:
        return f"{im}*i"
    return f"{re}{'+' if pair[1] > 0 else '-'}{im.lstrip('-')}*i"


def __getattr__(name: str):
    """The Q(i) names of ``gaussian``, loaded on first use (PEP 562)."""
    if name in ("GaussianRational", "qi", "I", "ONE", "ZERO", "from_pairs", "binom_poly_in_s",
                "binom_poly_in_s_scaled", "PowerSeries"):
        from zetapoly import gaussian

        return getattr(gaussian, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------
# Dense polynomials over Q(i), as ascending Gaussian-integer pairs over one denominator
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
        """Build from at most w+1 coefficients (zero-padded), read by ``rational_parts``."""
        den, pairs = common_denominator(values)
        if len(pairs) > w + 1:
            raise InputError(f"{len(pairs)} coefficients exceed degree bound w={w}")
        return cls(w, den, pairs + [(0, 0)] * (w + 1 - len(pairs)))

    @cached_property
    def coeffs(self) -> tuple:
        """The w+1 coefficients as Q(i) values, built on first read."""
        from zetapoly.gaussian import from_pairs

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
        """The coefficients as ["p/q", "r/s"] pairs (``str_pair``)."""
        return [str_pair(self.den, p) for p in self.pairs]

    def to_text(self) -> str:
        """The coefficients as text, ascending, one space apart (``pair_text``)."""
        return " ".join(pair_text(self.den, p) for p in self.pairs)

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
        if not isinstance(w, int) or isinstance(w, bool):
            raise InputError(f"'w' must be an integer, got {w!r}")
        variable = data.get("variable")
        if variable is not None and variable != cls.VARIABLE:
            raise InputError(f"expected a polynomial in {cls.VARIABLE!r}, got variable={variable!r}")
        require_even_w(w)
        if not isinstance(raw, list) or len(raw) != w + 1:
            raise InputError(f"'coeffs' must list exactly w+1 = {w + 1} entries")
        coeffs = []
        for entry in raw:
            if isinstance(entry, (list, tuple)) and len(entry) == 2:
                try:
                    coeffs.append((parse_rational(str(entry[0])), parse_rational(str(entry[1]))))
                except (ValueError, ZeroDivisionError) as exc:
                    msg = f"bad coefficient entry {_clipped(repr(entry))}: {_clipped(str(exc))}"
                    raise InputError(msg) from exc
            else:
                entry = _clipped(repr(entry))
                raise InputError(f"coefficient entries must be [re, im] pairs, got {entry}")
        return cls.make(w, coeffs)
