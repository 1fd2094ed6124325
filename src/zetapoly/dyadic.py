"""Exact binary values: rounding on integers, one scalar type, and a
printer.

Every numeric value the package reports is a dyadic m 2^e.  ``rounded``
rounds one to a number of significant bits, to nearest with ties to even
(or up), as mpmath's ``round_nearest`` does; ``quotient`` and
``sqrt_rounded`` round a quotient and a square root correctly by handing
it the truncated value with a sticky bit, as mpmath's ``mpf_div`` and
``mpf_sqrt`` do, so each agrees with mpmath bit for bit.  ``Dyadic``
holds one value in mpmath's own raw form, and ``nstr`` prints that form
as ``mpmath.nstr`` does, digit for digit but for near ties past
2^(+-3500) (see ``_digits``).
"""

from __future__ import annotations

import math

from zetapoly.exactnum import decimal_str


def rounded(man: int, exp: int, bits: int, up: bool = False) -> tuple[int, int]:
    """(m, e) with m 2^e the value man 2^exp rounded to ``bits`` significant
    bits: to nearest with ties to even, or, with ``up``, up (for man >= 0)."""
    drop = abs(man).bit_length() - bits
    if drop <= 0:
        return man, exp
    a = abs(man)
    q, low = a >> drop, a & ((1 << drop) - 1)
    half = 1 << drop - 1
    if up:
        q += low > 0
    elif low > half or (low == half and q & 1):
        q += 1
    return (-q if man < 0 else q), exp + drop


def quotient(num: int, den: int, exp: int, bits: int, up: bool = False) -> tuple[int, int]:
    """num 2^exp / den, den > 0, rounded as ``rounded`` rounds: the
    truncated quotient carries bits + 2 bits and a sticky last bit."""
    shift = max(bits + 3 + den.bit_length() - abs(num).bit_length(), 0)
    q, r = divmod(abs(num) << shift, den)
    q = (q << 1) | (r > 0)
    return rounded(-q if num < 0 else q, exp - shift - 1, bits, up)


def sqrt_rounded(man: int, exp: int, bits: int) -> tuple[int, int]:
    """sqrt(man 2^exp), man >= 0, rounded to nearest at ``bits`` bits."""
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(2 * bits + 6 - man.bit_length(), 0) & ~1
    s = math.isqrt(man << shift)
    return rounded((s << 1) | (s * s != man << shift), (exp - shift) // 2 - 1, bits)


def aligned(parts) -> tuple[int, list[int]]:
    """(E, [m'_j]) with m'_j 2^E = m_j 2^e_j for the pairs (m_j, e_j), and
    E the least exponent of a nonzero m_j (0 if there is none)."""
    low = min((e for m, e in parts if m), default=0)
    return low, [m << e - low if m else 0 for m, e in parts]


class Dyadic:
    """An exact binary value m 2^e, or +inf, held as mpmath holds a float:
    ``_mpf_`` is (sign, |m| made odd, e, bit length of |m|), (0, 0, 0, 0)
    for zero and (0, 0, -456, -2) for +inf.  mpmath reads such a value as
    one of its own: mpmath.mpf(x), comparisons and arithmetic with mpf."""

    __slots__ = ("_mpf_",)

    def __init__(self, man: int, exp: int = 0):
        a = abs(man)
        if not a:
            self._mpf_ = (0, 0, 0, 0)
            return
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        self._mpf_ = (int(man < 0), a, exp + zeros, a.bit_length())

    @property
    def man_exp(self) -> tuple[int, int]:
        """(m, e) with the value m 2^e, m odd, or (0, 0); ValueError for +inf."""
        sign, man, exp, _ = self._mpf_
        if not man and exp:
            raise ValueError("+inf has no mantissa and exponent")
        return (-man if sign else man), exp

    def __sub__(self, other):
        """The exact difference with a Dyadic or an int."""
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        E, (a, b) = aligned([self.man_exp, other.man_exp if isinstance(other, Dyadic) else (other, 0)])
        return Dyadic(a - b, E)

    def __abs__(self):
        return Dyadic(-self.man_exp[0], self.man_exp[1]) if self._mpf_[0] else self

    def __eq__(self, other):
        return self._mpf_ == other._mpf_ if isinstance(other, Dyadic) else NotImplemented

    def __hash__(self):
        return hash(self._mpf_)

    def __repr__(self):
        return "Dyadic(+inf)" if self is INF else "Dyadic(%d, %d)" % self.man_exp


INF = object.__new__(Dyadic)
INF._mpf_ = (0, 0, -456, -2)

_LOG2_10 = math.log(10, 2)


def nstr(x, dps: int) -> str:
    """``mpmath.nstr(x, dps)``, dps >= 1, for a value with ``_mpf_`` (a
    Dyadic or an mpf), or for a pair (real part, imaginary part) of them
    printed as mpmath prints an mpc."""
    if isinstance(x, tuple):
        sign, *im = x[1]._mpf_
        return f"({_to_str(x[0]._mpf_, dps)} {'-' if sign else '+'} {_to_str((0, *im), dps)}j)"
    return _to_str(x._mpf_, dps)


def _to_str(t: tuple, dps: int) -> str:
    """mpmath's ``to_str``: the leading dps + 3 digits, truncated, then
    rounded half up at digit dps; fixed point when the decimal exponent
    lies strictly between min(-(dps // 3), -5) and dps; trailing zeros
    stripped."""
    sign, man, exp, bc = t
    if not man:  # zero or +inf, the only values without a mantissa here
        return "+inf" if exp else "0.0"
    digits, exponent = _digits(man, exp, bc, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps].rstrip("9")
        if digits:
            digits = digits[:-1] + str(int(digits[-1]) + 1) + "0" * (dps - len(digits))
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    out = ("-" if sign else "") + digits + ("0" if digits[-1] == "." else "")
    if exponent == 0:
        return out
    return out + ("e+" if exponent > 0 else "e") + str(exponent)


def _digits(man: int, exp: int, bc: int, dps: int) -> tuple[str, int]:
    """mpmath's ``to_digits_exp`` on |value| = man 2^exp: at least dps
    leading decimal digits, truncated, and the decimal exponent of the
    first, by mpmath's fixed-point path at every exponent.  Past 2^(+-3500)
    mpmath first divides by a power of ten rounded to the working bits, so
    there the digits can differ from mpmath's only at a near tie in digit dps."""
    bitprec = int(dps * _LOG2_10) + 10
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    fixed = man << exp + fixprec if exp + fixprec >= 0 else man >> -(exp + fixprec)
    digits = decimal_str(fixed * 10**fixdps >> fixprec)
    return digits, len(digits) - fixdps - 1
