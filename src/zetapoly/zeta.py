"""Verification machinery for zeta-polynomials Z(s).

Covers the functional-equation residual Z(s) + eps i^w Z(1-s), the
Laurent coefficients and the convergent triple-sum identity attached to
a positive integer n, the root report and root order shared by the root
checks, and the integrality and positivity hypotheses under which Z
is a Hilbert polynomial.  The general root finder, ``roots`` and
``rh_check``, lives in ``rootfind`` and is loaded on first use.

Identity checks on exact inputs are exact (equality with the zero
polynomial over Q(i)); tolerances appear only for truncation of the
infinite sum and for the numeric pipeline.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Union

from zetapoly.dyadic import INF, Dyadic, nstr, quotient, rounded, sqrt_rounded
from zetapoly.errors import InputError
from zetapoly.exactnum import Record, as_ratio, pair_text, require_even_w, str_pair
from zetapoly.polyspace import PolyX, slash
from zetapoly.rv import ZetaPoly, rv_inverse, series_coeffs

TolLike = Union[str, int, tuple]


def as_tolerance(tol: TolLike) -> tuple[int, int]:
    """Exact positive rational (num, den) from rational text, an int, a
    Fraction or a (num, den) pair (``exactnum.as_ratio``)."""
    try:
        num, den = as_ratio(tol)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse tolerance {tol!r}") from exc
    if num <= 0:
        raise InputError(f"tolerance must be positive, got {tol!r}")
    return num, den


def _ratio_text(x: tuple) -> str:
    """(num, den) as str(Fraction) writes it: "p/q" in lowest terms, or "p"."""
    return pair_text(x[1], (x[0], 0))


# ---------------------------------------------------------------------
# Functional equation
# ---------------------------------------------------------------------


def functional_eq_residual(Z: ZetaPoly, eps: int) -> ZetaPoly:
    """The exact polynomial Z(s) + eps * i^w * Z(1-s).

    Zero exactly when the functional equation holds.
    """
    if eps not in (1, -1):
        raise InputError(f"eps must be +1 or -1, got {eps!r}")
    # The slash by [[-1, 1], [0, 1]] is det^(-w/2) P(1-X) = i^w P(1-X).
    flipped = slash(PolyX(Z.w, Z.den, Z.pairs), (-1, 1, 0, 1))
    return Z + ZetaPoly(Z.w, flipped.den, tuple((eps * x, eps * y) for x, y in flipped.pairs))


# ---------------------------------------------------------------------
# Laurent coefficients of the kernel attached to (w, n)
# ---------------------------------------------------------------------


class LaurentCoeffs(Record):
    """Exact Laurent coefficients a_m, m = -(n+1) .. M, of

        (1-x)^(w+1) (x+i)^n / ((x+i-ix)^(w+1) (ix)^(n+1))

    expanded about x = 0, as (re, im) int pairs.  The pole at 0 has exact order n+1."""

    w: int
    n: int
    M: int
    pairs: tuple[tuple[int, int], ...]

    def coeff(self, m: int):
        """a_m as a Q(i) value, built on read."""
        if m > self.M:
            raise InputError(f"coefficient a_{m} beyond truncation order {self.M}")
        return _qi(1, self.pairs[m + self.n + 1] if m >= -(self.n + 1) else (0, 0))


def _qi(den: int, pair):
    """(x + y i)/den as a Q(i) value, for the values that reports build on read."""
    from zetapoly.gaussian import from_pairs

    return from_pairs(den, [pair])[0]


def laurent_coeffs(w: int, n: int, M: int) -> LaurentCoeffs:
    """Expand the kernel exactly to order M (M >= -(n+1) is allowed to be
    negative: only part of the principal part is then produced).

    As x + i = i(1 - ix) and x + i - ix = i(1 - (1+i)x), the kernel is
    (-1)^(w/2+1) x^(-(n+1)) (1-x)^(w+1) (1-ix)^n / (1-(1+i)x)^(w+1): every
    a_m is a Gaussian integer, from sum_s C(w+s, w) (1+i)^s x^s times w+1
    factors (1-x) and n factors (1-ix), on (re, im) int pairs."""
    require_even_w(w)
    if n < 1:
        raise InputError(f"n must be a positive integer, got {n}")
    if M < -(n + 1):
        raise InputError(f"truncation order M={M} precedes the pole order {-(n + 1)}")
    series, pr, pi = [], (-1) ** (w // 2 + 1), 0
    for s in range(M + n + 2):
        series.append((math.comb(w + s, w) * pr, math.comb(w + s, w) * pi))
        pr, pi = pr - pi, pr + pi  # times (1+i)
    for _ in range(w + 1):  # times (1 - x)
        series = [(a - c, b - d) for (a, b), (c, d) in zip(series, [(0, 0)] + series)]
    for _ in range(n):  # times (1 - ix)
        series = [(a + d, b - c) for (a, b), (c, d) in zip(series, [(0, 0)] + series)]
    return LaurentCoeffs(w, n, M, tuple(series))


# ---------------------------------------------------------------------
# The convergent triple-sum identity
# ---------------------------------------------------------------------

RHO = (3, 4)  # documented tail ratio, as (num, den); asymptotic term ratio is 1/sqrt(2)
K_MIN = 40
K_MAX_DEFAULT = 400


class Thm2Report(Record):
    """Result of evaluating the identity value at a positive integer n.

    The exact per-k term t_k is ``term_numerators[k]`` over ``term_den`` 2^k.
    The exact part Z(-n) + (-i)^w sum_{m=1}^{n+1} a_{-m} Z(1-m) and the
    reported total (the exact part plus every term) are ``exact_numerator``
    and ``total_numerator`` over one ``den``; ``exact_part``, ``total`` and
    ``partial_sums`` are their Q(i) values, built on first read.  Under the
    geometric tail model with ratio RHO, |identity value - total| <=
    residual_bound whenever ``converged`` is set.
    """

    w: int
    n: int
    term_numerators: tuple[tuple[int, int], ...]
    term_den: int
    exact_numerator: tuple[int, int]
    total_numerator: tuple[int, int]
    den: int
    k_stop: int
    converged: bool
    residual_bound: Dyadic
    tol: tuple  # (num, den)

    @cached_property
    def exact_part(self):
        return _qi(self.den, self.exact_numerator)

    @cached_property
    def total(self):
        return _qi(self.den, self.total_numerator)

    @cached_property
    def partial_sums(self) -> tuple:
        return tuple(_qi(self.term_den << k, t) for k, t in enumerate(self.term_numerators))

    def _total_norm2(self) -> tuple[int, int]:
        x, y = self.total_numerator
        return x * x + y * y, self.den * self.den

    @property
    def abs_total(self) -> Dyadic:
        return Dyadic(*_sqrt64(*self._total_norm2()))

    def total_below(self, bound: TolLike) -> bool:
        """Exact test |total| < bound, by cross-multiplication."""
        (bn, bd), (n2, d2) = as_tolerance(bound), self._total_norm2()
        return n2 * bd * bd < bn * bn * d2

    def to_dict(self) -> dict:
        return {
            "w": self.w,
            "n": self.n,
            "k_stop": self.k_stop,
            "converged": self.converged,
            "abs_total": nstr(self.abs_total, 12),
            "residual_bound": nstr(self.residual_bound, 12),
            "total": str_pair(self.den, self.total_numerator),
            "tol": _ratio_text(self.tol),
        }


def thm2_residual(
    Z: ZetaPoly,
    n: int,
    tol: TolLike = "1e-10",
    k_max: int = K_MAX_DEFAULT,
) -> Thm2Report:
    """Evaluate the three-part identity value at n, with exact per-k terms.

    R = rv_inverse(Z) is read in the rescaled normalization, whose
    relations are ``polyspace.rescaled_es1_residual`` and
    ``rescaled_es2_residual``; ``polyspace.wspace_basis`` gives W_w in the
    classical one.  The bridge is the turn (T R)(X) = R(iX) that
    ``rescaled_es2_residual`` is built on: R satisfies the rescaled
    relations exactly when T R satisfies the classical ones.  W_w is closed
    under X -> -X, so a classical vector b becomes R = T b, R_j = i^j b_j.
    The first w = 10 basis vector gives |total| = 96.7 at n = 1 as it
    stands, and 1.7e-11 turned.

    The identity is stated as a triple sum over k, m and j of Z at the
    non-positive integers m+j-k-n.  With K = k+n, its j-sum is
    sum_{j=0}^{min(K-m, w+1)} (-1)^(j+1) C(w+1, j) Z(-(K-m-j)) = -r_{K-m},
    where r_q is the coefficient of X^q of R = rv_inverse(Z): the series
    sum_t Z(-t) X^t times (1 - X)^(w+1).  Since r_q = 0 for q > w, only
    m >= K-w contributes, and substituting q = K-m gives

    t_k = -C(K, n) (-i)^k sum_{q=0}^{min(K, w)} C(K-q+w, w)
          (1-i)^(-(K-q+w+1)) r_q.

    As (1-i)^(-1) = (1+i)/2 and (-i)^k (1+i)^(K+w+1) = i^n (1-i)^K (1+i)^(w+1),
    with r_q = h_q/D over one common denominator D each term is a Gaussian
    integer over 2^(K+w+1) D:

    t_k = -C(K, n) i^n B_K / (2^(K+w+1) D),   B_K = (1-i)^K (1+i)^(w+1) A_K,
    A_K = sum_{q=0}^{w} C(K-q+w, w) (1-i)^q h_q   (C(K-q+w, w) = 0 for q > K).

    B_K depends on Z alone, so R and the B_K are built once for every n
    asked of one input: a memo of one entry, keyed on Z's fields (w, den,
    pairs), which equal polynomials share, holds D, the least q with
    r_q != 0, a pure b(K) = B_K as an int pair and a dict of the B_K that
    calls have reached; two threads may each build one B_K, equal either
    way.  Each step is then C(K, n), a rotation by i^n and the stop test.
    The exact part Z(-n) + (-i)^w sum_{m=1}^{n+1} a_{-m} Z(1-m) runs on int
    pairs too, over one denominator.

    Summation stops at the first k >= K_MIN + max(q0 - n, 0), q0 the least
    q with r_q != 0 (t_k = 0 while K < q0, so K_MIN counts from the first
    term that can be nonzero), where the magnitudes of the last three
    terms all fall below theta = tol*(1-RHO)/RHO, or at k_max with
    ``converged`` cleared.  The test is exact, in integers: with theta =
    p/q, a term (a + b i)/den passes iff (a^2 + b^2) q^2 < p^2 den^2.
    """
    if n < 1:
        raise InputError(f"n must be a positive integer, got {n}")
    w = Z.w
    tol_pair = as_tolerance(tol)
    p, q = tol_pair[0] * (RHO[1] - RHO[0]), tol_pair[1] * RHO[0]  # theta = p/q

    zs = series_coeffs(Z, n + 1)  # Z(-t) = zs[t] / Z.den
    s = (-1) ** (w // 2)  # (-i)^w
    er, ei = zs[n]
    for (ar, ai), (zr, zi) in zip(laurent_coeffs(w, n, -1).pairs[::-1], zs):  # a_(-1), ..., a_(-(n+1))
        er, ei = er + s * (ar * zr - ai * zi), ei + s * (ar * zi + ai * zr)
    D, q0, B, b = _thm2_series(w, Z.den, Z.pairs)
    sign = 1 if n % 4 > 1 else -1  # t_k = C(K, n) u B_K / (2^(K+w+1) D): u = -i^n is sign, or sign * i for odd n
    den = D << (n + w)  # 2^(K+w+1) D, here at K = n - 1
    tden, limit = q * q, p * p * den * den  # t passes iff |num|^2 tden < limit
    acc_r = acc_i = 0  # the terms so far, summed over den
    below = 0  # how many of the latest terms are below theta
    K_stop = n + K_MIN + max(q0 - n, 0)  # the least K = k + n that may stop
    terms: list[tuple[int, int]] = []
    converged = False
    for K in range(n, n + k_max + 1):
        br, bi = B.get(K) or B.setdefault(K, b(K))
        c = sign * math.comb(K, n)
        tr, ti = (-c * bi, c * br) if n & 1 else (c * br, c * bi)
        limit <<= 2
        acc_r, acc_i = 2 * acc_r + tr, 2 * acc_i + ti
        terms.append((tr, ti))
        below = below + 1 if (tr * tr + ti * ti) * tden < limit else 0
        if below >= 3 and K >= K_stop:
            converged = True
            break
    den <<= len(terms)
    total_den = math.lcm(Z.den, den)
    ez, et = total_den // Z.den, total_den // den  # the scales of the exact part and of the terms
    exact, total = (ez * er, ez * ei), (ez * er + et * acc_r, ez * ei + et * acc_i)
    bound = INF
    if converged:  # max |t|^2 over the last three terms, |t_k|^2 = |num|^2 4^(k_stop-k) / den^2
        worst = max((a * a + b * b) << 2 * j for j, (a, b) in enumerate(terms[:-4:-1]))
        m, e = _sqrt64(worst, den * den)  # times RHO / (1 - RHO), each step rounded to 64 bits
        m, e = rounded(m * RHO[0], e, 64)
        bound = Dyadic(*quotient(m, RHO[1] - RHO[0], e, 64))
    return Thm2Report(
        w=w,
        n=n,
        term_numerators=tuple(terms),
        term_den=D << (n + w + 1),
        exact_numerator=exact,
        total_numerator=total,
        den=total_den,
        k_stop=len(terms) - 1,
        converged=converged,
        residual_bound=bound,
        tol=tol_pair,
    )


@lru_cache(maxsize=1)
def _thm2_series(w: int, den: int, pairs: tuple) -> tuple:
    """(D, q0, B, b) for ``thm2_residual`` on Z = ZetaPoly(w, den, pairs):
    R = rv_inverse(Z) has coefficients h_q / D and least nonzero index q0
    (0 when R = 0); b(K) is B_K as an int pair, by (1-i)^K (1+i)^(w+1) =
    i^(h-K) 2^h (1+i)^(m-2h), m = K+w+1, h = floor(m/2), as 1-i = -i(1+i)
    and (1+i)^2 = 2i; B starts as an empty dict of the B_K, keyed on K."""
    R = rv_inverse(ZetaPoly(w, den, pairs))
    g, fr, fi = [], 1, 0
    for q, (hr, hi) in enumerate(R.pairs):  # the nonzero g_q = (1-i)^q h_q
        if hr or hi:
            g.append((q, fr * hr - fi * hi, fr * hi + fi * hr))
        fr, fi = fr + fi, fi - fr  # times (1-i)

    def b(K):
        ar = ai = 0  # A_K
        for q, gr, gi in g:
            c = math.comb(K - q + w, w)
            ar += c * gr
            ai += c * gi
        h, odd = divmod(K + w + 1, 2)
        if odd:  # times (1+i)
            ar, ai = ar - ai, ar + ai
        for _ in range((h - K) % 4):  # times i
            ar, ai = -ai, ar
        return ar << h, ai << h

    return R.den, g[0][0] if g else 0, {}, b


def _sqrt64(num: int, den: int) -> tuple[int, int]:
    """sqrt(num/den), num >= 0 < den, to 64 bits in four correctly rounded
    steps: the numerator and the denominator in lowest terms each to 64
    bits, their quotient, then its square root."""
    g = math.gcd(num, den)
    (a, ea), (b, eb) = rounded(num // g, 0, 64), rounded(den // g, 0, 64)
    return sqrt_rounded(*quotient(a, b, ea - eb, 64), 64)


# ---------------------------------------------------------------------
# The root report and order that ``signcount`` and ``rootfind`` share
# ---------------------------------------------------------------------


def __getattr__(name: str):
    """``roots`` and ``rh_check`` from ``rootfind``, loaded on first use (PEP 562)."""
    if name in ("roots", "rh_check"):
        from zetapoly import rootfind

        return getattr(rootfind, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sorted_roots(found: list, precision: int) -> list:
    """The exact dyadic roots (a, b, E) = (a + b i) 2^E sorted by real part
    rounded to the 2^(-precision/2) grid (ties to even), then by imaginary part."""
    low = min((E for _, _, E in found), default=0)

    def key(z):
        a, b, E = z
        shift = E + precision // 2
        if shift >= 0:
            return a << shift, b << E - low
        q, r = divmod(a, 1 << -shift)
        half = 1 << -shift - 1
        return q + (r > half or (r == half and q & 1)), b << E - low

    return sorted(found, key=key)


class RootCheckReport(Record):
    """Deviation of each root from the critical line or the unit circle
    (0 when ``sign_count_check`` proved the locations).  ``roots`` holds
    (real part, imaginary part) pairs and ``max_deviation`` one value, each a Dyadic."""

    mode: str
    roots: tuple
    max_deviation: Dyadic
    tol: tuple  # (num, den)
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "max_deviation": nstr(self.max_deviation, 12),
            "tol": _ratio_text(self.tol),
            "roots": [[nstr(x, 20) for x in z] for z in self.roots],
        }


# ---------------------------------------------------------------------
# Hilbert-polynomial hypotheses
# ---------------------------------------------------------------------


class HilbertReport(Record):
    """Whether Z has integer coefficients and a positive leading term.

    When both hold (and the source R satisfies the Fricke-type
    symmetry), Z is a Hilbert polynomial; no graded-algebra certificate
    is attempted here.
    """

    integer_coefficients: bool
    positive_leading: bool
    satisfied: bool
    detail: str


def hilbert_hypotheses(Z: ZetaPoly) -> HilbertReport:
    integral = Z.den == 1 and not any(y for _, y in Z.pairs)
    deg = Z.degree()
    positive = deg >= 0 and Z.pairs[deg][1] == 0 and Z.pairs[deg][0] > 0
    satisfied = integral and positive
    if satisfied:
        detail = (
            "integer coefficients with positive leading term: Z is a Hilbert "
            "polynomial provided R satisfies the Fricke-type symmetry"
        )
    else:
        reasons = []
        if not integral:
            bad = next(p for p in Z.pairs if p[1] or p[0] % Z.den)
            reasons.append(f"non-integer coefficient {pair_text(Z.den, bad)}")
        if not positive:
            reasons.append("leading term not a positive real")
        detail = "; ".join(reasons)
    return HilbertReport(
        integer_coefficients=integral,
        positive_leading=positive,
        satisfied=satisfied,
        detail=detail,
    )
