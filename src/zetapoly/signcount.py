"""Property (ii) of the paper proved by certified sign counts: every root
of Z on Re s = 1/2, or of r on |X| = 1, for real coefficients c_j with
proved errors e_j >= |c_j - c*_j|, when theory makes the true polynomial
symmetric: Z*(1 - s) = Z*(s), or X^w r*(1/X) = r*(X).  Then Z*(1/2 + it)
and X^(-w/2) r*(X) on |X| = 1 are real polynomials F* of degree d = w/2 in
v = 4t^2 >= 0 and y = X + 1/X in [-2, 2].  With c_j = m_j 2^E and
e_j = n_j 2^E, the computed real part there is 2^E' F, F on integers:

- line: a Taylor shift gives A(x) = sum_j m_j 2^(w-j) (1 + x)^j =
  2^(w-E) Z(1/2 + x/2); F(v) = sum_k (-1)^k a_(2k) v^k and E' = E - w;
- circle: F = sum_k (m_(d+k) + m_(d-k)) V_k(y), V_k(X + 1/X) = X^k + X^-k
  (V_0 = 1 in this sum), and E' = E - 1.

It is within sum_j e_j |s|^j <= sum_j e_j 2^-j (1 + v)^ceil(j/2) of F* on
the line, sum_j e_j on the circle; a sign counts only where |2^E' F| is
larger, compared on integers.  d changes give d roots of F*, each two roots
(t and -t, X and 1/X) of the true polynomial: all w, simple, on the curve.
The points come from F alone, on integers: Descartes' rule of signs with
bisection (Collins and Akritas 1976) isolates its real roots, and Newton's
method refines them.
"""

from __future__ import annotations

from zetapoly.dyadic import Dyadic, rounded, sqrt_rounded
from zetapoly.errors import InputError
from zetapoly.polyspace import _int_shift
from zetapoly.zeta import _sorted_roots

_SIGN_ROOT_BITS = 96  # significant bits of the roots a proved check returns


def sign_count_check(poly, mode: str, eps: int) -> tuple | None:
    """Prove that all roots of the true polynomial lie on Re s = 1/2
    (``critical_line``) or |X| = 1 (``unit_circle``) and return them, or
    return None.  ``poly`` is a NumericPoly, w even, whose ``errs`` bound
    its errors; ``eps`` is the symmetry's sign, from theory (-1 forces a
    root at 1/2 or X = 1: None), and the data must match it within the errors.

    Signs are taken at lo, at hi and at the exact dyadic middles between
    F's roots: (lo, hi) is (0, 2^k) on the line, 2^k a Fujiwara bound from
    bit lengths, and (-2, 2) on the circle.  The roots are chosen on G, F
    cut to its top 2 _SIGN_ROOT_BITS bits, or on F where the cut merges or
    moves them; the signs are taken on F.  ``_isolated`` isolates each real
    root in (lo, hi), one on a split point exactly, and ``_real_newton``
    refines it on F.  They must increase strictly, or None.  The roots come
    back as (real part, imaginary part) Dyadic pairs, each square root in s
    or X rounded to 128 bits, sorted as ``roots`` sorts at ``poly.prec`` bits.
    """
    if mode not in ("critical_line", "unit_circle") or eps not in (1, -1):
        raise InputError(f"need a known mode and eps +1 or -1, got {mode!r}, {eps!r}")
    w, d, mans, emans, line = poly.w, poly.w // 2, poly.mans, poly.errs, mode == "critical_line"
    if eps != 1 or w % 2 or w < 2:
        return None
    if line:
        a, ae = (_int_shift([m << w - j for j, m in enumerate(ms)], 1) for ms in (mans, emans))
        odd = [(abs(a[k]), ae[k]) for k in range(1, w + 1, 2)]
        F = [(-1) ** k * a[2 * k] for k in range(d + 1)]
    else:
        odd = [(abs(mans[j] - mans[w - j]), emans[j] + emans[w - j]) for j in range(d)]
        F, prev, cur = [2 * mans[d]] + [0] * d, [2], [0, 1]
        for k in range(1, d + 1):
            for i, v in enumerate(cur):
                F[i] += (mans[d + k] + mans[d - k]) * v
            prev, cur = cur, [p - q for p, q in zip([0] + cur, prev + [0, 0])]
    if any(x > e for x, e in odd):
        return None
    cut = max(max(x.bit_length() for x in F) - 2 * _SIGN_ROOT_BITS, 0)
    G = [x >> cut for x in F]  # chooses the roots only: the signs are taken on F
    if line:  # roots < 2 max_j |G_j / G_d|^(1/(d-j)) <= 2^k, as |G_j / G_d| < 2^(len(G_j) - top)
        top = G[d].bit_length() - 1
        lo, k = 0, max([0] + [1 - (top - g.bit_length()) // (d - j) for j, g in enumerate(G[:d]) if g])
    else:
        lo, k = -2, 2
    for H in (G, F) if cut else (G,):  # then F itself, where the cut merged or moved roots
        seeds = _isolated([h << k * j for j, h in enumerate(_int_shift(H, lo))], 2 * _SIGN_ROOT_BITS)
        ends = [(lo, 0), *(_real_newton(F, (lo << n) + (c << k), n) for c, n in seeds), (lo + (1 << k), 0)]
        pairs = [(x << max(s, t) - s, y << max(s, t) - t, max(s, t))
                 for (x, s), (y, t) in zip(ends, ends[1:])]
        if len(seeds) == d and all(x < y for x, y, _ in pairs):  # the count needs rising points
            break
    else:
        return None
    signs = []
    for num, b in [ends[0], *((x + y, T + 1) for x, y, T in pairs[1:-1]), ends[-1]]:  # x = num / 2^b
        q, val = 1 << b, 0
        for i in range(d, -1, -1):  # 2^(bd) F(x)
            val = val * num + (F[i] << b * (d - i))
        if line:  # 2^(bd + w - E) sum_j e_j 2^-j (1 + x)^ceil(j/2)
            bound = sum(e * (q + num) ** (j - j // 2) << w - j + b * (d - j + j // 2)
                        for j, e in enumerate(emans))
        else:  # 2^(bd + 1 - E) sum_j e_j
            bound = sum(emans) << b * d + 1
        if abs(val) <= bound:
            return None
        signs.append(val > 0)
    if sum(s != t for s, t in zip(signs, signs[1:])) < d:
        return None
    found, bits = [], _SIGN_ROOT_BITS + 32
    for X, t in ends[1:-1]:
        if line:  # s = (1 +- i sqrt(v)) / 2 with v = X 2^-t
            (a, ea), (b, eb) = (1, 0), sqrt_rounded(X, -t, bits)
        else:  # X = (y +- i sqrt(4 - y^2)) / 2 with y = X 2^-t, y^2 and 4 - y^2 rounded
            m, e = rounded(X * X, -2 * t, bits)
            low = min(e, 0)
            rest = rounded((4 << -low) - (m << e - low), low, bits)
            (a, ea), (b, eb) = (X, -t), sqrt_rounded(*rest, bits)
        E = min(ea, eb) - 1
        found += [(a << ea - 1 - E, s * b << eb - 1 - E, E) for s in (-1, 1)]
    return tuple((Dyadic(a, E), Dyadic(b, E)) for a, b, E in _sorted_roots(found, poly.prec))


def _isolated(P: list, limit: int) -> list:
    """One point per root of the integer polynomial P in (0, 1), in increasing
    order: the root itself on a split point, else from ``_bracketed`` in an
    interval that holds only it.  The interval (c, c + 1) 2^-n is (0, 1) for
    an integer Q(x) with the roots of P((c + x) 2^-n) there, v of them or an
    even number fewer (``_descartes``): 0 drops the interval, 1 isolates a
    root, more halve it into 2^d Q(x/2) and that shifted by 1, whose root at
    0 is divided out, or after ``limit`` halvings drop it, so that fewer
    points than P's degree come back.  The halves' v and a root between
    them add up to at most v: a left half with all v leaves none to the
    right, which is then not built."""
    found, todo, T = [], [(0, 0, P, _descartes(P))], _SIGN_ROOT_BITS + 8
    while todo:
        c, n, Q, v = todo.pop()
        if v == 1:
            found.append(((c << T) + _bracketed(Q, T), n + T))
        elif v and n < limit:
            left = [x << len(Q) - 1 - j for j, x in enumerate(Q)]
            v_left = _descartes(left)
            todo.append((2 * c, n + 1, left, v_left))
            if v_left < v:
                right = _int_shift(left, 1)
                if not right[0]:  # a root on the split point
                    found.append((2 * c + 1 << T - 1, n + T))
                    right = right[1:]
                todo.append((2 * c + 1, n + 1, right, _descartes(right)))
    return sorted(found, key=lambda p: p[0] << limit + T - p[1])


def _descartes(Q: list) -> int:
    """The sign changes of (1 + x)^d Q(1/(1 + x)), none when Q has none."""
    signs = [x > 0 for x in _int_shift(Q[::-1], 1) if x] if min(Q) < 0 < max(Q) else []
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _bracketed(Q: list, T: int) -> int:
    """The one root of the integer polynomial Q in (0, 1), simple, as about
    X 2^-T: Newton's method from the chord point, each value narrowing the
    bracket [A, B] where Q changes sign, and a step out of it to its middle."""
    d = len(Q) - 1
    C = [q << T * (d - k) for k, q in enumerate(Q[:d])][::-1]  # for Horner at X 2^-T, times 2^(Td)
    A, B, qa, qb = 0, 1 << T, Q[0] << T * d, sum(Q) << T * d
    X = min(max(B * qa // (qa - qb), 1), B - 1) if qa * qb < 0 else B // 2  # the chord point
    for _ in range(4 * T):  # a cap
        n, dn = Q[d], 0
        for c in C:
            dn = dn * X + n
            n = n * X + c
        if not n:
            return X
        if (n < 0) == (qa < 0):  # the root is right of X
            A, qa = X, n
        else:
            B, qb = X, n
        Y = X - n // dn if dn else A
        if A < Y < B and abs(Y - X) <= 1 << T - 64:  # so Y is good to about 128 bits
            return Y
        if B - A <= 1:
            return A
        X = Y if A < Y < B else (A + B) // 2
    return X


def _real_newton(F: list, X: int, t: int) -> tuple[int, int]:
    """A root X' 2^-t' of the integer polynomial F near X 2^-t by Newton's
    method: X is rescaled to _SIGN_ROOT_BITS bits, Horner gives N = 2^(td) F
    and D = 2^(t(d-1)) F', and the next X, X - N/D, is floored with as many
    more bits as keep it at _SIGN_ROOT_BITS - 1 (a root near 0 gets as many
    as any)."""
    d = len(F) - 1
    for _ in range(64):  # a cap: a root near 0 takes about log2(precision) steps
        shift = max(_SIGN_ROOT_BITS - X.bit_length(), -t)
        X, t = X << shift if shift >= 0 else X >> -shift, t + shift
        n, dn = F[d], 0
        for k in range(d - 1, -1, -1):
            dn = dn * X + n
            n = n * X + (F[k] << t * (d - k))
        if not n or not dn:
            break
        num = n - X * dn  # the next X is -num / dn, taken with s more bits
        s = max(_SIGN_ROOT_BITS - 1 - num.bit_length() + dn.bit_length(), 0)
        Y = -((num << s) // dn)
        if not s and abs(X - Y) <= 1:
            return Y, t
        X, t = Y, t + s
    return X, t
