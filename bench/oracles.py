"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into `growthcap`: the continued fraction, the Hermite
filter, the Lagrange values and the Markoff tree are recomputed from their
textbook definitions, mostly in mpmath floating point at a precision chosen
large enough for the decision at hand.  A quadratic irrational is passed
around as the integer tuple (a, b, c, d) meaning (a + b*sqrt(d))/c.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from mpmath import mp


def surd_mpf(a: int, b: int, c: int, d: int, prec: int = 256):
    """(a + b*sqrt(d))/c as an mpf correct to about `prec` bits.

    a + b*sqrt(d) has nonzero integer norm a^2 - b^2 d, so its magnitude is
    at least 1/(2|a|+1) and cancellation costs at most ~2*bits(a) bits.
    """
    guard = 2 * max(abs(a).bit_length(), abs(b).bit_length() + d.bit_length()) + 32
    with mp.workprec(prec + guard):
        v = (mp.mpf(a) + mp.mpf(b) * mp.sqrt(d)) / c
    return v


def is_square_of_error(A: tuple, x: tuple, p: int, q: int) -> bool:
    """Whether the surd with fields A equals (q x - p)^2, in integers.

    (q x - p)^2 = (r + s sqrt(d)) / c^2 with r = (qa - pc)^2 + q^2 b^2 d and
    s = 2 (qa - pc) q b, for x = (a + b sqrt(d))/c.
    """
    a, b, c, d = x
    e = q * a - p * c
    r, s = e * e + q * q * b * b * d, 2 * e * q * b
    Aa, Ab, Ac, Ad = A
    return Aa * c * c == r * Ac and Ab * c * c == s * Ac and (s == 0 or Ad == d)


def surd_fields(x) -> tuple[int, int, int, int]:
    """The public fields of a library Surd (or a Fraction/int as b = d = 0)."""
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return x.numerator, 0, x.denominator, 0
    return x.a, x.b, x.c, x.d


def cf_state(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """(P, Q, D) with x = (P + sqrt(D))/Q and Q dividing D - P^2."""
    D = b * b * d
    P, Q = (a, c) if b > 0 else (-a, -c)
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    return P, Q, D


def cf_walk(x: tuple, count: int):
    """First `count` (quotient, P, Q) triples of the CF state machine; D last.

    The n-th entry holds a_n and the state (P_n, Q_n) of the complete
    quotient x_n = (P_n + sqrt(D))/Q_n.
    """
    P, Q, D = cf_state(*x)
    s = isqrt(D)
    out = []
    for _ in range(count):
        q = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        out.append((q, P, Q))
        P = q * Q - P
        Q = (D - P * P) // Q
    return out, D


def cf_period(x: tuple) -> tuple[int, ...]:
    """The repeating block of the partial quotients of a quadratic irrational
    (up to rotation: the period starts at the first repeated state)."""
    P, Q, D = cf_state(*x)
    s = isqrt(D)
    seen: dict = {}
    quotients = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        q = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        quotients.append(q)
        P = q * Q - P
        Q = (D - P * P) // Q
    return tuple(quotients[seen[(P, Q)]:])


def convergents(x: tuple, count: int):
    """[(n, p_n, q_n)] for n < count, plus the CF walk used to make them."""
    walk, D = cf_walk(x, count + 2)
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    for n in range(count):
        a = walk[n][0]
        p, q = a * p0 + p1, a * q0 + q1
        out.append((n, p, q))
        p0, q0, p1, q1 = p, q, p0, q0
    return out, walk, D


def hermite_filter(x: tuple, convs):
    """The convergents whose piece lies on the lower envelope of the profile.

    With s = t^2, f(x + i/t) * t is the minimum over lattice vectors of the
    lines A s + B, A = (q x - p)^2, B = q^2, together with the sky line s
    (the vector 1).  The Hermite convergents are the convergents whose line
    reaches that lower envelope; slopes fall and intercepts rise along the
    convergents, so one convex-hull pass finds them.  The last four entries
    of `convs` only serve to cut the envelope: they are never reported.

    Returns (hermite, ties): ties holds the indices n of lines that touch the
    envelope in a single point, where three lattice vectors are equally short
    (the geodesic runs through a corner of the tiling, as for x in Q(sqrt 3));
    whether such a convergent counts is a convention, so callers skip them.
    """
    qmax = max(q for _, _, q in convs)
    prec = 4 * qmax.bit_length() + 192
    xv = surd_mpf(*x, prec=prec)
    tiny = mp.mpf(2) ** -100
    ties = set()
    with mp.workprec(prec):
        lines = [(mp.mpf(1), mp.mpf(0), None)]
        for n, p, q in convs:
            lines.append(((q * xv - p) ** 2, mp.mpf(q * q), (n, p, q)))

        def cut(i, j):
            return (j[1] - i[1]) / (i[0] - j[0])

        hull: list = []
        for line in lines:
            while len(hull) >= 2:
                a, b = cut(hull[-2], line), cut(hull[-2], hull[-1])
                if abs(a - b) <= tiny * abs(b):
                    ties.add(hull[-1][2][0])
                    break
                if a > b:
                    break
                hull.pop()
            hull.append(line)
    last = len(convs) - 4
    return [ln[2] for ln in hull if ln[2] is not None and ln[2][0] < last], ties


def lambda_values(x: tuple, ns, prec: int = 256) -> dict:
    """lambda_n = q_{n-1}/q_n + x_{n+1} for each n in `ns` (q_{-1} = 0), as mpf."""
    top = max(ns) + 1
    convs, walk, D = convergents(x, top + 1)
    out = {}
    with mp.workprec(prec + 64):
        root = mp.sqrt(D)
        for n in ns:
            _, P, Q = walk[n + 1]
            q_prev = convs[n - 1][2] if n else 0
            out[n] = mp.mpf(q_prev) / convs[n][2] + (P + root) / Q
    return out


def _periodic_value(word: tuple, start: int, step: int) -> float:
    """[w_start; w_{start+step}, w_{start+2 step}, ...] cyclically, in floats."""
    k = len(word)
    terms = k * (64 // k + 2)
    v = float(word[(start + step * terms) % k])
    for i in range(terms - 1, -1, -1):
        v = word[(start + step * i) % k] + 1.0 / v
    return v


def lagrange_float(period: tuple) -> float:
    """L = max over rotations of [a_j; a_{j+1}, ...] + [0; a_{j-1}, a_{j-2}, ...]."""
    k = len(period)
    best = 0.0
    for j in range(k):
        lam = _periodic_value(period, j, 1) + 1.0 / _periodic_value(period, (j - 1) % k, -1)
        best = max(best, lam)
    return best


def markoff_numbers(limit: int) -> list[int]:
    """Markoff numbers <= limit by depth-first descent of the Markoff tree.

    Every triple other than (1,1,1) and (1,1,2) is (a, b, m) with a < b < m and
    has the two children (a, m, 3am - b) and (b, m, 3bm - a); each triple is
    re-verified against a^2 + b^2 + m^2 = 3abm.
    """
    found = {m for m in (1, 2) if m <= limit}
    stack = [(1, 2, 5)]
    while stack:
        a, b, m = stack.pop()
        if m > limit:
            continue
        if a * a + b * b + m * m != 3 * a * b * m:
            raise ArithmeticError(f"not a Markoff triple: {(a, b, m)}")
        found.add(m)
        stack.append((a, m, 3 * a * m - b))
        stack.append((b, m, 3 * b * m - a))
    return sorted(found)


def dyadic(v) -> Fraction:
    """The exact rational value of an mpf."""
    man, exp = v.man_exp
    return Fraction(man) * Fraction(2) ** exp if exp >= 0 else Fraction(man, 2 ** (-exp))


def _nearest(r) -> int:
    """floor(r + 1/2) for a Fraction, or for a quadratic surd object with
    exact `+ Fraction` and `floor()` (the library's Surd)."""
    if isinstance(r, Fraction):
        return (2 * r.numerator + r.denominator) // (2 * r.denominator)
    return (r + Fraction(1, 2)).floor()


def capacity_exact(x, y: Fraction):
    """f(x + iy) = min |u + v w|^2 / y over nonzero lattice vectors, exactly.

    Plain Lagrange-Gauss on {1, w}; x is a Fraction, or a quadratic surd whose
    own exact arithmetic is then used, and y is a Fraction.
    """
    y2 = y * y
    u, v = (1, 0), (0, 1)

    def norm(w):
        t = w[0] + w[1] * x
        return t * t + w[1] * w[1] * y2

    def dot(w, z):
        return (w[0] + w[1] * x) * (z[0] + z[1] * x) + w[1] * z[1] * y2

    nu, nv = norm(u), norm(v)
    if nu > nv:
        u, v, nu, nv = v, u, nv, nu
    while True:
        m = _nearest(dot(u, v) / nu)
        if m == 0:
            return nu / y
        v = (v[0] - m * u[0], v[1] - m * u[1])
        nv = norm(v)
        if nv < nu:
            u, v, nu, nv = v, u, nv, nu
