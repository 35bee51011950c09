"""Exact real quadratic irrationals and their continued fractions.

Everything downstream (fundamental-domain reduction, capacity profiles,
Lagrange numbers) needs to make strict-inequality decisions between numbers
of the form (a + b*sqrt(d))/c.  Floating point cannot be trusted for that:
some of the comparisons we care about are decided in the 7th decimal or
worse.  So this module keeps such numbers exact and does all ordering with
integer arithmetic only.

The continued-fraction half implements the classical (P + sqrt(D))/Q state
machine for quadratic irrationals as one walk, `_cf_states`, which yields the
partial quotients and the states (`_cf_walk` adds the convergents); every
CF function here reads it.  The approximation-quality numbers

    lambda_n(x) = q_{n-1}/q_n + [a_{n+1}; a_{n+2}, ...]

have supremum L(x), the Lagrange number.  Along the period lambda_n tends to
x_{n+1} - conj(x_{n+1}) = 2 sqrt(D)/Q_{n+1}, so L(x) is the max of 2 sqrt(D)/Q_n
over the period's states (Perron, Die Lehre von den Kettenbruechen;
Cusick-Flahive, The Markoff and Lagrange Spectra, ch. 1), an exact surd in
x's own field read off the walk that finds the period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt

from mpmath import mp

__all__ = [
    "Surd",
    "PHI",
    "PSI",
    "surd_compare",
    "ContinuedFraction",
    "Convergent",
    "cf_expand",
    "convergents",
    "complete_quotient",
    "lambda_n",
    "periodic_value",
    "lagrange_number_estimate",
    "SurdParseError",
    "parse_surd",
    "parse_omega",
]

CF_MAX_ITER = 10**6

# Trial division bound for the squarefree split.  After removing every prime
# factor <= _TRIAL_BOUND, a residual below _TRIAL_BOUND**3 has at most two
# prime factors, so squarefreeness is decided by a perfect-square check.
_TRIAL_BOUND = 10**4


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f squarefree (n >= 1)."""
    s, f = 1, 1
    p = 2
    while p <= _TRIAL_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    if n == 1:
        return s, f
    r = isqrt(n)
    if r * r == n:
        return s * r, f
    if n < _TRIAL_BOUND**3:
        # at most two prime factors, both > _TRIAL_BOUND, not a square
        return s, f * n
    try:  # pragma: no cover - only reachable for astronomically large d
        from sympy import factorint
    except ImportError:
        raise ValueError(f"radicand {n} too large to canonicalize exactly") from None
    for prime, e in factorint(n).items():  # pragma: no cover
        s *= prime ** (e // 2)
        if e % 2:
            f *= prime
    return s, f  # pragma: no cover


class Surd:
    """The exact real number (a + b*sqrt(d))/c.

    Canonical form: c > 0, gcd(a, b, c) = 1, d squarefree, and d > 1
    exactly when b != 0 (rational values are stored with b = d = 0).
    Instances are immutable; arithmetic between members of one real
    quadratic field (rationals included) is exact.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("not a real surd")
        a, b, c, d = int(a), int(b), int(c), int(d)
        if b == 0 or d == 0:
            b, d = 0, 0
        elif d == 1:
            a, b, d = a + b, 0, 0
        else:
            sq, f = _squarefree_split(d)
            b, d = b * sq, f
            if d == 1:
                a, b, d = a + b, 0, 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Surd":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 0)

    @classmethod
    def sqrt_of(cls, q) -> "Surd":
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("not a real surd")
        return cls(0, 1, q.denominator, q.numerator * q.denominator)

    # -- basic queries -------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational surd has no Fraction value")
        return Fraction(self.a, self.c)

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if b > 0:
            if a >= 0:
                return 1
            return 1 if a * a < b * b * d else -1
        if a <= 0:
            return -1
        return 1 if a * a > b * b * d else -1

    def floor(self) -> int:
        if self.b == 0:
            return self.a // self.c
        s = isqrt(self.b * self.b * self.d)
        num = self.a + s if self.b > 0 else self.a - s - 1
        return num // self.c

    def conjugate(self) -> "Surd":
        return Surd(self.a, -self.b, self.c, self.d)

    # -- coercion helpers ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd.from_rational(other)
        return None

    def _join_d(self, other: "Surd") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ValueError(
            f"incomparable exactly: distinct radicands sqrt({self.d}) and sqrt({other.d})"
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return Surd(
            self.a * o.c + o.a * self.c,
            self.b * o.c + o.b * self.c,
            self.c * o.c,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return Surd(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            self.c * o.c,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("surd division by zero")
        k = self.a * self.a - self.b * self.b * self.d
        return Surd(self.c * self.a, -self.c * self.b, k, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = Surd(1, 0, 1, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- ordering --------------------------------------------------------

    def compare(self, other) -> int:
        """Exact three-way comparison; see `surd_compare`."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Surd with {type(other).__name__}")
        if self.d and o.d and self.d != o.d:
            raise ValueError(
                f"incomparable exactly: distinct radicands sqrt({self.d}) and sqrt({o.d})"
            )
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # values in distinct quadratic fields are equal only if both rational,
        # which canonical form would have already exposed
        if self.d != o.d:
            return False
        return (self.a, self.b, self.c) == (o.a, o.b, o.c)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- numeric conversion ----------------------------------------------

    def to_mpf(self):
        """Value as an mpf at the current mpmath precision.

        a + b*sqrt(d) cancels catastrophically when a and b have opposite
        signs and the value is tiny (squared convergent errors have huge,
        nearly-opposite coefficients).  In that case evaluate through the
        norm instead: (a^2 - b^2 d) / (a - b*sqrt(d)) has an exact integer
        numerator and a cancellation-free denominator, so a handful of
        guard bits always suffices.
        """
        if self.b == 0:
            return mp.mpf(self.a) / self.c
        with mp.workprec(mp.prec + 16):
            root = self.b * mp.sqrt(self.d)
            if self.a == 0 or (self.a > 0) == (self.b > 0):
                v = (self.a + root) / self.c
            else:
                v = mp.mpf(self.a * self.a - self.b * self.b * self.d) / ((self.a - root) * self.c)
        return +v

    def __float__(self):
        return float(self.to_mpf())

    # -- formatting --------------------------------------------------------

    def literal(self) -> str:
        """Canonical string accepted by `parse_surd` (round-trips exactly)."""
        if self.b == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        sign = "+" if self.b > 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}*sqrt({self.d}))/{self.c}"

    def pretty(self) -> str:
        if self.b == 0:
            return self.literal()
        core = f"{abs(self.b)}√{self.d}" if abs(self.b) != 1 else f"√{self.d}"
        if self.a == 0:
            num = core if self.b > 0 else f"-{core}"
        else:
            num = f"{self.a}{'+' if self.b > 0 else '-'}{core}"
        return num if self.c == 1 else f"({num})/{self.c}"

    def __repr__(self):
        return f"Surd({self.pretty()})"


PHI = Surd(1, 1, 2, 5)  # golden ratio
PSI = Surd(1, 1, 1, 2)  # silver ratio, 1 + sqrt(2)


def surd_compare(x, y) -> int:
    """Exact -1/0/+1 ordering of two surds sharing a quadratic field.

    Raises ValueError("incomparable exactly: ...") when both arguments are
    irrational with distinct radicands; callers that really need an order
    across fields must fall back to high-precision floats themselves.
    """
    x = x if isinstance(x, Surd) else Surd.from_rational(x)
    return x.compare(y)


def _as_mpf(v):
    """mpf value of a Surd, Fraction, int, float or mpf at the current precision."""
    if isinstance(v, Surd):
        return v.to_mpf()
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients of a quadratic irrational: preperiod then repeating period."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        for i, a in enumerate(self.preperiod):
            if i >= 1 and a < 1:
                raise ValueError(f"partial quotient a_{i} = {a} < 1")
        for a in self.period:
            if a < 1:
                raise ValueError(f"periodic partial quotient {a} < 1")

    def quotient(self, i: int) -> int:
        """a_i, indexing through the preperiod and then cyclically."""
        if i < len(self.preperiod):
            return self.preperiod[i]
        if not self.period:
            raise ValueError("rational input: finite expansion exhausted")
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def __str__(self):
        pre = ", ".join(str(a) for a in self.preperiod)
        per = ", ".join(str(a) for a in self.period)
        return f"[{pre}; ({per})]"


@dataclass(frozen=True)
class Convergent:
    n: int
    p: int
    q: int

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def _require_irrational_surd(x) -> Surd:
    if isinstance(x, (int, Fraction)):
        raise ValueError("rational input: finite expansion")
    if not isinstance(x, Surd):
        raise TypeError(f"expected a Surd, got {type(x).__name__}")
    if x.is_rational:
        raise ValueError("rational input: finite expansion")
    return x


def _cf_state(x: Surd) -> tuple[int, int, int]:
    """Initial (P, Q, t) with x = (P + t*sqrt(x.d))/Q, t > 0 and Q | t*t*x.d - P**2."""
    x = _require_irrational_surd(x)
    t = abs(x.b)
    P, Q = (x.a, x.c) if x.b > 0 else (-x.a, -x.c)
    if (t * t * x.d - P * P) % Q:
        P, Q, t = P * abs(Q), Q * abs(Q), t * abs(Q)
    return P, Q, t


def _cf_states(x: Surd):
    """The continued-fraction step, written once: yields (a_n, P_n, Q_n), n = 0, 1, ...

    x_n = (P_n + sqrt(D))/Q_n is the n-th complete quotient, with D = t*t*x.d
    for the t of `_cf_state`, and a_n = floor(x_n).  The walk never ends;
    callers take what they need.
    """
    P, Q, t = _cf_state(x)
    D = t * t * x.d
    s = isqrt(D)
    while True:
        a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        yield a, P, Q
        P = a * Q - P
        Q = (D - P * P) // Q


def _cf_walk(x: Surd):
    """`_cf_states` with the convergents: yields (a_n, P_n, Q_n, p_n, q_n).

    Kept apart from the states because p_n and q_n grow linearly in size
    with n: carrying them would make the period search quadratic in the
    period length.
    """
    p, q, p_prev, q_prev = 1, 0, 0, 1  # p_{-1}/q_{-1}, p_{-2}/q_{-2}
    for a, P, Q in _cf_states(x):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield a, P, Q, p, q


def _cf_period(x: Surd) -> tuple[list, list, int]:
    """Walk to the first repeated state: (quotients, Q_n per step, start of the period).

    The expansion is periodic (Lagrange), so some state (P, Q) recurs; state 0
    is never matched, so a_0 always lands in the preperiod.
    """
    quotients: list[int] = []
    Qs: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for i, (a, P, Q) in enumerate(_cf_states(x)):
        if i >= 1:
            k = seen.get((P, Q))
            if k is not None:
                return quotients, Qs, k
            seen[(P, Q)] = i
        if i > CF_MAX_ITER:
            raise RuntimeError("continued fraction failed to cycle within the iteration cap")
        quotients.append(a)
        Qs.append(Q)


def cf_expand(x) -> ContinuedFraction:
    """Exact continued fraction of a quadratic irrational.

    The classical integer state machine on (P, Q): the expansion is periodic
    (Lagrange), and the period is found at the first repeated state.  a_0
    always lands in the preperiod, so e.g. the golden ratio comes out as
    preperiod (1,), period (1,).
    """
    quotients, _, k = _cf_period(x)
    return ContinuedFraction(tuple(quotients[:k]), tuple(quotients[k:]))


def convergents(cf: ContinuedFraction, N: int) -> list[Convergent]:
    """First N convergents p_n/q_n (n = 0 .. N-1), standard recurrence."""
    if N < 1:
        raise ValueError("need N >= 1")
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1  # p_{-1}/q_{-1}, p_{-2}/q_{-2}
    for n in range(N):
        a = cf.quotient(n)
        p, q = a * p0 + p1, a * q0 + q1
        out.append(Convergent(n, p, q))
        p0, q0, p1, q1 = p, q, p0, q0
    return out


def complete_quotient(x: Surd, n: int) -> Surd:
    """x_n = [a_n; a_{n+1}, ...], the n-th tail of the expansion (exact)."""
    _, P, Q = next(islice(_cf_states(x), n, None))
    return Surd(P, _cf_state(x)[2], Q, x.d)


def lambda_n(x: Surd, n: int) -> Surd:
    """Quality of the n-th convergent: lambda_n = q_{n-1}/q_n + x_{n+1}.

    Exact for quadratic x (the tail x_{n+1} is itself a surd in the same
    field).  Satisfies |q_n (q_n x - p_n)| * lambda_n = 1 exactly.
    """
    if n == 0:
        raise ValueError("undefined for n=0")
    if n < 0:
        raise ValueError("need n >= 1")
    steps = list(islice(_cf_walk(x), n + 2))
    q_prev, q = steps[n - 1][4], steps[n][4]
    _, P, Q, _, _ = steps[n + 1]
    return Surd(P, _cf_state(x)[2], Q, x.d) + Fraction(q_prev, q)


def periodic_value(word) -> Surd:
    """Value of the purely periodic continued fraction [w0; w1, ..., wk-1, w0, ...].

    Read off the fixed point of the product of the quotient matrices
    [[a, 1], [1, 0]]: the value is (m00 - m11 + sqrt(disc)) / (2 m10).
    """
    word = tuple(word)
    if not word or any(a < 1 for a in word):
        raise ValueError("period must be nonempty with all quotients >= 1")
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in word:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    disc = (m00 - m11) ** 2 + 4 * m01 * m10
    return Surd(m00 - m11, 1, 2 * m10, disc)


def lagrange_number_estimate(x: Surd) -> Surd:
    """The Lagrange number L(x) = limsup_n lambda_n(x), exact.

    Along the period lambda_n tends to x_{n+1} - conj(x_{n+1}) = 2 sqrt(D)/Q_{n+1}
    (the conjugate of a reduced complete quotient is minus the reciprocal of
    the reversed tail [0; a_n, a_{n-1}, ...], Galois), so L is the max of
    2 sqrt(D)/Q_n over the period's states: Perron, Die Lehre von den
    Kettenbruechen; Cusick-Flahive, The Markoff and Lagrange Spectra, ch. 1.
    Every periodic state is reduced, so Q_n > 0 and the max sits at the
    least Q_n.  With D = t*t*x.d the result is 2t sqrt(x.d)/Q_n, a surd in
    x's own field: nothing is factored.
    """
    _, Qs, k = _cf_period(x)
    return Surd(0, 2 * _cf_state(x)[2], min(Qs[k:]), x.d)


# ---------------------------------------------------------------------------
# literal syntax
# ---------------------------------------------------------------------------


class SurdParseError(ValueError):
    """Raised on malformed surd/omega literals; carries the 0-based position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"parse error at position {pos}: {message}")
        self.pos = pos


_NAMES = {"phi", "psi", "sqrt", "i"}


def _tokenize(text: str):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in "+-*/()":
            tokens.append((ch, ch, k))
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                while j < len(text) and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[k:j], k))
            k = j
            continue
        if ch.isalpha():
            j = k
            while j < len(text) and text[j].isalpha():
                j += 1
            name = text[k:j]
            if name not in _NAMES:
                raise SurdParseError(f"unknown name {name!r}", k)
            tokens.append(("name", name, k))
            k = j
            continue
        raise SurdParseError(f"unexpected character {ch!r}", k)
    tokens.append(("end", "", len(text)))
    return tokens


# complex values during parsing: pairs (re, im) of exact scalars


def _c_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _c_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _c_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _c_div(u, v, pos):
    n = v[0] * v[0] + v[1] * v[1]
    if not n:
        raise SurdParseError("division by zero", pos)
    if isinstance(n, Surd):
        inv = n.inverse()
    else:
        inv = Fraction(1) / n
    return ((u[0] * v[0] + u[1] * v[1]) * inv, (u[1] * v[0] - u[0] * v[1]) * inv)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise SurdParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise SurdParseError(f"unexpected trailing {t[1]!r}", t[2])
        return v

    def expr(self):
        v = self.term()
        while self.peek()[0] in "+-":
            op = self.next()
            w = self.term()
            v = _c_add(v, w) if op[0] == "+" else _c_sub(v, w)
        return v

    def term(self):
        v = self.unary()
        while True:
            t = self.peek()
            if t[0] == "*":
                self.next()
                v = _c_mul(v, self.unary())
            elif t[0] == "/":
                self.next()
                v = _c_div(v, self.unary(), t[2])
            elif t[0] == "name" and t[1] == "i":
                self.next()  # juxtaposition: "2i"
                v = _c_mul(v, (Fraction(0), Fraction(1)))
            else:
                return v

    def unary(self):
        neg = False
        while self.peek()[0] in "+-":
            if self.next()[0] == "-":
                neg = not neg
        v = self.atom()
        return _c_sub((Fraction(0), Fraction(0)), v) if neg else v

    def atom(self):
        t = self.next()
        if t[0] == "num":
            return (Fraction(t[1]), Fraction(0))
        if t[0] == "name":
            if t[1] == "i":
                return (Fraction(0), Fraction(1))
            if t[1] == "phi":
                return (PHI, Fraction(0))
            if t[1] == "psi":
                return (PSI, Fraction(0))
            # sqrt
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            if arg[1]:
                raise SurdParseError("sqrt of a non-real value", t[2])
            re = arg[0]
            if isinstance(re, Surd):
                if not re.is_rational:
                    raise SurdParseError("nested radicals are not supported", t[2])
                re = re.as_fraction()
            if re < 0:
                raise SurdParseError("sqrt of a negative value", t[2])
            return (Surd.sqrt_of(re), Fraction(0))
        if t[0] == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise SurdParseError(f"expected a value, found {t[1]!r}", t[2])


def parse_omega(text: str):
    """Parse a point literal like "phi + i/10" into an exact (re, im) pair.

    Components are Fractions or Surds; rationals in the input (including
    decimals like 0.3) stay exact.
    """
    re, im = _Parser(text).parse()
    if isinstance(re, Surd) and re.is_rational:
        re = re.as_fraction()
    if isinstance(im, Surd) and im.is_rational:
        im = im.as_fraction()
    return re, im


def parse_surd(text: str):
    """Parse a real surd literal; returns a Surd or a Fraction."""
    re, im = parse_omega(text)
    if im:
        raise SurdParseError("expected a real value, found an imaginary part", 0)
    return re
