"""The upper half-plane, the modular group, and the growth capacity.

A planar lattice Z + Z*omega (omega = x + iy, y > 0) models a cylindrical
bud arrangement with horizontal period 1; its packing quality is measured by

    f(omega) = d(omega)^2 / Im(omega),

where d is the length of a shortest nonzero lattice vector.  f is invariant
under the modular group PSL2(Z) acting by Mobius maps, and on the standard
fundamental domain D0 = {|Re| <= 1/2, |omega| >= 1} the shortest vector is
simply 1, so f reduces to 1/Im there.  That gives two independent ways to
evaluate f — reduce to D0, or run a two-dimensional Lagrange–Gauss lattice
reduction — and the test suite plays them against each other.

Scalars come in two tiers.  If both coordinates are exact (int, Fraction,
or Surd in a single quadratic field), every decision here — floor, swap,
boundary — is made exactly and f itself is returned as an exact number.
Any float/mpf input drops the point to the mpmath tier at the current
working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .exactnum import Surd, _as_mpf

__all__ = [
    "ModularMatrix",
    "UpperHalfPoint",
    "TangentCircle",
    "mobius_apply",
    "reduce_to_fundamental",
    "shortest_vector_sq",
    "growth_capacity",
    "growth_capacity_direct",
    "tangent_circle",
]

_REDUCE_MAX_ITER = 10**5
_GAUSS_MAX_ITER = 10**4

_EXACT_TYPES = (int, Fraction, Surd)


class ModularMatrix:
    """An element of PSL2(Z): integer matrix [[a, b], [c, d]], det 1, g == -g.

    The sign is canonicalized so the first nonzero entry of (c, d) is
    positive, making equality and hashing well defined on the quotient.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        if c < 0 or (c == 0 and d < 0):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("ModularMatrix is immutable")

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        if not isinstance(other, ModularMatrix):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"ModularMatrix([[{self.a}, {self.b}], [{self.c}, {self.d}]])"

    def cusp(self):
        """Image of the cusp at infinity: a/c as a Fraction, or None for infinity."""
        if self.c == 0:
            return None
        return Fraction(self.a, self.c)

    @staticmethod
    def identity() -> "ModularMatrix":
        return ModularMatrix(1, 0, 0, 1)

    @staticmethod
    def T(n: int = 1) -> "ModularMatrix":
        """Translation omega -> omega + n."""
        return ModularMatrix(1, n, 0, 1)

    @staticmethod
    def S() -> "ModularMatrix":
        """Inversion omega -> -1/omega."""
        return ModularMatrix(0, -1, 1, 0)


def _is_exact(v) -> bool:
    return isinstance(v, _EXACT_TYPES)


def _nearest_int(v) -> int:
    """floor(v + 1/2), exact per scalar tier."""
    if isinstance(v, Surd):
        return (v + Fraction(1, 2)).floor()
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return (2 * f.numerator + f.denominator) // (2 * f.denominator)
    return int(mp.floor(v + mp.mpf(1) / 2))


def _sign_of(v) -> int:
    if isinstance(v, Surd):
        return v.sign()
    if isinstance(v, (int, Fraction)):
        return (v > 0) - (v < 0)
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point omega = x + iy with y > 0, in the exact or the float tier."""

    x: object
    y: object

    def __post_init__(self):
        x, y = self.x, self.y
        if not (_is_exact(x) and _is_exact(y)):
            object.__setattr__(self, "x", _as_mpf(x))
            object.__setattr__(self, "y", _as_mpf(y))
        if _sign_of(self.y) <= 0:
            raise ValueError("point must lie in the upper half-plane (y > 0)")

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.x)

    def to_mpf_pair(self):
        return _as_mpf(self.x), _as_mpf(self.y)

    def __repr__(self):
        return f"UpperHalfPoint({self.x!r}, {self.y!r})"


@dataclass(frozen=True)
class TangentCircle:
    """A horocycle: circle tangent to the real axis at `cusp` with `diameter`."""

    cusp: Fraction
    diameter: object


def mobius_apply(g: ModularMatrix, w):
    """Apply g to a point of the closed upper half-plane.

    `w` may be an UpperHalfPoint (interior), a Fraction/int (boundary real),
    or None (the cusp at infinity).  Boundary conventions: g.infinity = a/c
    (None when c = 0) and g.(-d/c) = infinity.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    if w is None:
        return None if c == 0 else Fraction(a, c)
    if isinstance(w, (int, Fraction)):
        r = Fraction(w)
        if c != 0 and r == Fraction(-d, c):
            return None
        return Fraction(a * r + b, c * r + d)
    x, y = w.x, w.y
    cx_d = c * x + d
    den = cx_d * cx_d + (c * c) * (y * y)
    re = ((a * x + b) * cx_d + (a * c) * (y * y)) / den
    im = y / den
    return UpperHalfPoint(re, im)


def reduce_to_fundamental(w: UpperHalfPoint):
    """Reduce w into the fundamental domain; returns (g, w0) with w = g.w0.

    Alternates integer translations (re -> re - round(re)) with inversions
    while |w0| < 1; each inversion strictly increases the imaginary part, so
    the loop terminates.  Boundary convention: Re(w0) in [-1/2, 1/2), and on
    the unit circle Re(w0) >= 0 (one extra inversion flips the sign there,
    which may land the corner point on Re = +1/2).
    """
    x, y = w.x, w.y
    g = ModularMatrix.identity()
    for _ in range(_REDUCE_MAX_ITER):
        n = _nearest_int(x)
        if n:
            x = x - n
            g = g @ ModularMatrix.T(n)
        norm = x * x + y * y
        if norm < 1:
            x, y = -x / norm, y / norm
            g = g @ ModularMatrix.S()
        else:
            break
    else:
        raise RuntimeError("fundamental-domain reduction did not terminate")
    if norm == 1 and _sign_of(x) < 0:
        x = -x
        g = g @ ModularMatrix.S()
    return g, UpperHalfPoint(x, y)


def _Q(u, x, y2):
    """Squared length of u1 + u2*omega for the quadratic form of Z + Z*omega."""
    t = u[0] + u[1] * x
    return t * t + (u[1] * u[1]) * y2


def _B(u, v, x, y2):
    """Polarization of _Q: the inner product of two lattice vectors."""
    return (u[0] + u[1] * x) * (v[0] + v[1] * x) + (u[1] * v[1]) * y2


def shortest_vector_sq(w: UpperHalfPoint):
    """Exact squared length of a shortest nonzero vector of Z + Z*omega.

    Two-dimensional Lagrange–Gauss reduction of the basis {1, omega}; returns
    (d_squared, (alpha, beta)) with the witness attaining the minimum.  In the
    exact tier d_squared is an exact scalar.
    """
    x, y = w.x, w.y
    y2 = y * y
    u, v = (1, 0), (0, 1)
    qu, qv = _Q(u, x, y2), _Q(v, x, y2)
    if qu > qv:
        u, v, qu, qv = v, u, qv, qu
    for _ in range(_GAUSS_MAX_ITER):
        m = _nearest_int(_B(u, v, x, y2) / qu)
        if m == 0:
            break
        v = (v[0] - m * u[0], v[1] - m * u[1])
        qv = _Q(v, x, y2)
        if qv < qu:
            u, v, qu, qv = v, u, qv, qu
    else:
        raise RuntimeError("lattice reduction did not terminate")
    return qu, u


def growth_capacity(w: UpperHalfPoint):
    """f(omega) = d(omega)^2 / Im(omega).

    Evaluated by reduction: f is modular-invariant and equals 1/Im on the
    fundamental domain.  Exact-tier inputs give an exact scalar result.
    The independent lattice-reduction path is `growth_capacity_direct`.
    """
    _, w0 = reduce_to_fundamental(w)
    y0 = w0.y
    if isinstance(y0, Surd):
        return y0.inverse()
    if isinstance(y0, (int, Fraction)):
        return Fraction(1) / y0
    return 1 / y0


def growth_capacity_direct(w: UpperHalfPoint):
    """f(omega) via the shortest lattice vector (oracle path): d^2/y."""
    qu, _ = shortest_vector_sq(w)
    return qu / w.y


def tangent_circle(w: UpperHalfPoint) -> TangentCircle:
    """The horocycle through w touching the real axis at the reduced cusp.

    The reducing matrix g sends infinity to a rational cusp p/q (unless w
    sits in a horizontal translate of the fundamental domain, in which case
    the cusp is infinity and there is no tangent circle); the circle tangent
    at p/q through w has diameter f(w)/q^2.
    """
    g, w0 = reduce_to_fundamental(w)
    if g.c == 0:
        raise ValueError("cusp at infinity")
    f = growth_capacity(w)
    qsq = g.c * g.c
    if isinstance(f, Surd):
        diameter = f / qsq
    elif isinstance(f, (int, Fraction)):
        diameter = Fraction(f, qsq)
    else:
        diameter = f / qsq
    return TangentCircle(Fraction(g.a, g.c), diameter)
