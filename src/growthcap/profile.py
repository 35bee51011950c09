"""The capacity profile along a vertical geodesic, and Hermite convergents.

Fix an irrational x and slide down the vertical line omega = x + i/t.  The
capacity f(x + i/t) is a piecewise-smooth function of t: each piece is

    f_r(t) = A_r * t + B_r / t,   A_r = (q_r x - p_r)^2,  B_r = q_r^2,

contributed by one rational p_r/q_r — and the rationals that actually appear
are exactly the *Hermite convergents* of x, the subsequence of classical
convergents p/q with |x - p/q| <= 1/(sqrt(3) q^2).  Membership is decided by
Humbert's inequality: with u = eps*q*(p - qx) > 0 and q' the unique solution
of p*q' == eps (mod q) in [0, q),

    p/q is Hermite  <=>  2*u*(q^2 + q*q' + q'^2) < q*(q + 2*q'),

evaluated exactly in the quadratic field (some rejections are decided by a
margin near 1e-6, far too tight for floats).

An independent check traverses the geodesic through the fundamental-domain
tiling: each tile the line crosses names a cusp p/q, and the ordered list of
distinct finite cusps must reproduce the Hermite sequence.  The traversal
refines its sample grid until consecutive samples land in tiles that share
an edge (tile adjacency is g -> g*T, g*T^-1, g*S), which provably cannot
skip a tile: no two distinct neighbors of a tile are themselves adjacent,
the dual graph has no cycles shorter than the hexagons around the order-3
corners, and a geodesic cannot wrap 240 degrees around such a corner.

The minima of the pieces are fmin_r = 2*q_r*|q_r x - p_r| = 2/lambda_n(x),
so their asymptotic floor is 2/L(x) with L the Lagrange number — the link
that makes the golden ratio the best possible divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from mpmath import mp

from .exactnum import (
    Surd,
    _as_mpf,
    _cf_walk,
    _require_irrational_surd,
    lagrange_number_estimate,
)
from .halfplane import ModularMatrix, UpperHalfPoint, reduce_to_fundamental

__all__ = [
    "HermiteConvergent",
    "ProfilePiece",
    "CapacityProfile",
    "humbert_is_hermite",
    "hermite_convergents",
    "hermite_oracle_geodesic",
    "build_profile",
    "local_minima",
    "sup_of_minima",
]

_ADJACENT_STEPS = (ModularMatrix.T(1), ModularMatrix.T(-1), ModularMatrix.S())
_MAX_SPLIT_DEPTH = 80


@dataclass(frozen=True)
class HermiteConvergent:
    """A classical convergent that passed the Humbert test."""

    n: int  # index in the classical convergent sequence
    p: int
    q: int
    hermite_rank: int  # index within the Hermite subsequence

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def humbert_is_hermite(x: Surd, p: int, q: int) -> bool:
    """Exact Humbert criterion for |x - p/q| <= 1/(sqrt(3) q^2)."""
    x = _require_irrational_surd(x)
    if q < 1:
        raise ValueError("need q >= 1")
    if gcd(p, q) != 1:
        raise ValueError("fraction not irreducible")
    diff = p - q * x
    eps = diff.sign()
    u = (q * eps) * diff
    qp = (eps * pow(p, -1, q)) % q if q > 1 else 0
    return u * (2 * (q * q + q * qp + qp * qp)) < q * (q + 2 * qp)


def _hermite_stream(x: Surd, steps):
    """Hermite convergents among the CF walk `steps` of x, lazily, in order.

    Each classical convergent goes through the Humbert test exactly once.
    An endless walk never runs dry: of two consecutive convergents one has
    |x - p/q| < 1/(2 q^2) < 1/(sqrt(3) q^2) (Legendre, Vahlen).
    """
    rank = 0
    for n, (_, _, _, p, q) in enumerate(steps):
        if humbert_is_hermite(x, p, q):
            yield HermiteConvergent(n, p, q, rank)
            rank += 1


def hermite_convergents(x: Surd, N: int) -> list[HermiteConvergent]:
    """Filter the first N classical convergents through the Humbert test."""
    x = _require_irrational_surd(x)
    if N < 1:
        raise ValueError("need N >= 1")
    return list(_hermite_stream(x, islice(_cf_walk(x), N)))


# ---------------------------------------------------------------------------
# geodesic traversal oracle
# ---------------------------------------------------------------------------


def _tile(x: Surd, t: Fraction, cache: dict) -> ModularMatrix:
    g = cache.get(t)
    if g is None:
        g, _ = reduce_to_fundamental(UpperHalfPoint(x, Fraction(t.denominator, t.numerator)))
        cache[t] = g
    return g


def _adjacent(glo: ModularMatrix, ghi: ModularMatrix) -> bool:
    return (glo.inverse() @ ghi) in _ADJACENT_STEPS


def _walk(x, lo, glo, hi, ghi, out, cache, depth):
    """Append, in order, the tiles entered on the geodesic segment (lo, hi]."""
    if glo == ghi:
        return
    if _adjacent(glo, ghi):
        out.append(ghi)
        return
    if depth >= _MAX_SPLIT_DEPTH:
        raise RuntimeError("geodesic refinement failed to separate tiles")
    mid = (lo + hi) / 2
    gm = _tile(x, mid, cache)
    _walk(x, lo, glo, mid, gm, out, cache, depth + 1)
    _walk(x, mid, gm, hi, ghi, out, cache, depth + 1)


def hermite_oracle_geodesic(x: Surd, t_max) -> list[Fraction]:
    """Ordered distinct finite cusps of the tiles crossed by t -> x + i/t.

    Walks t from 1/2 up to t_max on a doubling grid, refining between
    samples until consecutive tiles coincide or share an edge; collects each
    tile's cusp and drops the leading run at infinity.  This is the
    geometric definition of the Hermite convergents, computed without any
    continued-fraction machinery, and serves as the independent oracle for
    `hermite_convergents`.
    """
    x = _require_irrational_surd(x)
    t_max = Fraction(t_max)
    if t_max <= 1:
        raise ValueError("need t_max > 1")
    ts = [Fraction(1, 2)]
    v = Fraction(1)
    while v < t_max:
        ts.append(v)
        v *= 2
    ts.append(t_max)

    cache: dict = {}
    tiles = [_tile(x, ts[0], cache)]
    for lo, hi in zip(ts, ts[1:]):
        _walk(x, lo, _tile(x, lo, cache), hi, _tile(x, hi, cache), tiles, cache, 0)

    cusps: list[Fraction] = []
    seen = set()
    for g in tiles:
        c = g.cusp()
        if cusps and cusps[-1] == c or (c is None and not cusps):
            continue
        if c is None:
            raise RuntimeError("geodesic re-entered the cusp at infinity")
        if c in seen:
            raise RuntimeError(f"geodesic revisited cusp {c}")
        seen.add(c)
        cusps.append(c)
    return cusps


# ---------------------------------------------------------------------------
# the piecewise profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePiece:
    """One piece f(t) = A*t + B/t of the capacity profile.

    Valid on [sqrt(sq_start), sqrt(sq_end)); the breakpoints are kept as
    exact squares so that interval decisions stay in integer arithmetic.
    """

    hermite_rank: int
    n: int  # classical convergent index
    p: int
    q: int
    A: Surd
    B: int
    sq_start: object
    sq_end: object

    def value_at(self, t):
        """f(t) on this piece; exact for Fraction t, mpf otherwise."""
        if isinstance(t, (int, Fraction)):
            return self.A * Fraction(t) + Fraction(self.B) / Fraction(t)
        t = mp.mpf(t)
        return self.A.to_mpf() * t + mp.mpf(self.B) / t


@dataclass(frozen=True)
class CapacityProfile:
    """Piecewise description of t -> f(x + i/t) on (0, sqrt(last breakpoint))."""

    x: Surd
    pieces: tuple

    @property
    def sky_sq(self):
        """Square of the t below which the geodesic is still above the tiling
        (cusp at infinity) and the profile is simply f = t."""
        return self.pieces[0].sq_start

    def piece_for(self, t):
        """The piece covering t, or None in the sky region t <= t_entry."""
        if isinstance(t, (int, Fraction)):
            tsq = Fraction(t) ** 2
            exact = True
        else:
            tsq = mp.mpf(t) ** 2
            exact = False
        if (tsq <= self.sky_sq) if exact else (tsq <= _as_mpf(self.sky_sq)):
            return None
        lo, hi = 0, len(self.pieces) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            start = self.pieces[mid].sq_start
            if (tsq >= start) if exact else (tsq >= _as_mpf(start)):
                lo = mid
            else:
                hi = mid - 1
        piece = self.pieces[lo]
        end = piece.sq_end
        if (tsq >= end) if exact else (tsq >= _as_mpf(end)):
            raise ValueError("t beyond the computed profile; rebuild with larger N")
        return piece

    def evaluate(self, t):
        """f(x + i/t): exact scalar for exact t, mpf for float t."""
        if isinstance(t, (int, Fraction)):
            t = Fraction(t)
            if t <= 0:
                raise ValueError("need t > 0")
            piece = self.piece_for(t)
            return t if piece is None else piece.value_at(t)
        t = mp.mpf(t)
        if t <= 0:
            raise ValueError("need t > 0")
        piece = self.piece_for(t)
        return t if piece is None else piece.value_at(t)

    def breakpoints(self):
        """Exact squared breakpoints t_r^2, r = 1 .. N-1 (piece r entry)."""
        return [p.sq_start for p in self.pieces[1:]]

    def minima(self):
        """Exact (t0, fmin) per piece — see `local_minima`."""
        return local_minima(self)


def _profile_pieces(x: Surd):
    """The pieces of the profile of x, lazily and in order.

    Piece r comes out once Hermite convergent r+1 is known, since its end is
    the next piece's entry.  Breakpoints are the exact squares
    (B_r - B_{r-1}) / (A_{r-1} - A_r); the entry point of piece 0 solves
    A_0 t + B_0/t = t against the sky piece f = t, i.e. t^2 = B_0 / (1 - A_0).
    Consecutive convergents are checked to be unimodular and the squares to
    increase strictly, pair by pair.
    """
    x = _require_irrational_surd(x)
    hs = _hermite_stream(x, _cf_walk(x))
    h = next(hs)
    e = h.q * x - h.p
    A, B = e * e, h.q * h.q
    sq = B / (1 - A)
    for h1 in hs:
        if abs(h1.p * h.q - h.p * h1.q) != 1:
            raise RuntimeError("consecutive Hermite convergents are not unimodular")
        e = h1.q * x - h1.p
        A1, B1 = e * e, h1.q * h1.q
        sq1 = (B1 - B) / (A - A1)
        if not sq < sq1:
            raise RuntimeError("profile breakpoints are not strictly increasing")
        yield ProfilePiece(h.hermite_rank, h.n, h.p, h.q, A, B, sq, sq1)
        h, A, B, sq = h1, A1, B1, sq1


def build_profile(x: Surd, N: int) -> CapacityProfile:
    """Profile from the first N Hermite convergents (breakpoints need N+1).

    Pieces join continuously and their breakpoints increase strictly, both
    checked exactly during construction (see `_profile_pieces`).
    """
    x = _require_irrational_surd(x)
    if N < 2:
        raise ValueError("need N >= 2 pieces (breakpoints require consecutive pairs)")
    return CapacityProfile(x=x, pieces=tuple(islice(_profile_pieces(x), N)))


def local_minima(profile: CapacityProfile) -> list[tuple[Surd, Surd]]:
    """Exact vertex (t0, fmin) of every piece: t0 = q/|qx-p|, fmin = 2q|qx-p|.

    fmin equals 2/lambda_n(x) for the piece's convergent, which is what ties
    the profile to the Lagrange number.  t0 lies inside the piece's own
    interval once the transient first pieces are past.
    """
    out = []
    x = profile.x
    for piece in profile.pieces:
        e = abs(piece.q * x - piece.p)
        out.append((piece.q / e, (2 * piece.q) * e))
    return out


def sup_of_minima(x: Surd) -> Surd:
    """The stabilized floor of the Hermite piece minima: exactly 2/L(x).

    The minima 2/lambda_n(x) settle into a limit cycle; their asymptotic
    supremum — the quantity that is 2/sqrt(5) for the golden ratio and at
    most 2/sqrt(8) for everything not equivalent to it — is 2 over the
    Lagrange number, returned here as an exact surd.  Early pieces can sit
    above this floor (for the golden ratio the 3/2 piece bottoms out at
    4/phi^3 ~ 0.944), which is why the transient must be discarded rather
    than maximized over.
    """
    x = _require_irrational_surd(x)
    return 2 * lagrange_number_estimate(x).inverse()
