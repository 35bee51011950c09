"""Averaged capacity along the geodesic: the long-run packing quality.

The pointwise minima of the profile say how bad the packing gets at its
worst moments; averaging each piece over its own interval [t_r, t_{r+1}]
says how good it is typically.  Each piece A t + B/t integrates in closed
form, giving

    avg_r = A (t_r + t_{r+1}) / 2 + B log(t_{r+1}/t_r) / (t_{r+1} - t_r),

and the limsup of avg_r over r is the averaged capacity g_x.  For the
golden ratio the limit collapses to 1/2 + (2/sqrt(5)) log(phi) ~ 0.93041,
and for the silver ratio to 1/2 + log(1+sqrt(2))/sqrt(8) ~ 0.81161; both
closed forms are reproduced here and used as oracles for the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from mpmath import mp

from .exactnum import Surd, _as_mpf, cf_expand
from .profile import ProfilePiece, build_profile

__all__ = [
    "AverageReport",
    "ClosedForm",
    "piece_average",
    "average_capacity_estimate",
    "closed_form_g",
]


class ClosedForm(NamedTuple):
    expr: str
    value: object  # mpf


def piece_average(piece: ProfilePiece, t_lo, t_hi):
    """Mean of A t + B/t over [t_lo, t_hi] (antiderivative A t^2/2 + B log t)."""
    lo, hi = _as_mpf(t_lo), _as_mpf(t_hi)
    if not lo < hi:
        raise ValueError("need t_lo < t_hi")
    A, B = _as_mpf(piece.A), mp.mpf(piece.B)
    return A * (hi + lo) / 2 + B * mp.log(hi / lo) / (hi - lo)


@dataclass(frozen=True)
class AverageReport:
    """Per-piece averages of the profile of x, and the limsup estimate.

    The averages settle into an asymptotically periodic pattern (period =
    CF period of x), so the limsup is estimated as the max over the tail
    window [depth//2, depth); `tail_spread` is the max-min spread over that
    window — a convergence diagnostic, small when the estimate is trustworthy.
    """

    x: Surd
    depth: int
    averages: tuple
    limsup_estimate: object  # mpf
    tail_window: tuple
    tail_spread: object  # mpf
    closed_form: Optional[ClosedForm]

    def delta_to_closed_form(self):
        if self.closed_form is None:
            return None
        return abs(self.limsup_estimate - self.closed_form.value)


def closed_form_g(which: str) -> ClosedForm:
    """Known closed forms of g_x: 'phi' and 'psi' (golden and silver ratios)."""
    if which == "phi":
        phi = (1 + mp.sqrt(5)) / 2
        return ClosedForm("1/2 + (2/sqrt(5))*log(phi)", mp.mpf(1) / 2 + 2 / mp.sqrt(5) * mp.log(phi))
    if which == "psi":
        psi = 1 + mp.sqrt(2)
        return ClosedForm("1/2 + log(1+sqrt(2))/sqrt(8)", mp.mpf(1) / 2 + mp.log(psi) / mp.sqrt(8))
    raise ValueError("closed form known only for 'phi' and 'psi'")


def _detect_closed_form(x: Surd) -> Optional[ClosedForm]:
    period = cf_expand(x).period
    if set(period) == {1}:
        return closed_form_g("phi")
    if set(period) == {2}:
        return closed_form_g("psi")
    return None


def average_capacity_estimate(x: Surd, depth: int) -> AverageReport:
    """Averages of the first `depth` pieces and the tail-window limsup."""
    if depth < 4:
        raise ValueError("need depth >= 4")
    profile = build_profile(x, depth + 1)
    ts = [mp.sqrt(_as_mpf(profile.pieces[0].sq_start))]
    for piece in profile.pieces:
        ts.append(mp.sqrt(_as_mpf(piece.sq_end)))
    averages = tuple(
        piece_average(piece, ts[r], ts[r + 1]) for r, piece in enumerate(profile.pieces[:depth])
    )
    window = (depth // 2, depth)
    tail = averages[window[0] : window[1]]
    return AverageReport(
        x=x,
        depth=depth,
        averages=averages,
        limsup_estimate=max(tail),
        tail_window=window,
        tail_spread=max(tail) - min(tail),
        closed_form=_detect_closed_form(x),
    )
