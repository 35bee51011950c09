"""Command-line front end.

Eight subcommands around the library: point capacities, piecewise profiles,
packing-density checks, lattice strip renderings, Hermite convergent lists,
averaged capacities, the Lagrange spectrum, and Markoff numbers.  Data goes
to stdout (or --out), diagnostics to stderr; exit code 0 means no error.

Output formats: human text by default, --format json everywhere, csv for the
tabular commands, svg for profile and render-lattice.  All emission is
deterministic for fixed (inputs, config, seed) — floats are serialized with
repr, which round-trips exactly, and SVG coordinates use a fixed format.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from mpmath import mp

from .average import average_capacity_estimate, closed_form_g
from .exactnum import (
    Surd,
    _as_mpf,
    lagrange_number_estimate,
    parse_omega,
    parse_surd,
)
from .halfplane import (
    UpperHalfPoint,
    growth_capacity,
    reduce_to_fundamental,
    shortest_vector_sq,
    tangent_circle,
)
from .markoff import lagrange_spectrum, markoff_numbers
from .profile import CapacityProfile, _profile_pieces, hermite_convergents, local_minima

__all__ = ["RunConfig", "PackingReport", "main"]

DEFAULT_PRECISION_BITS = 426  # about 128 decimal digits
PRECISION_ENV = "GROWTH_CAPACITY_PRECISION"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_SQRT5_GUIDE = Surd(0, 1, 1, 5)


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs shared by the subcommands."""

    precision: int = DEFAULT_PRECISION_BITS
    depth: int = 40
    t_max: float = 50.0
    fmt: str = "text"
    out: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if self.precision < 64:
            raise ValueError("precision must be at least 64 bits")
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
        if not (math.isfinite(self.t_max) and self.t_max > 0.5):
            raise ValueError(f"t-max must be a finite number above 1/2, got {self.t_max}")


@dataclass(frozen=True)
class PackingReport:
    """Analytic vs Monte-Carlo disk-packing density at one growth scheme."""

    x: str
    y: str
    analytic_density: float
    empirical_density: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "analytic_density": self.analytic_density,
            "empirical_density": self.empirical_density,
            "samples": self.samples,
        }


# -- serialization helpers ---------------------------------------------------


def _scalar_json(v) -> dict:
    """Exact scalar as {'literal': canonical-string-or-None, 'value': float}."""
    if isinstance(v, Surd):
        return {"literal": v.literal(), "value": float(v)}
    if isinstance(v, Fraction):
        return {"literal": f"{v.numerator}/{v.denominator}", "value": float(v)}
    if isinstance(v, int):
        return {"literal": str(v), "value": float(v)}
    return {"literal": None, "value": float(v)}


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = ["# schema=v1", ",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _fnum(v) -> str:
    """Float cell for CSV: repr round-trips exactly and is deterministic."""
    return repr(float(v))


def _svg_num(v) -> str:
    s = f"{float(v):.10g}"
    return "0" if s == "-0" else s


# -- capacity ----------------------------------------------------------------


def cmd_capacity(args, cfg: RunConfig) -> int:
    re_part, im_part = parse_omega(args.omega)
    w = UpperHalfPoint(re_part, im_part)
    f = growth_capacity(w)
    g, w0 = reduce_to_fundamental(w)
    try:
        circle = tangent_circle(w)
    except ValueError:
        circle = None

    if cfg.fmt == "json":
        obj = {
            "command": "capacity",
            "omega": {"re": _scalar_json(w.x), "im": _scalar_json(w.y)},
            "f": _scalar_json(f),
            "reducing_matrix": {"a": g.a, "b": g.b, "c": g.c, "d": g.d},
            "reduced_point": {"re": _scalar_json(w0.x), "im": _scalar_json(w0.y)},
            "tangent_circle": None
            if circle is None
            else {
                "cusp": f"{circle.cusp.numerator}/{circle.cusp.denominator}",
                "diameter": _scalar_json(circle.diameter),
            },
        }
        _emit(_json_text(obj), cfg)
        return 0

    lines = [f"f(omega) = {_pretty_scalar(f)}"]
    lines.append(f"reducing matrix g = [[{g.a}, {g.b}], [{g.c}, {g.d}]]  (omega = g * w0)")
    lines.append(f"reduced point w0 = {_pretty_point(w0)}")
    if circle is None:
        lines.append("tangent circle: none (cusp at infinity)")
    else:
        lines.append(
            f"tangent circle: cusp {circle.cusp}, diameter {_pretty_scalar(circle.diameter)}"
        )
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def _pretty_scalar(v) -> str:
    if isinstance(v, int):
        return str(v)
    value = mp.nstr(_as_mpf(v), 17)
    if isinstance(v, Surd):
        return f"{v.literal()} = {value}"
    if isinstance(v, Fraction):
        return f"{v} = {value}"
    return value


def _pretty_point(w: UpperHalfPoint) -> str:
    return f"({_pretty_scalar(w.x)}) + ({_pretty_scalar(w.y)}) i"


# -- profile -----------------------------------------------------------------


def _profile_for_range(x: Surd, t_max: float):
    """Profile with 8, 16, 32, ... pieces, the first whose last breakpoint clears t_max.

    One lazy piece stream is extended; nothing is rebuilt.
    """
    target = mp.mpf(t_max) ** 2
    stream = _profile_pieces(x)
    pieces = []
    n = 8
    while True:
        pieces.extend(islice(stream, n - len(pieces)))
        if _as_mpf(pieces[-1].sq_end) >= target:
            return CapacityProfile(x=x, pieces=tuple(pieces))
        if n > 400:
            raise ValueError("t-max too large: profile would need over 400 pieces")
        n *= 2


def _profile_rows(x: Surd, t_max: float, samples_per_piece: int = 16):
    """(t, f, piece_index, p, q, kind) rows: sky, samples, breakpoints, minima."""
    prof = _profile_for_range(x, t_max)
    rows = []
    t_entry = mp.sqrt(_as_mpf(prof.pieces[0].sq_start))
    t_lo = mp.mpf("0.5")

    def log_grid(a, b, k):
        if not a < b:
            return []
        la, lb = mp.log(a), mp.log(b)
        return [mp.e ** (la + (lb - la) * i / (k - 1)) for i in range(k)]

    for t in log_grid(t_lo, min(t_entry, mp.mpf(t_max)), 8):
        rows.append((t, t, None, None, None, "sky"))
    mins = local_minima(prof)
    for piece, (t0, fmin) in zip(prof.pieces, mins):
        start = mp.sqrt(_as_mpf(piece.sq_start))
        end = mp.sqrt(_as_mpf(piece.sq_end))
        if start > t_max:
            break
        end = min(end, mp.mpf(t_max))
        rows.append((start, piece.value_at(start), piece.hermite_rank, piece.p, piece.q, "breakpoint"))
        for t in log_grid(start, end, samples_per_piece):
            rows.append((t, piece.value_at(t), piece.hermite_rank, piece.p, piece.q, "sample"))
        t0f = t0.to_mpf()
        if start <= t0f <= end:
            rows.append((t0f, fmin.to_mpf(), piece.hermite_rank, piece.p, piece.q, "minimum"))
    return prof, rows


def cmd_profile(args, cfg: RunConfig) -> int:
    xs = [parse_surd(s) for s in args.x]
    if cfg.fmt == "csv":
        if len(xs) != 1:
            raise ValueError("csv profile output supports exactly one --x")
        _, rows = _profile_rows(xs[0], cfg.t_max)
        csv_rows = [
            [_fnum(t), _fnum(f), idx, p, q, kind] for (t, f, idx, p, q, kind) in rows
        ]
        _emit(_csv_text(["t", "f", "piece_index", "p", "q", "kind"], csv_rows), cfg)
        return 0
    if cfg.fmt == "json":
        profiles = []
        for x in xs:
            prof, rows = _profile_rows(x, cfg.t_max)
            pieces = []
            for piece, (t0, fmin) in zip(prof.pieces, local_minima(prof)):
                pieces.append(
                    {
                        "rank": piece.hermite_rank,
                        "n": piece.n,
                        "p": piece.p,
                        "q": piece.q,
                        "A": _scalar_json(piece.A),
                        "B": piece.B,
                        "t_start": float(mp.sqrt(_as_mpf(piece.sq_start))),
                        "t_end": float(mp.sqrt(_as_mpf(piece.sq_end))),
                        "min_t": _scalar_json(t0),
                        "min_f": _scalar_json(fmin),
                    }
                )
            profiles.append({"x": x.literal(), "pieces": pieces})
        _emit(_json_text({"command": "profile", "t_max": cfg.t_max, "profiles": profiles}), cfg)
        return 0
    if cfg.fmt == "svg":
        _emit(_profile_svg(xs, cfg.t_max), cfg)
        return 0
    # text: per-piece table
    lines = []
    for x in xs:
        prof, _ = _profile_rows(x, cfg.t_max)
        lines.append(f"profile of x = {x.literal()} up to t = {cfg.t_max}")
        for piece, (t0, fmin) in zip(prof.pieces, local_minima(prof)):
            start = mp.sqrt(_as_mpf(piece.sq_start))
            if start > cfg.t_max:
                break
            lines.append(
                f"  piece {piece.hermite_rank}: {piece.p}/{piece.q}"
                f"  t in [{mp.nstr(start, 8)}, {mp.nstr(mp.sqrt(_as_mpf(piece.sq_end)), 8)})"
                f"  min f = {mp.nstr(fmin.to_mpf(), 12)} at t = {mp.nstr(t0.to_mpf(), 8)}"
            )
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def _profile_svg(xs: list[Surd], t_max: float) -> str:
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 60.0, 20.0, 20.0, 45.0
    t_lo = 0.5
    y_top = 1.25

    def px(t):
        lt = math.log(t)
        return ml + (lt - math.log(t_lo)) / (math.log(t_max) - math.log(t_lo)) * (width - ml - mr)

    def py(f):
        return height - mb - f / y_top * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_svg_num(width)}" '
        f'height="{_svg_num(height)}" viewBox="0 0 {_svg_num(width)} {_svg_num(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    # axes
    parts.append(
        f'<line x1="{_svg_num(ml)}" y1="{_svg_num(height - mb)}" x2="{_svg_num(width - mr)}" '
        f'y2="{_svg_num(height - mb)}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_svg_num(ml)}" y1="{_svg_num(mt)}" x2="{_svg_num(ml)}" '
        f'y2="{_svg_num(height - mb)}" stroke="black" stroke-width="1"/>'
    )
    tick = 1.0
    while tick <= t_max:
        if tick >= t_lo:
            parts.append(
                f'<line x1="{_svg_num(px(tick))}" y1="{_svg_num(height - mb)}" '
                f'x2="{_svg_num(px(tick))}" y2="{_svg_num(height - mb + 5)}" stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_svg_num(px(tick))}" y="{_svg_num(height - mb + 18)}" '
                f'font-size="11" text-anchor="middle">{_svg_num(tick)}</text>'
            )
        tick *= 10.0
    fy = 0.0
    while fy <= y_top + 1e-9:
        parts.append(
            f'<line x1="{_svg_num(ml - 5)}" y1="{_svg_num(py(fy))}" x2="{_svg_num(ml)}" '
            f'y2="{_svg_num(py(fy))}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_svg_num(ml - 9)}" y="{_svg_num(py(fy) + 4)}" '
            f'font-size="11" text-anchor="end">{_svg_num(fy)}</text>'
        )
        fy += 0.25
    parts.append(
        f'<text x="{_svg_num((ml + width - mr) / 2)}" y="{_svg_num(height - 8)}" '
        f'font-size="12" text-anchor="middle">t (log scale)</text>'
    )

    # dashed guide at the golden floor when one of the curves is phi-class
    if any(lagrange_number_estimate(x) == _SQRT5_GUIDE for x in xs):
        gf = 2 / math.sqrt(5)
        parts.append(
            f'<line x1="{_svg_num(ml)}" y1="{_svg_num(py(gf))}" x2="{_svg_num(width - mr)}" '
            f'y2="{_svg_num(py(gf))}" stroke="#999999" stroke-width="1" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{_svg_num(width - mr - 4)}" y="{_svg_num(py(gf) - 5)}" '
            f'font-size="11" text-anchor="end" fill="#666666">2/sqrt(5)</text>'
        )

    for i, x in enumerate(xs):
        color = _PALETTE[i % len(_PALETTE)]
        _, rows = _profile_rows(x, t_max, samples_per_piece=24)
        pts = [(float(t), float(f)) for (t, f, _, _, _, kind) in rows if kind in ("sky", "sample")]
        pts.sort()
        path = " ".join(
            f"{'M' if j == 0 else 'L'}{_svg_num(px(t))},{_svg_num(py(min(f, y_top)))}"
            for j, (t, f) in enumerate(pts)
            if t_lo <= t <= t_max
        )
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for t, f, _, _, _, kind in rows:
            if kind == "minimum" and t_lo <= float(t) <= t_max:
                parts.append(
                    f'<circle cx="{_svg_num(px(float(t)))}" cy="{_svg_num(py(float(f)))}" '
                    f'r="3" fill="{color}"/>'
                )
        parts.append(
            f'<text x="{_svg_num(width - mr - 4)}" y="{_svg_num(mt + 14 + 16 * i)}" '
            f'font-size="12" text-anchor="end" fill="{color}">x = {x.literal()}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- packing -----------------------------------------------------------------


def _nearest_dist_sq(u: float, v: float, x: float, y: float, kmax: int) -> float:
    """Squared distance from u*(1,0)+v*(x,y) to the nearest lattice point.

    Any lattice point alpha*(1,0)+beta*(x,y) within the search radius has
    |v-beta|*y below it, so scanning beta over a window of kmax rows and
    taking the rounded-best alpha in each row is exhaustive.
    """
    best = math.inf
    for k in range(-kmax, kmax + 1):
        dv = v - (round(v) + k)
        dy = dv * y
        ax = u + dv * x
        dx = ax - round(ax)
        d2 = dx * dx + dy * dy
        if d2 < best:
            best = d2
    return best


def cmd_packing(args, cfg: RunConfig) -> int:
    re_part = parse_surd(args.x)
    im_part = parse_surd(args.y)
    samples = args.samples
    if samples < 100:
        raise ValueError("need samples >= 100")
    w = UpperHalfPoint(re_part, im_part)
    f = growth_capacity(w)
    analytic = float(mp.pi / 4 * _as_mpf(f))

    d_sq, _ = shortest_vector_sq(w)
    d = float(mp.sqrt(_as_mpf(d_sq)))
    xf, yf = (float(w.x if not isinstance(w.x, Surd) else w.x.to_mpf()),
              float(w.y if not isinstance(w.y, Surd) else w.y.to_mpf()))
    kmax = int(math.ceil(d / (2 * yf))) + 1
    rng = random.Random(cfg.seed)
    r_sq = d * d / 4
    hits = 0
    for _ in range(samples):
        u, v = rng.random(), rng.random()
        if _nearest_dist_sq(u, v, xf, yf, kmax) <= r_sq:
            hits += 1
    empirical = hits / samples
    report = PackingReport(
        x=_literal_of(re_part),
        y=_literal_of(im_part),
        analytic_density=analytic,
        empirical_density=empirical,
        samples=samples,
    )
    if cfg.fmt == "json":
        _emit(_json_text({"command": "packing", **report.to_dict(), "seed": cfg.seed}), cfg)
        return 0
    sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / samples)
    _emit(
        "\n".join(
            [
                f"x = {report.x}, y = {report.y}",
                f"analytic density  = {analytic!r}",
                f"empirical density = {empirical!r}  ({samples} samples, seed {cfg.seed})",
                f"|difference| = {abs(analytic - empirical)!r}  (3 sigma = {3 * sigma!r})",
            ]
        )
        + "\n",
        cfg,
    )
    return 0


def _literal_of(v) -> str:
    if isinstance(v, Surd):
        return v.literal()
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return repr(float(v)) if not isinstance(v, int) else str(v)


# -- render-lattice ----------------------------------------------------------


def cmd_render_lattice(args, cfg: RunConfig) -> int:
    re_part = parse_surd(args.x)
    im_part = parse_surd(args.y)
    w = UpperHalfPoint(re_part, im_part)
    rows = args.rows
    if rows < 1:
        raise ValueError("need rows >= 1")
    d_sq, _ = shortest_vector_sq(w)
    d = float(mp.sqrt(_as_mpf(d_sq)))
    xf = float(w.x if not isinstance(w.x, Surd) else w.x.to_mpf())
    yf = float(w.y if not isinstance(w.y, Surd) else w.y.to_mpf())

    scale = 400.0
    margin = 20.0
    strip_h = rows * yf * scale
    width = scale + 2 * margin
    height = strip_h + 2 * margin

    def sx(u):
        return margin + u * scale

    def sy(v):
        return margin + strip_h - v * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_svg_num(width)}" '
        f'height="{_svg_num(height)}" viewBox="0 0 {_svg_num(width)} {_svg_num(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{_svg_num(sx(0))}" y="{_svg_num(margin)}" width="{_svg_num(scale)}" '
        f'height="{_svg_num(strip_h)}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    r = d / 2 * scale
    for beta in range(rows):
        bx = (beta * xf) % 1.0
        by = beta * yf
        for shift in (-1.0, 0.0, 1.0):
            u = bx + shift
            if -d / 2 <= u <= 1 + d / 2:
                parts.append(
                    f'<circle cx="{_svg_num(sx(u))}" cy="{_svg_num(sy(by))}" r="{_svg_num(r)}" '
                    f'fill="#9ecae1" fill-opacity="0.6" stroke="#3182bd" stroke-width="1"/>'
                )
                parts.append(
                    f'<circle cx="{_svg_num(sx(u))}" cy="{_svg_num(sy(by))}" r="2" fill="#08519c"/>'
                )
    parts.append("</svg>")
    _emit("\n".join(parts) + "\n", cfg)
    return 0


# -- hermite -----------------------------------------------------------------


def cmd_hermite(args, cfg: RunConfig) -> int:
    x = parse_surd(args.x)
    hs = hermite_convergents(x, args.n)
    if cfg.fmt == "json":
        obj = {
            "command": "hermite",
            "x": x.literal(),
            "n": args.n,
            "convergents": [{"n": h.n, "p": h.p, "q": h.q} for h in hs],
        }
        _emit(_json_text(obj), cfg)
        return 0
    if cfg.fmt == "csv":
        _emit(_csv_text(["n", "p", "q"], [[h.n, h.p, h.q] for h in hs]), cfg)
        return 0
    lines = [f"Hermite convergents of x = {x.literal()} among the first {args.n} classical:"]
    for h in hs:
        lines.append(f"  n={h.n}: {h.p}/{h.q}")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


# -- average -----------------------------------------------------------------


def cmd_average(args, cfg: RunConfig) -> int:
    x = parse_surd(args.x)
    rep = average_capacity_estimate(x, cfg.depth)
    est = float(rep.limsup_estimate)
    cf = rep.closed_form
    if cfg.fmt == "json":
        obj = {
            "command": "average",
            "x": x.literal(),
            "depth": cfg.depth,
            "averages": [float(a) for a in rep.averages],
            "limsup_estimate": est,
            "tail_window": list(rep.tail_window),
            "tail_spread": float(rep.tail_spread),
            "closed_form": None
            if cf is None
            else {"expr": cf.expr, "value": float(cf.value), "delta": abs(est - float(cf.value))},
        }
        _emit(_json_text(obj), cfg)
        return 0
    if cfg.fmt == "csv":
        rows = [[r, _fnum(a)] for r, a in enumerate(rep.averages)]
        _emit(_csv_text(["piece_index", "average"], rows), cfg)
        return 0
    lines = [
        f"x = {x.literal()}, depth = {cfg.depth}",
        f"averaged capacity estimate = {mp.nstr(rep.limsup_estimate, 12)}"
        f"  (tail window {rep.tail_window[0]}..{rep.tail_window[1] - 1},"
        f" spread {mp.nstr(rep.tail_spread, 3)})",
    ]
    if cf is not None:
        lines.append(f"closed form: {cf.expr} = {mp.nstr(cf.value, 12)}")
        lines.append(f"delta = {mp.nstr(abs(rep.limsup_estimate - cf.value), 3)}")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


# -- spectrum / markoff --------------------------------------------------------


def cmd_spectrum(args, cfg: RunConfig) -> int:
    entries = lagrange_spectrum(args.count)
    if cfg.fmt == "json":
        obj = {
            "command": "spectrum",
            "count": args.count,
            "entries": [
                {"m": e.m, "L": _scalar_json(e.L), "packing_floor": _scalar_json(e.packing_floor)}
                for e in entries
            ],
        }
        _emit(_json_text(obj), cfg)
        return 0
    if cfg.fmt == "csv":
        rows = [[e.m, e.L.literal(), _fnum(e.L.to_mpf())] for e in entries]
        _emit(_csv_text(["m", "L_literal", "L_value"], rows), cfg)
        return 0
    lines = ["Lagrange spectrum below 3 (m: Markoff number, L = sqrt(9m^2-4)/m):"]
    for e in entries:
        lines.append(f"  m={e.m:6d}  L = {e.L.literal():22s} = {mp.nstr(e.L.to_mpf(), 12)}")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def cmd_markoff(args, cfg: RunConfig) -> int:
    ms = markoff_numbers(args.limit)
    if cfg.fmt == "json":
        _emit(_json_text({"command": "markoff", "limit": args.limit, "numbers": ms}), cfg)
        return 0
    if cfg.fmt == "csv":
        _emit(_csv_text(["m"], [[m] for m in ms]), cfg)
        return 0
    _emit(f"Markoff numbers <= {args.limit}:\n" + " ".join(str(m) for m in ms) + "\n", cfg)
    return 0


# -- argument plumbing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="growthcap",
        description="Growth capacities on the upper half-plane: profiles, "
        "Hermite convergents, averages, packing densities, Markoff spectrum.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json"), default_fmt="text"):
        p.add_argument("--precision", type=int, default=None, help="working precision in bits (>= 64)")
        p.add_argument("--format", choices=formats, default=default_fmt, dest="fmt")
        p.add_argument("--out", default=None, help="write data to this path instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("capacity", help="growth capacity f at one point")
    p.add_argument("--omega", required=True, help='point, e.g. "phi + i/10" or "0.3 + 0.9i"')
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("profile", help="piecewise profile of f along a vertical geodesic")
    p.add_argument("--x", action="append", required=True, help="surd literal; repeatable for svg/json")
    p.add_argument("--t-max", type=float, default=50.0, dest="t_max")
    common(p, formats=("text", "csv", "json", "svg"))
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("packing", help="analytic vs Monte-Carlo disk-packing density")
    p.add_argument("--x", required=True, help="divergence (real part), surd literal")
    p.add_argument("--y", required=True, help="internode (imaginary part), surd literal")
    p.add_argument("--samples", type=int, default=20000)
    common(p)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("render-lattice", help="SVG strip of buds with inscribed disks")
    p.add_argument("--x", required=True, help="divergence, surd literal")
    p.add_argument("--y", default="1/20", help="internode, surd literal (default 1/20)")
    p.add_argument("--rows", type=int, default=25)
    common(p, formats=("svg",), default_fmt="svg")
    p.set_defaults(func=cmd_render_lattice)

    p = sub.add_parser("hermite", help="Hermite convergents among the first n classical")
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, default=10)
    common(p, formats=("text", "csv", "json"))
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("average", help="averaged capacity estimate with closed form when known")
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=40)
    common(p, formats=("text", "csv", "json"))
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("spectrum", help="bottom of the Lagrange spectrum")
    p.add_argument("--count", type=int, default=8)
    common(p, formats=("text", "csv", "json"))
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("markoff", help="Markoff numbers up to a limit")
    p.add_argument("--limit", type=int, default=1500)
    common(p, formats=("text", "csv", "json"))
    p.set_defaults(func=cmd_markoff)
    return top


def _resolve_precision(cli_value: Optional[int]) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get(PRECISION_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{PRECISION_ENV} must be an integer, got {env!r}")
    return DEFAULT_PRECISION_BITS


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            precision=_resolve_precision(args.precision),
            depth=getattr(args, "depth", 40),
            t_max=getattr(args, "t_max", 50.0),
            fmt=args.fmt,
            out=args.out,
            seed=args.seed,
        )
        with mp.workprec(cfg.precision):
            return args.func(args, cfg)
    except (ValueError, RuntimeError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
