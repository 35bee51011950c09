"""The four benchmark workloads: inputs from the seed, ops, checks.

Each workload is a closed loop over blocks of ops.  Block i draws its inputs
from a generator seeded with (workload, seed, i); the size parameter of each
op (profile N, y exponent, CF period) comes from an additive-recurrence
sequence offset by the seed, so every stretch of blocks covers the whole size
range evenly and two seeds differ in the inputs, not in the mix.

Checks compare each output with an independent computation (`oracles`) or
with a second, independent path through the library, as noted per op.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import isqrt, log10

from mpmath import mp

# library calls go through the module attributes, where the tracer's
# wrappers are installed
from growthcap import average, exactnum, halfplane, markoff, profile
from growthcap import cli as cli_mod
from growthcap.exactnum import PHI, Surd
from growthcap.halfplane import UpperHalfPoint

import oracles
from harness import CheckFailed, Op

# additive-recurrence steps (irrational, pairwise independent over Q)
_ALPHA = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got, want, rel, what: str) -> None:
    with mp.workprec(max(mp.prec, 320)):
        ok = abs(got - want) <= rel * abs(want)
    expect(ok, f"{what}: got {mp.nstr(got, 20)}, want {mp.nstr(want, 20)}")


def _bucket(v: int, edges) -> str:
    lo = edges[0]
    for hi in edges[1:]:
        if v < hi:
            return f"{lo}-{hi - 1}"
        lo = hi
    return f"{lo}+"


class Workload:
    name = ""
    deadline = 5.0  # seconds per op
    prec = 53  # mpmath working precision of the workload process
    setup_snippet = ""  # fresh-interpreter import plus the smallest op, for setup_s

    def __init__(self, seed: int):
        self.seed = seed
        r = random.Random(f"{self.name}:{seed}")
        self._offset = [r.random() for _ in _ALPHA]

    def u(self, i: int, j: int = 0) -> float:
        """Evenly spread value in [0, 1) for draw i of size parameter j."""
        return (self._offset[j] + i * _ALPHA[j]) % 1.0

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def warmup(self) -> None:
        """Finish lazy imports and first-call set-up before timing."""

    def block(self, i: int) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Fixed inputs that hit the seed's known defects, one op each, run
        once after the timed loop; their outcomes are reported, not timed."""
        return []


def _small_surd(rng: random.Random) -> Surd:
    d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30))
    return Surd(rng.randint(-9, 9), rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 9), d)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


class HermiteOracle:
    """Independent Hermite convergents of one x, extended on demand."""

    def __init__(self, x: Surd):
        self.fields = oracles.surd_fields(x)
        self.count = 0
        self.convs: list = []
        self.hermite: list = []
        self.ties: set = set()

    def classical(self, count: int):
        if count > self.count:
            self.count = max(count, 2 * self.count)
            self.convs, _, _ = oracles.convergents(self.fields, self.count)
            self.hermite, self.ties = oracles.hermite_filter(self.fields, self.convs)
        return self.convs[:count]

    def same(self, got, want, what: str) -> None:
        """got == want up to the convergents at a tie (see `hermite_filter`)."""
        got = [h for h in got if h[0] not in self.ties]
        want = [h for h in want if h[0] not in self.ties]
        expect(got == want, f"{what}: {got[:4]}... want {want[:4]}...")

    def among_first(self, n: int) -> list:
        self.classical(n + 4)
        return [h for h in self.hermite if h[0] < n]

    def tie_within(self, pieces: int) -> bool:
        """Whether a tie lies among the convergents up to the `pieces`-th
        Hermite convergent."""
        n = pieces + 4
        while len(self.among_first(n)) < pieces:
            n *= 2
        return any(t < n for t in self.ties)


def _sample(items: list, k: int = 8) -> list:
    """The first and last k items and 2k spread between them: the pieces the
    high-precision minimum check looks at (N = 400 would cost ~10x the op)."""
    items = list(items)
    if len(items) <= 4 * k:
        return items
    step = (len(items) - 2 * k) / (2 * k)
    return items[:k] + [items[k + int(step * j)] for j in range(2 * k)] + items[-k:]


class ProfileWorkload(Workload):
    name = "profile"
    prec = 192
    setup_snippet = (
        "from growthcap.exactnum import PHI\n"
        "from growthcap.profile import build_profile\n"
        "from growthcap.average import average_capacity_estimate\n"
        "build_profile(PHI, 2)"
    )

    def warmup(self) -> None:
        average.average_capacity_estimate(PHI, 8)

    def probes(self) -> list[Op]:
        # geodesics through a corner of the tiling (three equally short
        # vectors) give zero-length pieces; piece averages are taken in mpf
        # with no error control, so the ends round together ("need t_lo <
        # t_hi") or log(hi/lo)/(hi - lo) cancels
        defect = "average_capacity_estimate fails on a zero-length piece (geodesic through a tiling corner)"
        return [
            self._average_op(Surd(-7, -1, 1, 19), 160, defect),
            self._average_op(Surd(1, -1, 3, 7), 160, defect),
        ]

    def _x(self, rng, i: int) -> Surd:
        if i % 6 == 5:  # golden / silver classes, whose averages have closed forms
            if (i // 6) % 2 == 0:
                return Surd(rng.randrange(-7, 8, 2), 1, 2, 5)
            return Surd(rng.randint(-5, 5), 1, 1, 2)
        return _small_surd(rng)

    def block(self, i: int) -> list[Op]:
        rng = self.rng(i)
        N = round(25 * 16 ** self.u(i, 0))
        n_classical = round(25 * 16 ** self.u(i, 1))
        depth = round(40 * 4 ** self.u(i, 2))
        while True:
            # x whose geodesic meets a corner of the tiling within reach of
            # the block hit the zero-length-piece defect: they are probes
            x = self._x(rng, i)
            oracle = HermiteOracle(x)
            if not oracle.tie_within(max(N, depth + 1, n_classical)):
                break
        xf = oracle.fields
        ctx: dict = {}

        def build():
            ctx["prof"] = profile.build_profile(x, N)
            return ctx["prof"]

        def check_build(prof):
            got = [(p.n, p.p, p.q) for p in prof.pieces]
            expect(len(got) == N, f"{len(got)} pieces for N = {N}")
            oracle.same(got, oracle.among_first(got[-1][0] + 1), "pieces against Hermite")
            for p in prof.pieces:
                expect(p.B == p.q * p.q, f"B != q^2 at {p.p}/{p.q}")
                expect(oracles.is_square_of_error(oracles.surd_fields(p.A), xf, p.p, p.q), f"A at {p.p}/{p.q}")

        def minima():
            return profile.local_minima(ctx["prof"])

        def check_minima(mins):
            pieces = ctx["prof"].pieces
            expect(len(mins) == len(pieces), "one minimum per piece")
            pairs = _sample(list(zip(pieces, mins)))
            lam = oracles.lambda_values(xf, [p.n for p, _ in pairs])
            for p, (t0, fmin) in pairs:
                fm = oracles.surd_mpf(*oracles.surd_fields(fmin))
                close(fm * lam[p.n], mp.mpf(2), 2.0**-150, f"fmin * lambda_{p.n}")
                close(oracles.surd_mpf(*oracles.surd_fields(t0)) * fm, mp.mpf(2 * p.q * p.q), 2.0**-150, "t0 * fmin")

        ops = [
            Op("build_profile", f"build:N={_bucket(N, (25, 50, 100, 200, 401))}", build, check_build, self.deadline),
            Op("local_minima", f"minima:N={_bucket(N, (25, 50, 100, 200, 401))}", minima, check_minima, self.deadline),
        ]
        for j in range(3):
            ops.append(self._evaluate_op(rng, x, ctx))
        ops.append(self._hermite_op(x, n_classical, oracle))
        ops.append(self._average_op(x, depth))
        return ops

    def _evaluate_op(self, rng, x, ctx) -> Op:
        arg: dict = {}

        def prepare():
            # t up to the profile's end, capped where reducing x + i/t in
            # the check would cost far more than the op
            last = oracles.surd_mpf(*oracles.surd_fields(ctx["prof"].pieces[-1].sq_end))
            hi = min(float(mp.log10(mp.sqrt(last) * 0.99)), 12.0)
            with mp.workprec(64):
                t = mp.power(10, rng.uniform(log10(0.6), hi))
            arg["t"] = oracles.dyadic(t).limit_denominator(1000)

        def run():
            return ctx["prof"].evaluate(arg["t"])

        def check(value):
            t = arg["t"]
            want = halfplane.growth_capacity(UpperHalfPoint(x, 1 / t))  # reduction path of halfplane
            expect(value == want, f"evaluate({t}) = {value!r}, reduction gives {want!r}")

        return Op("evaluate", "evaluate", run, check, self.deadline, prepare=prepare)

    def _hermite_op(self, x, n: int, oracle: HermiteOracle) -> Op:
        def check(hs):
            oracle.same([(h.n, h.p, h.q) for h in hs], oracle.among_first(n), f"Hermite among first {n}")

        return Op(
            "hermite_convergents",
            f"hermite:n={_bucket(n, (25, 50, 100, 200, 401))}",
            lambda: profile.hermite_convergents(x, n),
            check,
            self.deadline,
        )

    def _average_op(self, x, depth: int, defect: str = "") -> Op:
        def check(rep):
            expect(len(rep.averages) == depth, "one average per piece")
            bound = 2 / mp.sqrt(3) + mp.mpf("1e-30")
            expect(all(0 < a <= bound for a in rep.averages), "average outside (0, 2/sqrt(3)]")
            lo, hi = depth // 2, depth
            expect(rep.tail_window == (lo, hi), "tail window")
            expect(rep.limsup_estimate == max(rep.averages[lo:hi]), "limsup is not the tail max")
            period = set(oracles.cf_period(oracles.surd_fields(x)))
            if period in ({1}, {2}):
                if period == {1}:
                    g = mp.mpf(1) / 2 + 2 / mp.sqrt(5) * mp.log((1 + mp.sqrt(5)) / 2)
                else:
                    g = mp.mpf(1) / 2 + mp.log(1 + mp.sqrt(2)) / mp.sqrt(8)
                expect(abs(rep.limsup_estimate - g) < 1e-4, f"g_x {rep.limsup_estimate} vs closed form {g}")

        return Op(
            "average_capacity_estimate",
            f"average:depth={_bucket(depth, (40, 80, 161))}",
            lambda: average.average_capacity_estimate(x, depth),
            check,
            self.deadline,
            defect=defect,
        )


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


class LatticeWorkload(Workload):
    name = "lattice"
    FLOAT_PREC = 426  # the default precision; the seed gets every point right
    PROBE_DEADLINE = 0.1  # a terminating mpf point takes ~1-8 ms
    setup_snippet = (
        "from fractions import Fraction\n"
        "from growthcap.halfplane import UpperHalfPoint, growth_capacity\n"
        "from growthcap.profile import hermite_oracle_geodesic\n"
        "growth_capacity(UpperHalfPoint(Fraction(1, 3), Fraction(1, 2)))"
    )

    def warmup(self) -> None:
        halfplane.growth_capacity(UpperHalfPoint(PHI, Fraction(1, 10**5)))
        profile.hermite_oracle_geodesic(PHI, 100)

    def block(self, i: int) -> list[Op]:
        rng = self.rng(i)
        ops = []
        for j in range(3):
            # k log-uniform, and one surd and one fraction at each k: the cost
            # grows like k^2.5 and differs widely between the two
            k = round(200 ** self.u(3 * i + j, 0))
            q = rng.randint(2, 999)
            ops += self._point_ops(_small_surd(rng), k)
            ops += self._point_ops(Fraction(rng.randrange(q), q), k)
        for j in range(4):
            k = 5 + int(36 * self.u(4 * i + j, 1))
            ops.append(self._float_op(_small_surd(rng), self.FLOAT_PREC, k, direct=(i + j) % 2 == 1))
        ops.append(self._oracle_op(_small_surd(rng), int(10 ** (3 + 6 * self.u(i, 2)))))
        return ops

    def _point_ops(self, x, k: int) -> list[Op]:
        y = Fraction(1, 10**k)
        w = UpperHalfPoint(x, y)
        ctx: dict = {}
        stratum = f"k={_bucket(k, (1, 26, 51, 101, 151, 201))}"

        def keep(name, fn):
            def run():
                ctx[name] = fn(w)
                return ctx[name]

            return run

        def agreed():
            """f(w) when reduction and Gauss agree, else None (then an
            independent exact Gauss decides)."""
            if "gc" in ctx and "direct" in ctx and ctx["gc"] == ctx["direct"]:
                return ctx["gc"]
            return None

        def check_f(other):
            def check(f):
                if f == ctx.get(other):
                    return  # the two independent paths agree exactly
                expect(f == oracles.capacity_exact(x, y), f"f(w) = {f!r} disagrees with an independent Gauss")

            return check

        def check_tangent(circle):
            c, dia = circle.cusp, circle.diameter
            expect((x - c) * (x - c) + y * y == y * dia, f"horocycle at {c} misses w")
            f = agreed()
            if f is None:
                f = oracles.capacity_exact(x, y)
            expect(dia * c.denominator**2 == f, "q^2 * diameter != f(w)")

        return [
            Op("growth_capacity", stratum, keep("gc", halfplane.growth_capacity), check_f("direct"), self.deadline),
            Op("growth_capacity_direct", stratum, keep("direct", halfplane.growth_capacity_direct), check_f("gc"), self.deadline),
            Op("tangent_circle", stratum, lambda: halfplane.tangent_circle(w), check_tangent, self.deadline),
        ]

    def probes(self) -> list[Op]:
        # the mpf tier has no error control: below ~2 log2(1/y) bits the
        # values are wrong, or Lagrange-Gauss does not stop
        defect = "mpf point at {} bits wrong or Lagrange-Gauss not stopping (no error control in the float tier)"
        return [
            self._float_op(Surd(1, 1, 2, 5), prec, k, direct, defect.format(prec), self.PROBE_DEADLINE)
            for prec, k, direct in ((53, 20, False), (53, 30, True), (113, 30, True), (192, 40, True))
        ]

    def _float_op(self, x: Surd, prec: int, k: int, direct: bool, defect: str = "", deadline: float = 0.0) -> Op:
        xs = oracles.surd_fields(x)
        with mp.workprec(prec):
            xm = +oracles.surd_mpf(*xs, prec=prec)
            ym = mp.mpf(10) ** -k
        fn = halfplane.growth_capacity_direct if direct else halfplane.growth_capacity

        def run():
            with mp.workprec(prec):
                return fn(UpperHalfPoint(xm, ym))

        def check(f):
            exact = oracles.capacity_exact(oracles.dyadic(xm), oracles.dyadic(ym))
            with mp.workprec(2 * prec + 64):
                want = mp.mpf(exact.numerator) / exact.denominator
                rel = abs(mp.mpf(f) - want) / want
            expect(rel <= mp.mpf(2) ** (-prec // 2), f"{prec}-bit f = {mp.nstr(f, 12)}, exact {mp.nstr(want, 12)}")

        kind = "float_capacity_direct" if direct else "float_capacity"
        stratum = f"float:{prec}bits" + (f":k={k}" if defect else "")
        return Op(kind, stratum, run, check, deadline or self.deadline, defect=defect)

    def _oracle_op(self, x, t_max: int) -> Op:
        oracle = HermiteOracle(x)

        def check(cusps):
            n = 32
            while oracle.classical(n)[-1][2] <= t_max:
                n *= 2
            want = oracle.among_first(n)
            expect(0 < len(cusps) < len(want), f"{len(cusps)} cusps up to t = {t_max}")
            index = {Fraction(p, q): (m, p, q) for m, p, q in want}
            expect(all(c in index for c in cusps), "a cusp that is not a Hermite convergent")
            got = [index[c] for c in cusps]
            oracle.same(got, [h for h in want if h[0] <= got[-1][0]], "geodesic cusps")

        return Op(
            "hermite_oracle_geodesic",
            f"oracle:t=1e{int(log10(t_max))}",
            lambda: profile.hermite_oracle_geodesic(x, t_max),
            check,
            self.deadline,
        )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _find_surd(rng, lo: int, hi: int) -> Surd:
    """(a + sqrt(d))/c whose CF period length lies in [lo, hi]."""
    dmax = max(32, 4 * hi * hi)
    while True:
        d = rng.randrange(2, dmax)
        if isqrt(d) ** 2 == d:
            continue
        c = rng.choice((1, 1, 2, 3))
        a = rng.randrange(0, 2 * c)
        if lo <= len(oracles.cf_period((a, 1, c, d))) <= hi:
            return Surd(a, 1, c, d)


def _check_markoff_L(m: int, L) -> None:
    a, b, c, d = oracles.surd_fields(L)
    expect(a == 0 and b * b * d * m * m == (9 * m * m - 4) * c * c, f"L for m={m} is {L!r}")


class SpectrumWorkload(Workload):
    """Per block: SMALL Lagrange ops at CF period 1-30 (log-uniform), MID at
    period 31-60 (uniform), and in even blocks the Markoff numbers, in odd
    blocks the spectrum and a Markoff-class representative.

    The cost of L grows with the period through factoring a radicand of ~p
    digits; past ~60 it is set by how hard that radicand happens to be to
    factor, so those periods would make the figures depend on the seed.
    Periods 300-460, which the seed cannot finish, are probes.
    """

    name = "spectrum"
    SMALL, MID = 5, 13
    PROBE_DEADLINE = 0.5  # period 114 takes ~0.3 s; 342 and 458 run past 5 s
    setup_snippet = (
        "from growthcap.exactnum import PHI, lagrange_number_estimate\n"
        "from growthcap.markoff import markoff_numbers\n"
        "from growthcap.profile import sup_of_minima\n"
        "lagrange_number_estimate(PHI)"
    )

    def warmup(self) -> None:
        # a period long enough to reach the factoring fallback and its import
        exactnum.lagrange_number_estimate(_find_surd(random.Random(0), 20, 24))
        markoff.markoff_numbers(100)

    def block(self, i: int) -> list[Op]:
        rng = self.rng(i)
        targets = [round(30 ** self.u(self.SMALL * i + j, 0)) for j in range(self.SMALL)]
        targets += [31 + int(30 * self.u(self.MID * i + j, 1)) for j in range(self.MID)]
        ops = []
        for j, target in enumerate(targets):
            tol = max(1, target // 10) if target > 2 else 0
            ops.append(self._lagrange_op(_find_surd(rng, target - tol, target + tol), sup=(i + j) % 2 == 1))
        if i % 2 == 0:
            ops.append(self._markoff_op(int(10 ** (1 + 5 * self.u(i, 2)))))
        else:
            ops.append(self._spectrum_op(1 + int(30 * self.u(i, 2))))
            ops.append(self._constants_op((1, 2, 5, 13)[i // 2 % 4]))
        rng.shuffle(ops)
        return ops

    def probes(self) -> list[Op]:
        # L goes through factoring a radicand that grows with the period:
        # with sympy the factorization overruns, without it the constructor
        # refuses ("too large to canonicalize")
        defect = "L at CF period {} overruns or raises (the radicand is factored)"
        rng = random.Random("spectrum-probes")
        ops = []
        for lo, hi, sup in ((330, 350, False), (440, 460, True)):
            x = _find_surd(rng, lo, hi)
            period = len(oracles.cf_period(oracles.surd_fields(x)))
            ops.append(self._lagrange_op(x, sup, defect.format(period), self.PROBE_DEADLINE))
        return ops

    def _lagrange_op(self, x: Surd, sup: bool, defect: str = "", deadline: float = 0.0) -> Op:
        period = oracles.cf_period(oracles.surd_fields(x))
        stratum = f"period={_bucket(len(period), (1, 11, 31, 61, 300, 461))}"

        def check(v):
            want = oracles.lagrange_float(period)
            got = oracles.surd_mpf(*oracles.surd_fields(v), prec=64)
            if sup:
                got = 2 / got
            close(got, want, 1e-9, f"L over a period of {len(period)}")

        deadline = deadline or self.deadline
        if sup:
            return Op("sup_of_minima", stratum, lambda: profile.sup_of_minima(x), check, deadline, defect=defect)
        return Op("lagrange_number", stratum, lambda: exactnum.lagrange_number_estimate(x), check, deadline, defect=defect)

    def _markoff_op(self, limit: int) -> Op:
        def check(ms):
            want = oracles.markoff_numbers(limit)
            expect(ms == want, f"Markoff numbers <= {limit}: {ms[-3:]} want {want[-3:]}")

        return Op("markoff_numbers", "markoff", lambda: markoff.markoff_numbers(limit), check, self.deadline)

    def _spectrum_op(self, count: int) -> Op:
        def check(entries):
            limit = 64
            while len(oracles.markoff_numbers(limit)) < count:
                limit *= 8
            want = oracles.markoff_numbers(limit)[:count]
            expect([e.m for e in entries] == want, f"spectrum m values {[e.m for e in entries]}")
            for e in entries:
                _check_markoff_L(e.m, e.L)

        return Op("lagrange_spectrum", "markoff", lambda: markoff.lagrange_spectrum(count), check, self.deadline)

    def _constants_op(self, m: int) -> Op:
        return Op(
            "lagrange_of_constant",
            "constants",
            lambda: exactnum.lagrange_number_estimate(markoff.spectrum_constants()[m]),
            lambda L: _check_markoff_L(m, L),
            self.deadline,
        )


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

X_POOL = ("phi", "psi", "sqrt(2)-1", "sqrt(3)-1", "sqrt(7)-1", "(11+sqrt(221))/10", "(1+sqrt(13))/2", "sqrt(6)")


def run_cli(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process `growthcap` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_mod.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _lit(v) -> str:
    return v.literal() if isinstance(v, Surd) else f"{Fraction(v).numerator}/{Fraction(v).denominator}"


def _csv_rows(out: str, header: str) -> list:
    lines = out.splitlines()
    expect(lines[:2] == ["# schema=v1", header], f"csv head {lines[:2]}")
    rows = list(csv.reader(lines[2:]))
    width = len(header.split(","))
    expect(all(len(r) == width for r in rows), "ragged csv")
    return rows


def _svg(out: str):
    root = ET.fromstring(out)
    expect(root.tag.endswith("svg"), "not an svg document")
    return root


def _svg_count(root, tag: str) -> int:
    return sum(1 for el in root.iter() if el.tag.endswith(tag))


class CliChecks:
    """Checkers for the CLI corpus: parse the output, then compare with direct
    library calls at the CLI's default precision."""

    PREC = cli_mod.DEFAULT_PRECISION_BITS

    @staticmethod
    def profile_csv(x_text):
        def check(out):
            x = exactnum.parse_surd(x_text)
            pairs = {(h.p, h.q) for h in profile.hermite_convergents(x, 400)}
            rows = _csv_rows(out, "t,f,piece_index,p,q,kind")
            expect(rows, "no rows")
            xv = oracles.surd_mpf(*oracles.surd_fields(x))
            for t, f, _, p, q, kind in rows:
                if kind == "sky":
                    expect(float(t) == float(f), "sky row with f != t")
                    continue
                p, q = int(p), int(q)
                expect((p, q) in pairs, f"{p}/{q} is not a Hermite convergent")
                if kind == "minimum":
                    close(mp.mpf(float(f)), 2 * q * abs(q * xv - p), 1e-12, f"minimum of {p}/{q}")

        return check

    @staticmethod
    def profile_json(x_texts):
        def check(out):
            obj = json.loads(out)
            expect(obj["command"] == "profile" and len(obj["profiles"]) == len(x_texts), "profiles")
            with mp.workprec(CliChecks.PREC):
                for x_text, prof in zip(x_texts, obj["profiles"]):
                    x = exactnum.parse_surd(x_text)
                    expect(prof["x"] == x.literal(), "x literal")
                    lib = profile.build_profile(x, len(prof["pieces"]))
                    for got, piece, (_, fmin) in zip(prof["pieces"], lib.pieces, profile.local_minima(lib)):
                        expect((got["p"], got["q"]) == (piece.p, piece.q), f"piece {got['p']}/{got['q']}")
                        expect(got["min_f"]["literal"] == fmin.literal(), "min_f literal")

        return check

    @staticmethod
    def profile_svg(n_curves):
        def check(out):
            expect(_svg_count(_svg(out), "path") == n_curves, "one path per curve")

        return check

    @staticmethod
    def profile_text(x_text):
        def check(out):
            x = exactnum.parse_surd(x_text)
            lines = out.splitlines()
            expect(lines[0].startswith(f"profile of x = {x.literal()} "), "header")
            got = [tuple(int(v) for v in ln.split(":")[1].split()[0].split("/")) for ln in lines[1:]]
            want = [(h.p, h.q) for h in profile.hermite_convergents(x, 4 * len(got) + 8)][: len(got)]
            expect(got and got == want, f"pieces {got[:3]} vs Hermite {want[:3]}")

        return check

    @staticmethod
    def _average(x_text, depth):
        with mp.workprec(CliChecks.PREC):
            return average.average_capacity_estimate(exactnum.parse_surd(x_text), depth)

    @staticmethod
    def average_text(x_text, depth):
        def check(out):
            rep = CliChecks._average(x_text, depth)
            line = next(ln for ln in out.splitlines() if ln.startswith("averaged capacity estimate = "))
            got = mp.mpf(line.split("=")[1].split()[0])
            close(got, rep.limsup_estimate, 1e-10, "averaged capacity")

        return check

    @staticmethod
    def average_json(x_text, depth):
        def check(out):
            obj = json.loads(out)
            rep = CliChecks._average(x_text, depth)
            expect(obj["limsup_estimate"] == float(rep.limsup_estimate), "limsup_estimate")
            expect(obj["averages"] == [float(a) for a in rep.averages], "averages")

        return check

    @staticmethod
    def average_csv(x_text, depth):
        def check(out):
            rep = CliChecks._average(x_text, depth)
            rows = _csv_rows(out, "piece_index,average")
            expect(rows == [[str(r), repr(float(a))] for r, a in enumerate(rep.averages)], "averages")

        return check

    @staticmethod
    def hermite(x_text, n, fmt):
        def check(out):
            want = [(h.n, h.p, h.q) for h in profile.hermite_convergents(exactnum.parse_surd(x_text), n)]
            if fmt == "json":
                got = [(c["n"], c["p"], c["q"]) for c in json.loads(out)["convergents"]]
            elif fmt == "csv":
                got = [tuple(int(v) for v in r) for r in _csv_rows(out, "n,p,q")]
            else:
                got = []
                for ln in out.splitlines()[1:]:
                    n_part, frac = ln.split(":")
                    p, q = frac.strip().split("/")
                    got.append((int(n_part.split("=")[1]), int(p), int(q)))
            expect(got == want, f"Hermite list {got[:3]} vs {want[:3]}")

        return check

    @staticmethod
    def _capacity(omega):
        return halfplane.growth_capacity(UpperHalfPoint(*exactnum.parse_omega(omega)))

    @staticmethod
    def capacity_json(omega):
        def check(out):
            obj = json.loads(out)
            expect(obj["f"]["literal"] == _lit(CliChecks._capacity(omega)), f"f literal {obj['f']['literal']}")

        return check

    @staticmethod
    def capacity_text(omega):
        def check(out):
            lit = _lit(CliChecks._capacity(omega))
            if lit.endswith("/1"):
                lit = lit[:-2]
            expect(out.startswith(f"f(omega) = {lit}"), f"first line {out.splitlines()[0][:80]}")

        return check

    @staticmethod
    def _analytic(x_text, y_text):
        f = halfplane.growth_capacity(UpperHalfPoint(exactnum.parse_surd(x_text), exactnum.parse_surd(y_text)))
        with mp.workprec(CliChecks.PREC):
            return float(mp.pi / 4 * oracles.surd_mpf(*oracles.surd_fields(f), prec=CliChecks.PREC))

    @staticmethod
    def packing_json(x_text, y_text, samples):
        def check(out):
            obj = json.loads(out)
            a = CliChecks._analytic(x_text, y_text)
            expect(abs(obj["analytic_density"] - a) <= 1e-12, f"analytic density {obj['analytic_density']} vs {a}")
            sigma = (a * (1 - a) / samples) ** 0.5
            expect(abs(obj["empirical_density"] - a) <= 5 * sigma, "Monte-Carlo density beyond 5 sigma")

        return check

    @staticmethod
    def packing_text(x_text, y_text):
        def check(out):
            line = next(ln for ln in out.splitlines() if ln.startswith("analytic density"))
            a = CliChecks._analytic(x_text, y_text)
            expect(abs(float(line.split("=")[1]) - a) <= 1e-12, "analytic density")

        return check

    @staticmethod
    def render(rows):
        def check(out):
            expect(_svg_count(_svg(out), "circle") >= 2 * rows, "too few disks")

        return check

    @staticmethod
    def spectrum(count, fmt):
        def check(out):
            entries = markoff.lagrange_spectrum(count)
            want = [e.m for e in entries]
            if fmt == "json":
                obj = json.loads(out)
                got = [e["m"] for e in obj["entries"]]
                expect([e["L"]["literal"] for e in obj["entries"]] == [e.L.literal() for e in entries], "L")
            elif fmt == "csv":
                got = [int(r[0]) for r in _csv_rows(out, "m,L_literal,L_value")]
            else:
                got = [int(ln.split("m=")[1].split()[0]) for ln in out.splitlines()[1:]]
            expect(got == want, f"m values {got}")
            expect(want == oracles.markoff_numbers(want[-1])[:count], "not the first Markoff numbers")

        return check

    @staticmethod
    def markoff(limit, fmt):
        def check(out):
            if fmt == "json":
                got = json.loads(out)["numbers"]
            elif fmt == "csv":
                got = [int(r[0]) for r in _csv_rows(out, "m")]
            else:
                got = [int(v) for v in out.splitlines()[1].split()]
            expect(got == oracles.markoff_numbers(limit), f"Markoff numbers <= {limit}")

        return check


class CliWorkload(Workload):
    name = "cli"
    setup_snippet = (
        "import io, contextlib\n"
        "from growthcap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['markoff', '--limit', '2'])"
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self._seen: dict = {}  # argv -> (exit code, stdout digest, verdict) of its first run

    def warmup(self) -> None:
        run_cli(["markoff", "--limit", "10"])

    def corpus(self, i: int) -> list:
        """Lap i: (label, argv, expected exit code, stdout checker) for every
        entry.  The parameters rotate through their pools from lap to lap, from
        an offset set by the seed, so that every run averages over the same mix."""
        r = self.rng(i)
        C = CliChecks
        j = i + int(1000 * self._offset[0])

        def pick(pool, step=1):
            return pool[(j * step) % len(pool)]

        x1, x2, x3, x4 = (X_POOL[(j + 2 * m) % len(X_POOL)] for m in range(4))
        t_max = pick(("20", "50", "100", "1000"))
        depth = pick((24, 40, 60))
        n = 8 + int(33 * self.u(i, 0))
        k = 1 + int(60 * self.u(i, 1))
        omega = f"{x3} + i/{10**k}"
        decimal = f"0.{r.randint(1, 9)} + 0.{r.randint(5, 9)}i"
        y = pick(("1/10", "1/20", "1/7"), 2)
        samples = pick((1000, 2000, 4000, 1000, 2000), 3)
        rows = 5 + int(26 * self.u(i, 2))
        count = 3 + j % 10
        limit = pick((100, 1500, 100000, 100, 1500), 2)
        return [
            ("profile-csv", ["profile", "--x", x1, "--t-max", t_max, "--format", "csv"], 0, C.profile_csv(x1)),
            ("profile-json", ["profile", "--x", x1, "--x", x2, "--t-max", t_max, "--format", "json"], 0, C.profile_json((x1, x2))),
            ("profile-svg", ["profile", "--x", x1, "--x", x2, "--t-max", t_max, "--format", "svg"], 0, C.profile_svg(2)),
            ("profile-text", ["profile", "--x", x2], 0, C.profile_text(x2)),
            ("average-text", ["average", "--x", x3, "--depth", str(depth)], 0, C.average_text(x3, depth)),
            ("average-json", ["average", "--x", x4, "--depth", str(depth), "--format", "json"], 0, C.average_json(x4, depth)),
            ("average-csv", ["average", "--x", x1, "--format", "csv"], 0, C.average_csv(x1, 40)),
            ("hermite-text", ["hermite", "--x", x2, "--n", str(n)], 0, C.hermite(x2, n, "text")),
            ("hermite-json", ["hermite", "--x", x3, "--n", str(n), "--format", "json"], 0, C.hermite(x3, n, "json")),
            ("hermite-csv", ["hermite", "--x", x4, "--n", str(n), "--format", "csv"], 0, C.hermite(x4, n, "csv")),
            ("capacity-exact-json", ["capacity", "--omega", omega, "--format", "json"], 0, C.capacity_json(omega)),
            ("capacity-exact-text", ["capacity", "--omega", omega], 0, C.capacity_text(omega)),
            ("capacity-decimal-json", ["capacity", "--omega", decimal, "--format", "json"], 0, C.capacity_json(decimal)),
            ("capacity-decimal-text", ["capacity", "--omega", decimal], 0, C.capacity_text(decimal)),
            ("packing-json", ["packing", "--x", x1, "--y", y, "--samples", str(samples), "--format", "json"], 0, C.packing_json(x1, y, samples)),
            ("packing-text", ["packing", "--x", x2, "--y", y, "--samples", str(samples)], 0, C.packing_text(x2, y)),
            ("render-lattice", ["render-lattice", "--x", x3, "--rows", str(rows)], 0, C.render(rows)),
            ("spectrum-text", ["spectrum", "--count", str(count)], 0, C.spectrum(count, "text")),
            ("spectrum-json", ["spectrum", "--count", str(count), "--format", "json"], 0, C.spectrum(count, "json")),
            ("spectrum-csv", ["spectrum", "--count", str(count), "--format", "csv"], 0, C.spectrum(count, "csv")),
            ("markoff-text", ["markoff", "--limit", str(limit)], 0, C.markoff(limit, "text")),
            ("markoff-json", ["markoff", "--limit", str(limit), "--format", "json"], 0, C.markoff(limit, "json")),
            ("markoff-csv", ["markoff", "--limit", str(limit), "--format", "csv"], 0, C.markoff(limit, "csv")),
            ("invalid-lower-half-plane", ["capacity", "--omega", f"{x3} - i/3"], 1, None),
            ("invalid-rational-x", ["profile", "--x", "3/2"], 1, None),
            ("invalid-parse", ["hermite", "--x", "sqrt(2"], 1, None),
        ]

    def verdict(self, expect_code: int, checker, result) -> str:
        """'' when the invocation's outcome is right, else why it is not."""
        code, out, err = result
        if code != expect_code:
            return f"exit code {code}, expected {expect_code}"
        try:
            if expect_code == 0:
                expect(out, "empty stdout")
                checker(out)
            else:
                expect(not out and err.startswith("error:"), "a failing call must print only an error")
        except CheckFailed as exc:
            return str(exc)
        return ""

    def block(self, i: int) -> list[Op]:
        entries = self.corpus(i)
        random.Random(f"cli-order:{self.seed}:{i}").shuffle(entries)
        return [self._op(*e) for e in entries]

    def probes(self) -> list[Op]:
        # `profile --t-max` <= 0 is accepted and prints an empty table
        defect = "profile --t-max {} exits 0 (t_max is not validated)"
        return [
            self._op(f"invalid-tmax-{t}", ["profile", "--x", "phi", "--t-max", t], 1, None, defect.format(t))
            for t in ("-5", "0")
        ]

    def _op(self, label, argv, expect_code, checker, defect: str = "") -> Op:
        def check(result):
            key = tuple(argv)
            digest = hashlib.sha256(result[1].encode()).digest()
            seen = self._seen.get(key)
            if seen is not None and seen[:2] == (result[0], digest):
                why = seen[2]  # same output as an invocation already checked
            else:
                why = self.verdict(expect_code, checker, result)
                self._seen.setdefault(key, (result[0], digest, why))
            expect(not why, why)

        return Op(
            "cli",
            f"cli:{label}",
            lambda: run_cli(argv),
            check,
            self.deadline,
            defect=defect,
            out_bytes=lambda result: len(result[1].encode()),
        )


WORKLOADS = {w.name: w for w in (ProfileWorkload, LatticeWorkload, SpectrumWorkload, CliWorkload)}
