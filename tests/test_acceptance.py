"""Acceptance gate: nine end-to-end criteria, one test (and one verdict line) each.

Run with ``pytest -v tests/test_acceptance.py`` — the per-test PASSED/FAILED
lines are the pass/fail report.  Each test also prints a one-line summary with
the measured quantities (visible with ``-rA`` or ``-s``).

Budgets are wall-clock and generous relative to observed runtimes; they guard
against algorithmic regressions (e.g. the geodesic oracle degenerating into a
per-unit-time scan), not scheduler noise.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from mpmath import mp

from growthcap import (
    PHI,
    PSI,
    ModularMatrix,
    Surd,
    UpperHalfPoint,
    average_capacity_estimate,
    build_profile,
    cf_expand,
    closed_form_g,
    convergents,
    growth_capacity,
    hermite_convergents,
    hermite_oracle_geodesic,
    lagrange_spectrum,
    markoff_numbers,
    mobius_apply,
    shortest_vector_sq,
    sup_of_minima,
)
from growthcap.cli import main as cli_main

from conftest import NAMED_X

TWO_OVER_SQRT8 = 2 / math.sqrt(8)


def _word(rng, max_len=12):
    g = ModularMatrix.identity()
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            g = g @ ModularMatrix.S()
        else:
            g = g @ ModularMatrix.T(rng.choice([-2, -1, 1, 2]))
    return g


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


# -- 1: the golden ratio maximizes the worst-case capacity ------------------------


def test_criterion_01_golden_ratio_supremum():
    t0 = time.perf_counter()
    golden = sup_of_minima(PHI)
    elapsed_phi = time.perf_counter() - t0
    assert golden == Surd(0, 2, 5, 5)  # literally 2/sqrt(5)
    assert abs(float(golden) - 2 / math.sqrt(5)) <= 1e-12
    assert elapsed_phi < 1.0

    others = {}
    for name in ("sqrt2m1", "sqrt3m1", "sqrt7m1", "psi"):
        t0 = time.perf_counter()
        s = sup_of_minima(NAMED_X[name])
        elapsed = time.perf_counter() - t0
        assert float(s) <= TWO_OVER_SQRT8 + 1e-12, name
        assert elapsed < 1.0, name
        others[name] = float(s)
    print(
        f"criterion 1 PASS: sup_of_minima(phi)=2/sqrt(5) exactly "
        f"({elapsed_phi * 1e3:.1f} ms); others {others} all <= 2/sqrt(8)"
    )


# -- 2: Hermite filter vs geodesic traversal --------------------------------------


def test_criterion_02_hermite_lists_agree():
    x = NAMED_X["sqrt7m1"]
    t0 = time.perf_counter()
    filtered = [(h.p, h.q) for h in hermite_convergents(x, 10)]
    cusps = hermite_oracle_geodesic(x, 100000.0)
    traversed = [(c.numerator, c.denominator) for c in cusps]
    elapsed = time.perf_counter() - t0
    expected = [(2, 1), (5, 3), (28, 17), (79, 48), (446, 271)]
    assert filtered == expected
    assert traversed == expected
    assert elapsed < 5.0
    print(
        f"criterion 2 PASS: Humbert filter == geodesic oracle == {expected} "
        f"({elapsed * 1e3:.0f} ms)"
    )


# -- 3: averaged capacity closed forms and ordering -------------------------------


def test_criterion_03_average_closed_forms():
    t0 = time.perf_counter()
    est_phi = average_capacity_estimate(PHI, 40).limsup_estimate
    est_psi = average_capacity_estimate(PSI, 40).limsup_estimate
    assert abs(est_phi - mp.mpf("0.930414")) < 1e-4
    assert abs(est_psi - mp.mpf("0.811613")) < 1e-4
    assert abs(est_phi - closed_form_g("phi").value) < 1e-4
    assert abs(est_psi - closed_form_g("psi").value) < 1e-4
    assert est_phi > 2 / mp.sqrt(5)

    below = {}
    for name in ("sqrt2m1", "sqrt3m1", "psi", "sqrt7m1"):
        est = average_capacity_estimate(NAMED_X[name], 40).limsup_estimate
        assert est < est_phi, name
        below[name] = float(est)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 3 PASS: g_phi~{float(est_phi):.6f}, g_psi~{float(est_psi):.6f}; "
        f"non-equivalent estimates {below} all < g_phi ({elapsed:.2f} s)"
    )


# -- 4: modular invariance ---------------------------------------------------------


def test_criterion_04_modular_invariance():
    rng = random.Random(41)
    t0 = time.perf_counter()
    worst = 0.0
    with mp.workprec(128):
        for _ in range(500):
            w = UpperHalfPoint(
                mp.mpf(rng.uniform(-1.0, 1.0)), mp.mpf(rng.uniform(0.05, 2.0))
            )
            gw = mobius_apply(_word(rng), w)
            diff = abs(growth_capacity(gw) - growth_capacity(w))
            worst = max(worst, float(diff))
            assert diff <= 1e-12

    surds = [PHI, PSI, NAMED_X["sqrt2m1"], NAMED_X["sqrt3m1"], NAMED_X["sqrt7m1"]]
    for k in range(50):
        if k % 2:
            x = surds[k % len(surds)] + Fraction(rng.randint(-3, 3), rng.randint(1, 7))
        else:
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        y = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        w = UpperHalfPoint(x, y)
        gw = mobius_apply(_word(rng), w)
        assert growth_capacity(gw) == growth_capacity(w)  # exact field arithmetic
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 4 PASS: 500 mpf cases worst |f(gw)-f(w)| = {worst:.2e} <= 1e-12; "
        f"50 exact cases identical ({elapsed:.2f} s)"
    )


# -- 5: profile envelope vs reduction path -----------------------------------------


def test_criterion_05_profile_matches_reduction():
    rng = random.Random(5)
    t0 = time.perf_counter()
    checked = 0
    for name, x in NAMED_X.items():
        prof = build_profile(x, 25)
        for _ in range(200):
            t = Fraction(rng.randint(1, 100000), rng.randint(1, 997))
            fa = prof.evaluate(t)
            fb = growth_capacity(UpperHalfPoint(x, 1 / t))
            assert fa == fb, (name, t)  # exact, hence within 1e-12
            checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 5 PASS: {checked} random heights across 6 x, piecewise profile "
        f"== reduction capacity exactly ({elapsed:.2f} s)"
    )


# -- 6: Markoff numbers and spectrum head ------------------------------------------


def test_criterion_06_markoff_and_spectrum():
    ms = markoff_numbers(1500)
    assert ms == [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985, 1325]
    spec2 = lagrange_spectrum(2)
    assert spec2[0].L == Surd(0, 1, 1, 5)  # sqrt(5)
    assert spec2[1].L == Surd(0, 2, 1, 2)  # sqrt(8)
    print("criterion 6 PASS: 14 Markoff numbers <= 1500; spectrum starts sqrt5, sqrt8")


# -- 7: Lagrange-Gauss vs naive enumeration ----------------------------------------


def _naive_shortest_sq(x, y, window=8):
    y2 = y * y
    best = None
    for beta in range(-window, window + 1):
        for alpha in range(-window, window + 1):
            if alpha == 0 and beta == 0:
                continue
            u = alpha + beta * x
            q = u * u + beta * beta * y2
            if best is None or q < best:
                best = q
    return best


def test_criterion_07_gauss_equals_naive():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(0.05, 2.0)
        d2, _wit = shortest_vector_sq(UpperHalfPoint(x, y))
        ref = _naive_shortest_sq(x, y)
        worst = max(worst, abs(float(d2) - ref))
        assert abs(float(d2) - ref) <= 1e-12
    print(f"criterion 7 PASS: 1000 random points, worst |gauss - naive| = {worst:.2e}")


# -- 8: packing density ------------------------------------------------------------

# (x, y, seed) verified once against fresh Monte-Carlo runs, then frozen;
# every case sits within 3 sigma of the analytic density (max observed 2.1).
PACKING_CASES = [
    ("phi", "1/2", 100), ("sqrt(2)-1", "1/3", 101), ("sqrt(3)-1", "2/5", 102),
    ("psi", "3/4", 103), ("1/2", "sqrt(3)/2", 104), ("sqrt(7)-1", "1/2", 105),
    ("2/7", "3/4", 106), ("phi-1", "1/3", 107), ("phi", "2/5", 108),
    ("sqrt(2)-1", "1/2", 109), ("sqrt(3)-1", "1/3", 110), ("psi", "2/5", 111),
    ("0", "sqrt(2)", 112), ("sqrt(7)-1", "3/4", 113), ("1/3", "1/2", 114),
    ("phi-1", "2/5", 115), ("phi", "1/5", 116), ("sqrt(2)-1", "1/4", 117),
    ("1/2", "sqrt(3)/4", 118), ("psi", "1/2", 119),
]


def test_criterion_08_packing_density():
    worst_sigmas = 0.0
    for x, y, seed in PACKING_CASES:
        rc, out = _run_cli(
            ["packing", "--x", x, "--y", y, "--samples", "20000",
             "--seed", str(seed), "--format", "json"]
        )
        assert rc == 0, (x, y)
        obj = json.loads(out)
        p = obj["analytic_density"]
        sigma = math.sqrt(p * (1 - p) / obj["samples"])
        dev = abs(obj["empirical_density"] - p)
        assert dev <= 3 * sigma, (x, y, seed)
        worst_sigmas = max(worst_sigmas, dev / sigma)

    # hexagonal corner of the fundamental domain: the densest scheme
    corner = UpperHalfPoint(Fraction(1, 2), Surd(0, 1, 2, 3))
    f_corner = growth_capacity(corner)
    assert f_corner == Surd(0, 2, 3, 3)
    density = math.pi / 4 * float(f_corner)
    assert abs(density - math.pi / (2 * math.sqrt(3))) <= 1e-12

    # no point of the fundamental domain beats it
    rng = random.Random(8)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(math.sqrt(max(1 - x * x, 0.0)), 3.0)
        w = UpperHalfPoint(x, y)
        assert math.pi / 4 * float(growth_capacity(w)) <= density + 1e-12
    print(
        f"criterion 8 PASS: 20 seeded runs within 3 sigma (worst {worst_sigmas:.2f}); "
        f"max density pi/(2 sqrt 3) at the hexagonal corner"
    )


# -- 9: rejected convergents miss by a definite margin ------------------------------


def test_criterion_09_non_hermite_gap():
    rejected = 0
    for name, x in NAMED_X.items():
        hermite_ids = {h.n for h in hermite_convergents(x, 21)}
        for c in convergents(cf_expand(x), 21):
            if c.n in hermite_ids:
                continue
            u = abs(c.q * (c.q * x - c.p))
            assert u > Fraction(1, 2), (name, c.n)  # exact comparison
            rejected += 1
    assert rejected > 20
    print(
        f"criterion 9 PASS: {rejected} non-Hermite convergents across 6 x "
        f"all have |q(qx-p)| > 1/2 exactly"
    )
