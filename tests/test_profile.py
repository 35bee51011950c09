"""Hermite convergents (criterion + traversal oracle) and the piecewise profile."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from growthcap import (
    PHI,
    PSI,
    Surd,
    UpperHalfPoint,
    build_profile,
    cf_expand,
    convergents,
    growth_capacity,
    hermite_convergents,
    hermite_oracle_geodesic,
    humbert_is_hermite,
    lagrange_number_estimate,
    lambda_n,
    local_minima,
    sup_of_minima,
)
from growthcap.markoff import fibonacci

from conftest import NAMED_X


# -- Humbert criterion ----------------------------------------------------------


def test_phi_hermite_set_excludes_first_convergent():
    # 1/1 approximates phi with u = q(p - qx) = phi - 1 > 1/2: not Hermite
    assert not humbert_is_hermite(PHI, 1, 1)
    for p, q in [(2, 1), (3, 2), (5, 3), (8, 5), (13, 8)]:
        assert humbert_is_hermite(PHI, p, q)


def test_sqrt7_hermite_pattern_is_razor_thin():
    x = Surd(-1, 1, 1, 7)
    cs = convergents(cf_expand(x), 11)
    verdicts = [humbert_is_hermite(x, c.p, c.q) for c in cs[1:]]
    # classical n = 1..10: alternating accept/reject
    assert verdicts == [True, False, True, False, True, False, True, False, True, False]


def test_irreducibility_required():
    with pytest.raises(ValueError, match="fraction not irreducible"):
        humbert_is_hermite(PHI, 4, 2)


def test_non_convergents_can_still_be_tested():
    # the criterion is defined for any irreducible fraction; a bad
    # approximation like 1/3 of phi is never Hermite
    assert not humbert_is_hermite(PHI, 1, 3)


def test_hermite_convergents_pinned_lists():
    assert [(h.p, h.q) for h in hermite_convergents(PHI, 6)] == [
        (2, 1),
        (3, 2),
        (5, 3),
        (8, 5),
        (13, 8),
    ]
    assert [(h.p, h.q) for h in hermite_convergents(Surd(-1, 1, 1, 7), 10)] == [
        (2, 1),
        (5, 3),
        (28, 17),
        (79, 48),
        (446, 271),
    ]


def test_hermite_ranks_and_classical_indices():
    hs = hermite_convergents(Surd(-1, 1, 1, 7), 10)
    assert [h.n for h in hs] == [1, 3, 5, 7, 9]
    assert [h.hermite_rank for h in hs] == [0, 1, 2, 3, 4]


def test_non_hermite_gap_exceeds_half_exactly(named_x):
    # classical-but-not-Hermite convergents have |q(qx-p)| > 1/2
    half = Fraction(1, 2)
    rejected = 0
    for x in named_x.values():
        cs = convergents(cf_expand(x), 21)
        for c in cs[1:]:
            if not humbert_is_hermite(x, c.p, c.q):
                u = abs(c.q * (c.q * x - c.p))
                assert u > half
                rejected += 1
    assert rejected > 10


# -- geodesic traversal oracle -----------------------------------------------------


def test_oracle_matches_filter_for_all_named_x(named_x):
    for x in named_x.values():
        cusps = hermite_oracle_geodesic(x, 20000)
        hs = hermite_convergents(x, 40)
        expected = [Fraction(h.p, h.q) for h in hs][: len(cusps)]
        assert cusps == expected
        assert len(cusps) >= 4


def test_oracle_deep_run_sqrt7():
    x = Surd(-1, 1, 1, 7)
    cusps = hermite_oracle_geodesic(x, 10**5)
    assert cusps == [Fraction(2, 1), Fraction(5, 3), Fraction(28, 17), Fraction(79, 48), Fraction(446, 271)]


def test_oracle_phi_cusp_count_at_1000():
    got = hermite_oracle_geodesic(PHI, 1000)
    fib = fibonacci(8)
    expected = [Fraction(fib[i + 1], fib[i]) for i in range(7)]
    assert got == expected


def test_oracle_needs_room():
    with pytest.raises(ValueError, match="t_max"):
        hermite_oracle_geodesic(PHI, 1)


# -- profile construction ------------------------------------------------------------


def test_breakpoints_increase_and_join_continuously(named_x):
    for x in named_x.values():
        prof = build_profile(x, 12)
        for p0, p1 in zip(prof.pieces, prof.pieces[1:]):
            assert p0.sq_end == p1.sq_start
            # continuity: both pieces give the same value at the shared square
            sq = p0.sq_end
            lhs = p0.A * sq + p0.B
            rhs = p1.A * sq + p1.B
            assert lhs == rhs
        sqs = [prof.pieces[0].sq_start] + [p.sq_end for p in prof.pieces]
        for lo, hi in zip(sqs, sqs[1:]):
            assert lo < hi


def test_profile_needs_two_pieces():
    with pytest.raises(ValueError, match="N >= 2"):
        build_profile(PHI, 1)


def test_profile_rejects_rationals():
    with pytest.raises(ValueError, match="rational input"):
        build_profile(Surd.from_rational(Fraction(2, 3)), 5)


def test_envelope_identity_exact(named_x):
    # the piecewise formula equals the reduction-path capacity, exactly,
    # at rational heights — the central cross-module consistency check
    rng = random.Random(101)
    for x in named_x.values():
        prof = build_profile(x, 14)
        for _ in range(40):
            t = Fraction(rng.randint(1, 10**5), rng.randint(1, 997))
            f_profile = prof.evaluate(t)
            f_reduce = growth_capacity(UpperHalfPoint(x, Fraction(1, 1) / t))
            assert f_profile == f_reduce


def test_sky_region_is_linear():
    prof = build_profile(PHI, 4)
    assert prof.evaluate(Fraction(1, 2)) == Fraction(1, 2)
    assert prof.evaluate(Fraction(9, 10)) == Fraction(9, 10)


def test_evaluate_errors():
    prof = build_profile(PHI, 4)
    with pytest.raises(ValueError, match="t > 0"):
        prof.evaluate(Fraction(0))
    with pytest.raises(ValueError, match="beyond the computed profile"):
        prof.evaluate(Fraction(10**9))


def test_evaluate_mpf_tier_matches_exact():
    prof = build_profile(PSI, 10)
    for tq in (Fraction(7, 3), Fraction(50, 7), Fraction(901, 13)):
        exact = prof.evaluate(tq)
        approx = prof.evaluate(mp.mpf(tq.numerator) / tq.denominator)
        assert abs(exact.to_mpf() - approx) < mp.mpf("1e-30")


# -- minima ---------------------------------------------------------------------------


def test_minima_identity_with_lambda(named_x):
    for x in named_x.values():
        prof = build_profile(x, 10)
        for piece, (t0, fmin) in zip(prof.pieces, local_minima(prof)):
            # fmin = 2 q |q x - p| and fmin * lambda_n = 2
            assert fmin == 2 * piece.q * abs(piece.q * x - piece.p)
            if piece.n >= 1:  # lambda is undefined at n=0 (0/1 can be Hermite)
                assert fmin * lambda_n(x, piece.n) == 2
            # vertex t0 satisfies A t0^2 = B (the dip of A t + B/t)
            assert piece.A * t0 * t0 == piece.B


def test_minima_inside_their_pieces(named_x):
    for x in named_x.values():
        prof = build_profile(x, 10)
        for piece, (t0, _) in zip(prof.pieces[1:], local_minima(prof)[1:]):
            sq0 = t0 * t0
            assert piece.sq_start <= sq0 <= piece.sq_end


def test_phi_minima_closed_form():
    # for the golden ratio the piece minima are 2 F_r / phi^(r+2) exactly,
    # descending to the floor 2/sqrt(5)
    prof = build_profile(PHI, 20)
    fib = fibonacci(20)
    for piece, (_, fmin) in zip(prof.pieces, local_minima(prof)):
        r = piece.hermite_rank
        assert fmin * PHI ** (r + 2) == 2 * fib[r]
    floor = Surd(0, 2, 5, 5)  # 2/sqrt(5)
    vals = [fmin for _, fmin in local_minima(prof)]
    # the minima alternate around the floor (even ranks below, odd above)
    # and converge to it at rate phi^(-2r)
    for r, v in enumerate(vals):
        assert (v < floor) if r % 2 == 0 else (v > floor)
    assert abs(vals[-1].to_mpf() - floor.to_mpf()) < mp.mpf("1e-7")


def test_sup_of_minima_exact_values():
    assert sup_of_minima(PHI) == Surd(0, 2, 5, 5)
    assert sup_of_minima(PSI) == Surd(0, 1, 2, 2)
    assert sup_of_minima(Surd(-1, 1, 1, 2)) == Surd(0, 1, 2, 2)
    assert sup_of_minima(Surd(-1, 1, 1, 3)) == Surd(0, 1, 3, 3)
    assert sup_of_minima(Surd(11, 1, 10, 221)) == Surd(0, 10, 221, 221)


def test_sup_of_minima_is_two_over_lagrange(named_x):
    for x in named_x.values():
        L = lagrange_number_estimate(x)
        assert sup_of_minima(x) * L == 2


# -- golden-ratio breakpoint asymptotics ------------------------------------------------


def test_phi_breakpoints_track_powers():
    # entry breakpoint of rank-r piece ~ phi^(2r+3)/sqrt(5), relative error
    # below 1e-3 from rank 8 on
    prof = build_profile(PHI, 16)
    phi = PHI.to_mpf()
    s5 = mp.sqrt(5)
    for piece in prof.pieces[8:13]:
        t = mp.sqrt(piece.sq_start.to_mpf())
        target = phi ** (2 * piece.hermite_rank + 3) / s5
        assert abs(t / target - 1) < mp.mpf("1e-3")


def test_phi_breakpoint_sums_approach_even_powers():
    # (t_{r+1}^2 - t_r^2)/(t_{r+1} - t_r) = t_{r+1} + t_r ~ phi^(2(r+2)),
    # within 1% by rank 14
    prof = build_profile(PHI, 18)
    phi = PHI.to_mpf()
    ts = [mp.sqrt(p.sq_start.to_mpf()) for p in prof.pieces]
    for r in (12, 13, 14):
        ratio = (ts[r + 1] ** 2 - ts[r] ** 2) / (ts[r + 1] - ts[r]) / phi ** (2 * (r + 2))
        assert abs(ratio - 1) < 0.01
    assert abs((ts[15] + ts[14]) / phi ** 32 - 1) < 0.01


# -- the lazy Hermite stream ---------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 10, 40])
def test_build_profile_tests_each_convergent_once(named_x, monkeypatch, N):
    import growthcap.profile as profile_mod

    for x in named_x.values():
        hermite = hermite_convergents(x, 4 * N + 24)
        last = hermite[N].n  # classical index of the (N+1)-th Hermite convergent
        calls = []

        def counting(x_, p, q, _real=humbert_is_hermite):
            calls.append((p, q))
            return _real(x_, p, q)

        monkeypatch.setattr(profile_mod, "humbert_is_hermite", counting)
        prof = build_profile(x, N)
        monkeypatch.undo()
        assert len(prof.pieces) == N
        assert calls == [(c.p, c.q) for c in convergents(cf_expand(x), last + 1)]
