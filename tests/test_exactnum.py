"""Exact quadratic arithmetic, continued fractions, and the literal parser."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from growthcap import (
    PHI,
    PSI,
    Surd,
    SurdParseError,
    cf_expand,
    complete_quotient,
    convergents,
    lagrange_number_estimate,
    lambda_n,
    parse_omega,
    parse_surd,
    periodic_value,
    surd_compare,
)

from conftest import NAMED_X

SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 221, 1517]

surd_coeffs = st.tuples(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(1, 30),
    st.sampled_from(SQUAREFREE),
)


def mk(t):
    a, b, c, d = t
    return Surd(a, b, c, d)


# -- canonical form -----------------------------------------------------------


def test_canonicalization_gcd_and_sign():
    s = Surd(2, 4, -6, 5)
    assert (s.a, s.b, s.c, s.d) == (-1, -2, 3, 5)
    assert s == Surd(-1, -2, 3, 5)


def test_square_factor_extraction():
    assert Surd(0, 1, 1, 8) == Surd(0, 2, 1, 2)
    assert Surd(0, 1, 1, 12) == Surd(0, 2, 1, 3)
    assert Surd(0, 3, 2, 50) == Surd(0, 15, 2, 2)


def test_square_radicand_folds_to_rational():
    s = Surd(1, 2, 3, 9)  # (1 + 2*3)/3
    assert s.is_rational and s.as_fraction() == Fraction(7, 3)
    assert s.d == 0 and s.b == 0


def test_rational_storage():
    s = Surd.from_rational(Fraction(-6, 4))
    assert (s.a, s.b, s.c, s.d) == (-3, 0, 2, 0)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError, match="zero denominator"):
        Surd(1, 1, 0, 5)


def test_negative_radicand_rejected():
    with pytest.raises(ValueError, match="not a real surd"):
        Surd(1, 1, 1, -2)


def test_large_residual_two_prime_factors_is_decided_exactly():
    # residual below 1e12 after trial division: still canonicalized exactly
    p, q = 999979, 999983
    s = Surd(0, 1, 1, p * q)
    assert s.d == p * q and s.b == 1
    sq = Surd(0, 1, 1, p * p)  # perfect square of a large prime
    assert sq.is_rational and sq.as_fraction() == p


def test_huge_radicand_uses_factorint_when_available():
    p, q = 10000019, 10000079
    s = Surd(0, 1, 1, p * p * q)  # needs real factoring; sympy is installed here
    assert s.b == p and s.d == q


def test_huge_radicand_error_without_factoring_backend(monkeypatch):
    import growthcap.exactnum as ex

    monkeypatch.setitem(sys.modules, "sympy", None)
    p, q = 10000019, 10000079
    with pytest.raises(ValueError, match="too large to canonicalize exactly"):
        ex.Surd(0, 1, 1, p * p * q)


def test_immutability():
    with pytest.raises(AttributeError):
        PHI.a = 3


# -- arithmetic ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(surd_coeffs, surd_coeffs)
def test_field_arithmetic_same_radicand(t1, t2):
    d = t1[3]
    x = Surd(t1[0], t1[1], t1[2], d)
    y = Surd(t2[0], t2[1], t2[2], d)
    s = x + y
    assert s - y == x
    p = x * y
    if y != Surd(0, 0, 1, 0) and not (y.is_rational and y.as_fraction() == 0):
        assert p / y == x
    assert -(-x) == x
    assert abs(x) >= Surd(0, 0, 1, 0) or abs(x) == x * (-1)


@settings(max_examples=200, deadline=None)
@given(surd_coeffs)
def test_inverse_and_conjugate_norm(t):
    x = mk(t)
    if x == Surd(0, 0, 1, 0):
        return
    assert x * x.inverse() == Surd(1, 0, 1, 0)
    n = x * x.conjugate()
    assert n.is_rational


@settings(max_examples=200, deadline=None)
@given(surd_coeffs, st.integers(0, 6))
def test_integer_powers(t, k):
    x = mk(t)
    expected = Surd(1, 0, 1, 0)
    for _ in range(k):
        expected = expected * x
    assert x**k == expected


@settings(max_examples=300, deadline=None)
@given(surd_coeffs)
def test_floor_matches_high_precision_float(t):
    x = mk(t)
    with mp.workprec(300):
        v = x.to_mpf()
    fl = x.floor()
    assert fl <= v < fl + 1


@settings(max_examples=200, deadline=None)
@given(surd_coeffs, surd_coeffs)
def test_compare_consistent_with_floats(t1, t2):
    d = t1[3]
    x = Surd(t1[0], t1[1], t1[2], d)
    y = Surd(t2[0], t2[1], t2[2], d)
    c = surd_compare(x, y)
    with mp.workprec(300):
        dv = x.to_mpf() - y.to_mpf()
    if c == 0:
        assert x == y
    else:
        assert (dv > 0) == (c > 0)


def test_rationals_compare_across_any_radicand():
    assert Surd(1, 0, 2, 0) < Surd(2, 1, 2, 5)
    assert Surd.from_rational(Fraction(3, 2)) == Fraction(3, 2)


def test_cross_field_equality_is_false_not_error():
    assert not (Surd(0, 1, 1, 2) == Surd(0, 1, 1, 3))
    assert Surd(0, 1, 1, 2) != Surd(0, 1, 1, 3)


def test_cross_field_comparison_raises():
    with pytest.raises(ValueError, match="^incomparable exactly"):
        surd_compare(Surd(0, 1, 1, 2), Surd(0, 1, 1, 3))
    with pytest.raises(ValueError, match="^incomparable exactly"):
        _ = Surd(0, 1, 1, 2) < Surd(0, 1, 1, 3)
    with pytest.raises(ValueError, match="^incomparable exactly"):
        _ = Surd(0, 1, 1, 2) + Surd(0, 1, 1, 3)


def test_hash_consistency():
    assert hash(Surd.from_rational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(Surd(2, 4, -6, 5)) == hash(Surd(-1, -2, 3, 5))


def test_surd_make_and_mixed_ops():
    x = Surd(1, 1, 2, 5)
    assert x == PHI
    assert x + 1 == Surd(3, 1, 2, 5)
    assert 2 * x == Surd(1, 1, 1, 5)
    assert x - Fraction(1, 2) == Surd(0, 1, 2, 5)


def test_to_mpf_survives_catastrophic_cancellation():
    cs = convergents(cf_expand(PHI), 120)
    p, q = cs[-1].p, cs[-1].q
    tiny = (q * PHI - p) ** 2
    with mp.workprec(128):
        v = tiny.to_mpf()
        assert v > 0
        # exact inverse recomputed independently must multiply back to 1
        assert abs(v * tiny.inverse().to_mpf() - 1) < mp.mpf(2) ** -100


# -- parser ---------------------------------------------------------------------


def test_parse_named_shorthands():
    assert parse_surd("phi") == PHI
    assert parse_surd("psi") == PSI
    assert parse_surd("sqrt(8)") == Surd(0, 2, 1, 2)
    assert parse_surd("sqrt(2)-1") == Surd(-1, 1, 1, 2)
    assert parse_surd("(11+1*sqrt(221))/10") == Surd(11, 1, 10, 221)
    assert parse_surd("3/4") == Fraction(3, 4)
    assert parse_surd("0.25") == Fraction(1, 4)


@settings(max_examples=200, deadline=None)
@given(surd_coeffs)
def test_literal_round_trip(t):
    x = mk(t)
    back = parse_surd(x.literal())
    if isinstance(back, Fraction):
        assert x.is_rational and x.as_fraction() == back
    else:
        assert back == x


def test_parse_omega_forms():
    assert parse_omega("2i") == (0, Fraction(2))
    assert parse_omega("i/2") == (0, Fraction(1, 2))
    re, im = parse_omega("phi + i/10")
    assert re == PHI and im == Fraction(1, 10)
    re, im = parse_omega("0.3 + 0.9i")
    assert re == Fraction(3, 10) and im == Fraction(9, 10)
    re, im = parse_omega("1/2 + sqrt(3)/2 * i")
    assert re == Fraction(1, 2) and im == Surd(0, 1, 2, 3)


def test_parse_error_positions():
    with pytest.raises(SurdParseError, match=r"parse error at position 4") as ei:
        parse_surd("1 + @")
    assert ei.value.pos == 4
    with pytest.raises(SurdParseError, match="unknown name"):
        parse_surd("tau + 1")
    with pytest.raises(SurdParseError):
        parse_surd("(1 + 2")
    with pytest.raises(SurdParseError, match="imaginary"):
        parse_surd("1 + 2i")


# -- continued fractions --------------------------------------------------------


def test_cf_expansions_pinned():
    assert (cf_expand(PHI).preperiod, cf_expand(PHI).period) == ((1,), (1,))
    assert (cf_expand(PSI).preperiod, cf_expand(PSI).period) == ((2,), (2,))
    assert (cf_expand(Surd(-1, 1, 1, 2)).preperiod, cf_expand(Surd(-1, 1, 1, 2)).period) == ((0,), (2,))
    c7 = cf_expand(Surd(-1, 1, 1, 7))
    assert (c7.preperiod, c7.period) == ((1,), (1, 1, 1, 4))
    c221 = cf_expand(Surd(11, 1, 10, 221))
    assert (c221.preperiod, c221.period) == ((2,), (1, 1, 2, 2))


def test_cf_rejects_rationals_and_non_surds():
    with pytest.raises(ValueError, match="rational input: finite expansion"):
        cf_expand(Surd.from_rational(Fraction(3, 4)))
    with pytest.raises(TypeError):
        cf_expand(0.5)


@pytest.mark.parametrize("name", sorted(NAMED_X))
def test_convergents_approximate_well(name):
    x = NAMED_X[name]
    cs = convergents(cf_expand(x), 18)
    for c in cs[1:]:
        err = abs(x - Fraction(c.p, c.q))
        assert err < Fraction(1, c.q * c.q)
    for c0, c1 in zip(cs, cs[1:]):
        assert abs(c1.p * c0.q - c0.p * c1.q) == 1


def test_convergents_of_phi_are_fibonacci_ratios():
    cs = convergents(cf_expand(PHI), 6)
    assert [(c.p, c.q) for c in cs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8)]


def test_complete_quotient_is_exact_tail():
    # after the preperiod the tail of sqrt(7)-1 cycles with period 4
    x = Surd(-1, 1, 1, 7)
    t1 = complete_quotient(x, 1)
    t5 = complete_quotient(x, 5)
    assert t1 == t5
    assert complete_quotient(PHI, 3) == PHI


def test_lambda_identity_exact():
    for x in NAMED_X.values():
        cs = convergents(cf_expand(x), 13)
        for n in range(1, 13):
            lam = lambda_n(x, n)
            p, q = cs[n].p, cs[n].q
            assert abs(q * (q * x - p)) * lam == 1


def test_lambda_3_of_phi():
    assert lambda_n(PHI, 3) == Fraction(2, 3) + PHI


def test_lambda_0_undefined():
    with pytest.raises(ValueError, match="undefined for n=0"):
        lambda_n(PHI, 0)


# -- periodic values and Lagrange numbers ----------------------------------------


def test_periodic_value_fixed_points():
    assert periodic_value((1,)) == PHI
    assert periodic_value((2,)) == PSI
    v = periodic_value((1, 2))
    # x = 1 + 1/(2 + 1/x)  =>  2x^2 - 2x - 1 = 0  =>  x = (1+sqrt(3))/2
    assert v == Surd(1, 1, 2, 3)


def test_lagrange_numbers_exact():
    assert lagrange_number_estimate(PHI) == Surd(0, 1, 1, 5)
    assert lagrange_number_estimate(PSI) == Surd(0, 2, 1, 2)
    assert lagrange_number_estimate(Surd(-1, 1, 1, 2)) == Surd(0, 2, 1, 2)
    assert lagrange_number_estimate(Surd(-1, 1, 1, 3)) == Surd(0, 2, 1, 3)
    assert lagrange_number_estimate(Surd(-1, 1, 1, 7)) == Surd(0, 2, 1, 7)
    assert lagrange_number_estimate(Surd(11, 1, 10, 221)) == Surd(0, 1, 5, 221)


def test_lagrange_number_is_the_limsup_of_lambdas():
    # lambda_n approaches its limit cycle from both sides (lambda_1(phi) =
    # 1+phi already exceeds sqrt(5)), so L is the limsup: the max over a
    # deep window must converge to it at rate ~ 1/q_n^2
    for x in NAMED_X.values():
        L = lagrange_number_estimate(x).to_mpf()
        window_max = max(lambda_n(x, n).to_mpf() for n in range(40, 50))
        assert abs(window_max - L) < mp.mpf("1e-12")


def _lagrange_by_rotations(x):
    """Reference L: max over the period's rotations of [rot] + 1/[reversed rot]."""
    word = cf_expand(x).period
    best = None
    for j in range(len(word)):
        rot = word[j:] + word[:j]
        lam = periodic_value(rot) + periodic_value(tuple(reversed(rot))).inverse()
        if best is None or lam > best:
            best = lam
    return best


def test_lagrange_from_states_matches_rotation_formula():
    rng = random.Random(20261018)
    xs = []
    while len(xs) < 210:
        x = Surd(
            rng.randint(-40, 40),
            rng.choice((-1, 1)) * rng.randint(1, 4),
            rng.randint(1, 12),
            rng.randint(2, 300),
        )
        if not x.is_rational and len(cf_expand(x).period) <= 60:
            xs.append(x)
    assert any(x.b < 0 for x in xs) and any(x.c > 1 for x in xs)
    for x in xs:
        assert lagrange_number_estimate(x) == _lagrange_by_rotations(x), x


def _periodic_mpf(word):
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in word:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    return (m00 - m11 + mp.sqrt((m00 - m11) ** 2 + 4 * m01 * m10)) / (2 * m10)


def test_lagrange_long_period_needs_no_factoring(monkeypatch):
    # sqrt(1000003) has period 458; the rotation formula would factor
    # radicands of hundreds of digits, which needs sympy
    monkeypatch.setitem(sys.modules, "sympy", None)
    x = Surd(0, 1, 1, 1000003)
    t0 = time.perf_counter()
    L = lagrange_number_estimate(x)
    assert time.perf_counter() - t0 < 2.0
    assert L.d == 1000003
    word = cf_expand(x).period
    assert len(word) == 458
    want = max(
        _periodic_mpf(word[j:] + word[:j]) + 1 / _periodic_mpf(tuple(reversed(word[j:] + word[:j])))
        for j in range(len(word))
    )
    assert abs(L.to_mpf() - want) < mp.mpf("1e-30")
