"""Markoff tree, Lagrange spectrum values, and the companion sequences."""

from collections import deque
from fractions import Fraction
from math import isqrt

import pytest
from mpmath import mp

from growthcap import (
    PHI,
    PSI,
    Surd,
    fibonacci,
    lagrange_number_estimate,
    lagrange_spectrum,
    markoff_numbers,
    pell,
    spectrum_constants,
)


def markoff_numbers_brute(limit: int) -> list[int]:
    """Independent oracle: scan pairs (b, c) and solve the quadratic for a.

    c is a Markoff number iff some b <= c completes a triple, i.e. the
    discriminant 9 b^2 c^2 - 4 (b^2 + c^2) is a perfect square and the root
    a = (3bc - sqrt(disc))/2 is a positive integer <= b.  Quadratic in the
    limit, fine for limit ~ a few thousand.
    """
    if limit < 1:
        raise ValueError("need limit >= 1")
    out = []
    for c in range(1, limit + 1):
        hit = False
        for b in range(1, c + 1):
            disc = 9 * b * b * c * c - 4 * (b * b + c * c)
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            if (3 * b * c - s) % 2 == 0:
                a = (3 * b * c - s) // 2
                if 1 <= a <= b:
                    hit = True
                    break
        if hit:
            out.append(c)
    return out


PINNED_1500 = [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985, 1325]


def test_markoff_numbers_pinned():
    assert markoff_numbers(1500) == PINNED_1500


def test_markoff_matches_brute_oracle():
    assert markoff_numbers(1500) == markoff_numbers_brute(1500)
    assert markoff_numbers(3000) == markoff_numbers_brute(3000)


def test_markoff_small_limits():
    assert markoff_numbers(1) == [1]
    assert markoff_numbers(2) == [1, 2]
    assert markoff_numbers(4) == [1, 2]
    with pytest.raises(ValueError):
        markoff_numbers(0)


def test_every_markoff_number_sits_in_a_triple():
    ms = set(markoff_numbers(10**5))
    seen, queue = set(), deque([(1, 1, 1)])
    covered = set()
    while queue:
        t = queue.popleft()
        if t in seen:
            continue
        seen.add(t)
        a, b, c = t
        assert a * a + b * b + c * c == 3 * a * b * c
        covered.update(t)
        for child in (tuple(sorted((b, c, 3 * b * c - a))), tuple(sorted((a, c, 3 * a * c - b)))):
            if child not in seen and child[2] <= 10**5:
                queue.append(child)
    assert covered == ms


def test_spectrum_heads():
    entries = lagrange_spectrum(6)
    assert entries[0].L == Surd(0, 1, 1, 5)
    assert entries[1].L == Surd(0, 2, 1, 2)
    assert entries[2].L == Surd(0, 1, 5, 221)
    assert [e.m for e in entries] == [1, 2, 5, 13, 29, 34]
    for e in entries:
        # L = sqrt(9 m^2 - 4)/m two ways
        assert e.L * e.L == Fraction(9 * e.m * e.m - 4, e.m * e.m)
        assert e.L < 3
    Ls = [e.L.to_mpf() for e in entries]
    assert all(a < b for a, b in zip(Ls, Ls[1:]))


def test_spectrum_count_validation():
    with pytest.raises(ValueError):
        lagrange_spectrum(0)
    assert len(lagrange_spectrum(25)) == 25


def test_packing_floor_accessor():
    e = lagrange_spectrum(1)[0]
    assert e.packing_floor == Surd(0, 2, 5, 5)


def test_spectrum_constants_achieve_their_lagrange_numbers():
    for m, x in spectrum_constants().items():
        assert lagrange_number_estimate(x) == Surd(0, 1, m, 9 * m * m - 4)


def test_spectrum_constants_heads():
    cs = spectrum_constants()
    assert cs[1] == PHI and cs[2] == PSI
    assert cs[5] == Surd(11, 1, 10, 221)
    assert cs[13] == Surd(29, 1, 26, 1517)


def test_fibonacci_pinned_and_binet():
    assert fibonacci(6) == [1, 2, 3, 5, 8, 13]
    sqrt5 = Surd(0, 1, 1, 5)
    conj = Surd(1, -1, 2, 5)  # 1 - phi = -1/phi
    for n, F in enumerate(fibonacci(18)):
        binet = (PHI ** (n + 2) - conj ** (n + 2)) / sqrt5
        assert binet.is_rational and binet.as_fraction() == F


def test_pell_pinned_and_closed_form():
    assert pell(8) == [1, 2, 5, 12, 29, 70, 169, 408]
    sqrt2 = Surd(0, 1, 1, 2)
    conj = Surd(1, -1, 1, 2)  # 1 - sqrt(2)
    for n, P in enumerate(pell(14)):
        closed = (PSI ** (n + 1) - conj ** (n + 1)) / (2 * sqrt2)
        assert closed.is_rational and closed.as_fraction() == P


def test_sequence_validation():
    with pytest.raises(ValueError):
        fibonacci(0)
    with pytest.raises(ValueError):
        pell(-1)


def test_spectrum_approaches_three():
    tail = lagrange_spectrum(40)[-1]
    assert abs(tail.L.to_mpf() - 3) < mp.mpf("1e-6")
    assert tail.L < 3
