"""Markoff numbers and the bottom of the Lagrange spectrum.

Solutions of a^2 + b^2 + c^2 = 3abc ("Markoff triples") form a tree under
the Vieta flips (a,b,c) -> (b,c,3bc-a) etc., rooted at (1,1,1).  The
largest entries of the triples are the Markoff numbers m, and each one
contributes the value sqrt(9 m^2 - 4)/m to the Lagrange spectrum below 3.
The first two, m=1 and m=2, give sqrt(5) and sqrt(8) — the golden and
silver ratio classes — which is the arithmetic reason those two numbers
are the worst approximable and therefore the best packers here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .exactnum import PHI, PSI, Surd

__all__ = [
    "SpectrumEntry",
    "markoff_numbers",
    "lagrange_spectrum",
    "spectrum_constants",
    "fibonacci",
    "pell",
]


def markoff_numbers(limit: int) -> list[int]:
    """All Markoff numbers <= limit, ascending (BFS over the Vieta tree)."""
    if limit < 1:
        raise ValueError("need limit >= 1")
    found = set()
    seen = set()
    queue = deque([(1, 1, 1)])
    while queue:
        triple = queue.popleft()
        if triple in seen:
            continue
        seen.add(triple)
        a, b, c = triple
        found.update(triple)
        # flip the two smaller entries; both replacements exceed the current
        # max, so the tree only grows and pruning on the max is safe (every
        # Markoff number is the max of the triple it is born in)
        children = (
            tuple(sorted((b, c, 3 * b * c - a))),
            tuple(sorted((a, c, 3 * a * c - b))),
        )
        for child in children:
            if child not in seen and child[2] <= limit:
                queue.append(child)
    return sorted(found)


@dataclass(frozen=True)
class SpectrumEntry:
    """One point of the Lagrange spectrum below 3: L = sqrt(9 m^2 - 4)/m."""

    m: int
    L: Surd

    @property
    def packing_floor(self) -> Surd:
        # the sup-of-minima value of the corresponding class, 2/L
        return self.L.inverse() * 2


def _entry(m: int) -> SpectrumEntry:
    return SpectrumEntry(m=m, L=Surd(0, 1, m, 9 * m * m - 4))


def lagrange_spectrum(count: int) -> list[SpectrumEntry]:
    """First `count` spectrum points below 3, in increasing order of L."""
    if count < 1:
        raise ValueError("need count >= 1")
    limit = 64
    while True:
        ms = markoff_numbers(limit)
        if len(ms) >= count:
            return [_entry(m) for m in ms[:count]]
        limit *= 8


def spectrum_constants() -> dict[int, Surd]:
    """Worst-approximable representative x for the first few Markoff classes.

    m=1 -> golden ratio, m=2 -> silver ratio; the m=5 and m=13 classes have
    the quadratic representatives (11+sqrt(221))/10 and (29+sqrt(1517))/26.
    """
    return {
        1: PHI,
        2: PSI,
        5: Surd(11, 1, 10, 221),
        13: Surd(29, 1, 26, 1517),
    }


def fibonacci(N: int) -> list[int]:
    """First N Fibonacci numbers indexed so the list reads 1, 2, 3, 5, 8, ...

    F_0 = 1, F_1 = 2: with this shift F_n is the denominator q_{n+1} of the
    golden ratio's convergents, and F_{n+1}/F_n are exactly its Hermite
    convergents.  In terms of the classical sequence, F_n here = F_{n+2}
    classically, so the closed form is F_n = (phi^(n+2) - (1-phi)^(n+2))/sqrt(5).
    """
    if N < 1:
        raise ValueError("need N >= 1")
    out = []
    a, b = 1, 2
    for _ in range(N):
        out.append(a)
        a, b = b, a + b
    return out


def pell(N: int) -> list[int]:
    """First N Pell numbers 1, 2, 5, 12, 29, ... — the silver-ratio analogue."""
    if N < 1:
        raise ValueError("need N >= 1")
    out = []
    a, b = 1, 2
    for _ in range(N):
        out.append(a)
        a, b = b, 2 * b + a
    return out
