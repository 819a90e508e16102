"""Exact continued-fraction expansion of rationals and their convergents.

The expansion is computed as the Euclidean quotient sequence on the
numerator/denominator pair, never through floating point: float
reciprocals mis-round coefficients for denominators near powers of two,
exactly the regime the period-recovery step lives in.  The quotient
sequence automatically yields the normalized form (last coefficient > 1
unless the expansion is a single term), so expansions are unique.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .numtheory import gcd_euclid


@dataclass(frozen=True)
class CFExpansion:
    """A finite simple continued fraction [a0; a1, ..., aN] of a rational.

    ``convergents[n]`` is the reduced fraction (p_n, q_n) truncating the
    expansion after coefficient n; the last convergent equals
    numerator/denominator in lowest terms.
    """

    numerator: int
    denominator: int
    coefficients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]


def convergents(numerator: int, denominator: int) -> Iterator[tuple[int, int, int]]:
    """Yield (a_n, p_n, q_n) for numerator/denominator, one term per step.

    a_n is the n-th quotient of the Euclidean algorithm and p_n/q_n the
    convergent it completes, by the three-term recurrence seeded with
    p_0 = a_0, q_0 = 1, p_1 = a_1*a_0 + 1, q_1 = a_1, then
    p_n = a_n*p_{n-1} + p_{n-2} and likewise for q_n.  Nothing past the
    last term read is computed, so a caller that stops early pays only
    for the terms it used.
    """
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    if numerator < 0:
        raise ValueError("numerator must be non-negative")
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    while True:
        a, remainder = divmod(numerator, denominator)
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield a, p, q
        if remainder == 0:
            return
        numerator, denominator = denominator, remainder


def cf_expand(numerator: int, denominator: int) -> CFExpansion:
    """Full normalized expansion of numerator/denominator with its convergents.

    An input of 0/q expands to the single coefficient [0].
    """
    terms = list(convergents(numerator, denominator))
    return CFExpansion(
        numerator=numerator,
        denominator=denominator,
        coefficients=tuple(a for a, _, _ in terms),
        convergents=tuple((p, q) for _, p, q in terms),
    )


def is_convergent(a: int, b: int, numerator: int, denominator: int) -> bool:
    """True iff a/b in lowest terms is a convergent of numerator/denominator."""
    if b < 1:
        raise ValueError("b must be >= 1")
    g = gcd_euclid(a, b) if a else b
    target = (a // g, b // g)
    return target in cf_expand(numerator, denominator).convergents
