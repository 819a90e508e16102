"""Continued fractions: pinned expansions, recurrence seeds, and the
approximation property that period recovery leans on."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import support
from shorlab import contfrac

# Expansion of 13453/16384: the package's canonical worked example.
COEFFS_13453 = [0, 1, 4, 1, 1, 2, 3, 1, 1, 3, 1, 1, 1, 1, 3]
P_TABLE = [0, 1, 4, 5, 9, 23, 78, 101, 179, 638, 817, 1455, 2272, 3727, 13453]
Q_TABLE = [1, 1, 5, 6, 11, 28, 95, 123, 218, 777, 995, 1772, 2767, 4539, 16384]


def test_expand_worked_example():
    expansion = contfrac.cf_expand(13453, 16384)
    assert list(expansion.coefficients) == COEFFS_13453
    assert [p for p, _ in expansion.convergents] == P_TABLE
    assert [q for _, q in expansion.convergents] == Q_TABLE


def test_expand_worked_example_key_convergents():
    convergents = contfrac.cf_expand(13453, 16384).convergents
    assert convergents[2] == (4, 5)
    assert convergents[3] == (5, 6)
    assert convergents[14] == (13453, 16384)


def test_expand_trivial_inputs():
    assert list(contfrac.cf_expand(5, 1).coefficients) == [5]
    assert list(contfrac.cf_expand(1, 2).coefficients) == [0, 2]
    assert list(contfrac.cf_expand(0, 7).coefficients) == [0]
    assert contfrac.cf_expand(0, 7).convergents == ((0, 1),)


def test_expand_rejects_invalid():
    with pytest.raises(ValueError):
        contfrac.cf_expand(1, 0)
    with pytest.raises(ValueError):
        contfrac.cf_expand(-1, 3)


def test_normalization_and_reduced_convergents():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        den = int(rng.integers(1, 1 << 20))
        num = int(rng.integers(0, 2 * den))
        expansion = contfrac.cf_expand(num, den)
        coeffs = expansion.coefficients
        assert coeffs[0] >= 0
        assert all(a >= 1 for a in coeffs[1:])
        if len(coeffs) > 1:
            assert coeffs[-1] > 1  # uniqueness normalization
        for p, q in expansion.convergents:
            assert gcd(p, q) == 1
        qs = [q for _, q in expansion.convergents]
        assert all(qs[i] < qs[i + 1] for i in range(1, len(qs) - 1))
        p_last, q_last = expansion.convergents[-1]
        assert Fraction(p_last, q_last) == Fraction(num, den)


def test_convergents_match_recurrence_seeds():
    expansion = contfrac.cf_expand(13453, 16384)
    convergents = expansion.convergents
    a = expansion.coefficients
    assert convergents[0] == (a[0], 1)
    assert convergents[1] == (a[1] * a[0] + 1, a[1])
    for n in range(2, len(convergents)):
        p_n, q_n = convergents[n]
        assert p_n == a[n] * convergents[n - 1][0] + convergents[n - 2][0]
        assert q_n == a[n] * convergents[n - 1][1] + convergents[n - 2][1]


def test_round_trip_and_determinant_identity():
    support.check_cf_round_trip_and_determinant(count=10**4)


def test_alternating_enclosure():
    rng = np.random.default_rng(4)
    for _ in range(300):
        den = int(rng.integers(2, 1 << 20))
        num = int(rng.integers(1, den))
        target = Fraction(num, den)
        convergents = contfrac.cf_expand(num, den).convergents
        signs = [target - Fraction(p, q) for p, q in convergents]
        for n in range(len(signs) - 1):
            assert signs[n] == 0 or signs[n + 1] == 0 or (signs[n] > 0) != (signs[n + 1] > 0)
        # consecutive convergents bracket the target
        for n in range(len(convergents) - 1):
            lo = Fraction(*convergents[n])
            hi = Fraction(*convergents[n + 1])
            assert min(lo, hi) <= target <= max(lo, hi)


def test_close_approximations_are_convergents():
    support.check_close_approximations_are_convergents(count=10**3)


def test_is_convergent_pinned_values():
    assert contfrac.is_convergent(5, 6, 13453, 16384)
    assert not contfrac.is_convergent(1, 2, 13453, 16384)
    assert contfrac.is_convergent(0, 1, 0, 7)
    assert contfrac.is_convergent(10, 12, 13453, 16384)  # reduces to 5/6
    with pytest.raises(ValueError):
        contfrac.is_convergent(1, 0, 1, 2)
