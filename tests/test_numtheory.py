"""Integer primitives against brute-force oracles and pinned small cases."""

import math

import numpy as np
import pytest

import support
from shorlab import numtheory as nt
from shorlab.pipeline import LB_TABLE


def test_gcd_pinned_values():
    assert nt.gcd_euclid(91, 3) == 1
    assert nt.gcd_euclid(26, 91) == 13
    assert nt.gcd_euclid(12, 12) == 12
    assert nt.gcd_euclid(0, 7) == 7


def test_gcd_rejects_invalid():
    with pytest.raises(ValueError):
        nt.gcd_euclid(0, 0)
    with pytest.raises(ValueError):
        nt.gcd_euclid(-4, 6)


def test_gcd_recursion_and_divisibility():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = int(rng.integers(0, 10**9))
        b = int(rng.integers(1, 10**9))
        g = nt.gcd_euclid(a, b)
        assert a % g == 0 and b % g == 0
        assert g == nt.gcd_euclid(b, a % b)  # one unrolling of the recursion
        # scaling both arguments scales the gcd: any common divisor divides it
        d = int(rng.integers(1, 1000))
        assert nt.gcd_euclid(a * d, b * d) == g * d


def test_mod_pow_pinned_values():
    assert nt.mod_pow(3, 5, 91) == 61
    assert nt.mod_pow(3, 6, 91) == 1
    assert nt.mod_pow(10, 0, 7) == 1
    with pytest.raises(ValueError):
        nt.mod_pow(3, 5, 1)


def test_mod_pow_matches_naive_product():
    rng = np.random.default_rng(2)
    for _ in range(2):  # every exponent up to 1000 on random (m, n)
        m = int(rng.integers(0, 5000))
        n = int(rng.integers(2, 5000))
        for e in range(1001):
            assert nt.mod_pow(m, e, n) == support.naive_mod_pow(m, e, n)
    for _ in range(200):
        m = int(rng.integers(0, 5000))
        n = int(rng.integers(2, 5000))
        e = int(rng.integers(0, 1001))
        assert nt.mod_pow(m, e, n) == support.naive_mod_pow(m, e, n)


def test_miller_rabin_pinned_values():
    rng = np.random.default_rng(3)
    assert nt.miller_rabin(91, 20, rng).kind == "composite"
    assert nt.miller_rabin(13, 20, rng).kind == "probable_prime"
    assert nt.miller_rabin(2, 20, rng).kind == "probable_prime"
    with pytest.raises(ValueError):
        nt.miller_rabin(1, 20, rng)
    with pytest.raises(ValueError):
        nt.miller_rabin(13, 0, rng)


def test_miller_rabin_error_bound_and_witness():
    rng = np.random.default_rng(4)
    assert nt.miller_rabin(101, 20, rng).error_bound == 2.0**-20

    def strong_probable_prime(n, base):
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        x = pow(base, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    for n in (91, 15, 341, 561, 25326001):  # includes Carmichael and pseudoprime cases
        verdict = nt.miller_rabin(n, 20, rng)
        assert verdict.kind == "composite"
        assert verdict.witness is not None
        assert not strong_probable_prime(n, verdict.witness)


def test_miller_rabin_never_rejects_true_primes():
    rng = np.random.default_rng(5)
    for p in support.sieve_primes(10**4):
        assert nt.miller_rabin(p, 8, rng).kind == "probable_prime", p


def test_multiplicative_order_pinned_values():
    assert nt.multiplicative_order(3, 91) == 6
    assert nt.multiplicative_order(1, 17) == 1
    assert nt.multiplicative_order(2, 15) == 4
    with pytest.raises(ValueError):
        nt.multiplicative_order(6, 15)


def test_multiplicative_order_is_minimal():
    rng = np.random.default_rng(6)
    found = 0
    while found < 100:
        n = int(rng.integers(3, 500))
        m = int(rng.integers(2, n))
        if nt.gcd_euclid(m, n) != 1:
            continue
        found += 1
        period = nt.multiplicative_order(m, n)
        assert nt.mod_pow(m, period, n) == 1
        for j in range(1, period):
            assert nt.mod_pow(m, j, n) != 1


def test_euler_totient_pinned_values():
    assert nt.euler_totient(6) == 2
    assert nt.euler_totient(7) == 6
    assert nt.euler_totient(1) == 1
    with pytest.raises(ValueError):
        nt.euler_totient(0)


def test_distinct_prime_factors():
    assert nt.distinct_prime_factors(91) == {7, 13}
    assert nt.distinct_prime_factors(8) == {2}
    assert nt.distinct_prime_factors(30) == {2, 3, 5}
    with pytest.raises(ValueError):
        nt.distinct_prime_factors(1)


def test_smallest_magnitude_residue_pinned_values():
    assert nt.smallest_magnitude_residue(80718, 16384) == -1202
    assert nt.smallest_magnitude_residue(2, 4) == 2  # upper boundary inclusive
    assert nt.smallest_magnitude_residue(7, 4) == -1
    with pytest.raises(ValueError):
        nt.smallest_magnitude_residue(5, 0)


def test_smallest_magnitude_residue_range_and_congruence():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        q = int(rng.integers(1, 10**6))
        a = int(rng.integers(-10 * q, 10 * q + 1))
        r = nt.smallest_magnitude_residue(a, q)
        assert (a - r) % q == 0
        assert -q < 2 * r <= q  # i.e. r in (-q/2, q/2]
    for q in range(1, 9):  # exhaustive at small moduli, boundaries included
        for a in range(-3 * q, 3 * q + 1):
            r = nt.smallest_magnitude_residue(a, q)
            assert (a - r) % q == 0 and -q < 2 * r <= q


def test_totient_ratio_clears_tabulated_floors():
    for period, floor in LB_TABLE.items():
        ratio = nt.euler_totient(period) / (period / math.log(math.log(period)))
        assert ratio >= floor - 1e-3, (period, ratio, floor)


def test_is_perfect_power():
    assert nt.is_perfect_power(9)
    assert nt.is_perfect_power(27)
    assert nt.is_perfect_power(1024)
    assert not nt.is_perfect_power(91)
    assert not nt.is_perfect_power(2)


def test_is_perfect_power_past_float_range():
    # The float root n ** (1/k) misses the first (it rounds past 2**53) and
    # overflows on the second.
    assert nt.is_perfect_power((2**60 + 33) ** 2)
    assert nt.is_perfect_power(3**700)
    assert nt.is_perfect_power((2**61 - 1) ** 3)
    assert not nt.is_perfect_power((2**60 + 33) ** 2 + 1)
    assert not nt.is_perfect_power(3**700 + 1)


def test_is_perfect_power_matches_brute_force():
    powers = {b**k for b in range(2, 64) for k in range(2, 13) if b**k < 4096}
    for n in range(1, 4096):
        assert nt.is_perfect_power(n) == (n in powers), n


def test_integer_root_brackets_the_root():
    for n in range(200):
        for k in range(1, 6):
            b = nt.integer_root(n, k)
            assert b**k <= n < (b + 1) ** k
    for b, k in ((2**60 + 33, 2), (3**100, 7), (10**30 + 7, 5)):
        assert nt.integer_root(b**k, k) == b
        assert nt.integer_root(b**k - 1, k) == b - 1
        assert nt.integer_root((b + 1) ** k - 1, k) == b
    with pytest.raises(ValueError):
        nt.integer_root(-1, 2)
    with pytest.raises(ValueError):
        nt.integer_root(8, 0)


def test_miller_rabin_past_int64():
    rng = np.random.default_rng(6)
    assert nt.miller_rabin(2**89 - 1, 20, rng).kind == "probable_prime"
    n = (2**60 + 33) ** 2
    verdict = nt.miller_rabin(n, 20, rng)
    assert verdict.kind == "composite"
    assert 2 <= verdict.witness <= n - 2
    assert not nt._mr_round_passes(n, verdict.witness)
    # Seeded: the same generator state gives the same witness.
    assert nt.miller_rabin(n, 20, np.random.default_rng(6)).witness == nt.miller_rabin(
        n, 20, np.random.default_rng(6)
    ).witness


def test_miller_rabin_keeps_the_int64_draw_below_2_63():
    # Below 2**63 the bases are still numpy's bounded draw, so seeded runs
    # keep their witnesses (and the factor command its JSON).
    for n in (1000003 * 1000033, 3 * (2**61 - 1)):
        expected = int(np.random.default_rng(9).integers(2, n - 1))
        assert not nt._mr_round_passes(n, expected)  # the first draw is a witness
        assert nt.miller_rabin(n, 20, np.random.default_rng(9)).witness == expected
    bases = {nt._random_base(2**64 + 13, np.random.default_rng(seed)) for seed in range(50)}
    assert len(bases) == 50 and all(2 <= b <= 2**64 + 11 for b in bases)


def test_nearest_int_tie_rule_matches_residue():
    # ties go down so that a - q*nearest(a, q) stays in (-q/2, q/2]
    assert nt.nearest_int(3, 2) == 1
    assert nt.nearest_int(5, 2) == 2
    assert nt.nearest_int(-3, 2) == -2
    assert nt.nearest_int(80718, 16384) == 5
