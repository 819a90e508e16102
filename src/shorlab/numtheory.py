"""Exact integer arithmetic primitives and brute-force classical oracles.

Everything here runs on Python's arbitrary-precision integers, so products
up to 2*N^3 (the largest values the factoring pipeline produces) are exact
by construction.  The brute-force routines (multiplicative_order,
euler_totient) double as independent test oracles for the rest of the
package; keep them dumb and obviously correct.
"""

from __future__ import annotations

import numpy as np

# Desk-scale cap: keeps Q = O(N^2) register sizes and dense distributions
# materializable.  Not a correctness limit (all integer math is exact).
DEFAULT_MAX_N = 10**6


def gcd_euclid(a: int, b: int) -> int:
    """Greatest common divisor of two non-negative integers by Euclid's algorithm."""
    if a < 0 or b < 0:
        raise ValueError("gcd_euclid requires non-negative arguments")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus via square-and-multiply on the binary expansion.

    O(lg exponent) multiplications; used by the period test, which checks
    convergent denominators q as candidate periods by computing m**q mod N.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = 1
    base %= modulus
    while exponent > 0:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return result


def _mr_round_passes(n: int, base: int) -> bool:
    """Strong-probable-prime condition for one base.  False certifies compositeness."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def miller_rabin(n: int, rounds: int, rng: np.random.Generator) -> int | None:
    """Probabilistic primality test with ``rounds`` independent random bases.

    Returns a witness of compositeness (a base failing the
    strong-probable-prime condition, so the verdict is certain), or None
    for a probable prime, wrong with probability at most 2**-rounds.  For
    n < 100 the answer is settled by trial division instead, and a
    composite still gets a witness, so the certificate is uniform across
    both paths.
    """
    if n < 2:
        raise ValueError("primality is defined for n >= 2")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 100:
        return None if _trial_division_prime(n) else _small_mr_witness(n)
    for _ in range(rounds):
        base = _random_base(n, rng)
        if not _mr_round_passes(n, base):
            return base
    return None


def _random_base(n: int, rng: np.random.Generator) -> int:
    """A uniform base in [2, n - 2].

    numpy draws bounded integers only within int64, so from n = 2**63 on
    the base comes from the generator's random bytes, by rejection.
    """
    if n < 1 << 63:
        return int(rng.integers(2, n - 1))
    span = n - 3
    bits = span.bit_length()
    while True:
        value = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        if value < span:
            return 2 + value


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _small_mr_witness(n: int) -> int:
    # Composite n: at least 3/4 of bases are witnesses, so this terminates fast.
    for base in range(2, max(n - 1, 3)):
        if not _mr_round_passes(n, base):
            return base
    raise RuntimeError(f"no Miller-Rabin witness found for composite {n}")


def multiplicative_order(m: int, n: int) -> int:
    """Smallest P >= 1 with m**P = 1 mod n, by successive multiplication.

    Brute-force oracle; requires gcd(m, n) = 1.
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if gcd_euclid(m % n, n) != 1:
        raise ValueError(f"multiplicative order undefined: gcd({m}, {n}) != 1")
    x = m % n
    order = 1
    while x != 1:
        x = x * m % n
        order += 1
        if order > n:
            raise RuntimeError("order search exceeded modulus; unreachable for units")
    return order


def euler_totient(n: int) -> int:
    """phi(n): count of 1 <= k < n coprime to n, with phi(1) = 1. Brute force."""
    if n < 1:
        raise ValueError("totient is defined for n >= 1")
    if n == 1:
        return 1
    return sum(1 for k in range(1, n) if gcd_euclid(k, n) == 1)


def nearest_int(num: int, den: int) -> int:
    """Nearest integer to num/den, half-integer ties resolved downward.

    The tie rule is what makes the companion residue land in (-Q/2, Q/2]
    with the upper boundary inclusive.
    """
    if den < 1:
        raise ValueError("denominator must be >= 1")
    return (2 * num + den - 1) // (2 * den)


def smallest_magnitude_residue(a: int, q: int) -> int:
    """The representative of a mod q with smallest magnitude, in (-q/2, q/2]."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return a - q * nearest_int(a, q)


def integer_root(n: int, k: int) -> int:
    """The largest b >= 0 with b**k <= n, by Newton's method on integers.

    Starts above the root and decreases to it; never leaves the integers,
    so it is exact for any size of n.
    """
    if n < 0 or k < 1:
        raise ValueError("integer_root needs n >= 0 and k >= 1")
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) > n**(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_power(n: int) -> bool:
    """True iff n = b**k for integers b >= 2, k >= 2."""
    if n < 4:
        return False
    for k in range(2, n.bit_length() + 1):
        if integer_root(n, k) ** k == n:
            return True
    return False
