"""Shared oracles and property checks for the test suite.

The oracles here are deliberately independent of the library's own
implementations: naive repeated multiplication instead of
three-argument pow, bottom-up nested fractions instead of the convergent
recurrence, the dense transform matrix instead of the FFT path.  Property
checks raise AssertionError on violation; the acceptance gate re-runs
them under its time budget.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from shorlab import contfrac, engine
from shorlab.engine import (
    ModExpFunction,
    apply_modexp_entangler,
    apply_qft_reg1,
    initialize,
    register_size,
)
from shorlab.numtheory import smallest_magnitude_residue

# The (N, m) pairs every distribution-level check sweeps.
PAIRS = [(15, 2), (15, 7), (21, 2), (35, 2), (91, 3)]

# Euler's constant and e**-gamma, the liminf that pipeline.LB_TABLE's
# tabulated floors approach from below.
EULER_GAMMA = 0.57721566490153286061
E_MINUS_GAMMA = 0.5614594836


def naive_mod_pow(base: int, exponent: int, modulus: int) -> int:
    """e-fold product, no squaring tricks."""
    result = 1
    for _ in range(exponent):
        result = result * base % modulus
    return result


def brute_order(m: int, n: int) -> int:
    x = m % n
    order = 1
    while x != 1:
        x = x * m % n
        order += 1
    return order


def sieve_primes(limit: int) -> list[int]:
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.nonzero(flags)[0]]


def nested_fraction_value(coefficients) -> Fraction:
    """Evaluate [a0; a1, ..., aN] bottom-up as a nested fraction."""
    value = Fraction(coefficients[-1])
    for a in reversed(coefficients[:-1]):
        value = a + 1 / value
    return value


def dense_transform_matrix(q: int) -> np.ndarray:
    """The Q-point transform as an explicit unitary matrix (test oracle)."""
    indices = np.arange(q)
    return np.exp(2j * np.pi / q * np.outer(indices, indices)) / math.sqrt(q)


def direct_sum_prob(y: int, period: int, q_total: int) -> float:
    """P(y) = sum_k |sum_{x = k mod P} e^{2 pi i x y / Q}|^2 / Q^2, summed term by term.

    One amplitude sum per residue class x mod P (one per register-2 value),
    each phase x*y reduced mod Q exactly before the cosine and sine.  Never
    touches the closed form; exact integer arithmetic while Q^2 < 2^63.
    """
    total = 0.0
    for k in range(period):
        xs = np.arange(k, q_total, period, dtype=np.int64)
        angles = 2 * np.pi * ((xs * y) % q_total) / q_total
        re, im = float(np.cos(angles).sum()), float(np.sin(angles).sum())
        total += re * re + im * im
    return total / (q_total * q_total)


def is_convergent(a: int, b: int, numerator: int, denominator: int) -> bool:
    """True iff a/b in lowest terms is a convergent of numerator/denominator."""
    if b < 1:
        raise ValueError("b must be >= 1")
    g = math.gcd(a, b)
    return (a // g, b // g) in contfrac.cf_expand(numerator, denominator).convergents


def distinct_prime_factors(n: int) -> set[int]:
    """Set of distinct primes dividing n, by trial division."""
    if n < 2:
        raise ValueError("factorization is defined for n >= 2")
    factors: set[int] = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.add(n)
    return factors


def y_from_d(period: int, q_total: int, d: int) -> int:
    """y(d) = round(Q*d/P), ties downward: the inverse of d_from_y on the bijection set."""
    return -((period - 2 * q_total * d) // (2 * period))


def bijection_set(period: int, q_total: int) -> list[int]:
    """The outcomes y with |{P*y}_Q| <= P/2; exactly P of them, one per d."""
    half = period / 2.0
    return [
        y
        for y in range(q_total)
        if abs(smallest_magnitude_residue(period * y, q_total)) <= half
    ]


def state_norm(state) -> float:
    """Euclidean norm of the joint state, summed over every stored amplitude."""
    return math.sqrt(sum(abs(amp) ** 2 for amp in state.rows.ravel().tolist()))


def register2_values(state) -> set[int]:
    """The register-2 values the state holds a row for."""
    return {int(v) for v in state.levels}


def naive_csv(probs) -> str:
    """The distribution CSV one row at a time: header, then y,prob per outcome."""
    return "\n".join(["y,prob", *(f"{y},{p:.17g}" for y, p in enumerate(probs))]) + "\n"


def random_sparse_state(q_total, n, rng, n_entries=24, n_reg2=3):
    """Normalized random state over registers of size q_total, with a few
    register-2 values below the modulus n occupied."""
    amplitudes = {}
    reg2_values = rng.choice(n, size=n_reg2, replace=False)
    for v in reg2_values:
        for x in rng.choice(q_total, size=n_entries, replace=False):
            amplitudes[(int(x), int(v))] = complex(
                rng.standard_normal(), rng.standard_normal()
            )
    norm = math.sqrt(sum(abs(a) ** 2 for a in amplitudes.values()))
    return state_from_dict(q_total, {k: a / norm for k, a in amplitudes.items()})


def state_from_dict(q_total, amplitudes) -> engine.JointState:
    """State from a sparse {(x, v): amplitude} map over registers of size
    q_total; absent entries are zero."""
    levels = np.array(sorted({v for _, v in amplitudes}), dtype=np.int64)
    rows = np.zeros((levels.size, q_total), dtype=np.complex128)
    for (x, v), amp in amplitudes.items():
        rows[np.searchsorted(levels, v), x] = amp
    return engine.JointState(levels, rows)


def amplitude_map(state) -> dict[tuple[int, int], complex]:
    """Every amplitude of the state as {(x, v): amplitude}, zeros included."""
    return {
        (x, v): amp
        for v, row in zip(state.levels.tolist(), state.rows.tolist())
        for x, amp in enumerate(row)
    }


def state_as_slices(state) -> dict[int, np.ndarray]:
    slices: dict[int, np.ndarray] = {}
    for (x, v), amp in amplitude_map(state).items():
        slices.setdefault(v, np.zeros(state.rows.shape[1], dtype=np.complex128))[x] = amp
    return slices


def nonzero_amplitudes(state) -> dict[tuple[int, int], complex]:
    """The state's nonzero entries as a sparse {(x, v): amplitude} dict."""
    return {key: amp for key, amp in amplitude_map(state).items() if amp != 0}


def max_state_diff(a, b) -> float:
    a, b = amplitude_map(a), amplitude_map(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def unique_entangler(state, f) -> engine.JointState:
    """The entangler by sorting: each nonzero amplitude's target value from
    Python's pow, the new levels and rows from np.unique and its inverse."""
    row, x = np.nonzero(state.rows)
    levels_of = state.levels.tolist()
    targets = np.array(
        [(pow(f.m, c, f.N) - levels_of[r]) % f.N for r, c in zip(row.tolist(), x.tolist())],
        dtype=np.int64,
    )
    levels, target_row = np.unique(targets, return_inverse=True)
    rows = np.zeros((levels.size, state.rows.shape[1]), dtype=np.complex128)
    rows[target_row, x] = state.rows[row, x]
    return engine.JointState(levels, rows)


def naive_monte_carlo_histogram(n: int, m: int, trials: int, seed: int) -> dict[str, int]:
    """monte_carlo_step2's histogram the slow way: every trial replays its own
    uniform, draws its own outcome and runs its own convergent scan."""
    from shorlab import pipeline

    q_total = register_size(n)
    cumulative = np.cumsum(engine.simulated_distribution(ModExpFunction(m, n)).probs)
    period = brute_order(m, n)
    histogram = {"recovered_order": 0, "recovered_multiple": 0, "unrecovered": 0}
    for i in range(trials):
        u = pipeline.trial_uniform(seed, i) * cumulative[-1]
        y = int(np.searchsorted(cumulative, u, side="right"))
        recovered = pipeline.step25_recover_period(y, q_total, m, n).period
        if recovered == period:
            histogram["recovered_order"] += 1
        elif recovered is not None:
            histogram["recovered_multiple"] += 1
        else:
            histogram["unrecovered"] += 1
    return histogram


# --- property checks (module tests and the acceptance gate both run these) ---


def check_cf_round_trip_and_determinant(count: int, seed: int = 20260808) -> None:
    """Expansion -> nested evaluation reproduces the input exactly, and
    consecutive convergents satisfy p_n*q_{n-1} - p_{n-1}*q_n = (-1)^(n-1)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        den = int(rng.integers(1, 1 << 20))
        num = int(rng.integers(0, 4 * den))
        expansion = contfrac.cf_expand(num, den)
        assert nested_fraction_value(expansion.coefficients) == Fraction(num, den)
        convergents = expansion.convergents
        for n in range(1, len(convergents)):
            p_n, q_n = convergents[n]
            p_prev, q_prev = convergents[n - 1]
            assert p_n * q_prev - p_prev * q_n == (-1) ** (n - 1)


def check_close_approximations_are_convergents(count: int, seed: int = 7) -> None:
    """Any a/b with |c/d - a/b| <= 1/(2b^2) and gcd(a,b)=1 appears among the
    convergents of c/d."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        b = int(rng.integers(1, 1000))
        a = int(rng.integers(0, b + 1))
        if math.gcd(a, b) != 1:
            continue
        # d >= b^2 makes the rounded c satisfy |c/d - a/b| <= 1/(2d) <= 1/(2b^2)
        d = int(rng.integers(b * b, 2 * b * b + 2))
        c = round(a * d / b)
        assert abs(Fraction(c, d) - Fraction(a, b)) <= Fraction(1, 2 * b * b)
        assert is_convergent(a, b, c, d)
        produced += 1


def check_qft_unitarity_and_fourth_power(seed: int = 11) -> None:
    """Norm preservation to 1e-12 and F^4 = identity to 1e-9, Q <= 256."""
    rng = np.random.default_rng(seed)
    for n in (4, 9, 15):
        q_total = register_size(n)
        assert q_total <= 256
        for _ in range(3):
            state = random_sparse_state(q_total, n, rng, n_entries=min(16, q_total // 2))
            once = apply_qft_reg1(state)
            assert abs(state_norm(once) - state_norm(state)) < 1e-12
            four = apply_qft_reg1(apply_qft_reg1(apply_qft_reg1(once)))
            assert max_state_diff(four, state) < 1e-9


def check_entangler_involution() -> None:
    """Applying the entangler twice restores the state exactly."""
    for n, m in ((15, 2), (91, 3)):
        f = ModExpFunction(m, n)
        state = apply_qft_reg1(initialize(register_size(n)))
        entangled = apply_modexp_entangler(state, f)
        restored = apply_modexp_entangler(entangled, f)
        assert amplitude_map(restored) == amplitude_map(state)
        assert sorted(nonzero_amplitudes(entangled).values(), key=abs) == sorted(
            nonzero_amplitudes(state).values(), key=abs
        )


def check_every_factor_divides(seeds=range(4)) -> None:
    """shor_factor never reports a non-divisor."""
    from shorlab import pipeline

    for n in (15, 21, 33, 35):
        for seed in seeds:
            outcome, _ = pipeline.shor_factor(n, pipeline.ShorConfig(rng_seed=seed))
            if outcome.factor is not None:
                assert 1 < outcome.factor < n and n % outcome.factor == 0
