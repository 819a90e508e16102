"""Quantum engine: circuit simulation vs the closed-form distribution,
transform correctness against the dense matrix, and measurement statistics."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import support
from shorlab import engine
from shorlab.engine import (
    CapacityError,
    ModExpFunction,
    apply_modexp_entangler,
    apply_qft_reg1,
    closed_form_distribution,
    closed_form_prob,
    collapse_reg1,
    initialize,
    measure_reg1,
    period_finding_state,
    reg1_distribution,
    register_size,
    simulated_distribution,
)
from shorlab.numtheory import multiplicative_order, smallest_magnitude_residue

# Measurement probability of outcome 13453 for N=91, m=3 (period 6,
# register size 16384).  The lecture prints the truncated 10-digit value
# 3.189335551e-7.  A 60-digit mpmath direct sum over x,
# sum_k |sum_{x = k mod 6} e^{2 pi i x 13453 / 16384}|^2 / 16384^2, gives
# 3.18933555174353265014853948538545240109...e-7; the double below is
# that value rounded to 16 significant digits.
PROB_13453 = 3.189335551743533e-07


def test_choose_geometry_pinned_values():
    q91 = register_size(91)
    assert (q91, q91.bit_length() - 1) == (16384, 14)
    q15 = register_size(15)
    assert (q15, q15.bit_length() - 1) == (256, 8)
    q2 = register_size(2)
    assert (q2, q2.bit_length() - 1) == (4, 2)


def test_choose_geometry_invariant_and_capacity():
    for n in range(2, 600):
        q_total = register_size(n)
        assert q_total == 1 << (q_total.bit_length() - 1)
        assert n * n <= q_total < 2 * n * n
    with pytest.raises(CapacityError):
        register_size(10**6 + 1)
    with pytest.raises(ValueError):
        register_size(1)


def test_initialize_is_point_mass():
    state = initialize(register_size(91))
    assert support.nonzero_amplitudes(state) == {(0, 0): 1.0 + 0.0j}
    assert abs(support.state_norm(state) - 1.0) < 1e-15
    dist = reg1_distribution(state)
    assert dist.probs[0] == 1.0 and dist.probs.sum() == 1.0


def test_qft_on_initial_state_is_uniform():
    q_total = register_size(15)
    state = apply_qft_reg1(initialize(q_total))
    expected = 1.0 / math.sqrt(q_total)
    assert len(state.amplitudes) == q_total
    for (x, v), amp in support.amplitude_map(state).items():
        assert v == 0
        assert abs(amp - expected) < 1e-12
    assert abs(support.state_norm(state) - 1.0) < 1e-12


def test_qft_two_point_is_hadamard():
    state = apply_qft_reg1(support.state_from_dict(2, {(0, 0): 1.0 + 0.0j}))
    r = 1.0 / math.sqrt(2.0)
    amplitudes = support.amplitude_map(state)
    assert abs(amplitudes[(0, 0)] - r) < 1e-15
    assert abs(amplitudes[(1, 0)] - r) < 1e-15


def test_qft_matches_dense_matrix():
    rng = np.random.default_rng(8)
    for n in (4, 9, 15):
        q_total = register_size(n)
        dense = support.dense_transform_matrix(q_total)
        state = support.random_sparse_state(q_total, n, rng, n_entries=min(12, q_total // 2))
        transformed = apply_qft_reg1(state)
        for v, vec in support.state_as_slices(state).items():
            expected = dense @ vec
            got = support.state_as_slices(transformed)[v]
            assert np.max(np.abs(expected - got)) < 1e-12


def test_qft_unitarity_and_fourth_power_identity():
    support.check_qft_unitarity_and_fourth_power()


def test_modexp_table_matches_running_product():
    for m, n, size in ((3, 91, 16384), (2, 15, 256), (7, 15, 2), (2, 9, 1)):
        expected = [1 % n]
        while len(expected) < size:
            expected.append(expected[-1] * m % n)
        assert ModExpFunction(m, n).table(size).tolist() == expected


def test_entangler_builds_modexp_slices():
    n, m = 91, 3
    q_total = register_size(n)
    state = apply_modexp_entangler(apply_qft_reg1(initialize(q_total)), ModExpFunction(m, n))
    expected = 1.0 / math.sqrt(q_total)
    amplitudes = support.amplitude_map(state)
    for x, v in [(0, 1), (1, 3), (2, 9), (3, 27), (4, 81), (5, 61), (6, 1), (16383, 27)]:
        assert abs(amplitudes[(x, v)] - expected) < 1e-12
    assert len(support.register2_values(state)) == 6  # one value per period position


def test_entangler_single_ket_and_involution():
    f = ModExpFunction(3, 91)
    single = support.state_from_dict(register_size(91), {(5, 0): 1.0 + 0.0j})
    assert support.nonzero_amplitudes(apply_modexp_entangler(single, f)) == {(5, 61): 1.0 + 0.0j}
    support.check_entangler_involution()


def test_entangler_matches_the_unique_oracle():
    rng = np.random.default_rng(2024)
    for n, m in ((15, 2), (21, 5), (91, 3)):
        q_total = register_size(n)
        f = ModExpFunction(m, n)
        for occupied in ([0], [0, n - 1], [0, 1, n // 2, n - 1]):
            shape = (len(occupied), q_total)
            rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            rows[rng.random(shape) < 0.5] = 0.0
            state = engine.JointState(np.array(occupied, dtype=np.int64), rows)
            got = apply_modexp_entangler(state, f)
            want = support.unique_entangler(state, f)
            assert got.levels.tolist() == want.levels.tolist()
            assert np.array_equal(got.rows, want.rows)


def test_entangler_rejects_out_of_range_register2():
    bad = support.state_from_dict(register_size(15), {(0, 15): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        apply_modexp_entangler(bad, ModExpFunction(2, 15))


def test_register2_support_bounded_by_period_at_every_stage():
    n, m = 91, 3
    period = multiplicative_order(m, n)
    state = initialize(register_size(n))
    assert len(support.register2_values(state)) <= period
    state = apply_qft_reg1(state)
    assert len(support.register2_values(state)) <= period
    state = apply_modexp_entangler(state, ModExpFunction(m, n))
    assert len(support.register2_values(state)) <= period
    state = apply_qft_reg1(state)
    assert len(support.register2_values(state)) <= period <= n


def test_simulated_distribution_worked_example_value():
    dist = simulated_distribution(ModExpFunction(3, 91))
    assert abs(dist.probs[13453] - PROB_13453) < 1e-12
    assert abs(dist.probs.sum() - 1.0) < 1e-9


def test_closed_form_params():
    # The t = 0 value pins the split Q = P*q + r: q = 2730 and r = 4, then
    # r = 0, then q = Q.
    assert closed_form_prob(0, 6, 16384) == 44739244 / 16384**2
    assert closed_form_prob(0, 4, 256) == 0.25
    assert closed_form_prob(0, 1, 512) == 1.0
    for period, q_total in ((0, 16), (6, 0)):
        with pytest.raises(ValueError):
            closed_form_prob(0, period, q_total)
        with pytest.raises(ValueError):
            closed_form_distribution(period, q_total)


def test_closed_form_prob_worked_example():
    value = closed_form_prob(13453, 6, 16384)
    assert abs(value - PROB_13453) / PROB_13453 < 1e-12
    # agrees with the truncated 10-digit reference print
    assert f"{value:.15e}"[:11] == "3.189335551"


def test_closed_form_prob_zero_outcome():
    assert closed_form_prob(0, 6, 16384) == 44739244 / 16384**2


def test_closed_form_prob_validates_range():
    with pytest.raises(ValueError):
        closed_form_prob(16384, 6, 16384)


def test_closed_form_exact_divisor_case():
    # period 4 divides 256: exactly 1/4 on multiples of 64, zero elsewhere
    for y in range(256):
        p = closed_form_prob(y, 4, 256)
        if y % 64 == 0:
            assert abs(p - 0.25) < 1e-12
        else:
            assert p <= 1e-12
    dist = closed_form_distribution(4, 256)
    assert np.count_nonzero(dist.probs > 1e-12) == 4


def test_check_outcome_reads_half_a_period():
    # P = 4 divides Q = 256: period 64, held as its 33 values y = 0..32,
    # and only the multiples of 64 can be measured.
    dist = closed_form_distribution(4, 256)
    assert dist.values.size == 33
    assert engine.check_outcome(dist, 192) == 192
    for y, message in ((191, "zero probability"), (256, "outside the sample space")):
        with pytest.raises(ValueError, match=message):
            engine.check_outcome(dist, y)


def test_closed_form_distribution_normalization_and_point_mass():
    dist = closed_form_distribution(6, 16384)
    assert abs(dist.probs.sum() - 1.0) < 1e-9
    unit = closed_form_distribution(1, 16)
    assert unit.probs[0] == 1.0 and unit.probs.sum() == 1.0


@pytest.mark.parametrize(
    "period, q_total",
    [
        (1, 256),  # t = 0 everywhere
        (4, 256),  # P divides Q: r = 0
        (64, 4096),  # r = 0, large q-free period
        (5, 1024),  # odd P: t runs over every residue
        (21, 2048),
        (12, 4096),  # even P with a 2-adic factor: t on multiples of 4
        (40, 8192),
        (1, 2),  # Q = 2
        (2, 2),
        (3, 2),  # P > Q: q = 0
        (24, 1 << 16),
        (23, 1 << 17),  # odd P over two SIN2_BATCH slices
        (1000, 256),  # P > Q: P - r = 744 and P itself reduce mod Q
        (6, 96),  # gcd 6 and Q not powers of two
        (9, 6000),  # gcd 3
        (10, 1000),  # gcd 10
        (16, 16),  # P = Q: period 1
        (48, 16),  # P a multiple of Q: every residue is 0
        (2, 1 << 18),  # a period of 2**17 spans two SIN2_BATCH slices
    ],
)
def test_closed_form_distribution_is_the_scalar_closed_form_bitwise(period, q_total):
    scalar = np.array([closed_form_prob(y, period, q_total) for y in range(q_total)])
    assert np.array_equal(closed_form_distribution(period, q_total).probs, scalar)


@pytest.mark.parametrize("period, sines", [(16, (1 << 15) + 1), (23, (1 << 19) + 1)])
def test_closed_form_distribution_takes_one_sine_per_table_entry(monkeypatch, period, sines):
    # The table holds sin^2(pi*k/Q) for the multiples k of gcd(P, Q) up to
    # Q/2 only: Q/(2*gcd) + 1 sines, 2**15 + 1 at gcd 16 and 2**19 + 1 at gcd 1.
    calls = 0
    sin = np.sin

    def counting_sin(x, *args, **kwargs):
        nonlocal calls
        calls += np.size(x)
        return sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counting_sin)
    closed_form_distribution(period, 1 << 20)
    assert calls == sines


@pytest.mark.parametrize("den, step", [(1 << 20, 1), (6000, 3), (96, 6)])
def test_sin2_table_is_the_scalar_square_of_the_sine_bitwise(den, step):
    # np.sin and np.float_power must round as math.sin and ** 2 do on every
    # angle; no bitwise distribution case reaches the Q = 2**20 table.
    scalar = [math.sin(math.pi * k / den) ** 2 for k in range(0, den // 2 + 1, step)]
    assert np.array_equal(engine._sin2_table(den, step), scalar)


def test_closed_form_distribution_table_shrinks_with_the_gcd():
    # The table and the half-period result take 4 MiB each at gcd 1 but
    # 0.25 MiB each at gcd 16, so the traced peak falls by more than 3 MiB.
    peaks = {}
    for period in (16, 23):
        tracemalloc.start()
        try:
            closed_form_distribution(period, 1 << 20)
            peaks[period] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] + (3 << 20) <= peaks[23]


def test_closed_form_distribution_rejects_register_over_budget():
    # Raised before any array exists: the sample space alone would take 2 to 32 GiB.
    for q_total in (2**32, 2**31 + 1, 2**29, 2**28 + 1):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"Q <= 2\*\*28"):
                closed_form_distribution(7, q_total)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_closed_form_prob_answers_past_the_distribution_budget():
    # The scalar builds no table, so the distribution's memory budget does
    # not bound it.  At y = 0 (t = 0) it is the exact ratio of integers.
    for q_total in (2**29, 2**32):
        P, Q = 7, q_total
        q, r = divmod(Q, P)
        Q0 = P * q
        exact = Fraction(r * (Q0 + P) ** 2 + (P - r) * Q0**2, Q * Q * P * P)
        got = closed_form_prob(0, P, Q)
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got))
        assert 0.0 <= closed_form_prob(3, P, Q) <= 1.0


def test_circuit_budget_counts_exactly_the_register2_rows(monkeypatch):
    # The circuit holds P rows of Q amplitudes, so a budget of P*Q runs it
    # and P*Q - 1 refuses it, naming the P rows, for every unit pair of
    # odd composite N <= 63.
    primes = set(support.sieve_primes(64))
    for n in range(9, 64, 2):
        if n in primes:
            continue
        q_total = register_size(n)
        for m in range(1, n):
            if math.gcd(m, n) != 1:
                continue
            period = support.brute_order(m, n)
            f = ModExpFunction(m, n)
            monkeypatch.setattr(engine, "CIRCUIT_MAX_AMPLITUDES", period * q_total)
            assert period_finding_state(f).levels.size == period, (n, m)
            monkeypatch.setattr(engine, "CIRCUIT_MAX_AMPLITUDES", period * q_total - 1)
            with pytest.raises(CapacityError, match=f"needs {period} register-2 rows"):
                period_finding_state(f)


def test_simulation_agrees_with_closed_form():
    for n, m in support.PAIRS:
        period = multiplicative_order(m, n)
        simulated = simulated_distribution(ModExpFunction(m, n))
        closed = closed_form_distribution(period, register_size(n))
        assert np.max(np.abs(simulated.probs - closed.probs)) < 1e-9
        assert abs(simulated.probs.sum() - 1.0) < 1e-9
        assert abs(closed.probs.sum() - 1.0) < 1e-9
        assert simulated.probs.min() >= 0.0 and closed.probs.min() >= 0.0


def test_simulation_agrees_with_closed_form_every_odd_composite():
    # 2 is a unit of every odd modulus
    primes = set(support.sieve_primes(101))
    composites = [n for n in range(9, 101, 2) if n not in primes]
    assert len(composites) == 25
    for n in composites:
        period = multiplicative_order(2, n)
        simulated = simulated_distribution(ModExpFunction(2, n))
        closed = closed_form_distribution(period, register_size(n))
        assert np.max(np.abs(simulated.probs - closed.probs)) <= 1e-9, n


def test_probability_floor_over_small_residues():
    # outcomes whose scaled residue is small keep probability >= the
    # (4/pi^2)/P floor; the zero-residue outcomes keep the stronger 1/P floor
    for n, m in support.PAIRS:
        q_total = register_size(n)
        period = multiplicative_order(m, n)
        damping = (1.0 - 1.0 / n) ** 2
        floor_main = 4.0 / math.pi**2 / period * damping
        floor_zero = damping / period
        cutoff = period / 2.0 * (1.0 - 1.0 / n)
        for y in range(q_total):
            t = smallest_magnitude_residue(period * y, q_total)
            p = closed_form_prob(y, period, q_total)
            if t == 0:
                assert p >= floor_zero - 1e-15
            elif abs(t) <= cutoff:
                assert p >= floor_main - 1e-15


def test_closed_form_matches_direct_geometric_sum():
    # The sin^2 form equals the direct |geometric series|^2 evaluation.
    # Below ~1e-10 the direct sum is pure cancellation noise in double
    # precision, so the comparison switches from relative to absolute there.
    def direct_prob(y, P, Q):
        q, r = divmod(Q, P)
        w = cmath.exp(2j * math.pi / Q)
        s_long = sum(w ** (P * y * x1 % Q) for x1 in range(q + 1))
        s_short = sum(w ** (P * y * x1 % Q) for x1 in range(q))
        return (r * abs(s_long) ** 2 + (P - r) * abs(s_short) ** 2) / Q**2

    def compare(y, P, Q):
        expected = direct_prob(y, P, Q)
        got = closed_form_prob(y, P, Q)
        if expected >= 1e-10:
            assert abs(got - expected) <= 1e-6 * expected, (y, got, expected)
        else:
            assert abs(got - expected) <= 1e-14, (y, got, expected)

    for y in range(256):
        if (4 * y) % 256 != 0:
            compare(y, 4, 256)

    rng = np.random.default_rng(9)
    samples = set(int(v) for v in rng.integers(0, 16384, size=60)) | {13453}
    for y in samples:
        if (6 * y) % 16384 != 0:
            compare(y, 6, 16384)


def test_collapse_on_forced_outcome():
    n, m, y0 = 91, 3, 13453
    state = period_finding_state(ModExpFunction(m, n))
    collapsed = collapse_reg1(state, y0)
    assert {x for (x, _) in support.nonzero_amplitudes(collapsed)} == {y0}
    assert abs(support.state_norm(collapsed) - 1.0) < 1e-12
    assert len(support.register2_values(collapsed)) <= 6
    # collapsed register-2 amplitudes stay proportional to the original column
    column = {v: a for (x, v), a in support.amplitude_map(state).items() if x == y0}
    collapsed_amplitudes = support.amplitude_map(collapsed)
    scale = None
    for v, amp in column.items():
        if abs(amp) < 1e-300:
            continue
        ratio = collapsed_amplitudes[(y0, v)] / amp
        if scale is None:
            scale = ratio
        assert abs(ratio - scale) < 1e-9 * abs(scale)


def test_collapse_rejects_zero_probability_outcome():
    state = support.state_from_dict(register_size(15), {(7, 1): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        collapse_reg1(state, 8)


def test_measure_point_mass_and_seed_determinism():
    state = support.state_from_dict(register_size(15), {(7, 2): 1.0 + 0.0j})
    for seed in (0, 1, 2**63 - 1):
        y0, collapsed = measure_reg1(state, np.random.default_rng(seed))
        assert y0 == 7
        assert support.nonzero_amplitudes(collapsed) == {(7, 2): 1.0 + 0.0j}
    state2 = period_finding_state(ModExpFunction(2, 15))
    draws_a = [measure_reg1(state2, np.random.default_rng(42))[0] for _ in range(5)]
    draws_b = [measure_reg1(state2, np.random.default_rng(42))[0] for _ in range(5)]
    assert draws_a == draws_b


def test_measure_frequencies_match_distribution():
    # known 4-point distribution; 1e5 draws within 3-sigma multinomial bands
    weights = [0.1, 0.2, 0.3, 0.4]
    state = support.state_from_dict(
        4, {(x, 0): complex(math.sqrt(w)) for x, w in enumerate(weights)}
    )
    draws = 10**5
    rng = np.random.default_rng(123)
    counts = np.zeros(4, dtype=int)
    for _ in range(draws):
        y0, _ = measure_reg1(state, rng)
        counts[y0] += 1
    probs = reg1_distribution(state).probs
    for y in range(4):
        sigma = math.sqrt(draws * probs[y] * (1.0 - probs[y]))
        assert abs(counts[y] - draws * probs[y]) <= 3.0 * sigma, (y, counts[y])


def test_inverse_cdf_edges_land_on_possible_outcomes():
    # u = 0 and u = 1 - 2**-53 are the smallest and largest values
    # Generator.random() returns; they must draw the first and the last
    # outcome of nonzero probability, past any flat tail of the cumsum.
    primes = set(support.sieve_primes(64))
    for n in range(9, 64, 2):
        if n in primes:
            continue
        for m in range(2, n):
            if math.gcd(m, n) != 1:
                continue
            probs = simulated_distribution(ModExpFunction(m, n)).probs
            cumulative = np.cumsum(probs)
            possible = np.flatnonzero(probs)
            assert engine.draw_outcome(cumulative, 0.0) == possible[0], (n, m)
            assert engine.draw_outcome(cumulative, 1.0 - 2.0**-53) == possible[-1], (n, m)


def test_distribution_partition_merge_matches_serial():
    serial = closed_form_distribution(6, 16384).probs
    chunks = [
        np.array([closed_form_prob(y, 6, 16384) for y in range(start, start + 4096)])
        for start in range(0, 16384, 4096)
    ]
    merged = np.concatenate(chunks)
    assert np.max(np.abs(merged - serial)) <= 1e-12
