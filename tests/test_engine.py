"""Quantum engine: circuit simulation vs the closed-form distribution,
transform correctness against the dense matrix, and measurement statistics."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

import support
from shorlab import engine
from shorlab.engine import (
    CapacityError,
    ModExpFunction,
    RegisterGeometry,
    apply_modexp_entangler,
    apply_qft_reg1,
    choose_geometry,
    closed_form_distribution,
    closed_form_params,
    closed_form_prob,
    collapse_reg1,
    initialize,
    measure_reg1,
    period_finding_state,
    reg1_distribution,
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
    g91 = choose_geometry(91)
    assert (g91.Q, g91.L) == (16384, 14)
    g15 = choose_geometry(15)
    assert (g15.Q, g15.L) == (256, 8)
    g2 = choose_geometry(2)
    assert (g2.Q, g2.L) == (4, 2)


def test_choose_geometry_invariant_and_capacity():
    for n in range(2, 600):
        g = choose_geometry(n)
        assert g.Q == 1 << g.L
        assert n * n <= g.Q < 2 * n * n
    with pytest.raises(CapacityError):
        choose_geometry(10**6 + 1)
    with pytest.raises(ValueError):
        choose_geometry(1)


def test_initialize_is_point_mass():
    state = initialize(choose_geometry(91))
    assert support.nonzero_amplitudes(state) == {(0, 0): 1.0 + 0.0j}
    assert abs(support.state_norm(state) - 1.0) < 1e-15
    dist = reg1_distribution(state)
    assert dist.probs[0] == 1.0 and dist.probs.sum() == 1.0


def test_qft_on_initial_state_is_uniform():
    geometry = choose_geometry(15)
    state = apply_qft_reg1(initialize(geometry))
    expected = 1.0 / math.sqrt(geometry.Q)
    assert len(state.amplitudes) == geometry.Q
    for (x, v), amp in support.amplitude_map(state).items():
        assert v == 0
        assert abs(amp - expected) < 1e-12
    assert abs(support.state_norm(state) - 1.0) < 1e-12


def test_qft_two_point_is_hadamard():
    geometry = RegisterGeometry(N=2, Q=2, L=1)
    state = apply_qft_reg1(support.state_from_dict(geometry, {(0, 0): 1.0 + 0.0j}))
    r = 1.0 / math.sqrt(2.0)
    amplitudes = support.amplitude_map(state)
    assert abs(amplitudes[(0, 0)] - r) < 1e-15
    assert abs(amplitudes[(1, 0)] - r) < 1e-15


def test_qft_matches_dense_matrix():
    rng = np.random.default_rng(8)
    for n in (4, 9, 15):
        geometry = choose_geometry(n)
        dense = support.dense_transform_matrix(geometry.Q)
        state = support.random_sparse_state(geometry, rng, n_entries=min(12, geometry.Q // 2))
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
    geometry = choose_geometry(n)
    state = apply_modexp_entangler(apply_qft_reg1(initialize(geometry)), ModExpFunction(m, n))
    expected = 1.0 / math.sqrt(geometry.Q)
    amplitudes = support.amplitude_map(state)
    for x, v in [(0, 1), (1, 3), (2, 9), (3, 27), (4, 81), (5, 61), (6, 1), (16383, 27)]:
        assert abs(amplitudes[(x, v)] - expected) < 1e-12
    assert len(support.register2_values(state)) == 6  # one value per period position


def test_entangler_single_ket_and_involution():
    geometry = choose_geometry(91)
    f = ModExpFunction(3, 91)
    single = support.state_from_dict(geometry, {(5, 0): 1.0 + 0.0j})
    assert support.nonzero_amplitudes(apply_modexp_entangler(single, f)) == {(5, 61): 1.0 + 0.0j}
    support.check_entangler_involution()


def test_entangler_rejects_out_of_range_register2():
    geometry = choose_geometry(15)
    bad = support.state_from_dict(geometry, {(0, 15): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        apply_modexp_entangler(bad, ModExpFunction(2, 15))


def test_register2_support_bounded_by_period_at_every_stage():
    n, m = 91, 3
    geometry = choose_geometry(n)
    period = multiplicative_order(m, n)
    state = initialize(geometry)
    assert len(support.register2_values(state)) <= period
    state = apply_qft_reg1(state)
    assert len(support.register2_values(state)) <= period
    state = apply_modexp_entangler(state, ModExpFunction(m, n))
    assert len(support.register2_values(state)) <= period
    state = apply_qft_reg1(state)
    assert len(support.register2_values(state)) <= period <= n


def test_simulated_distribution_worked_example_value():
    geometry = choose_geometry(91)
    dist = simulated_distribution(geometry, ModExpFunction(3, 91))
    assert abs(dist.probs[13453] - PROB_13453) < 1e-12
    assert abs(dist.probs.sum() - 1.0) < 1e-9


def test_closed_form_params():
    p = closed_form_params(6, 16384)
    assert (p.q, p.r, p.Q0) == (2730, 4, 16380)
    assert closed_form_params(4, 256) == engine.ClosedFormParams(4, 256, 64, 0, 256)
    p1 = closed_form_params(1, 512)
    assert (p1.q, p1.r, p1.Q0) == (512, 0, 512)
    with pytest.raises(ValueError):
        closed_form_params(0, 16)


def test_closed_form_prob_worked_example():
    params = closed_form_params(6, 16384)
    value = closed_form_prob(13453, params)
    assert abs(value - PROB_13453) / PROB_13453 < 1e-12
    # agrees with the truncated 10-digit reference print
    assert f"{value:.15e}"[:11] == "3.189335551"


def test_closed_form_prob_zero_outcome():
    params = closed_form_params(6, 16384)
    assert closed_form_prob(0, params) == 44739244 / 16384**2


def test_closed_form_prob_validates_range():
    params = closed_form_params(6, 16384)
    with pytest.raises(ValueError):
        closed_form_prob(16384, params)


def test_closed_form_exact_divisor_case():
    # period 4 divides 256: exactly 1/4 on multiples of 64, zero elsewhere
    params = closed_form_params(4, 256)
    for y in range(256):
        p = closed_form_prob(y, params)
        if y % 64 == 0:
            assert abs(p - 0.25) < 1e-12
        else:
            assert p <= 1e-12
    dist = closed_form_distribution(params)
    assert np.count_nonzero(dist.probs > 1e-12) == 4


def test_closed_form_distribution_normalization_and_point_mass():
    dist = closed_form_distribution(closed_form_params(6, 16384))
    assert abs(dist.probs.sum() - 1.0) < 1e-9
    unit = closed_form_distribution(closed_form_params(1, 16))
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
    ],
)
def test_closed_form_distribution_is_the_scalar_closed_form_bitwise(period, q_total):
    params = closed_form_params(period, q_total)
    scalar = np.array([closed_form_prob(y, params) for y in range(q_total)])
    assert np.array_equal(closed_form_distribution(params).probs, scalar)


def test_closed_form_distribution_rejects_register_over_budget():
    # Raised before any array exists: the sample space alone would take 32 GiB.
    for q_total in (2**32, 2**31 + 1):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"Q <= 2\*\*31"):
                closed_form_distribution(closed_form_params(7, q_total))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_simulation_agrees_with_closed_form():
    for n, m in support.PAIRS:
        geometry = choose_geometry(n)
        period = multiplicative_order(m, n)
        simulated = simulated_distribution(geometry, ModExpFunction(m, n))
        closed = closed_form_distribution(closed_form_params(period, geometry.Q))
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
        geometry = choose_geometry(n)
        period = multiplicative_order(2, n)
        simulated = simulated_distribution(geometry, ModExpFunction(2, n))
        closed = closed_form_distribution(closed_form_params(period, geometry.Q))
        assert np.max(np.abs(simulated.probs - closed.probs)) <= 1e-9, n


def test_probability_floor_over_small_residues():
    # outcomes whose scaled residue is small keep probability >= the
    # (4/pi^2)/P floor; the zero-residue outcomes keep the stronger 1/P floor
    for n, m in support.PAIRS:
        geometry = choose_geometry(n)
        period = multiplicative_order(m, n)
        params = closed_form_params(period, geometry.Q)
        damping = (1.0 - 1.0 / n) ** 2
        floor_main = 4.0 / math.pi**2 / period * damping
        floor_zero = damping / period
        cutoff = period / 2.0 * (1.0 - 1.0 / n)
        for y in range(geometry.Q):
            t = smallest_magnitude_residue(period * y, geometry.Q)
            p = closed_form_prob(y, params)
            if t == 0:
                assert p >= floor_zero - 1e-15
            elif abs(t) <= cutoff:
                assert p >= floor_main - 1e-15


def test_closed_form_matches_direct_geometric_sum():
    # The sin^2 form equals the direct |geometric series|^2 evaluation.
    # Below ~1e-10 the direct sum is pure cancellation noise in double
    # precision, so the comparison switches from relative to absolute there.
    def direct_prob(y, params):
        w = cmath.exp(2j * math.pi / params.Q)
        s_long = sum(w ** (params.P * y * x1 % params.Q) for x1 in range(params.q + 1))
        s_short = sum(w ** (params.P * y * x1 % params.Q) for x1 in range(params.q))
        return (params.r * abs(s_long) ** 2 + (params.P - params.r) * abs(s_short) ** 2) / params.Q**2

    def compare(y, params):
        expected = direct_prob(y, params)
        got = closed_form_prob(y, params)
        if expected >= 1e-10:
            assert abs(got - expected) <= 1e-6 * expected, (y, got, expected)
        else:
            assert abs(got - expected) <= 1e-14, (y, got, expected)

    params = closed_form_params(4, 256)
    for y in range(256):
        if (params.P * y) % params.Q != 0:
            compare(y, params)

    params = closed_form_params(6, 16384)
    rng = np.random.default_rng(9)
    samples = set(int(v) for v in rng.integers(0, 16384, size=60)) | {13453}
    for y in samples:
        if (params.P * y) % params.Q != 0:
            compare(y, params)


def test_collapse_on_forced_outcome():
    n, m, y0 = 91, 3, 13453
    state = period_finding_state(choose_geometry(n), ModExpFunction(m, n))
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
    geometry = choose_geometry(15)
    state = support.state_from_dict(geometry, {(7, 1): 1.0 + 0.0j})
    with pytest.raises(ValueError):
        collapse_reg1(state, 8)


def test_measure_point_mass_and_seed_determinism():
    geometry = choose_geometry(15)
    state = support.state_from_dict(geometry, {(7, 2): 1.0 + 0.0j})
    for seed in (0, 1, 2**63 - 1):
        y0, collapsed = measure_reg1(state, np.random.default_rng(seed))
        assert y0 == 7
        assert support.nonzero_amplitudes(collapsed) == {(7, 2): 1.0 + 0.0j}
    state2 = period_finding_state(geometry, ModExpFunction(2, 15))
    draws_a = [measure_reg1(state2, np.random.default_rng(42))[0] for _ in range(5)]
    draws_b = [measure_reg1(state2, np.random.default_rng(42))[0] for _ in range(5)]
    assert draws_a == draws_b


def test_measure_frequencies_match_distribution():
    # known 4-point distribution; 1e5 draws within 3-sigma multinomial bands
    geometry = RegisterGeometry(N=2, Q=4, L=2)
    weights = [0.1, 0.2, 0.3, 0.4]
    state = support.state_from_dict(
        geometry, {(x, 0): complex(math.sqrt(w)) for x, w in enumerate(weights)}
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
        geometry = choose_geometry(n)
        for m in range(2, n):
            if math.gcd(m, n) != 1:
                continue
            probs = simulated_distribution(geometry, ModExpFunction(m, n)).probs
            cumulative = np.cumsum(probs)
            possible = np.flatnonzero(probs)
            assert engine.draw_outcome(cumulative, 0.0) == possible[0], (n, m)
            assert engine.draw_outcome(cumulative, 1.0 - 2.0**-53) == possible[-1], (n, m)


def test_distribution_partition_merge_matches_serial():
    params = closed_form_params(6, 16384)
    serial = closed_form_distribution(params).probs
    chunks = [
        np.array([closed_form_prob(y, params) for y in range(start, start + 4096)])
        for start in range(0, 16384, 4096)
    ]
    merged = np.concatenate(chunks)
    assert np.max(np.abs(merged - serial)) <= 1e-12
