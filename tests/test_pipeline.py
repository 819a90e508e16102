"""Five-step pipeline: period recovery, classical post-processing, the
recovery-probability bounds, and trace auditability."""

import math

import numpy as np
import pytest

import support
from shorlab import engine, pipeline
from shorlab.engine import closed_form_prob, register_size
from shorlab.numtheory import (
    euler_totient,
    gcd_euclid,
    mod_pow,
    multiplicative_order,
    smallest_magnitude_residue,
)
from shorlab.pipeline import (
    OutcomeKind,
    PreconditionError,
    ShorConfig,
    d_from_y,
    monte_carlo_step2,
    shor_factor,
    step1_choose_m,
    step25_recover_period,
    step345_classical,
    success_lower_bound,
    wilson_interval,
)


def test_step1_draws_uniform_units_range():
    rng = np.random.default_rng(10)
    for _ in range(500):
        m, g = step1_choose_m(91, rng)
        assert 2 <= m <= 90
        assert g == gcd_euclid(m, 91)


def test_step25_worked_example():
    recovery = step25_recover_period(13453, 16384, 3, 91)
    assert recovery.period == 6
    assert recovery.tests == ((0, 1, 3), (1, 1, 3), (2, 5, 61), (3, 6, 1))


def test_step25_zero_outcome_fails():
    recovery = step25_recover_period(0, 16384, 3, 91)
    assert recovery.period is None
    assert recovery.tests == ((0, 1, 3),)


def test_step25_recovers_from_other_lucky_outcomes():
    recovery = step25_recover_period(2731, 16384, 3, 91)
    assert recovery.period == 6
    # cross-check by brute-force convergent enumeration: 1/6 approximates
    # 2731/16384 and appears among its convergents
    from shorlab.contfrac import cf_expand

    assert (1, 6) in cf_expand(2731, 16384).convergents
    assert d_from_y(6, 16384, 2731) == 1


def test_step25_stops_beyond_modulus():
    recovery = step25_recover_period(12345, 16384, 3, 91)
    assert all(q <= 91 for _, q, _ in recovery.tests)


@pytest.mark.parametrize("n, m", [(91, 3), (15, 2)])
def test_step25_trail_is_the_full_expansion_cut_at_the_modulus(n, m):
    # Oracle: the whole expansion, then the scan rule applied to it.
    from shorlab.contfrac import cf_expand

    q_total = register_size(n)
    for y in range(q_total):
        trail = []
        for n_idx, (_, q_n) in enumerate(cf_expand(y, q_total).convergents):
            if q_n > n:
                break
            trail.append((n_idx, q_n, pow(m, q_n, n)))
            if trail[-1][2] == 1:
                break
        assert step25_recover_period(y, q_total, m, n).tests == tuple(trail), y


def test_step345_factor_found():
    outcome = step345_classical(3, 6, 91)
    assert outcome.kind is OutcomeKind.FACTOR_FOUND
    assert outcome.factor == 13


def test_step345_odd_period():
    # 16 has multiplicative order 3 mod 91 (16^3 = 4096 = 45*91 + 1)
    assert support.brute_order(16, 91) == 3
    outcome = step345_classical(16, 3, 91)
    assert outcome.kind is OutcomeKind.ODD_PERIOD
    assert outcome.factor is None


def test_step345_trivial_root():
    # 14 = -1 mod 15: even period 2 but m^(P/2) = -1 yields nothing
    assert mod_pow(14, 2, 15) == 1
    outcome = step345_classical(14, 2, 15)
    assert outcome.kind is OutcomeKind.TRIVIAL_ROOT


def test_step345_rejects_non_period():
    with pytest.raises(ValueError):
        step345_classical(3, 5, 91)


def test_step345_overshot_exponent_retries_instead_of_bogus_factor():
    # 4 is a period exponent of 2 mod 15 but twice the true order
    assert multiplicative_order(4, 15) == 2
    outcome = step345_classical(4, 4, 15)
    assert outcome.kind is OutcomeKind.TRIVIAL_ROOT


def test_shor_factor_worked_example():
    outcome, trace = shor_factor(91, ShorConfig(forced_m=3, forced_y=13453))
    assert outcome.kind is OutcomeKind.FACTOR_FOUND
    assert outcome.factor == 13
    assert (trace.Q, trace.L) == (16384, 14)
    attempt = trace.attempts[0]
    assert attempt.period == 6
    assert (2, 5, 61) in attempt.convergent_tests
    assert (3, 6, 1) in attempt.convergent_tests
    assert attempt.y_in_bijection_set is False  # |{6*13453}_Q| = 1202 > 3
    assert trace.retries == 0


def test_shor_factor_lucky_gcd():
    for m in (7, 13):
        outcome, trace = shor_factor(91, ShorConfig(forced_m=m))
        assert outcome.kind is OutcomeKind.LUCKY_GCD
        assert outcome.factor == m
        assert trace.attempts[0].y is None


def test_shor_factor_small_semiprimes():
    outcome15, _ = shor_factor(15, ShorConfig(rng_seed=1))
    assert outcome15.factor in (3, 5)
    outcome21, _ = shor_factor(21, ShorConfig(rng_seed=1))
    assert outcome21.factor in (3, 7)
    for outcome, n in ((outcome15, 15), (outcome21, 21)):
        assert n % outcome.factor == 0 and 1 < outcome.factor < n


def test_shor_factor_every_exit_is_a_divisor():
    support.check_every_factor_divides()


def test_shor_factor_precondition_rejections():
    with pytest.raises(PreconditionError) as even:
        shor_factor(12)
    assert even.value.check == "even modulus"
    with pytest.raises(PreconditionError) as prime:
        shor_factor(97)
    assert prime.value.check == "probable prime"
    with pytest.raises(PreconditionError) as power:
        shor_factor(27)
    assert power.value.check == "perfect power"


@pytest.mark.parametrize("m", [-3, 0, 1, 91, 182])
def test_shor_factor_rejects_forced_base_outside_step1_range(m):
    with pytest.raises(ValueError, match=r"range \[2, 90\]"):
        shor_factor(91, ShorConfig(forced_m=m))


@pytest.mark.parametrize("seed", range(8))
def test_shor_factor_rejects_forced_outcome_without_base(seed):
    # y = 64 has nonzero probability for some of 15's bases and not for
    # others, so a drawn base would make the verdict depend on the seed.
    with pytest.raises(ValueError, match="needs a forced base"):
        shor_factor(15, ShorConfig(rng_seed=seed, forced_y=64))


def test_shor_factor_retries_exhausted():
    # nothing is forced, so no attempt repeats; this seed draws three
    # units (61, 73, 58) whose outcomes (10923, 8192, 0) recover no period
    config = ShorConfig(rng_seed=5, max_outer_retries=3)
    outcome, trace = shor_factor(91, config)
    assert outcome.kind is OutcomeKind.PERIOD_RECOVERY_FAILED
    assert outcome.factor is None
    assert len(trace.attempts) == 3
    assert trace.retries == 3
    assert all(a.outcome_kind is OutcomeKind.PERIOD_RECOVERY_FAILED for a in trace.attempts)


def test_fully_forced_replay_makes_one_attempt():
    # With m and y both forced every attempt would repeat the first.
    outcome, trace = shor_factor(91, ShorConfig(forced_m=3, forced_y=0))
    assert outcome.kind is OutcomeKind.PERIOD_RECOVERY_FAILED
    assert len(trace.attempts) == 1 and trace.retries == 1
    assert trace.attempts[0].y == 0 and trace.attempts[0].period is None


def test_shor_factor_reuses_circuit_for_repeated_base(monkeypatch):
    # A forced base with drawn outcomes: one circuit serves every attempt,
    # and each attempt's record is the scan of its own outcome.
    calls = []
    real = engine.period_finding_state

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "period_finding_state", counting)
    config = ShorConfig(rng_seed=5, forced_m=3)
    outcome, trace = shor_factor(91, config)
    assert len(calls) == 1
    assert [a.y for a in trace.attempts] == [10923, 10923, 8192, 2731]
    assert outcome.factor == 13
    rows = real(*calls[0]).rows
    for attempt in trace.attempts:
        assert np.abs(rows[:, attempt.y]).max() > 0
        assert attempt.convergent_tests == step25_recover_period(attempt.y, trace.Q, 3, 91).tests
    monkeypatch.undo()
    assert shor_factor(91, config)[1].to_dict() == trace.to_dict()


def test_seeded_run_draws_pinned_outcomes():
    # Which bases and outcomes a seed draws is part of the replay contract.
    outcome, trace = shor_factor(91, ShorConfig(rng_seed=12345))
    drawn = [(a.m, a.y) for a in trace.attempts]
    assert drawn == [(64, 0), (22, 10923), (59, 5461), (62, 2755), (52, None)]
    assert outcome.kind is OutcomeKind.LUCKY_GCD and outcome.factor == 13


def test_trace_replay_reproduces_convergent_tests():
    _, trace = shor_factor(21, ShorConfig(rng_seed=5))
    assert trace.attempts
    for attempt in trace.attempts:
        if attempt.y is None:
            continue
        replay = step25_recover_period(attempt.y, trace.Q, attempt.m, trace.N)
        assert replay.tests == attempt.convergent_tests
        assert replay.period == attempt.period


def test_trace_serialization_round_trip():
    import json

    _, trace = shor_factor(15, ShorConfig(rng_seed=3))
    payload = json.loads(json.dumps(trace.to_dict()))
    assert payload["N"] == 15
    assert payload["outcome"]["kind"] in [k.value for k in OutcomeKind]


def test_success_lower_bound_values():
    assert abs(success_lower_bound(6, 91) - 0.13215) < 1e-4
    n = 33
    expected = 4.0 / math.pi**2 * (1.0 - 1.0 / n) ** 2
    assert abs(success_lower_bound(1, n) - expected) < 1e-15


def test_asymptotic_bound_values():
    bound = pipeline.asymptotic_success_bound(91, period=6)
    assert abs(bound["value"] - 0.084) < 5e-4
    assert bound["kind"] == "0.232/lglgN"
    small = pipeline.asymptotic_success_bound(91, period=3)
    assert small["kind"] == "lb_table"
    assert small["period_above_3"] is False
    expected = 4.0 / (math.pi**2 * math.log(2.0)) * 0.062
    expected *= (1.0 - 1.0 / 91) ** 2 / math.log2(math.log2(91))
    assert abs(small["value"] - expected) < 1e-12


def test_bijection_lemma_exhaustive():
    for n, m in support.PAIRS:
        q_total = register_size(n)
        period = multiplicative_order(m, n)
        members = support.bijection_set(period, q_total)
        assert len(members) == period
        images = set()
        for y in members:
            d = d_from_y(period, q_total, y)
            assert 0 <= d < period
            assert support.y_from_d(period, q_total, d) == y
            images.add(d)
            # the scaled residue is exactly the rounding defect
            assert smallest_magnitude_residue(period * y, q_total) == period * y - q_total * d
        assert images == set(range(period))
        for d in range(period):
            y = support.y_from_d(period, q_total, d)
            assert y in members
            assert d_from_y(period, q_total, y) == d


def test_convergent_membership_over_bijection_set():

    for n, m in support.PAIRS:
        q_total = register_size(n)
        period = multiplicative_order(m, n)
        for y in support.bijection_set(period, q_total):
            d = d_from_y(period, q_total, y)
            g = math.gcd(d, period) if d else period
            assert support.is_convergent(d // g, period // g, y, q_total), (n, m, y)


def test_aggregate_probability_bound():
    for n, m in support.PAIRS:
        q_total = register_size(n)
        period = multiplicative_order(m, n)
        total = sum(
            closed_form_prob(y, period, q_total)
            for y in support.bijection_set(period, q_total)
            if math.gcd(d_from_y(period, q_total, y), period) == 1
        )
        assert total >= success_lower_bound(period, n), (n, m, total)


def test_odd_order_fraction_matches_distinct_prime_count():
    # two distinct prime factors -> odd-period chance at most 1/4 (+ slack)
    units = [m for m in range(1, 91) if math.gcd(m, 91) == 1]
    assert len(units) == euler_totient(91) == 72
    odd = sum(1 for m in units if multiplicative_order(m, 91) % 2 == 1)
    assert odd / len(units) <= 0.25 + 0.1


def test_lb_table_consistent_with_asymptotic_constant():
    # the tabulated floors approach e^-gamma from below as the period grows
    values = [pipeline.LB_TABLE[p] for p in sorted(pipeline.LB_TABLE)]
    assert values == sorted(values)
    assert all(v < support.E_MINUS_GAMMA for v in values)
    assert abs(support.EULER_GAMMA - 0.5772156649) < 1e-10
    assert abs(math.exp(-support.EULER_GAMMA) - support.E_MINUS_GAMMA) < 1e-10


def test_wilson_interval_sanity():
    low, high = wilson_interval(50, 100)
    assert 0.40 < low < 0.5 < high < 0.60
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_monte_carlo_small_case_beats_bound():
    trials = 10**4
    result = monte_carlo_step2(15, 2, trials, seed=7)
    sigma = math.sqrt(result.success_fraction * (1 - result.success_fraction) / trials)
    assert result.success_fraction >= result.success_lower_bound - 3 * sigma
    assert result.success_lower_bound == pytest.approx(0.1765, abs=1e-4)
    assert result.P == 4
    assert sum(result.histogram.values()) == trials
    assert result.wilson_95[0] <= result.success_fraction <= result.wilson_95[1]


def test_monte_carlo_reproducible_and_forced():
    a = monte_carlo_step2(15, 2, 500, seed=11)
    b = monte_carlo_step2(15, 2, 500, seed=11)
    assert a.successes == b.successes
    assert a.histogram == b.histogram


def test_trial_uniform_replays_the_philox_stream():
    block = pipeline.UNIFORM_BLOCK
    trials = 2 * block + 3
    for seed in (0, 2**64 - 1):
        stream = np.random.Generator(np.random.Philox(key=seed)).random(trials)
        # Out of order, so each block is drawn afresh, and across both block edges.
        for i in [trials - 1, *range(10), block - 1, block, 2 * block - 1, 2 * block]:
            assert stream[i] == pipeline.trial_uniform(seed, i), (seed, i)


def test_trial_uniform_replays_across_interleaved_seeds():
    block = pipeline.UNIFORM_BLOCK
    a, b = 3, 2**64 - 1
    streams = {
        seed: np.random.Generator(np.random.Philox(key=seed)).random(3 * block)
        for seed in (a, b)
    }
    # The same block index under seed a, then b, then a again: each switch
    # must draw the other seed's block, at both edges of the block.
    for i in (block, 2 * block - 1):
        for seed in (a, b, a):
            assert streams[seed][i] == pipeline.trial_uniform(seed, i), (seed, i)


def test_trial_uniform_rejects_negative_indices():
    # With seed 0's first block kept, a negative index must still be refused.
    pipeline.trial_uniform(0, 0)
    for i in (-1, -pipeline.UNIFORM_BLOCK, -pipeline.UNIFORM_BLOCK - 1):
        with pytest.raises(ValueError, match="negative"):
            pipeline.trial_uniform(0, i)


@pytest.mark.parametrize(
    "n, m, trials, seed, histogram",
    [
        (91, 3, 100_000, 7, (33273, 6, 66721)),
        (95, 33, 10_000, 1, (3221, 0, 6779)),
        (15, 2, 1000, 2**64 - 1, (516, 0, 484)),
    ],
)
def test_monte_carlo_golden_histograms(n, m, trials, seed, histogram):
    # Exact counts: neither the order of the draws nor the chunking may move one trial.
    result = monte_carlo_step2(n, m, trials, seed)
    keys = ("recovered_order", "recovered_multiple", "unrecovered")
    assert result.histogram == dict(zip(keys, histogram))


def test_monte_carlo_matches_naive_per_trial_loop():
    for n, m, trials in ((15, 2, 500), (91, 3, 2000)):
        for seed in (0, 11):
            result = monte_carlo_step2(n, m, trials, seed=seed)
            assert result.histogram == support.naive_monte_carlo_histogram(n, m, trials, seed)


def test_monte_carlo_chunks_do_not_change_the_histogram(monkeypatch):
    whole = monte_carlo_step2(91, 3, 2000, seed=5)
    monkeypatch.setattr(pipeline, "MONTE_CARLO_CHUNK", 97)
    chunked = monte_carlo_step2(91, 3, 2000, seed=5)
    assert chunked.histogram == whole.histogram
    assert chunked.successes == whole.successes


def test_monte_carlo_rejects_bad_input():
    with pytest.raises(ValueError):
        monte_carlo_step2(15, 3, 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_step2(15, 2, 0, seed=0)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        monte_carlo_step2(0, 3, 10, seed=0)


def test_lucky_out_of_set_successes_are_flagged():
    # the worked example's y lies outside the bijection set yet succeeds;
    # the trace records that rather than claiming it was typical
    _, trace = shor_factor(91, ShorConfig(forced_m=3, forced_y=13453))
    attempt = trace.attempts[0]
    assert attempt.period == 6
    assert attempt.y_in_bijection_set is False
    # an in-set outcome for contrast
    y_in = support.y_from_d(6, 16384, 1)
    _, trace_in = shor_factor(91, ShorConfig(forced_m=3, forced_y=y_in))
    assert trace_in.attempts[0].y_in_bijection_set is True
