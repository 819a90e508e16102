"""Acceptance gate: the ten exit criteria, each at its stated tolerance.

Every criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
the lines for passing criteria too).  Criterion 2 reads the lecture's
ten-digit probability print as the truncation it is, and holds the full
value to the stated 1e-10 relative tolerance against an independent
direct sum; see the test body for the numbers.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import support
from shorlab import cli, pipeline
from shorlab.engine import (
    ModExpFunction,
    choose_geometry,
    closed_form_distribution,
    closed_form_params,
    closed_form_prob,
    simulated_distribution,
)
from shorlab.numtheory import (
    euler_totient,
    multiplicative_order,
    smallest_magnitude_residue,
)
from shorlab.pipeline import LB_TABLE, bijection_set, d_from_y


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance criterion {number:02d}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} ({description}){suffix}"


def test_criterion_01_worked_example_replication(capsys):
    started = time.perf_counter()
    code = cli.main(["replicate", "--json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    payload = json.loads(out)
    fields = {f["field"]: f for f in payload["fields"]}
    integer_fields_ok = all(
        fields[name]["ok"]
        for name in (
            "Q",
            "L",
            "coefficients",
            "p_table",
            "q_table",
            "d_of_y",
            "rejected_candidate",
            "accepted_candidate",
            "period",
            "half_power",
            "gcd_value",
            "factor",
        )
    )
    with capsys.disabled():
        report(
            1,
            "worked-example replication (factor 13, exact integer matches, < 5 s)",
            code == 0 and payload["pass"] and integer_fields_ok and elapsed < 5.0,
            f"exit={code}, elapsed={elapsed:.2f}s",
        )


def test_criterion_02_probability_value(capsys):
    # The lecture prints P(13453) as .3189335551 x 10^-6: ten digits, cut
    # rather than rounded.  A 60-digit direct sum gives
    # 3.189335551743532650...e-7, which rounded would print as ...552, and
    # lies 2.331e-10 (relative) above the print.  A ten-digit print fixes
    # the value only to within one unit of its last digit, so the stated
    # 1e-10 tolerance is held against a reference that carries the digits:
    # the direct sum over x in tests/support.py, which never calls the
    # closed form.
    reference = 0.3189335551e-6  # the lecture's truncated ten-digit print
    printed = Fraction(repr(reference))  # exactly 3189335551 * 10^-16
    last_digit = Fraction(1, 10**16)
    value = closed_form_prob(13453, closed_form_params(6, 16384))
    above_print = (Fraction(value) - printed) / last_digit
    digits_ok = 0 <= above_print < 1

    oracle = support.direct_sum_prob(13453, 6, 16384)
    rel_err = abs(value - oracle) / oracle
    closed_ok = rel_err <= 1e-10

    dist = simulated_distribution(choose_geometry(91), ModExpFunction(3, 91))
    sim_gap = abs(float(dist.probs[13453]) - value)
    sim_ok = sim_gap <= 1e-9

    detail = (
        f"closed-form {value:.16e} vs print {reference:.9e}: rel gap "
        f"{(value - reference) / reference:.3e}, {float(above_print):.4f} of the last "
        f"digit (must be in [0, 1)); rel err to direct sum {rel_err:.3e} (tolerance 1e-10); "
        f"sim-vs-closed gap {sim_gap:.3e} (tolerance 1e-9)"
    )
    with capsys.disabled():
        report(
            2,
            "probability of outcome 13453 at stated tolerances",
            digits_ok and closed_ok and sim_ok,
            detail,
        )


def test_criterion_03_expansion_table(capsys):
    from shorlab.contfrac import cf_expand

    expansion = cf_expand(13453, 16384)
    ok = (
        list(expansion.coefficients) == [0, 1, 4, 1, 1, 2, 3, 1, 1, 3, 1, 1, 1, 1, 3]
        and [p for p, _ in expansion.convergents]
        == [0, 1, 4, 5, 9, 23, 78, 101, 179, 638, 817, 1455, 2272, 3727, 13453]
        and [q for _, q in expansion.convergents]
        == [1, 1, 5, 6, 11, 28, 95, 123, 218, 777, 995, 1772, 2767, 4539, 16384]
    )
    with capsys.disabled():
        report(3, "all 15 expansion-table columns reproduced exactly", ok)


def test_criterion_04_exact_divisor_distribution(capsys):
    geometry = choose_geometry(15)
    simulated = simulated_distribution(geometry, ModExpFunction(2, 15))
    closed = closed_form_distribution(closed_form_params(4, geometry.Q))
    peaks = {0, 64, 128, 192}
    ok = True
    for probs in (simulated.probs, closed.probs):
        for y in range(geometry.Q):
            if y in peaks:
                ok = ok and abs(probs[y] - 0.25) <= 1e-12
            else:
                ok = ok and probs[y] <= 1e-12
    with capsys.disabled():
        report(4, "period-divides-register case: exactly 1/4 on the four peaks", ok)


def test_criterion_05_simulation_matches_closed_form(capsys):
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for n, m in support.PAIRS:
        geometry = choose_geometry(n)
        period = multiplicative_order(m, n)
        simulated = simulated_distribution(geometry, ModExpFunction(m, n))
        closed = closed_form_distribution(closed_form_params(period, geometry.Q))
        gap = float(np.max(np.abs(simulated.probs - closed.probs)))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-9
        ok = ok and abs(simulated.probs.sum() - 1.0) <= 1e-9
        ok = ok and abs(closed.probs.sum() - 1.0) <= 1e-9
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(
            5,
            "five (N, m) pairs: simulated vs closed-form distributions, < 60 s",
            ok,
            f"worst entrywise gap {worst:.3e}, elapsed {elapsed:.1f}s",
        )


def test_criterion_06_probability_floor_and_aggregate_bound(capsys):
    ok = True
    for n, m in support.PAIRS:
        geometry = choose_geometry(n)
        period = multiplicative_order(m, n)
        params = closed_form_params(period, geometry.Q)
        damping = (1.0 - 1.0 / n) ** 2
        floor = 4.0 / math.pi**2 / period * damping
        cutoff = period / 2.0 * (1.0 - 1.0 / n)
        for y in range(geometry.Q):
            t = smallest_magnitude_residue(period * y, geometry.Q)
            if 0 < abs(t) <= cutoff:
                ok = ok and closed_form_prob(y, params) >= floor - 1e-15
        aggregate = sum(
            closed_form_prob(y, params)
            for y in bijection_set(period, geometry.Q)
            if math.gcd(d_from_y(period, geometry.Q, y), period) == 1
        )
        ok = ok and aggregate >= pipeline.success_lower_bound(period, n) - 1e-15
    with capsys.disabled():
        report(6, "per-outcome probability floor and aggregate recovery bound", ok)


def test_criterion_07_rounding_bijection(capsys):
    ok = True
    for n, m in support.PAIRS:
        geometry = choose_geometry(n)
        period = multiplicative_order(m, n)
        members = bijection_set(period, geometry.Q)
        ok = ok and len(members) == period
        seen = set()
        for y in members:
            d = d_from_y(period, geometry.Q, y)
            seen.add(d)
            ok = ok and 0 <= d < period
            ok = ok and support.y_from_d(period, geometry.Q, d) == y
            ok = ok and smallest_magnitude_residue(period * y, geometry.Q) == period * y - geometry.Q * d
        ok = ok and seen == set(range(period))
        for d in range(period):
            ok = ok and d_from_y(period, geometry.Q, support.y_from_d(period, geometry.Q, d)) == d
    with capsys.disabled():
        report(7, "rounding maps are mutually inverse between Y and the period set", ok)


def test_criterion_08_monte_carlo_beats_floor(capsys):
    started = time.perf_counter()
    result = pipeline.monte_carlo_step2(91, 3, 10**5, seed=20260808)
    elapsed = time.perf_counter() - started
    floor = 0.084
    ok = result.wilson_low > floor and elapsed < 300.0
    with capsys.disabled():
        report(
            8,
            "100k seeded trials: Wilson 95% lower limit beats the 8.4% floor, < 5 min",
            ok,
            f"fraction={result.success_fraction:.4f}, wilson_low={result.wilson_low:.4f}, "
            f"elapsed={elapsed:.0f}s",
        )


def test_criterion_09_property_suites(capsys):
    started = time.perf_counter()
    support.check_cf_round_trip_and_determinant(count=10**4)
    support.check_close_approximations_are_convergents(count=10**3)
    support.check_qft_unitarity_and_fourth_power()
    support.check_entangler_involution()
    support.check_every_factor_divides()
    elapsed = time.perf_counter() - started
    ok = elapsed < 120.0
    with capsys.disabled():
        report(
            9,
            "property suites (round-trip, determinant, approximation, unitarity, "
            "involution, divisor) green in < 2 min",
            ok,
            f"elapsed {elapsed:.1f}s",
        )


def test_criterion_10_totient_floor_table(capsys):
    ok = True
    detail = []
    for period, floor in sorted(LB_TABLE.items()):
        ratio = Fraction(euler_totient(period), period) * math.log(math.log(period))
        ok = ok and float(ratio) >= floor - 1e-3
        detail.append(f"{period}:{float(ratio):.3f}>={floor}")
    with capsys.disabled():
        report(10, "tabulated totient-ratio floors hold with 1e-3 slack", ok, "; ".join(detail[:3]) + "...")


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-v", "-s"]))
