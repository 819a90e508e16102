"""The five-step factoring pipeline and its success-probability bounds.

Control flow: pick a random base m (step 1), run the quantum subroutine to
draw an outcome y (step 2), recover a candidate period from the
convergents of y/Q (step 2.5), then turn an even period into a factor via
gcd(m**(P/2) - 1, N) (steps 3-5).  Odd periods, trivial roots and failed
recoveries all consume one outer retry and re-enter at step 1 with a
fresh m; re-drawing m on a step-2.5 failure is a superset of re-running
only the quantum step and keeps the loop a single state machine.

Every run produces a FactorizationTrace with enough detail to replay the
period-recovery decisions exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from . import contfrac, engine, numtheory

# Miller-Rabin rounds of the primality precondition.  A witness proves n
# composite; no witness leaves n a probable prime, with error bound 2**-20.
MILLER_RABIN_ROUNDS = 20

# Tabulated lower bounds for e**-gamma - eps(P): the margin by which the
# totient ratio phi(P)/(P/ln ln P) clears its asymptotic liminf at small P.
LB_TABLE: dict[int, float] = {
    3: 0.062,
    4: 0.163,
    5: 0.194,
    7: 0.303,
    13: 0.326,
    31: 0.375,
    61: 0.383,
    211: 0.411,
    421: 0.425,
    631: 0.435,
    841: 0.468,
}


class OutcomeKind(str, Enum):
    FACTOR_FOUND = "factor_found"
    LUCKY_GCD = "lucky_gcd"
    ODD_PERIOD = "odd_period"
    TRIVIAL_ROOT = "trivial_root"
    PERIOD_RECOVERY_FAILED = "period_recovery_failed"


@dataclass(frozen=True)
class StepOutcome:
    """Terminal state of one classical post-processing pass (or of a full run)."""

    kind: OutcomeKind
    factor: int | None = None


class PreconditionError(Exception):
    """The modulus fails one of the pipeline's entry checks; .check names it."""

    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


@dataclass(frozen=True)
class ShorConfig:
    rng_seed: int = 0
    max_outer_retries: int = 100
    forced_m: int | None = None
    forced_y: int | None = None


@dataclass(frozen=True)
class PeriodRecovery:
    """Result of the convergent scan: candidate period plus the audit trail.

    ``tests`` records every candidate tried as (n, q_n, m**q_n mod N), in
    scan order; ``period`` is None when the scan exhausted the expansion.
    """

    period: int | None
    tests: tuple[tuple[int, int, int], ...]


@dataclass
class AttemptRecord:
    m: int
    gcd_m_n: int
    y: int | None
    convergent_tests: tuple[tuple[int, int, int], ...]
    period: int | None
    outcome_kind: OutcomeKind
    y_in_bijection_set: bool | None = None


@dataclass
class FactorizationTrace:
    """Complete audit record of one pipeline run."""

    N: int
    Q: int
    L: int
    attempts: list[AttemptRecord] = field(default_factory=list)
    outcome: StepOutcome | None = None
    elapsed_s: float = 0.0

    @property
    def m(self) -> int | None:
        return self.attempts[-1].m if self.attempts else None

    @property
    def retries(self) -> int:
        """Attempts that failed to produce a factor."""
        succeeded = self.outcome is not None and self.outcome.factor is not None
        return len(self.attempts) - (1 if succeeded else 0)

    def to_dict(self) -> dict:
        """The trace as JSON-ready data: its fields but the clock, plus m and retries."""
        data = asdict(self)
        del data["elapsed_s"]
        data["outcome"] = data["outcome"] or {"kind": None, "factor": None}
        return {**data, "m": self.m, "retries": self.retries}


def d_from_y(period: int, q_total: int, y: int) -> int:
    """d(y) = round(P*y/Q), the frequency index nearest to y's scaled position."""
    return numtheory.nearest_int(period * y, q_total)


def step1_choose_m(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Draw m uniformly from [2, N-1] and return (m, gcd(m, N))."""
    if n < 3:
        raise ValueError("modulus must be >= 3")
    m = int(rng.integers(2, n))
    return m, numtheory.gcd_euclid(m, n)


def step25_recover_period(y: int, q_total: int, m: int, n: int) -> PeriodRecovery:
    """Scan convergent denominators of y/Q in increasing order for the period.

    Each q_n >= 1 is tested via m**q_n mod N, including the early q_n = 1
    candidates (harmless: only m = 1 has order 1, and step 1 never draws
    it).  The scan stops as soon as q_n exceeds N, since any true period
    is at most phi(N) < N; the expansion is not computed past that term.
    """
    tests: list[tuple[int, int, int]] = []
    for n_idx, (_, _, q_n) in enumerate(contfrac.convergents(y, q_total)):
        if q_n > n:
            break
        residue = numtheory.mod_pow(m, q_n, n)
        tests.append((n_idx, q_n, residue))
        if residue == 1:
            return PeriodRecovery(period=q_n, tests=tuple(tests))
    return PeriodRecovery(period=None, tests=tuple(tests))


def step345_classical(m: int, period: int, n: int) -> StepOutcome:
    """Turn a verified period into a factor, or report why it cannot.

    Odd periods go back to step 1.  For even periods, x = m**(P/2) mod N
    satisfies (x - 1)(x + 1) = 0 mod N; unless x is a trivial square root
    of 1 (x = +-1, possible when the candidate overshot the true order or
    when we are simply unlucky), gcd(x - 1, N) is a nontrivial factor.
    """
    if period < 1 or numtheory.mod_pow(m, period, n) != 1:
        raise ValueError(f"{period} is not a period of {m} mod {n}")
    if period % 2 == 1:
        return StepOutcome(OutcomeKind.ODD_PERIOD)
    x = numtheory.mod_pow(m, period // 2, n)
    if x == n - 1 or x == 1:
        return StepOutcome(OutcomeKind.TRIVIAL_ROOT)
    d = numtheory.gcd_euclid(x - 1, n)
    if not (1 < d < n and n % d == 0):
        raise RuntimeError(f"derived factor {d} of {n} is not nontrivial; unreachable")
    return StepOutcome(OutcomeKind.FACTOR_FOUND, factor=d)


def _check_preconditions(n: int, rng: np.random.Generator) -> None:
    if n < 3 or n % 2 == 0:
        raise PreconditionError("even modulus", f"{n} is even or too small; need an odd N >= 3")
    if numtheory.miller_rabin(n, MILLER_RABIN_ROUNDS, rng) is None:
        raise PreconditionError(
            "probable prime",
            f"{n} is probably prime (error bound {2.0**-MILLER_RABIN_ROUNDS:.2e}); "
            "nothing to factor",
        )
    if numtheory.is_perfect_power(n):
        raise PreconditionError(
            "perfect power",
            f"{n} is a perfect power; the even-period argument gives no leverage, rejecting",
        )


def shor_factor(n: int, config: ShorConfig | None = None) -> tuple[StepOutcome, FactorizationTrace]:
    """Run the full pipeline on an odd composite n.

    Returns the final outcome plus a trace recording every attempt.  The
    forced_m / forced_y config fields replay a specific run (the forced
    base must lie in step 1's range [2, N-1] and the forced outcome must
    have nonzero probability); with both forced the run makes one attempt.
    """
    config = config or ShorConfig()
    started = time.perf_counter()
    rng = np.random.default_rng(config.rng_seed)
    _check_preconditions(n, rng)
    if config.forced_m is not None and not 2 <= config.forced_m < n:
        raise ValueError(f"forced base {config.forced_m} is outside step 1's range [2, {n - 1}]")
    geometry = engine.choose_geometry(n)
    # Every attempt that reaches the circuit needs at least one row of Q
    # amplitudes: past the budget, only a lucky gcd could end the run.
    engine.check_circuit_budget(1, geometry.Q)
    trace = FactorizationTrace(N=n, Q=geometry.Q, L=geometry.L)
    outcome = StepOutcome(OutcomeKind.PERIOD_RECOVERY_FAILED)
    # The circuit is deterministic in (geometry, m): an attempt that draws
    # the previous attempt's base reuses its outcome distribution.
    circuit_m = None
    # With both the base and the outcome forced, every attempt repeats the
    # first one exactly, so one attempt decides the run.
    replay = config.forced_m is not None and config.forced_y is not None
    for _ in range(1 if replay else config.max_outer_retries):
        if config.forced_m is not None:
            m = config.forced_m
            g = numtheory.gcd_euclid(m, n)
        else:
            m, g = step1_choose_m(n, rng)
        if g != 1:
            outcome = StepOutcome(OutcomeKind.LUCKY_GCD, factor=g)
            trace.attempts.append(
                AttemptRecord(m, g, None, (), None, OutcomeKind.LUCKY_GCD)
            )
            break
        if m != circuit_m:
            dist = engine.simulated_distribution(geometry, engine.ModExpFunction(m, n))
            cumulative = np.cumsum(dist.probs)
            circuit_m = m
        if config.forced_y is not None:
            y = engine.check_outcome(dist, config.forced_y)
        else:
            y = int(engine.draw_outcome(cumulative, rng.random()))
        recovery = step25_recover_period(y, geometry.Q, m, n)
        if recovery.period is None:
            trace.attempts.append(
                AttemptRecord(
                    m, g, y, recovery.tests, None, OutcomeKind.PERIOD_RECOVERY_FAILED
                )
            )
            continue
        in_set = (
            abs(numtheory.smallest_magnitude_residue(recovery.period * y, geometry.Q))
            <= recovery.period / 2.0
        )
        step_outcome = step345_classical(m, recovery.period, n)
        trace.attempts.append(
            AttemptRecord(
                m, g, y, recovery.tests, recovery.period, step_outcome.kind, in_set
            )
        )
        if step_outcome.kind is OutcomeKind.FACTOR_FOUND:
            outcome = step_outcome
            break
    trace.outcome = outcome
    trace.elapsed_s = time.perf_counter() - started
    if outcome.factor is not None and not (1 < outcome.factor < n and n % outcome.factor == 0):
        raise RuntimeError(f"pipeline produced a bogus factor {outcome.factor} of {n}")
    return outcome, trace


def success_lower_bound(period: int, n: int) -> float:
    """(4/pi^2) * (phi(P)/P) * (1 - 1/N)^2: floor on the chance that one
    measurement yields a d coprime to P (and hence recovers P outright)."""
    phi = numtheory.euler_totient(period)
    return 4.0 / math.pi**2 * (phi / period) * (1.0 - 1.0 / n) ** 2


def asymptotic_success_bound(n: int, period: int) -> dict:
    """The 0.232/lglg(N) floor, with the tabulated fallback for tiny periods.

    The 0.232 constant presumes the period exceeds 3.  For a period <= 3
    the tabulated LB row for that period is surfaced instead (scaled by
    the same 4/(pi^2 ln 2) prefactor).
    """
    if period <= 3:
        return {"value": lb_table_bound(period, n), "kind": "lb_table", "period_above_3": False}
    lglg = math.log2(math.log2(n))
    value = 0.232 / lglg * (1.0 - 1.0 / n) ** 2
    return {"value": value, "kind": "0.232/lglgN", "period_above_3": True}


def lb_table_bound(period: int, n: int) -> float | None:
    """Success floor from the tabulated rows: 4/(pi^2 ln 2) * LB(P') / lglg(N)
    with P' the largest tabulated period <= P.  None below the table."""
    rows = [p for p in LB_TABLE if p <= period]
    if not rows:
        return None
    lb = LB_TABLE[max(rows)]
    lglg = math.log2(math.log2(n))
    return 4.0 / (math.pi**2 * math.log(2.0)) * lb / lglg * (1.0 - 1.0 / n) ** 2


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial fraction."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = p_hat + z * z / (2 * trials)
    spread = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


@dataclass
class MonteCarloResult:
    """Summary of a Monte Carlo run; the field names are its JSON keys."""

    N: int
    m: int
    trials: int
    P: int
    successes: int
    success_fraction: float
    wilson_95: tuple[float, float]
    histogram: dict[str, int]
    success_lower_bound: float
    asymptotic_bound: dict


# Trial i's uniform is the i-th double of a Philox counter-based stream
# keyed by the seed.  The stream is cut into blocks of UNIFORM_BLOCK draws
# (a multiple of Philox's four outputs per counter value), so any block
# can be drawn without the ones before it.
UNIFORM_BLOCK = 1 << 12
# Trials whose draws and outcome indices are held at once in Monte Carlo.
MONTE_CARLO_CHUNK = 1 << 16


@functools.lru_cache(maxsize=1)
def _uniform_block(master_seed: int, block: int) -> np.ndarray:
    bit_generator = np.random.Philox(key=master_seed)
    bit_generator.advance(block * UNIFORM_BLOCK // 4)
    draws = np.random.Generator(bit_generator).random(UNIFORM_BLOCK)
    draws.flags.writeable = False
    return draws


def trial_uniform(master_seed: int, trial_index: int) -> float:
    """The uniform draw of one trial: element ``trial_index`` of the Philox
    stream ``np.random.Generator(np.random.Philox(key=master_seed))``.

    The counter jumps straight to the trial's block, so any single trial
    can be replayed; the last block drawn is kept, so consecutive trials
    cost one array lookup each.
    """
    return _uniform_block(master_seed, trial_index // UNIFORM_BLOCK).item(
        trial_index % UNIFORM_BLOCK
    )


def monte_carlo_step2(n: int, m: int, trials: int, seed: int) -> MonteCarloResult:
    """Estimate the per-measurement period-recovery rate over seeded trials.

    The quantum subroutine is a fixed stochastic source for given (n, m),
    so its distribution is simulated once and each trial draws one outcome
    from it by inverse CDF.  A trial succeeds when the convergent scan
    returns exactly the multiplicative order of m.  The scan is a function
    of the outcome alone, so it runs once per distinct outcome and counts
    for every trial that drew it.  Trials run in chunks of
    MONTE_CARLO_CHUNK and only the per-outcome counts outlive a chunk, so
    memory does not grow with the trial count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    geometry = engine.choose_geometry(n)
    period = numtheory.multiplicative_order(m, n)
    dist = engine.simulated_distribution(geometry, engine.ModExpFunction(m, n))
    cumulative = np.cumsum(dist.probs)
    hits = np.zeros(geometry.Q, dtype=np.int64)
    # Every draw comes from trial_uniform, the function that replays a
    # trial, so a run and a replay cannot disagree.
    for start in range(0, trials, MONTE_CARLO_CHUNK):
        size = min(MONTE_CARLO_CHUNK, trials - start)
        uniforms = np.fromiter(
            map(trial_uniform, itertools.repeat(seed, size), range(start, start + size)),
            dtype=np.float64,
            count=size,
        )
        hits += np.bincount(engine.draw_outcome(cumulative, uniforms), minlength=geometry.Q)
    ys = np.flatnonzero(hits)
    histogram = {"recovered_order": 0, "recovered_multiple": 0, "unrecovered": 0}
    for y, count in zip(ys.tolist(), hits[ys].tolist()):
        recovery = step25_recover_period(y, geometry.Q, m, n)
        if recovery.period == period:
            histogram["recovered_order"] += count
        elif recovery.period is not None:
            histogram["recovered_multiple"] += count
        else:
            histogram["unrecovered"] += count
    successes = histogram["recovered_order"]
    return MonteCarloResult(
        N=n,
        m=m,
        trials=trials,
        P=period,
        successes=successes,
        success_fraction=successes / trials,
        wilson_95=wilson_interval(successes, trials),
        histogram=histogram,
        success_lower_bound=success_lower_bound(period, n),
        asymptotic_bound=asymptotic_success_bound(n, period),
    )
