"""Reference arithmetic and output checks for the benchmark.

Nothing here imports shorlab: the checks recompute every expected value
from first principles (trial division, brute-force orders, Fraction-based
continued fractions, geometric sums), so a defect in the package cannot
hide itself by also being in its checker.

Each ``check_*`` function returns None when the output is correct and a
one-line reason when it is not.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from fractions import Fraction

import numpy as np

# Wilson half-width multiplier for the Monte-Carlo check: a false alarm
# on correct code has probability below 1e-6 per (N, m) pair.
MONTECARLO_Z = 5.0
PROB_TOL = 1e-9
# Manifest fields that read the clock, so two runs of one op differ there.
VOLATILE_MANIFEST_FIELDS = ("timestamp_utc", "elapsed_s")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _iroot(n: int, k: int) -> int:
    """Largest b with b**k <= n, by bisection on integers."""
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_perfect_power(n: int) -> bool:
    return any(_iroot(n, k) ** k == n for k in range(2, n.bit_length() + 1))


def units(n: int) -> list[int]:
    """The bases m in [2, n-1] coprime to n."""
    return [m for m in range(2, n) if math.gcd(m, n) == 1]


def order(m: int, n: int) -> int:
    """Multiplicative order of m mod n by repeated multiplication."""
    x, k = m % n, 1
    while x != 1:
        x = x * m % n
        k += 1
    return k


def register_size(n: int) -> int:
    """The power of two Q with n^2 <= Q < 2n^2."""
    return 1 << (n * n - 1).bit_length()


@functools.lru_cache(maxsize=None)
def convergent_denominators(y: int, q_total: int) -> tuple[int, ...]:
    """Denominators of the convergents of y/Q, from Fraction arithmetic."""
    x = Fraction(y, q_total)
    dens = []
    k_prev2, k_prev = 1, 0
    while True:
        a = x.numerator // x.denominator
        k = a * k_prev + k_prev2
        dens.append(k)
        k_prev2, k_prev = k_prev, k
        rest = x - a
        if rest == 0:
            return tuple(dens)
        x = 1 / rest


def scan_period(y: int, q_total: int, m: int, n: int) -> int | None:
    """First convergent denominator q <= n of y/Q with m**q = 1 mod n."""
    for q in convergent_denominators(y, q_total):
        if q > n:
            return None
        if pow(m, q, n) == 1:
            return q
    return None


def outcome_possible(period: int, q_total: int, y: int) -> bool:
    """Exact test that outcome y has nonzero probability.

    The outcome probability is (r*|G(q+1)|^2 + (P-r)*|G(q)|^2) / Q^2 with
    G(k) = sum_{j<k} w^(j*t), t = P*y mod Q.  G(k) vanishes exactly when
    t != 0 and k*t = 0 mod Q.
    """
    q, r = divmod(q_total, period)
    t = period * y % q_total
    if t == 0:
        return True
    return (r > 0 and (q + 1) * t % q_total != 0) or q * t % q_total != 0


def _geometric_power(k: int, t: np.ndarray, q_total: int) -> np.ndarray:
    """|sum_{j<k} exp(2*pi*i*j*t/Q)|^2 via sin^2 ratios with exact residues."""
    kt = (k * t) % q_total
    kt = np.where(kt > q_total // 2, kt - q_total, kt)
    tt = np.where(t > q_total // 2, t - q_total, t)
    num = np.sin(np.pi * kt / q_total) ** 2
    den = np.sin(np.pi * tt / q_total) ** 2
    safe = np.where(t == 0, 1.0, den)
    return np.where(t == 0, float(k * k), num / safe)


def outcome_probs(period: int, q_total: int) -> np.ndarray:
    """Probability of every outcome y in [0, Q), from the geometric sums."""
    q, r = divmod(q_total, period)
    t = np.arange(q_total, dtype=np.int64) * period % q_total
    power = r * _geometric_power(q + 1, t, q_total) + (period - r) * _geometric_power(q, t, q_total)
    return power / (q_total * q_total)


def direct_prob(period: int, q_total: int, y: int) -> float:
    """Probability of outcome y by summing the geometric series term by term."""
    q, r = divmod(q_total, period)
    t = period * y % q_total
    j = np.arange(q + 1, dtype=np.int64)
    phases = np.exp(2j * np.pi * ((j * t) % q_total) / q_total)
    s_q = phases[:q].sum()
    s_q1 = s_q + phases[q]
    return (r * abs(s_q1) ** 2 + (period - r) * abs(s_q) ** 2) / (q_total * q_total)


def recovery_rate(n: int, m: int) -> float:
    """Exact chance that one measurement recovers the order of m mod n."""
    q_total, period = register_size(n), order(m, n)
    probs = outcome_probs(period, q_total)
    return math.fsum(
        float(probs[y]) for y in range(q_total) if scan_period(y, q_total, m, n) == period
    )


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = p_hat + z * z / (2 * trials)
    spread = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    return (center - spread) / denom, (center + spread) / denom


def check_factor(n: int, rc: int | None, stdout: str, stderr: str) -> str | None:
    """One ``factor N`` request: exit code, factor, and every attempt's record."""
    rejected = "probable prime" if is_prime(n) else "perfect power" if is_perfect_power(n) else None
    if rejected:
        if rc != 2:
            return f"N={n}: exit {rc}, expected 2 ({rejected})"
        if rejected not in stderr:
            return f"N={n}: diagnostic does not name the {rejected} check"
        return None
    if rc != 0:
        return f"N={n}: exit {rc}, expected 0"
    trace = json.loads(stdout)["trace"]
    q_total = register_size(n)
    if trace["N"] != n or trace["Q"] != q_total:
        return f"N={n}: trace names N={trace['N']}, Q={trace['Q']}"
    factor = trace["outcome"]["factor"]
    if not (isinstance(factor, int) and 1 < factor < n and n % factor == 0):
        return f"N={n}: {factor!r} is not a nontrivial factor"
    for attempt in trace["attempts"]:
        m, y = attempt["m"], attempt["y"]
        if y is None:
            if math.gcd(m, n) != attempt["gcd_m_n"] or attempt["gcd_m_n"] == 1:
                return f"N={n}, m={m}: lucky gcd record is wrong"
            continue
        period = order(m, n)
        if not outcome_possible(period, q_total, y):
            return f"N={n}, m={m}: outcome {y} has zero probability"
        for _, q_n, residue in attempt["convergent_tests"]:
            if residue != pow(m, q_n, n):
                return f"N={n}, m={m}: {m}^{q_n} mod {n} recorded as {residue}"
        # The scan accepts the first convergent denominator that is a
        # multiple of the order; usually that is the order itself.
        if attempt["period"] != scan_period(y, q_total, m, n):
            return f"N={n}, m={m}, y={y}: recovered period {attempt['period']}"
    return None


def _sample_rows(period: int, q_total: int) -> list[int]:
    """Peaks near d*Q/P for the first few d, plus evenly spaced rows."""
    peaks = {(d * q_total + period // 2) // period % q_total for d in range(min(period, 8))}
    spaced = {i * q_total // 8 + 1 for i in range(8)}
    return sorted(peaks | spaced | {0, q_total - 1})


def check_csv(n: int, m: int, text: str) -> str | None:
    """One ``distribution N m --closed-form`` CSV against the geometric sums."""
    header, _, body = text.partition("\n")
    if header != "y,prob":
        return f"N={n}, m={m}: header {header!r}"
    q_total, period = register_size(n), order(m, n)
    if body.count("\n") != q_total or not body.endswith("\n"):
        return f"N={n}, m={m}: expected {q_total} rows"
    try:
        with warnings.catch_warnings():
            # Older numpy warns and returns the numbers read so far.
            warnings.simplefilter("ignore", DeprecationWarning)
            values = np.fromstring(body.replace("\n", ","), sep=",")
    except ValueError:
        values = np.empty(0)
    if values.size != 2 * q_total:
        return f"N={n}, m={m}: a row does not hold two numbers"
    ys, probs = values[0::2], values[1::2]
    if not np.array_equal(ys, np.arange(q_total)):
        return f"N={n}, m={m}: rows are not y = 0..{q_total - 1} in order"
    mass = math.fsum(probs)
    if abs(mass - 1.0) > PROB_TOL:
        return f"N={n}, m={m}: total mass {mass!r}"
    worst = float(np.max(np.abs(probs - outcome_probs(period, q_total))))
    if worst > PROB_TOL:
        return f"N={n}, m={m}: a row is off the closed form by {worst:.3g}"
    for y in _sample_rows(period, q_total):
        if abs(probs[y] - direct_prob(period, q_total, y)) > PROB_TOL:
            return f"N={n}, m={m}: row {y} is off the direct geometric sum"
    return None


def stable_stdout(stdout: str) -> str:
    """An op's stdout without its manifest's clock fields (JSON output only)."""
    if not stdout.startswith("{"):
        return stdout
    doc = json.loads(stdout)
    manifest = doc.get("manifest")
    if isinstance(manifest, dict):
        for key in VOLATILE_MANIFEST_FIELDS:
            manifest.pop(key, None)
    return json.dumps(doc, sort_keys=True)


def check_montecarlo_pair(n: int, m: int, successes: int, trials: int) -> str | None:
    """Pooled successes of one (N, m) pair against its exact recovery rate."""
    rate = recovery_rate(n, m)
    low, high = wilson(successes, trials, MONTECARLO_Z)
    if not low <= rate <= high:
        return f"N={n}, m={m}: {successes}/{trials} excludes the exact rate {rate:.6f}"
    return None


def check_montecarlo(batches: list[tuple[int, int, int, int | None, str]]) -> dict[int, str]:
    """Check ``montecarlo N m trials`` batches given as (N, m, trials, exit, stdout).

    Each batch must exit 0 and echo its inputs; successes are then pooled
    per (N, m) pair and tested against the exact rate.  Returns the reason
    for every failed batch, keyed by its index.
    """
    failures: dict[int, str] = {}
    pooled: dict[tuple[int, int], list[int]] = {}
    for i, (n, m, trials, rc, stdout) in enumerate(batches):
        if rc != 0:
            failures[i] = f"N={n}, m={m}: exit {rc}, expected 0"
            continue
        doc = json.loads(stdout)
        if (doc["N"], doc["m"], doc["P"], doc["trials"]) != (n, m, order(m, n), trials):
            failures[i] = f"N={n}, m={m}: output echoes N, m, P, trials wrongly"
            continue
        pooled.setdefault((n, m), []).append(i)
    for (n, m), members in pooled.items():
        successes = sum(json.loads(batches[i][4])["successes"] for i in members)
        trials = sum(batches[i][2] for i in members)
        reason = check_montecarlo_pair(n, m, successes, trials)
        if reason:
            failures.update((i, reason) for i in members)
    return failures
