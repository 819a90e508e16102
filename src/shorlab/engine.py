"""Exact simulation of the quantum period-finding subroutine.

Two independent routes to the same measurement statistics:

* a two-register state evolved through the actual circuit (initialize ->
  Fourier transform -> modular-exponentiation entangler -> Fourier
  transform -> measure register 1), and
* the closed-form outcome distribution derived from the decomposition
  Q = P*q + r of the register size by the period.

The two must agree entrywise to 1e-9; the test suite enforces this.

The joint state is held as dense register-1 rows, one complex128 row of
length Q per occupied register-2 value.  Register 2 never holds more than
P distinct values, so the circuit's state takes at most P*Q*16 bytes
(1.5 MiB for N=91, m=3); the dense Q*Q joint space is never materialized.
Each transform is one batched FFT over the rows, and the entangler moves
amplitudes between rows through a table of m**x mod N.  The circuit
route never reads the period: its rows are whatever register-2 values
the entangler produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import gcd_euclid, smallest_magnitude_residue


class CapacityError(Exception):
    """Input exceeds the configured desk-scale size cap."""


# Desk-scale cap on the modulus, keeping Q = O(N^2) registers and dense
# distributions materializable.  Not a correctness limit: integer math is exact.
DEFAULT_MAX_N = 10**6
# Most amplitudes the circuit's rows may hold after the entangler (1 GiB of
# complex128, before the transform's copies), checked before the circuit starts.
CIRCUIT_MAX_AMPLITUDES = 1 << 26
# Largest register size the closed-form distribution accepts, set by memory:
# its sin^2 table and its result each hold Q/(2*gcd(P, Q)) + 1 doubles,
# 2 GiB together at 2**28 in the worst case, odd P.
CLOSED_FORM_MAX_Q = 1 << 28
# Outcomes the closed form evaluates per batch.
SIN2_BATCH = 1 << 16


@dataclass(frozen=True)
class ModExpFunction:
    """The entangler's classical core a -> m**a mod N, periodic in the order of m."""

    m: int
    N: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("modulus must be >= 2")
        if gcd_euclid(self.m % self.N, self.N) != 1:
            raise ValueError(f"base and modulus must be coprime: gcd({self.m}, {self.N}) != 1")

    def table(self, size: int) -> np.ndarray:
        """m**x mod N for x = 0..size-1, by repeated squaring over whole blocks.

        Once x < k is filled, the block k <= x < 2k is that prefix times
        m**k, and squaring m**k gives the next block's multiplier.  Every
        product is of two residues below N, so int64 is exact while
        N^2 < 2**63 (the size cap keeps N far below that).
        """
        values = np.empty(size, dtype=np.int64)
        values[:1] = 1 % self.N
        filled, power = 1, self.m % self.N  # power = m**filled mod N
        while filled < size:
            block = min(filled, size - filled)
            values[filled : filled + block] = values[:block] * power % self.N
            filled += block
            power = power * power % self.N
        return values


@dataclass(frozen=True, eq=False)
class JointState:
    """Two-register state: rows[i, x] is the amplitude of |x>|levels[i]>.

    ``levels`` holds the occupied register-2 values, sorted and distinct;
    ``rows`` is complex128 of shape (len(levels), Q).
    """

    levels: np.ndarray
    rows: np.ndarray

    @property
    def amplitudes(self) -> np.ndarray:
        """Every amplitude, row by row: rows.reshape(-1)."""
        return self.rows.reshape(-1)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Measurement distribution over register-1 outcomes y in {0..size-1}.

    With ``period`` None, ``values`` holds p(y) for every outcome.
    Otherwise p has that period and is symmetric within it, p(y) =
    p(period - y), and ``values`` holds p(0..period//2) alone;
    ``value_index`` finds any outcome's entry.
    """

    values: np.ndarray
    size: int
    period: int | None = None

    def value_index(self, y):
        """Index into ``values`` of outcome y (an int or an int64 array):
        y itself, or min(y mod period, period - y mod period)."""
        if self.period is None:
            return y
        y = y % self.period
        return np.minimum(y, self.period - y)

    @property
    def probs(self) -> np.ndarray:
        """p(y) for every outcome y; built on each read when ``period`` is set."""
        if self.period is None:
            return self.values
        half, period = self.values, self.period
        probs = np.empty(self.size)
        probs[: half.size] = half
        probs[half.size : period] = half[period - half.size : 0 : -1]
        probs.reshape(-1, period)[1:] = probs[:period]
        return probs


def register_size(n: int) -> int:
    """Size Q of each register for the modulus n: the unique Q = 2**L with
    n^2 <= Q < 2n^2, so both registers hold L qubits."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > DEFAULT_MAX_N:
        raise CapacityError(f"modulus {n} exceeds the desk-scale cap {DEFAULT_MAX_N}")
    return 1 << (n * n - 1).bit_length()


def _probabilities(rows: np.ndarray) -> np.ndarray:
    return rows.real**2 + rows.imag**2


def check_circuit_budget(rows: int, q_total: int) -> None:
    """Raise CapacityError if ``rows`` rows of Q amplitudes are past CIRCUIT_MAX_AMPLITUDES."""
    if rows * q_total > CIRCUIT_MAX_AMPLITUDES:
        raise CapacityError(
            f"the circuit needs {rows} register-2 rows of Q={q_total} "
            f"amplitudes, past the budget of 2**26 = {CIRCUIT_MAX_AMPLITUDES} amplitudes"
        )


def check_closed_form_budget(q_total: int) -> None:
    """Raise CapacityError if a register of size Q is past CLOSED_FORM_MAX_Q."""
    if q_total > CLOSED_FORM_MAX_Q:
        raise CapacityError(
            f"register size {q_total} exceeds the closed-form budget Q <= 2**28 "
            "(its sin^2 table and result take up to 2 GiB there)"
        )


def initialize(Q: int) -> JointState:
    """Both registers in |0>: one row of Q, register-2 value 0, unit amplitude at x = 0."""
    rows = np.zeros((1, Q), dtype=np.complex128)
    rows[0, 0] = 1.0
    return JointState(np.zeros(1, dtype=np.int64), rows)


def apply_qft_reg1(state: JointState) -> JointState:
    """Q-point Fourier transform on register 1, every register-2 row at once.

    Each row is mapped through Q**-0.5 * sum_x amp[x] * omega**(x*y) with
    omega = e^(2*pi*i/Q).  numpy's inverse FFT uses exactly this positive
    sign convention, so the transform is sqrt(Q) * ifft along the rows;
    the test suite pins it against the dense unitary matrix.
    """
    rows = np.fft.ifft(state.rows, axis=1) * math.sqrt(state.rows.shape[1])
    return JointState(state.levels, rows)


def apply_modexp_entangler(state: JointState, f: ModExpFunction) -> JointState:
    """The involutive entangler |x>|l> -> |x>|f(x) - l mod N>.

    A pure basis permutation: every nonzero amplitude moves to the row of
    its new register-2 value and keeps its column, never combined with
    another, so the norm is preserved exactly and applying it twice
    restores the state.  On register-2 value 0 it reduces to
    |x>|0> -> |x>|f(x)>.
    """
    n = f.N
    if state.levels.size and state.levels[-1] >= n:
        raise ValueError(f"register-2 value {state.levels[-1]} out of range for modulus {n}")
    row, x = np.nonzero(state.rows)
    q_total = state.rows.shape[1]
    targets = (f.table(q_total)[x] - state.levels[row]) % n
    # A presence table over the N register-2 values gives the sorted
    # distinct targets, and its running count each target's row.
    present = np.zeros(n, dtype=bool)
    present[targets] = True
    levels = np.flatnonzero(present)
    target_row = (np.cumsum(present) - 1)[targets]
    rows = np.zeros((levels.size, q_total), dtype=np.complex128)
    rows[target_row, x] = state.rows[row, x]
    return JointState(levels, rows)


def reg1_distribution(state: JointState) -> OutcomeDistribution:
    """Probability of each register-1 outcome: column sums of |amplitude|^2."""
    probs = _probabilities(state.rows).sum(axis=0)
    return OutcomeDistribution(probs, probs.size)


def draw_outcome(cumulative: np.ndarray, u):
    """Inverse-CDF draw: the outcome whose cumulative-mass interval holds u.

    ``cumulative`` is np.cumsum of a distribution's probs and u is uniform
    in [0, 1), a float or an array of them.  The result is the first index
    whose cumulative mass exceeds u * cumulative[-1], and it always has
    nonzero probability: a zero-probability outcome repeats its
    predecessor's cumulative value, so side="right" passes it by.  It is
    also always in range, since Generator.random() is at most 1 - 2**-53
    and u * cumulative[-1] then rounds to below cumulative[-1].
    """
    return np.searchsorted(cumulative, u * cumulative[-1], side="right")


def check_outcome(dist: OutcomeDistribution, y: int) -> int:
    """Return a forced outcome y after checking it can be measured at all:
    in the sample space [0, Q) and of nonzero probability."""
    if not 0 <= y < dist.size:
        raise ValueError(f"outcome {y} outside the sample space of size {dist.size}")
    if dist.values[dist.value_index(y)] == 0.0:
        raise ValueError(f"outcome {y} has zero probability")
    return y


def collapse_reg1(state: JointState, y0: int) -> JointState:
    """Project register 1 onto |y0> and renormalize the surviving column."""
    check_outcome(reg1_distribution(state), y0)
    column = state.rows[:, y0]
    rows = np.zeros_like(state.rows)
    rows[:, y0] = column / math.sqrt(float(_probabilities(column).sum()))
    return JointState(state.levels, rows)


def measure_reg1(state: JointState, rng: np.random.Generator) -> tuple[int, JointState]:
    """Sample a register-1 outcome by inverse CDF and collapse onto it."""
    y0 = int(draw_outcome(np.cumsum(reg1_distribution(state).probs), rng.random()))
    return y0, collapse_reg1(state, y0)


def period_finding_state(f: ModExpFunction) -> JointState:
    """Run the full circuit (init, transform, entangle, transform) on
    registers of size register_size(f.N) and return the state.

    The budget is decided first, before anything of register size exists.
    From |0>|0>, register 2 ends up holding the distinct values of m**x
    mod N, and all of them occur among x < N <= Q, so an N-entry presence
    table over the first N entries of the m**x table counts the rows.
    """
    Q = register_size(f.N)
    present = np.zeros(f.N, dtype=bool)
    present[f.table(f.N)] = True
    check_circuit_budget(np.count_nonzero(present), Q)
    state = initialize(Q)
    state = apply_qft_reg1(state)
    state = apply_modexp_entangler(state, f)
    return apply_qft_reg1(state)


def simulated_distribution(f: ModExpFunction) -> OutcomeDistribution:
    """Measurement distribution of the simulated circuit (the stochastic source)."""
    return reg1_distribution(period_finding_state(f))


def _split(P: int, Q: int) -> tuple[int, int, float]:
    """(q, r, p0): Q = P*q + r with 0 <= r < P, and p0 the probability at t = 0."""
    if P < 1 or Q < 1:
        raise ValueError("period and register size must be >= 1")
    q, r = divmod(Q, P)
    return q, r, (r * (P * q + P) ** 2 + (P - r) * (P * q) ** 2) / (Q * Q * P * P)


def _sin2_pi_ratio(num: int, den: int) -> float:
    # sin^2(pi * num/den) with the integer num reduced mod den first.  The
    # reduction is exact (sin^2 has period pi), keeps the argument in
    # [-pi/2, pi/2], and returns exactly 0.0 whenever den divides num.
    return math.sin(math.pi * smallest_magnitude_residue(num, den) / den) ** 2


def closed_form_prob(y: int, P: int, Q: int) -> float:
    """Probability of measuring y, from the two-branch closed form for
    period P and register size Q = P*q + r, 0 <= r < P.

    With t = {P*y}_Q (smallest-magnitude residue):

      t != 0:  [r*sin^2(pi*t*(q+1)/Q) + (P-r)*sin^2(pi*t*q/Q)]
                 / (Q^2 * sin^2(pi*t/Q))
      t == 0:  [r*(P*q+P)^2 + (P-r)*(P*q)^2] / (Q^2 * P^2)

    All sine arguments are integer multiples of pi/Q and are reduced
    exactly before evaluation; unreduced arguments near N*Q would cost
    ~10 digits of precision.
    """
    q, r, p0 = _split(P, Q)
    if not 0 <= y < Q:
        raise ValueError(f"outcome {y} outside the sample space of size {Q}")
    t = smallest_magnitude_residue(P * y, Q)
    if t == 0:
        return p0
    numerator = r * _sin2_pi_ratio(t * (q + 1), Q) + (P - r) * _sin2_pi_ratio(t * q, Q)
    return numerator / (Q * Q * _sin2_pi_ratio(t, Q))


def _sin2_table(den: int, step: int) -> np.ndarray:
    """sin^2(pi*k/den) for k = 0, step, 2*step, ... <= den/2, den//(2*step) + 1
    entries, each bit for bit as _sin2_pi_ratio computes it, built in place.

    pi*k/den is the same two correctly rounded operations on the exact
    float64 k.  np.float_power(s, 2) calls the C pow that s ** 2 calls
    (s*s, as np.square computes it, differs in the last bit on some
    entries), and np.sin gives what math.sin gives; the test suite checks
    both on every angle of the Q = 2**20 table.
    """
    table = np.arange(0, den // 2 + 1, step, dtype=np.float64)
    table *= math.pi
    table /= den
    np.sin(table, out=table)
    return np.float_power(table, 2, out=table)


def closed_form_distribution(P: int, Q: int) -> OutcomeDistribution:
    """The closed form for period P over the sample space of size Q, from
    int64 residues, stored as half a period.

    Bit for bit what ``closed_form_prob`` gives at each y, in the same
    operation order.  Every sine argument is pi*k/Q for an integer k that
    the scalar route reduces to its smallest-magnitude residue, so
    |k| <= Q/2 and, sin^2 being even, one table over k = 0..Q/2 serves
    them all.  Since P*q = Q - r, the arguments t*q and t*(q+1), with
    t = P*y, are -r*y and (P - r)*y mod Q, so each residue (t, tq, tq1) is
    one product y * (c mod Q) mod Q.  Each c is a multiple of
    g = gcd(P, Q), and so is Q, so the residue is g times
    y * ((c mod Q)/g) mod Q/g, below 2**56 at Q <= 2**28.  Hence only
    the table entries with g | k are read, Q/(2g) + 1 of them, and the
    distribution repeats with period Q/g.  At period - y every residue is
    negated, which folds to the same table entries, so p(y) = p(period -
    y) bit for bit: only the outcomes y <= period/2 are evaluated,
    SIN2_BATCH at a time and written straight into the result so the
    temporaries stay small.  A register past CLOSED_FORM_MAX_Q is refused
    before the table exists.
    """
    _, r, p0 = _split(P, Q)
    check_closed_form_budget(Q)
    g = math.gcd(P, Q)
    period = Q // g
    sin2 = _sin2_table(Q, g)

    def sin2_at(residue: np.ndarray) -> np.ndarray:
        # residue in [0, period), in units of g, overwritten by the
        # magnitude of its smallest-magnitude representative.
        np.minimum(residue, period - residue, out=residue)
        return sin2[residue]

    # (IEEE products commute, so sin2 * r is bit for bit r * sin2.)
    half = np.full(period // 2 + 1, p0)
    for start in range(0, half.size, SIN2_BATCH):
        y = np.arange(start, min(start + SIN2_BATCH, half.size), dtype=np.int64)
        t, tq, tq1 = (y * (c % Q // g) for c in (P, r, P - r))
        for residue in (t, tq, tq1):
            residue %= period
        numerator = sin2_at(tq1)
        numerator *= float(r)
        numerator += float(P - r) * sin2_at(tq)
        nonzero = t != 0
        denominator = sin2_at(t)
        denominator *= float(Q * Q)
        np.divide(numerator, denominator, out=half[start : start + t.size], where=nonzero)
    return OutcomeDistribution(half, Q, period)
