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

from .numtheory import DEFAULT_MAX_N, gcd_euclid, smallest_magnitude_residue


class CapacityError(Exception):
    """Input exceeds the configured desk-scale size cap."""


# Most amplitudes the circuit's rows may hold after the entangler (1 GiB of
# complex128, before the transform's copies), checked before they exist.
CIRCUIT_MAX_AMPLITUDES = 1 << 26
# Largest register size the vectorized closed form accepts: its int64
# residues multiply two values below Q, exact while Q**2 < 2**63.
CLOSED_FORM_MAX_Q = 1 << 31
# Entries per batch of the closed form: table entries built from Python
# floats, and outcomes evaluated, at a time.
SIN2_BATCH = 1 << 16


@dataclass(frozen=True)
class RegisterGeometry:
    """Two L-qubit registers sized for the modulus N: Q = 2**L, N^2 <= Q < 2N^2."""

    N: int
    Q: int
    L: int


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

    geometry: RegisterGeometry
    levels: np.ndarray
    rows: np.ndarray

    @property
    def amplitudes(self) -> np.ndarray:
        """Every amplitude, row by row: rows.reshape(-1)."""
        return self.rows.reshape(-1)


@dataclass
class OutcomeDistribution:
    """Measurement distribution over register-1 outcomes y in {0..Q-1}."""

    probs: np.ndarray


@dataclass(frozen=True)
class ClosedFormParams:
    """Decomposition Q = P*q + r with 0 <= r < P, and Q0 = P*q.

    Q must lie within the vectorized closed form's budget: its int64
    residues multiply two values below Q, exact only while Q <= 2**31.
    The check runs when the parameters are made, before any array exists.
    """

    P: int
    Q: int
    q: int
    r: int
    Q0: int

    def __post_init__(self) -> None:
        if self.Q > CLOSED_FORM_MAX_Q:
            raise CapacityError(
                f"register size {self.Q} exceeds the closed-form budget Q <= 2**31 "
                "(its int64 residues are exact only up to there)"
            )


def choose_geometry(n: int) -> RegisterGeometry:
    """The unique (Q, L) with Q = 2**L and n^2 <= Q < 2n^2."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > DEFAULT_MAX_N:
        raise CapacityError(f"modulus {n} exceeds the desk-scale cap {DEFAULT_MAX_N}")
    L = (n * n - 1).bit_length()
    Q = 1 << L
    return RegisterGeometry(N=n, Q=Q, L=L)


def _probabilities(rows: np.ndarray) -> np.ndarray:
    return rows.real**2 + rows.imag**2


def check_circuit_budget(rows: int, q_total: int) -> None:
    """Raise CapacityError if ``rows`` rows of Q amplitudes are past CIRCUIT_MAX_AMPLITUDES."""
    if rows * q_total > CIRCUIT_MAX_AMPLITUDES:
        raise CapacityError(
            f"the circuit needs {rows} register-2 rows of Q={q_total} "
            f"amplitudes, past the budget of 2**26 = {CIRCUIT_MAX_AMPLITUDES} amplitudes"
        )


def initialize(geometry: RegisterGeometry) -> JointState:
    """Both registers in |0>: one row, register-2 value 0, unit amplitude at x = 0.

    Raises CapacityError, before the row is allocated, when Q alone is past
    CIRCUIT_MAX_AMPLITUDES.
    """
    check_circuit_budget(1, geometry.Q)
    rows = np.zeros((1, geometry.Q), dtype=np.complex128)
    rows[0, 0] = 1.0
    return JointState(geometry, np.zeros(1, dtype=np.int64), rows)


def apply_qft_reg1(state: JointState) -> JointState:
    """Q-point Fourier transform on register 1, every register-2 row at once.

    Each row is mapped through Q**-0.5 * sum_x amp[x] * omega**(x*y) with
    omega = e^(2*pi*i/Q).  numpy's inverse FFT uses exactly this positive
    sign convention, so the transform is sqrt(Q) * ifft along the rows;
    the test suite pins it against the dense unitary matrix.
    """
    rows = np.fft.ifft(state.rows, axis=1) * math.sqrt(state.geometry.Q)
    return JointState(state.geometry, state.levels, rows)


def apply_modexp_entangler(state: JointState, f: ModExpFunction) -> JointState:
    """The involutive entangler |x>|l> -> |x>|f(x) - l mod N>.

    A pure basis permutation: every nonzero amplitude moves to the row of
    its new register-2 value and keeps its column, never combined with
    another, so the norm is preserved exactly and applying it twice
    restores the state.  On register-2 value 0 it reduces to
    |x>|0> -> |x>|f(x)>.  Raises CapacityError, before the new rows are
    allocated, when they would hold more than CIRCUIT_MAX_AMPLITUDES.
    """
    n = f.N
    if state.levels.size and state.levels[-1] >= n:
        raise ValueError(f"register-2 value {state.levels[-1]} out of range for modulus {n}")
    row, x = np.nonzero(state.rows)
    targets = (f.table(state.geometry.Q)[x] - state.levels[row]) % n
    levels, target_row = np.unique(targets, return_inverse=True)
    check_circuit_budget(levels.size, state.geometry.Q)
    rows = np.zeros((levels.size, state.geometry.Q), dtype=np.complex128)
    rows[target_row, x] = state.rows[row, x]
    return JointState(state.geometry, levels, rows)


def reg1_distribution(state: JointState) -> OutcomeDistribution:
    """Probability of each register-1 outcome: column sums of |amplitude|^2."""
    return OutcomeDistribution(_probabilities(state.rows).sum(axis=0))


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
    if not 0 <= y < dist.probs.size:
        raise ValueError(f"outcome {y} outside the sample space of size {dist.probs.size}")
    if dist.probs[y] == 0.0:
        raise ValueError(f"outcome {y} has zero probability")
    return y


def collapse_reg1(state: JointState, y0: int) -> JointState:
    """Project register 1 onto |y0> and renormalize the surviving column."""
    check_outcome(reg1_distribution(state), y0)
    column = state.rows[:, y0]
    rows = np.zeros_like(state.rows)
    rows[:, y0] = column / math.sqrt(float(_probabilities(column).sum()))
    return JointState(state.geometry, state.levels, rows)


def measure_reg1(state: JointState, rng: np.random.Generator) -> tuple[int, JointState]:
    """Sample a register-1 outcome by inverse CDF and collapse onto it."""
    y0 = int(draw_outcome(np.cumsum(reg1_distribution(state).probs), rng.random()))
    return y0, collapse_reg1(state, y0)


def period_finding_state(geometry: RegisterGeometry, f: ModExpFunction) -> JointState:
    """Run the full circuit (init, transform, entangle, transform) and return the state."""
    state = initialize(geometry)
    state = apply_qft_reg1(state)
    state = apply_modexp_entangler(state, f)
    return apply_qft_reg1(state)


def simulated_distribution(geometry: RegisterGeometry, f: ModExpFunction) -> OutcomeDistribution:
    """Measurement distribution of the simulated circuit (the stochastic source)."""
    return reg1_distribution(period_finding_state(geometry, f))


def closed_form_params(period: int, q_total: int) -> ClosedFormParams:
    """Split Q = P*q + r, 0 <= r < P, and record Q0 = P*q."""
    if period < 1 or q_total < 1:
        raise ValueError("period and register size must be >= 1")
    q, r = divmod(q_total, period)
    return ClosedFormParams(P=period, Q=q_total, q=q, r=r, Q0=period * q)


def _sin2_pi_ratio(num: int, den: int) -> float:
    # sin^2(pi * num/den) with the integer num reduced mod den first.  The
    # reduction is exact (sin^2 has period pi), keeps the argument in
    # [-pi/2, pi/2], and returns exactly 0.0 whenever den divides num.
    return math.sin(math.pi * smallest_magnitude_residue(num, den) / den) ** 2


def closed_form_prob(y: int, params: ClosedFormParams) -> float:
    """Probability of measuring y, from the two-branch closed form.

    With t = {P*y}_Q (smallest-magnitude residue):

      t != 0:  [r*sin^2(pi*t*(q+1)/Q) + (P-r)*sin^2(pi*t*q/Q)]
                 / (Q^2 * sin^2(pi*t/Q))
      t == 0:  [r*(Q0+P)^2 + (P-r)*Q0^2] / (Q^2 * P^2)

    All sine arguments are integer multiples of pi/Q and are reduced
    exactly before evaluation; unreduced arguments near N*Q would cost
    ~10 digits of precision.
    """
    P, Q, q, r, Q0 = params.P, params.Q, params.q, params.r, params.Q0
    if not 0 <= y < Q:
        raise ValueError(f"outcome {y} outside the sample space of size {Q}")
    t = smallest_magnitude_residue(P * y, Q)
    if t == 0:
        return (r * (Q0 + P) ** 2 + (P - r) * Q0**2) / (Q * Q * P * P)
    numerator = r * _sin2_pi_ratio(t * (q + 1), Q) + (P - r) * _sin2_pi_ratio(t * q, Q)
    return numerator / (Q * Q * _sin2_pi_ratio(t, Q))


def _sin2_table(den: int) -> np.ndarray:
    """sin^2(pi*k/den) for k = 0..den//2, each entry as _sin2_pi_ratio computes it.

    The angle math.pi * k / den is two correctly rounded float64 operations
    on exact operands, so numpy forms the same angles.  The sine and the
    square stay Python's math.sin and ** 2: numpy's x*x differs from ** 2
    in the last bit on some entries, and np.sin need not match math.sin
    on every platform.  The table is built
    SIN2_BATCH entries at a time, so few Python floats are alive at once.
    """
    table = np.empty(den // 2 + 1)
    sin = math.sin
    for start in range(0, table.size, SIN2_BATCH):
        k = np.arange(start, min(start + SIN2_BATCH, table.size), dtype=np.float64)
        table[start : start + k.size] = [sin(a) ** 2 for a in (math.pi * k / den).tolist()]
    return table


def closed_form_distribution(params: ClosedFormParams) -> OutcomeDistribution:
    """The closed form over the whole sample space, from int64 residues.

    Bit for bit what ``closed_form_prob`` gives at each y, in the same
    operation order.  Every sine argument is pi*k/Q for an integer k that
    the scalar route reduces to its smallest-magnitude residue, so
    |k| <= Q/2 and, sin^2 being even, one table over k = 0..Q/2 serves
    them all.  The residues are exact while a product of two values below
    Q fits in int64, which ``ClosedFormParams`` guarantees.  The outcomes
    are taken SIN2_BATCH at a time and written straight into the result,
    so the temporaries stay small.
    """
    P, Q, q, r, Q0 = params.P, params.Q, params.q, params.r, params.Q0
    sin2 = _sin2_table(Q)

    def sin2_at(residue: np.ndarray) -> np.ndarray:
        # residue in [0, Q), overwritten by the magnitude of its
        # smallest-magnitude representative, min(residue, Q - residue).
        np.minimum(residue, Q - residue, out=residue)
        return sin2[residue]

    # (IEEE products commute, so sin2 * r is bit for bit r * sin2.)
    probs = np.full(Q, (r * (Q0 + P) ** 2 + (P - r) * Q0**2) / (Q * Q * P * P))
    for start in range(0, Q, SIN2_BATCH):
        t = np.arange(start, min(start + SIN2_BATCH, Q), dtype=np.int64)
        t *= P % Q
        t %= Q  # P*y mod Q
        tq = t * (q % Q)
        tq %= Q  # t*q mod Q
        tq1 = tq + t
        tq1[tq1 >= Q] -= Q  # t*(q+1) mod Q
        numerator = sin2_at(tq1)
        numerator *= float(r)
        numerator += float(P - r) * sin2_at(tq)
        nonzero = t != 0
        denominator = sin2_at(t)
        denominator *= float(Q * Q)
        np.divide(numerator, denominator, out=probs[start : start + t.size], where=nonzero)
    return OutcomeDistribution(probs)
