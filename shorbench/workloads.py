"""Seeded inputs for the three workloads.

A workload is a list of rounds and a round is a list of ops.  Each op is
the argv of one in-process ``shorlab`` call.  Rounds are stratified: every
round holds the workload's whole input population once (all odd N for
``factor``, the three register sizes for ``closed_form_csv``, all odd
composites N <= 100 for ``montecarlo``) in a seeded order, with seeded
bases and pipeline seeds.  The timed loop runs whole rounds, so each run
sees every input class at its natural share and the spread between runs
comes from the seeded draws alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import is_prime, register_size, units

FACTOR_NS = tuple(range(15, 130, 2))
# Register sizes of one closed_form_csv round: every size gets the same
# number of CSV rows, so each carries a third of the round's work.
CLOSED_FORM_QS = (1 << 18,) * 4 + (1 << 19,) * 2 + (1 << 20,)
MONTECARLO_NS = tuple(n for n in range(15, 101, 2) if not is_prime(n))
MONTECARLO_TRIALS = 10_000
# More rounds than any run can finish in its time limit.
ROUNDS = 40

WORKLOADS = ("factor", "closed_form_csv", "montecarlo")


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``m`` is the base where the argv names one; CSV ops
    get their ``--out`` path appended when they run."""

    argv: tuple[str, ...]
    n: int
    m: int | None = None
    trials: int = 0

    @property
    def writes_csv(self) -> bool:
        return self.argv[0] == "distribution"


def _closed_form_moduli(q_total: int) -> list[int]:
    return [
        n
        for n in range(3, 2048, 2)
        if register_size(n) == q_total and not is_prime(n)
    ]


def _factor_round(rng: random.Random) -> list[Op]:
    ns = list(FACTOR_NS)
    rng.shuffle(ns)
    return [Op(("factor", str(n), "--seed", str(rng.getrandbits(63))), n) for n in ns]


def _closed_form_round(rng: random.Random, moduli: dict[int, list[int]]) -> list[Op]:
    qs = list(CLOSED_FORM_QS)
    rng.shuffle(qs)
    ops = []
    for q_total in qs:
        n = rng.choice(moduli[q_total])
        m = rng.choice(units(n))
        ops.append(Op(("distribution", str(n), str(m), "--closed-form"), n, m))
    return ops


def _montecarlo_round(rng: random.Random) -> list[Op]:
    ns = list(MONTECARLO_NS)
    rng.shuffle(ns)
    ops = []
    for n in ns:
        m = rng.choice(units(n))
        argv = ("montecarlo", str(n), str(m), str(MONTECARLO_TRIALS), "--seed", str(rng.getrandbits(63)))
        ops.append(Op(argv, n, m, MONTECARLO_TRIALS))
    return ops


def build(workload: str, seed: int) -> list[list[Op]]:
    """The rounds of one workload; the same seed gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "factor":
        return [_factor_round(rng) for _ in range(ROUNDS)]
    if workload == "closed_form_csv":
        moduli = {q: _closed_form_moduli(q) for q in set(CLOSED_FORM_QS)}
        return [_closed_form_round(rng, moduli) for _ in range(ROUNDS)]
    if workload == "montecarlo":
        return [_montecarlo_round(rng) for _ in range(ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")
