"""Spans around shorlab's public functions, recorded from outside the package.

``Tracer.installed`` replaces module attributes with timing wrappers.  The
package's callers look these names up at call time (``engine.x`` from
pipeline and cli, bare globals inside a module), so every call passes
through a wrapper.  Spans are kept in flat integer arrays while the run
lasts and written out when it ends.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

TARGETS = {
    "engine": (
        "initialize",
        "apply_qft_reg1",
        "apply_modexp_entangler",
        "reg1_distribution",
        "collapse_reg1",
        "measure_reg1",
        "period_finding_state",
        "simulated_distribution",
        "closed_form_distribution",
    ),
    "pipeline": (
        "shor_factor",
        "step25_recover_period",
        "step345_classical",
        "trial_uniform",
        "monte_carlo_step2",
    ),
    "contfrac": ("cf_expand",),
    "numtheory": ("mod_pow", "miller_rabin", "is_perfect_power", "multiplicative_order"),
    "cli": ("main",),
}

CIRCUIT = "engine.period_finding_state"
QFT = "engine.apply_qft_reg1"
USEFUL_KINDS = ("factor_found", "lucky_gcd")


def _count_result(counts: Counter, name: str, result) -> None:
    """Sizes read off a call's result, at the same boundary as its span."""
    if name == "engine.qft2":
        counts["engine.amplitudes"] += len(result.amplitudes)
    elif name == "engine.closed_form_distribution":
        counts["engine.closed_form_outcomes"] += len(result.probs)
    elif name == "pipeline.shor_factor":
        attempts = result[1].attempts
        counts["pipeline.attempts"] += len(attempts)
        counts["pipeline.useful_attempts"] += sum(
            a.outcome_kind.value in USEFUL_KINDS for a in attempts
        )
    elif name == "pipeline.step25_recover_period":
        counts["pipeline.candidates_tested"] += len(result.tests)
    elif name == "contfrac.cf_expand":
        counts["contfrac.terms"] += len(result.coefficients)


class Tracer:
    """Span recorder: name, start and end (ns), parent span and op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._qft_seen: dict[int, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _label(self, name: str, parent: int) -> str:
        # QFT 1 and QFT 2 are the same function; tell them apart by call
        # order under the circuit span.
        if name != QFT or parent < 0 or self.names[self.name[parent]] != CIRCUIT:
            return name
        nth = self._qft_seen.get(parent, 0) + 1
        self._qft_seen[parent] = nth
        return f"engine.qft{nth}"

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = self._label(name, parent)
            idx = len(self.start)
            self.name.append(self._name_id(label))
            self.parent.append(parent)
            self.op.append(self.current_op)
            self.end.append(0)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                stack.pop()
            _count_result(self.counts, label, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every TARGETS attribute of ``modules`` (name -> module) while active."""
        originals = []
        try:
            for mod_name, attrs in TARGETS.items():
                module = modules[mod_name]
                for attr in attrs:
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self.wrap(f"{mod_name}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest, so the children of a span never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    duration = end - start
    own = duration.copy()
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], duration[has_parent])
    return own


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op means of the per-layer times and counts of a traced pass."""
    spans = tracer.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    names = spans["name"]

    def by_name(name: str, values: np.ndarray) -> float:
        if name not in tracer.names:
            return 0.0
        return float(values[names == tracer.names.index(name)].sum())

    def calls(name: str) -> int:
        return int(np.count_nonzero(names == tracer.names.index(name))) if name in tracer.names else 0

    seconds = {
        "engine.qft1_s": by_name("engine.qft1", duration),
        "engine.entangler_s": by_name("engine.apply_modexp_entangler", duration),
        "engine.qft2_s": by_name("engine.qft2", duration),
        "engine.reg1_dist_s": by_name("engine.reg1_distribution", duration),
        "engine.collapse_s": by_name("engine.collapse_reg1", duration),
        "engine.closed_form_s": by_name("engine.closed_form_distribution", duration),
        "cli.main_self_s": by_name("cli.main", own),
        "pipeline.trial_uniform_s": by_name("pipeline.trial_uniform", duration),
        "pipeline.step25_self_s": by_name("pipeline.step25_recover_period", own),
        "contfrac.cf_expand_s": by_name("contfrac.cf_expand", duration),
        "numtheory.miller_rabin_s": by_name("numtheory.miller_rabin", duration),
        "numtheory.perfect_power_s": by_name("numtheory.is_perfect_power", duration),
        "numtheory.order_s": by_name("numtheory.multiplicative_order", duration),
        "pipeline.shor_factor_self_s": by_name("pipeline.shor_factor", own),
        "pipeline.step345_s": by_name("pipeline.step345_classical", duration),
    }
    counts = {
        "engine.amplitudes": tracer.counts["engine.amplitudes"],
        "engine.circuit_calls": calls(CIRCUIT),
        "engine.closed_form_outcomes": tracer.counts["engine.closed_form_outcomes"],
        "cli.csv_bytes": tracer.counts["cli.csv_bytes"],
        "cli.json_bytes": tracer.counts["cli.json_bytes"],
        "pipeline.attempts": tracer.counts["pipeline.attempts"],
        "pipeline.trial_uniform_calls": calls("pipeline.trial_uniform"),
        "pipeline.candidates_tested": tracer.counts["pipeline.candidates_tested"],
        "contfrac.cf_expand_calls": calls("contfrac.cf_expand"),
        "contfrac.terms": tracer.counts["contfrac.terms"],
        "numtheory.mod_pow_calls": calls("numtheory.mod_pow"),
    }
    metrics = {name: value / 1e9 / n_ops for name, value in seconds.items()}
    metrics.update({name: value / n_ops for name, value in counts.items()})
    attempts = tracer.counts["pipeline.attempts"]
    metrics["pipeline.useful_attempt_ratio"] = (
        tracer.counts["pipeline.useful_attempts"] / attempts if attempts else 0.0
    )
    return metrics


def check_spans(tracer: Tracer, walls_ns: list[int], tolerance_ns: int) -> tuple[dict[int, str], int]:
    """Ops whose spans do not account for their traced wall time.

    ``walls_ns[i]`` is op i's wall time as timed around its ``cli.main``
    call.  Every op must have exactly one root span, ``cli.main``, and the
    self times of its spans must sum to between ``walls_ns[i] -
    tolerance_ns`` and ``walls_ns[i]``: the spans lie inside the timed
    interval, and outside them only the wrapper's own bookkeeping runs.
    A span filed under the wrong op pushes that op's sum past its wall
    time (unless the span is shorter than that bookkeeping), and an op
    timed without its root span falls short of it.
    Returns the reasons keyed by op index, and the largest gap in ns.
    """
    spans = tracer.arrays()
    n_ops = len(walls_ns)
    ops = spans["op"]
    if ops.size and (ops.min() < 0 or ops.max() >= n_ops):
        raise ValueError("a span was recorded outside every op")
    own = self_times(spans["start"], spans["end"], spans["parent"])
    per_op = np.zeros(n_ops, dtype=np.int64)
    np.add.at(per_op, ops, own)
    roots = spans["parent"] < 0
    root_count = np.bincount(ops[roots], minlength=n_ops)
    root_name = tracer.names.index("cli.main") if "cli.main" in tracer.names else -1
    main_roots = np.bincount(ops[roots & (spans["name"] == root_name)], minlength=n_ops)
    gaps = np.asarray(walls_ns, dtype=np.int64) - per_op
    failures = {}
    for i in range(n_ops):
        if root_count[i] != 1 or main_roots[i] != 1:
            failures[i] = f"{root_count[i]} root spans, {main_roots[i]} of them cli.main"
        elif not 0 <= gaps[i] <= tolerance_ns:
            failures[i] = f"span self times sum to {per_op[i]} ns, op wall time {walls_ns[i]} ns"
    return failures, int(np.abs(gaps).max()) if n_ops else 0
