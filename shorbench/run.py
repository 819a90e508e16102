"""shorlab benchmark: closed-loop, single-client, in-process CLI calls.

    python3 shorbench/run.py --workload factor --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each op is one ``shorlab.cli.main(argv)`` call with stdout and
stderr captured, so argument parsing and JSON/CSV output count too.  The
loop runs whole rounds of ops (see workloads.py) until ``--seconds`` have
passed, then checks every output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op twice back to back, once untraced and once with a span around each
public function of the package (tracing.py), alternating which goes first
from op to op.  It reports per-op layer times and counts plus the
traced/untraced wall-time ratio.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".shorbench"
SETUP_PROBES = 11
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
# Most a traced op's wall time may exceed the sum of its spans' self
# times.  Outside the root span only the wrapper's bookkeeping runs
# (microseconds); the rest is room for a descheduling in that window.
SPAN_GAP_TOL_NS = 5_000_000
WORK_UNITS = {"factor": "requests/s", "closed_form_csv": "rows/s", "montecarlo": "trials/s"}


@dataclass
class OpResult:
    rc: int | None
    stdout: str
    stderr: str
    wall_ns: int
    csv_path: Path | None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import shorlab.cli (and with it numpy) from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "shorlab" / "cli.py").is_file():
        sys.exit(f"shorbench: no shorlab sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    from shorlab import cli, contfrac, engine, numtheory, pipeline

    return {"cli": cli, "contfrac": contfrac, "engine": engine, "numtheory": numtheory, "pipeline": pipeline}


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import the package and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    walls = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run_op(cli, op, csv_path: Path | None) -> OpResult:
    argv = list(op.argv) + (["--out", str(csv_path)] if csv_path else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else None
        except Exception:  # an op that raises is a failed op, not a dead benchmark
            rc = None
            traceback.print_exc()
        wall = time.perf_counter_ns() - t0
    return OpResult(rc, out.getvalue(), err.getvalue(), wall, csv_path)


def csv_path(op, tag: str, i: int) -> Path | None:
    return OUT_DIR / f"{tag}-{i}.csv" if op.writes_csv else None


def run_pass(cli, rounds, budget_s: float):
    """Run whole rounds until ``budget_s`` has passed (at least one round)."""
    ops, results = [], []
    started = time.perf_counter()
    for round_ops in rounds:
        for op in round_ops:
            results.append(run_op(cli, op, csv_path(op, "plain", len(ops))))
            ops.append(op)
        if time.perf_counter() - started >= budget_s:
            break
    return ops, results, time.perf_counter() - started


def run_paired(modules, tracer, rounds, budget_s: float):
    """Run each op untraced and traced back to back, whole rounds until ``budget_s``.

    Even ops run untraced first and odd ops traced first, so warm-up and
    drift do not all fall on one side of the traced/untraced ratio.
    """
    cli = modules["cli"]
    ops, plain, traced = [], [], []
    started = time.perf_counter()
    for round_ops in rounds:
        for op in round_ops:
            i = len(ops)

            def run_traced():
                tracer.current_op = i
                with tracer.installed(modules):
                    traced.append(run_op(cli, op, csv_path(op, "traced", i)))

            if i % 2:
                run_traced()
            plain.append(run_op(cli, op, csv_path(op, "plain", i)))
            if not i % 2:
                run_traced()
            ops.append(op)
        if time.perf_counter() - started >= budget_s:
            break
    return ops, plain, traced


def check_replay(plain: OpResult, traced: OpResult) -> str | None:
    """A traced op must exit, print and write exactly as its untraced twin."""
    try:
        if (traced.rc, traced.stderr) != (plain.rc, plain.stderr):
            return f"traced run exited {traced.rc}, untraced {plain.rc}"
        if checks.stable_stdout(traced.stdout) != checks.stable_stdout(plain.stdout):
            return "traced run printed other output than the untraced run"
        if plain.csv_path and not filecmp.cmp(plain.csv_path, traced.csv_path, shallow=False):
            return "traced run wrote another CSV than the untraced run"
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def check_all(workload, ops, results) -> dict[int, str]:
    """Reason for every failed op, keyed by its index."""
    if workload == "montecarlo":
        try:
            return checks.check_montecarlo(
                [(op.n, op.m, op.trials, r.rc, r.stdout) for op, r in zip(ops, results)]
            )
        except (ValueError, KeyError, TypeError) as exc:
            return {i: f"unreadable output: {exc!r}" for i in range(len(ops))}
    failures = {}
    for i, (op, r) in enumerate(zip(ops, results)):
        try:
            if workload == "factor":
                reason = checks.check_factor(op.n, r.rc, r.stdout, r.stderr)
            elif r.rc != 0:
                reason = f"N={op.n}, m={op.m}: exit {r.rc}, expected 0"
            else:
                reason = checks.check_csv(op.n, op.m, r.csv_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"N={op.n}: unreadable output: {exc!r}"
        if reason:
            failures[i] = reason
    return failures


def tail(walls_s: list[float]):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(walls_s)
    for pct in TAIL_PERCENTILES:
        beyond = int(len(ordered) * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1]
    return None


def properties(workload, ops, results, failures) -> dict:
    """Counts of input properties, so a later change can quote its share."""
    if workload == "factor":
        kinds: dict[str, int] = {}
        attempts = circuits = reached = repeated = amplitudes = 0
        for i, (op, r) in enumerate(zip(ops, results)):
            if r.rc != 0 or i in failures:
                kind = "failed" if i in failures else f"exit_{r.rc}"
                kinds[kind] = kinds.get(kind, 0) + 1
                continue
            trace = json.loads(r.stdout)["trace"]
            kinds[trace["outcome"]["kind"]] = kinds.get(trace["outcome"]["kind"], 0) + 1
            runs = [a for a in trace["attempts"] if a["y"] is not None]
            attempts += len(trace["attempts"])
            circuits += len(runs)
            reached += bool(runs)
            bases = [a["m"] for a in trace["attempts"]]
            repeated += len(set(bases)) < len(bases)
            amplitudes += sum(trace["Q"] * checks.order(a["m"], op.n) for a in runs)
        return {
            "requests": len(ops),
            "reach_circuit_share": reached / len(ops),
            "attempts_per_request": attempts / len(ops),
            "circuits_per_request": circuits / len(ops),
            "requests_repeating_a_base": repeated,
            "sum_Q_times_P": amplitudes,
            "outcome_kinds": kinds,
        }
    if workload == "closed_form_csv":
        mix: dict[str, int] = {}
        for op in ops:
            key = f"Q=2^{checks.register_size(op.n).bit_length() - 1}"
            mix[key] = mix.get(key, 0) + 1
        return {"ops": len(ops), "Q_mix": mix}
    return {
        "batches": len(ops),
        "trials": sum(op.trials for op in ops),
        "distinct_pairs": len({(op.n, op.m) for op in ops}),
    }


def report(name, value, unit, note=""):
    print(f"{name:32s} {value:>16.6g} {unit}{'  ' + note if note else ''}")


def clear_csv() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for stale in OUT_DIR.glob("*.csv"):
        stale.unlink()


def print_checks(args, ops, results, failures, attempted: int) -> None:
    report("fail_ratio", len(failures) / attempted, "1", f"{len(failures)}/{attempted} ops")
    print("# properties " + json.dumps(properties(args.workload, ops, results, failures), sort_keys=True))
    for i, reason in sorted(failures.items())[:20]:
        print(f"# FAIL op {i}: {reason}")


def print_result(attempted: int, failures: dict, metrics: dict) -> None:
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main_untraced(args, modules, rounds) -> int:
    setup_s = measure_setup(args)
    clear_csv()
    ops, results, elapsed = run_pass(modules["cli"], rounds, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(args.workload, ops, results)
    clear_csv()

    walls = [r.wall_ns / 1e9 for r in results]
    if args.workload == "factor":
        work = len(ops)
    elif args.workload == "closed_form_csv":
        work = sum(checks.register_size(op.n) for op in ops)
    else:
        work = sum(op.trials for op in ops)
    e2e = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / elapsed, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    print(f"# workload={args.workload} seed={args.seed} trace=0 ops={len(ops)} timed_s={elapsed:.3f}")
    for name, (value, unit) in e2e.items():
        note = WORK_UNITS[args.workload] if name == "work_per_s" else ""
        note = f"ops={len(ops)}" if name == "op_p50_s" else note
        report(name, value, unit, note)
    tail_point = tail(walls)
    if tail_point:
        report("op_tail_s", tail_point[1], "s", f"p{tail_point[0]:g} of {len(ops)} ops")
    else:
        print(f"{'op_tail_s':32s} {'-':>16s}    undefined with {len(ops)} ops")
    print_checks(args, ops, results, failures, len(ops))
    print_result(len(ops), failures, e2e)
    return 0


def main_traced(args, modules, rounds) -> int:
    import tracing

    clear_csv()
    tracer = tracing.Tracer()
    ops, plain, traced = run_paired(modules, tracer, rounds, args.seconds)
    n = len(ops)
    # Untraced ops carry the output checks (the Monte-Carlo interval among
    # them); each traced op must match its untraced twin and its spans
    # must account for its wall time.  Traced ops are numbered n..2n-1.
    failures = check_all(args.workload, ops, plain)
    for i, (p, t) in enumerate(zip(plain, traced)):
        reason = check_replay(p, t)
        if reason:
            failures[n + i] = reason
    span_failures, worst_gap_ns = tracing.check_spans(tracer, [r.wall_ns for r in traced], SPAN_GAP_TOL_NS)
    for i, reason in span_failures.items():
        failures.setdefault(n + i, reason)
    for r in traced:
        if r.csv_path and r.csv_path.exists():
            tracer.counts["cli.csv_bytes"] += r.csv_path.stat().st_size
        elif r.stdout.startswith("{"):
            tracer.counts["cli.json_bytes"] += len(r.stdout.encode("utf-8"))
    clear_csv()
    layer = tracing.layer_metrics(tracer, n)
    layer["trace_overhead_ratio"] = sum(r.wall_ns for r in traced) / sum(r.wall_ns for r in plain)
    tracer.save(OUT_DIR / f"trace-{args.workload}.npz")

    print(f"# workload={args.workload} seed={args.seed} trace=1 ops={n} (each untraced and traced)")
    print_checks(args, ops, plain, failures, 2 * n)
    print(f"# op wall time minus span self times: at most {worst_gap_ns} ns "
          f"(allowed 0..{SPAN_GAP_TOL_NS} ns)")
    for name, value in layer.items():
        report(name, value, "")
    print_result(2 * n, failures, {name: (value, layer_unit(name)) for name, value in layer.items()})
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_package()
    rounds = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        return 0
    if args.trace:
        return main_traced(args, modules, rounds)
    return main_untraced(args, modules, rounds)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
