"""Measure every metric of every workload and write shorbench/baseline.json.

    python3 shorbench/baseline.py

Runs ``run.py`` for 30 s per (workload, seed), one run at a time: seeds
1-10 untraced and seeds 1-2 traced.  Records for each metric its median,
quartiles and per-run values, so that a later change can be quoted
against the same names.  The whole file comes from one invocation
(about 25 minutes).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SECONDS = 30
SEEDS = tuple(range(1, 11))
TRACE_SEEDS = (1, 2)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    extra = {}
    for line in lines:
        if line.startswith("# properties "):
            result["properties"] = json.loads(line[len("# properties "):])
        elif line.startswith(("op_tail_s", "fail_ratio")) and "undefined" not in line:
            name, value = line.split()[:2]
            extra[name] = float(value)
    result["reported"] = extra
    return result


def summarize(values: list[float]) -> dict:
    summary = {"median": statistics.median(values), "runs": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / summary["median"] if summary["median"] else 0.0)
    return summary


def git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    results = {}
    for workload in workloads.WORKLOADS:
        plain = [run_once(workload, s, SECONDS, 0) for s in SEEDS]
        traced = [run_once(workload, s, SECONDS, 1) for s in TRACE_SEEDS]
        metrics: dict[str, list[float]] = {}
        for r in plain:
            for name, m in r["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            for name, value in r["reported"].items():
                metrics.setdefault(name, []).append(value)
        layers: dict[str, list[float]] = {}
        for r in traced:
            for name, m in r["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        results[workload] = {
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": {name: summarize(v) for name, v in metrics.items()},
            "per_layer": {name: summarize(v) for name, v in layers.items()},
            "properties": [r["properties"] for r in plain],
        }
        print(workload, json.dumps(results[workload]["end_to_end"]), flush=True)

    doc = {
        "environment": {
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "settings": {"seconds": SECONDS, "seeds": list(SEEDS), "trace_seeds": list(TRACE_SEEDS)},
        "workloads": results,
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
