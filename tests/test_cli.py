"""Command-line contract: exit codes, JSON/CSV shapes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import support
from shorlab import cli, engine, numtheory
from shorlab.engine import closed_form_distribution, closed_form_prob


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical_json(text: str) -> str:
    payload = json.loads(text)
    payload["manifest"].pop("timestamp_utc", None)
    payload["manifest"].pop("elapsed_s", None)
    return json.dumps(payload, indent=2, sort_keys=True)


def test_factor_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "91", "--forced-m", "3", "--forced-y", "13453"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["outcome"] == {"kind": "factor_found", "factor": 13}
    attempt = payload["trace"]["attempts"][0]
    assert attempt["period"] == 6
    assert [2, 5, 61] in attempt["convergent_tests"]
    assert payload["manifest"]["schema_version"] == 1


def test_factor_exit_codes(capsys):
    code, _, err = run_cli(capsys, "factor", "12")
    assert code == 2 and "even" in err
    code, _, err = run_cli(capsys, "factor", "97")
    assert code == 2 and "prime" in err
    code, _, err = run_cli(capsys, "factor", "27")
    assert code == 2 and "perfect power" in err
    # retries exhausted: forced y = 0 never yields a period
    code, out, _ = run_cli(
        capsys, "factor", "91", "--forced-m", "3", "--forced-y", "0", "--retries", "2"
    )
    assert code == 3
    assert json.loads(out)["trace"]["outcome"]["kind"] == "period_recovery_failed"
    assert len(json.loads(out)["trace"]["attempts"]) == 1  # a forced replay repeats nothing


def test_factor_rejects_inputs_past_int64(capsys):
    code, _, err = run_cli(capsys, "factor", str(2**89 - 1))
    assert code == 2 and "probable prime" in err
    code, _, err = run_cli(capsys, "factor", str((2**60 + 33) ** 2))
    assert code == 2 and "perfect power" in err


def test_main_reuses_one_parser_without_leaking_state(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, "montecarlo", "15", "2", "10", "--seed", "5")
    assert code == 0
    code, out, _ = run_cli(capsys, "factor", "15")
    config = json.loads(out)["manifest"]["config"]
    assert code == 0
    assert (config["seed"], config["forced_m"], config["forced_y"]) == (0, None, None)
    out_path = tmp_path / "dist.csv"
    code, out, _ = run_cli(capsys, "distribution", "15", "2", "--out", str(out_path))
    assert code == 0 and out == "" and out_path.is_file()
    code, out, _ = run_cli(capsys, "distribution", "15", "2", "--simulate")
    assert code == 0 and out.startswith("y,prob\n") and len(out.splitlines()) == 257
    code, out, _ = run_cli(capsys, "montecarlo", "15", "2", "10")
    config = json.loads(out)["manifest"]["config"]
    assert code == 0 and config["seed"] == 0


def test_factor_usage_errors(capsys):
    for argv in (
        ["factor", "ninetyone"],
        [],
        ["factor", "91", "--q-override", "16384"],
        ["montecarlo", "15", "2", "10", "--forced-y", "64"],
        ["replicate", "--perturb"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 64, argv
        capsys.readouterr()


def test_factor_identical_seeds_identical_json(capsys):
    args = ("factor", "33", "--seed", "12345")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert canonical_json(out_a) == canonical_json(out_b)
    code_c, out_c, _ = run_cli(capsys, "factor", "33", "--seed", "54321")
    assert code_c == 0
    assert json.loads(out_c)["manifest"]["config"]["seed"] == 54321


def test_distribution_closed_form_csv(capsys):
    code, out, _ = run_cli(capsys, "distribution", "15", "2", "--closed-form")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,prob"
    assert len(lines) == 1 + 256
    rows = [(int(y), float(p)) for y, p in (line.split(",") for line in lines[1:])]
    nonzero = [(y, p) for y, p in rows if p > 1e-12]
    assert nonzero == [(0, 0.25), (64, 0.25), (128, 0.25), (192, 0.25)]
    assert abs(sum(p for _, p in rows) - 1.0) < 1e-9


def test_distribution_csv_round_trips_probabilities(capsys, tmp_path):
    out_path = tmp_path / "dist.csv"
    code, _, _ = run_cli(
        capsys, "distribution", "91", "3", "--closed-form", "--out", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert "\r" not in text
    rows = dict(
        (int(y), float(p))
        for y, p in (line.split(",") for line in text.splitlines()[1:])
    )
    assert len(rows) == 16384
    assert abs(sum(rows.values()) - 1.0) < 1e-9
    # serialized with enough digits to round-trip the double exactly
    expected = closed_form_prob(13453, 6, 16384)
    assert rows[13453] == expected
    assert f"{rows[13453]:.15e}".startswith("3.189335551")
    # byte for byte the naive per-row writer over the scalar closed form
    assert text == support.naive_csv([closed_form_prob(y, 6, 16384) for y in range(16384)])


def test_write_csv_matches_naive_writer(capsys, tmp_path):
    # Repeated values, both zeros, the longest texts, over two chunks and a bit.
    pool = np.array(
        [0.0, -0.0, -5e-324, -2.2250738585072014e-308, 1.0, 0.25, 1 / 3, 3.189335551743533e-07]
    )
    rng = np.random.default_rng(8)
    probs = pool[rng.integers(0, pool.size, size=2 * cli.GROUP + 123)]
    expected = support.naive_csv(probs)
    cli._write_csv(probs, None)
    assert capsys.readouterr().out == expected
    out_path = tmp_path / "probs.csv"
    cli._write_csv(probs, str(out_path))
    assert out_path.read_bytes() == expected.encode("utf-8")
    for probs in ([0.5], [0.5, 0.5], np.linspace(0, 1, cli.GROUP)):
        cli._write_csv(probs, None)
        assert capsys.readouterr().out == support.naive_csv(probs)


def test_row_numbers_at_every_width():
    # Chunks from the first to the last one of Q = 2**28, which is short,
    # at every width whose four-digit groups hold their row numbers.
    for start, count in (
        (0, cli.GROUP),
        (10**4, cli.GROUP),
        (99_990_000, cli.GROUP),
        (10**8, cli.GROUP),
        (268_430_000, 2**28 - 268_430_000),
    ):
        for width in range(-(-len(str(start + count - 1)) // 4), 4):
            words = cli._row_numbers(start, count, width)
            assert words.shape == (count, width)
            texts = [row.tobytes().replace(b"\0", b"") for row in words]
            assert texts == [b"%d" % y for y in range(start, start + count)]


def test_write_csv_formats_a_million_values_as_format_does(tmp_path):
    # The vectorized %.17g against format(v, ".17g"), one value per row.
    rng = np.random.default_rng(17)
    below_one = rng.integers(1, np.float64(1.0).view(np.int64), size=10**6).view(np.float64)
    powers_of_ten = np.array([10.0**-k for k in range(301)]).view(np.int64)
    near_powers = (powers_of_ten[:, None] + np.arange(-3, 4)).ravel().view(np.float64)
    halves = np.ldexp(1.0, -np.arange(1, 1075))
    # j * 2**-k with 18 significant digits ending in 5: exact ties, odd and even.
    ties = np.ldexp(np.arange(1, 4000, 2, dtype=np.float64)[:, None], -np.arange(20, 40)).ravel()
    edges = [0.0, -0.0, 1.0, 1.5, 2.0, 1e16, 1e300, np.inf, -np.inf, np.nan, -0.25, 1e-280]
    subnormals = [5e-324, 2.2250738585072014e-308 / 3, np.nextafter(2.2250738585072014e-308, 0)]
    closed_forms = [
        np.unique(closed_form_distribution(period, 1 << bits).probs)
        for period, bits in ((7, 16), (24, 17), (45, 18), (23, 20))
    ]
    values = np.concatenate(
        [below_one, near_powers, halves, ties, edges, subnormals, *closed_forms]
    )
    assert values.size > 10**6 + 500_000
    # The fast path, not the exact fallback, formats nearly all of them.
    digits, _ = cli._significands(below_one[below_one > 1e-280])
    assert np.mean(digits < 0) < 1e-4
    out_path = tmp_path / "values.csv"
    cli._write_csv(values, str(out_path))
    assert out_path.read_bytes() == support.naive_csv(values).encode("ascii")


def test_closed_form_csv_traced_peaks_at_q_2_20(tmp_path):
    # Q = 2**20 with an odd period: 524289 distinct values.  The result
    # alone is 8 MiB, the sin^2 table 4 MiB more.
    tracemalloc.start()
    try:
        probs = closed_form_distribution(23, 1 << 20).probs
        _, closed_form_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli._write_csv(probs, str(tmp_path / "q20.csv"))
        _, csv_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert closed_form_peak < 20 << 20
    assert csv_peak < 16 << 20


def run_limited(cases, limit):
    """Run each argv in one child limited to ``limit`` bytes of address space.

    Returns each case's (exit code, traced peak) and the child's stderr lines.
    """
    script = textwrap.dedent(
        """
        import json, resource, sys, tracemalloc
        limit = int(sys.argv[2])
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        from shorlab import cli
        for argv in json.loads(sys.argv[1]):
            tracemalloc.start()
            code = cli.main(argv)
            print(code, tracemalloc.get_traced_memory()[1], flush=True)
            tracemalloc.stop()
        """
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # One BLAS thread, so the thread stacks numpy starts on import do not
    # count against the limit on a machine with many cores.
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(cases), str(limit)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    results = [tuple(map(int, line.split())) for line in done.stdout.splitlines()]
    return results, done.stderr.splitlines()


def test_simulation_over_circuit_budget_is_rejected_before_allocating():
    # N = 1003, m = 2 needs 232 rows of Q = 2**20 amplitudes: 3.9 GB.  N =
    # 4097, m = 2 needs 24 rows of Q = 2**25 and N = 8189, m = 2 needs 774
    # rows of Q = 2**26, where one row is still within the budget.  N =
    # 8193 needs Q = 2**27, where one row of the circuit (2 GiB) is already
    # past the budget.  The child may map at most 2 GiB, so without the
    # checks each case dies with a MemoryError instead of taking the
    # machine's memory.
    cases = [
        ["distribution", "1003", "2", "--simulate"],
        ["distribution", "4097", "2", "--simulate"],
        ["distribution", "8189", "2", "--simulate"],
        ["montecarlo", "4097", "2", "10"],
        ["distribution", "8193", "2", "--simulate"],
        ["distribution", "8193", "2", "--compare"],
        ["factor", "8193", "--forced-m", "2"],
        ["montecarlo", "8193", "2", "10"],
    ]
    results, errors = run_limited(cases, 2 << 30)
    assert [code for code, _ in results] == [2] * len(cases)
    assert len(errors) == len(cases)
    assert all("2**26" in line for line in errors)
    assert "232 register-2 rows" in errors[0]
    # The rows are counted from an N-entry table of m**x mod N before
    # anything of register size exists (at Q = 2**20 one row is 16 MiB);
    # the peaks are first-use imports and caches.
    assert all(peak < 4 << 20 for _, peak in results)


def test_circuit_budget_is_checked_before_the_order_loop(capsys, monkeypatch):
    # N = 4097, m = 2 needs 24 rows of Q = 2**25, past the circuit's budget.
    # The brute-force order loop (up to N - 1 steps) runs only for a circuit
    # that fits.
    def order_loop(m, n):
        raise AssertionError(f"order of {m} mod {n} computed before the circuit's budget")

    monkeypatch.setattr(numtheory, "multiplicative_order", order_loop)
    for argv in (("montecarlo", "4097", "2", "10"), ("distribution", "4097", "2", "--compare")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "2**26" in err, argv


def test_closed_form_budget_is_checked_before_the_order_loop(capsys, monkeypatch):
    # N = 16385 needs Q = 2**29, past the closed form's Q <= 2**28, which
    # is decided from Q alone.  The brute-force order loop (up to N - 1
    # steps) runs only for a register that fits.
    def order_loop(m, n):
        raise AssertionError(f"order of {m} mod {n} computed before the closed form's budget")

    monkeypatch.setattr(numtheory, "multiplicative_order", order_loop)
    code, out, err = run_cli(capsys, "distribution", "16385", "2", "--closed-form")
    assert code == 2 and out == "" and "Q <= 2**28" in err


def test_unwritable_out_is_rejected_before_the_closed_form(capsys, monkeypatch, tmp_path):
    # --out is opened after the last check that can reject and before the
    # closed form runs, so an unwritable path exits 2 without that work.
    def closed_form(period, q_total):
        raise AssertionError("closed form computed before --out was opened")

    monkeypatch.setattr(engine, "closed_form_distribution", closed_form)
    out_path = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = run_cli(capsys, "distribution", "1023", "2", "--closed-form", "--out", str(out_path))
    assert code == 2 and out == "" and "cannot write the CSV" in err


def test_closed_form_csv_from_half_a_period_is_the_naive_csv(capsys):
    # Each writer path against the naive writer over the scalar closed
    # form: periods shorter and longer than a chunk, odd P (each chunk
    # formats its own values) and even P (one table of cells).
    for period, q_total in ((4, 1 << 15), (6, 1 << 15), (23, 1 << 15), (1, 16), (3, 2)):
        dist = closed_form_distribution(period, q_total)
        assert dist.values.size == q_total // math.gcd(period, q_total) // 2 + 1
        cli._write_csv(dist, None)
        scalar = [closed_form_prob(y, period, q_total) for y in range(q_total)]
        assert capsys.readouterr().out == support.naive_csv(scalar), (period, q_total)


def test_closed_form_csv_peaks_below_a_q_length_array(tmp_path):
    # Q = 2**20: the whole distribution alone would take 8 MiB.  At P = 5
    # (gcd 1) the half period and the sin^2 table take 4 MiB each, and the
    # writer formats chunk by chunk; at P = 10 (gcd 2) the writer's table
    # of cells takes 8 MiB next to the 2 MiB half period.  Before the CSV
    # was written from half a period the peaks were 16.6 and 14.6 MiB.
    out = str(tmp_path / "q20.csv")
    cli.main(["distribution", "15", "2", "--closed-form", "--out", out])  # first-use caches
    for m in ("4", "2"):
        tracemalloc.start()
        try:
            assert cli.main(["distribution", "1023", m, "--closed-form", "--out", out]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 << 20, m


def test_closed_form_over_budget_is_rejected_before_allocating():
    # N = 16385 and 20001 need Q = 2**29, one step past the closed form's
    # Q <= 2**28: a sin^2 table of up to 2 GiB and a 4 GiB result.  The
    # child may map at most 1 GiB, so without the check each case dies at
    # once with a MemoryError instead of taking the machine's memory.
    # --compare runs the circuit first, which names its own budget.
    cases = [
        ["distribution", n, "2", mode]
        for n in ("16385", "20001")
        for mode in ("--closed-form", "--compare")
    ]
    results, errors = run_limited(cases, 1 << 30)
    assert [code for code, _ in results] == [2] * len(cases)
    assert len(errors) == len(cases)
    budgets = {"--closed-form": "Q <= 2**28", "--compare": "2**26"}
    for (*_, mode), line in zip(cases, errors):
        assert "536870912" in line and budgets[mode] in line
    assert all(peak < 1 << 20 for _, peak in results)


@pytest.mark.parametrize("mode", ["--closed-form", "--compare"])
def test_distribution_over_closed_form_budget_is_rejected(capsys, mode):
    # N = 46341 needs Q = 2**32, past the closed form's Q <= 2**28 and the
    # circuit's 2**26 amplitudes; --compare runs the circuit first.  Each
    # budget is checked before any allocation.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "distribution", "46341", "2", mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    budget = {"--closed-form": "Q <= 2**28", "--compare": "2**26"}[mode]
    assert "4294967296" in err and budget in err
    assert peak < 1 << 20


def test_distribution_simulate_and_compare(capsys):
    code, out, _ = run_cli(capsys, "distribution", "15", "2", "--simulate")
    assert code == 0
    assert len(out.splitlines()) == 257
    code, out, _ = run_cli(capsys, "distribution", "15", "2", "--compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_discrepancy"] < 1e-9
    assert abs(payload["closed_form_sum"] - 1.0) < 1e-9
    assert abs(payload["simulated_sum"] - 1.0) < 1e-9


def test_distribution_rejects_non_unit_base(capsys):
    code, _, err = run_cli(capsys, "distribution", "15", "3")
    assert code == 2 and "gcd" in err


def test_cf_table(capsys):
    code, out, _ = run_cli(capsys, "cf", "13453", "16384")
    assert code == 0
    lines = [line.split() for line in out.splitlines()[2:]]
    assert len(lines) == 15
    assert lines[2] == ["2", "4", "4", "5"]
    assert lines[3] == ["3", "1", "5", "6"]
    assert lines[14] == ["14", "3", "13453", "16384"]

    code, out, _ = run_cli(capsys, "cf", "5", "1")
    assert len(out.splitlines()) == 3  # header, rule, single row

    code, out, _ = run_cli(capsys, "cf", "1", "2")
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [r[1] for r in rows] == ["0", "2"]


def test_cf_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["cf", "1", "0"])
    assert excinfo.value.code == 64
    capsys.readouterr()


def test_montecarlo_json_summary(capsys):
    code, out, _ = run_cli(capsys, "montecarlo", "15", "2", "1000", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    for key in (
        "success_fraction",
        "wilson_95",
        "success_lower_bound",
        "asymptotic_bound",
        "histogram",
    ):
        assert key in payload
    assert payload["P"] == 4
    assert payload["trials"] == 1000
    assert payload["success_fraction"] >= payload["success_lower_bound"] - 0.05


def test_montecarlo_forced_outcome_and_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["montecarlo", "15", "2", "0"])
    assert excinfo.value.code == 64
    capsys.readouterr()
    code, _, err = run_cli(capsys, "montecarlo", "15", "5", "10")
    assert code == 2 and "gcd" in err


def test_replicate_passes(capsys):
    code, out, _ = run_cli(capsys, "replicate")
    assert code == 0
    assert "PASS (14 fields" in out.splitlines()[-1]
    assert "FAIL" not in out


def test_truncate_sig_does_not_round_up():
    # The float's exact value is 3.1893355519999997964...e-7: the run of 9s
    # past the tenth digit must be cut, not carried into it.
    assert cli._truncate_sig(3.1893355519999996e-07, 10) == "3.189335551e-07"
    assert cli._truncate_sig(9.99999999999e-08, 10) == "9.999999999e-08"
    assert cli._truncate_sig(0.5, 10) == "5.000000000e-01"


def test_replicate_json_and_perturbation(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "replicate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["fields"]) == 14
    assert all(f["ok"] for f in payload["fields"])

    monkeypatch.setitem(cli.EXAMPLE, "factor", 14)
    code, out, _ = run_cli(capsys, "replicate", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    broken = {f["field"] for f in payload["fields"] if not f["ok"]}
    assert "factor" in broken


def key_paths(node, path: str = "") -> set[str]:
    """Every dict key in a JSON document as a dotted path; lists are transparent."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            paths |= {path + key} | key_paths(value, f"{path}{key}.")
    elif isinstance(node, list):
        for item in node:
            paths |= key_paths(item, path)
    return paths


MANIFEST_KEYS = {
    "manifest",
    "manifest.command",
    "manifest.config",
    "manifest.schema_version",
    "manifest.timestamp_utc",
    "manifest.version",
}


# The JSON is built from the result dataclasses, so a new field shows here.
@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ("factor", "91", "--seed", "12345"),
            {
                *("manifest.config." + k for k in ("N", "forced_m", "forced_y", "retries", "seed")),
                "manifest.elapsed_s",
                "trace",
                *("trace." + k for k in ("L", "N", "Q", "m", "retries", "attempts", "outcome")),
                *("trace.outcome." + k for k in ("factor", "kind")),
                *(
                    "trace.attempts." + k
                    for k in (
                        "convergent_tests",
                        "gcd_m_n",
                        "m",
                        "outcome_kind",
                        "period",
                        "y",
                        "y_in_bijection_set",
                    )
                ),
            },
        ),
        (
            ("montecarlo", "15", "2", "1000", "--seed", "7"),
            {
                *("manifest.config." + k for k in ("N", "m", "trials", "seed")),
                "N",
                "m",
                "P",
                "trials",
                "successes",
                "success_fraction",
                "wilson_95",
                "success_lower_bound",
                "asymptotic_bound",
                *("asymptotic_bound." + k for k in ("kind", "period_above_3", "value")),
                "histogram",
                *("histogram." + k for k in ("recovered_order", "recovered_multiple", "unrecovered")),
            },
        ),
        (
            ("replicate", "--json"),
            {
                "manifest.elapsed_s",
                "pass",
                "fields",
                *("fields." + k for k in ("actual", "expected", "field", "ok")),
            },
        ),
        (
            ("distribution", "15", "2", "--compare"),
            {
                *("manifest.config." + k for k in ("N", "m", "mode")),
                "N",
                "m",
                "P",
                "Q",
                "max_abs_discrepancy",
                "closed_form_sum",
                "simulated_sum",
            },
        ),
    ],
)
def test_json_key_trees(capsys, argv, keys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert key_paths(json.loads(out)) == MANIFEST_KEYS | keys


@pytest.mark.parametrize("argv", [("factor", "15"), ("montecarlo", "15", "2", "10")])
def test_seed_outside_64_bits_is_usage_error(capsys, argv):
    for seed in (-1, 2**64):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--seed", str(seed)])
        assert excinfo.value.code == 64
        assert "0 <= seed < 2**64" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)["manifest"]["config"]["seed"] == 2**64 - 1


# Inputs the library rejects, each with a piece of its diagnostic.
REJECTED_INPUTS = [
    (("montecarlo", "1", "3", "10"), "modulus must be >= 2"),
    (("montecarlo", "0", "3", "10"), "modulus must be >= 2"),
    (("montecarlo", "2000000", "3", "10"), "exceeds the desk-scale cap"),
    (("montecarlo", "15", "5", "10"), "gcd(5, 15) != 1"),
    (("distribution", "0", "1"), "modulus must be >= 2"),
    (("distribution", "15", "3"), "gcd(3, 15) != 1"),
    (("cf", "-5", "3"), "numerator must be non-negative"),
    (("factor", "91", "--forced-m", "0"), "range [2, 90]"),
    (("factor", "91", "--forced-m", "182"), "range [2, 90]"),
    (("factor", "91", "--forced-m", "3", "--forced-y", "99999"), "sample space of size 16384"),
    (("factor", "15", "--forced-m", "2", "--forced-y", "1"), "zero probability"),
    # An outcome belongs to one base's distribution: forcing it alone would
    # pass or fail with the seed's base.
    (("factor", "15", "--forced-y", "64"), "needs a forced base"),
    (
        ("factor", "97"),
        "precondition failed (probable prime): 97 is probably prime (error bound 9.54e-07)",
    ),
    # Past the circuit budget a run is rejected before its first attempt,
    # so a lucky first gcd cannot end it with a factor.
    (("factor", "8193", "--seed", "1"), "2**26"),
    (("factor", "8193", "--seed", "6"), "2**26"),
    (("factor", "8193", "--forced-m", "3"), "2**26"),
    # At Q = 2**26 one row fits, but a unit base in [2, N-1] has order at
    # least 2, so every circuit holds two rows: the run is rejected too.
    (("factor", "8189", "--seed", "3"), "2**26"),
    # A CSV path that cannot be opened is refused like any other input.
    (
        ("distribution", "15", "2", "--out", "/nonexistent-dir/x.csv"),
        "cannot write the CSV to /nonexistent-dir/x.csv: No such file or directory",
    ),
    (("distribution", "15", "2", "--out", "/"), "cannot write the CSV to /: Is a directory"),
    # So is one that fails on write or on close, from either writer path.
    *(
        [
            (
                ("distribution", "1023", "2", "--closed-form", "--out", "/dev/full"),
                "cannot write the CSV to /dev/full: No space left on device",
            ),
            (
                ("distribution", "91", "3", "--simulate", "--out", "/dev/full"),
                "cannot write the CSV to /dev/full: No space left on device",
            ),
        ]
        if os.path.exists("/dev/full")
        else []
    ),
]


@pytest.mark.parametrize(
    "argv, diagnostic", REJECTED_INPUTS, ids=["-".join(argv) for argv, _ in REJECTED_INPUTS]
)
def test_rejected_input_is_one_diagnostic_line(capsys, argv, diagnostic):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"shorlab {argv[0]}: ")
    assert diagnostic in err


@pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
@pytest.mark.parametrize(
    "argv",
    [("distribution", "1023", "2", "--closed-form"), ("montecarlo", "91", "3", "1000")],
    ids=["csv", "json"],
)
def test_unwritable_stdout_is_one_diagnostic_line(argv, stdout):
    # A CSV and a JSON command, with stdout closed before the child writes
    # or full: one line on stderr, exit 2, and nothing from the interpreter
    # flushing stdout at exit.
    if stdout == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    sink = subprocess.PIPE if stdout == "closed pipe" else open(stdout, "wb")
    command = [sys.executable, "-m", "shorlab", *argv]
    with subprocess.Popen(command, stdout=sink, stderr=subprocess.PIPE, env=env) as child:
        (child.stdout or sink).close()
        err = child.stderr.read().decode()
    reason = "Broken pipe" if stdout == "closed pipe" else "No space left on device"
    assert (child.returncode, err) == (2, f"shorlab {argv[0]}: cannot write to stdout: {reason}\n")
