"""Tests of the benchmark's own checks, tracing and inputs.

    python3 -m pytest -q shorbench
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

MODULES = run.import_package()
cli = MODULES["cli"]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# --- self times -----------------------------------------------------------


def test_self_times_on_hand_built_tree():
    #   0 root [0, 100]
    #   1   a  [10, 40]
    #   2     g [15, 25]
    #   3   b  [50, 90]
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 40]
    assert own.sum() == end[0] - start[0]


def traced_ops(argvs):
    tracer = tracing.Tracer()
    results = []
    for i, argv in enumerate(argvs):
        tracer.current_op = i
        with tracer.installed(MODULES):
            results.append(run.run_op(cli, workloads.Op(tuple(argv), int(argv[1])), None))
    return tracer, results


def test_traced_ops_attribute_all_time_and_split_the_transforms():
    argvs = [["factor", "21", "--seed", "3"], ["montecarlo", "15", "2", "50", "--seed", "1"]]
    tracer, results = traced_ops(argvs)
    assert [r.rc for r in results] == [0, 0]
    assert MODULES["engine"].apply_qft_reg1.__name__ == "apply_qft_reg1"  # restored
    walls = [r.wall_ns for r in results]
    failures, worst = tracing.check_spans(tracer, walls, run.SPAN_GAP_TOL_NS)
    assert failures == {} and 0 <= worst <= run.SPAN_GAP_TOL_NS
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names.count("engine.qft1") == names.count("engine.qft2") == names.count(tracing.CIRCUIT)
    assert "engine.apply_qft_reg1" not in names
    assert names.count("pipeline.trial_uniform") == 50
    # Every circuit's second transform holds Q*P amplitudes.
    assert tracer.counts["engine.amplitudes"] > 0
    metrics = tracing.layer_metrics(tracer, len(argvs))
    assert metrics["pipeline.trial_uniform_calls"] == 25.0
    assert 0.0 < metrics["pipeline.useful_attempt_ratio"] <= 1.0


def test_span_check_catches_misfiled_and_missing_spans():
    tracer, results = traced_ops([["montecarlo", "15", "2", "200", "--seed", "1"]] * 2)
    walls = [r.wall_ns for r in results]
    assert tracing.check_spans(tracer, walls, run.SPAN_GAP_TOL_NS)[0] == {}
    # The longest inner span of op 1 filed under op 0: op 0 now accounts
    # for more time than it took.
    spans = tracer.arrays()
    inner = np.flatnonzero((spans["op"] == 1) & (spans["parent"] >= 0))
    moved = int(inner[np.argmax((spans["end"] - spans["start"])[inner])])
    tracer.op[moved] = 0
    failures, _ = tracing.check_spans(tracer, walls, run.SPAN_GAP_TOL_NS)
    assert "sum to" in failures[0]
    tracer.op[moved] = 1
    # Time outside every span: the op took longer than its spans.
    failures, _ = tracing.check_spans(tracer, [walls[0], walls[1] + 10**9], run.SPAN_GAP_TOL_NS)
    assert list(failures) == [1]
    # An op without its cli.main root span.
    roots = np.flatnonzero(tracer.arrays()["parent"] < 0)
    tracer.op[int(roots[1])] = 0
    failures, _ = tracing.check_spans(tracer, walls, run.SPAN_GAP_TOL_NS)
    assert "root spans" in failures[0] and "root spans" in failures[1]


def test_replay_must_match_its_untraced_twin(tmp_path):
    argv = ["factor", "91", "--seed", "4"]
    first = run.run_op(cli, workloads.Op(tuple(argv), 91), None)
    second = run.run_op(cli, workloads.Op(tuple(argv), 91), None)
    assert run.check_replay(first, second) is None  # clock fields differ
    doc = json.loads(second.stdout)
    doc["trace"]["outcome"]["factor"] = 7 if doc["trace"]["outcome"]["factor"] == 13 else 13
    changed = run.OpResult(second.rc, json.dumps(doc), second.stderr, second.wall_ns, None)
    assert "other output" in run.check_replay(first, changed)
    op = workloads.Op(("distribution", "35", "2", "--closed-form"), 35, 2)
    a = run.run_op(cli, op, tmp_path / "a.csv")
    b = run.run_op(cli, op, tmp_path / "b.csv")
    assert run.check_replay(a, b) is None
    b.csv_path.write_text(b.csv_path.read_text().replace("\n1,", "\n1,1", 1))
    assert "another CSV" in run.check_replay(a, b)


# --- factor checks --------------------------------------------------------


def test_factor_output_passes_and_a_wrong_factor_fails():
    rc, out, err = call(["factor", "91", "--forced-m", "3", "--forced-y", "13453"])
    assert checks.check_factor(91, rc, out, err) is None
    doc = json.loads(out)
    doc["trace"]["outcome"]["factor"] = 11
    assert "not a nontrivial factor" in checks.check_factor(91, rc, json.dumps(doc), err)


def test_factor_record_tampering_fails():
    rc, out, err = call(["factor", "91", "--forced-m", "3", "--forced-y", "13453"])
    residue = json.loads(out)
    residue["trace"]["attempts"][0]["convergent_tests"][0][2] += 1
    assert "recorded as" in checks.check_factor(91, rc, json.dumps(residue), err)
    period = json.loads(out)
    period["trace"]["attempts"][0]["period"] = 12
    assert "recovered period" in checks.check_factor(91, rc, json.dumps(period), err)
    # m = 2 has order 4 mod 15, which divides Q = 256: only y = 0, 64, 128, 192 occur.
    rc, out, err = call(["factor", "15", "--forced-m", "2", "--forced-y", "64"])
    assert checks.check_factor(15, rc, out, err) is None
    outcome = json.loads(out)
    outcome["trace"]["attempts"][0]["y"] = 65
    assert "zero probability" in checks.check_factor(15, rc, json.dumps(outcome), err)


def test_rejections_must_be_exit_2_naming_the_check():
    assert checks.check_factor(97, *call(["factor", "97"])) is None
    assert checks.check_factor(121, *call(["factor", "121"])) is None
    assert "expected 2" in checks.check_factor(97, 0, "", "")
    assert "does not name" in checks.check_factor(121, 2, "", "precondition failed (probable prime)")
    assert "expected 0" in checks.check_factor(91, 2, "", "")


def test_zero_probability_outcomes_are_exact():
    # P = 4 divides Q = 256: only multiples of Q/P are possible.
    possible = [y for y in range(256) if checks.outcome_possible(4, 256, y)]
    assert possible == [0, 64, 128, 192]
    probs = checks.outcome_probs(4, 256)
    assert np.all(probs[possible] > 0.2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# --- CSV checks -----------------------------------------------------------


@pytest.fixture
def csv_text(tmp_path):
    path = tmp_path / "d.csv"
    assert call(["distribution", "35", "2", "--closed-form", "--out", str(path)])[0] == 0
    return path.read_text()


def test_csv_passes(csv_text):
    assert checks.check_csv(35, 2, csv_text) is None


def test_corrupted_csv_row_fails(csv_text):
    lines = csv_text.split("\n")
    y, p = lines[1].split(",")
    lines[1] = f"{y},{float(p) + 1e-6:.17g}"
    assert checks.check_csv(35, 2, "\n".join(lines)) is not None
    lines = csv_text.split("\n")
    lines[5] = "4,not-a-number"
    assert "two numbers" in checks.check_csv(35, 2, "\n".join(lines))
    lines = csv_text.split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    assert "in order" in checks.check_csv(35, 2, "\n".join(lines))
    assert "rows" in checks.check_csv(35, 2, "\n".join(csv_text.split("\n")[:-2]) + "\n")
    assert "header" in checks.check_csv(35, 2, csv_text.replace("y,prob", "y,p", 1))


def test_direct_sum_matches_closed_form():
    for period, q_total in ((6, 16384), (12, 2048), (7, 512)):
        probs = checks.outcome_probs(period, q_total)
        for y in checks._sample_rows(period, q_total):
            assert abs(checks.direct_prob(period, q_total, y) - probs[y]) < 1e-12


# --- Monte-Carlo checks ---------------------------------------------------


def test_exact_recovery_rate_of_the_worked_example():
    assert checks.recovery_rate(91, 3) == pytest.approx(0.33317, abs=5e-5)


def test_montecarlo_count_outside_the_interval_fails():
    rc, out, _ = call(["montecarlo", "21", "2", "4000", "--seed", "5"])
    batch = (21, 2, 4000, rc, out)
    assert checks.check_montecarlo([batch]) == {}
    doc = json.loads(out)
    rate = checks.recovery_rate(21, 2)
    doc["successes"] = int(4000 * rate) + 400
    failures = checks.check_montecarlo([(21, 2, 4000, rc, json.dumps(doc))])
    assert "excludes the exact rate" in failures[0]
    assert checks.check_montecarlo([(21, 2, 4000, 3, out)]) == {0: "N=21, m=2: exit 3, expected 0"}


# --- inputs and report ----------------------------------------------------


def test_inputs_are_seeded_and_stratified():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
    factor = workloads.build("factor", 1)[0]
    assert sorted(op.n for op in factor) == list(workloads.FACTOR_NS)
    closed = workloads.build("closed_form_csv", 1)[0]
    assert sorted(checks.register_size(op.n) for op in closed) == sorted(workloads.CLOSED_FORM_QS)
    mc = workloads.build("montecarlo", 1)[0]
    assert sorted(op.n for op in mc) == list(workloads.MONTECARLO_NS)
    for op in closed + mc:
        assert op.m in checks.units(op.n)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(50)]) is None
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(1000)]) == (99.0, 989.0)


def test_unreadable_output_is_a_failed_op_not_a_crash(tmp_path):
    op = workloads.Op(("distribution", "35", "2", "--closed-form"), 35, 2)
    missing = run.OpResult(0, "", "", 1, tmp_path / "never-written.csv")
    assert "unreadable output" in run.check_all("closed_form_csv", [op], [missing])[0]
    op = workloads.Op(("factor", "91", "--seed", "1"), 91)
    failures = run.check_all("factor", [op], [run.OpResult(0, "not json", "", 1, None)])
    assert "unreadable output" in failures[0]
    mc = workloads.Op(("montecarlo", "21", "2", "10"), 21, 2, 10)
    failures = run.check_all("montecarlo", [mc], [run.OpResult(0, "{}", "", 1, None)])
    assert "unreadable output" in failures[0]
