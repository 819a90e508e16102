"""Command-line front end: factor, distribution, cf, montecarlo, replicate.

Output contract:
  * one JSON document per run on stdout (UTF-8, sorted keys), or CSV with
    header ``y,prob`` for the distribution paths;
  * exit 0 on success, 1 on a replication mismatch, 2 on a precondition
    rejection or an --out path or stdout that cannot be written, 3 when
    retries are exhausted, 64 on usage errors.

Identical invocations with identical seeds produce byte-identical JSON
except for the two volatile manifest fields (timestamp_utc, elapsed_s).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import decimal
import functools
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, contfrac, engine, numtheory, pipeline

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PRECONDITION = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64

SCHEMA_VERSION = 1

# Decimal digits are looked up four at a time, GROUP = 10**4 entries, and
# a distribution CSV goes out GROUP rows at a time.
GROUP = 10**4
# Veltkamp's splitting constant 2**27 + 1, and the largest power of ten
# the digit extraction scales by: 10**(16 - E) with E >= -281.
_VELTKAMP = 134217729.0
_POW10_MAX = 297

# Embedded worked example: N = 91, m = 3, forced outcome y = 13453.
EXAMPLE = {
    "N": 91,
    "m": 3,
    "Q": 16384,
    "L": 14,
    "y": 13453,
    "prob_printed": "3.189335551e-07",  # 10 significant digits
    "d_of_y": 5,
    "coefficients": [0, 1, 4, 1, 1, 2, 3, 1, 1, 3, 1, 1, 1, 1, 3],
    "p_table": [0, 1, 4, 5, 9, 23, 78, 101, 179, 638, 817, 1455, 2272, 3727, 13453],
    "q_table": [1, 1, 5, 6, 11, 28, 95, 123, 218, 777, 995, 1772, 2767, 4539, 16384],
    "rejected_candidate": (2, 5, 61),  # q_2 = 5 fails: 3**5 = 61 mod 91
    "accepted_candidate": (3, 6, 1),  # q_3 = 6 succeeds: 3**6 = 1 mod 91
    "period": 6,
    "half_power": 27,  # 3**(P/2) mod 91
    "factor": 13,
}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code remapped from 2 to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must satisfy 0 <= seed < 2**64, got {value}")
    return value


def _manifest(args, config: dict | None = None) -> dict:
    """The run's manifest; its config is the parsed arguments unless given."""
    if config is None:
        config = {k: v for k, v in vars(args).items() if k != "command"}
    return {
        "command": args.command,
        "config": config,
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    }


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _words(texts, dtype=np.uint32) -> np.ndarray:
    """Equal-length byte strings as native integer words."""
    return np.frombuffer(b"".join(texts), dtype=dtype)


@functools.lru_cache(maxsize=1)
def _pow10_split() -> tuple[np.ndarray, ...]:
    """(hh, hl, lo) with 10**s = hh + hl + lo for s = 0.._POW10_MAX.

    hh + hl is 10**s rounded to a double, split into two 26-bit halves
    (Veltkamp), and lo is the double nearest the remainder; both come from
    exact integers, so together they carry 10**s to about 2**-106.
    """
    exact = [10**s for s in range(_POW10_MAX + 1)]
    hi = np.array([float(p) for p in exact])
    lo = np.array([float(p - int(h)) for p, h in zip(exact, hi.tolist())])
    scaled = hi * _VELTKAMP
    hh = scaled - (scaled - hi)
    return hh, hi - hh, lo


@functools.lru_cache(maxsize=1)
def _glyph_tables() -> dict[str, np.ndarray]:
    """Native words that spell out a CSV row; zero bytes are gaps, dropped on output.

    ``group`` holds a 4-digit group in three sections of GROUP entries:
    with trailing zeros dropped, in full, and with leading zeros dropped
    (0 prints "0").  A value's cell is 8 bytes of ``prefix``, or-ed with
    ``lead`` (the leading digit at byte 6), four groups of its other 16
    digits, and 8 bytes of ``tail``.  The prefix is the comma, then "0."
    and z zeros in the fixed form (index z = 0..3), or nothing in the
    scientific form (index 4, or 5 to put a point after the leading
    digit).  The tail is "e-" and at least two exponent digits (index -E;
    index 0 for the fixed form: none), then the newline.
    """
    groups = [b"%04d" % g for g in range(GROUP)]
    return {
        "group": _words(
            [g.rstrip(b"0").ljust(4, b"\0") for g in groups]
            + groups
            + [(b"%d" % g).rjust(4, b"\0") for g in range(GROUP)]
        ),
        "prefix": _words(
            [(b",0." + b"0" * z).ljust(8, b"\0") for z in range(4)]
            + [b",".ljust(8, b"\0"), b",".ljust(7, b"\0") + b"."],
            np.uint64,
        ),
        "lead": _words((b"\0" * 6 + b"%d\0" % d for d in range(10)), np.uint64),
        "tail": _words(
            [b"\0" * 7 + b"\n"]
            + [
                (b"e-" + (b"%02d" % e).rjust(3, b"\0")).ljust(7, b"\0") + b"\n"
                for e in range(1, 1000)
            ],
            np.uint64,
        ),
    }


def _significands(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, E): the 17 significant digits D and decimal exponent E that
    ``%.17g`` prints for each value, D = -1 where not certain.

    For 1e-280 < v < 1, E = floor(log10 v) and x = v * 10**(16 - E) is
    formed as a double-double: Dekker's exact product of v and the double
    nearest 10**(16 - E), plus v times the remainder.  Its error is below
    about 1e-14.  D is floor(x), rounded up when the fraction is past one
    half.  D = -1 (the caller formats the value exactly) when the
    fraction is within 1e-6 of one half, where a tie or near tie could be
    decided by that error; when floor(x) is outside [10**16, 10**17) or D
    rounds up to 10**17, where log10 misjudged E next to a power of ten;
    and for values outside (1e-280, 1): zeros, 1 and above, subnormals,
    inf and nan.
    """
    certain = (values > 1e-280) & (values < 1)
    v = np.where(certain, values, 0.5)  # placeholders keep the arithmetic quiet
    exponent = np.floor(np.log10(v)).astype(np.int64)
    hh, hl, lo = (table[16 - exponent] for table in _pow10_split())
    scaled = v * _VELTKAMP
    vh = scaled - (scaled - v)
    vl = v - vh
    high = v * (hh + hl)
    low = ((vh * hh - high) + vh * hl + vl * hh) + vl * hl + v * lo
    whole = np.floor(low)
    frac = low - whole
    digits = high.astype(np.int64) + whole.astype(np.int64)
    certain &= (np.abs(frac - 0.5) > 1e-6) & (digits >= 10**16)
    digits += frac > 0.5
    certain &= digits < 10**17
    digits[~certain] = -1
    return digits, exponent


def _cells(digits: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """The ``,%.17g\\n`` cell of each (D, E) from ``_significands``, as 8
    uint32 words with zero bytes as gaps: the fixed form for E >= -4,
    otherwise d.ddd, "e-" and at least two exponent digits, trailing zeros
    dropped.  Any D in [0, 10**17) and E in [-999, -1] index the tables,
    and so does D = -1, whose cell is a placeholder for the caller to
    overwrite."""
    tables = _glyph_tables()
    exponent = exponent.astype(np.int64)
    first = digits // 10**16
    rest = digits - first * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    groups = []
    for part in (upper, lower):
        high = part // GROUP
        groups += [high, part - high * GROUP]
    cells = np.empty((digits.size, 8), dtype=np.uint32)
    # A group prints in full when a later group is nonzero; otherwise its
    # trailing zeros are dropped (and a zero group prints nothing).
    later = np.zeros(digits.size, dtype=bool)
    for i in (3, 2, 1, 0):
        cells[:, 2 + i] = np.take(tables["group"], groups[i] + GROUP * later)
        later |= groups[i] != 0
    fixed = exponent >= -4
    quads = cells.view(np.uint64)
    quads[:, 0] = np.take(tables["prefix"], np.where(fixed, -1 - exponent, 4 + later))
    quads[:, 0] |= np.take(tables["lead"], first)
    quads[:, 3] = np.take(tables["tail"], np.where(fixed, 0, -exponent))
    return cells


def _row_numbers(start: int, count: int, width: int) -> np.ndarray:
    """Row numbers start..start+count-1, for a start that is a multiple of
    GROUP and at most GROUP rows, as ``width`` words with gaps in front:
    the same prefix start // GROUP in every row (none in chunk 0), then
    the last four digits, in full or in chunk 0 without leading zeros."""
    table = _glyph_tables()["group"]
    prefix = (b"%d" % (start // GROUP) if start else b"").rjust(4 * (width - 1), b"\0")
    words = np.empty((count, width), dtype=np.uint32)
    words[:, :-1] = _words([prefix])
    section = GROUP if start else 2 * GROUP
    words[:, -1] = table[section : section + count]
    return words


def _format_cells(values: np.ndarray) -> np.ndarray:
    """The ``,%.17g\\n`` cell of each value, one 32-byte void each with zero
    bytes as gaps.

    A cell is spelled from the digits ``_significands`` gives its value.
    The values it is not certain of are formatted by ``format`` instead,
    once per run of equal bit patterns among them: 0.0 and -0.0 keep their
    own text, and the zeros between the peaks of a power-of-two period
    cost one call per run.
    """
    digits, exponent = _significands(values)
    cells = _cells(digits, exponent).view("V32").reshape(-1)
    unsure = np.flatnonzero(digits < 0)
    bits = values.view(np.int64)[unsure]
    first = np.ones(bits.size, dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    texts = (format(v, ".17g").encode("ascii") for v in values[unsure[first]].tolist())
    formatted = _words((b"," + t).ljust(31, b"\0") + b"\n" for t in texts)
    cells[unsure] = formatted.view("V32")[np.cumsum(first) - 1]
    return cells


@contextlib.contextmanager
def _csv_sink(out_path: str | None):
    """A byte writer to the file ``out_path``, created or truncated here,
    or to stdout when there is none.  A path that cannot be opened,
    written or closed is a ValueError."""
    if not out_path:
        yield lambda data: sys.stdout.write(data.decode("ascii"))
        return
    try:
        with open(out_path, "wb") as handle:
            yield handle.write
    except OSError as exc:
        raise ValueError(f"cannot write the CSV to {out_path}: {exc.strerror}") from None


def _write_rows(dist: engine.OutcomeDistribution, write) -> None:
    """Write the ``y,prob`` CSV of ``dist`` through ``write``, each
    probability printed as ``%.17g`` prints it.

    Rows go out GROUP at a time as one byte matrix, the row number's
    words and then the value's cell, with the gaps dropped.  When the
    distribution stores at most about a quarter as many values as it has
    outcomes (half a period, for every even period P), each value's cell
    is formatted once, GROUP values at a time, into a table of 32
    bytes per value, no more than 8 bytes per outcome, and each chunk
    gathers its rows' cells from it.  Otherwise each chunk formats its
    rows' values.  Memory beyond that table is one chunk and its
    temporaries, whatever the number of outcomes.
    """
    values = dist.values
    width = -(-len(str(max(dist.size - 1, 0))) // 4)
    row = np.dtype([("y", np.uint32, (width,)), ("cell", "V32")])
    rows = np.empty(min(dist.size, GROUP), dtype=row)
    table = None
    if 4 * (values.size - 1) <= dist.size:
        table = np.empty(values.size, dtype="V32")
        for start in range(0, values.size, GROUP):
            table[start : start + GROUP] = _format_cells(values[start : start + GROUP])
    write(b"y,prob\n")
    for start in range(0, dist.size, GROUP):
        chunk = rows[: min(GROUP, dist.size - start)]
        index = dist.value_index(np.arange(start, start + chunk.size, dtype=np.int64))
        chunk["cell"] = _format_cells(values[index]) if table is None else np.take(table, index)
        chunk["y"] = _row_numbers(start, chunk.size, width)
        write(chunk.tobytes().translate(None, b"\0"))


def _write_csv(dist, out_path: str | None) -> None:
    """Write the ``y,prob`` CSV of ``dist``, an OutcomeDistribution or one
    probability per outcome, to ``out_path`` or stdout (see _write_rows)."""
    if not isinstance(dist, engine.OutcomeDistribution):
        values = np.ascontiguousarray(dist, dtype=np.float64)
        dist = engine.OutcomeDistribution(values, values.size)
    with _csv_sink(out_path) as write:
        _write_rows(dist, write)


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The ``shorlab`` parser, built on first use and kept for the process."""
    parser = _Parser(prog="shorlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="run the five-step factoring pipeline")
    p_factor.add_argument("N", type=int)
    p_factor.add_argument("--seed", type=_seed, default=0, help="64-bit RNG seed")
    p_factor.add_argument("--retries", type=_positive_int, default=100)
    p_factor.add_argument("--forced-m", type=int, default=None)
    p_factor.add_argument("--forced-y", type=int, default=None)

    p_dist = sub.add_parser("distribution", help="measurement distribution as CSV")
    p_dist.add_argument("N", type=int)
    p_dist.add_argument("m", type=int)
    mode = p_dist.add_mutually_exclusive_group()
    mode.add_argument("--closed-form", action="store_true")
    mode.add_argument("--simulate", action="store_true")
    mode.add_argument("--compare", action="store_true", help="emit max |closed - simulated|")
    p_dist.add_argument("--out", default=None, help="CSV path (default: stdout)")

    p_cf = sub.add_parser("cf", help="continued-fraction expansion table")
    p_cf.add_argument("numerator", type=int)
    p_cf.add_argument("denominator", type=_positive_int)

    p_mc = sub.add_parser("montecarlo", help="seeded period-recovery trials")
    p_mc.add_argument("N", type=int)
    p_mc.add_argument("m", type=int)
    p_mc.add_argument("trials", type=_positive_int)
    p_mc.add_argument("--seed", type=_seed, default=0, help="64-bit RNG seed")

    p_rep = sub.add_parser("replicate", help="re-run the embedded N=91 worked example")
    p_rep.add_argument("--json", action="store_true", dest="as_json")
    return parser


def cmd_factor(args) -> int:
    config = pipeline.ShorConfig(
        rng_seed=args.seed,
        max_outer_retries=args.retries,
        forced_m=args.forced_m,
        forced_y=args.forced_y,
    )
    outcome, trace = pipeline.shor_factor(args.N, config)
    manifest = _manifest(args)
    manifest["elapsed_s"] = trace.elapsed_s  # volatile, like timestamp_utc
    _print_json({"manifest": manifest, "trace": trace.to_dict()})
    return EXIT_OK if outcome.factor is not None else EXIT_EXHAUSTED


def cmd_distribution(args) -> int:
    """The distribution as CSV, or --compare's JSON.

    Every check that can reject comes before the work it guards.  The
    circuit decides its budget before anything of register size exists,
    and runs first, so neither the order loop nor the closed form runs for
    a circuit that cannot run.  The closed form's Q budget is checked
    before the order loop.  --out is created or truncated only once no
    check can reject the input: with --closed-form after the order loop
    and before the closed form, so an unwritable path exits 2 before that
    work; with --simulate after the circuit.
    """
    q_total = engine.register_size(args.N)
    f = engine.ModExpFunction(args.m, args.N)
    if args.simulate:
        _write_csv(engine.simulated_distribution(f), args.out)
        return EXIT_OK
    if args.compare:
        simulated = engine.simulated_distribution(f).probs
    engine.check_closed_form_budget(q_total)
    period = numtheory.multiplicative_order(args.m, args.N)
    if args.compare:
        closed = engine.closed_form_distribution(period, q_total).probs
        payload = {
            "manifest": _manifest(args, {"N": args.N, "m": args.m, "mode": "compare"}),
            "N": args.N,
            "m": args.m,
            "P": period,
            "Q": q_total,
            "max_abs_discrepancy": float(np.max(np.abs(simulated - closed))),
            "closed_form_sum": float(closed.sum()),
            "simulated_sum": float(simulated.sum()),
        }
        _print_json(payload)
        return EXIT_OK
    with _csv_sink(args.out) as write:
        _write_rows(engine.closed_form_distribution(period, q_total), write)
    return EXIT_OK


def cmd_cf(args) -> int:
    expansion = contfrac.cf_expand(args.numerator, args.denominator)
    header = f"{'n':>4} {'a_n':>12} {'p_n':>14} {'q_n':>14}"
    print(header)
    print("-" * len(header))
    for n_idx, (a, (p, q)) in enumerate(zip(expansion.coefficients, expansion.convergents)):
        print(f"{n_idx:>4} {a:>12} {p:>14} {q:>14}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    result = pipeline.monte_carlo_step2(args.N, args.m, args.trials, args.seed)
    _print_json({"manifest": _manifest(args), **dataclasses.asdict(result)})
    return EXIT_OK


def _truncate_sig(value: float, digits: int) -> str:
    """Scientific-notation string with the mantissa truncated to ``digits``.

    Truncates the float's exact decimal expansion.  Formatting with a few
    spare digits and cutting the string would round first, so a run of 9s
    past the cut would carry into the kept digits.
    """
    context = decimal.Context(prec=digits, rounding=decimal.ROUND_DOWN)
    kept = context.plus(decimal.Decimal(value))
    mantissa = f"{kept:.{digits - 1}e}".split("e")[0]
    return f"{mantissa}e{kept.adjusted():+03d}"


def _replicate_fields() -> list[dict]:
    """Run the worked example and diff every embedded value."""
    config = pipeline.ShorConfig(forced_m=EXAMPLE["m"], forced_y=EXAMPLE["y"])
    outcome, trace = pipeline.shor_factor(EXAMPLE["N"], config)
    attempt = trace.attempts[0]
    candidates = {t[0]: list(t) for t in attempt.convergent_tests}

    expansion = contfrac.cf_expand(EXAMPLE["y"], trace.Q)
    prob_closed = engine.closed_form_prob(EXAMPLE["y"], EXAMPLE["period"], trace.Q)
    simulated = engine.simulated_distribution(engine.ModExpFunction(EXAMPLE["m"], EXAMPLE["N"]))
    prob_simulated = float(simulated.probs[EXAMPLE["y"]])
    d_y = pipeline.d_from_y(EXAMPLE["period"], EXAMPLE["Q"], EXAMPLE["y"])
    half_power = numtheory.mod_pow(EXAMPLE["m"], EXAMPLE["period"] // 2, EXAMPLE["N"])
    gcd_value = numtheory.gcd_euclid(half_power - 1, EXAMPLE["N"])

    def field(name, exp, act) -> dict:
        return {"field": name, "expected": exp, "actual": act, "ok": exp == act}

    # The reference probability is printed to 10 significant digits with
    # the trailing digits dropped; match under the same truncation.
    truncated = _truncate_sig(prob_closed, 10)
    return [
        field("Q", EXAMPLE["Q"], trace.Q),
        field("L", EXAMPLE["L"], trace.L),
        field("coefficients", EXAMPLE["coefficients"], list(expansion.coefficients)),
        field("p_table", EXAMPLE["p_table"], [p for p, _ in expansion.convergents]),
        field("q_table", EXAMPLE["q_table"], [q for _, q in expansion.convergents]),
        field("d_of_y", EXAMPLE["d_of_y"], d_y),
        field("prob_closed_form_10_digits", EXAMPLE["prob_printed"], truncated),
        field(
            "prob_simulated_vs_closed_1e-9",
            True,
            abs(prob_simulated - prob_closed) <= 1e-9,
        ),
        field("rejected_candidate", list(EXAMPLE["rejected_candidate"]), candidates.get(2)),
        field("accepted_candidate", list(EXAMPLE["accepted_candidate"]), candidates.get(3)),
        field("period", EXAMPLE["period"], attempt.period),
        field("half_power", EXAMPLE["half_power"], half_power),
        field("gcd_value", EXAMPLE["factor"], gcd_value),
        field("factor", EXAMPLE["factor"], outcome.factor),
    ]


def cmd_replicate(args) -> int:
    started = time.perf_counter()
    fields = _replicate_fields()
    elapsed = time.perf_counter() - started
    all_ok = all(f["ok"] for f in fields)
    if args.as_json:
        manifest = _manifest(args, {})
        manifest["elapsed_s"] = elapsed
        _print_json({"manifest": manifest, "pass": all_ok, "fields": fields})
    else:
        for f in fields:
            mark = "ok  " if f["ok"] else "FAIL"
            print(f"{mark} {f['field']}: expected {f['expected']!r}, got {f['actual']!r}")
        print(f"{'PASS' if all_ok else 'FAIL'} ({len(fields)} fields, {elapsed:.2f}s)")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    """Run one command.  An input the library rejects, wherever it is
    rejected, becomes one ``shorlab <command>: ...`` line and exit 2, and
    so does stdout closed early or full.  --out is the only file a
    command opens, and ``_csv_sink`` reports its errors, so any other
    OSError is a failed write to stdout."""
    args = build_parser().parse_args(argv)
    handlers = {
        "factor": cmd_factor,
        "distribution": cmd_distribution,
        "cf": cmd_cf,
        "montecarlo": cmd_montecarlo,
        "replicate": cmd_replicate,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except pipeline.PreconditionError as exc:
        message = f"precondition failed ({exc.check}): {exc}"
    except (ValueError, engine.CapacityError) as exc:
        message = str(exc)
    except OSError as exc:
        message = f"cannot write to stdout: {exc.strerror}"
    print(f"shorlab {args.command}: {message}", file=sys.stderr)
    return EXIT_PRECONDITION


def entry_point() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; send what is still buffered
        # to /dev/null, so the interpreter's flush at exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
