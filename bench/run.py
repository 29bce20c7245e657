"""ghzforge benchmark: three closed-loop workloads, checked outputs, traced layers.

    python3 bench/run.py --workload element_chain --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  One
process runs one op at a time and starts no threads of its own (``sweep``'s
thread pool belongs to the program).  The seed fixes the op order and, for
every protocol cell, a permutation of the auxiliary pairs at each junction.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is the
median over several fresh processes, spread through the run, of the time from
start to first op ready (imports, plans, parser, circuit file).  ``wall_s`` is
the mean time of a timed pass over the workload's ops; the median pass, its
quartiles and the fastest pass are printed beside it.  The mean is reported
because the host's speed switches between a fast and a slow state that each
last seconds to minutes; the median of a run then jumps between the two,
while the mean moves with the share of time spent in each.  ``ops_per_s``
counts ops completed and checked over the summed pass time, so every stall
inside a pass counts.  ``peak_rss_mb`` is this process's ``ru_maxrss``.
Failed or raising ops are counted in ``failed`` (their ratio to
``attempted`` is the fail ratio, printed above the result line).

With ``--trace 1`` untraced and traced passes alternate.  The per-layer
metrics are one traced set-up plus the median traced pass; ``trace_overhead``
is the mean traced pass time over the mean untraced one.

The last line of standard output is the JSON result.  Every op is checked
against the benchmark's own closed form and reference state, not against the
program's match flags or exit-code gate.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracer import Target, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

REL_TOL = Fraction(1, 10**9)   # probability vs exact closed form, relative
FID_TOL = 1e-9
SETUP_PROBES = 7
VERIFY_CHECKS = 27

E, R, C = "element_chain", "rule_wide", "cli_sweep"
WORKLOADS = (E, R, C)

# Element backend: the literal optics, where the d**ceil(n/2) source product
# flows through every PBS, HWP and beam displacer (elements + measurement).
ELEMENT_CELLS = [(4, 8, "filtered"), (5, 8, "ff"), (6, 6, "filtered"),
                 (3, 10, "ff"), (4, 7, "single"), (4, 7, "fourier")]
# Rule backend: 65k-118k path tuples through the kept-term predicates; no
# element or measurement calls, so element-level changes should not move it.
RULE_CELLS = [(16, 8, "ff"), (10, 10, "filtered"), (7, 11, "single")]
LIBRARY = {E: ("element", ELEMENT_CELLS), R: ("rule", RULE_CELLS)}
# The user's batch path through the CLI; sweeps as (d range, n range, backend, feedforward).
SWEEPS = [((2, 5), (4, 7), "element", False), ((2, 4), (2, 6), "oracle", True)]
PLAN_CELL = (6, 8)
CIRCUIT_CELL = (4, 4)  # replayed with feedforward on

# Layer boundaries traced from outside: (module, function, reported stats,
# workloads on which the coverage check asserts calls > 0).
LAYERS = [
    ("elements", "apply_pbs", ("calls", "self_s", "terms_in"), {E, C}),
    ("elements", "apply_hwp", ("calls", "self_s", "terms_in"), {E, C}),
    ("elements", "apply_bd_merge", ("calls", "self_s", "terms_in"), {E, C}),
    ("elements", "apply_bd_split", ("calls", "self_s", "terms_in"), {E, C}),
    ("elements", "apply_phase", ("calls", "self_s", "terms_in"), {E, C}),
    ("elements", "run_circuit", ("self_s",), {E, C}),
    ("elements", "circuit_to_jsonable", ("self_s",), {C}),
    ("elements", "circuit_from_jsonable", ("self_s",), {C}),
    ("states", "tensor", ("calls", "self_s", "terms_out"), {E, C}),
    ("states", "normalize", ("self_s",), {E, R, C}),
    ("states", "scaled", ("self_s",), {E, R, C}),
    ("states", "states_close", ("self_s",), {E, C}),
    ("states", "make_state", ("calls",), {E, R, C}),
    ("states", "state_to_jsonable", ("self_s",), {C}),
    ("measurement", "postselect_coincidence",
     ("calls", "self_s", "terms_in", "keep_ratio"), {E, C}),
    ("measurement", "project_polarization_pair", ("self_s", "terms_in"), {E, C}),
    ("measurement", "pas_pair_analysis", ("self_s",), {E, C}),
    ("measurement", "fourier_measure_path", ("self_s",), {E, C}),
    ("measurement", "feedforward", ("self_s",), {E, C}),
    ("protocol", "compile_plan", ("calls", "self_s"), {E, R, C}),
    ("protocol", "execute", ("calls", "self_s"), {E, R, C}),
    ("protocol", "reduce_to_odd", ("self_s",), {C}),
    ("analysis", "fidelity", ("self_s",), {E, R, C}),
    ("analysis", "ghz_reference", ("self_s",), {E, R, C}),
    ("analysis", "predicted_prob_for_options", ("calls", "self_s"), {E, R, C}),
    ("analysis", "oracle_run", ("calls", "self_s"), {C}),
    ("analysis", "eta_product_exact", ("self_s",), {C}),
] + [
    ("golden", f"{name}_checks", ("self_s",), {C})
    for name in ("qutrit_walkthrough", "qubit_chain", "identity", "rate",
                 "agreement", "reduction")
]
# Modules the rule backend must not touch at all.
NO_WORK = {R: ("elements", "measurement")}
CLI_SUBCOMMANDS = ("plan", "run", "sweep", "verify")
UNITS = {"calls": "count", "self_s": "s", "terms_in": "count",
         "terms_out": "count", "keep_ratio": "ratio"}

TARGETS = [
    Target(module, func, count_in="terms_in" in stats,
           count_out="pair" if "keep_ratio" in stats
           else "state" if "terms_out" in stats else "")
    for module, func, stats, _ in LAYERS
] + [
    Target("cli", "main", name=lambda args: f"cli.main.{args[0][0]}"),
    Target("cli", "cmd_sweep"),
]


# --- inputs and independent checks ------------------------------------------


def chain_counts(d: int, n: int) -> tuple[int, int]:
    """(pair sources, helper pairs): ceil(n/2) sources, ceil(d(d-2)/4) helpers per junction."""
    sources = -(-n // 2)
    return sources, -(-d * (d - 2) // 4) * (sources - 1)


def exact_prob(d: int, n: int, feedforward: bool) -> Fraction:
    """Closed-form success probability, written out independently of the package:
    1/(d**(m-1) * 2**N) for m sources and N helpers, a second 1/2**N when
    filtering, and 1/d more when filtering keeps the single odd-n outcome."""
    sources, helpers = chain_counts(d, n)
    p = Fraction(1, d ** (sources - 1) * 2**helpers)
    if not feedforward:
        p /= 2**helpers * (d if n % 2 else 1)
    return p


def output_photons(n: int) -> list[int]:
    """Odd n measures photon 0 out of the 2*ceil(n/2)-photon chain."""
    return list(range(n % 2, 2 * -(-n // 2)))


@dataclasses.dataclass(frozen=True)
class Cell:
    d: int
    n: int
    mode: str  # filtered | ff | single | fourier

    @property
    def feedforward(self) -> bool:
        return self.mode in ("ff", "fourier")

    @property
    def expected(self) -> Fraction:
        return exact_prob(self.d, self.n, self.feedforward)


def prob_error(what: str, got, exact: Fraction) -> str | None:
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return f"{what} {got!r} is not a finite number"
    if abs(Fraction(got) - exact) > exact * REL_TOL:
        return f"{what} {got!r} differs from {float(exact)!r} by more than 1e-9 relative"
    return None


def ghz_error(amps: dict, d: int, photons: list[int]) -> str | None:
    """The state must be the d-term GHZ ket, all photons horizontal."""
    if len(amps) != d:
        return f"final state has {len(amps)} terms, want {d}"
    overlap = 0j
    for i in range(d):
        key = tuple(((p * d + i, "H"), 1) for p in photons)
        if key not in amps:
            return f"final state misses the GHZ term on path {i}"
        overlap += amps[key]
    nsq = sum(abs(a) ** 2 for a in amps.values())
    fid = abs(overlap) ** 2 / (d * nsq) if nsq > 0 else 0.0
    if not fid >= 1.0 - FID_TOL:
        return f"final state fidelity {fid!r} below 1-1e-9"
    return None


def check_report(report, cell: Cell) -> str | None:
    return (
        prob_error("prob", report.prob, cell.expected)
        or (None if report.fidelity >= 1.0 - FID_TOL
            else f"fidelity {report.fidelity!r} below 1-1e-9")
        or ghz_error(report.final_state.terms, cell.d, output_photons(cell.n))
    )


def sweep_cells(sweep) -> list[Cell]:
    (d_lo, d_hi), (n_lo, n_hi), _, ff = sweep
    return [Cell(d, n, "ff" if ff else "filtered")
            for d in range(d_lo, d_hi + 1) for n in range(n_lo, n_hi + 1)]


def check_sweep(sweep, text: str) -> str | None:
    """Recompute each row's relative error from the CSV (sweep's own match
    flag uses an absolute 1e-9)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = {(c.d, c.n): c for c in sweep_cells(sweep)}
    got = sorted((int(r["d"]), int(r["n"])) for r in rows)
    if got != sorted(cells):
        return f"sweep rows {got} do not cover {sorted(cells)}"
    for r in rows:
        cell = cells[int(r["d"]), int(r["n"])]
        where = f"sweep row ({cell.d},{cell.n})"
        if r["status"] != "ok" or r["backend"] != sweep[2]:
            return f"{where} status {r['status']!r} backend {r['backend']!r}"
        err = (prob_error(f"{where} simulated_prob", float(r["simulated_prob"]), cell.expected)
               or prob_error(f"{where} predicted_prob", float(r["predicted_prob"]), cell.expected))
        if err:
            return err
        if not float(r["fidelity"]) >= 1.0 - FID_TOL:
            return f"{where} fidelity {r['fidelity']} below 1-1e-9"
    return None


def check_verify(text: str) -> str | None:
    lines = text.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    if passed != VERIFY_CHECKS or f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed" not in lines:
        return f"verify shows {passed} PASS lines, want {VERIFY_CHECKS}/{VERIFY_CHECKS}"
    return None


def check_plan(text: str) -> str | None:
    d, n = PLAN_CELL
    payload = json.loads(text)
    m, helpers = chain_counts(d, n)
    if payload["epr_count"] != m or payload["aux_count"] != helpers:
        return f"plan counts {payload['epr_count']}, {payload['aux_count']}; want {m}, {helpers}"
    steps = payload["plan"]["circuit"]
    pas = sum(s.get("kind") == "pas_pair" for s in steps)
    injects = sum(s["elem"] == "inject" for s in steps)
    if pas != helpers or injects != m + helpers:
        return f"plan circuit has {pas} pair analyses and {injects} injections"
    return (prob_error("plan predicted_prob_ff", payload["predicted_prob_ff"],
                       exact_prob(d, n, True))
            or prob_error("plan predicted_prob_filtered", payload["predicted_prob_filtered"],
                          exact_prob(d, n, False)))


def check_circuit_run(text: str) -> str | None:
    d, n = CIRCUIT_CELL
    payload = json.loads(text)
    amps = {
        tuple(((p, pol), c) for p, pol, c in entry["modes"]): complex(entry["re"], entry["im"])
        for entry in payload["final_state"]
    }
    return (prob_error("circuit probability", payload["probability"],
                       exact_prob(d, n, True))
            or ghz_error(amps, d, output_photons(n)))


# --- set-up --------------------------------------------------------------------


def load_modules() -> dict[str, object]:
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ghzforge  # noqa: F401
        from ghzforge import analysis, cli, elements, golden, measurement, protocol, states
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ghzforge from {SRC}: {exc}")
    if Path(ghzforge.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: ghzforge was imported from {ghzforge.__file__}, not {SRC}")
    return {"states": states, "elements": elements, "measurement": measurement,
            "protocol": protocol, "analysis": analysis, "golden": golden, "cli": cli}


Op = tuple[str, Callable[[], tuple[object, str | None, int]]]


def _odd_mode(mods, feedforward: bool) -> str:
    protocol = mods["protocol"]
    return protocol.FULL_FOURIER if feedforward else protocol.SINGLE_OUTCOME


def _plan(mods, cell: Cell, aux_order):
    protocol = mods["protocol"]
    opts = protocol.ProtocolOptions(d=cell.d, n=cell.n, feedforward=cell.feedforward,
                                    odd_n_mode=_odd_mode(mods, cell.feedforward))
    return protocol.compile_plan(opts, aux_order=aux_order)


def _aux_order(mods, rng: random.Random, d: int, n: int) -> list:
    pairs = mods["analysis"].aux_pairs(d)
    return [rng.sample(pairs, len(pairs)) for _ in range((n - 1) // 2)]


def _library_op(mods, cell: Cell, backend: str, plan) -> Op:
    protocol = mods["protocol"]

    def op():
        report = protocol.execute(plan, backend)
        fingerprint = (report.prob, report.prob_filtered, report.prob_feedforward,
                       report.fidelity, sorted(report.final_state.terms.items()))
        return fingerprint, check_report(report, cell), 0

    return f"{backend} d={cell.d} n={cell.n} {cell.mode}", op


def _cli_op(mods, argv: list[str], check: Callable[[str], str | None]) -> Op:
    cli = mods["cli"]

    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        data = text.encode("utf-8")
        if code != 0 or err.getvalue():
            problem = f"exit {code}, stderr {err.getvalue().strip()!r}"
        else:
            problem = check(text)
        return (code, hashlib.sha1(data).hexdigest()), problem, len(data)

    return "ghzforge " + " ".join(argv), op


def build(mods, workload: str, seed: int) -> list[Op]:
    """Everything an op needs before it runs: seeded plans, the CLI parser and
    the circuit file, in the seeded op order."""
    rng = random.Random(seed)
    if workload in LIBRARY:
        backend = LIBRARY[workload][0]
        ops = [_library_op(mods, c, backend, _plan(mods, c, _aux_order(mods, rng, c.d, c.n)))
               for c in workload_cells(workload)]
    else:
        mods["cli"].build_parser()
        d, n = CIRCUIT_CELL
        circuit = _plan(mods, Cell(d, n, "ff"), _aux_order(mods, rng, d, n)).to_jsonable()
        OUT.mkdir(exist_ok=True)
        path = OUT / "circuit.json"
        path.write_text(json.dumps(circuit["circuit"]), encoding="utf-8")
        ops = [_cli_op(mods, ["verify"], check_verify)]
        for sweep in SWEEPS:
            (d_lo, d_hi), (n_lo, n_hi), backend, ff = sweep
            argv = ["sweep", "--d", f"{d_lo}..{d_hi}", "--n", f"{n_lo}..{n_hi}",
                    "--backend", backend] + (["--feedforward"] if ff else [])
            ops.append(_cli_op(mods, argv, lambda text, s=sweep: check_sweep(s, text)))
        ops.append(_cli_op(mods, ["plan", "--d", str(PLAN_CELL[0]), "--n", str(PLAN_CELL[1]),
                                  "--full", "--format", "json"], check_plan))
        ops.append(_cli_op(mods, ["run", "--circuit", str(path)], check_circuit_run))
    rng.shuffle(ops)
    return ops


def workload_cells(workload: str) -> list[Cell]:
    if workload in LIBRARY:
        return [Cell(*spec) for spec in LIBRARY[workload][1]]
    return [c for sweep in SWEEPS for c in sweep_cells(sweep)]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first op ready, timed from outside."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited {child.returncode}")
    return seconds


# --- runs -----------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {problem}")


def run_pass(ops: list[Op], tally: Tally) -> tuple[float, list, int]:
    """One closed-loop pass: each op runs and is checked before the next starts."""
    prints, out_bytes = [], 0
    start = time.perf_counter()
    for label, op in ops:
        try:
            fingerprint, problem, nbytes = op()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            fingerprint, problem, nbytes = None, f"raised {type(exc).__name__}: {exc}", 0
        tally.record(label, problem)
        prints.append(fingerprint)
        out_bytes += nbytes
    return time.perf_counter() - start, prints, out_bytes


def self_test(mods, workload: str) -> list[str]:
    """The checker must reject a halved probability that the program's own
    absolute 1e-6 gate accepts, and its closed form must equal the package's."""
    problems = []
    cell = Cell(6, 8, "filtered")
    report = mods["protocol"].execute(_plan(mods, cell, None), "rule")
    tally = Tally()
    tally.record("(6,8)", check_report(report, cell))
    tally.record("(6,8) halved", check_report(dataclasses.replace(report, prob=report.prob / 2), cell))
    if (tally.attempted, tally.failed) != (2, 1) or not tally.errors[0].startswith("(6,8) halved"):
        problems.append(f"self-test: halved probability not counted as the only failure {tally.errors}")
    predicted = mods["analysis"].predicted_prob_for_options
    for c in workload_cells(workload) + [cell]:
        if predicted(c.d, c.n, c.feedforward, _odd_mode(mods, c.feedforward)) != c.expected:
            problems.append(f"self-test: package prediction at ({c.d},{c.n},{c.mode}) "
                            f"differs from the closed form {c.expected}")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(ops, seconds: float, tally: Tally, probe: Callable[[], float]) -> dict:
    """Timed passes for ``seconds`` of pass time, with the set-up probes spread
    evenly between them so that they sample the whole run."""
    walls, setups = [], []
    while not walls or sum(walls) < seconds:
        if len(setups) < SETUP_PROBES and sum(walls) >= seconds * len(setups) / SETUP_PROBES:
            setups.append(probe())
        walls.append(run_pass(ops, tally)[0])
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    q1, setup, q3 = quartiles(setups)
    print(f"setup_s {setup:.6f} s  (median of {len(setups)} fresh processes, "
          f"q1 {q1:.6f}, q3 {q3:.6f})")
    wall = statistics.mean(walls)
    q1, med, q3 = quartiles(walls)
    print(f"wall_s {wall:.6f} s  (mean of {len(walls)} passes; median {med:.6f}, "
          f"q1 {q1:.6f}, q3 {q3:.6f}, fastest {min(walls):.6f})")
    done = tally.attempted - tally.failed
    print(f"ops_per_s {done / sum(walls):.4f} ops/s  ({done} checked ops in {sum(walls):.3f} s)")
    return {"setup_s": (setup, "s"), "wall_s": (wall, "s"),
            "ops_per_s": (done / sum(walls), "ops/s")}


def measure_traced(mods, workload: str, seed: int, ops, seconds: float,
                   tally: Tally) -> tuple[dict, list[str]]:
    problems = []
    tracer = Tracer(mods, TARGETS)
    tracer.install()
    tracer.begin_pass()
    build(mods, workload, seed)
    tracer.uninstall()
    setup_stats = summarize(tracer.passes.pop())

    reference = run_pass(ops, tally)[1]
    plain, traced, out_bytes, mismatched = [], [], [], 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(ops, tally)[0])
        tracer.install()
        tracer.begin_pass()
        try:
            wall, prints, nbytes = run_pass(ops, tally)
        finally:
            tracer.uninstall()
        traced.append(wall)
        out_bytes.append(nbytes)
        mismatched += prints != reference
    if mismatched:
        problems.append(f"{mismatched} traced passes differ from the untraced outputs")
    tracer.dump(OUT / f"spans-{workload}.jsonl")

    pass_stats = [summarize(spans) for spans in tracer.passes]

    def value(span: str, key: str) -> float:
        base = setup_stats.get(span, {}).get(key, 0)
        return base + statistics.median(s.get(span, {}).get(key, 0) for s in pass_stats)

    metrics = {}
    for module, func, stats, expect in LAYERS:
        span = f"{module}.{func}"
        for stat in stats:
            if stat == "keep_ratio":
                terms_in = value(span, "terms_in")
                v = value(span, "terms_out") / terms_in if terms_in else 0.0
            else:
                v = value(span, stat)
            metrics[f"{span}.{stat}"] = (v, UNITS[stat])
        calls = value(span, "calls")
        if workload in expect and calls <= 0:
            problems.append(f"coverage: {span} saw no calls on {workload}")
        if module in NO_WORK.get(workload, ()) and calls != 0:
            problems.append(f"coverage: {span} saw {calls} calls on {workload}, want 0")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.main.{sub}.self_s"] = (value(f"cli.main.{sub}", "self_s"), "s")
    metrics["cli.sweep.self_s"] = (value("cli.cmd_sweep", "self_s"), "s")
    metrics["cli.out_bytes"] = (statistics.median(out_bytes), "bytes")
    if workload == C and not all(value(f"cli.main.{sub}", "calls") > 0 for sub in CLI_SUBCOMMANDS):
        problems.append("coverage: a cli subcommand saw no calls on cli_sweep")
    overhead = statistics.mean(traced) / statistics.mean(plain)
    metrics["trace_overhead"] = (overhead, "ratio")
    print(f"trace_overhead {overhead:.4f}  ({len(traced)} traced and {len(plain)} untraced passes)")
    print(f"spans written to {OUT / f'spans-{workload}.jsonl'}")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    mods = load_modules()
    ops = build(mods, args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  python {platform.python_version()}  nproc {os.cpu_count()}")
    problems = self_test(mods, args.workload)
    if not problems:
        print("self-test: a halved (6,8) probability is counted as a failure")
    warmup = Tally()
    run_pass(ops, warmup)  # untimed: lets caches fill before timing
    tally = Tally()
    if args.trace:
        metrics, trace_problems = measure_traced(
            mods, args.workload, args.seed, ops, args.seconds, tally)
        problems += trace_problems
    else:
        metrics = measure(ops, args.seconds, tally,
                          lambda: setup_probe(args.workload, args.seed))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss, "MiB")
        print(f"peak_rss_mb {rss:.3f} MiB")
    print(f"fail_ratio {tally.failed / tally.attempted:g}  "
          f"({tally.failed} of {tally.attempted} ops failed their check)")
    for line in problems + tally.errors + warmup.errors:
        print(f"problem: {line}")
    result = {
        "correct": not problems and tally.failed == 0 and warmup.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
