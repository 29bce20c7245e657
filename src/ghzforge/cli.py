"""Command-line front end.

Thin adapter over the library: every subcommand serializes the result of the
corresponding library call and nothing else.  Exit codes are a stable
contract: 0 success, 1 verification mismatch, 2 usage error, 3 backend or
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, elements, golden, protocol, states
from .errors import (
    GhzforgeError,
    InvalidAuxPair,
    InvalidCoefficients,
    InvalidParameters,
    OracleTooLarge,
)

SWEEP_CSV_HEADER = "d,n,backend,predicted_prob,simulated_prob,fidelity,match,status"

_USAGE_ERRORS = (InvalidParameters, InvalidCoefficients, InvalidAuxPair)


def _rational(x: float | None) -> str:
    """The nearest fraction with a denominator up to 10**9 when it lies within
    1e-12 of ``x`` relatively, else the float alone (so 3e-33 never prints 0)."""
    if x is None:
        return "n/a"
    frac = Fraction(x).limit_denominator(10**9)
    if abs(float(frac) - x) <= 1e-12 * abs(x):
        return str(frac)
    return f"{x:.12g}"


def _prob_line(x: float | None, exact: Fraction | None = None) -> str:
    """``x`` as a rational next to its float; ``exact`` is printed as given."""
    if x is None:
        return "n/a"
    return f"{_rational(x) if exact is None else exact} ({x:.12g})"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise InvalidParameters(f"range {raw!r} is not an integer or LO..HI") from None


def _parse_coeffs(raw: str | None) -> tuple[float, ...] | None:
    if raw is None:
        return None
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise InvalidCoefficients(f"--coeffs {raw!r} is not a list of numbers") from None


def _odd_mode(raw: str | None) -> str | None:
    if raw is None:
        return None
    return {"single": protocol.SINGLE_OUTCOME, "fourier": protocol.FULL_FOURIER}[raw]


# --- subcommands ------------------------------------------------------------


def cmd_plan(args: argparse.Namespace) -> int:
    summary = analysis.resource_summary(args.d, args.n)
    if args.format == "json":
        payload = {
            "d": summary.d,
            "n": summary.n,
            "epr_count": summary.epr_count,
            "aux_count": summary.aux_count,
            "eta1": summary.eta1,
            "eta2": list(summary.eta2_values),
            "predicted_prob_ff": summary.predicted_prob_ff,
            "predicted_prob_filtered": summary.predicted_prob_filtered,
        }
        if args.full:
            opts = protocol.ProtocolOptions(d=args.d, n=args.n, feedforward=args.feedforward)
            payload["plan"] = protocol.compile_plan(opts).to_jsonable()
        _emit(_json_text(payload), args.out)
    elif args.format == "csv":
        _emit(
            analysis.RESOURCE_CSV_HEADER + "\r\n"
            + analysis.resource_csv_row(summary) + "\r\n",
            args.out,
        )
    else:
        lines = [
            f"preparation plan for d={summary.d}, n={summary.n}",
            f"  pair sources:          {summary.epr_count}",
            f"  auxiliary pairs:       {summary.aux_count}",
            f"  parity-filter rate:    {_prob_line(summary.eta1)}",
        ]
        for k, value in enumerate(summary.eta2_values, start=1):
            lines.append(f"  helper stage {k} rate:   {_prob_line(value)}")
        lines.append(f"  predicted (corrected): {_prob_line(summary.predicted_prob_ff)}")
        lines.append(f"  predicted (filtered):  {_prob_line(summary.predicted_prob_filtered)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _report_pretty(report: protocol.RunReport) -> str:
    lines = [
        f"run d={report.d} n={report.n} backend={report.backend} "
        f"feedforward={'on' if report.feedforward else 'off'}",
        "  stage probabilities:",
    ]
    for label, p in zip(report.stage_labels, report.trace):
        lines.append(f"    {label:24s} {_prob_line(p)}")
    lines.extend(
        [
            f"  probability (chosen accounting):  {_prob_line(report.prob)}",
            f"  probability (filtered outcomes):  {_prob_line(report.prob_filtered)}",
            f"  probability (with feedforward):   {_prob_line(report.prob_feedforward)}",
            f"  predicted probability:            "
            f"{_prob_line(report.predicted_prob, report.predicted)}",
            f"  fidelity vs target:               {report.fidelity:.12f}",
        ]
    )
    lines.append("  final state terms:")
    for term, amp in report.final_state.sorted_items():
        labels = " ".join(f"{p}{pol}" for (p, pol), c in term for _ in range(c))
        lines.append(f"    ({amp.real:+.6f}{amp.imag:+.6f}j) |{labels}>")
    return "\n".join(lines) + "\n"


def _emit_report(report: protocol.RunReport, args: argparse.Namespace) -> None:
    if args.format == "json":
        _emit(_json_text(report.to_jsonable()), args.out)
    elif args.format == "pretty":
        _emit(_report_pretty(report), args.out)
    else:
        raise InvalidParameters("run reports support --format json or pretty")


def _gate(report: protocol.RunReport) -> int:
    """Exit 1 unless the fidelity reaches 1 and any prediction is matched."""
    ok = report.fidelity >= 1.0 - 1e-6 and report.prob_matches is not False
    return 0 if ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    if args.circuit:
        try:
            data = json.loads(Path(args.circuit).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InvalidParameters(f"circuit file is not valid JSON: {exc}") from None
        circuit = elements.circuit_from_jsonable(data)
        circuit.validate()
        final, trace = elements.run_circuit(states.vacuum(), circuit)
        prob = 1.0
        for p in trace:
            prob *= p
        payload = {
            "circuit": args.circuit,
            "trace": trace,
            "probability": prob,
            "final_state": states.state_to_jsonable(final),
        }
        if args.format == "json":
            _emit(_json_text(payload), args.out)
        else:
            lines = [f"circuit run: {args.circuit}", f"  trace: {trace}",
                     f"  probability: {_prob_line(prob)}",
                     f"  final state: {len(final.terms)} terms"]
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    report = protocol.run(
        args.d,
        args.n,
        feedforward=args.feedforward,
        backend=args.backend,
        odd_n_mode=_odd_mode(args.odd_mode),
        input_coeffs=_parse_coeffs(args.coeffs),
    )
    _emit_report(report, args)
    return _gate(report)


def _sweep_cell(d: int, n: int, backend: str, feedforward: bool) -> dict:
    try:
        report = protocol.run(d, n, feedforward=feedforward, backend=backend)
    except OracleTooLarge:
        return {
            "d": d, "n": n, "backend": backend, "predicted_prob": None,
            "simulated_prob": None, "fidelity": None, "match": None,
            "status": "skipped",
        }
    match = bool(report.prob_matches) and report.fidelity >= 1.0 - 1e-9
    return {
        "d": d, "n": n, "backend": backend,
        "predicted_prob": report.predicted_prob,
        "simulated_prob": report.prob,
        "fidelity": report.fidelity,
        "match": match,
        "status": "ok",
    }


def _sweep_csv(rows: list[dict]) -> str:
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                cell(row[key])
                for key in (
                    "d", "n", "backend", "predicted_prob",
                    "simulated_prob", "fidelity", "match", "status",
                )
            )
        )
    return "\r\n".join(lines) + "\r\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    d_lo, d_hi = _parse_range(args.d)
    n_lo, n_hi = _parse_range(args.n)
    rows = [
        _sweep_cell(d, n, args.backend, args.feedforward)
        for d in range(d_lo, d_hi + 1)
        for n in range(n_lo, n_hi + 1)
    ]
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    elif args.format == "pretty":
        lines = ["d  n  predicted      simulated      fidelity      status"]
        for r in rows:
            if r["status"] == "skipped":
                lines.append(f"{r['d']}  {r['n']}  skipped")
            else:
                lines.append(
                    f"{r['d']}  {r['n']}  {r['predicted_prob']:.6e}  "
                    f"{r['simulated_prob']:.6e}  {r['fidelity']:.9f}  "
                    f"{'match' if r['match'] else 'MISMATCH'}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_sweep_csv(rows), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks = golden.run_checks()
    failed = [c for c in checks if not c.passed]
    if args.format == "json" or args.json:
        payload = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
        _emit(_json_text(payload), args.out)
    else:
        lines = []
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"{mark}  {c.name}{suffix}")
        lines.append(
            f"{len(checks) - len(failed)}/{len(checks)} checks passed"
        )
        if failed:
            lines.append("failed anchors: " + "; ".join(c.name for c in failed))
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def cmd_reduce_odd(args: argparse.Namespace) -> int:
    if args.n % 2 != 0:
        raise InvalidParameters("reduce-odd expects the even photon count of the input state")
    even = protocol.run(
        args.d, args.n, feedforward=True, backend=args.backend,
        input_coeffs=_parse_coeffs(args.coeffs),
    )
    mode = _odd_mode(args.odd_mode) or protocol.FULL_FOURIER
    report = protocol.reduce_to_odd(
        even.final_state, args.d, mode,
        port_groups=[[p * args.d + i for i in range(args.d)] for p in range(args.n)],
    )
    _emit_report(report, args)
    return _gate(report)


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzforge",
        description="Simulate post-selected preparation of n-photon d-level GHZ states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this path")

    p_plan = sub.add_parser("plan", help="resource counts and predicted probabilities")
    p_plan.add_argument("--d", type=int, required=True)
    p_plan.add_argument("--n", type=int, required=True)
    p_plan.add_argument("--feedforward", action="store_true")
    p_plan.add_argument("--full", action="store_true", help="include the compiled stage list (json)")
    add_common(p_plan, ("pretty", "json", "csv"))
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="execute the protocol and report the outcome")
    p_run.add_argument("--d", type=int, default=None)
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--feedforward", action="store_true")
    p_run.add_argument("--odd-mode", choices=("single", "fourier"), default=None)
    p_run.add_argument("--backend", choices=("rule", "element", "oracle"), default="rule")
    p_run.add_argument("--coeffs", default=None, help="comma-separated source coefficients")
    p_run.add_argument("--circuit", default=None, help="run a circuit JSON file instead")
    add_common(p_run, ("json", "pretty"))
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of (d, n) cells, plot-ready")
    p_sweep.add_argument("--d", required=True, help="value or range such as 2..4")
    p_sweep.add_argument("--n", required=True, help="value or range such as 4..6")
    p_sweep.add_argument("--feedforward", action="store_true")
    p_sweep.add_argument("--backend", choices=("rule", "element", "oracle"), default="rule")
    add_common(p_sweep, ("csv", "json", "pretty"))
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the pinned regression checklist")
    p_verify.add_argument("--json", action="store_true", help="alias for --format json")
    add_common(p_verify, ("pretty", "json"))
    p_verify.set_defaults(func=cmd_verify)

    p_reduce = sub.add_parser(
        "reduce-odd", help="drop one photon from a simulated even-photon state"
    )
    p_reduce.add_argument("--d", type=int, required=True)
    p_reduce.add_argument("--n", type=int, required=True, help="even photon count of the input")
    p_reduce.add_argument("--odd-mode", choices=("single", "fourier"), default=None)
    p_reduce.add_argument("--backend", choices=("rule", "element"), default="rule")
    p_reduce.add_argument("--coeffs", default=None)
    add_common(p_reduce, ("json", "pretty"))
    p_reduce.set_defaults(func=cmd_reduce_odd)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "run" and not args.circuit:
            if args.d is None or args.n is None:
                parser.error("run requires --d and --n (or --circuit)")
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (GhzforgeError, OracleTooLarge) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
