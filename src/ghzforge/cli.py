"""Command-line front end.

Thin adapter over the library: every subcommand serializes the result of the
corresponding library call and nothing else.  Exit codes are a stable
contract: 0 success, 1 verification mismatch, 2 usage error, 3 backend or
runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import analysis, elements, golden, protocol, states
from .errors import GhzforgeError, InvalidCoefficients, InvalidParameters, OracleTooLarge

SWEEP_COLUMNS = (
    "d", "n", "backend", "predicted_prob", "simulated_prob", "fidelity", "match", "status",
)


def _rational(x: float | None) -> str:
    """The nearest fraction with a denominator up to 10**9 when it lies within
    1e-12 of ``x`` relatively, else the float alone (so 3e-33 never prints 0)."""
    if x is None:
        return "n/a"
    frac = Fraction(x).limit_denominator(10**9)
    if abs(float(frac) - x) <= 1e-12 * abs(x):
        return str(frac)
    return f"{x:.12g}"


def _exact_text(exact: Fraction) -> str:
    """``exact`` as ``num/den`` (``num`` alone for an integer), printed in full
    through ``Decimal``, which unlike ``str(int)`` has no cap on the digits."""
    num, den = (str(Decimal(v)) for v in (exact.numerator, exact.denominator))
    return num if den == "1" else f"{num}/{den}"


def _prob_line(x: float | None, exact: Fraction | None = None) -> str:
    """``x`` as a rational next to its float; ``exact``, when given, is printed
    in full instead of the rational."""
    if x is None:
        return "n/a"
    if exact is None:
        return f"{_rational(x)} ({x:.12g})"
    return f"{_exact_text(exact)} ({x:.12g})"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:  # no such directory, a directory, no permission
            raise InvalidParameters(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    """A header of ``columns`` and one line per row, each ended by ``\\r\\n``:
    None is written empty, a bool as ``true``/``false``, anything else as its
    ``str`` (for a float the same as its ``repr``)."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    lines = [",".join(columns)]
    lines.extend(",".join(cell(row[key]) for key in columns) for row in rows)
    return "\r\n".join(lines) + "\r\n"


def _parse_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition("..")
    try:
        bounds = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InvalidParameters(f"range {raw!r} is not an integer or LO..HI") from None
    if bounds[0] > bounds[1]:
        raise InvalidParameters(f"range {raw!r} has LO greater than HI")
    return bounds


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
    d, n = args.d, args.n
    # computed first: they check d and n before anything else is built
    exact_ff, exact_filtered = (
        analysis.predicted_prob_for_options(d, n, ff) for ff in (True, False)
    )
    eta1 = analysis.eta1_exact(d)
    # only JSON lists the helper rates; pretty prints each exact rate on its
    # own line, and CSV has no column for them
    rates = [float(r) for r in analysis.eta2_exact(d)] if args.format == "json" else None
    record = {
        "d": d,
        "n": n,
        "epr_count": -(n // -2),
        "aux_count": analysis.aux_count(d, n),
        "eta1": float(eta1),
        "eta2": rates,
        "predicted_prob_ff": float(exact_ff),
        "predicted_prob_filtered": float(exact_filtered),
        "predicted_prob_ff_exact": _exact_text(exact_ff),
        "predicted_prob_filtered_exact": _exact_text(exact_filtered),
    }
    if args.format == "json":
        if args.full:
            opts = protocol.ProtocolOptions(d=d, n=n, feedforward=args.feedforward)
            record["plan"] = protocol.compile_plan(opts).to_jsonable()
        _emit(_json_text(record), args.out)
    elif args.format == "csv":
        _emit(_csv(tuple(key for key in record if key != "eta2"), [record]), args.out)
    else:
        lines = [
            f"preparation plan for d={d}, n={n}",
            f"  pair sources:          {record['epr_count']}",
            f"  auxiliary pairs:       {record['aux_count']}",
            f"  parity-filter rate:    {_prob_line(record['eta1'], eta1)}",
        ]
        for k, rate in enumerate(analysis.eta2_exact(d), 1):
            lines.append(f"  helper stage {k} rate:   {_prob_line(float(rate), rate)}")
        for label, exact in (("corrected", exact_ff), ("filtered", exact_filtered)):
            lines.append(f"  {f'predicted ({label}):':23}{_prob_line(float(exact), exact)}")
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
    else:
        _emit(_report_pretty(report), args.out)


def _gate(report: protocol.RunReport) -> int:
    """Exit 1 unless the report matches (``RunReport.matches``)."""
    return 0 if report.matches else 1


def cmd_run(args: argparse.Namespace) -> int:
    if args.circuit:
        try:
            data = json.loads(Path(args.circuit).read_text(encoding="utf-8"))
        except OSError as exc:  # no such file, a directory, no permission
            raise InvalidParameters(f"cannot read circuit file: {exc}") from None
        # RecursionError: arrays or objects nested deeper than the decoder's stack
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise InvalidParameters(f"circuit file is not valid JSON: {exc}") from None
        steps = elements.circuit_from_jsonable(data)
        final, trace = elements.run_circuit(states.vacuum(), steps)
        prob = math.prod(trace, start=1.0)
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
                     f"  final state: {len(final.kets)} terms"]
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
        values = (None, None, None, None, "skipped")
    else:
        values = (report.predicted_prob, report.prob, report.fidelity, report.matches, "ok")
    return dict(zip(SWEEP_COLUMNS, (d, n, backend) + values))


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
        _emit(_csv(SWEEP_COLUMNS, rows), args.out)
    return 1 if any(r["match"] is False for r in rows) else 0


def cmd_verify(args: argparse.Namespace) -> int:
    checks = golden.run_checks()
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
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
    if args.n % 2 or args.n < 4:
        raise InvalidParameters(f"reduce-odd needs an even n >= 4, got n={args.n}")
    even = protocol.run(
        args.d, args.n, feedforward=True, backend=args.backend,
        input_coeffs=_parse_coeffs(args.coeffs),
    )
    mode = _odd_mode(args.odd_mode) or protocol.FULL_FOURIER
    report = protocol.reduce_to_odd(
        even.final_state, args.d, mode,
        port_groups=analysis.default_port_groups(args.d, args.n),
    )
    _emit_report(report, args)
    return _gate(report)


# --- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first call and returned by every
    later one, so it is not to be changed by a caller."""
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

    p_run = sub.add_parser("run", help="execute the protocol and report the outcome")
    p_run.add_argument("--d", type=int, default=None)
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--feedforward", action="store_true")
    p_run.add_argument("--odd-mode", choices=("single", "fourier"), default=None)
    p_run.add_argument("--backend", choices=("rule", "element", "oracle"), default="rule")
    p_run.add_argument("--coeffs", default=None, help="comma-separated source coefficients")
    p_run.add_argument("--circuit", default=None, help="run a circuit JSON file instead")
    add_common(p_run, ("json", "pretty"))

    p_sweep = sub.add_parser("sweep", help="grid of (d, n) cells, plot-ready")
    p_sweep.add_argument("--d", required=True, help="value or range such as 2..4")
    p_sweep.add_argument("--n", required=True, help="value or range such as 4..6")
    p_sweep.add_argument("--feedforward", action="store_true")
    p_sweep.add_argument("--backend", choices=("rule", "element", "oracle"), default="rule")
    add_common(p_sweep, ("csv", "json", "pretty"))

    p_verify = sub.add_parser("verify", help="run the pinned regression checklist")
    add_common(p_verify, ("pretty", "json"))

    p_reduce = sub.add_parser(
        "reduce-odd", help="drop one photon from a simulated even-photon state"
    )
    p_reduce.add_argument("--d", type=int, required=True)
    p_reduce.add_argument("--n", type=int, required=True, help="even photon count of the input")
    p_reduce.add_argument("--odd-mode", choices=("single", "fourier"), default=None)
    p_reduce.add_argument("--backend", choices=("rule", "element"), default="rule")
    p_reduce.add_argument("--coeffs", default=None)
    add_common(p_reduce, ("json", "pretty"))

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
        # looked up now rather than bound into the parser, which outlives
        # this call: a ``cmd_*`` replaced since then is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except (GhzforgeError, OSError, ValueError, KeyError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
