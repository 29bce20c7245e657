import argparse
import json
import os
import runpy
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import ghzforge as gf
from ghzforge import analysis, cli, elements, golden, protocol, states
from ghzforge.cli import main


_ONE_PHOTON = '[{"elem": "inject", "state": [{"modes": [[0, "H", 1]], "re": 1, "im": 0}]}'


DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_close(got, want, rel=1e-12, where="$"):
    """Equal structure and equal non-float values; floats within ``rel``
    relative (a stored 0.0 must come back as 0.0)."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= rel * abs(want), (where, got, want)
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], rel, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, rel, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


class TestPlan:
    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--d", "3", "--n", "4")
        assert code == 0
        assert "pair sources:          2" in out
        assert "auxiliary pairs:       1" in out
        assert "1/6" in out and "1/12" in out and "5/9" in out

    def test_qubit_eight_photon(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--d", "2", "--n", "8", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["epr_count"] == 4
        assert data["aux_count"] == 0
        assert data["predicted_prob_ff"] == pytest.approx(1 / 8)

    def test_invalid_dimension_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--d", "1", "--n", "4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "d,n,corrected,filtered",
        [(6, 8, "1/56623104", "1/14843406974976"), (3, 4, "1/6", "1/12")],
    )
    def test_predicted_lines_show_the_exact_rational(self, capsys, d, n, corrected, filtered):
        code, out, _ = run_cli(capsys, "plan", "--d", str(d), "--n", str(n))
        assert code == 0
        assert f"  predicted (corrected): {corrected} (" in out
        assert f"  predicted (filtered):  {filtered} (" in out

    def test_underflowing_prediction_prints_all_its_digits(self, capsys):
        # both floats are 0 and the filtered denominator has more digits than
        # str(int) allows by default
        code, out, _ = run_cli(capsys, "plan", "--d", "200", "--n", "4")
        assert code == 0
        for label, ff in (("corrected): ", True), ("filtered):  ", False)):
            exact = analysis.predicted_prob_for_options(200, 4, ff)
            line = next(l for l in out.splitlines() if l.startswith(f"  predicted ({label}"))
            value = line.split(": ", 1)[1].lstrip()
            assert not value.startswith("0 ")
            assert value == f"1/{Decimal(exact.denominator)} (0)"

    def test_pretty_renders_each_exact_prediction_once(self, capsys, monkeypatch):
        exact_text, rendered = cli._exact_text, []

        def counted(exact):
            rendered.append(exact)
            return exact_text(exact)

        monkeypatch.setattr(cli, "_exact_text", counted)
        code, _, _ = run_cli(capsys, "plan", "--d", "200", "--n", "4")
        assert code == 0
        for ff in (True, False):
            assert rendered.count(analysis.predicted_prob_for_options(200, 4, ff)) == 1

    @pytest.mark.parametrize("d,n", [(6, 8), (200, 4)])
    def test_json_carries_the_exact_predictions(self, capsys, d, n):
        # at (200, 4) both floats underflow to 0.0 and the filtered
        # denominator has more digits than str(int) allows by default
        code, out, _ = run_cli(capsys, "plan", "--d", str(d), "--n", str(n),
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        for key, ff in (("predicted_prob_ff", True), ("predicted_prob_filtered", False)):
            exact = analysis.predicted_prob_for_options(d, n, ff)
            text = data[f"{key}_exact"]
            assert text == f"{Decimal(exact.numerator)}/{Decimal(exact.denominator)}"
            num, den = (Fraction(Decimal(part)) for part in text.split("/"))
            assert num / den == exact
            assert data[key] == float(exact)
        if (d, n) == (6, 8):
            assert data["predicted_prob_ff_exact"] == "1/56623104"
            assert data["predicted_prob_filtered_exact"] == "1/14843406974976"
        else:
            assert data["predicted_prob_ff"] == data["predicted_prob_filtered"] == 0.0

    def test_full_json_carries_the_compiled_plan(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--d", "3", "--n", "5", "--feedforward",
                               "--full", "--format", "json")
        assert code == 0
        opts = gf.ProtocolOptions(d=3, n=5, feedforward=True)
        assert json.loads(out)["plan"] == gf.compile_plan(opts).to_jsonable()

    @pytest.mark.parametrize("fmt", ["csv", "pretty", None])
    def test_full_without_json_is_a_usage_error(self, capsys, fmt):
        argv = ["plan", "--d", "3", "--n", "4", "--full"] + (["--format", fmt] if fmt else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: plan --full needs --format json, got --format {fmt or 'pretty'}\n"

    def test_csv_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--d", "3", "--n", "4", "--format", "csv")
        assert code == 0
        assert out == (
            "d,n,epr_count,aux_count,eta1,predicted_prob_ff,predicted_prob_filtered,"
            "predicted_prob_ff_exact,predicted_prob_filtered_exact\r\n"
            "3,4,2,1,0.5555555555555556,0.16666666666666666,0.08333333333333333,1/6,1/12\r\n"
        )

    def test_csv_matches_library_serialization(self, capsys):
        # the CSV row is the JSON record without its eta2 list, column for
        # column, and each value is the library's exact formula
        for d, n in ((2, 4), (3, 4), (5, 7), (6, 8), (16, 4)):
            code, out, _ = run_cli(capsys, "plan", "--d", str(d), "--n", str(n), "--format", "csv")
            assert code == 0
            header, row, tail = out.split("\r\n")
            assert tail == ""
            code, out, _ = run_cli(capsys, "plan", "--d", str(d), "--n", str(n), "--format", "json")
            assert code == 0
            record = json.loads(out)
            del record["eta2"]
            assert header.split(",") == list(record)
            fields = dict(zip(header.split(","), row.split(",")))
            exact_ff = analysis.predicted_prob_for_options(d, n, True)
            exact_filtered = analysis.predicted_prob_for_options(d, n, False)
            assert fields == {
                "d": str(d),
                "n": str(n),
                "epr_count": str(-(n // -2)),
                "aux_count": str(analysis.aux_count(d, n)),
                "eta1": repr(float(analysis.eta1_exact(d))),
                "predicted_prob_ff": repr(float(exact_ff)),
                "predicted_prob_filtered": repr(float(exact_filtered)),
                "predicted_prob_ff_exact": cli._exact_text(exact_ff),
                "predicted_prob_filtered_exact": cli._exact_text(exact_filtered),
            }, (d, n)
            assert {key: str(value) for key, value in record.items()} == fields

    def test_rate_lines_print_the_exact_fractions(self, capsys):
        # the d = 5 rates README quotes
        code, out, _ = run_cli(capsys, "plan", "--d", "5", "--n", "4")
        assert code == 0
        assert out.splitlines()[3:8] == [
            "  parity-filter rate:    13/25 (0.52)",
            "  helper stage 1 rate:   11/26 (0.423076923077)",
            "  helper stage 2 rate:   9/22 (0.409090909091)",
            "  helper stage 3 rate:   7/18 (0.388888888889)",
            "  helper stage 4 rate:   5/14 (0.357142857143)",
        ]

    @pytest.mark.parametrize("d,n", [(6, 8), (200, 4)])
    def test_csv_carries_the_exact_predictions(self, capsys, d, n):
        # at (200, 4) the float columns read 0.0 and only the exact ones
        # carry the predictions
        code, out, _ = run_cli(capsys, "plan", "--d", str(d), "--n", str(n),
                               "--format", "csv")
        assert code == 0
        header, row = out.split("\r\n")[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        assert len(fields) == len(row.split(",")) == 9
        for key, ff in (("predicted_prob_ff", True), ("predicted_prob_filtered", False)):
            exact = analysis.predicted_prob_for_options(d, n, ff)
            assert fields[f"{key}_exact"] == cli._exact_text(exact)
            num, den = (Fraction(Decimal(part)) for part in fields[f"{key}_exact"].split("/"))
            assert num / den == exact
            assert float(fields[key]) == float(exact)
        if (d, n) == (6, 8):
            assert fields["predicted_prob_ff_exact"] == "1/56623104"
            assert fields["predicted_prob_filtered_exact"] == "1/14843406974976"
        else:
            assert fields["predicted_prob_ff"] == fields["predicted_prob_filtered"] == "0.0"


class TestRun:
    def test_element_backend_filtered_probability(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "3", "--n", "4", "--backend", "element",
        )
        assert code == 0
        data = json.loads(out)
        assert data["prob"] == pytest.approx(1 / 12)
        assert data["fidelity"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "stored, argv",
        [
            ("element_run_5_8_ff.json",
             ["run", "--d", "5", "--n", "8", "--feedforward", "--backend", "element"]),
            ("element_run_4_7_fourier.json",
             ["run", "--d", "4", "--n", "7", "--feedforward", "--odd-mode", "fourier",
              "--backend", "element"]),
            ("rule_run_16_8_ff.json", ["run", "--d", "16", "--n", "8", "--feedforward"]),
            ("oracle_run_4_6.json", ["run", "--d", "4", "--n", "6", "--backend", "oracle"]),
            ("reduce_odd_3_4.json", ["reduce-odd", "--d", "3", "--n", "4"]),
            # rule runs through odd-path exchanges, zero coefficients and odd n
            ("rule_run_5_7_coeffs.json", ["run", "--d", "5", "--n", "7",
                                          "--coeffs", "0.6,0,0.48,0.64,0"]),
            ("rule_run_6_9_single.json", ["run", "--d", "6", "--n", "9", "--odd-mode", "single"]),
            ("rule_run_6_9_single.txt", ["run", "--d", "6", "--n", "9", "--odd-mode", "single"]),
            ("rule_run_4_5_coeffs_ff.json", ["run", "--d", "4", "--n", "5", "--feedforward",
                                             "--odd-mode", "fourier",
                                             "--coeffs", "0.5,0.5,0,0.7071068"]),
        ],
    )
    def test_element_run_matches_its_stored_output(self, capsys, stored, argv):
        # the final kets in the same order, every float within 1e-12 relative;
        # a stored pretty report (.txt) must come back byte for byte
        pretty = stored.endswith(".txt")
        code, out, _ = run_cli(capsys, *argv, "--format", "pretty" if pretty else "json")
        if pretty:
            assert code == 0 and out == (DATA / stored).read_text()
            return
        got, want = json.loads(out), json.loads((DATA / stored).read_text())
        # the exit code is the stored report's verdict; a --coeffs run has no
        # prediction and is checked against the uniform GHZ state, so it exits 1
        assert code == (0 if want["prob_matches"] is not False
                         and states.fidelity_matches(want["fidelity"]) else 1)
        assert [e["modes"] for e in got["final_state"]] == [e["modes"] for e in want["final_state"]]
        assert_json_close(got, want)

    def test_json_is_byte_identical_to_library_result(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--d", "2", "--n", "4", "--format", "json")
        assert code == 0
        report = gf.run(2, 4, feedforward=False, backend="rule")
        assert out == json.dumps(report.to_jsonable(), indent=2) + "\n"

    def test_feedforward_four_level_six_photon(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "4", "--n", "6", "--feedforward",
        )
        assert code == 0
        data = json.loads(out)
        assert data["prob"] == pytest.approx(1 / 256)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "--d", "2", "--n", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["prob"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--d", "5", "--n", "4"],
            ["plan", "--d", "5", "--n", "4", "--format", "json"],
            ["plan", "--d", "5", "--n", "4", "--format", "csv"],
            ["plan", "--d", "3", "--n", "5", "--full", "--format", "json"],
            ["run", "--d", "3", "--n", "5"],
            ["run", "--d", "3", "--n", "5", "--format", "pretty"],
            ["run", "--circuit", "CIRCUIT"],
            ["run", "--circuit", "CIRCUIT", "--format", "pretty"],
            ["sweep", "--d", "2..3", "--n", "3..4"],
            ["sweep", "--d", "2..3", "--n", "3..4", "--format", "json"],
            ["sweep", "--d", "2..3", "--n", "3..4", "--format", "pretty"],
            ["verify"],
            ["reduce-odd", "--d", "3", "--n", "4"],
            ["reduce-odd", "--d", "3", "--n", "4", "--format", "pretty"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_writes_the_bytes_stdout_would(self, capsys, tmp_path, argv):
        circuit = tmp_path / "chain.json"
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        circuit.write_text(json.dumps(plan.to_jsonable()["circuit"]), encoding="utf-8")
        argv = [str(circuit) if arg == "CIRCUIT" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out
        target = tmp_path / "out.txt"
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode("utf-8")

    def test_circuit_file_replay(self, capsys, tmp_path):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        path = tmp_path / "chain.json"
        path.write_text(
            json.dumps(elements.circuit_to_jsonable(plan.circuit_steps())),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "run", "--circuit", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["probability"] == pytest.approx(1 / 12)
        final = states.state_from_jsonable(data["final_state"])
        assert states.states_close(final, golden.chain_output_unnormalized(), tol=1e-9)
        code, out, _ = run_cli(capsys, "run", "--circuit", str(path), "--format", "pretty")
        assert code == 0
        assert out.splitlines() == [
            f"circuit run: {path}",
            f"  trace: {data['trace']}",
            f"  probability: 1/12 ({data['probability']:.12g})",
            f"  final state: {len(final.kets)} terms",
        ]

    @pytest.mark.parametrize(
        "text",
        [
            '{"elem": "pbs", "port_a": 1, "port_b": 2}',
            '[{"elem": "pbs", "port_a": 1}]',
            '[{"elem": "mirror", "port": 1}]',
            '[{"elem": "postselect", "groups": [[1], [2]]}]',
            '[{"elem": "hwp", "port": "x", "theta": 0.1}]',
            '[{"elem": "pbs", "port_a": 1, "port_b": 2}',
            '[{"elem": "pbs", "port_a": 1.7, "port_b": 2}]',
            '[{"elem": "pbs", "port_a": 1, "port_b": true}]',
            '[{"elem": "hwp", "port": -3, "theta": 0.1}]',
            '[{"elem": "postselect", "kind": "coincidence", "groups": [[1.5], [2]]}]',
            '[{"elem": "inject", "state": [{"modes": [[false, "H", 1]], "re": 1, "im": 0}]}]',
            _ONE_PHOTON + ', {"elem": "hwp", "port": 0, "theta": NaN}]',
            _ONE_PHOTON + ', {"elem": "hwp", "port": 0, "theta": "0.5"}]',
            '[{"elem": "inject", "state": [{"modes": [[0, "H", 1.7]], "re": 1, "im": 0}]}]',
            '[{"elem": "inject", "state": [{"modes": [[0, "H", 1], [1, "H", 1]], '
            '"re": 1, "im": 0}]}, {"elem": "postselect", "kind": "pas_pair", '
            '"port_x": 0, "port_y": 1, "mode": "bogus", "correction_port": 2}]',
            '[{"elem": "inject", "state": [{"modes": [[0, "H", 1]], "re": "0.5", "im": 0}]}]',
            '[{"elem": "inject", "state": [{"modes": [[0, "H", true]], "re": 1, "im": 0}]}]',
            '[{"elem": "inject", "state": [{"modes": [[0, 1, 1]], "re": 1, "im": 0}]}]',
            "[" * 100_000 + "]" * 100_000,
            _ONE_PHOTON + ', {"elem": "pbs", "port_a": 0, "port_b": 0}]',
            '[{"elem": "hwp", "port": 5, "theta": 0.1}, '
            '{"elem": "bd_merge", "port_even": 0, "port_odd": 1, "port_out": 5}]',
            '[1]',
            '[{"elem": "postselect", "kind": "coincidence", "groups": []}]',
            '[{"elem": "postselect", "kind": "coincidence", "groups": [[1], []]}]',
        ],
        ids=["object", "missing-key", "unknown-elem", "no-kind", "bad-port", "not-json",
             "float-port", "bool-port", "negative-port", "float-group-port", "bool-state-port",
             "nan-theta", "string-theta", "float-count", "bogus-mode", "string-re",
             "bool-count", "int-polarization", "deep-nesting", "repeated-port",
             "merge-onto-used-port", "step-not-object", "empty-pattern", "empty-group"],
    )
    def test_malformed_circuit_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--circuit", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err
        try:
            steps = json.loads(text)
        except (ValueError, RecursionError):
            steps = None
        if isinstance(steps, list):  # a list of steps: the error names the bad one
            assert err.startswith(f"error: circuit step {len(steps) - 1}: ")

    def test_circuit_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe[{"elem": "pbs"}]')
        code, out, err = run_cli(capsys, "run", "--circuit", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: circuit file is not valid JSON")

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["no-such-file", "directory"])
    def test_unreadable_circuit_path_exits_2(self, capsys, tmp_path, name):
        code, out, err = run_cli(capsys, "run", "--circuit", str(tmp_path / name))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read circuit file: ")

    @pytest.mark.parametrize(
        "command, name",
        [("plan", "no/such/dir.txt"), ("run", ".")],
        ids=["plan-missing-directory", "run-to-a-directory"],
    )
    def test_unwritable_out_path_exits_2(self, capsys, tmp_path, command, name):
        code, out, err = run_cli(
            capsys, command, "--d", "3", "--n", "4", "--out", str(tmp_path / name)
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output file: ")

    def test_run_requires_parameters(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 2

    def test_coefficient_run_exits_one_without_prediction(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "2", "--n", "4", "--coeffs", "0.6,0.8",
        )
        data = json.loads(out)
        assert data["predicted_prob"] is None
        # fidelity below the gate: the run is honest but not a verified match
        assert code == 1
        code, out, _ = run_cli(
            capsys, "run", "--d", "2", "--n", "4", "--coeffs", "0.6,0.8", "--format", "pretty",
        )
        assert code == 1
        assert "  predicted probability:            n/a" in out.splitlines()

    def test_coefficients_within_tolerance_run_on_every_backend(self, capsys):
        # the squares sum to 1 + 5e-10: inside the one coefficient tolerance,
        # ``COEFF_TOL`` (1e-6), and every backend accepts them
        probs = {}
        for backend in ("rule", "oracle", "element"):
            code, out, err = run_cli(
                capsys, "run", "--d", "2", "--n", "4",
                "--coeffs", "0.70710678,0.70710679", "--backend", backend,
            )
            assert (code, err) == (0, "")
            probs[backend] = json.loads(out)["prob"]
        assert probs["oracle"] == pytest.approx(probs["rule"], rel=1e-9)
        assert probs["element"] == pytest.approx(probs["rule"], rel=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--d", "3", "--n", "4", "--coeffs", "a,b,c"],
            ["run", "--d", "2", "--n", "4", "--coeffs", "x"],
            ["run", "--d", "2", "--n", "4", "--coeffs", "1,2"],
            ["sweep", "--d", "x..3", "--n", "4"],
            ["sweep", "--d", "2..", "--n", "4"],
        ],
        ids=["coeffs", "coeffs-word", "coeffs-norm", "range", "open-range"],
    )
    def test_malformed_numeric_flag_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_negative_coefficients_need_the_equals_form(self, capsys):
        # argparse reads a spaced value that starts with "-" as a flag
        reports = {}
        for backend in ("rule", "element"):
            code, out, err = run_cli(
                capsys, "run", "--d", "3", "--n", "4", "--coeffs=-0.6,0,0.8", "--backend", backend,
            )
            assert (code, err) == (1, "")  # non-uniform coefficients: no GHZ match
            reports[backend] = {k: v for k, v in json.loads(out).items() if k != "backend"}
        assert_json_close(reports["element"], reports["rule"], rel=1e-9)
        code, out, err = run_cli(capsys, "run", "--d", "3", "--n", "4", "--coeffs", "-0.6,0,0.8")
        assert (code, out) == (2, "")
        assert "argument --coeffs: expected one argument" in err

    def test_usage_errors_are_one_type(self):
        # cli.main reports InvalidParameters, and so every usage error, as exit 2
        assert issubclass(gf.errors.InvalidCoefficients, gf.errors.InvalidParameters)

    def test_halved_probability_fails_the_gate(self, capsys, monkeypatch):
        # at (6,8) the filtered probability is 2**-39 / 27, far below any
        # absolute tolerance; the relative comparison still sees the halving
        report = gf.run(6, 8, backend="rule")
        assert report.prob_matches is True and report.matches
        halved = protocol.RunReport(
            6, 8, "rule", False, report.predicted, protocol.SINGLE_OUTCOME,
            trace=report.trace, stage_labels=report.stage_labels,
            prob=report.prob / 2, prob_filtered=report.prob_filtered / 2,
            prob_feedforward=report.prob_feedforward,
        ).finish(report.final_state, analysis.ghz_reference(6, 8))
        assert halved.fidelity == pytest.approx(1.0, abs=1e-12)
        assert halved.prob_matches is False and not halved.matches
        monkeypatch.setattr(protocol, "run", lambda *args, **kwargs: halved)
        assert run_cli(capsys, "run", "--d", "6", "--n", "8")[0] == 1

    def test_fidelity_short_by_1e8_fails_every_verdict(self, capsys, monkeypatch):
        # a GHZ state with a stray ket at amplitude 1e-4 has fidelity
        # 1 - 1e-8: outside FIDELITY_TOL, so the run, its fidelity flag and
        # its sweep row all read as a mismatch
        report = gf.run(3, 4, backend="rule")
        stray = gf.ket((0, "H"), (3, "H"), (6, "H"), (10, "H"))
        perturbed = states.PhotonicState({**report.final_state.terms, stray: 1e-4 + 0j})
        near = protocol.RunReport(
            3, 4, "rule", False, report.predicted, protocol.SINGLE_OUTCOME,
            trace=report.trace, stage_labels=report.stage_labels, prob=report.prob,
            prob_filtered=report.prob_filtered, prob_feedforward=report.prob_feedforward,
        ).finish(perturbed, analysis.ghz_reference(3, 4))
        assert 1.0 - 2e-8 < near.fidelity < 1.0 - states.FIDELITY_TOL
        assert near.prob_matches is True
        assert near.fidelity_matches is False and near.matches is False
        monkeypatch.setattr(protocol, "run", lambda *args, **kwargs: near)
        assert cli._sweep_cell(3, 4, "rule", False)["match"] is False
        assert run_cli(capsys, "run", "--d", "3", "--n", "4")[0] == 1

    def test_tiny_probability_never_prints_as_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "8", "--n", "10", "--format", "pretty",
        )
        assert code == 0
        exact = analysis.predicted_prob_for_options(8, 10, False)
        assert exact == Fraction(1, 2**108)
        lines = {line.split(":")[0].strip(): line.split(":", 1)[1].strip()
                 for line in out.splitlines() if ":" in line}
        assert lines["predicted probability"] == f"{exact} ({float(exact):.12g})"
        assert lines["probability (chosen accounting)"].startswith("3.08148791102e-33 (")
        assert not any(" 0 (" in line for line in out.splitlines())

    def test_backend_capacity_error_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--d", "5", "--n", "4", "--backend", "oracle",
        )
        assert code == 3
        assert "backend error" in err


class TestSweep:
    def test_three_by_three_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "2..4", "--n", "4..6")
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "d,n,backend,predicted_prob,simulated_prob,fidelity,match,status"
        assert len(lines) == 10
        assert all(line.endswith("true,ok") for line in lines[1:])

    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "2", "--n", "4")
        lines = out.strip().split("\r\n")
        assert len(lines) == 2
        assert ",0.5," in lines[1]

    def test_empty_range_gives_header_only(self, capsys):
        # an inverted range is a usage error, not an empty grid: one error
        # line, exit 2 and no CSV at all
        code, out, err = run_cli(capsys, "sweep", "--d", "4..2", "--n", "4")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "4..2" in err

    def test_capacity_exceeded_rows_marked_skipped(self, capsys):
        # only the oracle has a size bound; rule and element cells always run
        code, out, _ = run_cli(capsys, "sweep", "--d", "9", "--n", "4")
        assert code == 0
        row = out.strip().split("\r\n")[1]
        assert row.startswith("9,4,rule,") and row.endswith(",true,ok")
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "5", "--n", "4", "--backend", "oracle"
        )
        assert code == 0
        assert out.strip().split("\r\n")[1] == "5,4,oracle,,,,,skipped"
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "4..5", "--n", "4", "--backend", "oracle", "--format", "pretty"
        )
        assert code == 0
        assert out.splitlines()[1].endswith("  match")
        assert out.splitlines()[2] == "5  4  skipped"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "2", "--n", "4..5", "--format", "json"
        )
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["match"] is True

    @pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
    def test_mismatched_row_exits_1(self, capsys, monkeypatch, fmt):
        # a doubled prediction at d = 3 only: that row reads false, the d = 2
        # row still matches, and the sweep as a whole exits 1
        exact = analysis.predicted_prob_for_options
        monkeypatch.setattr(
            analysis, "predicted_prob_for_options",
            lambda d, *rest: exact(d, *rest) * (2 if d == 3 else 1),
        )
        code, out, err = run_cli(capsys, "sweep", "--d", "2..3", "--n", "4", "--format", fmt)
        assert (code, err) == (1, "")
        if fmt == "json":
            assert [row["match"] for row in json.loads(out)] == [True, False]
        elif fmt == "csv":
            rows = out.strip().split("\r\n")[1:]
            assert rows[0].endswith(",true,ok") and rows[1].endswith(",false,ok")
        else:
            assert out.splitlines()[2].endswith("MISMATCH")


class TestVerify:
    def test_passes_on_healthy_build(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 20

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert all(entry["passed"] for entry in data)

    def test_flipped_pbs_convention_fails_survivor_anchor(self, capsys, monkeypatch):
        # mutate the routing convention: horizontal reflects instead
        def flipped(state, port_a, port_b):
            ha, hb = 2 * port_a, 2 * port_b  # the H mode ints, 2*port + (pol == V)
            mapping = {ha: hb, hb: ha}
            return elements._relabel(state, mapping, gf.errors.PortCollision, "pbs")

        monkeypatch.setattr(elements, "apply_pbs", flipped)
        try:
            checks = golden.qutrit_walkthrough_checks()
        except gf.errors.GhzforgeError:
            return  # the mutated convention may break the pipeline outright
        by_name = {c.name: c for c in checks}
        assert not by_name["qutrit chain: parity-filter survivors"].passed


_SUBCOMMAND_ARGV = {
    "plan": ["plan", "--d", "3", "--n", "4"],
    "run": ["run", "--d", "3", "--n", "4"],
    "sweep": ["sweep", "--d", "2", "--n", "4"],
    "verify": ["verify"],
    "reduce-odd": ["reduce-odd", "--d", "3", "--n", "4"],
}


class TestOneParser:
    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        assert main(["plan", "--d", "3", "--n", "4"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["plan", "--d", "3", "--n", "4"]) == 0
        assert main(["plan", "--d", "3"]) == 2  # a usage error, on the same parser
        assert main(["plan", "--d", "3", "--n", "4", "--format", "json"]) == 0
        assert built == []
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGV))
    def test_a_command_patched_after_a_call_is_the_one_run(self, capsys, monkeypatch, command):
        """The parser outlives a call, so ``main`` must look the subcommand up
        when it runs; one bound into the parser would miss the patch."""
        assert main(["plan", "--d", "2", "--n", "2"]) == 0
        seen = []
        monkeypatch.setattr(
            cli, "cmd_" + command.replace("-", "_"), lambda args: seen.append(args.command) or 42
        )
        assert main(_SUBCOMMAND_ARGV[command]) == 42
        assert seen == [command]
        capsys.readouterr()


class TestModuleEntryPoint:
    @staticmethod
    def _python_m(*argv):
        src = str(Path(gf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "ghzforge", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_verify_passes(self):
        proc = self._python_m("verify")
        assert proc.returncode == 0
        assert "27/27 checks passed" in proc.stdout.splitlines()

    def test_runs_in_process_as_the_script(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["ghzforge", "plan", "--d", "3", "--n", "4"])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("ghzforge", run_name="__main__")
        assert exit_.value.code == 0
        assert capsys.readouterr().out == run_cli(capsys, "plan", "--d", "3", "--n", "4")[1]

    def test_usage_error_exits_2_on_one_line(self):
        proc = self._python_m("run", "--d", "1", "--n", "4")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr


class TestReduceOdd:
    def test_single_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce-odd", "--d", "3", "--n", "4", "--odd-mode", "single",
        )
        assert code == 0
        data = json.loads(out)
        assert data["prob"] == pytest.approx(1 / 3)
        assert data["n"] == 3
        assert data["fidelity"] == pytest.approx(1.0)

    def test_fourier_mode_default(self, capsys):
        code, out, _ = run_cli(capsys, "reduce-odd", "--d", "2", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["prob"] == pytest.approx(1.0)

    def test_odd_input_rejected(self, capsys):
        code, _, err = run_cli(capsys, "reduce-odd", "--d", "2", "--n", "3")
        assert code == 2
        assert err == "error: reduce-odd needs an even n >= 4, got n=3\n"

    def test_two_photon_input_rejected(self, capsys):
        # dropping a photon from two would leave one: no GHZ state to check
        code, _, err = run_cli(capsys, "reduce-odd", "--d", "3", "--n", "2")
        assert code == 2
        assert err == "error: reduce-odd needs an even n >= 4, got n=2\n"


class TestEnvironment:
    def test_usage_error_from_argparse(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--d", "3")
        assert code == 2
