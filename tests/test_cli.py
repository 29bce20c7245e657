import json
from fractions import Fraction

import pytest

import ghzforge as gf
from ghzforge import analysis, cli, elements, golden, protocol, states
from ghzforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_csv_matches_library_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--d", "3", "--n", "4", "--format", "csv")
        assert code == 0
        expected = (
            analysis.RESOURCE_CSV_HEADER + "\r\n"
            + analysis.resource_csv_row(analysis.resource_summary(3, 4)) + "\r\n"
        )
        assert out == expected


class TestRun:
    def test_element_backend_filtered_probability(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "3", "--n", "4", "--backend", "element",
        )
        assert code == 0
        data = json.loads(out)
        assert data["prob"] == pytest.approx(1 / 12)
        assert data["fidelity"] == pytest.approx(1.0)

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

    @pytest.mark.parametrize(
        "text",
        [
            '{"elem": "pbs", "port_a": 1, "port_b": 2}',
            '[{"elem": "pbs", "port_a": 1}]',
            '[{"elem": "mirror", "port": 1}]',
            '[{"elem": "postselect", "groups": [[1], [2]]}]',
            '[{"elem": "hwp", "port": "x", "theta": 0.1}]',
            '[{"elem": "pbs", "port_a": 1, "port_b": 2}',
        ],
        ids=["object", "missing-key", "unknown-elem", "no-kind", "bad-port", "not-json"],
    )
    def test_malformed_circuit_file_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--circuit", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_run_requires_parameters(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 2

    def test_coefficient_run_exits_zero_without_prediction(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "2", "--n", "4", "--coeffs", "0.6,0.8",
        )
        data = json.loads(out)
        assert data["predicted_prob"] is None
        # fidelity below the gate: the run is honest but not a verified match
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--d", "3", "--n", "4", "--coeffs", "a,b,c"],
            ["sweep", "--d", "x..3", "--n", "4"],
            ["sweep", "--d", "2..", "--n", "4"],
        ],
        ids=["coeffs", "range", "open-range"],
    )
    def test_malformed_numeric_flag_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_halved_probability_fails_the_gate(self):
        # at (6,8) the filtered probability is 2**-39 / 27, far below any
        # absolute tolerance; the relative comparison still sees the halving
        report = gf.run(6, 8, backend="rule")
        assert report.prob_matches is True and cli._gate(report) == 0
        halved = protocol.RunReport.build(
            "rule", 6, 8, False, report.final_state,
            analysis.default_port_groups(6, 8),
            (report.prob / 2, report.prob_filtered / 2, report.prob_feedforward),
            report.predicted, report.trace, report.stage_labels,
        )
        assert halved.fidelity == pytest.approx(1.0, abs=1e-12)
        assert halved.prob_matches is False
        assert cli._gate(halved) == 1

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
        assert lines[0] == cli.SWEEP_CSV_HEADER
        assert len(lines) == 10
        assert all(line.endswith("true,ok") for line in lines[1:])

    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "2", "--n", "4")
        lines = out.strip().split("\r\n")
        assert len(lines) == 2
        assert ",0.5," in lines[1]

    def test_empty_range_gives_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--d", "4..2", "--n", "4")
        assert code == 0
        assert out == cli.SWEEP_CSV_HEADER + "\r\n"

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

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "2", "--n", "4..5", "--format", "json"
        )
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["match"] is True


class TestVerify:
    def test_passes_on_healthy_build(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 20

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        data = json.loads(out)
        assert all(entry["passed"] for entry in data)

    def test_flipped_pbs_convention_fails_survivor_anchor(self, capsys, monkeypatch):
        # mutate the routing convention: horizontal reflects instead
        def flipped(state, port_a, port_b):
            mapping = {
                (port_a, "H"): (port_b, "H"),
                (port_b, "H"): (port_a, "H"),
            }
            return elements._relabel(state, mapping, gf.errors.PortCollision, "pbs")

        monkeypatch.setattr(elements, "apply_pbs", flipped)
        try:
            checks = golden.qutrit_walkthrough_checks()
        except gf.errors.GhzforgeError:
            return  # the mutated convention may break the pipeline outright
        by_name = {c.name: c for c in checks}
        assert not by_name["qutrit chain: parity-filter survivors"].passed


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


class TestEnvironment:
    def test_eps_override_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("GHZFORGE_EPS", "1e-12")
        assert gf.eps() == 1e-12
        code, out, _ = run_cli(capsys, "run", "--d", "2", "--n", "4")
        assert code == 0
        assert json.loads(out)["prob"] == pytest.approx(0.5)

    @pytest.mark.parametrize("value", ["abc", "inf", "-1"])
    def test_invalid_eps_exits_2(self, capsys, monkeypatch, value):
        # non-numeric, non-finite and non-positive values are usage errors
        monkeypatch.setenv("GHZFORGE_EPS", value)
        with pytest.raises(gf.errors.InvalidParameters):
            gf.eps()
        code, out, err = run_cli(capsys, "run", "--d", "2", "--n", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "GHZFORGE_EPS" in err

    def test_usage_error_from_argparse(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--d", "3")
        assert code == 2
