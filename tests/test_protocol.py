import math
import random
from fractions import Fraction

import pytest

import ghzforge as gf
from ghzforge import analysis, golden, protocol, states
from ghzforge.errors import (
    InvalidAuxPair,
    InvalidCoefficients,
    InvalidParameters,
)


class TestBuilders:
    def test_qubit_source_uniform(self):
        s = gf.build_epr_source(2, None, [0, 1], [2, 3])
        assert s.amplitude(gf.ket((0, "H"), (2, "H"))) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude(gf.ket((1, "H"), (3, "H"))) == pytest.approx(1 / math.sqrt(2))

    def test_qutrit_source_uniform(self):
        s = gf.build_epr_source(3, None, [0, 1, 2], [3, 4, 5])
        assert len(s.terms) == 3
        for amp in s.terms.values():
            assert amp == pytest.approx(1 / math.sqrt(3))

    def test_degenerate_coefficients_give_product_state(self):
        s = gf.build_epr_source(3, (1.0, 0.0, 0.0), [0, 1, 2], [3, 4, 5])
        assert list(s.terms) == [gf.ket((0, "H"), (3, "H"))]

    def test_bad_coefficients(self):
        with pytest.raises(InvalidCoefficients):
            gf.build_epr_source(3, (0.9, 0.1, 0.1), [0, 1, 2], [3, 4, 5])
        with pytest.raises(InvalidCoefficients):
            gf.build_epr_source(3, (1.0, 0.0), [0, 1, 2], [3, 4, 5])

    def test_aux_source_matches_walkthrough(self):
        s = gf.build_aux_source(0, 2, {0: 12, 2: 13}, {0: 14, 2: 15})
        assert s.amplitude(gf.ket((12, "H"), (14, "H"))) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude(gf.ket((13, "V"), (15, "V"))) == pytest.approx(1 / math.sqrt(2))

    def test_aux_source_odd_parity_pair(self):
        s = gf.build_aux_source(1, 3, {1: 0, 3: 1}, {1: 2, 3: 3})
        assert len(s.terms) == 2
        assert s.norm_sq() == pytest.approx(1.0)

    def test_aux_source_parity_mismatch(self):
        with pytest.raises(InvalidAuxPair):
            gf.build_aux_source(0, 1, {0: 0, 1: 1}, {0: 2, 1: 3})

    def test_polarization_tag_rules(self):
        s = gf.build_epr_source(3, None, [0, 1, 2], [3, 4, 5])
        tagged = gf.polarization_tag(s, [3, 4, 5], protocol.parity_rule)
        assert tagged.amplitude(gf.ket((1, "H"), (4, "V"))) == pytest.approx(
            1 / math.sqrt(3)
        )
        stage = gf.polarization_tag(s, [3, 4, 5], lambda p: "V" if p == 2 else "H")
        assert stage.amplitude(gf.ket((2, "H"), (5, "V"))) == pytest.approx(
            1 / math.sqrt(3)
        )
        constant = gf.polarization_tag(tagged, [3, 4, 5], lambda p: "H")
        assert states.states_close(constant, s, tol=1e-12)


class TestCompile:
    def test_qubit_four_photon_plan(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=2, n=4))
        assert plan.epr_pair_count == 2
        assert plan.aux_pair_count == 0
        assert plan.junction_aux_pairs == [[]]
        kinds = [s.kind for s in plan.stages]
        assert kinds == ["sources", "tag", "pbs_filter", "tag"]

    def test_qutrit_four_photon_plan(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        assert plan.epr_pair_count == 2
        assert plan.aux_pair_count == 1
        assert plan.junction_aux_pairs == [[(0, 2)]]

    def test_five_level_six_photon_counts(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=5, n=6))
        assert plan.epr_pair_count == 3
        assert plan.aux_pair_count == 8
        for pairs in plan.junction_aux_pairs:
            assert sorted(pairs) == [(0, 2), (0, 4), (1, 3), (2, 4)]

    def test_pair_multiset_is_same_parity_set(self):
        for d in range(2, 7):
            plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=6))
            for pairs in plan.junction_aux_pairs:
                assert sorted(pairs) == sorted(analysis.aux_pairs(d))
                assert len(set(pairs)) == len(pairs)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            gf.compile_plan(gf.ProtocolOptions(d=1, n=4))
        with pytest.raises(InvalidParameters):
            gf.compile_plan(gf.ProtocolOptions(d=3, n=1))

    def test_odd_n_plans_end_with_reduction(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=5, feedforward=True))
        assert plan.stages[-1].kind == "reduce"
        assert plan.stages[-1].info["mode"] == protocol.FULL_FOURIER
        assert plan.epr_pair_count == 3
        assert plan.output_photons() == [1, 2, 3, 4, 5]

    def test_aux_order_override_validated(self):
        opts = gf.ProtocolOptions(d=5, n=4)
        order = [list(reversed(analysis.aux_pairs(5)))]
        plan = gf.compile_plan(opts, aux_order=order)
        assert plan.junction_aux_pairs == order
        with pytest.raises(InvalidParameters):
            gf.compile_plan(opts, aux_order=[[(0, 2)]])

    def test_later_sources_injected_at_their_junction(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=6))
        labels = [s.label for s in plan.stages]
        assert labels.index("j1.source") < labels.index("j1.step_i_tag")
        assert labels.index("j0.aux0.untag") < labels.index("j1.source")
        stage = plan.stages[labels.index("j1.source")]
        assert stage.kind == "sources" and stage.junction == 1
        (inject,) = stage.steps
        assert inject.ports() == set(plan.photon_ports(4) + plan.photon_ports(5))
        assert len(plan.stages[0].steps) == 2

    def test_plan_serialization(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        data = plan.to_jsonable()
        assert data["epr_pair_count"] == 2
        assert data["aux_count"] if "aux_count" in data else data["aux_pair_count"] == 1
        assert any(step["elem"] == "inject" for step in data["circuit"])


@pytest.fixture(scope="module")
def qutrit_element_report():
    plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=False))
    return gf.execute(plan, backend="element", keep_intermediates=True)


class TestElementGolden:
    @pytest.fixture()
    def report(self, qutrit_element_report):
        return qutrit_element_report

    def test_parity_filter_state_and_rate(self, report):
        got = states.absorb_branch(report.intermediates["j0.step_i"])
        assert states.states_close(got, golden.parity_filter_survivors(), tol=1e-9)
        assert report.trace[0] == pytest.approx(5 / 9, abs=1e-9)

    def test_helper_joint_state(self, report):
        got = states.absorb_branch(report.intermediates["j0.aux0.inject"])
        assert states.states_close(got, golden.helper_joint_state(), tol=1e-9)

    def test_interference_survivors_and_rate(self, report):
        got = states.absorb_branch(report.intermediates["j0.aux0.interfere"])
        assert states.states_close(got, golden.interference_survivors(), tol=1e-9)
        assert report.trace[1] == pytest.approx(3 / 10, abs=1e-9)

    def test_analysis_ready_state(self, report):
        got = states.absorb_branch(report.intermediates["j0.aux0.analysis"])
        assert states.states_close(got, golden.analysis_ready_state(), tol=1e-9)

    def test_final_state_and_probabilities(self, report):
        got = states.absorb_branch(report.intermediates["j0.aux0.untag"])
        assert states.states_close(got, golden.chain_output_unnormalized(), tol=1e-9)
        assert report.prob_filtered == pytest.approx(1 / 12, abs=1e-9)
        assert report.prob_feedforward == pytest.approx(1 / 6, abs=1e-9)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_trace_product_equals_probability(self, report):
        product = 1.0
        for p in report.trace:
            product *= p
        assert product == pytest.approx(report.prob, abs=1e-12)


class TestBackendAgreement:
    @pytest.mark.parametrize("d,n", [(3, 4), (3, 6)])
    def test_rule_matches_element_checkpoints_and_trace(self, d, n):
        opts = gf.ProtocolOptions(d=d, n=n, feedforward=False)
        rule = gf.execute(gf.compile_plan(opts), backend="rule", keep_intermediates=True)
        element = gf.execute(
            gf.compile_plan(opts), backend="element", keep_intermediates=True
        )
        assert rule.trace == pytest.approx(element.trace, abs=1e-9)
        assert rule.stage_labels == element.stage_labels
        labels = ["j0.step_i", "j0.aux0.pas"]
        if n >= 6:
            labels += ["j1.step_i", "j1.aux0.pas"]
        for label in labels:
            assert states.states_close(
                states.absorb_branch(rule.intermediates[label]),
                states.absorb_branch(element.intermediates[label]),
                tol=1e-9,
            ), label
        assert gf.fidelity(rule.final_state, element.final_state) == pytest.approx(
            1.0, abs=1e-9
        )
        assert rule.prob == pytest.approx(element.prob, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rule_matches_oracle(self, d, n):
        rule = gf.run(d, n, feedforward=True, backend="rule")
        oracle = gf.oracle_run(d, n, feedforward=True)
        assert rule.prob == pytest.approx(oracle.prob, abs=1e-9)
        assert rule.prob_filtered == pytest.approx(oracle.prob_filtered, abs=1e-9)
        assert gf.fidelity(rule.final_state, oracle.final_state) == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (3, 4), (4, 4), (3, 6)])
    def test_element_matches_rule(self, d, n):
        element = gf.run(d, n, feedforward=True, backend="element")
        rule = gf.run(d, n, feedforward=True, backend="rule")
        assert element.prob == pytest.approx(rule.prob, abs=1e-9)
        assert gf.fidelity(element.final_state, rule.final_state) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_nonuniform_coefficients_agree_and_report_honestly(self):
        coeffs = (0.6, 0.0, 0.8)
        rule = gf.run(3, 4, feedforward=True, backend="rule", input_coeffs=coeffs)
        element = gf.run(3, 4, feedforward=True, backend="element", input_coeffs=coeffs)
        oracle = gf.oracle_run(3, 4, feedforward=True, input_coeffs=coeffs)
        assert rule.predicted_prob is None
        assert rule.prob_matches is None
        assert rule.fidelity < 1.0 - 1e-6  # honestly not a uniform target
        assert rule.prob == pytest.approx(element.prob, abs=1e-9)
        assert rule.prob == pytest.approx(oracle.prob, abs=1e-9)
        assert gf.fidelity(rule.final_state, element.final_state) == pytest.approx(
            1.0, abs=1e-9
        )
        # final amplitudes follow the squared coefficients: c_i**2 per branch
        expected = sorted([0.6**2, 0.8**2])
        got = sorted(abs(a) * math.sqrt(sum(c**4 for c in coeffs)) for a in rule.final_state.terms.values())
        assert got == pytest.approx(expected, abs=1e-9)


class TestStreaming:
    @staticmethod
    def largest_intermediate(d, n):
        report = gf.run(d, n, backend="element", keep_intermediates=True)
        return max(len(s.terms) for s in report.intermediates.values())

    def test_element_intermediates_do_not_grow_with_n(self):
        # each source joins at its junction, so no stage holds the
        # d**ceil(n/2)-term product of every source
        assert self.largest_intermediate(3, 6) == self.largest_intermediate(3, 10)

    def test_rule_run_far_past_element_scale_matches_closed_form(self):
        report = gf.run(16, 14, backend="rule")
        exact = analysis.predicted_prob_for_options(16, 14, False)
        assert report.predicted == exact
        assert abs(Fraction(report.prob) - exact) <= exact / 10**9
        assert report.prob_matches is True
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert len(report.final_state.terms) == 16


class TestStageSemantics:
    def test_parity_filter_survivor_count(self):
        for d in (2, 3, 4, 5):
            plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=4))
            report = gf.execute(plan, backend="rule", keep_intermediates=True)
            survivors = report.intermediates["j0.step_i"]
            cross = 2 * ((d + 1) // 2) * (d // 2)
            assert len(survivors.terms) == d * d - cross

    @pytest.mark.parametrize("d", [3, 4])
    def test_small_d_stages_remove_exactly_two_terms(self, d):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=4))
        report = gf.execute(plan, backend="rule", keep_intermediates=True)
        counts = [len(report.intermediates["j0.step_i"].terms)]
        for q in range(len(plan.junction_aux_pairs[0])):
            counts.append(len(report.intermediates[f"j0.aux{q}.pas"].terms))
        for before, after in zip(counts, counts[1:]):
            assert before - after == 2

    def test_completeness_only_diagonal_terms_survive(self):
        for d in (2, 3, 4, 5):
            report = gf.run(d, 4, feedforward=True, backend="rule")
            for term in report.final_state.terms:
                paths = sorted({port % d for (port, _), _ in term})
                assert len(paths) == 1

    def test_stage_order_permutation_invariance(self):
        rng = random.Random(17)
        opts = gf.ProtocolOptions(d=5, n=4, feedforward=True)
        base = gf.execute(gf.compile_plan(opts), backend="rule")
        for _ in range(6):
            order = analysis.aux_pairs(5)
            rng.shuffle(order)
            plan = gf.compile_plan(opts, aux_order=[order])
            report = gf.execute(plan, backend="rule")
            assert report.prob == pytest.approx(base.prob, abs=1e-9)
            assert gf.fidelity(report.final_state, base.final_state) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_element_stage_order_permutation_invariance(self):
        opts = gf.ProtocolOptions(d=4, n=4, feedforward=True)
        base = gf.execute(gf.compile_plan(opts), backend="element")
        order = list(reversed(analysis.aux_pairs(4)))
        plan = gf.compile_plan(opts, aux_order=[order])
        report = gf.execute(plan, backend="element")
        assert report.prob == pytest.approx(base.prob, abs=1e-9)
        assert gf.fidelity(report.final_state, base.final_state) == pytest.approx(
            1.0, abs=1e-9
        )


class TestEdgeCases:
    def test_two_photon_run_is_the_source(self):
        report = gf.run(4, 2, backend="rule")
        assert report.prob == pytest.approx(1.0)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.trace == []

    def test_three_photon_run(self):
        report = gf.run(3, 3, feedforward=True, backend="rule")
        assert report.prob == pytest.approx(analysis.predicted_prob(3, 3, True), abs=1e-12)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_report_serialization_keys(self):
        report = gf.run(2, 4, backend="rule")
        data = report.to_jsonable()
        for key in (
            "d", "n", "fidelity", "prob_filtered", "prob_feedforward",
            "predicted_prob", "trace", "final_state",
        ):
            assert key in data

    def test_unknown_backend(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=2, n=4))
        with pytest.raises(InvalidParameters):
            gf.execute(plan, backend="quantum")


class TestReduceToOdd:
    @pytest.mark.parametrize("d", [2, 3])
    def test_single_outcome_mode(self, d):
        even = gf.run(d, 4, feedforward=True, backend="rule")
        report = gf.reduce_to_odd(even.final_state, d, protocol.SINGLE_OUTCOME)
        assert report.prob == pytest.approx(1 / d, abs=1e-9)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert report.n == 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_fourier_mode(self, d):
        even = gf.run(d, 4, feedforward=True, backend="rule")
        report = gf.reduce_to_odd(even.final_state, d, protocol.FULL_FOURIER)
        assert report.prob == pytest.approx(1.0, abs=1e-9)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_every_branch_corrects_to_target(self):
        even = gf.run(3, 4, feedforward=True, backend="rule")
        from ghzforge import measurement

        dist = gf.fourier_measure_path(even.final_state, [0, 1, 2], 3)
        rule = measurement.fourier_feedforward_rule(
            [[3, 4, 5], [6, 7, 8], [9, 10, 11]], 3
        )
        reference = gf.ghz_reference(3, 3, [[3, 4, 5], [6, 7, 8], [9, 10, 11]])
        for o in dist.outcomes:
            assert o.prob == pytest.approx(1 / 3, abs=1e-9)
            corrected = gf.feedforward(o.state, o.label, rule)
            assert gf.fidelity(corrected, reference) == pytest.approx(1.0, abs=1e-9)

    def test_non_ghz_input_reported_honestly(self):
        lopsided = gf.make_state(
            [
                (gf.ket((0, "H"), (2, "H"), (4, "H"), (6, "H")), math.sqrt(0.9)),
                (gf.ket((1, "H"), (3, "H"), (5, "H"), (7, "H")), math.sqrt(0.1)),
            ]
        )
        report = gf.reduce_to_odd(
            lopsided, 2, protocol.SINGLE_OUTCOME,
            port_groups=[[0, 1], [2, 3], [4, 5], [6, 7]],
        )
        assert report.fidelity < 1.0 - 1e-6
