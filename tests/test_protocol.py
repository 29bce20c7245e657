import dataclasses
import inspect
import math
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ghzforge as gf
from ghzforge import analysis, elements, golden, measurement, protocol, states
from ghzforge.errors import (
    BranchMismatch,
    GhzforgeError,
    InvalidCoefficients,
    InvalidParameters,
)
from ghzforge.measurement import CoincidencePattern, CoincidenceSelect, PasPairSelect

from conftest import raw_amplitudes


def _injected(d, n, kind, coeffs=None, aux_order=None):
    """The state of every ``Inject`` that ``stage_steps`` builds for the
    ``kind`` stages of the (d, n) plan, in stage order."""
    opts = gf.ProtocolOptions(d=d, n=n, input_coeffs=coeffs)
    plan = gf.compile_plan(opts, aux_order=aux_order)
    return [
        step.state
        for stage in plan.stages if stage.kind == kind
        for step in plan.stage_steps(stage) if isinstance(step, gf.Inject)
    ]


class TestBuilders:
    """The pair-source and helper states ``stage_steps`` injects."""

    def test_qubit_source_uniform(self):
        s, t = _injected(2, 4, "sources")
        assert s.amplitude(gf.ket((0, "H"), (2, "H"))) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude(gf.ket((1, "H"), (3, "H"))) == pytest.approx(1 / math.sqrt(2))
        assert t.amplitude(gf.ket((5, "H"), (7, "H"))) == pytest.approx(1 / math.sqrt(2))

    def test_qutrit_source_uniform(self):
        s = _injected(3, 4, "sources")[0]
        assert len(s.terms) == 3
        for amp in s.terms.values():
            assert amp == pytest.approx(1 / math.sqrt(3))

    def test_degenerate_coefficients_give_product_state(self):
        s = _injected(3, 4, "sources", (1.0, 0.0, 0.0))[0]
        assert list(s.terms) == [gf.ket((0, "H"), (3, "H"))]

    def test_bad_coefficients(self):
        # the options reject them before any state is built
        with pytest.raises(InvalidCoefficients):
            _injected(3, 4, "sources", (0.9, 0.1, 0.1))
        with pytest.raises(InvalidCoefficients):
            _injected(3, 4, "sources", (1.0, 0.0))

    @pytest.mark.parametrize("coeffs", [None, (0.6, 0.0, 0.8), (1e-12, 0.6, 0.8)])
    def test_source_equals_the_make_state_build(self, coeffs):
        # kets in order, exact amplitudes, sub-tolerance coefficients dropped,
        # for every source of the chain
        values = states.validated_coeffs(3, coeffs)
        got = _injected(3, 6, "sources", coeffs)
        assert len(got) == 3
        for s, source in enumerate(got):
            want = gf.make_state([
                (gf.ket((6 * s + i, "H"), (6 * s + 3 + i, "H")), c)
                for i, c in enumerate(values) if c != 0.0
            ])
            assert list(source.terms.items()) == list(want.terms.items())

    def test_aux_source_matches_walkthrough(self):
        (s,) = _injected(3, 4, "aux_inject")
        assert s.amplitude(gf.ket((12, "H"), (14, "H"))) == pytest.approx(1 / math.sqrt(2))
        assert s.amplitude(gf.ket((13, "V"), (15, "V"))) == pytest.approx(1 / math.sqrt(2))

    def test_aux_source_odd_parity_pair(self):
        even, odd = _injected(4, 4, "aux_inject", aux_order=[[(0, 2), (1, 3)]])
        # the (1, 3) helper sits on the ten ports after the (0, 2) helper's
        assert list(odd.terms) == [gf.ket((26, "H"), (28, "H")), gf.ket((27, "V"), (29, "V"))]
        assert len(even.terms) == 2
        assert odd.norm_sq() == pytest.approx(1.0)

    def test_polarization_tag_rules(self):
        s = _injected(3, 4, "sources")[0]
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
        assert plan.junction_aux_pairs == ((),)
        kinds = [s.kind for s in plan.stages]
        assert kinds == ["sources", "tag", "pbs_filter", "tag"]

    def test_qutrit_four_photon_plan(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        assert plan.epr_pair_count == 2
        assert plan.aux_pair_count == 1
        assert plan.junction_aux_pairs == (((0, 2),),)

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
        assert plan.options.odd_mode == protocol.FULL_FOURIER
        assert plan.epr_pair_count == 3
        assert plan.output_photons() == [1, 2, 3, 4, 5]

    def test_aux_order_override_validated(self):
        opts = gf.ProtocolOptions(d=5, n=4)
        order = [list(reversed(analysis.aux_pairs(5)))]
        plan = gf.compile_plan(opts, aux_order=order)
        assert plan.junction_aux_pairs == (tuple(order[0]),)
        with pytest.raises(InvalidParameters):
            gf.compile_plan(opts, aux_order=[[(0, 2)]])

    def test_later_sources_injected_at_their_junction(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=6))
        labels = [s.label for s in plan.stages]
        assert labels.index("j1.source") < labels.index("j1.step_i_tag")
        assert labels.index("j0.aux0.untag") < labels.index("j1.source")
        stage = plan.stages[labels.index("j1.source")]
        assert stage.kind == "sources" and stage.junction == 1
        (inject,) = plan.stage_steps(stage)
        assert inject.ports() == set(plan.photon_ports(4) + plan.photon_ports(5))
        assert len(plan.stage_steps(plan.stages[0])) == 2

    def test_a_plan_is_its_options_and_helper_pairs(self):
        assert [f.name for f in dataclasses.fields(protocol.ProtocolPlan) if f.init] == [
            "options", "junction_aux_pairs",
        ]
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=7, feedforward=True))
        assert plan.predicted == analysis.predicted_prob_for_options(3, 7, True)
        coeffs = gf.compile_plan(gf.ProtocolOptions(d=2, n=4, input_coeffs=(0.6, 0.8)))
        assert coeffs.predicted is None

    def test_compile_plan_builds_the_stages_once(self, monkeypatch):
        calls = []
        stage_rows = protocol._stage_rows
        monkeypatch.setattr(
            protocol, "_stage_rows", lambda *args: calls.append(args) or stage_rows(*args)
        )
        for d, n in [(2, 2), (3, 5), (4, 8)]:
            plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n))
            assert len(calls) == 1, (d, n)
            assert plan.stages == stage_rows(*calls.pop())

    def test_swapped_helper_blocks_are_what_the_plan_reports(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=4, n=4, feedforward=True))
        swapped = protocol.ProtocolPlan(plan.options, [[(1, 3), (0, 2)]])
        assert swapped == dataclasses.replace(plan, junction_aux_pairs=[[(1, 3), (0, 2)]])
        assert swapped.to_jsonable()["junction_aux_pairs"] == [[[1, 3], [0, 2]]]
        assert swapped.aux_pair_count == 2
        assert swapped.to_jsonable()["aux_pair_count"] == 2
        assert [s.aux_pair for s in swapped.stages if s.kind == "aux_pas"] == [(1, 3), (0, 2)]
        for backend in ("rule", "element", "oracle"):
            report = gf.execute(swapped, backend)
            assert report.matches and report.prob_matches, backend
            pas = [label for label in report.stage_labels if label.endswith(".pas")]
            assert pas == ["j0.aux0.pas", "j0.aux1.pas"], backend

    def test_plan_serialization(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        data = plan.to_jsonable()
        assert data["epr_pair_count"] == 2
        assert data["aux_count"] if "aux_count" in data else data["aux_pair_count"] == 1
        assert any(step["elem"] == "inject" for step in data["circuit"])


class TestPlanIsAValue:
    """A plan is frozen: every in-place edit raises, and ``dataclasses.replace``,
    which makes the stages, reference and prediction again, is the one way to
    change it.  Plans compare and hash by (options, pairs)."""

    @pytest.fixture()
    def plan(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=4, n=4, feedforward=True))
        assert gf.execute(plan, "element").matches  # caches the optics
        return plan

    def test_every_in_place_edit_raises(self, plan):
        with pytest.raises(TypeError):
            del plan.stages[1]
        for name in protocol.PlanStage._fields:
            with pytest.raises(AttributeError):
                setattr(plan.stages[1], name, None)
        with pytest.raises(AttributeError):
            plan.junction_aux_pairs[0].pop()
        for name in [f.name for f in dataclasses.fields(plan)] + ["optics"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(plan, name, None)
        for backend in ("rule", "element", "oracle"):
            assert gf.execute(plan, backend).matches, backend

    def test_replace_makes_the_plan_again(self, plan):
        pairs = [[(0, 2)], [(1, 3), (0, 2)]]
        wider = dataclasses.replace(
            plan, options=dataclasses.replace(plan.options, n=6), junction_aux_pairs=pairs
        )
        assert wider == protocol.ProtocolPlan(gf.ProtocolOptions(d=4, n=6, feedforward=True), pairs)
        assert wider.junction_aux_pairs == (((0, 2),), ((1, 3), (0, 2)))
        assert wider.stages == protocol._stage_rows(4, 6, pairs)
        assert states.states_close(wider.reference, analysis.ghz_reference(4, 6), tol=0.0)
        # three helper pairs, one fewer than the paper's four: half its cost
        assert wider.predicted == analysis.predicted_prob_for_options(4, 6, True) * 2
        assert "optics" not in vars(wider)  # the element run builds the new stages' optics
        element, rule = (gf.execute(wider, backend) for backend in ("element", "rule"))
        assert element.stage_labels == rule.stage_labels
        assert len(wider.optics) == len(wider.stages)

    def test_equal_plans_are_equal_values(self, plan):
        same = protocol.ProtocolPlan(plan.options, [[[0, 2], [1, 3]]])  # JSON lists
        swapped = dataclasses.replace(plan, junction_aux_pairs=[[(1, 3), (0, 2)]])
        assert same == plan and hash(same) == hash(plan)
        assert swapped != plan
        assert len({plan, same, swapped, dataclasses.replace(swapped)}) == 2


_PARAMS ="need integer d >= 2 and n >= 2, got d={}, n={}"
_BOGUS = "unknown odd-n mode 'bogus'"


class TestOptions:
    """Options check themselves when they are made and hold the checked
    source terms and odd-n mode."""

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            (dict(d=2.5, n=4), InvalidParameters, _PARAMS.format(2.5, 4)),
            (dict(d="3", n=4), InvalidParameters, _PARAMS.format(3, 4)),
            (dict(d=3, n=1), InvalidParameters, _PARAMS.format(3, 1)),
            (dict(d=3, n=4, input_coeffs=(0.6, 0.8)), InvalidCoefficients,
             "need 3 coefficients, got 2"),
            (dict(d=3, n=4, input_coeffs=(math.nan, 0.0, 1.0)), InvalidCoefficients,
             "coefficients must be finite reals"),
            (dict(d=3, n=4, input_coeffs=(0.9, 0.1, 0.1)), InvalidCoefficients,
             "squared coefficients must sum to 1"),
            (dict(d=3, n=4, odd_n_mode="bogus"), InvalidParameters, _BOGUS),
            (dict(d=3, n=5, odd_n_mode="bogus"), InvalidParameters, _BOGUS),
            (dict(d=3, n=4, odd_n_mode="bogus", input_coeffs=(0.6, 0.0, 0.8)),
             InvalidParameters, _BOGUS),
            (dict(d=3, n=5, odd_n_mode="bogus", input_coeffs=(0.6, 0.0, 0.8)),
             InvalidParameters, _BOGUS),
            # compile_plan's order: d and n, then the coefficients, then the mode
            (dict(d=1, n=4, odd_n_mode="bogus", input_coeffs=(1.0,)), InvalidParameters,
             _PARAMS.format(1, 4)),
            (dict(d=3, n=5, odd_n_mode="bogus", input_coeffs=(1.0,)), InvalidCoefficients,
             "need 3 coefficients, got 1"),
        ],
        ids=["d-float", "d-str", "n-1", "coeffs-length", "coeffs-nan", "coeffs-norm",
             "mode-even", "mode-odd", "mode-even-coeffs", "mode-odd-coeffs",
             "d-before-the-rest", "coeffs-before-mode"],
    )
    def test_bad_options_are_refused_when_made(self, kwargs, error, message):
        match = f"^{re.escape(message)}$"
        with pytest.raises(error, match=match):
            gf.ProtocolOptions(**kwargs)
        with pytest.raises(error, match=match):
            dataclasses.replace(gf.ProtocolOptions(d=3, n=4), **kwargs)

    def test_options_hold_the_source_and_the_mode(self):
        assert [f.name for f in dataclasses.fields(protocol.ProtocolOptions) if f.init] == [
            "d", "n", "feedforward", "odd_n_mode", "input_coeffs",
        ]
        opts = gf.ProtocolOptions(d=3, n=5, feedforward=True, input_coeffs=(1e-12, 0.6, 0.8))
        assert opts.source == ((1, 0.6), (2, 0.8))
        assert opts.odd_mode == protocol.FULL_FOURIER
        assert repr(opts) == (  # the checked coefficients, as validated_coeffs returns them
            "ProtocolOptions(d=3, n=5, feedforward=True, odd_n_mode=None, "
            "input_coeffs=(0.0, 0.6, 0.8))"
        )
        assert hash(opts) == hash((3, 5, True, None, (0.0, 0.6, 0.8)))
        assert opts == gf.ProtocolOptions(3, 5, True, None, (1e-12, 0.6, 0.8))
        uniform = gf.ProtocolOptions(d=2, n=4, odd_n_mode=protocol.FULL_FOURIER)
        assert uniform.source == ((0, 1 / math.sqrt(2)), (1, 1 / math.sqrt(2)))
        assert uniform.odd_mode == protocol.FULL_FOURIER

    def test_options_made_from_a_list_equal_those_made_from_a_tuple(self):
        listed = gf.ProtocolOptions(d=2, n=4, input_coeffs=[0.6, 0.8])
        tupled = gf.ProtocolOptions(d=2, n=4, input_coeffs=(0.6, 0.8))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.input_coeffs == (0.6, 0.8)
        assert dataclasses.replace(listed) == listed
        assert hash(gf.compile_plan(listed)) == hash(gf.compile_plan(tupled))

    @pytest.mark.parametrize("coeffs", [None, (0.6, 0.0, 0.8)])
    def test_options_are_checked_once(self, monkeypatch, coeffs):
        calls = {"validated_coeffs": 0, "resolve_odd_mode": 0}
        for module, name in ((states, "validated_coeffs"), (analysis, "resolve_odd_mode")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        opts = gf.ProtocolOptions(d=3, n=5, feedforward=True, input_coeffs=coeffs)
        assert calls == {"validated_coeffs": 1, "resolve_odd_mode": 1}
        plan = gf.compile_plan(opts)
        assert calls["validated_coeffs"] == 1
        calls.update(validated_coeffs=0, resolve_odd_mode=0)
        assert "optics" not in vars(plan)  # the first element execute builds them
        for backend, keep in [("rule", False), ("rule", True), ("element", True),
                              ("element", False), ("oracle", False)]:
            gf.execute(plan, backend, keep_intermediates=keep)
            assert calls == {"validated_coeffs": 0, "resolve_odd_mode": 0}, backend


@pytest.fixture(scope="module")
def qutrit_element_report():
    plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=False))
    return gf.execute(plan, backend="element", keep_intermediates=True)


class TestElementGolden:
    @pytest.fixture()
    def report(self, qutrit_element_report):
        return qutrit_element_report

    def test_parity_filter_state_and_rate(self, report):
        got = raw_amplitudes(report.intermediates["j0.step_i"])
        assert states.states_close(got, golden.parity_filter_survivors(), tol=1e-9)
        assert report.trace[0] == pytest.approx(5 / 9, abs=1e-9)

    def test_helper_joint_state(self, report):
        got = raw_amplitudes(report.intermediates["j0.aux0.inject"])
        assert states.states_close(got, golden.helper_joint_state(), tol=1e-9)

    def test_interference_survivors_and_rate(self, report):
        got = raw_amplitudes(report.intermediates["j0.aux0.interfere"])
        assert states.states_close(got, golden.interference_survivors(), tol=1e-9)
        assert report.trace[1] == pytest.approx(3 / 10, abs=1e-9)

    def test_analysis_ready_state(self, report):
        got = raw_amplitudes(report.intermediates["j0.aux0.analysis"])
        assert states.states_close(got, golden.analysis_ready_state(), tol=1e-9)

    def test_final_state_and_probabilities(self, report):
        got = raw_amplitudes(report.intermediates["j0.aux0.untag"])
        assert states.states_close(got, golden.chain_output_unnormalized(), tol=1e-9)
        assert report.prob_filtered == pytest.approx(1 / 12, abs=1e-9)
        assert report.prob_feedforward == pytest.approx(1 / 6, abs=1e-9)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_trace_product_equals_probability(self, report):
        product = 1.0
        for p in report.trace:
            product *= p
        assert product == pytest.approx(report.prob, abs=1e-12)


@st.composite
def edited_plans(draw):
    """A compiled plan remade by ``dataclasses.replace`` so that its junctions
    each hold any sequence of the same-parity path pairs of d: a pair may be
    dropped, permuted or repeated."""
    opts = gf.ProtocolOptions(
        d=draw(st.integers(2, 5)), n=draw(st.integers(2, 7)), feedforward=draw(st.booleans()),
        odd_n_mode=draw(st.sampled_from([None, protocol.SINGLE_OUTCOME, protocol.FULL_FOURIER])),
    )
    pairs = analysis.aux_pairs(opts.d)
    junction = st.lists(st.sampled_from(pairs), max_size=len(pairs) + 1) if pairs else st.just([])
    edited = [draw(junction) for _ in range(-(opts.n // -2) - 1)]
    return dataclasses.replace(gf.compile_plan(opts), junction_aux_pairs=edited)


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "d,n", [(d, n) for d in range(2, 7) for n in range(4, 7) if (d, n) != (6, 6)]
    )
    def test_rule_matches_element_checkpoints_and_trace(self, d, n):
        # raw amplitudes at every label the rule backend keeps, its "final"
        # against the element run's last stage, in both accountings
        for feedforward in (False, True):
            plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
            rule = gf.execute(plan, backend="rule", keep_intermediates=True)
            element = gf.execute(plan, backend="element", keep_intermediates=True)
            assert rule.trace == pytest.approx(element.trace, abs=1e-9)
            assert rule.stage_labels == element.stage_labels
            last = list(element.intermediates.values())[-1]
            for label, kept in rule.intermediates.items():
                assert states.states_close(
                    raw_amplitudes(kept),
                    raw_amplitudes(element.intermediates.get(label, last)),
                    tol=1e-9,
                ), (feedforward, label)
            assert gf.fidelity(rule.final_state, element.final_state) == pytest.approx(
                1.0, abs=1e-9
            )
            assert rule.prob == pytest.approx(element.prob, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rule_matches_oracle(self, d, n):
        rule = gf.run(d, n, feedforward=True, backend="rule")
        oracle = gf.run(d, n, feedforward=True, backend="oracle")
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
        oracle = gf.run(3, 4, feedforward=True, backend="oracle", input_coeffs=coeffs)
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

    def test_every_backend_keeps_the_same_source_support(self):
        # validated_coeffs zeroes a coefficient below EPS, so the rule path
        # keeps no 1e-12 ket that the optics prune
        coeffs = (1e-12, 0.6, 0.8)
        assert states.validated_coeffs(3, coeffs) == [0.0, 0.6, 0.8]
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=True, input_coeffs=coeffs))
        rule = gf.execute(plan, "rule", keep_intermediates=True)
        element = gf.execute(plan, "element", keep_intermediates=True)
        last = list(element.intermediates.values())[-1]
        for label, (state, _) in rule.intermediates.items():
            want, _ = element.intermediates.get(label, last)
            assert len(state.kets) == len(want.kets), label
        assert len(rule.intermediates["j0.step_i"][0].kets) == 2
        assert len(gf.execute(plan, "oracle").final_state.kets) == len(rule.final_state.kets)

    @given(edited_plans())
    def test_rule_matches_element_on_edited_helper_blocks(self, plan):
        # every backend that admits the cell runs the plan alike; rule and
        # element may both raise, and then raise the same error
        results = []
        for backend in ("rule", "element"):
            try:
                results.append(gf.execute(plan, backend))
            except GhzforgeError as exc:
                results.append((type(exc), str(exc)))
        rule, element = results
        if isinstance(rule, tuple) or isinstance(element, tuple):
            # the oracle's per-source tuples hold no crossing ket, so its
            # reduce has no merge to refuse and it is left out here
            assert rule == element
            return
        assert rule.stage_labels == element.stage_labels
        assert rule.trace == pytest.approx(element.trace, abs=1e-9)
        assert states.states_close(rule.final_state, element.final_state, tol=states.MERGE_TOL)
        reports = [rule, element]
        if plan.d <= analysis.ORACLE_MAX_D and plan.n <= analysis.ORACLE_MAX_N:
            reports.append(gf.execute(plan, "oracle"))
        for report in reports[1:]:
            assert report.stage_labels == rule.stage_labels, report.backend
            for name in ("prob", "prob_filtered", "prob_feedforward"):
                assert getattr(report, name) == pytest.approx(getattr(rule, name), rel=1e-9), name
            assert report.fidelity == pytest.approx(rule.fidelity, abs=1e-9), report.backend
            assert report.matches == rule.matches, report.backend
        for report in reports:
            # a run that reaches the GHZ state does so with its plan's prediction
            assert report.prob_matches is True or not report.fidelity_matches, report.backend

    def test_rule_raises_on_a_full_fourier_crossing_ket(self):
        # without junction 0's (1, 3) helper block a ket with photons 0 and 1
        # on different odd paths survives; the merge of Fourier outcomes fails
        plan = gf.compile_plan(gf.ProtocolOptions(d=4, n=5, feedforward=True))
        edited = protocol.ProtocolPlan(plan.options, [[(0, 2)], [(0, 2), (1, 3)]])
        for backend in ("rule", "element"):
            with pytest.raises(BranchMismatch, match="^outcome 1 does not merge"):
                gf.execute(edited, backend)
        single = dataclasses.replace(edited, options=dataclasses.replace(
            plan.options, odd_n_mode=protocol.SINGLE_OUTCOME))
        for backend in ("rule", "element"):
            assert gf.execute(single, backend).stage_labels[-1] == "reduce"


class TestElementNorms:
    @pytest.mark.parametrize("d, n, feedforward", [(3, 4, False), (4, 6, True), (5, 5, False)])
    def test_only_injecting_or_selecting_stages_renormalise(self, monkeypatch, d, n, feedforward):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        run_circuit, normalize = elements.run_circuit, states.normalize
        stage_outputs, normalised = [], []

        def recorded_run(state, steps):
            out = run_circuit(state, steps)
            stage_outputs.append(out[0])
            return out

        def recorded_normalize(state):
            normalised.append(state)
            return normalize(state)

        finish = protocol.RunReport.finish

        def unrecorded_finish(report, *args):
            # the report normalises the final state for itself, not for a stage
            monkeypatch.setattr(states, "normalize", normalize)
            return finish(report, *args)

        monkeypatch.setattr(elements, "run_circuit", recorded_run)
        monkeypatch.setattr(states, "normalize", recorded_normalize)
        monkeypatch.setattr(protocol.RunReport, "finish", unrecorded_finish)
        report = gf.execute(plan, backend="element", keep_intermediates=True)
        assert len(report.intermediates) == len(plan.stages)
        for label, (state, _) in report.intermediates.items():
            assert abs(state.norm_sq() - 1.0) <= 1e-12, label
        # the pair analysis and the reduce measurement run no circuit; of the
        # rest, the unitary stages hand their state on as it is
        stepped = [st for st in plan.stages if st.kind not in ("aux_pas", "reduce")]
        assert len(stage_outputs) == len(stepped)
        renormalised = {True: set(), False: set()}
        for stage, out in zip(stepped, stage_outputs):
            renormalised[any(s is out for s in normalised)].add(stage.kind)
        assert renormalised[True] == {"sources", "pbs_filter", "aux_inject", "aux_interfere"}
        assert renormalised[False] == {"tag", "aux_analysis"}


def _count_reports(monkeypatch):
    """Every ``RunReport`` constructed from now on, in order."""
    init, reports = protocol.RunReport.__init__, []

    def counted_init(report, *args, **kwargs):
        init(report, *args, **kwargs)
        reports.append(report)

    monkeypatch.setattr(protocol.RunReport, "__init__", counted_init)
    return reports


class TestOneReport:
    @pytest.mark.parametrize("backend", ["rule", "element", "oracle"])
    @pytest.mark.parametrize("feedforward", [True, False])
    @pytest.mark.parametrize("d, n", [(3, 4), (3, 5)])
    def test_execute_makes_exactly_one_report(self, monkeypatch, backend, feedforward, d, n):
        reports = _count_reports(monkeypatch)
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        report = gf.execute(plan, backend)
        assert len(reports) == 1
        assert reports[0] is report
        assert report.backend == backend
        assert report.matches

    @pytest.mark.parametrize("mode", [protocol.SINGLE_OUTCOME, protocol.FULL_FOURIER])
    def test_reduce_to_odd_makes_exactly_one_report(self, monkeypatch, mode):
        even = gf.run(3, 4, feedforward=True).final_state
        reports = _count_reports(monkeypatch)
        report = gf.reduce_to_odd(even, 3, mode)
        assert len(reports) == 1
        assert reports[0] is report
        assert report.stage_labels == ["reduce"] and report.matches

    @pytest.mark.parametrize("d, n, feedforward", [(3, 4, False), (3, 5, True), (4, 5, False)])
    def test_execute_computes_no_prediction(self, monkeypatch, d, n, feedforward):
        predict, calls = analysis.predicted_prob_for_options, []

        def counted_predict(*args):
            calls.append(args)
            return predict(*args)

        monkeypatch.setattr(analysis, "predicted_prob_for_options", counted_predict)
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        assert len(calls) == 1
        for backend in ("rule", "element", "oracle"):
            report = gf.execute(plan, backend)
            assert report.predicted == plan.predicted, backend
            assert report.matches, backend
        assert len(calls) == 1

    @pytest.mark.parametrize("d, n, feedforward", [(3, 4, False), (5, 7, True), (16, 8, True)])
    def test_a_rule_report_normalises_once_with_the_same_fidelity(
        self, monkeypatch, d, n, feedforward
    ):
        normalize, seen = states.normalize, []

        def counted_normalize(state):
            seen.append(state)
            return normalize(state)

        monkeypatch.setattr(states, "normalize", counted_normalize)
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        report = gf.execute(plan, "rule")
        assert len(seen) == 1
        monkeypatch.undo()
        # the fidelity normalising the executor's final state itself, bit for bit
        assert report.fidelity == analysis.fidelity(seen[0], plan.reference)
        assert report.final_state == states.normalize(seen[0])


class TestPlanReference:
    def test_compiling_builds_the_output_reference(self):
        for n in (4, 5):
            plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=n, odd_n_mode=gf.FULL_FOURIER))
            groups = plan.output_port_groups()
            assert plan.reference.kets == gf.ghz_reference(3, len(groups), groups).kets

    @pytest.mark.parametrize("backend", ["rule", "element", "oracle"])
    def test_executing_builds_no_reference(self, monkeypatch, backend):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=5, feedforward=True))

        def refuse(*args, **kwargs):
            raise AssertionError("a report rebuilt the GHZ reference")

        monkeypatch.setattr(analysis, "ghz_reference", refuse)
        for _ in range(2):
            report = gf.execute(plan, backend)
            assert report.fidelity == pytest.approx(1.0, abs=1e-12) and report.matches

    def test_plans_compare_without_their_reference(self):
        opts = gf.ProtocolOptions(d=3, n=4)
        a, b = gf.compile_plan(opts), gf.compile_plan(opts)
        assert a == b and a.reference is not b.reference
        assert "reference" not in repr(a)


class TestOracleIntermediates:
    def test_run_refuses_to_keep_them(self):
        with pytest.raises(InvalidParameters, match="the oracle keeps no intermediate states"):
            gf.run(3, 4, feedforward=True, backend="oracle", keep_intermediates=True)

    def test_execute_refuses_to_keep_them(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=True))
        with pytest.raises(InvalidParameters, match="the oracle keeps no intermediate states"):
            gf.execute(plan, "oracle", keep_intermediates=True)
        assert gf.execute(plan, "oracle").intermediates == {}


class TestStreaming:
    @staticmethod
    def largest_intermediate(d, n):
        report = gf.run(d, n, backend="element", keep_intermediates=True)
        return max(len(s.terms) for s, _ in report.intermediates.values())

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
            survivors, _ = report.intermediates["j0.step_i"]
            cross = 2 * ((d + 1) // 2) * (d // 2)
            assert len(survivors.terms) == d * d - cross

    @pytest.mark.parametrize("d", [3, 4])
    def test_small_d_stages_remove_exactly_two_terms(self, d):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=4))
        report = gf.execute(plan, backend="rule", keep_intermediates=True)
        counts = [len(report.intermediates["j0.step_i"][0].terms)]
        for q in range(len(plan.junction_aux_pairs[0])):
            counts.append(len(report.intermediates[f"j0.aux{q}.pas"][0].terms))
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


_MEASURED_KINDS = ("pbs_filter", "aux_interfere", "aux_pas", "reduce")


class TestLabelsFromPlan:
    """Every executor walks ``plan.stages``: a run reports the labels of the
    plan's measuring stages, in plan order, whatever the aux order."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_labels_are_the_measured_stages_in_plan_order(self, d, n):
        rng = random.Random(10 * d + n)
        order = []
        for _ in range(-(n // -2) - 1):
            pairs = analysis.aux_pairs(d)
            rng.shuffle(pairs)
            order.append(pairs)
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n), aux_order=order)
        want = [s.label for s in plan.stages if s.kind in _MEASURED_KINDS]
        for backend in ("rule", "element", "oracle"):
            assert gf.execute(plan, backend).stage_labels == want, backend


class TestEdgeCases:
    def test_two_photon_run_is_the_source(self):
        report = gf.run(4, 2, backend="rule")
        assert report.prob == pytest.approx(1.0)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.trace == []

    def test_three_photon_run(self):
        report = gf.run(3, 3, feedforward=True, backend="rule")
        assert report.prob == pytest.approx(
            float(analysis.predicted_prob_for_options(3, 3, True)), abs=1e-12
        )
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

    @pytest.mark.parametrize(
        "name, result, last_label",
        [
            ("postselect_coincidence", (states.PhotonicState({}), 0.0), "j0.step_i"),
            ("pas_pair_analysis", (None, 0.0, 0.0), "j0.aux0.pas"),
        ],
        ids=["selection-empties", "pair-analysis-empties"],
    )
    def test_an_element_run_that_empties_stops_with_an_empty_report(
        self, monkeypatch, name, result, last_label
    ):
        monkeypatch.setattr(measurement, name, lambda *args: result)
        report = gf.execute(gf.compile_plan(gf.ProtocolOptions(d=3, n=4)), "element")
        assert report.stage_labels[-1] == last_label and report.trace[-1] == 0.0
        assert report.final_state.is_empty
        assert (report.prob, report.prob_filtered, report.prob_feedforward) == (0.0, 0.0, 0.0)
        assert report.fidelity == 0.0 and not report.matches


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

        dist = gf.fourier_measure_path(even.final_state, [0, 1, 2])
        rule = measurement.fourier_feedforward_rule([3, 4, 5])
        reference = gf.ghz_reference(3, 3, [[3, 4, 5], [6, 7, 8], [9, 10, 11]])
        for label, o in dist.items():
            assert o.prob == pytest.approx(1 / 3, abs=1e-9)
            corrected = gf.feedforward(o.state, label, rule)
            assert gf.fidelity(corrected, reference) == pytest.approx(1.0, abs=1e-9)

    def test_non_ghz_input_reported_honestly(self):
        lopsided = gf.make_state(
            [
                (gf.ket((0, "H"), (2, "H"), (4, "H"), (6, "H")), math.sqrt(0.9)),
                (gf.ket((1, "H"), (3, "H"), (5, "H"), (7, "H")), math.sqrt(0.1)),
            ]
        )
        report = gf.reduce_to_odd(lopsided, 2, protocol.SINGLE_OUTCOME)
        assert report.fidelity < 1.0 - 1e-6

    @pytest.mark.parametrize(
        "state",
        [
            states.PhotonicState({}),
            gf.make_state([(gf.ket((0, "H")), 0.6), (gf.ket((1, "H")), 0.8)]),
            gf.run(2, 2, feedforward=True).final_state,
        ],
        ids=["empty", "one-photon", "two-groups"],
    )
    def test_fewer_than_three_photon_groups_rejected(self, monkeypatch, state):
        monkeypatch.setattr(measurement, "fourier_measure_path", None)  # nothing is measured
        with pytest.raises(InvalidParameters, match="three photon port groups"):
            gf.reduce_to_odd(state, 2)

    @pytest.mark.parametrize("d", [2.5, "2", 1, True], ids=["float", "str", "one", "bool"])
    def test_a_d_that_is_not_an_integer_from_two_is_rejected(self, monkeypatch, d):
        even = gf.run(2, 4, feedforward=True).final_state
        monkeypatch.setattr(measurement, "fourier_measure_path", None)  # nothing is measured
        with pytest.raises(InvalidParameters, match="^need integer d >= 2"):
            gf.reduce_to_odd(even, d)

    def test_a_vanishing_single_outcome_reports_zero(self):
        # photon 0 in (|0> - |1>)/sqrt(2) is orthogonal to the uniform outcome
        half = 1 / math.sqrt(2)
        state = gf.make_state([
            (gf.ket((0, "H"), (2, "H"), (4, "H")), half),
            (gf.ket((1, "H"), (2, "H"), (4, "H")), -half),
        ])
        report = gf.reduce_to_odd(state, 2, protocol.SINGLE_OUTCOME)
        assert report.trace == [0.0] and report.final_state.is_empty
        assert (report.prob, report.prob_filtered, report.prob_feedforward) == (0.0, 0.0, 0.0)
        assert report.fidelity == 0.0 and report.prob_matches is False

    def test_a_state_on_some_paths_only_reduces_in_the_layout(self):
        # photon p's path i is port p*d + i whether or not any ket occupies it
        state = gf.make_state([(gf.ket((0, "H"), (2, "H"), (4, "H")), 1.0)])
        report = gf.reduce_to_odd(state, 2, protocol.SINGLE_OUTCOME)
        assert report.prob == pytest.approx(0.5, rel=1e-12)
        assert report.final_state.kets == gf.make_state([(gf.ket((2, "H"), (4, "H")), 1.0)]).kets

    @pytest.mark.parametrize(
        "d, coeffs", [(3, (0.0, 0.6, 0.8)), (4, (0.5**0.5, 0.0, 0.5, 0.5))], ids=["d3", "d4"]
    )
    def test_an_unoccupied_path_reduces_deterministically(self, d, coeffs):
        # no ket occupies path 0 (d = 3) or path 1 (d = 4) of any photon
        even = gf.run(d, 4, feedforward=True, input_coeffs=coeffs).final_state
        report = gf.reduce_to_odd(even, d)
        assert report.prob == pytest.approx(1.0, rel=1e-12) and report.n == 3
        norm = math.sqrt(sum(c**4 for c in coeffs))  # amplitudes follow c_i**2, as in the even state
        got = sorted(abs(a) * norm for a in report.final_state.terms.values())
        assert got == pytest.approx(sorted(c * c for c in coeffs if c), abs=1e-9)

    def test_fourier_branches_that_differ_raise_naming_the_outcome(self):
        # (|0,2> + |0,3> + |1,2>)/sqrt(3) (x) |4>: outcome 0 leaves (2|2> + |3>)/sqrt(5)
        # and outcome 1 leaves -|3> after its correction, so they cannot merge
        third = 1 / math.sqrt(3)
        state = gf.make_state([
            (gf.ket((0, "H"), (2, "H"), (4, "H")), third),
            (gf.ket((0, "H"), (3, "H"), (4, "H")), third),
            (gf.ket((1, "H"), (2, "H"), (4, "H")), third),
        ])
        with pytest.raises(BranchMismatch, match="outcome 1 does not merge"):
            gf.reduce_to_odd(state, 2, protocol.FULL_FOURIER)


def _reference_run_rules(plan, keep_intermediates):
    """The filter-and-renormalise rule loop that the crossing index replaced:
    every helper stage re-filters, re-sums and re-scales every surviving ket."""
    d = plan.d
    opts = plan.options
    source = [
        (i, c)
        for i, c in enumerate(states.validated_coeffs(d, opts.input_coeffs))
        if c != 0.0
    ]
    amps = {(i, i): c + 0j for i, c in source}
    report = protocol.RunReport(
        d, plan.n, "rule", opts.feedforward, plan.predicted, opts.odd_mode,
    )
    intermediates = report.intermediates

    def record(label, tagged, rule):
        if keep_intermediates:
            state = protocol._materialize_paths(
                d, amps, 1.0, present,
                lambda photon, path: rule(path) if photon in tagged else "H",
            )
            intermediates[label] = (state, report.prob)

    def empty():
        return report.finish(states.PhotonicState({}), plan.reference)

    for k in range(plan.epr_pair_count - 1):
        amps = {t + (i, i): a * c for t, a in amps.items() for i, c in source}
        present = range(2 * k + 4)
        ia, ib = 2 * k + 1, 2 * k + 2
        total = sum(abs(a) ** 2 for a in amps.values())
        # the PBS row sends each odd path's V photon to the other port group
        kept = {
            (*t[:ia], t[ib], t[ia], *t[ib + 1:]) if t[ia] % 2 else t: a
            for t, a in amps.items() if t[ia] % 2 == t[ib] % 2
        }
        kept_nsq = sum(abs(a) ** 2 for a in kept.values())
        p1 = kept_nsq / total if total else 0.0
        report.record(f"j{k}.step_i", p1, p1, p1)
        if not kept:
            return empty()
        scale = 1.0 / math.sqrt(kept_nsq)
        amps = {t: a * scale for t, a in kept.items()}
        record(f"j{k}.step_i", {ia, ib}, protocol.parity_rule)
        for q, (i, j) in enumerate(plan.junction_aux_pairs[k]):
            survivors = {
                t: a
                for t, a in amps.items()
                if (t[ia] != j and t[ib] != j) or (t[ia] == j and t[ib] == j)
            }
            surv_nsq = sum(abs(a) ** 2 for a in survivors.values())
            p_coin = 0.5 * surv_nsq
            report.record(f"j{k}.aux{q}.interfere", p_coin, p_coin, p_coin)
            report.record(f"j{k}.aux{q}.pas", 1.0 if opts.feedforward else 0.5, 0.5, 1.0)
            if not survivors:
                return empty()
            scale = 1.0 / math.sqrt(surv_nsq)
            amps = {t: a * scale for t, a in survivors.items()}
            record(f"j{k}.aux{q}.pas", {ia, ib}, lambda path, _j=j: "V" if path == _j else "H")

    if plan.n % 2 == 1:
        p_single = 1.0 / d
        single = plan.options.odd_mode == protocol.SINGLE_OUTCOME
        report.record("reduce", p_single if single else 1.0, p_single, 1.0)
    state = protocol._materialize_paths(
        d, amps, 1.0, plan.output_photons(), lambda photon, path: "H"
    )
    if keep_intermediates:
        intermediates["final"] = (state, report.prob)
    return report.finish(state, plan.reference)


def _close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


def _assert_same_kets(got, want, rel=1e-12):
    assert list(got.terms) == list(want.terms)
    for t, a in want.terms.items():
        assert _close(got.terms[t], a, rel), (t, got.terms[t], a)


@st.composite
def rule_plans(draw):
    d = draw(st.integers(2, 9))
    n = draw(st.integers(2, 9))
    weights = draw(st.lists(st.integers(0, 10), min_size=d, max_size=d))
    if not any(weights):
        weights[draw(st.integers(0, d - 1))] = 1
    norm = math.sqrt(sum(w * w for w in weights))
    opts = gf.ProtocolOptions(
        d=d, n=n, feedforward=draw(st.booleans()),
        input_coeffs=tuple(w / norm for w in weights),
    )
    pairs = analysis.aux_pairs(d)
    order = [draw(st.permutations(pairs)) for _ in range(-(n // -2) - 1)]
    return gf.compile_plan(opts, aux_order=order)


class TestIndexedRuleExecutor:
    """The crossing-index executor against the loop it replaced, and against
    counts and closed forms derived without either."""

    @given(rule_plans())
    def test_matches_filter_and_renormalise_loop(self, plan):
        got = gf.execute(plan, backend="rule", keep_intermediates=True)
        want = _reference_run_rules(plan, keep_intermediates=True)
        assert got.stage_labels == want.stage_labels
        assert len(got.trace) == len(want.trace)
        for p, q in zip(got.trace, want.trace):
            assert _close(p, q), (p, q)
        for p, q in zip(
            (got.prob, got.prob_filtered, got.prob_feedforward),
            (want.prob, want.prob_filtered, want.prob_feedforward),
        ):
            assert _close(p, q), (p, q)
        assert list(got.intermediates) == list(want.intermediates)
        for label, (state, p) in want.intermediates.items():
            got_state, got_p = got.intermediates[label]
            _assert_same_kets(got_state, state)
            assert _close(got_p, p), (label, got_p, p)
        _assert_same_kets(got.final_state, want.final_state)

    @pytest.mark.parametrize("d", [5, 8, 33])
    def test_coincidence_rates_are_survivor_count_ratios(self, d):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=4))
        report = gf.execute(plan, backend="rule")
        kets = [(a, b) for a in range(d) for b in range(d) if a % 2 == b % 2]
        rates = []
        for q, (_, j) in enumerate(plan.junction_aux_pairs[0]):
            after = [(a, b) for a, b in kets if (a == j) == (b == j)]
            expected = Fraction(len(after), 2 * len(kets))
            got = report.trace[report.stage_labels.index(f"j0.aux{q}.interfere")]
            assert abs(Fraction(got) - expected) <= expected / 10**12, (q, got, expected)
            rates.append(expected)
            kets = after
        assert len(kets) == d
        if d == 5:
            assert rates == [Fraction(9, 26), Fraction(7, 18), Fraction(1, 2), Fraction(5, 14)]

    def test_probabilities_match_closed_form_across_grid(self):
        # cells whose exact probability is below the smallest normal float
        # are left out: the float stage product loses digits there
        checked = 0
        for d in (2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 40, 64):
            for n in (4, 5, 8, 10):
                if d * n > 400:
                    continue
                for feedforward in (False, True):
                    exact = analysis.predicted_prob_for_options(d, n, feedforward)
                    if exact < sys.float_info.min:
                        continue
                    report = gf.run(d, n, feedforward=feedforward, backend="rule")
                    assert abs(Fraction(report.prob) - exact) <= exact / 10**12, (
                        d, n, feedforward, report.prob, float(exact),
                    )
                    checked += 1
        assert checked == 89

    def test_long_chain_keeps_normalised_amplitudes(self):
        # 1099 junctions each halve the squared norm; the carried scale
        # renormalises at every source, so nothing underflows (the float
        # probability itself does, see the closed-form grid above)
        report = gf.run(2, 2200, backend="rule")
        amps = list(report.final_state.terms.values())
        assert amps == pytest.approx([2**-0.5, 2**-0.5], rel=1e-12)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_large_d_run_matches_closed_form(self):
        report = gf.run(64, 4, feedforward=True, backend="rule")
        assert report.prob_matches is True
        assert report.fidelity >= 1.0 - 1e-9
        assert len(report.final_state.terms) == 64


class TestPlanPairs:
    """A plan is made from its options and one list of helper pairs per
    junction; it builds its stage list from them, so no stage list outside
    the grammar exists to refuse.  Pairs may come as tuples or as the JSON
    lists of a plan export; anything else is refused when the plan is made."""

    @pytest.mark.parametrize(
        "d, n, feedforward, order",
        [(3, 4, False, None), (4, 6, True, [[(1, 3), (0, 2)], [(0, 2), (1, 3)]]),
         (5, 7, True, None), (2, 5, False, None)],
    )
    def test_an_exported_pair_list_rebuilds_the_plan(self, d, n, feedforward, order):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward), order)
        exported = plan.to_jsonable()["junction_aux_pairs"]
        rebuilt = protocol.ProtocolPlan(plan.options, exported)
        assert rebuilt == plan
        assert rebuilt.to_jsonable() == plan.to_jsonable()
        assert rebuilt.stages == plan.stages
        assert gf.compile_plan(plan.options, aux_order=exported) == plan

    @pytest.mark.parametrize(
        "pairs",
        [[[[0]]], [[None]], [[[0, 1]]], [[[0, 4]]], [(0, 2)], [[(0, 2)], [(0, 2)]], [], None],
        ids=["short-pair", "none-pair", "cross-parity-pair", "pair-past-d",
             "junction-not-a-list", "junction-past-n", "junction-missing", "no-pair-lists"],
    )
    def test_a_bad_pair_list_is_refused(self, pairs):
        opts = gf.ProtocolOptions(d=3, n=4)
        message = (
            "^junction_aux_pairs needs a list of same-parity path pairs of d = 3 per junction, "
            "1 in all$"
        )
        with pytest.raises(InvalidParameters, match=message):
            protocol.ProtocolPlan(opts, pairs)
        with pytest.raises(InvalidParameters, match=message):
            dataclasses.replace(gf.compile_plan(opts), junction_aux_pairs=pairs)
        if pairs is not None:  # compile_plan reads None as the default order
            with pytest.raises(InvalidParameters, match="^aux_order must permute"):
                gf.compile_plan(opts, aux_order=pairs)


@dataclass
class _EagerStage:
    label: str
    kind: str
    steps: list
    junction: int | None = None
    aux_pair: tuple[int, int] | None = None
    info: dict = field(default_factory=dict)


def _reference_compile_plan(options, aux_order=None):
    """The eager compiler that plan geometry replaced: every stage carries
    its optical steps, built once when the plan is compiled."""
    d, n = options.d, options.n
    coeffs = states.validated_coeffs(d, options.input_coeffs)
    m = -(n // -2)
    default_pairs = analysis.aux_pairs(d)
    junctions = m - 1
    if aux_order is None:
        junction_pairs = [list(default_pairs) for _ in range(junctions)]
    else:
        junction_pairs = [list(p) for p in aux_order]

    def ports(photon):
        return [photon * d + i for i in range(d)]

    def source(s):
        return gf.Inject(gf.make_state([
            (gf.ket((a, "H"), (b, "H")), c)
            for a, b, c in zip(ports(2 * s), ports(2 * s + 1), coeffs) if abs(c) >= states.EPS
        ]))

    stages = [_EagerStage("sources", "sources", [source(s) for s in range(min(m, 2))])]

    next_port = 2 * m * d
    pas_mode = "feedforward" if options.feedforward else "filtered"
    for k in range(junctions):
        if k > 0:
            stages.append(_EagerStage(f"j{k}.source", "sources", [source(k + 1)], junction=k))
        pa, pb = ports(2 * k + 1), ports(2 * k + 2)
        odd_paths = [p for p in range(d) if p % 2 == 1]
        tag = [gf.HWP(pa[p], protocol._TAG) for p in odd_paths] + [
            gf.HWP(pb[p], protocol._TAG) for p in odd_paths
        ]
        stages.append(_EagerStage(f"j{k}.step_i_tag", "tag", list(tag), junction=k))
        filter_steps = [gf.PBS(pa[p], pb[p]) for p in range(d)]
        filter_steps.append(
            CoincidenceSelect(CoincidencePattern((tuple(pa), tuple(pb))))
        )
        stages.append(_EagerStage(f"j{k}.step_i", "pbs_filter", filter_steps, junction=k))
        stages.append(_EagerStage(f"j{k}.step_i_untag", "tag", list(tag), junction=k))

        for q, (i, j) in enumerate(junction_pairs[k]):
            px = {i: next_port, j: next_port + 1}
            py = {i: next_port + 2, j: next_port + 3}
            ma, mx, mb, my = (next_port + 4, next_port + 5, next_port + 6, next_port + 7)
            ax, ay = next_port + 8, next_port + 9
            next_port += 10
            info = {
                "ports_x": dict(px), "ports_y": dict(py),
                "analysis_ports": (ax, ay),
            }
            inject = [
                gf.HWP(pa[j], protocol._TAG),
                gf.HWP(pb[j], protocol._TAG),
                gf.Inject(gf.make_state([
                    (gf.ket((px[i], "H"), (py[i], "H")), 1 / math.sqrt(2)),
                    (gf.ket((px[j], "V"), (py[j], "V")), 1 / math.sqrt(2)),
                ])),
            ]
            interfere = [
                gf.BDMerge(pa[i], pa[j], ma),
                gf.BDMerge(px[i], px[j], mx),
                gf.BDMerge(pb[i], pb[j], mb),
                gf.BDMerge(py[i], py[j], my),
                gf.PBS(ma, mx),
                gf.PBS(mb, my),
                gf.BDSplit(ma, pa[i], pa[j]),
                gf.BDSplit(mx, px[i], px[j]),
                gf.BDSplit(mb, pb[i], pb[j]),
                gf.BDSplit(my, py[i], py[j]),
                CoincidenceSelect(
                    CoincidencePattern(
                        (tuple(pa), (px[i], px[j]), tuple(pb), (py[i], py[j]))
                    )
                ),
            ]
            analysis_steps = [
                gf.BDMerge(px[i], px[j], ax),
                gf.BDMerge(py[i], py[j], ay),
                gf.HWP(ax, protocol._DIAGONAL),
                gf.HWP(ay, protocol._DIAGONAL),
            ]
            pas = [PasPairSelect(ax, ay, pas_mode, correction_port=pa[j])]
            untag = [gf.HWP(pa[j], protocol._TAG), gf.HWP(pb[j], protocol._TAG)]
            for suffix, kind, steps in (
                ("inject", "aux_inject", inject), ("interfere", "aux_interfere", interfere),
                ("analysis", "aux_analysis", analysis_steps), ("pas", "aux_pas", pas),
                ("untag", "tag", untag),
            ):
                stages.append(_EagerStage(f"j{k}.aux{q}.{suffix}", kind, steps,
                                          junction=k, aux_pair=(i, j), info=info))

    if n % 2 == 1:
        stages.append(
            _EagerStage("reduce", "reduce", [],
                        info={"mode": options.odd_mode, "ports": ports(0)})
        )
    return stages


@st.composite
def geometry_cases(draw):
    d = draw(st.integers(2, 7))
    n = draw(st.integers(2, 9))
    coeffs = None
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 10), min_size=d, max_size=d))
        norm = math.sqrt(sum(w * w for w in weights))
        coeffs = tuple(w / norm for w in weights)
    opts = gf.ProtocolOptions(
        d=d, n=n, feedforward=draw(st.booleans()),
        odd_n_mode=draw(st.sampled_from([protocol.SINGLE_OUTCOME, protocol.FULL_FOURIER])),
        input_coeffs=coeffs,
    )
    pairs = analysis.aux_pairs(d)
    order = [draw(st.permutations(pairs)) for _ in range(-(n // -2) - 1)]
    return opts, order


class TestPlanGeometry:
    """A plan holds geometry; ``stage_steps`` builds the optics the eager
    compiler used to store on each stage."""

    @given(geometry_cases())
    def test_stage_steps_equal_the_eager_compiler(self, case):
        opts, order = case
        plan = gf.compile_plan(opts, aux_order=order)
        want = _reference_compile_plan(opts, aux_order=order)
        assert [(s.label, s.kind, s.junction, s.aux_pair) for s in plan.stages] == [
            (s.label, s.kind, s.junction, s.aux_pair) for s in want
        ]
        for stage, eager in zip(plan.stages, want):
            assert plan.stage_steps(stage) == eager.steps, stage.label
        assert plan.circuit_steps() == [step for s in want for step in s.steps]
        if opts.n % 2 == 1:
            assert plan.options.odd_mode == want[-1].info["mode"]

    @pytest.mark.parametrize(
        "d, n, feedforward, coeffs",
        [(3, 4, False, None), (5, 7, True, None), (16, 14, False, None),
         (3, 5, True, (0.6, 0.8, 0.0))],
    )
    def test_rule_path_builds_no_optics(self, monkeypatch, d, n, feedforward, coeffs):
        def forbidden(*args, **kwargs):
            raise AssertionError("the rule path built optics")

        monkeypatch.setattr(protocol.ProtocolPlan, "stage_steps", forbidden)
        for module in (elements, measurement):
            for name, obj in list(vars(module).items()):
                if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                monkeypatch.setattr(module, name, forbidden)
                if getattr(protocol, name, None) is obj:
                    monkeypatch.setattr(protocol, name, forbidden)
        opts = gf.ProtocolOptions(d=d, n=n, feedforward=feedforward, input_coeffs=coeffs)
        plan = gf.compile_plan(opts)
        report = gf.execute(plan, backend="rule")
        assert report.stage_labels
        if coeffs is None:
            assert report.prob_matches is True
        with pytest.raises(AssertionError, match="built optics"):
            plan.circuit_steps()


def _count_stage_steps(monkeypatch):
    """Count calls of ``ProtocolPlan.stage_steps`` by stage label."""
    calls: list[str] = []
    original = protocol.ProtocolPlan.stage_steps

    def counted(self, stage):
        calls.append(stage.label)
        return original(self, stage)

    monkeypatch.setattr(protocol.ProtocolPlan, "stage_steps", counted)
    return calls


class TestOnceBuiltOptics:
    """A plan builds its optics on first element use and keeps them."""

    @pytest.mark.parametrize(
        "d, n, feedforward", [(3, 4, False), (3, 6, True), (4, 7, True), (5, 4, False)]
    )
    def test_two_element_executes_agree_and_build_once(self, monkeypatch, d, n, feedforward):
        calls = _count_stage_steps(monkeypatch)
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        assert calls == []
        first = gf.execute(plan, "element")
        second = gf.execute(plan, "element")
        assert first.prob_matches and first.fidelity_matches
        assert second.to_jsonable() == first.to_jsonable()
        assert list(second.final_state.terms.items()) == list(first.final_state.terms.items())
        assert calls == [s.label for s in plan.stages]
        plan.to_jsonable()  # circuit export reads the same table
        assert calls == [s.label for s in plan.stages]

    def test_optics_hold_each_stage_steps_and_unitarity(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=4, n=7, feedforward=True))
        assert len(plan.optics) == len(plan.stages)
        for stage, (steps, unitary) in zip(plan.stages, plan.optics):
            assert list(steps) == plan.stage_steps(stage), stage.label
            assert unitary == all(isinstance(s, elements.NORM_PRESERVING) for s in steps)
        kinds = {s.kind: u for s, (_, u) in zip(plan.stages, plan.optics)}
        assert kinds["tag"] and kinds["aux_analysis"]
        assert not (kinds["sources"] or kinds["pbs_filter"] or kinds["aux_interfere"])

    @pytest.mark.parametrize(
        "d, n, feedforward", [(3, 4, False), (3, 5, True), (4, 6, False), (2, 3, True)]
    )
    def test_rule_and_oracle_never_build_optics(self, monkeypatch, d, n, feedforward):
        calls = _count_stage_steps(monkeypatch)
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        assert gf.execute(plan, "rule").matches
        assert gf.execute(plan, "oracle").matches
        assert calls == []
        assert "optics" not in vars(plan)


class TestWorkCounts:
    """Kets each element kernel receives over one element ``execute`` with
    the default aux order: a deterministic measure of work, which host noise
    cannot hide.  More work fails; less work is a gain to record with its
    new counts."""

    KERNELS = (
        (elements, "_relabel"),
        (elements, "_apply_mode_linear_map"),
        (measurement, "postselect_coincidence"),
        (measurement, "pas_pair_analysis"),
    )

    @pytest.mark.parametrize(
        "d, n, feedforward, counts",
        [
            (4, 4, True, (262, 174, 44, 40)),
            (8, 4, True, (1848, 2104, 480, 736)),
            (5, 7, False, (1581, 1092, 291, 336)),
        ],
    )
    def test_kets_per_kernel_are_pinned(self, monkeypatch, d, n, feedforward, counts):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        seen = dict.fromkeys((name for _, name in self.KERNELS), 0)

        def counting(name, fn):
            def wrapper(state, *args, **kwargs):
                seen[name] += len(state.kets)
                return fn(state, *args, **kwargs)
            return wrapper

        for module, name in self.KERNELS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert gf.execute(plan, "element").matches
        assert tuple(seen.values()) == counts
        assert sum(counts) == {(4, 4): 520, (8, 4): 5168, (5, 7): 3300}[d, n]
