import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ghzforge as gf
from ghzforge import analysis, cli, golden, protocol, states
from ghzforge.errors import InvalidCoefficients, InvalidParameters, OracleTooLarge


class TestGhzReference:
    def test_three_photon_qubit(self):
        s = gf.ghz_reference(2, 3)
        assert len(s.terms) == 2
        assert s.amplitude(gf.ket((0, "H"), (2, "H"), (4, "H"))) == pytest.approx(
            1 / math.sqrt(2)
        )

    def test_four_photon_qutrit_target(self):
        s = gf.ghz_reference(3, 4)
        assert len(s.terms) == 3
        assert s.amplitude(
            gf.ket((2, "H"), (5, "H"), (8, "H"), (11, "H"))
        ) == pytest.approx(1 / math.sqrt(3))

    def test_two_photon_case_is_pair_source(self):
        ref = gf.ghz_reference(4, 2)
        plan = protocol.compile_plan(protocol.ProtocolOptions(d=4, n=2))
        (inject,) = plan.stage_steps(plan.stages[0])
        src = inject.state
        assert gf.fidelity(src, ref) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameters):
            gf.ghz_reference(1, 4)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_equals_the_ket_by_ket_construction(self, d):
        """Key for key, in order and to the bit, against ``make_state`` of
        ``ket`` terms, on the default groups and on each plan's output groups,
        and so is the reference the plan built."""
        for n in range(2, 13):
            plan = protocol.compile_plan(protocol.ProtocolOptions(d=d, n=n, feedforward=True))
            for groups in (None, plan.output_port_groups()):
                built = gf.ghz_reference(d, n, groups)
                nested = _nested_reference(d, n, groups)
                assert list(built.kets) == list(nested.kets), (d, n, groups)
                assert [repr(a) for a in built.kets.values()] == [
                    repr(a) for a in nested.kets.values()
                ], (d, n, groups)
                assert all(type(a) is complex for a in built.kets.values())
            assert list(plan.reference.kets.items()) == list(built.kets.items())

    @pytest.mark.parametrize(
        "groups",
        [[[0, 1], [0, 1]], [[0, 1], [1, 0]], [[0, 1], [2, 1]], [[0, 0], [1, 2]]],
        ids=["same-group-twice", "swapped", "one-port-shared", "repeated-in-a-group"],
    )
    def test_groups_sharing_a_port_are_rejected(self, groups):
        with pytest.raises(InvalidParameters, match="must not share a port"):
            gf.ghz_reference(2, 2, groups)

    @pytest.mark.parametrize("port", [-1, True, "3", 2.0, None])
    def test_a_bad_port_keeps_the_mode_error(self, port):
        with pytest.raises(ValueError) as want:
            states.mode(port, states.H)
        with pytest.raises(ValueError) as got:
            gf.ghz_reference(2, 2, [[0, 1], [port, 5]])
        assert str(got.value) == str(want.value)
        assert "port must be a non-negative integer" in str(got.value)

    def test_a_bad_port_is_reported_before_a_shared_one(self):
        with pytest.raises(ValueError, match="got -1"):
            gf.ghz_reference(2, 2, [[0, 1], [0, -1]])

    def test_wrong_group_shape(self):
        with pytest.raises(InvalidParameters, match="d paths"):
            gf.ghz_reference(2, 2, [[0, 1], [2]])
        with pytest.raises(InvalidParameters, match="d paths"):
            gf.ghz_reference(2, 3, [[0, 1], [2, 3]])


def _nested_reference(d, n, groups):
    """The GHZ reference built ket by ket, each ``ket`` validated twice."""
    groups = groups if groups is not None else analysis.default_port_groups(d, n)
    return states.make_state(
        [(gf.ket(*((g[i], states.H) for g in groups)), 1.0 / math.sqrt(d)) for i in range(d)]
    )


class TestFidelity:
    def test_self_fidelity(self):
        assert gf.fidelity(gf.ghz_reference(3, 4), gf.ghz_reference(3, 4)) == pytest.approx(1.0)

    def test_sign_twisted_overlap_one_ninth(self):
        kets = []
        for i, sign in ((0, 1.0), (1, 1.0), (2, -1.0)):
            kets.append(
                (
                    gf.ket((i, "H"), (3 + i, "H"), (6 + i, "H"), (9 + i, "H")),
                    sign / math.sqrt(3),
                )
            )
        twisted = gf.make_state(kets)
        assert gf.fidelity(twisted, gf.ghz_reference(3, 4)) == pytest.approx(1 / 9, abs=1e-12)

    def test_single_branch_overlap(self):
        branch = gf.make_state(
            [(gf.ket((0, "H"), (3, "H"), (6, "H"), (9, "H")), 1.0)]
        )
        assert gf.fidelity(branch, gf.ghz_reference(3, 4)) == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_state_fidelity_zero(self):
        from ghzforge.states import PhotonicState

        assert gf.fidelity(PhotonicState({}), gf.ghz_reference(2, 2)) == 0.0


def _eta_product_by_sets(d):
    """eta_product_exact as two Python sets of stage factors: the reference
    that the interval cancellation must equal."""
    n_stages = gf.aux_count(d, 4)
    survivors = d * d - 2 * ((d + 1) // 2) * (d // 2)
    num = set(range(survivors - 2, survivors - 2 * n_stages - 1, -2))
    den = set(range(survivors, survivors - 2 * n_stages + 1, -2))
    return analysis.eta1_exact(d) * Fraction(
        math.prod(num - den), math.prod(den - num) << n_stages
    )


class TestResourceFormulas:
    @pytest.mark.parametrize(
        "d,n,expected",
        [(3, 4, 1), (2, 4, 0), (2, 8, 0), (5, 8, 12), (5, 6, 8), (4, 6, 4)],
    )
    def test_aux_count(self, d, n, expected):
        assert gf.aux_count(d, n) == expected

    def test_pair_list_matches_count(self):
        # the enumeration, the closed form and the binomial form agree, and the
        # list comes in the documented order, built afresh on every call
        for d in range(2, 301):
            pairs = gf.aux_pairs(d)
            binomial = math.comb((d + 1) // 2, 2) + math.comb(d // 2, 2)
            assert len(pairs) == gf.aux_count(d, 4) == binomial
            assert all(i < j and i % 2 == j % 2 for i, j in pairs)
            assert len(set(pairs)) == len(pairs)
            assert pairs == sorted(pairs, key=lambda p: (p[0] % 2, p))
            again = gf.aux_pairs(d)
            assert again == pairs and again is not pairs

    def test_eta1_walkthrough_value(self):
        assert analysis.eta1_exact(3) == Fraction(5, 9)
        assert float(analysis.eta1_exact(2)) == 0.5

    def test_eta2_walkthrough_value(self):
        assert next(analysis.eta2_exact(3)) == Fraction(3, 10)

    def test_eta2_out_of_range(self):
        # d = 3 has one helper stage, so no rate for a stage 2; a bad d
        # raises at the call, before any rate is asked for
        assert list(analysis.eta2_exact(3)) == [Fraction(3, 10)]
        with pytest.raises(InvalidParameters):
            analysis.eta2_exact(1)

    @pytest.mark.parametrize(
        "d,n,ff,expected",
        [
            (3, 4, True, Fraction(1, 6)),
            (3, 4, False, Fraction(1, 12)),
            (2, 8, True, Fraction(1, 8)),
            (4, 6, True, Fraction(1, 256)),
            (3, 6, True, Fraction(1, 36)),
            (2, 4, False, Fraction(1, 2)),
            # odd n with the default mode, which follows the feedforward flag
            (3, 5, True, Fraction(1, 36)),
            (3, 5, False, Fraction(1, 432)),
        ],
    )
    def test_predicted_prob(self, d, n, ff, expected):
        assert analysis.predicted_prob_for_options(d, n, ff) == expected

    @pytest.mark.parametrize(
        "ff,odd_mode,expected",
        [
            (True, "single_outcome", Fraction(1, 108)),
            (False, "full_fourier", Fraction(1, 144)),
        ],
    )
    def test_predicted_prob_mixed_odd_mode(self, ff, odd_mode, expected):
        assert analysis.predicted_prob_for_options(3, 5, ff, odd_mode) == expected

    def test_identity_suite_exact_up_to_128(self):
        for d in range(2, 129):
            n4 = gf.aux_count(d, 4)
            assert -((d * (d - 2)) // -4) == len(gf.aux_pairs(d))
            e1 = analysis.eta1_exact(d)
            assert e1 - Fraction(2 * n4, d * d) == Fraction(1, d)
            assert analysis.eta_product_exact(d) == Fraction(1, 2**n4 * d)

    def test_eta_product_matches_stagewise_fractions(self):
        # the cancelled quotient agrees with per-stage multiplication; all of
        # 2..128 would take seconds, so the wide end is sampled
        for d in [*range(2, 41), 64, 97, 127, 128]:
            product = analysis.eta1_exact(d)
            for rate in analysis.eta2_exact(d):
                product *= rate
            assert analysis.eta_product_exact(d) == product

    def test_telescoped_product_beyond_verify_range(self):
        for d in range(129, 301):
            assert analysis.eta_product_exact(d) == Fraction(1, 2 ** gf.aux_count(d, 4) * d)

    def test_extra_stage_fails_the_telescope_check(self, monkeypatch, capsys):
        # one stage too many at d = 5 must break the identity that verify reports
        real = analysis.aux_count
        monkeypatch.setattr(
            analysis, "aux_count", lambda d, n: real(d, n) + (d == 5) * analysis.junction_count(n)
        )
        by_name = {c.name: c for c in golden.identity_checks()}
        assert not by_name["identities: telescoped stage product"].passed
        assert not by_name["identities: pair count, binomial vs ceiling"].passed
        assert cli.main(["verify"]) == 1
        assert "FAIL  identities: telescoped stage product" in capsys.readouterr().out

    @given(
        st.integers(-40, 40), st.integers(0, 30), st.sampled_from([2, -2]),
        st.integers(-40, 40), st.integers(0, 30), st.sampled_from([2, -2]),
    )
    def test_cancellation_matches_set_differences(self, a, m, sa, b, k, sb):
        # stride-2 progressions that may reach 0, go negative or be empty
        num, den = range(a, a + sa * m, sa), range(b, b + sb * k, sb)
        assert analysis._cancel_shared(num, den) == (
            math.prod(set(num) - set(den)), math.prod(set(den) - set(num))
        )

    @pytest.mark.parametrize(
        "num, den, expected",
        [
            # same parity, shared 5..9: each side keeps what lies outside it
            (range(1, 12, 2), range(5, 10, 2), (1 * 3 * 11, 1)),
            # same parity but disjoint: nothing cancels
            (range(1, 6, 2), range(9, 14, 2), (1 * 3 * 5, 9 * 11 * 13)),
            # different parities never share a value
            (range(2, 9, 2), range(3, 10, 2), (2 * 4 * 6 * 8, 3 * 5 * 7 * 9)),
            # an empty side has product 1 and leaves the other whole
            (range(4, 4, 2), range(2, 7, 2), (1, 2 * 4 * 6)),
            (range(2, 7, 2), range(8, 8, -2), (2 * 4 * 6, 1)),
            # through 0: a shared 0 cancels, a 0 on one side only makes its
            # product 0
            (range(-4, 5, 2), range(-2, 3, 2), (-4 * 4, 1)),
            (range(-4, 3, 2), range(-2, 5, 2), (-4, 4)),
            (range(-2, 3, 2), range(2, 7, 2), (0, 4 * 6)),
            # steps of -2 on either side, or both, as eta_product_exact passes
            (range(10, 0, -2), range(12, 2, -2), (2, 12)),
            (range(10, 0, -2), range(4, 13, 2), (2, 12)),
            (range(3, -4, -2), range(-3, 4, 2), (1, 1)),
        ],
    )
    def test_cancellation_examples(self, num, den, expected):
        assert analysis._cancel_shared(num, den) == expected

    def test_eta_product_matches_set_reference(self):
        for d in range(2, 301):
            assert analysis.eta_product_exact(d) == _eta_product_by_sets(d)

    def test_identity_checks_leave_no_memory_behind(self):
        # nothing may keep what verify's identity checks compute: in a fresh
        # interpreter, under 1 MiB is still allocated once they return
        src = str(Path(gf.__file__).resolve().parents[1])
        code = (
            "import tracemalloc\n"
            "from ghzforge import golden\n"
            "tracemalloc.start()\n"
            "assert all(c.passed for c in golden.identity_checks())\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2**20

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 17, 32, 64])
    def test_resource_summary_eta2_values_are_stage_fractions(self, d, capsys):
        # stage k keeps s - 2k of the s - 2(k-1) terms left, and halves them,
        # where s counts the parity-filter survivors
        survivors = sum(1 for i in range(d) for j in range(d) if i % 2 == j % 2)
        stages = sum(1 for i in range(d) for j in range(i + 1, d) if i % 2 == j % 2)
        expected = tuple(
            float(Fraction(survivors - 2 * k, 2 * (survivors - 2 * (k - 1))))
            for k in range(1, stages + 1)
        )
        assert cli.main(["plan", "--d", str(d), "--n", "4", "--format", "json"]) == 0
        assert tuple(json.loads(capsys.readouterr().out)["eta2"]) == expected
        assert tuple(float(rate) for rate in analysis.eta2_exact(d)) == expected


class TestOracle:
    def test_qutrit_chain(self):
        rep = gf.run(3, 4, feedforward=True, backend="oracle")
        assert rep.prob == pytest.approx(1 / 6, abs=1e-12)
        assert rep.prob_filtered == pytest.approx(1 / 12, abs=1e-12)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_qubit_chain(self):
        rep = gf.run(2, 4, feedforward=True, backend="oracle")
        assert rep.prob == pytest.approx(0.5, abs=1e-12)
        assert gf.fidelity(rep.final_state, gf.ghz_reference(2, 4)) == pytest.approx(1.0)

    def test_six_photon_qutrit(self):
        rep = gf.run(3, 6, feedforward=True, backend="oracle")
        assert rep.prob == pytest.approx(1 / 36, abs=1e-12)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_size_bound(self):
        with pytest.raises(OracleTooLarge):
            gf.run(5, 4, feedforward=True, backend="oracle")
        with pytest.raises(OracleTooLarge):
            gf.run(3, 8, feedforward=True, backend="oracle")

    @pytest.mark.parametrize(
        "coeffs, message",
        [([1.0], "need 3 coefficients, got 1"), ([1, 1, 1], "squared coefficients"),
         ([float("nan"), 0, 0], "finite")],
        ids=["too-few", "not-normalised", "nan"],
    )
    def test_coefficients_checked_as_on_the_other_backends(self, coeffs, message):
        with pytest.raises(InvalidCoefficients, match=message):
            gf.run(3, 4, feedforward=True, backend="oracle", input_coeffs=coeffs)
        with pytest.raises(InvalidCoefficients, match=message):
            gf.run(3, 4, backend="rule", input_coeffs=coeffs)

    @pytest.mark.parametrize("n", [4, 5])
    def test_unknown_odd_mode_rejected_everywhere(self, n):
        with pytest.raises(InvalidParameters, match="unknown odd-n mode 'bogus'"):
            gf.run(3, n, feedforward=True, backend="oracle", odd_n_mode="bogus")
        with pytest.raises(InvalidParameters, match="unknown odd-n mode 'bogus'"):
            analysis.predicted_prob_for_options(3, n, True, "bogus")
        with pytest.raises(InvalidParameters, match="unknown odd-n mode 'bogus'"):
            gf.run(3, n, backend="rule", odd_n_mode="bogus")

    @pytest.mark.parametrize("ff", [True, False])
    @pytest.mark.parametrize("mode", [None, gf.SINGLE_OUTCOME, gf.FULL_FOURIER])
    def test_odd_mode_read_alike_by_oracle_and_prediction(self, ff, mode):
        rep = gf.run(3, 5, feedforward=ff, backend="oracle", odd_n_mode=mode)
        assert rep.predicted == analysis.predicted_prob_for_options(3, 5, ff, mode)
        assert rep.prob_matches is True
        assert rep.prob == pytest.approx(gf.run(3, 5, ff, odd_n_mode=mode).prob, rel=1e-12)

    def test_trace_product_is_total(self):
        rep = gf.run(3, 5, feedforward=False, backend="oracle")
        product = 1.0
        for p in rep.trace:
            product *= p
        assert product == pytest.approx(rep.prob, abs=1e-12)

    def test_oracle_honours_the_plan_aux_order(self):
        # reversed at (4, 4) with uneven coefficients, the two helper stages
        # remove different weight, so a default-order oracle traces
        # 0.6152, 0.495936, 0.5, 0.40413, 0.5 against the plan's order
        opts = gf.ProtocolOptions(
            d=4, n=4, input_coeffs=(0.1, 0.3, 0.5, math.sqrt(0.65))
        )
        plan = gf.compile_plan(opts, aux_order=[[(1, 3), (0, 2)]])
        rule, oracle = gf.execute(plan, "rule"), gf.execute(plan, "oracle")
        assert oracle.stage_labels == rule.stage_labels
        assert oracle.trace[1] == pytest.approx(0.404909, abs=1e-6)
        for p, q in zip(oracle.trace, rule.trace):
            assert p == pytest.approx(q, rel=1e-12)

    def test_a_long_helper_chain_does_not_underflow(self):
        # the (3, 4, ff) helper pair 700 times over: the probability falls
        # to about 6e-212, and amplitudes damped at every stage would reach 0
        opts = gf.ProtocolOptions(d=3, n=4, feedforward=True)
        long = protocol.ProtocolPlan(opts, [[(0, 2)] * 700])
        rule, oracle = gf.execute(long, "rule"), gf.execute(long, "oracle")
        assert 0.0 < rule.prob < 1e-200
        assert states.prob_matches(oracle.prob, rule.prob)
        assert states.states_close(oracle.final_state, rule.final_state)
        assert oracle.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "aux_order",
        [[[(0, 2)]], [[(0, 2), (0, 2)]], [[(0, 2), (1, 3)], [(0, 2)]]],
        ids=["missing-pair", "repeated-pair", "short-junction"],
    )
    def test_aux_order_must_permute_the_pairs(self, aux_order):
        with pytest.raises(InvalidParameters, match="aux_order must permute"):
            opts = gf.ProtocolOptions(d=4, n=6, feedforward=True)
            gf.execute(gf.compile_plan(opts, aux_order=aux_order), "oracle")


_MODES = [None, gf.SINGLE_OUTCOME, gf.FULL_FOURIER]


class TestOneLabelScheme:
    """All three executors record their stages under the plan's labels."""

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("ff", [False, True])
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("d", range(2, 5))
    def test_stage_labels_agree(self, d, n, ff, mode):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=ff, odd_n_mode=mode))
        rule = gf.execute(plan, "rule").stage_labels
        assert gf.execute(plan, "element").stage_labels == rule
        assert gf.execute(plan, "oracle").stage_labels == rule

    @given(st.data())
    def test_rule_and_oracle_agree_stage_by_stage(self, data):
        d, n = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 6))
        weights = data.draw(st.lists(st.integers(0, 10), min_size=d, max_size=d))
        if not any(weights):
            weights[data.draw(st.integers(0, d - 1))] = 1
        norm = math.sqrt(sum(w * w for w in weights))
        opts = gf.ProtocolOptions(
            d=d, n=n, feedforward=data.draw(st.booleans()),
            odd_n_mode=data.draw(st.sampled_from(_MODES)),
            input_coeffs=tuple(w / norm for w in weights),
        )
        order = [
            data.draw(st.permutations(analysis.aux_pairs(d))) for _ in range(-(n // -2) - 1)
        ]
        plan = gf.compile_plan(opts, aux_order=order)
        rule, oracle = gf.execute(plan, "rule"), gf.execute(plan, "oracle")
        assert oracle.stage_labels == rule.stage_labels
        pairs = list(zip(oracle.trace, rule.trace)) + [
            (oracle.prob, rule.prob),
            (oracle.prob_filtered, rule.prob_filtered),
            (oracle.prob_feedforward, rule.prob_feedforward),
        ]
        for p, q in pairs:
            assert abs(p - q) <= 1e-12 * abs(q), (p, q)



class TestResourceSummary:
    # the resource summary is the record `plan` prints; its CSV row is built
    # from the exact formulas in this module
    def test_csv_row_shape(self, capsys):
        assert cli.main(["plan", "--d", "3", "--n", "4", "--format", "csv"]) == 0
        header, row, tail = capsys.readouterr().out.split("\r\n")
        fields = row.split(",")
        assert fields[:4] == ["3", "4", "2", str(analysis.aux_count(3, 4))]
        assert float(fields[4]) == float(analysis.eta1_exact(3)) == pytest.approx(5 / 9)
        assert header.count(",") == row.count(",")
        assert tail == ""
