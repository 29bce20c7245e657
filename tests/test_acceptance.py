"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import ghzforge as gf
from ghzforge import analysis, golden, measurement, protocol, states

from conftest import random_state, raw_amplitudes

TOL = 1e-9


def _announce(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS{'  (' + detail + ')' if detail else ''}")


def test_criterion_1_four_photon_qutrit_golden_run():
    t0 = time.perf_counter()
    plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=False))
    report = gf.execute(plan, backend="element", keep_intermediates=True)

    # five survivors at uniform amplitude after the junction PBS filter
    survivors = raw_amplitudes(report.intermediates["j0.step_i"])
    assert len(survivors.terms) == 5
    assert all(abs(a - 1 / 3) <= TOL for a in survivors.terms.values())
    assert states.states_close(survivors, golden.parity_filter_survivors(), tol=TOL)
    assert abs(report.trace[0] - 5 / 9) <= TOL

    # three survivors after the helper-stage coincidence
    after_aux = raw_amplitudes(report.intermediates["j0.aux0.interfere"])
    assert len(after_aux.terms) == 3
    assert all(abs(abs(a) - math.sqrt(2) / 6) <= TOL for a in after_aux.terms.values())
    assert states.states_close(after_aux, golden.interference_survivors(), tol=TOL)
    assert abs(report.trace[1] - 3 / 10) <= TOL

    # pair-analysis outcome distribution and post-states
    pre_pas, _ = report.intermediates["j0.aux0.analysis"]
    dist = gf.project_polarization_pair(pre_pas, 20, 21)
    for outcome in dist.values():
        assert abs(outcome.prob - 0.25) <= TOL
    reference = gf.ghz_reference(3, 4)
    for label in ("HH", "VV"):
        post = dist[label].state
        for photon in (1, 2):
            post = gf.polarization_tag(
                post, [photon * 3 + i for i in range(3)], lambda p: "H"
            )
        assert gf.fidelity(post, reference) >= 1.0 - TOL

    assert abs(report.prob_filtered - 1 / 12) <= TOL
    assert abs(report.prob_feedforward - 1 / 6) <= TOL
    assert report.fidelity >= 1.0 - TOL
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(
        "1 four-photon qutrit golden run",
        f"trace={[round(p, 6) for p in report.trace]} "
        f"prob=1/12|1/6 fidelity={report.fidelity:.12f} in {elapsed:.3f}s",
    )


def test_criterion_2_qubit_chain_regression():
    details = []
    for n in (4, 6, 8):
        t0 = time.perf_counter()
        report = gf.run(2, n, feedforward=True, backend="rule")
        elapsed = time.perf_counter() - t0
        expected = 1.0 / 2 ** (-(n // -2) - 1)
        assert abs(report.prob - expected) <= TOL
        assert report.fidelity >= 1.0 - TOL
        assert elapsed < 1.0
        details.append(f"n={n}:{report.prob:.6f}@{elapsed * 1e3:.0f}ms")
        if n == 4:
            element = gf.run(2, 4, feedforward=True, backend="element")
            assert abs(element.prob - 0.5) <= TOL
            assert element.fidelity >= 1.0 - TOL
    _announce("2 qubit chain regression", " ".join(details))


def test_criterion_3_closed_form_conformance():
    t0 = time.perf_counter()
    checked = 0
    for d in (2, 3, 4, 5):
        for n in (4, 5, 6, 7, 8):
            report = gf.run(d, n, feedforward=True, backend="rule")
            predicted = float(analysis.predicted_prob_for_options(d, n, True))
            assert abs(report.prob - predicted) <= TOL, (d, n)
            assert report.fidelity >= 1.0 - TOL, (d, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce("3 closed-form conformance", f"{checked} cells in {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    checked = 0
    for d in (2, 3, 4):
        for n in (2, 3, 4, 5, 6):
            rule = gf.run(d, n, feedforward=True, backend="rule")
            oracle = gf.run(d, n, feedforward=True, backend="oracle")
            assert abs(rule.prob - oracle.prob) <= TOL, (d, n)
            assert abs(rule.prob_filtered - oracle.prob_filtered) <= TOL, (d, n)
            assert gf.fidelity(rule.final_state, oracle.final_state) >= 1.0 - TOL, (d, n)
            checked += 1
    element = gf.run(3, 4, feedforward=True, backend="element")
    rule = gf.run(3, 4, feedforward=True, backend="rule")
    oracle = gf.run(3, 4, feedforward=True, backend="oracle")
    assert abs(element.prob - rule.prob) <= TOL
    assert abs(element.prob - oracle.prob) <= TOL
    assert gf.fidelity(element.final_state, rule.final_state) >= 1.0 - TOL
    assert gf.fidelity(element.final_state, oracle.final_state) >= 1.0 - TOL
    _announce("4 oracle equivalence", f"{checked} cells + element cross-check")


def test_criterion_5_formula_identity_suite():
    t0 = time.perf_counter()
    for d in range(2, 129):
        ceiling = -((d * (d - 2)) // -4)
        assert ceiling == len(analysis.aux_pairs(d))
        n4 = gf.aux_count(d, 4)
        e1 = analysis.eta1_exact(d)
        assert e1 - Fraction(2 * n4, d * d) == Fraction(1, d)
        assert analysis.eta_product_exact(d) == Fraction(1, 2**n4 * d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce("5 formula identity suite", f"d=2..128 exact in {elapsed:.3f}s")


def test_criterion_6_odd_photon_reduction():
    details = []
    for d in (2, 3):
        even = gf.run(d, 4, feedforward=True, backend="rule")
        single = gf.reduce_to_odd(even.final_state, d, protocol.SINGLE_OUTCOME)
        assert abs(single.prob - 1.0 / d) <= TOL
        assert single.fidelity >= 1.0 - TOL
        full = gf.reduce_to_odd(even.final_state, d, protocol.FULL_FOURIER)
        assert abs(full.prob - 1.0) <= TOL
        assert full.fidelity >= 1.0 - TOL
        # every Fourier outcome branch must correct to the odd target
        groups = [[p * d + i for i in range(d)] for p in range(4)]
        dist = gf.fourier_measure_path(even.final_state, groups[0])
        rule = measurement.fourier_feedforward_rule(groups[1])
        reference = gf.ghz_reference(d, 3, groups[1:])
        for label, outcome in dist.items():
            assert abs(outcome.prob - 1.0 / d) <= TOL
            corrected = gf.feedforward(outcome.state, label, rule)
            assert gf.fidelity(corrected, reference) >= 1.0 - TOL
        details.append(f"d={d}: single={single.prob:.6f} full={full.prob:.6f}")
    _announce("6 odd-photon reduction", "; ".join(details))


def test_criterion_7_randomized_property_suites():
    cases = 0

    # element unitarity and photon-number conservation (300 cases)
    rng = random.Random(101)
    for _ in range(300):
        s = random_state(rng)
        n_before = s.photon_number()
        pick = rng.randrange(3)
        if pick == 0:
            s2 = gf.apply_pbs(s, rng.randint(0, 3), 4)
        elif pick == 1:
            s2 = gf.apply_hwp(s, rng.randint(0, 3), rng.uniform(-3, 3))
        else:
            s2 = gf.apply_phase(s, rng.randint(0, 3), rng.uniform(-6, 6))
        assert abs(s2.norm_sq() - 1.0) <= 1e-9
        assert all(sum(c for _, c in t) == n_before for t in s2.terms)
        cases += 1

    # PBS involution (250 cases)
    rng = random.Random(202)
    for _ in range(250):
        s = random_state(rng)
        back = gf.apply_pbs(gf.apply_pbs(s, 1, 2), 1, 2)
        assert states.states_close(back, s, tol=1e-9)
        cases += 1

    # HWP self-inverse (250 cases)
    rng = random.Random(303)
    for _ in range(250):
        s = random_state(rng)
        theta = rng.uniform(-3, 3)
        port = rng.randint(0, 3)
        back = gf.apply_hwp(gf.apply_hwp(s, port, theta), port, theta)
        assert states.states_close(back, s, tol=1e-9)
        cases += 1

    # measurement outcome probabilities sum to one (250 cases)
    rng = random.Random(404)
    for k in range(250):
        s = random_state(rng, max_port=2, photons=2, allow_multi=False)
        if k % 2 == 0:
            pair = gf.make_state(
                [
                    (gf.ket((8, "H"), (9, "H")), math.sqrt(0.3)),
                    (gf.ket((8, "H"), (9, "V")), math.sqrt(0.2)),
                    (gf.ket((8, "V"), (9, "V")), math.sqrt(0.5)),
                ]
            )
            dist = gf.project_polarization_pair(gf.tensor(s, pair), 8, 9)
        else:
            d = rng.choice((2, 3))
            path = rng.randrange(d)
            probe = gf.make_state([(gf.ket((8 + path, "H"),), 1.0)])
            dist = gf.fourier_measure_path(gf.tensor(s, probe), list(range(8, 8 + d)))
        assert abs(sum(o.prob for o in dist.values()) - 1.0) <= 1e-9
        for o in dist.values():
            if o.prob > 1e-12:
                assert abs(o.state.norm_sq() - 1.0) <= 1e-9
        cases += 1

    # helper-stage order permutation invariance (30 cases)
    rng = random.Random(505)
    for d in (4, 5):
        opts = gf.ProtocolOptions(d=d, n=4, feedforward=True)
        base = gf.execute(gf.compile_plan(opts), backend="rule")
        for _ in range(15):
            order = analysis.aux_pairs(d)
            rng.shuffle(order)
            report = gf.execute(gf.compile_plan(opts, aux_order=[order]), backend="rule")
            assert abs(report.prob - base.prob) <= 1e-9
            assert gf.fidelity(report.final_state, base.final_state) >= 1.0 - 1e-9
            cases += 1

    assert cases >= 1000
    _announce("7 randomized property suites", f"{cases} cases")
