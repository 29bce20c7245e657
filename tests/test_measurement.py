import cmath
import math
import random

import pytest
from hypothesis import given, strategies as st

import ghzforge as gf
from ghzforge import golden, measurement, states
from ghzforge.errors import BranchMismatch, MissingCorrection, NotSingleOccupancy

from conftest import states_strategy

SQ2 = math.sqrt(2.0)


class TestCoincidence:
    def test_trivially_satisfied_pattern(self):
        s = golden.qutrit_chain_input()
        pattern = measurement.CoincidencePattern(((0, 1, 2),))
        out, p = gf.postselect_coincidence(s, pattern)
        assert p == pytest.approx(1.0)
        assert states.states_close(out, s, tol=1e-12)

    def test_partial_filter_probability_is_kept_fraction(self):
        s = gf.make_state(
            [
                (gf.ket((0, "H"), (1, "H")), 0.6),
                (gf.ket((0, "H"), (0, "V")), 0.8),
            ]
        )
        pattern = measurement.CoincidencePattern(((0,), (1,)))
        out, p = gf.postselect_coincidence(s, pattern)
        assert p == pytest.approx(0.36)
        assert list(out.terms) == [gf.ket((0, "H"), (1, "H"))]
        assert out.norm_sq() == pytest.approx(0.36)  # amplitudes kept as they were

    def test_zero_survivors_report_probability_zero(self):
        s = gf.make_state([(gf.ket((0, "H"), (0, "V")), 1.0)])
        pattern = measurement.CoincidencePattern(((0,), (1,)))
        out, p = gf.postselect_coincidence(s, pattern)
        assert p == 0.0
        assert out.is_empty

    def test_probability_matches_term_enumeration(self):
        # independent oracle: count squared amplitudes by brute force
        rng = random.Random(5)
        for _ in range(50):
            kets = {}
            for _ in range(rng.randint(1, 6)):
                modes = [(rng.randint(0, 3), rng.choice("HV")) for _ in range(2)]
                kets[gf.ket(*modes)] = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            try:
                s = gf.make_state(list(kets.items()))
            except gf.errors.EmptyState:
                continue
            pattern = measurement.CoincidencePattern(((0, 1), (2, 3)))
            _, p = gf.postselect_coincidence(s, pattern)
            total = sum(abs(a) ** 2 for a in s.terms.values())
            kept = 0.0
            for term, amp in s.terms.items():
                per_group = [0, 0]
                for (port, _), count in term:
                    per_group[0 if port in (0, 1) else 1] += count
                if per_group == [1, 1]:
                    kept += abs(amp) ** 2
            assert p == pytest.approx(kept / total, abs=1e-12)

    def test_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            measurement.CoincidencePattern(((0, 1), (1, 2)))


@st.composite
def coincidence_patterns(draw):
    """One to three disjoint port groups over ports 0..5."""
    ports = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    n_groups = draw(st.integers(1, min(3, len(ports))))
    labels = draw(
        st.lists(st.integers(0, n_groups - 1), min_size=len(ports), max_size=len(ports))
    )
    groups = [
        tuple(p for p, g in zip(ports, labels) if g == index)
        for index in range(n_groups)
    ]
    return measurement.CoincidencePattern(tuple(g for g in groups if g))


def reference_postselect(state, pattern):
    """Group photon counts taken ket by ket and group by group."""
    total = state.norm_sq()
    if total <= 0.0:
        return states.PhotonicState({}), 0.0
    kept = {
        term: amp
        for term, amp in state.terms.items()
        if all(
            sum(c for (port, _), c in term if port in set(group)) == 1
            for group in pattern.groups
        )
    }
    prob = sum(abs(a) ** 2 for a in kept.values()) / total
    return states.PhotonicState(kept), prob


class TestCoincidenceMatchesGeneralPath:
    @given(
        states_strategy(max_port=5, max_photons=4, max_terms=8),
        coincidence_patterns(),
    )
    def test_exactly_equal_kept_terms_and_probability(self, s, pattern):
        out, p = gf.postselect_coincidence(s, pattern)
        ref, ref_p = reference_postselect(s, pattern)
        assert list(out.terms.items()) == list(ref.terms.items())
        assert p == ref_p


def reference_project_pair(state, port_x, port_y):
    """Each photon found by its own scan, the reduced ket by a third."""
    def single_mode(term, port):
        found = [(m, c) for m, c in term if m[0] == port]
        if len(found) != 1 or found[0][1] != 1:
            raise NotSingleOccupancy(f"port {port} does not hold exactly one photon")
        return found[0][0]

    total = state.norm_sq()
    buckets = {"HH": {}, "HV": {}, "VH": {}, "VV": {}}
    for term, amp in state.terms.items():
        (_, px) = single_mode(term, port_x)
        (_, py) = single_mode(term, port_y)
        reduced = tuple(m for m in term if m[0][0] not in (port_x, port_y))
        rest = buckets[px + py]
        rest[reduced] = rest.get(reduced, 0j) + amp
    return {
        label: measurement._outcome(states.PhotonicState(terms), total)
        for label, terms in buckets.items()
    }


def pair_result(*args):
    """Outcomes with their kets in order and exact amplitudes, or the error."""
    try:
        dist = args[0](*args[1:])
    except NotSingleOccupancy as exc:
        return str(exc)
    return [
        (label, o.prob, list(o.state.terms.items()))
        for label, o in dist.items()
    ]


@st.composite
def analysed_states(draw):
    """A random state on ports 0-3 next to a random polarization pair on 5, 6."""
    rest = draw(states_strategy(max_port=3, max_photons=3, max_terms=6))
    amps = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4))
    if sum(a * a for a in amps) < 1e-4:
        amps = [1.0, 0.0, 0.0, 0.0]
    scale = 1.0 / math.sqrt(sum(a * a for a in amps))
    pair = gf.make_state([
        (gf.ket((5, px), (6, py)), a * scale)
        for (px, py), a in zip(("HH", "HV", "VH", "VV"), amps) if a != 0.0
    ])
    return gf.tensor(rest, pair)


class TestPolarizationPairMatchesGeneralPath:
    @given(
        analysed_states(),
        st.one_of(
            st.just((5, 6)), st.just((6, 5)), st.just((5, 5)),
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
        ),
    )
    def test_exactly_equal_outcomes_and_errors(self, s, ports):
        port_x, port_y = ports
        assert pair_result(gf.project_polarization_pair, s, port_x, port_y) == (
            pair_result(reference_project_pair, s, port_x, port_y)
        )

    def test_exactly_equal_on_protocol_state(self):
        s = golden.analysis_ready_state()
        got = pair_result(gf.project_polarization_pair, s, 20, 21)
        assert got == pair_result(reference_project_pair, s, 20, 21)
        assert not isinstance(got, str)


class TestPolarizationPair:
    def test_product_state_is_deterministic(self):
        s = gf.make_state([(gf.ket((0, "H"), (1, "H"), (2, "V")), 1.0)])
        dist = gf.project_polarization_pair(s, 0, 1)
        assert dist["HH"].prob == pytest.approx(1.0)
        assert dist["HV"].prob == 0.0
        post = dist["HH"].state
        assert list(post.terms) == [gf.ket((2, "V"))]

    def test_uniform_mixed_pair(self):
        s = gf.make_state(
            [
                (gf.ket((0, "H"), (1, "V"), (5, "H")), 1 / SQ2),
                (gf.ket((0, "V"), (1, "H"), (5, "H")), 1 / SQ2),
            ]
        )
        dist = gf.project_polarization_pair(s, 0, 1)
        assert dist["HV"].prob == pytest.approx(0.5)
        assert dist["VH"].prob == pytest.approx(0.5)
        assert dist["HH"].prob == 0.0

    def test_frozen_analysis_state_gives_quarter_each(self):
        s = golden.analysis_ready_state()
        dist = gf.project_polarization_pair(s, 20, 21)
        for o in dist.values():
            assert o.prob == pytest.approx(0.25, abs=1e-12)
        # matching-polarization outcomes carry the uniform-sign branch
        hh = dist["HH"].state
        signs = sorted(
            round(a.real / abs(a), 6) for a in hh.terms.values()
        )
        assert signs == [1.0, 1.0, 1.0]
        hv = dist["HV"].state
        signs = sorted(round(a.real / abs(a), 6) for a in hv.terms.values())
        assert signs == [-1.0, 1.0, 1.0]

    def test_requires_single_occupancy(self):
        s = gf.make_state([(gf.fock_term([((0, "H"), 2), ((1, "H"), 1)]), 1.0)])
        with pytest.raises(NotSingleOccupancy):
            gf.project_polarization_pair(s, 0, 1)

    def test_pas_step_needs_mode_and_correction_port(self):
        # no default: a forgotten correction port must not mean port 0
        with pytest.raises(TypeError):
            gf.PasPairSelect(3, 4)
        with pytest.raises(TypeError):
            gf.PasPairSelect(3, 4, "feedforward")


class TestFourier:
    def test_qubit_pair_reduces_like_diagonal_measurement(self):
        s = gf.make_state(
            [
                (gf.ket((0, "H"), (2, "H")), 1 / SQ2),
                (gf.ket((1, "H"), (3, "H")), 1 / SQ2),
            ]
        )
        dist = gf.fourier_measure_path(s, [0, 1])
        assert dist["0"].prob == pytest.approx(0.5)
        assert dist["1"].prob == pytest.approx(0.5)
        plus = dist["0"].state
        assert plus.amplitude(gf.ket((2, "H"))) == pytest.approx(
            plus.amplitude(gf.ket((3, "H")))
        )
        minus = dist["1"].state
        assert minus.amplitude(gf.ket((2, "H"))) == pytest.approx(
            -minus.amplitude(gf.ket((3, "H")))
        )

    def test_ghz_outcome_probabilities_uniform(self):
        ghz = gf.ghz_reference(3, 4)
        dist = gf.fourier_measure_path(ghz, [0, 1, 2])
        for o in dist.values():
            assert o.prob == pytest.approx(1 / 3, abs=1e-12)
        assert gf.fidelity(
            dist["0"].state, gf.ghz_reference(3, 3, [[3, 4, 5], [6, 7, 8], [9, 10, 11]])
        ) == pytest.approx(1.0, abs=1e-12)

    def test_outcome_phases_and_conjugate_correction(self):
        # brute-force check: outcome k branch phases undo with -2*pi*k*j/d
        ghz = gf.ghz_reference(3, 4)
        dist = gf.fourier_measure_path(ghz, [0, 1, 2])
        reference = gf.ghz_reference(3, 3, [[3, 4, 5], [6, 7, 8], [9, 10, 11]])
        for k in range(3):
            post = dist[str(k)].state
            # expected branch phase exp(+2*pi*i*j*k/3) on path j
            for j in range(3):
                term = gf.ket((3 + j, "H"), (6 + j, "H"), (9 + j, "H"))
                expected = cmath.exp(2j * math.pi * j * k / 3) / math.sqrt(3)
                assert post.amplitude(term) == pytest.approx(expected, abs=1e-9)
            corrected = post
            for j in range(3):
                corrected = gf.apply_phase(corrected, 3 + j, -2 * math.pi * k * j / 3)
            assert gf.fidelity(corrected, reference) == pytest.approx(1.0, abs=1e-12)

    def test_rule_helper_matches_manual_correction(self):
        ghz = gf.ghz_reference(2, 4)
        dist = gf.fourier_measure_path(ghz, [0, 1])
        rule = measurement.fourier_feedforward_rule([2, 3])
        post = gf.feedforward(dist["1"].state, "1", rule)
        reference = gf.ghz_reference(2, 3, [[2, 3], [4, 5], [6, 7]])
        assert gf.fidelity(post, reference) == pytest.approx(1.0, abs=1e-12)

    def test_multiple_photons_in_group_rejected(self):
        s = gf.make_state([(gf.ket((0, "H"), (1, "H")), 1.0)])
        with pytest.raises(NotSingleOccupancy):
            gf.fourier_measure_path(s, [0, 1])

    def test_nonuniform_polarization_rejected(self):
        s = gf.make_state(
            [
                (gf.ket((0, "H"), (9, "H")), 1 / SQ2),
                (gf.ket((1, "V"), (9, "H")), 1 / SQ2),
            ]
        )
        with pytest.raises(NotSingleOccupancy):
            gf.fourier_measure_path(s, [0, 1])


class TestFeedforward:
    def test_identity_outcome(self):
        s = golden.qutrit_chain_input()
        out = gf.feedforward(s, "HH", {"HH": (), "VV": ()})
        assert states.states_close(out, s, tol=1e-12)

    def test_unmapped_outcome_raises(self):
        s = golden.qutrit_chain_input()
        with pytest.raises(MissingCorrection):
            gf.feedforward(s, "HV", {"HH": ()})


class TestMergeCorrected:
    _PI_RULE = {"HH": (), "VV": (), "HV": ((0, math.pi),), "VH": ((0, math.pi),)}

    def test_branches_that_differ_raise_naming_the_outcome(self):
        # photon 2 copies photon 0's polarization, so the HH and VH outcomes
        # leave different photon-2 states and VH cannot merge with HH
        s = gf.make_state([
            (gf.ket((0, "H"), (1, "H"), (2, "H")), 0.6),
            (gf.ket((0, "V"), (1, "H"), (2, "V")), 0.8),
        ])
        dist = gf.project_polarization_pair(s, 0, 1)
        with pytest.raises(BranchMismatch, match="outcome VH does not merge"):
            measurement.merge_corrected(dist, self._PI_RULE)

    def test_all_empty_outcomes_merge_to_none(self):
        dist = {"HH": measurement.Outcome(0.0, gf.PhotonicState({}))}
        assert measurement.merge_corrected(dist, self._PI_RULE) is None


class TestDistributions:
    def test_outcomes_are_a_dict_in_measurement_order(self):
        pair = gf.make_state([(gf.ket((0, "H"), (1, "V")), 1.0)])
        assert list(gf.project_polarization_pair(pair, 0, 1)) == ["HH", "HV", "VH", "VV"]
        assert list(gf.fourier_measure_path(gf.ghz_reference(4, 2), [0, 1, 2, 3])) == [
            "0", "1", "2", "3"
        ]
        merged, p_filtered, p_ff = measurement.pas_pair_analysis(pair, 0, 1, 0)
        assert (p_filtered, p_ff) == (0.0, 1.0)
        assert list(merged.terms) == [()]

    @given(states_strategy(max_port=3, max_photons=2))
    def test_pair_projection_total_probability_one(self, s):
        # embed the state so ports 8 and 9 each carry exactly one photon
        probe = gf.tensor(
            s,
            gf.make_state(
                [
                    (gf.ket((8, "H"), (9, "H")), 0.6),
                    (gf.ket((8, "V"), (9, "V")), 0.8),
                ]
            ),
        )
        dist = gf.project_polarization_pair(probe, 8, 9)
        assert sum(o.prob for o in dist.values()) == pytest.approx(1.0, abs=1e-9)
        for o in dist.values():
            if o.prob > 1e-12:
                assert o.state.norm_sq() == pytest.approx(1.0, abs=1e-9)
