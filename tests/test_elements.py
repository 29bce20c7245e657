import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import ghzforge as gf
from ghzforge import analysis, elements, golden, states
from ghzforge.errors import BDCollision, PortCollision

from conftest import random_state, states_strategy

SQ2 = math.sqrt(2.0)

ONE_STEP_PER_KIND = [
    (
        gf.Inject(gf.make_state([(gf.ket((0, "H"), (1, "V")), 1.0)])),
        '{"elem": "inject", "state": [{"modes": [[0, "H", 1], [1, "V", 1]], '
        '"re": 1.0, "im": 0.0}]}',
    ),
    (gf.PBS(0, 1), '{"elem": "pbs", "port_a": 0, "port_b": 1}'),
    (gf.HWP(1, 0.125), '{"elem": "hwp", "port": 1, "theta": 0.125}'),
    (gf.Phase(0, 0.5), '{"elem": "phase", "port": 0, "phi": 0.5}'),
    (
        gf.BDMerge(0, 1, 2),
        '{"elem": "bd_merge", "port_even": 0, "port_odd": 1, "port_out": 2}',
    ),
    (
        gf.BDSplit(2, 3, 4),
        '{"elem": "bd_split", "port_in": 2, "port_even": 3, "port_odd": 4}',
    ),
    (
        gf.CoincidenceSelect(gf.CoincidencePattern(((0,), (3, 4)))),
        '{"elem": "postselect", "kind": "coincidence", "groups": [[0], [3, 4]]}',
    ),
    (
        gf.PasPairSelect(3, 4, "feedforward", correction_port=5),
        '{"elem": "postselect", "kind": "pas_pair", "port_x": 3, "port_y": 4, '
        '"mode": "feedforward", "correction_port": 5}',
    ),
]


def single_photon(port, pol):
    return gf.make_state([(gf.ket((port, pol)), 1.0)])


class TestPBS:
    def test_horizontal_transmits(self):
        s = gf.apply_pbs(single_photon(0, "H"), 0, 1)
        assert s.amplitude(gf.ket((0, "H"))) == pytest.approx(1.0)

    def test_coincidence_of_matching_polarizations(self):
        s = gf.make_state([(gf.ket((0, "H"), (1, "H")), 1.0)])
        out = gf.apply_pbs(s, 0, 1)
        assert out.amplitude(gf.ket((0, "H"), (1, "H"))) == pytest.approx(1.0)

    def test_vertical_crosses_arms(self):
        # one H one V in the same input port separate spatially
        s = gf.make_state([(gf.ket((0, "H"), (0, "V")), 1.0)])
        out = gf.apply_pbs(s, 0, 1)
        assert out.amplitude(gf.ket((0, "H"), (1, "V"))) == pytest.approx(1.0)

    def test_same_port_rejected(self):
        with pytest.raises(PortCollision):
            gf.apply_pbs(single_photon(0, "H"), 0, 0)

    @given(states_strategy(max_port=3))
    def test_involution(self, s):
        out = gf.apply_pbs(gf.apply_pbs(s, 0, 1), 0, 1)
        assert states.states_close(out, s, tol=1e-9)


def hwp_jones(theta):
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return ((c, s), (s, -c))


class TestHWP:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 8, math.pi / 4, 0.37, -1.1])
    @pytest.mark.parametrize("pol", ["H", "V"])
    def test_matches_jones_matrix_on_single_photons(self, theta, pol):
        # independent 2x2 oracle applied by hand
        m = hwp_jones(theta)
        col = 0 if pol == "H" else 1
        out = gf.apply_hwp(single_photon(4, pol), 4, theta)
        assert out.amplitude(gf.ket((4, "H"))) == pytest.approx(m[0][col], abs=1e-12)
        assert out.amplitude(gf.ket((4, "V"))) == pytest.approx(m[1][col], abs=1e-12)

    def test_zero_angle_flips_vertical_sign(self):
        out = gf.apply_hwp(single_photon(0, "V"), 0, 0.0)
        assert out.amplitude(gf.ket((0, "V"))) == pytest.approx(-1.0)

    def test_quarter_pi_swaps(self):
        out = gf.apply_hwp(single_photon(0, "H"), 0, math.pi / 4)
        assert out.amplitude(gf.ket((0, "V"))) == pytest.approx(1.0)

    def test_diagonal_angle_on_photon_pair_spreads_uniformly(self):
        # separate ports: |HH> -> (|HH>+|HV>+|VH>+|VV>)/2
        s = gf.make_state([(gf.ket((0, "H"), (1, "H")), 1.0)])
        out = gf.apply_hwp(gf.apply_hwp(s, 0, math.pi / 8), 1, math.pi / 8)
        for pa in "HV":
            for pb in "HV":
                assert out.amplitude(gf.ket((0, pa), (1, pb))) == pytest.approx(0.5)

    def test_bunching_on_one_port(self):
        # |1_H 1_V> on the same port -> (|2_H> - |2_V>)/sqrt(2)
        s = gf.make_state([(gf.ket((0, "H"), (0, "V")), 1.0)])
        out = gf.apply_hwp(s, 0, math.pi / 8)
        two_h = gf.fock_term([((0, "H"), 2)])
        two_v = gf.fock_term([((0, "V"), 2)])
        assert out.amplitude(two_h) == pytest.approx(1 / SQ2, abs=1e-12)
        assert out.amplitude(two_v) == pytest.approx(-1 / SQ2, abs=1e-12)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_acts_on_a_hand_built_state(self):
        # the constructor sorts the unsorted key, so the port is found
        s = states.PhotonicState({(((3, "V"), 1), ((0, "H"), 1)): 1.0})
        out = gf.apply_hwp(s, 3, math.pi / 4)
        assert list(out.terms) == [gf.ket((0, "H"), (3, "H"))]
        assert out.amplitude(gf.ket((0, "H"), (3, "H"))) == pytest.approx(1.0)
        phased = gf.apply_phase(s, 0, 1.0)
        assert phased.amplitude(gf.ket((0, "H"), (3, "V"))) == pytest.approx(cmath.exp(1j))

    @given(states_strategy(max_port=2), st.floats(-2.0, 2.0, allow_nan=False))
    @example(
        gf.make_state([
            (gf.fock_term([((0, "H"), 2)]), 1j),
            (gf.ket((0, "H"), (1, "H")), 1.1428571428571428e-09j),
        ]),
        1.0,
    )
    def test_self_inverse(self, s, theta):
        # The rotation R squares to the identity, but each application drops
        # amplitudes below eps: out = R(R s - e1) - e2 = s - R e1 - e2, with
        # every entry of e1 and e2 below eps.  R is orthogonal on the k+1
        # configurations of the k photons at the port, so an entry of R e1 is
        # at most |e1| on that block <= sqrt(k+1) * eps, and the per-ket error
        # is at most (sqrt(k+1) + 1) * eps: 3 * eps for the <= 3 photons drawn.
        out = gf.apply_hwp(gf.apply_hwp(s, 1, theta), 1, theta)
        assert states.states_close(out, s, tol=3 * states.EPS)


class TestPhase:
    def test_zero_is_identity(self):
        s = golden.qutrit_chain_input()
        assert states.states_close(gf.apply_phase(s, 0, 0.0), s, tol=1e-12)

    def test_pi_on_one_path_port_flips_target_branch(self):
        # (|0000>+|1111>-|2222>)/sqrt(3) with a pi phase on one party's third
        # path port becomes the uniform-sign superposition
        kets = []
        for i, sign in ((0, 1.0), (1, 1.0), (2, -1.0)):
            kets.append(
                (gf.ket((i, "H"), (3 + i, "H"), (6 + i, "H"), (9 + i, "H")), sign / math.sqrt(3))
            )
        twisted = gf.make_state(kets)
        fixed = gf.apply_phase(twisted, 2, math.pi)
        assert gf.fidelity(fixed, gf.ghz_reference(3, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_pi_twice_is_identity(self):
        s = golden.qutrit_chain_input()
        out = gf.apply_phase(gf.apply_phase(s, 3, math.pi), 3, math.pi)
        assert states.states_close(out, s, tol=1e-12)

    def test_multi_photon_port_gets_k_fold_phase(self):
        s = gf.make_state([(gf.fock_term([((0, "H"), 2)]), 1.0)])
        out = gf.apply_phase(s, 0, 0.3)
        expected = cmath.exp(0.6j)
        assert out.amplitude(gf.fock_term([((0, "H"), 2)])) == pytest.approx(expected)


class TestBeamDisplacers:
    def test_merge_relabels_single_photon(self):
        out = gf.apply_bd_merge(single_photon(0, "H"), 0, 1, 5)
        assert out.amplitude(gf.ket((5, "H"))) == pytest.approx(1.0)

    def test_merge_collision_detected(self):
        s = gf.make_state([(gf.ket((0, "H"), (1, "H")), 1.0)])
        with pytest.raises(BDCollision):
            gf.apply_bd_merge(s, 0, 1, 5)

    def test_merge_of_mixed_polarization_paths(self):
        s = gf.make_state(
            [
                (gf.ket((0, "H")), 1 / SQ2),
                (gf.ket((1, "V")), 1 / SQ2),
            ]
        )
        out = gf.apply_bd_merge(s, 0, 1, 5)
        assert out.amplitude(gf.ket((5, "H"))) == pytest.approx(1 / SQ2)
        assert out.amplitude(gf.ket((5, "V"))) == pytest.approx(1 / SQ2)

    def test_split_routes_by_polarization(self):
        s = gf.make_state(
            [(gf.ket((5, "H")), 1 / SQ2), (gf.ket((5, "V")), 1 / SQ2)]
        )
        out = gf.apply_bd_split(s, 5, 0, 1)
        assert out.amplitude(gf.ket((0, "H"))) == pytest.approx(1 / SQ2)
        assert out.amplitude(gf.ket((1, "V"))) == pytest.approx(1 / SQ2)

    def test_split_into_occupied_port_rejected(self):
        s = gf.make_state([(gf.ket((5, "H"), (0, "H")), 1.0)])
        with pytest.raises(PortCollision):
            gf.apply_bd_split(s, 5, 0, 1)

    def test_split_then_merge_is_identity(self):
        rng = random.Random(11)
        for _ in range(25):
            s = random_state(rng, max_port=0, photons=1)  # photon on port 0
            split = gf.apply_bd_split(s, 0, 1, 2)
            back = gf.apply_bd_merge(split, 1, 2, 0)
            assert states.states_close(back, s, tol=1e-9)

    def test_merge_then_split_is_identity_on_valid_subspace(self):
        s = gf.make_state(
            [(gf.ket((0, "H")), 1 / SQ2), (gf.ket((1, "V")), 1 / SQ2)]
        )
        merged = gf.apply_bd_merge(s, 0, 1, 5)
        back = gf.apply_bd_split(merged, 5, 0, 1)
        assert states.states_close(back, s, tol=1e-12)

    def test_touched_ket_collision_raises_after_untouched_kets(self):
        # the first ket never reaches ports 0 or 1; the second collides
        s = gf.make_state(
            [
                (gf.ket((3, "H"), (4, "V")), 0.6),
                (gf.ket((0, "H"), (1, "H")), 0.8),
            ]
        )
        with pytest.raises(BDCollision, match="collide on"):
            gf.apply_bd_merge(s, 0, 1, 5)

    def test_split_into_occupied_port_rejected_on_untouched_ket(self):
        # neither ket has a photon at the split's input port 5, so the
        # relabel would copy both through; the destination check still fires
        s = gf.make_state(
            [(gf.ket((2, "H"), (3, "V")), 0.6), (gf.ket((1, "V"), (3, "H")), 0.8)]
        )
        with pytest.raises(PortCollision, match="port 1 is occupied"):
            gf.apply_bd_split(s, 5, 0, 1)

    def test_split_reports_even_port_first(self):
        s = gf.make_state([(gf.ket((0, "H"), (7, "V")), 1.0)])
        with pytest.raises(PortCollision, match="port 7 is occupied"):
            gf.apply_bd_split(s, 5, 7, 0)


# Reference kernels: the general path, which rebuilds, re-sorts and checks
# every ket whether or not the element touches it.


def reference_relabel(state, mapping, collision_error, what):
    out = {}
    for term, amp in state.terms.items():
        occ = {}
        for m, count in term:
            target = mapping.get(m, m)
            if target in occ:
                raise collision_error(
                    f"{what}: modes collide on {target} in term {term}"
                )
            occ[target] = count
        key = tuple(sorted(occ.items()))
        out[key] = out.get(key, 0j) + amp
    return states.PhotonicState(out)


def reference_linear_map(state, images):
    out = {}
    for term, amp in state.terms.items():
        touched = [(m, c) for m, c in term if m in images]
        if not touched:
            out[term] = out.get(term, 0j) + amp
            continue
        rest = [(m, c) for m, c in term if m not in images]
        coeff0 = amp
        for _, c in term:
            coeff0 /= math.sqrt(math.factorial(c))
        monomials = {(): coeff0}
        for m, c in touched:
            for _ in range(c):
                nxt = {}
                for key, co in monomials.items():
                    for m2, u in images[m]:
                        if u == 0:
                            continue
                        k2 = tuple(sorted(key + (m2,)))
                        nxt[k2] = nxt.get(k2, 0j) + co * u
                monomials = nxt
        for key, co in monomials.items():
            occ = dict(rest)
            for m2 in key:
                occ[m2] = occ.get(m2, 0) + 1
            factor = 1.0
            for c2 in occ.values():
                factor *= math.factorial(c2)
            k2 = tuple(sorted(occ.items()))
            out[k2] = out.get(k2, 0j) + co * math.sqrt(factor)
    return states.PhotonicState({t: a for t, a in out.items() if abs(a) >= states.EPS})


def reference_pbs(state, a, b, _c, _theta):
    mapping = {(a, "V"): (b, "V"), (b, "V"): (a, "V")}
    return reference_relabel(state, mapping, PortCollision, "pbs")


def reference_hwp(state, port, _b, _c, theta):
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    h, v = (port, "H"), (port, "V")
    images = {
        h: ((h, complex(c)), (v, complex(s))),
        v: ((h, complex(s)), (v, complex(-c))),
    }
    return reference_linear_map(state, images)


def reference_bd_merge(state, even, odd, out, _theta):
    mapping = {(p, pol): (out, pol) for p in (even, odd) for pol in "HV"}
    return reference_relabel(state, mapping, BDCollision, "bd_merge")


def reference_bd_split(state, port_in, even, odd, _theta):
    for term in state.terms:
        for p in (even, odd):
            if any(port == p for (port, _), _ in term):
                raise PortCollision(f"BD split destination port {p} is occupied")
    mapping = {(port_in, "H"): (even, "H"), (port_in, "V"): (odd, "V")}
    return reference_relabel(state, mapping, PortCollision, "bd_split")


def reference_phase(state, port, _b, _c, phi):
    out = {}
    for term, amp in state.terms.items():
        k = sum(count for (p, _), count in term if p == port)
        out[term] = amp * cmath.exp(1j * phi * k) if k else amp
    return states.PhotonicState(out)


KERNELS = {
    "pbs": (lambda s, a, b, _c, _t: gf.apply_pbs(s, a, b), reference_pbs),
    "hwp": (lambda s, a, _b, _c, t: gf.apply_hwp(s, a, t), reference_hwp),
    "bd_merge": (
        lambda s, a, b, c, _t: gf.apply_bd_merge(s, a, b, c), reference_bd_merge
    ),
    "bd_split": (
        lambda s, a, b, c, _t: gf.apply_bd_split(s, a, b, c), reference_bd_split
    ),
    "phase": (lambda s, a, _b, _c, t: gf.apply_phase(s, a, t), reference_phase),
}


def kernel_result(kernel, *args):
    """Terms in order with their exact amplitudes, or the error raised."""
    try:
        out = kernel(*args)
    except (BDCollision, PortCollision) as exc:
        return type(exc), str(exc)
    return list(out.terms.items())


class TestKernelsMatchGeneralPath:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    @given(
        s=states_strategy(max_port=4, max_photons=4, max_terms=8),
        ports=st.lists(st.integers(0, 4), min_size=3, max_size=3, unique=True),
        theta=st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_exactly_equal_amplitudes(self, name, s, ports, theta):
        kernel, reference = KERNELS[name]
        args = (s, *ports, theta)
        assert kernel_result(kernel, *args) == kernel_result(reference, *args)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_exactly_equal_on_protocol_states(self, name):
        # the qutrit chain input with two photons rotated to the diagonal
        # basis: 36 kets, one photon per mode, untouched kets on every port
        s = golden.qutrit_chain_input()
        for port in (3, 6):
            s = reference_hwp(s, port, None, None, math.pi / 8)
        for ports in ((0, 3, 6), (1, 4, 9), (2, 5, 8), (4, 7, 10)):
            for theta in (math.pi / 8, 0.3):
                args = (s, *ports, theta)
                assert kernel_result(KERNELS[name][0], *args) == kernel_result(
                    KERNELS[name][1], *args
                )


    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_exactly_equal_on_bunched_ports(self, name):
        # ports holding two or three photons, in one mode or split over H
        # and V, next to kets that leave the port empty
        s = gf.make_state([
            (gf.ket((0, "H"), (0, "H"), (1, "V")), 0.5),
            (gf.ket((0, "H"), (0, "V"), (2, "H")), 0.5j),
            (gf.ket((0, "V"), (0, "V"), (0, "V")), -0.5),
            (gf.ket((1, "H"), (2, "V"), (3, "H")), 0.3),
            (gf.ket((1, "V"), (1, "V"), (4, "H")), 0.4),
        ])
        for ports in ((0, 3, 4), (1, 3, 4), (2, 0, 3), (3, 5, 6)):
            for theta in (math.pi / 8, 0.3, -1.1):
                args = (s, *ports, theta)
                assert kernel_result(KERNELS[name][0], *args) == kernel_result(
                    KERNELS[name][1], *args
                )


class TestRunCircuit:
    def test_empty_circuit(self):
        s = golden.qutrit_chain_input()
        out, trace = gf.run_circuit(s, [])
        assert trace == []
        assert states.states_close(out, s, tol=1e-12)

    def test_qubit_chain_polarization_golden(self):
        out, trace = gf.run_circuit(
            golden.qubit_polarization_input(), golden.qubit_polarization_circuit()
        )
        assert trace == [pytest.approx(0.5)]
        assert states.states_close(out, golden.qubit_polarization_output(), tol=1e-12)

    def test_full_qutrit_circuit_reaches_frozen_output(self):
        # the compiled plan concatenated into one circuit, run standalone
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=False))
        out, trace = gf.run_circuit(states.vacuum(), plan.circuit_steps())
        assert trace == [
            pytest.approx(5 / 9),
            pytest.approx(3 / 10),
            pytest.approx(1 / 2),
        ]
        assert states.states_close(out, golden.chain_output_unnormalized(), tol=1e-9)

    @pytest.mark.parametrize(
        "d, n, feedforward", [(4, 4, True), (3, 6, False), (5, 4, True), (4, 6, True)]
    )
    def test_plan_circuit_norm_is_its_trace_product(self, d, n, feedforward):
        # a state carries no probability: after raw post-selections from the
        # vacuum, its squared norm is the product of the probabilities so far
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        out, trace = gf.run_circuit(states.vacuum(), plan.circuit_steps())
        product = math.prod(trace)
        assert abs(out.norm_sq() - product) <= 1e-12 * product
        predicted = analysis.predicted_prob_for_options(d, n, feedforward)
        assert abs(Fraction(product) - predicted) <= predicted * states.PROB_REL_TOL

    def test_circuit_json_round_trip(self):
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        data = elements.circuit_to_jsonable(plan.circuit_steps())
        circuit = elements.circuit_from_jsonable(data)
        circuit.validate()
        out, trace = gf.run_circuit(states.vacuum(), circuit)
        assert trace[-1] == pytest.approx(0.5)
        assert states.states_close(out, golden.chain_output_unnormalized(), tol=1e-9)

        # one step of every kind, pinning the file format key by key
        steps = [step for step, _ in ONE_STEP_PER_KIND]
        data = elements.circuit_to_jsonable(steps)
        assert [json.dumps(entry) for entry in data] == [
            text for _, text in ONE_STEP_PER_KIND
        ]
        assert elements.circuit_from_jsonable(data).steps == steps

        # post-selection ports count as used for the merge freshness rule
        for upstream, port in (
            (gf.PasPairSelect(3, 4, "filtered", correction_port=7), 7),
            (gf.CoincidenceSelect(gf.CoincidencePattern(((8,), (9,)))), 9),
        ):
            with pytest.raises(PortCollision):
                elements.Circuit([upstream, gf.BDMerge(0, 1, port)]).validate()

    def test_merge_output_reuse_flagged(self):
        circuit = elements.Circuit(
            [elements.HWP(5, 0.1), elements.BDMerge(0, 1, 5)]
        )
        with pytest.raises(PortCollision):
            circuit.validate()


class TestElementProperties:
    @given(states_strategy(max_port=3))
    def test_norm_and_photon_number_conserved(self, s):
        rng = random.Random(3)
        ops = [
            lambda x: gf.apply_pbs(x, 0, 1),
            lambda x: gf.apply_hwp(x, rng.randint(0, 3), rng.uniform(-2, 2)),
            lambda x: gf.apply_phase(x, rng.randint(0, 3), rng.uniform(-4, 4)),
        ]
        n_before = s.photon_number()
        for op in ops:
            s = op(s)
            assert s.norm_sq() == pytest.approx(1.0, abs=1e-9)
            assert all(
                sum(c for _, c in t) == n_before for t in s.terms
            )

    @given(states_strategy(max_port=1), st.floats(-2, 2, allow_nan=False))
    def test_elements_commute_with_tensor_on_disjoint_ports(self, s, theta):
        bystander = gf.make_state([(gf.ket((7, "V")), 1.0)])
        lhs = gf.tensor(gf.apply_hwp(s, 0, theta), bystander)
        rhs = gf.apply_hwp(gf.tensor(s, bystander), 0, theta)
        assert states.states_close(lhs, rhs, tol=1e-9)


# --- fused runs of mode maps ----------------------------------------------
# run_circuit applies each run of consecutive PBS / beam-displacer steps as one
# relabel composed from a probe; these tests hold it to a step-by-step replay.


def distinct_ports(k):
    return st.lists(st.integers(0, 7), min_size=k, max_size=k, unique=True)


# distinct ports, so about half the runs succeed (degenerate ports are pinned
# in test_error_parity_with_step_by_step_replay)
MODE_MAP_STEP = st.one_of(
    distinct_ports(2).map(lambda p: gf.PBS(*p)),
    distinct_ports(3).map(lambda p: gf.BDMerge(*p)),
    distinct_ports(3).map(lambda p: gf.BDSplit(*p)),
)


def replay(state, steps):
    for step in steps:
        state, _ = step.apply(state)
    return state


def outcome(fn, *args):
    try:
        return fn(*args)
    except (BDCollision, PortCollision) as exc:
        return type(exc), str(exc)


def staggered_merges(state, steps):
    """Final kets reached from three or more kets that merge at more than one
    step, where the two paths add the same amplitudes in different orders."""
    trails = {}
    for term in state.terms:
        single = states.PhotonicState({term: 1 + 0j})
        trail = []
        for step in steps:
            single, _ = step.apply(single)
            trail.append(next(iter(single.terms)))
        trails[term] = trail
    out = set()
    for final in {trail[-1] for trail in trails.values()}:
        group = [trail for trail in trails.values() if trail[-1] == final]
        kets = [len(group)] + [len({t[k] for t in group}) for k in range(len(steps))]
        merging_steps = sum(after < before for before, after in zip(kets, kets[1:]))
        if len(group) >= 3 and merging_steps > 1:
            out.add(final)
    return out


class TestFusedModeMapRuns:
    @given(
        s=states_strategy(max_port=3, max_photons=3, max_terms=6),
        steps=st.lists(MODE_MAP_STEP, min_size=2, max_size=6),
    )
    @example(
        s=gf.make_state([
            (gf.ket((0, "H"), (2, "H")), 0.2), (gf.ket((1, "H"), (2, "H")), 0.2),
            (gf.ket((0, "H"), (3, "H")), 0.1), (gf.ket((1, "H"), (3, "H")), 0.1),
        ]),
        steps=[gf.BDMerge(0, 1, 4), gf.BDMerge(2, 3, 5)],
    )
    def test_fused_run_matches_step_by_step_replay(self, s, steps):
        fused = outcome(lambda: gf.run_circuit(s, steps))
        reference = outcome(replay, s, steps)
        if isinstance(reference, tuple):
            assert fused == reference
            return
        out, trace = fused
        assert trace == []
        assert list(out.terms) == list(reference.terms)
        loose = staggered_merges(s, steps)
        for term, amp in reference.terms.items():
            if term in loose:
                assert abs(out.terms[term] - amp) <= 1e-15
            else:
                assert out.terms[term] == amp

    def test_staggered_merge_detected(self):
        # kets (0,2) and (1,2) merge at the first step, (0,3) and (1,3) too,
        # and the two results merge at the second: the replay adds
        # (0.2 + 0.2) + (0.1 + 0.1), the fused relabel ((0.2 + 0.2) + 0.1) + 0.1
        s = gf.make_state([
            (gf.ket((0, "H"), (2, "H")), 0.2), (gf.ket((1, "H"), (2, "H")), 0.2),
            (gf.ket((0, "H"), (3, "H")), 0.1), (gf.ket((1, "H"), (3, "H")), 0.1),
        ])
        steps = [gf.BDMerge(0, 1, 4), gf.BDMerge(2, 3, 5)]
        final = gf.ket((4, "H"), (5, "H"))
        assert staggered_merges(s, steps) == {final}
        assert staggered_merges(s, steps[:1]) == set()
        assert replay(s, steps).terms[final] == 0.6000000000000001
        assert gf.run_circuit(s, steps)[0].terms[final] == 0.6

    @pytest.mark.parametrize(
        "kets, steps, error, message",
        [
            # the PBS moves the V photon onto port 1, where the merge collides
            # it with the other photon; the message names the intermediate ket
            (
                [gf.ket((0, "V"), (2, "V"))],
                [gf.PBS(0, 1), gf.BDMerge(1, 2, 3)],
                BDCollision,
                "bd_merge: modes collide on (3, 'V') in term "
                "(((1, 'V'), 1), ((2, 'V'), 1))",
            ),
            # port 3 is empty when the run starts; the PBS routes the V photon
            # there one step before the split that needs it empty
            (
                [gf.ket((0, "V"), (5, "H")), gf.ket((0, "H"), (5, "H"))],
                [gf.PBS(0, 3), gf.BDSplit(5, 3, 4)],
                PortCollision,
                "BD split destination port 3 is occupied",
            ),
            # the probe stops at the split, whose destination the merged
            # photon occupies; the replay stops at the merge before it
            (
                [gf.ket((0, "V"), (2, "V"))],
                [gf.PBS(0, 1), gf.BDMerge(1, 2, 3), gf.BDSplit(5, 3, 4)],
                BDCollision,
                "bd_merge: modes collide on (3, 'V') in term "
                "(((1, 'V'), 1), ((2, 'V'), 1))",
            ),
            (
                [gf.ket((0, "H"))],
                [gf.PBS(0, 1), gf.BDMerge(2, 2, 3)],
                PortCollision,
                "BD merge needs three distinct ports",
            ),
            (
                [gf.ket((0, "H"))],
                [gf.BDMerge(0, 1, 2), gf.BDSplit(2, 4, 4)],
                PortCollision,
                "BD split needs three distinct ports",
            ),
            (
                [gf.ket((0, "H"))],
                [gf.BDMerge(0, 1, 2), gf.PBS(2, 2)],
                PortCollision,
                "PBS needs two distinct ports",
            ),
        ],
        ids=["merge-collision", "split-into-arrived-photon",
             "collision-before-occupied-split", "merge-triple", "split-triple",
             "pbs-pair"],
    )
    def test_error_parity_with_step_by_step_replay(self, kets, steps, error, message):
        s = gf.make_state([(k, 1.0 / math.sqrt(len(kets))) for k in kets])
        assert outcome(replay, s, steps) == (error, message)
        assert outcome(lambda: gf.run_circuit(s, steps)) == (error, message)

    def test_one_relabel_per_run(self, monkeypatch):
        # the interfere stage's ten mode maps touch the real state once; the
        # other relabels act on the probe, whose kets hold two photons each
        plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4))
        stages = {stage.kind: stage for stage in plan.stages}
        s, _ = gf.execute(plan, "element", keep_intermediates=True).intermediates[
            "j0.aux0.inject"
        ]
        sizes = []
        original = elements._relabel

        def counting(state, *args):
            sizes.append({len(term) for term in state.terms})
            return original(state, *args)

        monkeypatch.setattr(elements, "_relabel", counting)
        gf.run_circuit(s, plan.stage_steps(stages["aux_interfere"]))
        real = [size for size in sizes if size != {2}]
        assert len(sizes) == 11
        assert real == [{s.photon_number()}]


class TestDispatch:
    """Fused runs still reach the element functions through module globals."""

    @staticmethod
    def _swapped_split(state, port_in, port_even, port_odd):
        # routes H to the odd port and V to the even one (mode int 2*port + (pol == V))
        mapping = {2 * port_in: 2 * port_odd, 2 * port_in + 1: 2 * port_even + 1}
        return elements._relabel(state, mapping, PortCollision, "bd_split")

    @staticmethod
    def _merge_to_vertical(state, port_even, port_odd, port_out):
        # every photon leaves the merge vertically polarized
        mapping = {2 * p + b: 2 * port_out + 1 for p in (port_even, port_odd) for b in (0, 1)}
        return elements._relabel(state, mapping, BDCollision, "bd_merge")

    @pytest.mark.parametrize("name", ["apply_bd_merge", "apply_bd_split"])
    def test_monkeypatched_element_honoured_in_fused_run(self, monkeypatch, name):
        s = gf.make_state([
            (gf.ket((0, "H"), (5, "V")), 0.6), (gf.ket((1, "V"), (5, "V")), 0.8),
        ])
        steps = [gf.BDMerge(0, 1, 2), gf.PBS(2, 3), gf.BDSplit(2, 0, 1)]
        unpatched = replay(s, steps)
        patch = {"apply_bd_merge": self._merge_to_vertical,
                 "apply_bd_split": self._swapped_split}[name]
        calls = []

        def recorded(*args):
            calls.append(args[1:])
            return patch(*args)

        monkeypatch.setattr(elements, name, recorded)
        patched = replay(s, steps)
        calls.clear()
        out, _ = gf.run_circuit(s, steps)
        assert calls  # the probe went through the patched function
        assert list(out.terms.items()) == list(patched.terms.items())
        assert list(out.terms) != list(unpatched.terms)

    @staticmethod
    def _sign_flipping(state, port_a, port_b):
        # every ket changes sign: the probe's amplitudes are no longer 1
        return states.scaled(gf.apply_pbs(state, port_a, port_b), -1.0)

    @staticmethod
    def _ket_keeping(state, port_a, port_b):
        # every ket stays next to its image: a tag has two images
        moved = gf.apply_pbs(state, port_a, port_b)
        return states.PhotonicState({**state.terms, **moved.terms})

    @staticmethod
    def _ket_dropping(state, port_a, port_b):
        # every ket is lost: a tag has no image
        return states.PhotonicState({})

    @pytest.mark.parametrize("patch", ["_sign_flipping", "_ket_keeping", "_ket_dropping"])
    def test_patched_element_that_is_no_relabel_is_replayed(self, monkeypatch, patch):
        monkeypatch.setattr(elements, "apply_pbs", getattr(self, patch))
        s = gf.make_state([(gf.ket((0, "V"), (4, "H")), 0.6), (gf.ket((1, "H"), (4, "H")), 0.8)])
        steps = [gf.PBS(0, 1), gf.PBS(2, 3), gf.PBS(5, 6)]
        out, _ = gf.run_circuit(s, steps)
        assert list(out.terms.items()) == list(replay(s, steps).terms.items())
        if patch == "_sign_flipping":
            assert list(out.terms.values()) == [-0.6 + 0j, -0.8 + 0j]

    def test_swapped_split_breaks_qutrit_walkthrough(self, monkeypatch):
        # the split sits inside the interfere stage's fused run; with H and V
        # routed the wrong way the pair analysis no longer merges its branches
        monkeypatch.setattr(elements, "apply_bd_split", self._swapped_split)
        with pytest.raises(gf.errors.BranchMismatch, match="does not merge"):
            golden.qutrit_walkthrough_checks()

    @pytest.mark.parametrize(
        "d, n, feedforward", [(3, 4, False), (4, 6, True), (5, 8, True), (4, 7, True)]
    )
    def test_calls_per_kind_equal_plan_step_counts(self, monkeypatch, d, n, feedforward):
        plan = gf.compile_plan(gf.ProtocolOptions(d=d, n=n, feedforward=feedforward))
        kinds = {gf.PBS: "apply_pbs", gf.HWP: "apply_hwp",
                 gf.BDMerge: "apply_bd_merge", gf.BDSplit: "apply_bd_split"}
        expected = dict.fromkeys(kinds.values(), 0)
        for stage in plan.stages:
            for step in plan.stage_steps(stage):
                if type(step) in kinds:
                    expected[kinds[type(step)]] += 1
        calls = dict.fromkeys(kinds.values(), 0)
        for name in kinds.values():
            def counted(*args, _name=name, _original=getattr(elements, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(elements, name, counted)
        # the plan keeps its steps, not their results: every execute calls
        # each ``apply_*`` once per step again
        for _ in range(2):
            assert gf.execute(plan, "element").prob_matches
        assert calls == {name: 2 * count for name, count in expected.items()}
        assert all(expected.values())

    def test_patch_after_first_execute_reaches_the_kept_optics(self, monkeypatch):
        # a swapped split must break a plan that already ran, as it breaks a
        # fresh one: the plan holds steps, not the states they produced
        opts = gf.ProtocolOptions(d=3, n=4)
        fresh, used = gf.compile_plan(opts), gf.compile_plan(opts)
        good = gf.execute(used, "element")
        assert good.matches
        monkeypatch.setattr(elements, "apply_bd_split", self._swapped_split)

        def outcome(plan):
            try:
                return gf.execute(plan, "element").to_jsonable()
            except gf.errors.BranchMismatch as exc:
                return repr(exc)

        broken = outcome(used)
        assert broken != good.to_jsonable()
        assert broken == outcome(fresh)
