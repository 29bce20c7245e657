import cmath
import json
import math
import random

import pytest
from hypothesis import example, given, strategies as st

import ghzforge as gf
from ghzforge import elements, golden, states
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
        assert states.states_close(out, s, tol=3 * states.eps())


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
    return states.PhotonicState(out, state.branch_prob)


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
    tol = states.eps()
    return states.PhotonicState(
        {t: a for t, a in out.items() if abs(a) >= tol}, state.branch_prob
    )


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
            if states.photons_in_port(term, p):
                raise PortCollision(f"BD split destination port {p} is occupied")
    mapping = {(port_in, "H"): (even, "H"), (port_in, "V"): (odd, "V")}
    return reference_relabel(state, mapping, PortCollision, "bd_split")


KERNELS = {
    "pbs": (lambda s, a, b, _c, _t: gf.apply_pbs(s, a, b), reference_pbs),
    "hwp": (lambda s, a, _b, _c, t: gf.apply_hwp(s, a, t), reference_hwp),
    "bd_merge": (
        lambda s, a, b, c, _t: gf.apply_bd_merge(s, a, b, c), reference_bd_merge
    ),
    "bd_split": (
        lambda s, a, b, c, _t: gf.apply_bd_split(s, a, b, c), reference_bd_split
    ),
}


def kernel_result(kernel, *args):
    """Terms in order with their exact amplitudes, or the error raised."""
    try:
        out = kernel(*args)
    except (BDCollision, PortCollision) as exc:
        return type(exc), str(exc)
    return list(out.terms.items()), out.branch_prob


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
                states.term_photon_count(t) == n_before for t in s.terms
            )

    @given(states_strategy(max_port=1), st.floats(-2, 2, allow_nan=False))
    def test_elements_commute_with_tensor_on_disjoint_ports(self, s, theta):
        bystander = gf.make_state([(gf.ket((7, "V")), 1.0)])
        lhs = gf.tensor(gf.apply_hwp(s, 0, theta), bystander)
        rhs = gf.apply_hwp(gf.tensor(s, bystander), 0, theta)
        assert states.states_close(lhs, rhs, tol=1e-9)
