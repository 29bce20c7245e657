import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ghzforge as gf
from ghzforge import golden, states
from ghzforge.errors import EmptyState, PortCollision

from conftest import states_strategy

SQ2 = math.sqrt(2.0)


def epr_pair(port_a, port_b):
    return gf.make_state(
        [
            (gf.ket((port_a, "H"), (port_b, "H")), 1 / SQ2),
            (gf.ket((port_a, "V"), (port_b, "V")), 1 / SQ2),
        ]
    )


class TestMakeState:
    def test_single_photon_superposition(self):
        s = gf.make_state(
            [
                (gf.ket((0, "H")), 1 / SQ2),
                (gf.ket((0, "V")), 1 / SQ2),
            ]
        )
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_a_state_is_its_terms_alone(self):
        # probabilities travel beside states (returned p, Outcome.prob, RunReport)
        assert [f.name for f in dataclasses.fields(states.PhotonicState)] == ["kets"]

    def test_exact_cancellation_is_empty(self):
        k = gf.ket((0, "H"), (1, "V"))
        with pytest.raises(EmptyState):
            gf.make_state([(k, 0.6), (k, -0.6)])

    def test_nine_term_product_expansion_has_unit_norm(self):
        s = golden.qutrit_chain_input()
        assert len(s.terms) == 9
        assert all(a == pytest.approx(1 / 3) for a in s.terms.values())
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_duplicates_are_summed(self):
        k = gf.ket((2, "H"))
        s = gf.make_state([(k, 0.25), (k, 0.25)])
        assert s.terms[k] == pytest.approx(0.5)

    def test_mixed_sector_rejected(self):
        with pytest.raises(ValueError, match="sector"):
            gf.make_state(
                [(gf.ket((0, "H")), 0.5), (gf.ket((0, "H"), (1, "H")), 0.5)]
            )

    def test_super_normalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            gf.make_state([(gf.ket((0, "H")), 2.0)])

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            gf.make_state([(gf.ket((0, "H")), complex(float("nan"), 0))])

    @given(st.randoms(use_true_random=False))
    def test_input_order_is_irrelevant(self, rng):
        entries = [
            (
                gf.ket((rng.randint(0, 2), rng.choice("HV"))),
                complex(rng.uniform(0.05, 0.2), rng.uniform(-0.15, 0.15)),
            )
            for _ in range(4)
        ]
        a = gf.make_state(entries)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        b = gf.make_state(shuffled)
        assert set(a.terms) == set(b.terms)
        assert states.states_close(a, b)


class TestTensor:
    def test_two_pair_sources_give_four_terms(self):
        s = gf.tensor(epr_pair(0, 1), epr_pair(2, 3))
        assert len(s.terms) == 4
        assert s.amplitude(gf.ket((0, "H"), (1, "H"), (2, "V"), (3, "V"))) == pytest.approx(0.5)
        assert s.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_identity_extension(self):
        s = epr_pair(0, 1)
        extended = gf.tensor(s, gf.make_state([(gf.ket((5, "H")), 1.0)]))
        assert len(extended.terms) == 2
        assert extended.amplitude(
            gf.ket((0, "V"), (1, "V"), (5, "H"))
        ) == pytest.approx(1 / SQ2)

    def test_helper_product_matches_frozen_ten_term_state(self):
        # five tagged survivors times the two-branch helper source
        tagged = []
        for i, j in [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]:
            pol = lambda p: "V" if p == 2 else "H"
            tagged.append(
                (
                    gf.ket((i, "H"), (3 + i, pol(i)), (6 + j, pol(j)), (9 + j, "H")),
                    1 / 3,
                )
            )
        survivors = gf.make_state(tagged)
        helper = gf.make_state(
            [
                (gf.ket((12, "H"), (14, "H")), 1 / SQ2),
                (gf.ket((13, "V"), (15, "V")), 1 / SQ2),
            ]
        )
        joint = gf.tensor(survivors, helper)
        assert len(joint.terms) == 10
        assert states.states_close(joint, golden.helper_joint_state(), tol=1e-12)

    def test_port_overlap_rejected(self):
        with pytest.raises(PortCollision):
            gf.tensor(epr_pair(0, 1), epr_pair(1, 2))

    @given(states_strategy(max_port=2), states_strategy(max_port=2))
    def test_norm_multiplicative(self, a, b):
        shifted = states.PhotonicState(
            {
                tuple(((p + 10, pol), c) for (p, pol), c in t): amp
                for t, amp in b.terms.items()
            }
        )
        product = gf.tensor(a, shifted)
        assert product.norm_sq() == pytest.approx(
            a.norm_sq() * shifted.norm_sq(), abs=1e-9
        )


class TestNormalize:
    def test_scales_by_three_over_sqrt_five(self):
        # squared norm 5/9, as after the parity filter stage
        s = gf.make_state([(gf.ket((i, "H")), 1 / 3) for i in range(5)])
        out = gf.normalize(s)
        for amp in out.terms.values():
            assert amp == pytest.approx((1 / 3) * 3 / math.sqrt(5), abs=1e-12)

    def test_idempotent(self):
        s = gf.normalize(golden.qutrit_chain_input())
        again = gf.normalize(s)
        assert states.states_close(s, again, tol=1e-12)

    def test_unnormalized_chain_output_normalizes_to_target(self):
        out = gf.normalize(golden.chain_output_unnormalized())
        assert gf.fidelity(out, gf.ghz_reference(3, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_near_zero_norm_raises(self):
        tiny = states.PhotonicState({gf.ket((0, "H")): 1e-12})
        with pytest.raises(EmptyState):
            gf.normalize(tiny)


class TestInnerProduct:
    def test_self_product_is_norm_sq(self):
        s = golden.qutrit_chain_input()
        assert gf.inner_product(s, s).real == pytest.approx(s.norm_sq(), abs=1e-12)

    def test_ghz_overlap_with_single_ket(self):
        ghz = gf.make_state(
            [
                (gf.ket((0, "H"), (1, "H"), (2, "H"), (3, "H")), 1 / SQ2),
                (gf.ket((0, "V"), (1, "V"), (2, "V"), (3, "V")), 1 / SQ2),
            ]
        )
        all_h = gf.make_state([(gf.ket((0, "H"), (1, "H"), (2, "H"), (3, "H")), 1.0)])
        assert gf.inner_product(ghz, all_h) == pytest.approx(1 / SQ2)

    def test_orthogonal_kets(self):
        a = gf.make_state([(gf.ket((0, "H")), 1.0)])
        b = gf.make_state([(gf.ket((0, "V")), 1.0)])
        assert gf.inner_product(a, b) == 0

    @given(states_strategy())
    def test_conjugate_symmetry(self, s):
        rng = random.Random(7)
        other = gf.make_state(
            [
                (t, a * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5)
                for t, a in s.terms.items()
            ]
        )
        lhs = gf.inner_product(s, other)
        rhs = gf.inner_product(other, s)
        assert lhs == pytest.approx(rhs.conjugate(), abs=1e-12)

    @given(states_strategy())
    def test_cauchy_schwarz(self, s):
        ref = gf.normalize(s)
        val = abs(gf.inner_product(ref, s))
        assert val <= states.norm(ref) * states.norm(s) + 1e-9


def json_round_trip(s: states.PhotonicState) -> states.PhotonicState:
    """The state written as JSON text and read back."""
    return states.state_from_jsonable(json.loads(json.dumps(states.state_to_jsonable(s))))


class TestSerialization:
    def test_round_trip(self):
        s = golden.helper_joint_state()
        back = json_round_trip(s)
        assert states.states_close(s, back, tol=1e-12)

    def test_canonical_ordering(self):
        s = golden.qutrit_chain_input()
        data = states.state_to_jsonable(s)
        keys = [tuple(tuple(m) for m in entry["modes"]) for entry in data]
        assert keys == sorted(keys)

    def test_schema_fields(self):
        s = gf.make_state([(gf.fock_term([((1, "V"), 2)]), 1.0)])
        data = json.loads(json.dumps(states.state_to_jsonable(s)))
        assert data == [{"modes": [[1, "V", 2]], "re": 1.0, "im": 0.0}]


class TestTolerance:
    def test_amplitude_below_eps_prunes(self):
        with pytest.raises(EmptyState):
            gf.make_state([(gf.ket((0, "H")), gf.EPS / 10)])

    def test_pruning_bounds_inner_product_shift(self):
        s = gf.make_state(
            [(gf.ket((i, "H")), 0.5) for i in range(4)]
        )
        with_junk = dict(s.terms)
        junk = [(gf.ket((9, "H")), 1e-12)]
        pruned = gf.make_state(list(s.terms.items()) + junk)
        assert len(pruned.terms) == len(with_junk)
        assert abs(
            gf.inner_product(pruned, s) - gf.inner_product(s, s)
        ) <= len(junk) * gf.EPS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_zero_never_matches_a_nonzero_prediction(self, bad):
        assert states.prob_matches(bad, Fraction(1, 12)) is False
        assert states.prob_matches(bad, Fraction(1, 2**900)) is False

    @pytest.mark.parametrize(
        "expected", [Fraction(1, 12), Fraction(5, 9), Fraction(1, 2**300), 1.0]
    )
    def test_relative_bound_splits_neighbouring_floats(self, expected):
        exact = Fraction(expected)
        for edge, outward in (
            (exact * (1 + states.PROB_REL_TOL), math.inf),
            (exact * (1 - states.PROB_REL_TOL), 0.0),
        ):
            # the float nearest the edge on its inner side, and the next one out
            inside = float(edge)
            while abs(Fraction(inside) - exact) > exact * states.PROB_REL_TOL:
                inside = math.nextafter(inside, float(exact))
            outside = math.nextafter(inside, outward)
            assert states.prob_matches(inside, expected) is True
            assert states.prob_matches(outside, expected) is False

    def test_fidelity_rule_is_one_sided_at_the_tolerance(self):
        edge = 1.0 - states.FIDELITY_TOL
        assert states.fidelity_matches(edge) and states.fidelity_matches(1.0 + 1e-12)
        assert not states.fidelity_matches(math.nextafter(edge, 0.0))
        assert not states.fidelity_matches(math.nan)


@st.composite
def nested_terms(draw):
    """Canonical nested kets of one photon number, bunching allowed, with
    amplitudes of unit total norm and none below 0.04."""
    photons = draw(st.integers(0, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        modes = draw(st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from("HV")),
            min_size=photons, max_size=photons,
        ))
        size = draw(st.floats(0.1, 1.0))
        terms[gf.ket(*modes)] = complex(size * draw(st.sampled_from([1, -1, 1j, -1j])))
    scale = 1.0 / math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return {t: a * scale for t, a in terms.items()}


class TestFlatKets:
    def test_a_mode_is_one_int_in_port_major_order(self):
        s = gf.make_state([(gf.ket((3, "V"), (0, "H"), (3, "V")), 1.0)])
        assert list(s.kets) == [(0, 7, 7)]
        assert list(s.terms) == [gf.fock_term([((0, "H"), 1), ((3, "V"), 2)])]

    @given(nested_terms())
    def test_nested_terms_round_trip(self, terms):
        s = states.PhotonicState(terms)
        assert list(s.terms.items()) == list(terms.items())
        assert len(s.terms) == len(terms)
        assert all(t in s.terms and s.terms[t] == a for t, a in terms.items())
        back = json_round_trip(s)
        assert dict(back.terms.items()) == terms
        assert states.state_to_jsonable(back) == states.state_to_jsonable(s)
        for (t, _), k in zip(s.terms.items(), s.kets):
            assert {p for (p, _), _ in t} == {m >> 1 for m in k}
            for port in range(7):
                assert sum(c for (p, _), c in t if p == port) == sum(m >> 1 == port for m in k)
        assert s.ports() == {p for t in terms for (p, _), _ in t}

    def test_bunched_kets_keep_the_nested_order(self):
        # flat (0, 6) sorts after (0, 0); nested |0H,3H> sorts before |0H,0H>
        s = gf.make_state([
            (gf.ket((0, "H"), (0, "H")), 0.6), (gf.ket((0, "H"), (3, "H")), 0.8),
        ])
        want = [gf.ket((0, "H"), (3, "H")), gf.ket((0, "H"), (0, "H"))]
        assert [t for t, _ in s.sorted_items()] == want
        assert [t for t, _ in s] == want
        assert s.pretty().splitlines()[1:] == [
            "  (+0.8000+0.0000j)|0H 3H>", "  (+0.6000+0.0000j)|0H 0H>",
        ]
        assert [e["modes"] for e in states.state_to_jsonable(s)] == [
            [[0, "H", 1], [3, "H", 1]], [[0, "H", 2]],
        ]

    @pytest.mark.parametrize("port", [True, False])
    def test_bool_port_rejected(self, port):
        with pytest.raises(ValueError, match="port must be a non-negative integer"):
            states.mode(port, "H")
        with pytest.raises(ValueError, match="port must be a non-negative integer"):
            gf.ket((port, "H"))
        with pytest.raises(ValueError, match="port must be a non-negative integer"):
            states.PhotonicState({(((port, "V"), 1),): 1.0})

    def test_bad_polarization_count_or_key_rejected(self):
        with pytest.raises(ValueError, match="polarization must be 'H' or 'V', got 'D'"):
            states.mode(0, "D")
        with pytest.raises(ValueError, match="occupation count must be a positive integer"):
            states.fock_term([((0, "H"), 0)])
        # a key that is not a nested term encodes to None
        assert states.encode((((0, "D"), 1),)) is None
        assert states.encode(((0, 1),)) is None

    def test_hand_built_keys_are_canonicalised(self):
        unsorted = (((3, "V"), 1), ((0, "H"), 1))
        s = states.PhotonicState({unsorted: 0.5, (((0, "H"), 1), ((3, "V"), 1)): 0.5})
        assert list(s.terms.items()) == [(gf.ket((0, "H"), (3, "V")), 1.0)]
        # a lookup takes canonical keys only, as a dict of them would
        assert unsorted not in s.terms
        with pytest.raises(KeyError):
            s.terms[unsorted]
        assert s.amplitude(unsorted) == 1.0

    def test_terms_is_a_read_only_view(self):
        s = golden.qutrit_chain_input()
        with pytest.raises(TypeError):
            s.terms[gf.ket((0, "H"), (3, "H"), (6, "H"), (9, "H"))] = 1.0
        assert s.terms == states.PhotonicState(dict(s.terms.items())).terms
        assert s == states.PhotonicState(dict(s.terms.items()))

    def test_terms_length_decodes_nothing(self, monkeypatch):
        # a tracer takes len(state.terms) around every kernel call
        s = golden.qutrit_chain_input()

        def refuse(k):
            raise AssertionError("decoded a ket")

        monkeypatch.setattr(states, "decode", refuse)
        assert len(s.terms) == 9 and not s.is_empty
        with pytest.raises(AssertionError, match="decoded a ket"):
            list(s.terms)

    @given(nested_terms())
    def test_nested_keys_build_the_state_of_their_flat_kets(self, terms):
        flat = {states.encode(t): a for t, a in terms.items()}
        s = states.PhotonicState(terms)
        assert s == states._from_kets(flat)
        assert list(s.kets.items()) == list(flat.items())  # storage order kept
