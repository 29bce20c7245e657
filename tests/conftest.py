import math

from hypothesis import HealthCheck, settings, strategies as st

import ghzforge as gf
from ghzforge import states

settings.register_profile(
    "ghzforge",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs the state, kernel, measurement, executor, oracle and CLI fuzz
# properties deeper:
#   pytest tests/test_states.py tests/test_elements.py tests/test_measurement.py \
#       tests/test_protocol.py tests/test_analysis.py tests/test_fuzz.py \
#       --hypothesis-profile=ghzforge-ci
settings.register_profile("ghzforge-ci", parent=settings.get_profile("ghzforge"), max_examples=400)
settings.load_profile("ghzforge")


def raw_amplitudes(pair) -> states.PhotonicState:
    """An ``intermediates`` entry (normalised state, probability of reaching
    it) as the raw amplitudes of an unnormalised pipeline: the state scaled
    by the square root of the probability."""
    state, p = pair
    return states.scaled(state, math.sqrt(p))


def _amp(rng) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def random_state(rng, max_port=3, photons=None, terms=None, allow_multi=True):
    """Uniform-sector random state with unit norm, built via make_state."""
    photons = photons or rng.randint(1, 3)
    terms = terms or rng.randint(1, 4)
    kets = {}
    for _ in range(terms):
        modes = []
        for _ in range(photons):
            modes.append((rng.randint(0, max_port), rng.choice("HV")))
        if not allow_multi:
            modes = list(dict.fromkeys(modes))
            while len(modes) < photons:
                modes.append((rng.randint(0, max_port), rng.choice("HV")))
                modes = list(dict.fromkeys(modes))
        kets[gf.ket(*modes)] = kets.get(gf.ket(*modes), 0j) + _amp(rng)
    nsq = sum(abs(a) ** 2 for a in kets.values())
    if nsq < 1e-6:
        return random_state(rng, max_port, photons, terms, allow_multi)
    scale = 1.0 / math.sqrt(nsq)
    return gf.make_state([(t, a * scale) for t, a in kets.items()])


@st.composite
def states_strategy(draw, max_port=3, max_photons=3, max_terms=4):
    photons = draw(st.integers(1, max_photons))
    n_terms = draw(st.integers(1, max_terms))
    kets = {}
    for _ in range(n_terms):
        modes = tuple(
            draw(
                st.lists(
                    st.tuples(st.integers(0, max_port), st.sampled_from("HV")),
                    min_size=photons,
                    max_size=photons,
                )
            )
        )
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = draw(st.floats(-1, 1, allow_nan=False))
        term = gf.ket(*modes)
        kets[term] = kets.get(term, 0j) + complex(re, im)
    nsq = sum(abs(a) ** 2 for a in kets.values())
    if nsq < 1e-4:
        # near-total cancellation: fall back to a single deterministic ket
        kets = {gf.ket(*(((0, "H"),) * photons)): 1.0 + 0j}
        nsq = 1.0
    scale = 1.0 / math.sqrt(nsq)
    return gf.make_state([(t, a * scale) for t, a in kets.items()])
