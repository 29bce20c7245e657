"""Sparse multi-photon Fock states over (path, polarization) modes.

A mode is a spatial port paired with a polarization label.  A basis ket is
a bosonic occupation multiset over modes, kept in a canonical sorted form
so it can serve as a dictionary key.  The sort is port-major, so a port's
entries (at most its H and its V mode) sit next to each other, and
``photons_in_port`` and the HWP kernel in ``elements`` find them by bisection
instead of a walk over the ket.  A ``PhotonicState`` built by hand must
therefore use keys made by ``ket``, ``fock_term`` or ``make_state``.

A state is a sparse map from kets to complex amplitudes and nothing else.
Probabilities travel beside states, not on them: a post-selection returns
its probability with the kept state, a projective outcome carries it as
``Outcome.prob``, and the protocol executors keep the running products.  A
raw post-selection keeps the surviving amplitudes as they are, so from a
unit-norm start norm**2 is the product of the probabilities post-selected so
far (1/16 for the replayed (4, 4) feedforward plan circuit); a renormalised
state (``normalize``, a projective outcome, an element-executor stage) has
norm**2 = 1.

This module also owns the tolerance policy (``eps`` and the ``*_TOL``
constants) and the strict readers of circuit-file values (``*_from_json``).

States are values: every operation returns a new instance and nothing
here mutates its arguments.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import EmptyState, InvalidCoefficients, InvalidParameters, PortCollision

H = "H"
V = "V"
POLARIZATIONS = (H, V)

Mode = tuple[int, str]
FockTerm = tuple[tuple[Mode, int], ...]

_DEFAULT_EPS = 1e-9
_eps: float | None = None  # the GHZFORGE_EPS value kept by the first eps() call

# The named tolerances; none of them is read from the environment.
PROB_REL_TOL = Fraction(1, 10**9)  # a probability vs its exact prediction, relative
FIDELITY_TOL = 1e-9  # a run matches only at fidelity >= 1 - FIDELITY_TOL
MERGE_TOL = 1e-7  # per-amplitude gap allowed between branches that must be one state
COEFF_TOL = 1e-6  # |sum of squared source coefficients - 1| allowed


def eps() -> float:
    """Amplitude/probability tolerance; GHZFORGE_EPS overrides the default.

    The variable is read once per process: the first call parses it and keeps
    a valid value for every later call.  A value that is not a positive finite
    number is not kept, so it raises InvalidParameters on every call."""
    global _eps
    if _eps is None:
        raw = os.environ.get("GHZFORGE_EPS")
        try:
            value = _DEFAULT_EPS if raw is None else float(raw)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParameters(
                f"GHZFORGE_EPS must be a positive finite number, got {raw!r}"
            )
        _eps = value
    return _eps


def validated_coeffs(d: int, coeffs: Sequence[float] | None) -> list[float]:
    """The d source coefficients as floats; None gives the uniform 1/sqrt(d).

    Raises InvalidCoefficients unless there are d finite reals whose squares
    sum to 1 within ``COEFF_TOL``."""
    if coeffs is None:
        return [1.0 / math.sqrt(d)] * d
    values = [float(c) for c in coeffs]
    if len(values) != d:
        raise InvalidCoefficients(f"need {d} coefficients, got {len(values)}")
    if any(not math.isfinite(c) for c in values):
        raise InvalidCoefficients("coefficients must be finite reals")
    if abs(sum(c * c for c in values) - 1.0) > COEFF_TOL:
        raise InvalidCoefficients("squared coefficients must sum to 1")
    return values


def mode(port: int, pol: str) -> Mode:
    if not isinstance(port, int) or port < 0:
        raise ValueError(f"port must be a non-negative integer, got {port!r}")
    if pol not in POLARIZATIONS:
        raise ValueError(f"polarization must be 'H' or 'V', got {pol!r}")
    return (port, pol)


def _rejected(expected: str, value: object) -> ValueError:
    return ValueError(f"{expected}, got {json.dumps(value)}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def port_from_json(value: object) -> int:
    """A port read from a circuit file: a JSON integer >= 0, not a bool."""
    if not _is_int(value) or value < 0:
        raise _rejected("a port must be a non-negative integer", value)
    return value


def count_from_json(value: object) -> int:
    """An occupation count read from a circuit file: a JSON integer >= 1, not a bool."""
    if not _is_int(value) or value < 1:
        raise _rejected("an occupation count must be a positive integer", value)
    return value


def real_from_json(value: object) -> float:
    """An angle or amplitude part read from a circuit file: a finite JSON
    number (integer or float), not a bool and not a string."""
    # NaN compares False; an integer past the float range would overflow float()
    if (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max:
        return float(value)
    raise _rejected("a real value must be a finite number", value)


def choice_from_json(value: object, choices: tuple[str, ...], what: str) -> str:
    """A string read from a circuit file that must be one of ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise _rejected(f"{what} must be one of {', '.join(map(json.dumps, choices))}", value)
    return value


def fock_term(occupations: Iterable[tuple[Mode, int]]) -> FockTerm:
    """Canonical ket: modes sorted port-major then polarization, counts merged."""
    merged: dict[Mode, int] = {}
    for raw_mode, count in occupations:
        m = mode(*raw_mode)
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"occupation count must be a positive integer, got {count!r}")
        merged[m] = merged.get(m, 0) + count
    return tuple(sorted(merged.items()))


def ket(*modes_: Mode) -> FockTerm:
    """Ket with one photon per listed mode (repeats accumulate)."""
    return fock_term((m, 1) for m in modes_)


def term_photon_count(term: FockTerm) -> int:
    return sum(count for _, count in term)


def term_ports(term: FockTerm) -> set[int]:
    return {port for (port, _), _ in term}


def photons_in_port(term: FockTerm, port: int) -> int:
    # ((port,),) sorts after every entry on a lower port and before every
    # entry on ``port``
    i = bisect_left(term, ((port,),))
    k = 0
    while i < len(term) and term[i][0][0] == port:
        k += term[i][1]
        i += 1
    return k


@dataclass
class PhotonicState:
    """Sparse map FockTerm -> amplitude."""

    terms: dict[FockTerm, complex]

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def photon_number(self) -> int:
        """Total photon number of the (uniform) sector; 0 for the vacuum."""
        if not self.terms:
            return 0
        return term_photon_count(next(iter(self.terms)))

    def ports(self) -> set[int]:
        out: set[int] = set()
        for term in self.terms:
            out |= term_ports(term)
        return out

    def amplitude(self, term: FockTerm) -> complex:
        return self.terms.get(fock_term(term), 0j)

    def sorted_items(self) -> list[tuple[FockTerm, complex]]:
        return sorted(self.terms.items())

    def pretty(self) -> str:
        parts = []
        for term, amp in self.sorted_items():
            labels = " ".join(f"{p}{pol}" for (p, pol), c in term for _ in range(c))
            parts.append(f"({amp.real:+.4f}{amp.imag:+.4f}j)|{labels}>")
        body = "\n  ".join(parts) if parts else "(empty)"
        return f"PhotonicState\n  {body}"

    def __iter__(self) -> Iterator[tuple[FockTerm, complex]]:
        return iter(self.sorted_items())


def vacuum() -> PhotonicState:
    """Zero-photon state; tensoring with it is the identity."""
    return PhotonicState({(): 1.0 + 0j})


def _pruned(terms: dict[FockTerm, complex]) -> dict[FockTerm, complex]:
    tol = eps()
    return {t: a for t, a in terms.items() if abs(a) >= tol}


def _check_uniform_sector(terms: dict[FockTerm, complex]) -> None:
    counts = {term_photon_count(t) for t in terms}
    if len(counts) > 1:
        raise ValueError(f"mixed photon-number sectors: {sorted(counts)}")


def make_state(kets: Iterable[tuple[FockTerm, complex]]) -> PhotonicState:
    """Build a canonical, pruned state; duplicate kets have amplitudes summed.

    Raises EmptyState when every amplitude cancels or falls below tolerance.
    """
    acc: dict[FockTerm, complex] = {}
    for raw_term, amp in kets:
        amp = complex(amp)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"non-finite amplitude {amp!r}")
        term = fock_term(raw_term)
        acc[term] = acc.get(term, 0j) + amp
    terms = _pruned(acc)
    if not terms:
        raise EmptyState("all amplitudes cancel or vanish")
    _check_uniform_sector(terms)
    if sum(abs(a) ** 2 for a in terms.values()) > 1.0 + eps():
        raise ValueError("squared norm exceeds 1; amplitudes are not a sub-state")
    return PhotonicState(terms)


def scaled(state: PhotonicState, factor: complex) -> PhotonicState:
    tol = eps()
    return PhotonicState(
        {t: b for t, a in state.terms.items() if abs(b := a * factor) >= tol}
    )


def norm(state: PhotonicState) -> float:
    return math.sqrt(state.norm_sq())


def normalize(state: PhotonicState) -> PhotonicState:
    """Rescale to unit norm."""
    n = norm(state)
    if n <= eps():
        raise EmptyState("cannot normalize a (near-)zero state")
    return scaled(state, 1.0 / n)


def tensor(a: PhotonicState, b: PhotonicState) -> PhotonicState:
    """Product state on disjoint spatial ports."""
    shared = a.ports() & b.ports()
    if shared:
        raise PortCollision(f"operands share spatial ports {sorted(shared)}")
    terms: dict[FockTerm, complex] = {}
    for ta, aa in a.terms.items():
        for tb, ab in b.terms.items():
            terms[tuple(sorted(ta + tb))] = aa * ab
    return PhotonicState(_pruned(terms))


def inner_product(a: PhotonicState, b: PhotonicState) -> complex:
    """<a|b> over matching kets (amplitudes of ``a`` conjugated)."""
    if len(a.terms) > len(b.terms):
        return complex(
            sum(a.terms[t].conjugate() * ab for t, ab in b.terms.items() if t in a.terms)
        )
    return complex(
        sum(aa.conjugate() * b.terms[t] for t, aa in a.terms.items() if t in b.terms)
    )


def states_close(a: PhotonicState, b: PhotonicState, tol: float | None = None) -> bool:
    """Term-by-term amplitude agreement within tolerance."""
    tol = eps() if tol is None else tol
    for term in set(a.terms) | set(b.terms):
        if abs(a.terms.get(term, 0j) - b.terms.get(term, 0j)) > tol:
            return False
    return True


def state_to_jsonable(state: PhotonicState) -> list[dict]:
    """Canonical JSON form: terms sorted, one object per ket."""
    out = []
    for term, amp in state.sorted_items():
        out.append(
            {
                "modes": [[port, pol, count] for (port, pol), count in term],
                "re": amp.real,
                "im": amp.imag,
            }
        )
    return out


def state_from_jsonable(data: list[dict]) -> PhotonicState:
    kets = []
    for entry in data:
        term = fock_term(
            ((port_from_json(p), choice_from_json(pol, POLARIZATIONS, "a polarization")),
             count_from_json(c))
            for p, pol, c in entry["modes"]
        )
        kets.append((term, complex(real_from_json(entry["re"]), real_from_json(entry["im"]))))
    return make_state(kets)


def state_to_json(state: PhotonicState) -> str:
    return json.dumps(state_to_jsonable(state), indent=2)


def state_from_json(text: str) -> PhotonicState:
    return state_from_jsonable(json.loads(text))
