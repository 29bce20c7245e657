"""Sparse multi-photon Fock states over (path, polarization) modes.

A mode is a spatial port paired with a polarization label.  A basis ket is
a bosonic occupation multiset over modes.  The public form of a ket, the
``FockTerm``, is the canonical nested tuple ``(((port, pol), count), ...)``,
sorted port-major then polarization; ``ket``, ``fock_term`` and
``make_state`` build it, and the state JSON writes it.

Internally a mode is the int ``2 * port + (pol == "V")`` and a ket is the
sorted tuple of its photons' mode ints, a bunched mode repeated once per
photon (``Ket``).  The int order is the port-major mode order, so a port's
photons sit next to each other and a kernel finds them by bisecting on
``2 * port``.  A ``PhotonicState``'s one field is ``kets``, these flat kets
mapped to their amplitudes.  Its ``terms`` is a read-only nested view built
on each access: its length is the number of kets, a lookup encodes only the
asked key, and iteration and ``items()`` decode in storage order.
``PhotonicState(terms)`` takes nested keys and canonicalises them, summing
the amplitudes of keys that name one ket, so a hand-built state is as
canonical as a computed one; kernels build states from flat kets through
``_from_kets``.  Sorted output (``sorted_items``, ``pretty``, the JSON) keeps
the nested order, which differs from the flat order once a mode holds two
photons: ``|0H,3H>`` sorts before ``|0H,0H>``.

A state is a sparse map from kets to complex amplitudes and nothing else.
Probabilities travel beside states, not on them: a post-selection returns
its probability with the kept state, a projective outcome carries it as
``Outcome.prob``, and the protocol executors keep the running products.  A
raw post-selection keeps the surviving amplitudes as they are, so from a
unit-norm start norm**2 is the product of the probabilities post-selected so
far (1/16 for the replayed (4, 4) feedforward plan circuit); a renormalised
state (``normalize``, a projective outcome, an element-executor stage) has
norm**2 = 1.

This module also owns the tolerance policy, constants that nothing can
change (``EPS`` and the ``*_TOL`` values), and the strict readers of
circuit-file values (``*_from_json``).

States are values: every operation returns a new instance and nothing
here mutates its arguments.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Sequence

from .errors import EmptyState, InvalidCoefficients, PortCollision

H = "H"
V = "V"
POLARIZATIONS = (H, V)

Mode = tuple[int, str]
FockTerm = tuple[tuple[Mode, int], ...]
Ket = tuple[int, ...]  # sorted mode ints 2 * port + (pol == V), one per photon

# The named tolerances; every one is a constant.
EPS = 1e-9  # amplitudes below it are pruned; a norm or probability at or below it is 0
PROB_REL_TOL = Fraction(1, 10**9)  # a probability vs its exact prediction, relative
FIDELITY_TOL = 1e-9  # a run matches only at fidelity >= 1 - FIDELITY_TOL
MERGE_TOL = 1e-7  # per-amplitude gap allowed between branches that must be one state
COEFF_TOL = 1e-6  # |sum of squared source coefficients - 1| allowed


def prob_matches(prob: float, expected: Fraction | float) -> bool:
    """``prob`` within ``PROB_REL_TOL`` of ``expected``, relatively and in
    exact arithmetic, so NaN, an infinity or a probability that underflowed
    to 0 never matches a nonzero expectation."""
    exact = Fraction(expected)
    return math.isfinite(prob) and abs(Fraction(prob) - exact) <= abs(exact) * PROB_REL_TOL


def fidelity_matches(fidelity: float) -> bool:
    return fidelity >= 1.0 - FIDELITY_TOL


def validated_coeffs(d: int, coeffs: Sequence[float] | None) -> list[float]:
    """The d source coefficients as floats; None gives the uniform 1/sqrt(d).

    Raises InvalidCoefficients unless there are d finite reals whose squares
    sum to 1 within ``COEFF_TOL``.  One support rule for every executor: a
    coefficient below ``EPS`` in magnitude comes back as 0.0."""
    if coeffs is None:
        return [1.0 / math.sqrt(d)] * d
    values = [float(c) for c in coeffs]
    if len(values) != d:
        raise InvalidCoefficients(f"need {d} coefficients, got {len(values)}")
    if any(not math.isfinite(c) for c in values):
        raise InvalidCoefficients("coefficients must be finite reals")
    if abs(sum(c * c for c in values) - 1.0) > COEFF_TOL:
        raise InvalidCoefficients("squared coefficients must sum to 1")
    return [c if abs(c) >= EPS else 0.0 for c in values]


def mode(port: int, pol: str) -> Mode:
    if not _is_int(port) or port < 0:
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


# --- the flat encoding --------------------------------------------------------


def mode_of(m: int) -> Mode:
    """The (port, pol) mode of a mode int."""
    return (m >> 1, POLARIZATIONS[m & 1])


_POL_BIT = {H: 0, V: 1}


def encode(term: FockTerm) -> Ket | None:
    """The flat ket of a canonical nested term; None for anything else (a
    mode out of order or repeated, an unknown polarization, a count < 1)."""
    k: list[int] = []
    try:
        for (port, pol), count in term:
            m = 2 * port + _POL_BIT[pol]
            if k and m <= k[-1] or count < 1:
                return None
            k += (m,) * count
    except (TypeError, ValueError, KeyError):
        return None
    return tuple(k)


def mode_counts(k: Ket) -> list[int]:
    """The occupation of each mode of ``k``, in mode order."""
    return [len(list(run)) for _, run in groupby(k)]


def decode(k: Ket) -> FockTerm:
    """The canonical nested term of a flat ket."""
    out: list[tuple[Mode, int]] = []
    prev = None
    for m in k:
        if m == prev:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((mode_of(m), 1))
            prev = m
    return tuple(out)


class _Terms(Mapping):
    """The nested view of a state's flat kets (see the module docstring)."""

    __slots__ = ("_kets",)

    def __init__(self, kets: dict[Ket, complex]) -> None:
        self._kets = kets

    def __len__(self) -> int:
        return len(self._kets)

    def __iter__(self) -> Iterator[FockTerm]:
        return map(decode, self._kets)

    def __getitem__(self, term: FockTerm) -> complex:
        try:
            return self._kets[encode(term)]
        except KeyError:
            raise KeyError(term) from None

    def items(self) -> list[tuple[FockTerm, complex]]:
        return [(decode(k), amp) for k, amp in self._kets.items()]

    def values(self) -> ValuesView[complex]:
        return self._kets.values()


@dataclass(slots=True, init=False)
class PhotonicState:
    """Sparse map ket -> amplitude: ``kets`` holds the flat kets, ``terms``
    is their nested view, and ``PhotonicState(terms)`` takes nested keys."""

    kets: dict[Ket, complex]

    def __init__(self, terms: Mapping[FockTerm, complex]) -> None:
        kets: dict[Ket, complex] = {}
        for term, amp in terms.items():
            k = encode(fock_term(term))
            kets[k] = kets[k] + amp if k in kets else amp
        self.kets = kets

    @property
    def terms(self) -> Mapping[FockTerm, complex]:
        return _Terms(self.kets)

    @property
    def is_empty(self) -> bool:
        return not self.kets

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.kets.values())

    def photon_number(self) -> int:
        """Total photon number of the (uniform) sector; 0 for the vacuum."""
        return len(next(iter(self.kets), ()))

    def ports(self) -> set[int]:
        return {m >> 1 for m in set().union(*self.kets)}

    def amplitude(self, term: FockTerm) -> complex:
        return self.kets.get(encode(fock_term(term)), 0j)

    def sorted_items(self) -> list[tuple[FockTerm, complex]]:
        """Items in nested order (see the module docstring)."""
        return sorted((decode(k), amp) for k, amp in self.kets.items())

    def pretty(self) -> str:
        parts = []
        for term, amp in self.sorted_items():
            labels = " ".join(f"{p}{pol}" for (p, pol), c in term for _ in range(c))
            parts.append(f"({amp.real:+.4f}{amp.imag:+.4f}j)|{labels}>")
        body = "\n  ".join(parts) if parts else "(empty)"
        return f"PhotonicState\n  {body}"

    def __iter__(self) -> Iterator[tuple[FockTerm, complex]]:
        return iter(self.sorted_items())


def _from_kets(kets: dict[Ket, complex], _new=object.__new__) -> PhotonicState:
    """The state of canonical flat kets, taken as they are: the one way
    kernels build a state (without running ``__init__``, which canonicalises
    nested keys)."""
    state = _new(PhotonicState)
    state.kets = kets
    return state


def vacuum() -> PhotonicState:
    """Zero-photon state; tensoring with it is the identity."""
    return _from_kets({(): 1.0 + 0j})


def _pruned(kets: dict[Ket, complex]) -> dict[Ket, complex]:
    return {k: a for k, a in kets.items() if abs(a) >= EPS}


def _check_uniform_sector(kets: dict[Ket, complex]) -> None:
    counts = {len(k) for k in kets}
    if len(counts) > 1:
        raise ValueError(f"mixed photon-number sectors: {sorted(counts)}")


def make_state(kets: Iterable[tuple[FockTerm, complex]]) -> PhotonicState:
    """Build a canonical, pruned state; duplicate kets have amplitudes summed.

    Raises EmptyState when every amplitude cancels or falls below tolerance.
    """
    acc: dict[Ket, complex] = {}
    for raw_term, amp in kets:
        amp = complex(amp)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"non-finite amplitude {amp!r}")
        k = encode(fock_term(raw_term))
        acc[k] = acc.get(k, 0j) + amp
    terms = _pruned(acc)
    if not terms:
        raise EmptyState("all amplitudes cancel or vanish")
    _check_uniform_sector(terms)
    if sum(abs(a) ** 2 for a in terms.values()) > 1.0 + EPS:
        raise ValueError("squared norm exceeds 1; amplitudes are not a sub-state")
    return _from_kets(terms)


def scaled(state: PhotonicState, factor: complex) -> PhotonicState:
    return _from_kets(
        {k: b for k, a in state.kets.items() if abs(b := a * factor) >= EPS}
    )


def norm(state: PhotonicState) -> float:
    return math.sqrt(state.norm_sq())


def normalize(state: PhotonicState) -> PhotonicState:
    """Rescale to unit norm."""
    n = norm(state)
    if n <= EPS:
        raise EmptyState("cannot normalize a (near-)zero state")
    return scaled(state, 1.0 / n)


def tensor(a: PhotonicState, b: PhotonicState) -> PhotonicState:
    """Product state on disjoint spatial ports."""
    shared = a.ports() & b.ports()
    if shared:
        raise PortCollision(f"operands share spatial ports {sorted(shared)}")
    kets: dict[Ket, complex] = {}
    for ka, aa in a.kets.items():
        for kb, ab in b.kets.items():
            kets[tuple(sorted(ka + kb))] = aa * ab
    return _from_kets(_pruned(kets))


def inner_product(a: PhotonicState, b: PhotonicState) -> complex:
    """<a|b> over matching kets (amplitudes of ``a`` conjugated)."""
    ka, kb = a.kets, b.kets
    if len(ka) > len(kb):
        return complex(sum(ka[k].conjugate() * ab for k, ab in kb.items() if k in ka))
    return complex(sum(aa.conjugate() * kb[k] for k, aa in ka.items() if k in kb))


def states_close(a: PhotonicState, b: PhotonicState, tol: float = EPS) -> bool:
    """Term-by-term amplitude agreement within tolerance."""
    ka, kb = a.kets, b.kets
    for k in ka.keys() | kb.keys():
        if abs(ka.get(k, 0j) - kb.get(k, 0j)) > tol:
            return False
    return True


def state_to_jsonable(state: PhotonicState) -> list[dict]:
    """Canonical JSON form: terms in nested order, one object per ket."""
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
