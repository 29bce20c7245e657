"""Coincidence post-selection, projective measurements and outcome bookkeeping.

States hold amplitudes only; every probability here is returned beside a
state.  Post-selection keeps amplitudes untouched: it returns the kept
sub-state together with the kept fraction of the squared norm, so a
zero-probability pattern yields an empty state rather than an error.
Projective measurements return complete outcome distributions, a dict from
label to ``Outcome`` in measurement order, whose probabilities
(``Outcome.prob``) sum to one and whose post-states are normalized.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import elements, states
from .errors import BranchMismatch, MissingCorrection, NotSingleOccupancy
from .states import EPS, Ket, PhotonicState, _from_kets


@dataclass(frozen=True)
class CoincidencePattern:
    """Disjoint port groups, each required to hold exactly one photon."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("coincidence pattern needs at least one group")
        seen: set[int] = set()
        for group in self.groups:
            if not group:
                raise ValueError("empty coincidence group")
            overlap = seen & set(group)
            if overlap:
                raise ValueError(f"coincidence groups overlap on ports {sorted(overlap)}")
            seen |= set(group)


def postselect_coincidence(
    state: PhotonicState, pattern: CoincidencePattern
) -> tuple[PhotonicState, float]:
    """Keep kets with exactly one photon per group; probability is the kept
    fraction of the squared norm.  Zero survivors give (empty state, 0.0)."""
    total = state.norm_sq()
    if total <= 0.0:
        return PhotonicState({}), 0.0
    group_of = {
        2 * port + b: g for g, group in enumerate(pattern.groups) for port in group for b in (0, 1)
    }
    n_groups = len(pattern.groups)
    kept = {}
    for k, amp in state.kets.items():
        counts = [0] * n_groups
        for m in k:
            g = group_of.get(m)
            if g is not None:
                counts[g] += 1
        if counts.count(1) == n_groups:
            kept[k] = amp
    kept_nsq = sum(abs(a) ** 2 for a in kept.values())
    prob = kept_nsq / total
    return _from_kets(kept), prob


@dataclass(frozen=True)
class Outcome:
    prob: float
    state: PhotonicState  # normalized post-measurement state; empty if prob 0


def _outcome(sub: PhotonicState, total: float) -> Outcome:
    """Probability and normalized post-state of one projective outcome."""
    nsq = sub.norm_sq()
    prob = nsq / total if total > 0 else 0.0
    if nsq <= EPS ** 2:
        return Outcome(prob, PhotonicState({}))
    return Outcome(prob, states.scaled(sub, 1.0 / math.sqrt(nsq)))


def project_polarization_pair(
    state: PhotonicState, port_x: int, port_y: int
) -> dict[str, Outcome]:
    """Joint H/V projection of the two single photons at port_x and port_y,
    as outcomes keyed "HH", "HV", "VH" and "VV"."""
    total = state.norm_sq()
    buckets: list[dict[Ket, complex]] = [{}, {}, {}, {}]  # HH, HV, VH, VV
    lx, ly = 2 * port_x, 2 * port_y
    for k, amp in state.kets.items():
        ix = bisect_left(k, lx)
        iy = bisect_left(k, ly)
        if bisect_left(k, lx + 2, ix) != ix + 1 or bisect_left(k, ly + 2, iy) != iy + 1:
            bad = port_x if bisect_left(k, lx + 2, ix) != ix + 1 else port_y
            raise NotSingleOccupancy(f"port {bad} does not hold exactly one photon")
        rest = buckets[2 * (k[ix] & 1) + (k[iy] & 1)]
        if ix > iy:
            ix, iy = iy, ix
        key = k[:ix] + k[ix + 1:iy] + k[iy + 1:] if ix < iy else k[:ix] + k[ix + 1:]
        rest[key] = rest.get(key, 0j) + amp
    return {
        label: _outcome(_from_kets(kets), total)
        for label, kets in zip(("HH", "HV", "VH", "VV"), buckets)
    }


def fourier_measure_path(state: PhotonicState, port_group: Sequence[int]) -> dict[str, Outcome]:
    """Project the single photon spread over ``port_group`` onto the Fourier
    basis of its path qudit, whose dimension d is the group's length, as
    outcomes keyed "0" ... "d-1".

    Outcome k uses the bra (1/sqrt(d)) * sum_j exp(+2*pi*i*j*k/d) <j|, matching
    phase factors exp(2*pi*i*k/d) between adjacent surviving branches; the
    conjugate phases undo them (see ``feedforward``).
    """
    ports = list(port_group)
    d = len(ports)
    # a port listed twice keeps its first path
    path_of = {port: j for j, port in reversed(list(enumerate(ports)))}
    total = state.norm_sq()
    pol_seen: set[int] = set()
    located: list[tuple[Ket, complex, int]] = []
    for k, amp in state.kets.items():
        inside = [i for i, m in enumerate(k) if m >> 1 in path_of]
        if len(inside) != 1:
            raise NotSingleOccupancy(
                "measured port group must hold exactly one photon per ket"
            )
        (i,) = inside
        pol_seen.add(k[i] & 1)
        located.append((k[:i] + k[i + 1:], amp, path_of[k[i] >> 1]))
    if len(pol_seen) > 1:
        raise NotSingleOccupancy("measured photon polarization is not uniform")
    outcomes = {}
    root = 1.0 / math.sqrt(d)
    for k in range(d):
        acc: dict[Ket, complex] = {}
        for reduced, amp, j in located:
            phase = cmath.exp(2j * math.pi * j * k / d)
            acc[reduced] = acc.get(reduced, 0j) + amp * phase * root
        outcomes[str(k)] = _outcome(_from_kets(acc), total)
    return outcomes


PhaseRule = Mapping[str, Sequence[tuple[int, float]]]


def feedforward(state: PhotonicState, outcome: str, rule: PhaseRule) -> PhotonicState:
    """Apply the outcome's phase corrections; unmapped outcomes are an error."""
    if outcome not in rule:
        raise MissingCorrection(f"no correction mapped for outcome {outcome!r}")
    for port, phi in rule[outcome]:
        state = elements.apply_phase(state, port, phi)
    return state


def fourier_feedforward_rule(anchor_ports: Sequence[int]) -> PhaseRule:
    """Correction undoing Fourier-outcome phases: outcome k puts phase
    -2*pi*k*j/d on every path-j port of one remaining photon, the anchor,
    whose d ports are ``anchor_ports``."""
    anchor = list(anchor_ports)
    d = len(anchor)
    rule: dict[str, list[tuple[int, float]]] = {}
    for k in range(d):
        rule[str(k)] = [
            (anchor[j], -2.0 * math.pi * k * j / d) for j in range(d) if k * j % d
        ]
    return rule


def merge_corrected(outcomes: Mapping[str, Outcome], rule: PhaseRule) -> PhotonicState | None:
    """The one continuing state of ``outcomes`` once ``rule`` corrects each one.

    Outcomes at probability ``EPS`` or below are skipped; every other corrected
    branch must equal the first within ``MERGE_TOL`` per amplitude, else
    BranchMismatch names the outcome (a circuit bug, or an input that is not
    a GHZ state).  None when every outcome is empty."""
    merged: PhotonicState | None = None
    for label, o in outcomes.items():
        if o.prob <= EPS:
            continue
        post = feedforward(o.state, label, rule)
        if merged is None:
            merged = post
        elif not states.states_close(merged, post, tol=states.MERGE_TOL):
            raise BranchMismatch(
                f"outcome {label} does not merge with the reference branch"
            )
    return merged


# --- post-selection steps usable in a circuit -------------------------------

PAS_MODES = ("filtered", "feedforward")


@dataclass(frozen=True)
class CoincidenceSelect(elements.Step):
    tag = {"elem": "postselect", "kind": "coincidence"}
    pattern: CoincidencePattern

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, float]:
        return postselect_coincidence(state, self.pattern)

    def ports(self) -> set[int]:
        return {p for g in self.pattern.groups for p in g}

    def to_jsonable(self) -> dict:
        return {**self.tag, "groups": [sorted(g) for g in self.pattern.groups]}

    @classmethod
    def from_jsonable(cls, entry: dict) -> CoincidenceSelect:
        groups = tuple(tuple(states.port_from_json(p) for p in g) for g in entry["groups"])
        return cls(CoincidencePattern(groups))


@dataclass(frozen=True)
class PasPairSelect(elements.Step):
    """Pair polarization analysis behind an auxiliary stage.

    ``filtered`` keeps the HH and VV outcomes; ``feedforward`` keeps all four,
    flipping the sign of the odd branch with a pi phase on ``correction_port``.
    Either way the kept branches must coincide, and they merge into a single
    continuing state whose norm accounts for the summed outcome probability.
    """

    tag = {"elem": "postselect", "kind": "pas_pair"}
    port_x: int
    port_y: int
    mode: str = field(metadata={"choices": PAS_MODES})
    correction_port: int

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, float]:
        merged, p_filtered, p_ff = pas_pair_analysis(
            state, self.port_x, self.port_y, self.correction_port
        )
        p = p_ff if self.mode == "feedforward" else p_filtered
        if merged is None or p <= 0.0:
            return PhotonicState({}), 0.0
        return states.scaled(merged, math.sqrt(p * state.norm_sq())), p


def pas_pair_analysis(
    state: PhotonicState, port_x: int, port_y: int, correction_port: int
) -> tuple[PhotonicState | None, float, float]:
    """Pair-analysis bookkeeping shared by both accounting conventions:
    (the normalized continuing state, None if every outcome is empty;
    P(HH) + P(VV); the total of all four outcomes, corrected).

    HH/VV branches must agree as-is and HV/VH must agree with them after the
    pi correction (see ``merge_corrected``).
    """
    outcomes = project_polarization_pair(state, port_x, port_y)
    pi_rule: PhaseRule = {
        "HH": (), "VV": (),
        "HV": ((correction_port, math.pi),),
        "VH": ((correction_port, math.pi),),
    }
    p_filtered = outcomes["HH"].prob + outcomes["VV"].prob
    p_ff = sum(o.prob for o in outcomes.values())
    return merge_corrected(outcomes, pi_rule), p_filtered, p_ff
