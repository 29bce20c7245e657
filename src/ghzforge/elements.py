"""Photon-number-conserving optical elements and circuit folding.

Conventions fixed here and relied on by every other module:

* PBS: horizontal polarization transmits (stays in its arm), vertical
  reflects (crosses arms), with no reflection phase.
* HWP at angle theta acts on one port as the real Jones matrix
  ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]``; theta = pi/8 is the
  diagonal-basis rotation, theta = pi/4 swaps H and V.
* A beam-displacer merge relabels both input ports onto one output port,
  polarization preserved.  It is legal only where that relabeling stays
  injective on the occupied modes of every ket; a violation raises
  ``BDCollision`` because the compiler must never build such a circuit.

Elements are applied in second quantization: each creation operator is
substituted by its image and the product re-expanded, so bosonic
``sqrt(n!)`` factors for multiply-occupied modes come out exactly (this is
what makes two photons bunching on one port interfere correctly).  An element
rebuilds only the kets it touches: a ket with no photon in the element's modes
is copied through unchanged, and an HWP acting on a lone photon among singly
occupied modes swaps that mode in place, where every bosonic factor is 1.
Kernels work on the flat kets of ``states``: a mode is the int
``2 * port + (pol == "V")`` and a ket the sorted tuple of its photons' mode
ints.  A mode map is a dict of mode ints; a ket it leaves alone shares no
mode with the map's keys, and a ket collides where it comes out with fewer
distinct modes than it went in.  The HWP and phase kernels find a port's
photons by bisecting on ``2 * port``.  PBS, HWP, phase and beam-displacer
steps are unitary (``NORM_PRESERVING``); injections and post-selections
change the norm.

Circuit steps form one table: every step class derives from ``Step``, carries
its circuit-file tag (``{"elem": "pbs"}``, or an ``elem``/``kind`` pair for
the post-selections defined in ``measurement``) and lets its dataclass fields,
in order, drive serialisation, parsing and the port checks of
``circuit_from_jsonable``.  Only ``Inject`` (its state) and
``CoincidenceSelect`` (its port groups) override those defaults.
``Step.apply`` returns the new state and, for a post-selection, its
probability (``None`` otherwise).  Optical steps reach the ``apply_*``
functions through module globals at call time, so replacing
``elements.apply_pbs`` changes what every circuit does.

``run_circuit`` applies each run of two or more consecutive PBS and
beam-displacer steps to the state as one relabel.  The run's map is composed
from probes through the same globals: every step of the run acts, through
``Step.apply``, on a probe state with one small ket per occupied mode, so each
``apply_*`` function is still called once per step and a replaced one is
honoured.  Where the probe raises, or shows a map that is not a pure mode
relabel, or the composed relabel collides, the run is applied step by step
instead, so kets, their order and errors are those of the steps themselves.
So are amplitudes, except where three or more kets merge at different steps
of a run: the one relabel adds them in ket order, which can change the last
bit of the sum.
"""

from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

from . import states
from .errors import BDCollision, EmptyState, InvalidParameters, PortCollision
from .states import EPS, Ket, PhotonicState, _from_kets

_FIELD_PARSERS = {"int": states.port_from_json, "float": states.real_from_json}


def _field_from_json(f, value: object) -> object:
    choices = f.metadata.get("choices")
    if choices:
        return states.choice_from_json(value, choices, f.name)
    return _FIELD_PARSERS[f.type](value)


class Step:
    """One circuit step; the direct subclasses of this class are the step table.

    Every ``int`` field is a port and every ``float`` field a finite real; a
    ``str`` field lists its allowed values as ``metadata={"choices": ...}``.
    Field types are read as annotation strings, so modules defining steps use
    postponed annotations.
    """

    tag: ClassVar[dict[str, str]]

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, float | None]:
        raise NotImplementedError

    def ports(self) -> set[int]:
        return {getattr(self, f.name) for f in fields(self) if f.type == "int"}

    def to_jsonable(self) -> dict:
        return {**self.tag, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_jsonable(cls, entry: dict) -> Step:
        return cls(**{f.name: _field_from_json(f, entry[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class PBS(Step):
    tag = {"elem": "pbs"}
    port_a: int
    port_b: int

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, None]:
        return apply_pbs(state, self.port_a, self.port_b), None


@dataclass(frozen=True)
class HWP(Step):
    tag = {"elem": "hwp"}
    port: int
    theta: float

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, None]:
        return apply_hwp(state, self.port, self.theta), None


@dataclass(frozen=True)
class Phase(Step):
    tag = {"elem": "phase"}
    port: int
    phi: float

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, None]:
        return apply_phase(state, self.port, self.phi), None


@dataclass(frozen=True)
class BDMerge(Step):
    tag = {"elem": "bd_merge"}
    port_even: int
    port_odd: int
    port_out: int

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, None]:
        return apply_bd_merge(state, self.port_even, self.port_odd, self.port_out), None


@dataclass(frozen=True)
class BDSplit(Step):
    tag = {"elem": "bd_split"}
    port_in: int
    port_even: int
    port_odd: int

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, None]:
        return apply_bd_split(state, self.port_in, self.port_even, self.port_odd), None


@dataclass(frozen=True)
class Inject(Step):
    """Tensor a fixed source state into the pipeline (disjoint ports)."""

    tag = {"elem": "inject"}
    state: PhotonicState

    def apply(self, state: PhotonicState) -> tuple[PhotonicState, None]:
        return states.tensor(state, self.state), None

    def ports(self) -> set[int]:
        return self.state.ports()

    def to_jsonable(self) -> dict:
        return {**self.tag, "state": states.state_to_jsonable(self.state)}

    @classmethod
    def from_jsonable(cls, entry: dict) -> Inject:
        return cls(states.state_from_jsonable(entry["state"]))


def _relabel(
    state: PhotonicState,
    mapping: dict[int, int],
    collision_error: type[Exception],
    what: str,
) -> PhotonicState:
    """Apply a relabeling of mode ints; error out if two occupied modes collide.

    A ket with no mode in ``mapping`` is already canonical and cannot collide,
    so it is copied through as is; only touched kets are rebuilt and sorted.
    A rebuilt ket with fewer distinct modes than its source has collided, and
    only then does a walk over the ket's modes find the first collision to
    report."""
    out: dict[Ket, complex] = {}
    get = mapping.get
    untouched = mapping.keys().isdisjoint
    for k, amp in state.kets.items():
        if untouched(k):
            out[k] = out.get(k, 0j) + amp
            continue
        key = tuple(sorted(map(get, k, k)))
        distinct = len(set(key))
        if distinct < len(key) and distinct < len(set(k)):
            seen: set[int] = set()
            for m in dict.fromkeys(k):
                target = get(m, m)
                if target in seen:
                    raise collision_error(
                        f"{what}: modes collide on {states.mode_of(target)} "
                        f"in term {states.decode(k)}"
                    )
                seen.add(target)
        out[key] = out.get(key, 0j) + amp
    return _from_kets(out)


def _apply_mode_linear_map(
    state: PhotonicState, port: int, images: dict[int, tuple[tuple[int, complex], ...]]
) -> PhotonicState:
    """Substitute the creation operators of ``port``'s modes by linear images
    on the same port, with exact bosonic factors.

    Each ket's photons on the port are found by bisecting on ``2 * port``;
    a ket with none is copied.  A ket without a repeated mode and with a
    single photon on the port has every bosonic factor equal to 1.0, so that
    photon's mode is replaced in place (same sort position) with the same
    amplitudes the full expansion gives.  Amplitudes below tolerance are then
    dropped in place, keeping ket order."""
    out: dict[Ket, complex] = {}
    lo = 2 * port
    hi = lo + 2
    for k, amp in state.kets.items():
        at = bisect_left(k, lo)
        if at == len(k) or k[at] >= hi:
            out[k] = amp
            continue
        end = bisect_left(k, hi, at + 1)
        if end == at + 1 and len(set(k)) == len(k):
            # a lone photon among singly occupied modes: swap in place
            head, tail = k[:at], k[end:]
            for m2, u in images[k[at]]:
                if u != 0:
                    k2 = head + (m2,) + tail
                    out[k2] = out.get(k2, 0j) + amp * u
            continue
        rest = k[:at] + k[end:]
        coeff0 = amp
        for c in states.mode_counts(k):
            coeff0 /= math.sqrt(math.factorial(c))
        # expand the product of touched creation operators photon by photon
        monomials: dict[Ket, complex] = {(): coeff0}
        for m in k[at:end]:
            nxt: dict[Ket, complex] = {}
            for key, co in monomials.items():
                for m2, u in images[m]:
                    if u == 0:
                        continue
                    k2 = tuple(sorted(key + (m2,)))
                    nxt[k2] = nxt.get(k2, 0j) + co * u
            monomials = nxt
        for key, co in monomials.items():
            k2 = tuple(sorted(rest + key))
            factor = 1.0
            for c2 in states.mode_counts(k2):
                factor *= math.factorial(c2)
            out[k2] = out.get(k2, 0j) + co * math.sqrt(factor)
    for k in [k for k, a in out.items() if not abs(a) >= EPS]:  # NaN goes too
        del out[k]
    return _from_kets(out)


def apply_pbs(state: PhotonicState, port_a: int, port_b: int) -> PhotonicState:
    """H transmits, V swaps arms; a pure mode permutation, so norm-preserving."""
    if port_a == port_b:
        raise PortCollision("PBS needs two distinct ports")
    va, vb = 2 * port_a + 1, 2 * port_b + 1
    return _relabel(state, {va: vb, vb: va}, PortCollision, "pbs")


def apply_hwp(state: PhotonicState, port: int, theta: float) -> PhotonicState:
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    h = 2 * port
    v = h + 1
    images = {
        h: ((h, complex(c)), (v, complex(s))),
        v: ((h, complex(s)), (v, complex(-c))),
    }
    return _apply_mode_linear_map(state, port, images)


def apply_phase(state: PhotonicState, port: int, phi: float) -> PhotonicState:
    """Every photon in the port (either polarization) acquires exp(i*phi)."""
    out: dict[Ket, complex] = {}
    factors: dict[int, complex] = {}  # exp(i*phi*k), once per photon count k
    lo = 2 * port
    hi = lo + 2
    for key, amp in state.kets.items():
        at = bisect_left(key, lo)
        k = bisect_left(key, hi, at) - at
        if k and k not in factors:
            factors[k] = cmath.exp(1j * phi * k)
        out[key] = amp * factors[k] if k else amp
    return _from_kets(out)


def apply_bd_merge(
    state: PhotonicState, port_even: int, port_odd: int, port_out: int
) -> PhotonicState:
    if len({port_even, port_odd, port_out}) != 3:
        raise PortCollision("BD merge needs three distinct ports")
    mapping = {2 * p + b: 2 * port_out + b for p in (port_even, port_odd) for b in (0, 1)}
    return _relabel(state, mapping, BDCollision, "bd_merge")


def apply_bd_split(
    state: PhotonicState, port_in: int, port_even: int, port_odd: int
) -> PhotonicState:
    """Inverse of the merge: H goes to the even port, V to the odd port."""
    if len({port_in, port_even, port_odd}) != 3:
        raise PortCollision("BD split needs three distinct ports")
    even = {2 * port_even, 2 * port_even + 1}
    vacant = (even | {2 * port_odd, 2 * port_odd + 1}).isdisjoint
    for k in state.kets:
        if not vacant(k):
            p = port_odd if even.isdisjoint(k) else port_even
            raise PortCollision(f"BD split destination port {p} is occupied")
    mapping = {2 * port_in: 2 * port_even, 2 * port_in + 1: 2 * port_odd + 1}
    return _relabel(state, mapping, PortCollision, "bd_split")


_MODE_MAPS = (PBS, BDMerge, BDSplit)
NORM_PRESERVING = (PBS, HWP, Phase, BDMerge, BDSplit)  # unitary optics


def _replay(state: PhotonicState, run: list) -> PhotonicState:
    for step in run:
        state, _ = step.apply(state)
    return state


def _probe_map(state: PhotonicState, run: list) -> dict[int, int] | None:
    """The run's composed map of mode ints, or None where no clean one is seen.

    The map is read off a probe state with one ket per mode that the state
    occupies on the run's ports; each such photon shares its ket with a tag
    photon on a port of its own past the run's ports, so no two probe kets
    merge or collide.  The run's steps act on the probe through ``Step.apply``,
    and each tag's ket then holds that mode's image.  A probe that raises, or
    that is not a clean relabel (a tag with other than one image, an amplitude
    other than exactly 1), gives None."""
    ports = {p for step in run for p in vars(step).values()}  # every field is a port
    run_modes = {2 * p + b for p in ports for b in (0, 1)}
    modes = sorted(run_modes & set().union(*state.kets))
    tag0 = 2 * (max(ports) + 1)
    tags = {tag0 + 2 * r: m for r, m in enumerate(modes)}
    try:
        probe = _replay(_from_kets({(m, t): 1 + 0j for t, m in tags.items()}), run)
    except Exception:  # whatever a step raised, the replay raises the state's own
        return None
    mapping: dict[int, int] = {}
    for k, amp in probe.kets.items():
        if amp != 1 or len(k) != 2 or k[1] not in tags:
            return None
        image, tag = k
        if image >= tag0:
            return None
        m = tags.pop(tag)
        if image != m:
            mapping[m] = image
    return None if tags else mapping


def _apply_mode_map_run(state: PhotonicState, run: list) -> PhotonicState:
    """Apply consecutive PBS / beam-displacer steps as one relabel.

    Where the probe gives no map, or the composed relabel collides (which it
    does exactly when some step would), the run is replayed step by step on
    the state, so an error is the first failing step's own."""
    mapping = _probe_map(state, run)
    if mapping is not None:
        try:
            return _relabel(state, mapping, BDCollision, "run")
        except BDCollision:
            pass
    return _replay(state, run)


def run_circuit(
    state: PhotonicState, steps: Sequence[Step]
) -> tuple[PhotonicState, list[float]]:
    """Fold steps in order; returns the final state and one probability per
    post-selection step, in encounter order.  Each run of two or more
    consecutive PBS / beam-displacer steps is applied as one relabel (see
    ``_apply_mode_map_run``)."""
    trace: list[float] = []
    for fusable, group in itertools.groupby(steps, lambda s: type(s) in _MODE_MAPS):
        run = list(group)
        if fusable and len(run) > 1:
            state = _apply_mode_map_run(state, run)
            continue
        for step in run:
            state, p = step.apply(state)
            if p is not None:
                trace.append(p)
                if state.is_empty:
                    return state, trace
    return state, trace


def circuit_to_jsonable(steps: Sequence[Step]) -> list[dict]:
    return [step.to_jsonable() for step in steps]


def _step_from_jsonable(entry: object) -> Step:
    if not isinstance(entry, dict):
        raise TypeError(f"expected a JSON object, got {entry!r}")
    for kind in Step.__subclasses__():
        if kind.tag.items() <= entry.items():
            return kind.from_jsonable(entry)
    raise ValueError(
        f"unknown step elem={entry.get('elem')!r} kind={entry.get('kind')!r}"
    )


def circuit_from_jsonable(data: object) -> list[Step]:
    """Parse a circuit file's JSON list into its steps.  Malformed input
    raises InvalidParameters, and so does a step that names one port twice
    in its port fields, or a beam-displacer merge onto a port that an
    earlier step used (the freshness rule; a post-selection's ports count)."""
    if not isinstance(data, list):
        raise InvalidParameters("a circuit must be a JSON list of steps")
    steps: list[Step] = []
    used: set[int] = set()
    for index, entry in enumerate(data):
        try:
            step = _step_from_jsonable(entry)
        except KeyError as exc:
            raise InvalidParameters(f"circuit step {index}: missing key {exc}") from None
        except (TypeError, ValueError, OverflowError, EmptyState) as exc:
            raise InvalidParameters(f"circuit step {index}: {exc}") from None
        if len(step.ports()) < sum(f.type == "int" for f in fields(step)):
            raise InvalidParameters(f"circuit step {index}: a port repeats in its port fields")
        if isinstance(step, BDMerge) and step.port_out in used:
            raise InvalidParameters(
                f"circuit step {index}: BD merge output port {step.port_out} "
                "already used upstream"
            )
        used |= step.ports()
        steps.append(step)
    return steps
