"""Compilation and execution of the chained GHZ preparation protocol.

``compile_plan`` turns (d, n, options) into an ordered stage list: a chain of
ceil(n/2) path-encoded pair sources whose adjacent photons meet at junctions.
Sources are injected per junction: the first stage injects sources 0 and 1,
and junction k >= 1 starts by injecting source k + 1, the only new photons it
touches.  Operators on disjoint ports commute, so this equals starting from
the full product of all sources, but each junction sees the d-term chain
built so far times one d-term source (d**2 terms) instead of d**ceil(n/2)
terms.  Each junction runs a parity-tagged PBS filter and then one auxiliary
stage per same-parity path pair; an auxiliary stage tags the pair's upper
path vertical, injects a two-photon helper state, interferes photon and
helper arms through beam-displacer merge / PBS / split blocks, post-selects
coincidences, rotates the helper arms into the diagonal basis and projects
them as a pair.  Odd photon numbers finish with a Fourier-basis path
measurement of the first photon.

Two executors interpret a plan:

* the element backend folds the literal optical circuit (the golden
  reference), and
* the rule backend applies each stage's kept-term predicate and amplitude
  factor directly to path tuples, which is exact for every (d, n) and much
  smaller.

Both track the two probability accountings side by side: "filtered" keeps
only HH/VV pair outcomes and the uniform-superposition Fourier outcome, while
"feedforward" corrects every outcome by conditional phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import analysis, elements, measurement, states
from .elements import BDMerge, BDSplit, HWP, Inject, PBS
from .errors import (
    BranchMismatch,
    InvalidAuxPair,
    InvalidCoefficients,
    InvalidParameters,
    PortCollision,
)
from .measurement import CoincidencePattern, CoincidenceSelect, PasPairSelect
from .states import H, V, PhotonicState, eps, ket

SINGLE_OUTCOME = "single_outcome"
FULL_FOURIER = "full_fourier"

_TAG = math.pi / 4.0      # HWP angle swapping H and V
_DIAGONAL = math.pi / 8.0  # HWP angle rotating into the +/- basis
_PROB_REL_TOL = Fraction(1, 10**9)  # measured vs exact predicted probability


@dataclass(frozen=True)
class ProtocolOptions:
    d: int
    n: int
    feedforward: bool = False
    odd_n_mode: str | None = None  # None pairs the mode with the feedforward flag
    input_coeffs: tuple[float, ...] | None = None

    def resolved_odd_mode(self) -> str:
        if self.odd_n_mode is not None:
            if self.odd_n_mode not in (SINGLE_OUTCOME, FULL_FOURIER):
                raise InvalidParameters(f"unknown odd-n mode {self.odd_n_mode!r}")
            return self.odd_n_mode
        return FULL_FOURIER if self.feedforward else SINGLE_OUTCOME


@dataclass
class PlanStage:
    label: str
    kind: str  # sources | tag | pbs_filter | aux_inject | aux_interfere | aux_analysis | aux_pas | reduce
    steps: list
    junction: int | None = None
    aux_pair: tuple[int, int] | None = None
    info: dict = field(default_factory=dict)


@dataclass
class ProtocolPlan:
    options: ProtocolOptions
    epr_pair_count: int
    aux_pair_count: int
    junction_aux_pairs: list[list[tuple[int, int]]]
    stages: list[PlanStage]

    @property
    def d(self) -> int:
        return self.options.d

    @property
    def n(self) -> int:
        return self.options.n

    @property
    def photon_count(self) -> int:
        return 2 * self.epr_pair_count

    def photon_ports(self, photon: int) -> list[int]:
        return [photon * self.d + i for i in range(self.d)]

    def output_photons(self) -> list[int]:
        first = 1 if self.n % 2 == 1 else 0
        return list(range(first, self.photon_count))

    def output_port_groups(self) -> list[list[int]]:
        return [self.photon_ports(p) for p in self.output_photons()]

    def circuit_steps(self) -> list:
        out: list = []
        for stage in self.stages:
            if stage.kind != "reduce":
                out.extend(stage.steps)
        return out

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "feedforward": self.options.feedforward,
            "odd_n_mode": self.options.resolved_odd_mode() if self.n % 2 else None,
            "epr_pair_count": self.epr_pair_count,
            "aux_pair_count": self.aux_pair_count,
            "junction_aux_pairs": [
                [list(p) for p in pairs] for pairs in self.junction_aux_pairs
            ],
            "stages": [
                {"label": s.label, "kind": s.kind, "junction": s.junction,
                 "aux_pair": list(s.aux_pair) if s.aux_pair else None}
                for s in self.stages
            ],
            "circuit": elements.circuit_to_jsonable(self.circuit_steps()),
        }


def _validated_coeffs(d: int, coeffs: Sequence[float] | None) -> list[float]:
    if coeffs is None:
        return [1.0 / math.sqrt(d)] * d
    values = [float(c) for c in coeffs]
    if len(values) != d:
        raise InvalidCoefficients(f"need {d} coefficients, got {len(values)}")
    if any(not math.isfinite(c) for c in values):
        raise InvalidCoefficients("coefficients must be finite reals")
    if abs(sum(c * c for c in values) - 1.0) > 1e-6:
        raise InvalidCoefficients("squared coefficients must sum to 1")
    return values


def build_epr_source(
    d: int,
    coeffs: Sequence[float] | None,
    ports_a: Sequence[int],
    ports_b: Sequence[int],
) -> PhotonicState:
    """sum_i c_i |i>|i>, photon A on ports_a[i] and photon B on ports_b[i],
    both horizontal; path-to-polarization tagging happens later per stage."""
    if len(ports_a) != d or len(ports_b) != d or set(ports_a) & set(ports_b):
        raise PortCollision("sources need d disjoint ports per photon")
    values = _validated_coeffs(d, coeffs)
    kets = [
        (ket((ports_a[i], H), (ports_b[i], H)), values[i])
        for i in range(d)
        if values[i] != 0.0
    ]
    return states.make_state(kets)


def build_aux_source(
    i: int, j: int, ports_x: Mapping[int, int], ports_y: Mapping[int, int]
) -> PhotonicState:
    """Helper pair (|i_H i_H> + |j_V j_V>)/sqrt(2) on the given path ports."""
    if not (0 <= i < j) or i % 2 != j % 2:
        raise InvalidAuxPair(f"need i < j with equal parity, got ({i}, {j})")
    amp = 1.0 / math.sqrt(2.0)
    return states.make_state(
        [
            (ket((ports_x[i], H), (ports_y[i], H)), amp),
            (ket((ports_x[j], V), (ports_y[j], V)), amp),
        ]
    )


def polarization_tag(
    state: PhotonicState, port_group: Sequence[int], rule: Callable[[int], str]
) -> PhotonicState:
    """Set the polarization of every photon in path p of the group to rule(p)."""
    port_to_path = {port: path for path, port in enumerate(port_group)}
    out: dict = {}
    for term, amp in state.terms.items():
        occ: dict = {}
        for (port, pol), count in term:
            target = (port, rule(port_to_path[port])) if port in port_to_path else (port, pol)
            if target in occ:
                raise PortCollision(f"tagging merges occupied modes on port {port}")
            occ[target] = count
        new_term = tuple(sorted(occ.items()))
        out[new_term] = out.get(new_term, 0j) + amp
    return PhotonicState(out, state.branch_prob)


def parity_rule(path: int) -> str:
    return V if path % 2 == 1 else H


def compile_plan(
    options: ProtocolOptions,
    aux_order: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> ProtocolPlan:
    """Synthesize the full stage list for (d, n).

    The ``sources`` stage injects sources 0 and 1; every later source k + 1
    is injected by its own ``sources``-kind stage ``j{k}.source`` just before
    junction k's first tag.  ``aux_order`` optionally overrides the
    per-junction auxiliary pair order; it must be a permutation of the
    same-parity pair set for each junction.
    """
    d, n = options.d, options.n
    if not isinstance(d, int) or not isinstance(n, int) or d < 2 or n < 2:
        raise InvalidParameters(f"need integer d >= 2 and n >= 2, got d={d}, n={n}")
    coeffs = _validated_coeffs(d, options.input_coeffs)
    options.resolved_odd_mode()  # validates the mode string early
    m = -(n // -2)
    default_pairs = analysis.aux_pairs(d)
    junctions = m - 1
    if aux_order is None:
        junction_pairs = [list(default_pairs) for _ in range(junctions)]
    else:
        junction_pairs = [list(p) for p in aux_order]
        if len(junction_pairs) != junctions or any(
            sorted(p) != sorted(default_pairs) for p in junction_pairs
        ):
            raise InvalidParameters(
                "aux_order must permute the same-parity pair set per junction"
            )

    def ports(photon: int) -> list[int]:
        return [photon * d + i for i in range(d)]

    def source(s: int) -> Inject:
        return Inject(build_epr_source(d, coeffs, ports(2 * s), ports(2 * s + 1)))

    stages = [PlanStage("sources", "sources", [source(s) for s in range(min(m, 2))])]

    next_port = 2 * m * d
    pas_mode = "feedforward" if options.feedforward else "filtered"
    for k in range(junctions):
        if k > 0:
            stages.append(PlanStage(f"j{k}.source", "sources", [source(k + 1)], junction=k))
        pa, pb = ports(2 * k + 1), ports(2 * k + 2)
        odd_paths = [p for p in range(d) if p % 2 == 1]
        tag = [HWP(pa[p], _TAG) for p in odd_paths] + [HWP(pb[p], _TAG) for p in odd_paths]
        stages.append(PlanStage(f"j{k}.step_i_tag", "tag", list(tag), junction=k))
        filter_steps: list = [PBS(pa[p], pb[p]) for p in range(d)]
        filter_steps.append(
            CoincidenceSelect(CoincidencePattern((tuple(pa), tuple(pb))))
        )
        stages.append(PlanStage(f"j{k}.step_i", "pbs_filter", filter_steps, junction=k))
        stages.append(PlanStage(f"j{k}.step_i_untag", "tag", list(tag), junction=k))

        for q, (i, j) in enumerate(junction_pairs[k]):
            px = {i: next_port, j: next_port + 1}
            py = {i: next_port + 2, j: next_port + 3}
            ma, mx, mb, my = (next_port + 4, next_port + 5, next_port + 6, next_port + 7)
            ax, ay = next_port + 8, next_port + 9
            next_port += 10
            info = {
                "ports_x": dict(px), "ports_y": dict(py),
                "analysis_ports": (ax, ay),
            }
            inject = [
                HWP(pa[j], _TAG),
                HWP(pb[j], _TAG),
                Inject(build_aux_source(i, j, px, py)),
            ]
            stages.append(
                PlanStage(f"j{k}.aux{q}.inject", "aux_inject", inject,
                          junction=k, aux_pair=(i, j), info=info)
            )
            interfere: list = [
                BDMerge(pa[i], pa[j], ma),
                BDMerge(px[i], px[j], mx),
                BDMerge(pb[i], pb[j], mb),
                BDMerge(py[i], py[j], my),
                PBS(ma, mx),
                PBS(mb, my),
                BDSplit(ma, pa[i], pa[j]),
                BDSplit(mx, px[i], px[j]),
                BDSplit(mb, pb[i], pb[j]),
                BDSplit(my, py[i], py[j]),
                CoincidenceSelect(
                    CoincidencePattern(
                        (tuple(pa), (px[i], px[j]), tuple(pb), (py[i], py[j]))
                    )
                ),
            ]
            stages.append(
                PlanStage(f"j{k}.aux{q}.interfere", "aux_interfere", interfere,
                          junction=k, aux_pair=(i, j), info=info)
            )
            analysis_steps = [
                BDMerge(px[i], px[j], ax),
                BDMerge(py[i], py[j], ay),
                HWP(ax, _DIAGONAL),
                HWP(ay, _DIAGONAL),
            ]
            stages.append(
                PlanStage(f"j{k}.aux{q}.analysis", "aux_analysis", analysis_steps,
                          junction=k, aux_pair=(i, j), info=info)
            )
            pas = [PasPairSelect(ax, ay, pas_mode, correction_port=pa[j])]
            stages.append(
                PlanStage(f"j{k}.aux{q}.pas", "aux_pas", pas,
                          junction=k, aux_pair=(i, j), info=info)
            )
            untag = [HWP(pa[j], _TAG), HWP(pb[j], _TAG)]
            stages.append(
                PlanStage(f"j{k}.aux{q}.untag", "tag", untag,
                          junction=k, aux_pair=(i, j), info=info)
            )

    if n % 2 == 1:
        stages.append(
            PlanStage(
                "reduce", "reduce", [],
                info={"mode": options.resolved_odd_mode(), "ports": ports(0)},
            )
        )

    return ProtocolPlan(
        options=options,
        epr_pair_count=m,
        aux_pair_count=len(default_pairs) * junctions,
        junction_aux_pairs=junction_pairs,
        stages=stages,
    )


@dataclass
class RunReport:
    d: int
    n: int
    backend: str
    feedforward: bool
    final_state: PhotonicState
    prob: float
    prob_filtered: float
    prob_feedforward: float
    predicted: Fraction | None  # exact closed form; None for non-uniform coefficients
    trace: list[float]
    stage_labels: list[str]
    fidelity: float
    intermediates: dict[str, PhotonicState] = field(default_factory=dict)

    @property
    def predicted_prob(self) -> float | None:
        return None if self.predicted is None else float(self.predicted)

    @property
    def prob_matches(self) -> bool | None:
        """``prob`` within 1e-9 of the exact prediction, relatively, so a
        probability that is scaled, or that underflowed to 0, never matches."""
        if self.predicted is None:
            return None
        return math.isfinite(self.prob) and (
            abs(Fraction(self.prob) - self.predicted) <= self.predicted * _PROB_REL_TOL
        )

    @property
    def fidelity_matches(self) -> bool | None:
        return None if self.predicted is None else self.fidelity >= 1.0 - 1e-6

    def to_jsonable(self, include_state: bool = True) -> dict:
        out = {
            "d": self.d,
            "n": self.n,
            "backend": self.backend,
            "feedforward": self.feedforward,
            "fidelity": self.fidelity,
            "prob": self.prob,
            "prob_filtered": self.prob_filtered,
            "prob_feedforward": self.prob_feedforward,
            "predicted_prob": self.predicted_prob,
            "trace": list(self.trace),
            "stage_labels": list(self.stage_labels),
            "prob_matches": self.prob_matches,
            "fidelity_matches": self.fidelity_matches,
        }
        out["final_state"] = (
            states.state_to_jsonable(self.final_state) if include_state else None
        )
        return out

    @classmethod
    def build(
        cls, backend: str, d: int, n: int, feedforward: bool,
        state: PhotonicState, groups: Sequence[Sequence[int]],
        probs: tuple[float, float, float], predicted: Fraction | None,
        trace: list[float], labels: list[str], intermediates: dict | None = None,
    ) -> RunReport:
        """The one way to assemble a report from an executor's final state.

        ``probs`` is (chosen, filtered, feedforward).  An empty state reports
        every probability and the fidelity as 0, so it never matches a
        prediction.  Otherwise the state is normalized (keeping its
        ``branch_prob``) and compared with the GHZ reference on ``groups``.
        The match flags are None when there is no prediction.
        """
        if state.is_empty:
            final, probs, fid = PhotonicState({}, 0.0), (0.0, 0.0, 0.0), 0.0
        else:
            reference = analysis.ghz_reference(d, len(groups), groups)
            final, fid = states.normalize(state), analysis.fidelity(state, reference)
        prob, prob_filtered, prob_ff = probs
        return cls(
            d=d, n=n, backend=backend, feedforward=feedforward,
            final_state=final,
            prob=prob, prob_filtered=prob_filtered, prob_feedforward=prob_ff,
            predicted=predicted, trace=trace, stage_labels=labels,
            fidelity=fid,
            intermediates={} if intermediates is None else intermediates,
        )


@dataclass
class _Ledger:
    """Stage probabilities in the order measured, with the running products
    of the (chosen, filtered, feedforward) accountings."""

    trace: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    probs: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def record(self, label: str, p: float, p_filtered: float, p_ff: float) -> None:
        self.trace.append(p)
        self.labels.append(label)
        chosen, filtered, ff = self.probs
        self.probs = (chosen * p, filtered * p_filtered, ff * p_ff)


def _plan_report(
    plan: ProtocolPlan, backend: str, state: PhotonicState, ledger: _Ledger,
    intermediates: dict,
) -> RunReport:
    opts = plan.options
    predicted = (
        analysis.predicted_prob_for_options(
            plan.d, plan.n, opts.feedforward, opts.odd_n_mode
        )
        if opts.input_coeffs is None
        else None
    )
    return RunReport.build(
        backend, plan.d, plan.n, opts.feedforward, state, plan.output_port_groups(),
        ledger.probs, predicted, ledger.trace, ledger.labels, intermediates,
    )


def _reduce_even_state(
    state: PhotonicState, d: int, mode: str,
    measure_ports: Sequence[int], anchor_ports: Sequence[int],
) -> tuple[PhotonicState, float, float, float]:
    """Fourier-measure one photon out; returns (state, p_chosen, p_single, p_full)."""
    dist = measurement.fourier_measure_path(state, measure_ports, d)
    rule = measurement.fourier_feedforward_rule([list(anchor_ports)], d)
    if mode == SINGLE_OUTCOME:
        p_single = dist.prob("0")
        post = dist.state("0")
        return post, p_single, p_single, dist.total()
    corrected: list[PhotonicState] = []
    for o in dist.outcomes:
        if o.prob <= eps():
            continue
        corrected.append(measurement.feedforward(o.state, o.label, rule))
    merged = corrected[0]
    for other in corrected[1:]:
        if not states.states_close(merged, other, tol=1e-7):
            raise BranchMismatch("Fourier outcome branches do not merge after correction")
    return merged, dist.total(), dist.prob("0"), dist.total()


def _run_elements(plan: ProtocolPlan, keep_intermediates: bool) -> RunReport:
    opts = plan.options
    state = states.vacuum()
    ledger = _Ledger()
    intermediates: dict[str, PhotonicState] = {}

    for stage in plan.stages:
        if stage.kind == "reduce":
            state, p, p_single, p_full = _reduce_even_state(
                state, plan.d, stage.info["mode"],
                stage.info["ports"], plan.photon_ports(1),
            )
            ledger.record(stage.label, p, p_single, p_full)
        elif stage.kind == "aux_pas":
            step: PasPairSelect = stage.steps[0]
            result = measurement.pas_pair_analysis(
                state, step.port_x, step.port_y, step.correction_port
            )
            p = result.prob_feedforward if opts.feedforward else result.prob_filtered
            ledger.record(stage.label, p, result.prob_filtered, result.prob_feedforward)
            if result.merged is None or p <= 0.0:
                state = PhotonicState({}, 0.0)
                break
            state = result.merged
        else:
            state, ps = elements.run_circuit(state, stage.steps)
            for p in ps:
                ledger.record(stage.label, p, p, p)
            if state.is_empty:
                break
            state = states.normalize(state)
        state = PhotonicState(state.terms, ledger.probs[0])
        if keep_intermediates:
            intermediates[stage.label] = state
    return _plan_report(plan, "element", state, ledger, intermediates)


def _materialize_paths(
    d: int,
    amps: Mapping[tuple[int, ...], complex],
    photons: Sequence[int],
    pol_of: Callable[[int, int], str],
    branch_prob: float,
) -> PhotonicState:
    terms = {}
    for t, a in amps.items():
        modes = [
            (photon * d + t[photon], pol_of(photon, t[photon])) for photon in photons
        ]
        terms[ket(*modes)] = a
    return PhotonicState(terms, branch_prob)


def _run_rules(plan: ProtocolPlan, keep_intermediates: bool) -> RunReport:
    """Predicate-level executor: per-photon path tuples with stage keep rules.

    Sources stream in as in the plan: each tuple starts as source 0's (i, i),
    and source k + 1 appends its (i, i) just before junction k.  At an
    auxiliary stage targeting (i, j) a ket survives the interference
    coincidence exactly when its junction photons either both sit on path j
    (riding the vertical helper branch) or both avoid it (the horizontal
    branch); every survivor is damped by 1/(2*sqrt(2)) once the pair
    projection picks an outcome, and the four outcomes merge by feedforward.
    """
    d = plan.d
    opts = plan.options
    source = [
        (i, c) for i, c in enumerate(_validated_coeffs(d, opts.input_coeffs)) if c != 0.0
    ]
    amps: dict[tuple[int, ...], complex] = {(i, i): c + 0j for i, c in source}

    ledger = _Ledger()
    intermediates: dict[str, PhotonicState] = {}

    def record(label: str, tagged: set[int], rule: Callable[[int], str]) -> None:
        if keep_intermediates:
            intermediates[label] = _materialize_paths(
                d, amps, present,
                lambda photon, path: rule(path) if photon in tagged else H,
                ledger.probs[0],
            )

    for k in range(plan.epr_pair_count - 1):
        amps = {t + (i, i): a * c for t, a in amps.items() for i, c in source}
        present = range(2 * k + 4)  # the photons of sources 0 .. k + 1
        ia, ib = 2 * k + 1, 2 * k + 2
        total = sum(abs(a) ** 2 for a in amps.values())
        kept = {t: a for t, a in amps.items() if t[ia] % 2 == t[ib] % 2}
        kept_nsq = sum(abs(a) ** 2 for a in kept.values())
        p1 = kept_nsq / total if total else 0.0
        ledger.record(f"j{k}.step_i", p1, p1, p1)
        if not kept:
            return _plan_report(plan, "rule", PhotonicState({}, 0.0), ledger, intermediates)
        scale = 1.0 / math.sqrt(kept_nsq)
        amps = {t: a * scale for t, a in kept.items()}
        record(f"j{k}.step_i", {ia, ib}, parity_rule)

        for q, (i, j) in enumerate(plan.junction_aux_pairs[k]):
            survivors = {
                t: a
                for t, a in amps.items()
                if (t[ia] != j and t[ib] != j) or (t[ia] == j and t[ib] == j)
            }
            surv_nsq = sum(abs(a) ** 2 for a in survivors.values())
            p_coin = 0.5 * surv_nsq  # helper branch carries 1/sqrt(2) each way
            ledger.record(f"j{k}.aux{q}.interfere", p_coin, p_coin, p_coin)
            ledger.record(f"j{k}.aux{q}.pas", 1.0 if opts.feedforward else 0.5, 0.5, 1.0)
            if not survivors:
                return _plan_report(plan, "rule", PhotonicState({}, 0.0), ledger, intermediates)
            scale = 1.0 / math.sqrt(surv_nsq)
            amps = {t: a * scale for t, a in survivors.items()}
            record(
                f"j{k}.aux{q}.pas", {ia, ib},
                lambda path, _j=j: V if path == _j else H,
            )

    photons = plan.output_photons()
    if plan.n % 2 == 1:
        stage = plan.stages[-1]
        mode = stage.info["mode"]
        # photon 0 always shares its source partner's path, so dropping it
        # never merges kets; outcome probabilities are uniform 1/d
        p_single = 1.0 / d
        ledger.record("reduce", p_single if mode == SINGLE_OUTCOME else 1.0, p_single, 1.0)

    state = _materialize_paths(d, amps, photons, lambda photon, path: H, ledger.probs[0])
    if keep_intermediates:
        intermediates["final"] = state
    return _plan_report(plan, "rule", state, ledger, intermediates)


def execute(
    plan: ProtocolPlan, backend: str = "rule", keep_intermediates: bool = False
) -> RunReport:
    if backend == "rule":
        return _run_rules(plan, keep_intermediates)
    if backend == "element":
        return _run_elements(plan, keep_intermediates)
    if backend == "oracle":
        return analysis.oracle_run(
            plan.d, plan.n,
            feedforward=plan.options.feedforward,
            odd_n_mode=plan.options.resolved_odd_mode(),
            input_coeffs=plan.options.input_coeffs,
        )
    raise InvalidParameters(f"unknown backend {backend!r}")


def run(
    d: int,
    n: int,
    feedforward: bool = False,
    backend: str = "rule",
    odd_n_mode: str | None = None,
    input_coeffs: Sequence[float] | None = None,
    keep_intermediates: bool = False,
) -> RunReport:
    """Compile-and-execute convenience wrapper."""
    opts = ProtocolOptions(
        d=d, n=n, feedforward=feedforward, odd_n_mode=odd_n_mode,
        input_coeffs=None if input_coeffs is None else tuple(input_coeffs),
    )
    return execute(compile_plan(opts), backend=backend, keep_intermediates=keep_intermediates)


def reduce_to_odd(
    state: PhotonicState,
    d: int,
    mode: str = FULL_FOURIER,
    port_groups: Sequence[Sequence[int]] | None = None,
) -> RunReport:
    """Measure the first photon of an even-photon state in the Fourier path
    basis, reporting the odd-photon result honestly (non-GHZ inputs allowed)."""
    if mode not in (SINGLE_OUTCOME, FULL_FOURIER):
        raise InvalidParameters(f"unknown odd-n mode {mode!r}")
    if port_groups is None:
        ports = sorted(state.ports())
        if len(ports) % d != 0:
            raise InvalidParameters("cannot infer photon port groups; pass port_groups")
        port_groups = [ports[i : i + d] for i in range(0, len(ports), d)]
    groups = [list(g) for g in port_groups]
    post, p, p_single, p_full = _reduce_even_state(
        state, d, mode, groups[0], groups[1]
    )
    return RunReport.build(
        "reduce", d, len(groups) - 1, mode == FULL_FOURIER,
        PhotonicState(post.terms, state.branch_prob * p), groups[1:],
        (p, p_single, p_full), Fraction(1, d) if mode == SINGLE_OUTCOME else Fraction(1),
        [p], ["reduce"],
    )

