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

A plan is its options, which check themselves when they are made, and each
junction's helper pairs, and it is frozen: ``dataclasses.replace`` is the one
way to change it.  It builds its stage list from them once, when it is made,
as geometry only: stage labels and kinds, junctions, aux pairs and each
helper stage's ports.
``ProtocolPlan.stage_steps`` is the one place that builds a stage's optical
steps from it, the pair-source and helper states it injects included.
``ProtocolPlan.optics`` calls it once per stage the first time the element
backend or circuit export needs the optics, and the plan keeps that table
for every later execute, so compiling or running a plan on the rule or
oracle backend builds no optics.  The table holds steps, never their
results: every execute still applies each step through ``Step.apply``.

Three executors interpret a plan, each a function from (plan, report) to
the run's final state.  Each walks ``plan.stages`` and acts on each stage's
kind, junction and aux pair, recording what it measures under the stage's
label; kinds it has no use for fall through.  They read the source terms
and the odd-n mode off the checked options, and the plan builds its stage
list from one grammar (``_stage_rows``), so the executors police neither:

* the element backend folds the literal optical circuit (the golden
  reference),
* the rule backend applies each stage's kept-term predicate and amplitude
  factor directly to path tuples, which is exact for every (d, n) and much
  smaller.  A new source waits, pending, until its junction's parity filter
  consumes it in one pass that builds only the same-parity survivors.
  Helper stages only remove kets, so that pass also indexes the kets whose
  junction photons sit on different paths under both paths (the crossing
  index), stage (i, j) removes only path j's entries, and the normalisation
  is carried as one scale factor, so a junction costs O(d**2) across all of
  its d**2 / 4 helper stages, and
* the oracle (``analysis.oracle_run``) enumerates every source-value tuple
  on its own, within a size bound.

``execute`` is the one way to run a plan: it makes the run's one
``RunReport`` from the plan's options and prediction, hands it to the
executor, which records every stage in it, and finishes it with the final
state and the plan's reference (``RunReport.finish``).  The report owns the
labels, the three products, the choice of accounting and the kept
intermediates.  All three executors track the two probability accountings
side by side: "filtered" keeps only HH/VV pair outcomes and the
uniform-superposition Fourier outcome, while "feedforward" corrects every
outcome by conditional phases.  ``reduce_to_odd`` records its one stage into
a report of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from . import analysis, elements, measurement, states
from .analysis import FULL_FOURIER, SINGLE_OUTCOME  # re-exported as gf.*
from .elements import BDMerge, BDSplit, HWP, Inject, PBS
from .errors import BranchMismatch, InvalidParameters, PortCollision
from .measurement import CoincidencePattern, CoincidenceSelect, PasPairSelect
from .states import H, V, PhotonicState

_TAG = math.pi / 4.0      # HWP angle swapping H and V
_DIAGONAL = math.pi / 8.0  # HWP angle rotating into the +/- basis
_HELPER_STAGES = (  # (label suffix, kind) of each helper stage, in order
    ("inject", "aux_inject"), ("interfere", "aux_interfere"),
    ("analysis", "aux_analysis"), ("pas", "aux_pas"), ("untag", "tag"),
)


@dataclass(frozen=True)
class ProtocolOptions:
    """A run's inputs, checked once, when made (by ``dataclasses.replace``
    too): d and n, the coefficients (``states.validated_coeffs``) and the
    odd-n mode, in that order.  Outside equality, hash and repr they hold
    ``source``, each pair source's (path, coefficient) terms that the one
    support rule leaves nonzero, and ``odd_mode``, the resolved mode."""

    d: int
    n: int
    feedforward: bool = False
    odd_n_mode: str | None = None  # None pairs the mode with the feedforward flag
    input_coeffs: tuple[float, ...] | None = None
    source: tuple[tuple[int, float], ...] = field(init=False, compare=False, repr=False)
    odd_mode: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        analysis._check_params(self.d, self.n)
        coeffs = enumerate(states.validated_coeffs(self.d, self.input_coeffs))
        mode = analysis.resolve_odd_mode(self.odd_n_mode, self.feedforward)
        object.__setattr__(self, "source", tuple((i, c) for i, c in coeffs if c != 0.0))
        object.__setattr__(self, "odd_mode", mode)


class PlanStage(NamedTuple):
    label: str
    kind: str  # sources | tag | pbs_filter | aux_inject | aux_interfere | aux_analysis | aux_pas | reduce
    junction: int | None = None
    aux_pair: tuple[int, int] | None = None
    helper_port: int | None = None  # helper stages: the first of their ten ports


def _stage_rows(d: int, n: int, junction_aux_pairs: Sequence[Sequence]) -> tuple[PlanStage, ...]:
    """The one stage grammar: the stages of an n-photon chain whose junction
    k holds one helper block per pair of ``junction_aux_pairs[k]``, in order,
    each block on the next ten ports past the source photons'; junction
    k >= 1 starts by injecting source k + 1."""
    ports = itertools.count(2 * -(n // -2) * d, 10)
    new = tuple.__new__  # about half the cost of PlanStage's generated constructor
    stages = [PlanStage("sources", "sources")]
    for k, pairs in enumerate(junction_aux_pairs):
        if k > 0:
            stages.append(PlanStage(f"j{k}.source", "sources", k))
        stages += [PlanStage(f"j{k}.step_i_tag", "tag", k),
                   PlanStage(f"j{k}.step_i", "pbs_filter", k),
                   PlanStage(f"j{k}.step_i_untag", "tag", k)]
        for q, pair in enumerate(pairs):
            port, prefix = next(ports), f"j{k}.aux{q}."
            stages += [new(PlanStage, (prefix + suffix, kind, k, pair, port))
                       for suffix, kind in _HELPER_STAGES]
    if n % 2 == 1:
        stages.append(PlanStage("reduce", "reduce"))
    return tuple(stages)


@dataclass(frozen=True)
class ProtocolPlan:
    """A compiled (d, n) protocol: its options and each junction's helper
    pairs, in order (``junction_aux_pairs``, a tuple of tuples).

    Everything else is built once from those two when the plan is made: the
    ordered stage list (``stages``, a tuple of ``PlanStage`` from
    ``_stage_rows``, so the executors see only lists in its grammar), the GHZ
    reference on the output photons (``reference``) and the exact prediction
    (``predicted``, None for non-uniform coefficients).  The optics are built
    on first element use and kept (``optics``).  A plan is frozen, so
    ``dataclasses.replace``, which makes all of these again, is the one way to
    change it; plans compare and hash by (options, pairs).  A junction may
    hold any sequence of same-parity path pairs of d, dropped, permuted or
    repeated; each pair may be any two-item sequence (a JSON list too).
    Anything else, or a pair list count other than one per junction, raises
    InvalidParameters."""

    options: ProtocolOptions
    junction_aux_pairs: tuple[tuple[tuple[int, int], ...], ...]
    stages: tuple[PlanStage, ...] = field(init=False, repr=False, compare=False)
    reference: PhotonicState = field(init=False, repr=False, compare=False)
    predicted: Fraction | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        same_parity = {pair: pair for pair in analysis.aux_pairs(self.d)}
        try:
            pairs = tuple(tuple([same_parity[tuple(p)] for p in ps])
                          for ps in self.junction_aux_pairs)
        except (KeyError, TypeError):
            pairs = None
        if pairs is None or len(pairs) != self.epr_pair_count - 1:
            raise InvalidParameters(
                f"junction_aux_pairs needs a list of same-parity path pairs of d = {self.d} "
                f"per junction, {self.epr_pair_count - 1} in all")
        opts, groups = self.options, self.output_port_groups()
        object.__setattr__(self, "junction_aux_pairs", pairs)
        object.__setattr__(self, "stages", _stage_rows(self.d, self.n, pairs))
        object.__setattr__(self, "reference", analysis.ghz_reference(self.d, len(groups), groups))
        object.__setattr__(self, "predicted", None if opts.input_coeffs is not None else (
            analysis.predicted_prob_for_options(self.d, self.n, opts.feedforward, opts.odd_mode)))

    @property
    def epr_pair_count(self) -> int:
        return -(self.n // -2)

    @property
    def aux_pair_count(self) -> int:
        return sum(map(len, self.junction_aux_pairs))

    @property
    def d(self) -> int:
        return self.options.d

    @property
    def n(self) -> int:
        return self.options.n

    def photon_ports(self, photon: int) -> list[int]:
        return list(range(photon * self.d, (photon + 1) * self.d))

    def output_photons(self) -> list[int]:
        """Every source photon but photon 0, which an odd n measures out."""
        return list(range(self.n % 2, 2 * self.epr_pair_count))

    def output_port_groups(self) -> list[list[int]]:
        return [self.photon_ports(p) for p in self.output_photons()]

    def stage_sources(self, stage: PlanStage) -> range:
        """The pair sources a ``sources`` stage injects: 0 and 1 (0 alone for
        a one-source chain) at the start, source k + 1 before junction k."""
        k = stage.junction
        return range(min(self.epr_pair_count, 2)) if k is None else range(k + 1, k + 2)

    def stage_steps(self, stage: PlanStage) -> list:
        """The optical steps of ``stage``, built from its geometry.

        This is the one place that knows how a stage becomes elements, the
        states it injects included: each source s becomes an ``Inject`` of
        sum_i c_i |i>|i> on photons 2s and 2s + 1 (the options' ``source``), a
        junction's tag and filter become HWPs, PBSs and a coincidence
        post-selection on the junction photons, and a helper stage's ten
        ports carry its injection (the helper pair on the first four),
        interference block, analysis rotation, pair projection and untag.
        The options checked d and the coefficients when they were made.  The
        ``reduce`` stage has no steps; the executors measure it themselves.
        """
        d, k, kind = self.d, stage.junction, stage.kind
        if kind == "reduce":
            return []
        if kind == "sources":  # both photons horizontal
            return [
                Inject(states._from_kets({
                    (2 * (2 * s * d + i), 2 * ((2 * s + 1) * d + i)): complex(c)
                    for i, c in self.options.source
                }))
                for s in self.stage_sources(stage)
            ]
        pa, pb = self.photon_ports(2 * k + 1), self.photon_ports(2 * k + 2)
        if stage.aux_pair is None:
            if kind == "pbs_filter":
                return [PBS(pa[p], pb[p]) for p in range(d)] + [
                    CoincidenceSelect(CoincidencePattern((tuple(pa), tuple(pb))))
                ]
            odd_paths = range(1, d, 2)
            return [HWP(pa[p], _TAG) for p in odd_paths] + [HWP(pb[p], _TAG) for p in odd_paths]
        i, j = stage.aux_pair
        x = stage.helper_port
        px, py = {i: x, j: x + 1}, {i: x + 2, j: x + 3}
        ma, mx, mb, my, ax, ay = range(x + 4, x + 10)
        if kind == "aux_inject":  # the helper pair (|i_H i_H> + |j_V j_V>)/sqrt(2)
            amp = complex(1.0 / math.sqrt(2.0))
            helper = states._from_kets({(2 * x, 2 * x + 4): amp, (2 * x + 3, 2 * x + 7): amp})
            return [HWP(pa[j], _TAG), HWP(pb[j], _TAG), Inject(helper)]
        if kind == "aux_interfere":
            return [
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
                    CoincidencePattern((tuple(pa), (px[i], px[j]), tuple(pb), (py[i], py[j])))
                ),
            ]
        if kind == "aux_analysis":
            return [
                BDMerge(px[i], px[j], ax),
                BDMerge(py[i], py[j], ay),
                HWP(ax, _DIAGONAL),
                HWP(ay, _DIAGONAL),
            ]
        if kind == "aux_pas":
            pas_mode = "feedforward" if self.options.feedforward else "filtered"
            return [PasPairSelect(ax, ay, pas_mode, correction_port=pa[j])]
        return [HWP(pa[j], _TAG), HWP(pb[j], _TAG)]  # the helper stage's untag

    @functools.cached_property
    def optics(self) -> tuple[tuple[tuple[elements.Step, ...], bool], ...]:
        """Per stage, in order: its steps and whether every one is unitary
        (``elements.NORM_PRESERVING``).  Built by ``stage_steps`` on first
        use and kept; it holds steps only, never states they produced."""
        table = []
        for stage in self.stages:
            steps = tuple(self.stage_steps(stage))
            table.append((steps, all(isinstance(s, elements.NORM_PRESERVING) for s in steps)))
        return tuple(table)

    def circuit_steps(self) -> list:
        return [step for steps, _ in self.optics for step in steps]

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "feedforward": self.options.feedforward,
            "odd_n_mode": self.options.odd_mode if self.n % 2 else None,
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


def polarization_tag(
    state: PhotonicState, port_group: Sequence[int], rule: Callable[[int], str]
) -> PhotonicState:
    """Set the polarization of every photon in path p of the group to rule(p)."""
    mapping: dict[int, int] = {}
    for path, port in enumerate(port_group):
        _, pol = states.mode(port, rule(path))
        mapping[2 * port] = mapping[2 * port + 1] = 2 * port + (pol == V)
    return elements._relabel(state, mapping, PortCollision, "tagging")


def parity_rule(path: int) -> str:
    return V if path % 2 == 1 else H


def compile_plan(
    options: ProtocolOptions,
    aux_order: Sequence[Sequence[tuple[int, int]]] | None = None,
) -> ProtocolPlan:
    """Make the plan for (d, n), whose options checked themselves, with every
    same-parity path pair at each junction; the plan builds its stage list,
    geometry only, and ``ProtocolPlan.stage_steps`` builds the optics from
    it when ``ProtocolPlan.optics`` is first read.  ``aux_order`` optionally
    overrides the per-junction auxiliary pair order; it must be a
    permutation of the same-parity pair set for each junction, its pairs
    tuples or JSON lists, as the plan takes them.
    """
    default_pairs = analysis.aux_pairs(options.d)
    if aux_order is None:
        return ProtocolPlan(options, [default_pairs] * (-(options.n // -2) - 1))
    try:  # the plan turns each pair into a tuple and refuses any other shape
        plan = ProtocolPlan(options, aux_order)
    except InvalidParameters:
        plan = None
    want = sorted(default_pairs)
    if plan is None or any(sorted(p) != want for p in plan.junction_aux_pairs):
        raise InvalidParameters("aux_order must permute the same-parity pair set per junction")
    return plan


@dataclass
class RunReport:
    """A run's one report, made at the run's start and recorded into by its
    executor (or by ``reduce_to_odd``): labels and probabilities in the order
    measured, the running chosen, filtered and feedforward products and, with
    ``keep``, each stage's state beside the chosen probability of reaching it.
    A pair analysis chooses by ``feedforward``, the odd-n reduction by
    ``odd_mode``; every other stage measures one value for all three
    accountings.  ``finish`` sets the final state and the fidelity."""

    d: int
    n: int
    backend: str
    feedforward: bool
    predicted: Fraction | None  # exact closed form; None for non-uniform coefficients
    odd_mode: str = field(compare=False)
    keep: bool = field(default=False, compare=False)
    final_state: PhotonicState = field(default_factory=lambda: PhotonicState({}))
    prob: float = 1.0
    prob_filtered: float = 1.0
    prob_feedforward: float = 1.0
    trace: list[float] = field(default_factory=list)
    stage_labels: list[str] = field(default_factory=list)
    fidelity: float = 0.0
    # stage label -> (normalised state, chosen-accounting probability of
    # reaching that stage); scaling the state by the square root of the
    # probability gives the raw amplitudes of an unnormalised pipeline
    intermediates: dict[str, tuple[PhotonicState, float]] = field(default_factory=dict)

    def record(
        self, label: str, p: float, p_filtered: float | None = None, p_ff: float | None = None
    ) -> None:
        """A stage that measured ``p``; the other two accountings default to it."""
        self.trace.append(p)
        self.stage_labels.append(label)
        self.prob *= p
        self.prob_filtered *= p if p_filtered is None else p_filtered
        self.prob_feedforward *= p if p_ff is None else p_ff

    def pair_analysis(self, label: str, p_filtered: float, p_ff: float) -> None:
        self.record(label, p_ff if self.feedforward else p_filtered, p_filtered, p_ff)

    def reduction(self, label: str, p_single: float, p_full: float) -> None:
        chosen = p_full if self.odd_mode == FULL_FOURIER else p_single
        self.record(label, chosen, p_single, p_full)

    def keep_state(self, label: str, state: PhotonicState) -> None:
        if self.keep:
            self.intermediates[label] = (state, self.prob)

    def finish(self, state: PhotonicState, reference: PhotonicState) -> RunReport:
        """Set the final state from an executor's ``state``, normalised once,
        and its fidelity against the GHZ ``reference``.  An empty state
        reports every probability and the fidelity as 0, so it never matches
        a prediction (``reference`` goes unread).  Returns the report."""
        if state.is_empty:
            self.prob = self.prob_filtered = self.prob_feedforward = 0.0
        else:
            self.final_state = states.normalize(state)
            self.fidelity = analysis.fidelity(self.final_state, reference, normalized=True)
        return self

    @property
    def predicted_prob(self) -> float | None:
        return None if self.predicted is None else float(self.predicted)

    @property
    def prob_matches(self) -> bool | None:
        """``prob`` against the exact prediction by ``states.prob_matches``
        (within ``states.PROB_REL_TOL``, relatively), so a probability that
        is scaled, or that underflowed to 0, never matches."""
        return None if self.predicted is None else states.prob_matches(self.prob, self.predicted)

    @property
    def fidelity_matches(self) -> bool | None:
        return None if self.predicted is None else states.fidelity_matches(self.fidelity)

    @property
    def matches(self) -> bool:
        """The run's one verdict: the probability does not miss its
        prediction (there may be none) and the fidelity reaches
        1 - ``states.FIDELITY_TOL`` (``states.fidelity_matches``)."""
        return self.prob_matches is not False and states.fidelity_matches(self.fidelity)

    def to_jsonable(self) -> dict:
        return {
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
            "final_state": states.state_to_jsonable(self.final_state),
        }


def _reduce_even_state(
    state: PhotonicState, mode: str, measure_ports: Sequence[int], anchor_ports: Sequence[int]
) -> tuple[PhotonicState, float, float]:
    """Fourier-measure one photon out; returns (state ``mode`` keeps, p_single, p_full)."""
    outcomes = measurement.fourier_measure_path(state, measure_ports)
    if mode == SINGLE_OUTCOME:
        post = outcomes["0"].state
    else:
        rule = measurement.fourier_feedforward_rule(anchor_ports)
        post = measurement.merge_corrected(outcomes, rule) or PhotonicState({})
    return post, outcomes["0"].prob, sum(o.prob for o in outcomes.values())


def _run_elements(plan: ProtocolPlan, report: RunReport) -> PhotonicState:
    """Literal-optics executor: fold every stage's steps (``plan.optics``)
    over the state.

    The state is renormalised after each stage that injects a source or
    post-selects (``sources``, ``pbs_filter``, ``aux_inject``,
    ``aux_interfere``); the pair analysis and the ``reduce`` measurement
    return normalised states themselves.  A stage made only of PBS,
    beam-displacer, HWP and phase steps (``tag``, ``aux_analysis``, the
    untag) is unitary, so its state is carried as it is, with a squared norm
    of 1 up to rounding.
    """
    state = states.vacuum()
    for stage, (steps, unitary) in zip(plan.stages, plan.optics):
        if stage.kind == "reduce":
            state, p_single, p_full = _reduce_even_state(
                state, report.odd_mode, plan.photon_ports(0), plan.photon_ports(1)
            )
            report.reduction(stage.label, p_single, p_full)
        elif stage.kind == "aux_pas":
            (step,) = steps
            merged, p_filtered, p_ff = measurement.pas_pair_analysis(
                state, step.port_x, step.port_y, step.correction_port
            )
            report.pair_analysis(stage.label, p_filtered, p_ff)
            if merged is None or report.trace[-1] <= 0.0:
                state = PhotonicState({})
                break
            state = merged
        else:
            state, ps = elements.run_circuit(state, steps)
            for p in ps:
                report.record(stage.label, p)
            if state.is_empty:
                break
            if not unitary:
                state = states.normalize(state)
        report.keep_state(stage.label, state)
    return state


def _materialize_paths(
    d: int,
    amps: Mapping[tuple[int, ...], complex],
    scale: float,
    photons: Sequence[int],
    pol_of: Callable[[int, int], str],
) -> PhotonicState:
    # photon p's ports lie below photon p + 1's, so each ket comes out sorted
    return states._from_kets({
        tuple(
            2 * (photon * d + t[photon]) + (pol_of(photon, t[photon]) == V)
            for photon in photons
        ): a * scale
        for t, a in amps.items()
    })


def _run_rules(plan: ProtocolPlan, report: RunReport) -> PhotonicState:
    """Predicate-level executor: walks ``plan.stages`` on per-photon path
    tuples, recording each measuring stage under its label; ``tag`` stages
    and the helper stages that measure nothing fall through.

    Source 0 starts the chain as the tuples (i, i).  A later source is left
    pending, already scaled by the carried factor, and the next
    ``pbs_filter`` consumes it in one pass over (chain tuple t, source path
    i): every pair's weight |a * c|**2 counts toward the stage's total, and
    only the pairs whose junction photons' paths share a parity are built,
    as t + (i, i), or as t[:-1] + (i, t[-1], i) when both paths are odd, as
    the optics' PBS row sends each odd path's V photon to the other port
    group.  The plan builds its stage list from one grammar, which puts a
    ``tag`` stage between each source and its filter, so every pending
    source is consumed, and fixes where each tag stands, so ``tag`` stages
    are no-ops here by construction: a kept state is materialised with the
    polarisation the optics give it.  At an ``aux_interfere`` stage
    targeting (i, j) a ket survives the interference coincidence exactly
    when its junction photons either both sit on path j (riding the vertical
    helper branch) or both avoid it (the horizontal branch); every survivor
    is damped by 1/(2*sqrt(2)) once the ``aux_pas`` projection picks an
    outcome, and the four outcomes merge by feedforward.

    Survivors keep their amplitudes, so a stage only removes kets.  As the
    filter builds each kept ket whose junction photons sit on different
    paths, it indexes it under both paths (the crossing index); stage (i, j)
    pops path j's entry and removes those kets still present, and a ket with
    both photons on one path is never indexed, so it survives every stage
    and the state never empties.  The squared norm drops by what was
    removed, and the normalisation is one carried factor 1/sqrt(norm),
    applied when an intermediate is materialised (at each ``pbs_filter`` and
    ``aux_pas`` stage, and as ``final``), when the next source is left
    pending and at the end.  A junction costs O(d**2) whatever its d**2 / 4
    helper stages remove.
    """
    d, source = plan.d, plan.options.source
    amps: dict[tuple[int, ...], complex] = {}
    scale = 1.0  # amps times scale is the normalised chain state
    pending: list[tuple[int, complex]] = []  # the next source, times scale

    def keep(stage: PlanStage, rule: Callable[[int], str]) -> None:
        # junction k has seen photons 0 .. 2k + 3 and tags its pair 2k + 1, 2k + 2
        k = stage.junction
        report.keep_state(stage.label, _materialize_paths(
            d, amps, scale, range(2 * k + 4),
            lambda photon, path: rule(path) if photon in (2 * k + 1, 2 * k + 2) else H,
        ))

    for stage in plan.stages:
        kind = stage.kind  # read once: a NamedTuple field read costs about two slot reads
        if kind == "sources":
            for s in plan.stage_sources(stage):
                if s == 0:
                    amps = {(i, i): c + 0j for i, c in source}
                else:
                    pending, scale = [(i, c * scale) for i, c in source], 1.0
        elif kind == "pbs_filter":
            # ``sum`` over the weights in (t, i) order rounds exactly as a
            # sum over the full product would, on every Python version
            weights: list[float] = []
            kept_weights: list[float] = []
            kept: dict[tuple[int, ...], complex] = {}
            crossing: dict[int, list[tuple[int, ...]]] = {}
            for t, a in amps.items():
                last = t[-1]
                for i, c in pending:
                    ac = a * c
                    w = abs(ac) ** 2
                    weights.append(w)
                    if i % 2 != last % 2:
                        continue
                    u = t[:-1] + (i, last, i) if last % 2 else t + (i, i)
                    kept[u] = ac
                    kept_weights.append(w)
                    if i != last:
                        crossing.setdefault(last, []).append(u)
                        crossing.setdefault(i, []).append(u)
            amps = kept
            total, nsq = sum(weights), sum(kept_weights)  # nsq: squared norm of amps
            report.record(stage.label, nsq / total)
            scale = 1.0 / math.sqrt(nsq)
            if report.keep:
                keep(stage, parity_rule)
        elif kind == "aux_interfere":
            removed = 0.0
            for t in crossing.pop(stage.aux_pair[1], ()):
                a = amps.pop(t, None)
                if a is not None:
                    removed += abs(a) ** 2
            # the helper branch carries 1/sqrt(2) each way
            report.record(stage.label, 0.5 * (nsq - removed) / nsq)
            nsq -= removed
        elif kind == "aux_pas":
            report.pair_analysis(stage.label, 0.5, 1.0)
            scale = 1.0 / math.sqrt(nsq)
            if report.keep:
                keep(stage, lambda path: V if path == stage.aux_pair[1] else H)
        elif kind == "reduce":
            # photon 0 shares photon 1's or 2's path: dropping it merges no kets, each
            # outcome has 1/d, and outcome 1 merges only where photon 1 shares it too
            if report.odd_mode == FULL_FOURIER and any(
                2 * abs(a * math.sin(math.pi * (t[0] - t[1]) / d)) * scale > states.MERGE_TOL
                for t, a in amps.items()
            ):
                raise BranchMismatch("outcome 1 does not merge with the reference branch")
            report.reduction(stage.label, 1.0 / d, 1.0)

    state = _materialize_paths(d, amps, scale, plan.output_photons(), lambda photon, path: H)
    report.keep_state("final", state)
    return state


def execute(
    plan: ProtocolPlan, backend: str = "rule", keep_intermediates: bool = False
) -> RunReport:
    """Run ``plan`` on ``backend`` ("rule", "element" or "oracle"): make the
    run's one report from the plan's options, let the executor record its
    stages in it and return the final state, and finish the report with it."""
    executor = {"rule": _run_rules, "element": _run_elements,
                "oracle": analysis.oracle_run}.get(backend)
    if executor is None:
        raise InvalidParameters(f"unknown backend {backend!r}")
    opts = plan.options
    report = RunReport(plan.d, plan.n, backend, opts.feedforward, plan.predicted,
                       opts.odd_mode, keep_intermediates)
    return report.finish(executor(plan, report), plan.reference)


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
    basis, reporting the odd-photon result honestly (non-GHZ inputs allowed).
    Without ``port_groups`` the occupied ports, in order, are split into
    groups of d; that guess stands only if every ket holds exactly one
    photon in each group (a path no ket occupies shifts it).  An unknown
    mode, groups that cannot be inferred, fewer than three photon port groups,
    a group without d ports, or groups that repeat or share a port raise
    InvalidParameters before anything is measured."""
    mode = analysis.resolve_odd_mode(mode, feedforward=True)
    if port_groups is None:
        ports = sorted(state.ports())
        port_groups = [ports[i : i + d] for i in range(0, len(ports), d)]
        group_of = {port: g for g, group in enumerate(port_groups) for port in group}
        each_once = tuple(range(len(port_groups)))  # kets are sorted, so groups come in order
        if len(ports) % d or any(
            tuple(group_of[m >> 1] for m in ket) != each_once for ket in state.kets
        ):
            raise InvalidParameters("cannot infer photon port groups; pass port_groups")
    groups = [list(g) for g in port_groups]
    if len(groups) < 3:
        raise InvalidParameters(f"need at least three photon port groups, got {len(groups)}")
    if any(len(g) != d for g in groups):
        raise InvalidParameters(f"every photon port group needs d = {d} ports")
    analysis._check_ports(groups)
    reference = analysis.ghz_reference(d, len(groups) - 1, groups[1:])
    report = RunReport(d, len(groups) - 1, "reduce", mode == FULL_FOURIER,
                       Fraction(1, d) if mode == SINGLE_OUTCOME else Fraction(1), mode)
    post, p_single, p_full = _reduce_even_state(state, mode, groups[0], groups[1])
    report.reduction("reduce", p_single, p_full)
    return report.finish(post, reference)
