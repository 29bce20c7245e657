"""Regression checklist pinning the library to hand-derived reference values.

Every anchor here was worked out independently of the simulator: the frozen
intermediate states of the four-photon qutrit walkthrough are written down
term by term, the qubit-chain states likewise, and the counting identities
are checked in exact rational arithmetic.  ``run_checks`` powers the CLI
``verify`` subcommand and the corresponding regression tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, elements, measurement, protocol, states
from .errors import InvalidParameters
from .states import H, V, PhotonicState, ket


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# --- frozen states for the d=3, n=4 walkthrough ----------------------------
# Port layout: photon p uses ports 3p..3p+2 (path i at 3p+i).  The single
# auxiliary stage allocates helper photons on ports {0: 12, 2: 13} and
# {0: 14, 2: 15} and analysis ports 20, 21.

_AX, _AY = 20, 21


def _parity_pol(path: int) -> str:
    return V if path % 2 == 1 else H


def _stage_pol(path: int) -> str:
    return V if path == 2 else H


def qutrit_chain_input() -> PhotonicState:
    """Nine-term product of two path-encoded qutrit pair sources."""
    amp = 1.0 / 3.0
    kets = []
    for i in range(3):
        for j in range(3):
            kets.append(
                (ket((i, H), (3 + i, H), (6 + j, H), (9 + j, H)), amp)
            )
    return states.make_state(kets)


_PARITY_SURVIVORS = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]


def parity_filter_survivors() -> PhotonicState:
    """Five survivors of the junction PBS filter, photons 1-2 parity-tagged."""
    amp = 1.0 / 3.0
    kets = []
    for i, j in _PARITY_SURVIVORS:
        kets.append(
            (
                ket((i, H), (3 + i, _parity_pol(i)), (6 + j, _parity_pol(j)), (9 + j, H)),
                amp,
            )
        )
    return states.make_state(kets)


def helper_joint_state() -> PhotonicState:
    """Survivors re-tagged for the (0, 2) stage, tensored with the helper pair."""
    amp = math.sqrt(2.0) / 6.0
    kets = []
    for i, j in _PARITY_SURVIVORS:
        primary = ((i, H), (3 + i, _stage_pol(i)), (6 + j, _stage_pol(j)), (9 + j, H))
        kets.append((ket(*primary, (12, H), (14, H)), amp))
        kets.append((ket(*primary, (13, V), (15, V)), amp))
    return states.make_state(kets)


def interference_survivors() -> PhotonicState:
    """Three kets left after the helper interference coincidence."""
    amp = math.sqrt(2.0) / 6.0
    kets = [
        (ket((0, H), (3, H), (6, H), (9, H), (12, H), (14, H)), amp),
        (ket((1, H), (4, H), (7, H), (10, H), (12, H), (14, H)), amp),
        (ket((2, H), (5, V), (8, V), (11, H), (13, V), (15, V)), amp),
    ]
    return states.make_state(kets)


def analysis_ready_state() -> PhotonicState:
    """Helper arms merged and rotated: the state just before pair projection.

    The all-horizontal helper branch spreads evenly over the four pair
    outcomes; the all-vertical branch flips sign on the mixed outcomes."""
    amp = math.sqrt(2.0) / 12.0
    combos = [("HH", 1.0), ("HV", 1.0), ("VH", 1.0), ("VV", 1.0)]
    flipped = [("HH", 1.0), ("HV", -1.0), ("VH", -1.0), ("VV", 1.0)]
    branches = [
        (((0, H), (3, H), (6, H), (9, H)), combos),
        (((1, H), (4, H), (7, H), (10, H)), combos),
        (((2, H), (5, V), (8, V), (11, H)), flipped),
    ]
    kets = []
    for primary, signs in branches:
        for pols, sign in signs:
            kets.append(
                (ket(*primary, (_AX, pols[0]), (_AY, pols[1])), sign * amp)
            )
    return states.make_state(kets)


def chain_output_unnormalized() -> PhotonicState:
    """Filtered-convention output: uniform kets at amplitude 1/6."""
    amp = 1.0 / 6.0
    kets = [
        (ket((i, H), (3 + i, H), (6 + i, H), (9 + i, H)), amp) for i in range(3)
    ]
    return states.make_state(kets)


def qubit_polarization_input() -> PhotonicState:
    """Two polarization-encoded pair sources on ports 0-3."""
    amp = 0.5
    kets = []
    for p1 in (H, V):
        for p2 in (H, V):
            kets.append((ket((0, p1), (1, p1), (2, p2), (3, p2)), amp))
    return states.make_state(kets)


def qubit_polarization_circuit() -> list:
    return [
        elements.PBS(1, 2),
        measurement.CoincidenceSelect(
            measurement.CoincidencePattern(((1,), (2,)))
        ),
    ]


def qubit_polarization_output() -> PhotonicState:
    return states.make_state(
        [
            (ket((0, H), (1, H), (2, H), (3, H)), 0.5),
            (ket((0, V), (1, V), (2, V), (3, V)), 0.5),
        ]
    )


# --- checklist --------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    """Probability ``a`` within ``states.PROB_REL_TOL`` of ``b``, relatively."""
    return abs(a - b) <= abs(b) * states.PROB_REL_TOL


def _unit_fidelity(f: float) -> bool:
    return abs(f - 1.0) <= states.FIDELITY_TOL


def _state_check(
    name: str, got: tuple[PhotonicState, float], want: PhotonicState
) -> CheckResult:
    """An intermediate (state, probability) pair against its hand-derived
    form, which keeps the raw amplitudes: the state scaled by sqrt(p)."""
    state, p = got
    ok = states.states_close(states.scaled(state, math.sqrt(p)), want, tol=states.MERGE_TOL)
    return CheckResult(name, ok, f"{len(state.kets)} terms, branch={p:.6g}")


def _untag_all(state: PhotonicState, d: int, photons: list[int]) -> PhotonicState:
    for p in photons:
        state = protocol.polarization_tag(
            state, [p * d + i for i in range(d)], lambda path: H
        )
    return state


def qutrit_walkthrough_checks() -> list[CheckResult]:
    opts = protocol.ProtocolOptions(d=3, n=4, feedforward=False)
    plan = protocol.compile_plan(opts)
    report = protocol.execute(plan, backend="element", keep_intermediates=True)
    inter = report.intermediates
    results = [
        _state_check(
            "qutrit chain: parity-filter survivors",
            inter["j0.step_i"], parity_filter_survivors(),
        ),
        CheckResult(
            "qutrit chain: parity-filter rate 5/9",
            _close(report.trace[0], 5.0 / 9.0),
            f"measured {report.trace[0]:.12f}",
        ),
        _state_check(
            "qutrit chain: helper joint state",
            inter["j0.aux0.inject"], helper_joint_state(),
        ),
        _state_check(
            "qutrit chain: interference survivors",
            inter["j0.aux0.interfere"], interference_survivors(),
        ),
        CheckResult(
            "qutrit chain: interference rate 3/10",
            _close(report.trace[1], 0.3),
            f"measured {report.trace[1]:.12f}",
        ),
        _state_check(
            "qutrit chain: analysis-ready state",
            inter["j0.aux0.analysis"], analysis_ready_state(),
        ),
        CheckResult(
            "qutrit chain: pair-analysis rate 1/2",
            _close(report.trace[2], 0.5),
            f"measured {report.trace[2]:.12f}",
        ),
        _state_check(
            "qutrit chain: final uniform superposition",
            inter["j0.aux0.untag"], chain_output_unnormalized(),
        ),
        CheckResult(
            "qutrit chain: kept-outcome probability 1/12",
            _close(report.prob_filtered, 1.0 / 12.0),
            f"measured {report.prob_filtered:.12f}",
        ),
        CheckResult(
            "qutrit chain: corrected probability 1/6",
            _close(report.prob_feedforward, 1.0 / 6.0),
            f"measured {report.prob_feedforward:.12f}",
        ),
        CheckResult(
            "qutrit chain: target fidelity 1",
            _unit_fidelity(report.fidelity),
            f"measured {report.fidelity:.12f}",
        ),
    ]

    # pair projection outcomes on the analysis-ready state
    dist = measurement.project_polarization_pair(inter["j0.aux0.analysis"][0], _AX, _AY)
    uniform = all(_close(o.prob, 0.25) for o in dist.outcomes)
    results.append(
        CheckResult(
            "qutrit chain: four pair outcomes at 1/4",
            uniform,
            " ".join(f"{o.label}={o.prob:.6f}" for o in dist.outcomes),
        )
    )
    reference = analysis.ghz_reference(3, 4)
    fids = []
    correction = {"HH": (), "VV": (), "HV": ((5, math.pi),), "VH": ((5, math.pi),)}
    for o in dist.outcomes:
        post = measurement.feedforward(o.state, o.label, correction)
        post = _untag_all(post, 3, [1, 2])
        fids.append(analysis.fidelity(post, reference))
    results.append(
        CheckResult(
            "qutrit chain: every corrected outcome reaches the target",
            all(_unit_fidelity(f) for f in fids),
            " ".join(f"{f:.9f}" for f in fids),
        )
    )
    return results


def qubit_chain_checks() -> list[CheckResult]:
    out, trace = elements.run_circuit(
        qubit_polarization_input(), qubit_polarization_circuit()
    )
    results = [
        CheckResult(
            "qubit chain: polarization-picture survivors",
            out == qubit_polarization_output()
            and len(trace) == 1
            and _close(trace[0], 0.5),
            f"trace={trace}",
        )
    ]
    for n, expected in ((4, 0.5), (6, 0.25), (8, 0.125)):
        report = protocol.run(2, n, backend="rule")
        results.append(
            CheckResult(
                f"qubit chain: {n}-photon probability {expected}",
                _close(report.prob, expected) and _unit_fidelity(report.fidelity),
                f"prob={report.prob:.9f} fidelity={report.fidelity:.9f}",
            )
        )
    return results


def identity_checks(max_d: int = 128) -> list[CheckResult]:
    """The pair-count, filter-leftover and telescope identities, exactly,
    for every d in 2..max_d; a range without a d raises InvalidParameters.
    The pair count is ``analysis.aux_count``, the paper's ceiling form,
    checked against its binomial form."""
    if max_d < 2:
        raise InvalidParameters(f"identity checks need max_d >= 2, got {max_d}")
    forms_ok = True
    leftover_ok = True
    telescope_ok = True
    for d in range(2, max_d + 1):
        n4 = analysis.aux_count(d, 4)
        forms_ok &= n4 == math.comb((d + 1) // 2, 2) + math.comb(d // 2, 2)
        e1 = analysis.eta1_exact(d)
        leftover_ok &= e1 - Fraction(2 * n4, d * d) == Fraction(1, d)
        telescope_ok &= analysis.eta_product_exact(d) == Fraction(1, 2**n4 * d)
    return [
        CheckResult("identities: pair count, binomial vs ceiling", forms_ok),
        CheckResult("identities: filter rate leftover is 1/d", leftover_ok),
        CheckResult("identities: telescoped stage product", telescope_ok),
    ]


def rate_checks() -> list[CheckResult]:
    return [
        CheckResult(
            "rates: qutrit parity-filter 5/9",
            analysis.eta1_exact(3) == Fraction(5, 9),
        ),
        CheckResult(
            "rates: qutrit helper stage 3/10",
            list(analysis.eta2_exact(3)) == [Fraction(3, 10)],
        ),
        CheckResult(
            "rates: qutrit chain 1/6 corrected, 1/12 filtered",
            analysis.predicted_prob_for_options(3, 4, True) == Fraction(1, 6)
            and analysis.predicted_prob_for_options(3, 4, False) == Fraction(1, 12),
        ),
    ]


def agreement_checks() -> list[CheckResult]:
    results = []
    for d, n in ((2, 4), (3, 4)):
        rule = protocol.run(d, n, feedforward=True, backend="rule")
        element = protocol.run(d, n, feedforward=True, backend="element")
        oracle = protocol.run(d, n, feedforward=True, backend="oracle")
        probs_ok = (
            _close(rule.prob, element.prob)
            and _close(rule.prob, oracle.prob)
            and _close(rule.prob_filtered, element.prob_filtered)
            and _close(rule.prob_filtered, oracle.prob_filtered)
        )
        fid_ab = analysis.fidelity(rule.final_state, element.final_state)
        fid_ac = analysis.fidelity(rule.final_state, oracle.final_state)
        results.append(
            CheckResult(
                f"agreement: rule/element/enumeration backends ({d},{n})",
                probs_ok and _unit_fidelity(fid_ab) and _unit_fidelity(fid_ac),
                f"prob={rule.prob:.9f} fid(rule,element)={fid_ab:.9f} "
                f"fid(rule,oracle)={fid_ac:.9f}",
            )
        )
    return results


def reduction_checks() -> list[CheckResult]:
    results = []
    for d in (2, 3):
        even = protocol.run(d, 4, feedforward=True, backend="rule")
        single = protocol.reduce_to_odd(even.final_state, d, protocol.SINGLE_OUTCOME)
        full = protocol.reduce_to_odd(even.final_state, d, protocol.FULL_FOURIER)
        ok = (
            _close(single.prob, 1.0 / d)
            and _unit_fidelity(single.fidelity)
            and _close(full.prob, 1.0)
            and _unit_fidelity(full.fidelity)
        )
        results.append(
            CheckResult(
                f"reduction: 4 -> 3 photons at d={d}",
                ok,
                f"single={single.prob:.9f} full={full.prob:.9f}",
            )
        )
    return results


def run_checks() -> list[CheckResult]:
    checks: list[CheckResult] = []
    checks.extend(qutrit_walkthrough_checks())
    checks.extend(qubit_chain_checks())
    checks.extend(identity_checks())
    checks.extend(rate_checks())
    checks.extend(agreement_checks())
    checks.extend(reduction_checks())
    return checks
