"""Closed-form resource counts, reference states, fidelity and the
independent brute-force pipeline used to cross-check both simulators.

Counting identities are evaluated in exact rational arithmetic and only
converted to float at the API boundary, so the identity checks below are
exact rather than tolerance-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import states
from .errors import InvalidParameters, OracleTooLarge
from .states import PhotonicState, ket

ORACLE_MAX_D = 4
ORACLE_MAX_N = 6


def _check_params(d: int, n: int) -> None:
    if not isinstance(d, int) or not isinstance(n, int) or d < 2 or n < 2:
        raise InvalidParameters(f"need integer d >= 2 and n >= 2, got d={d}, n={n}")


def default_port_groups(d: int, n_photons: int) -> list[list[int]]:
    """Photon p occupies ports [p*d, (p+1)*d); path i is its i-th port."""
    return [[p * d + i for i in range(d)] for p in range(n_photons)]


def ghz_reference(
    d: int, n: int, port_groups: Sequence[Sequence[int]] | None = None
) -> PhotonicState:
    """(1/sqrt(d)) * sum_i |i>^(x n) in path encoding, all photons horizontal."""
    _check_params(d, n)
    groups = port_groups if port_groups is not None else default_port_groups(d, n)
    if len(groups) != n or any(len(g) != d for g in groups):
        raise InvalidParameters("port groups must give each of the n photons d paths")
    amp = 1.0 / math.sqrt(d)
    kets = [
        (ket(*((g[i], states.H) for g in groups)), amp)
        for i in range(d)
    ]
    return states.make_state(kets)


def fidelity(state: PhotonicState, reference: PhotonicState) -> float:
    """|<ref|state/||state||>|**2; an empty state has fidelity 0."""
    if state.is_empty:
        return 0.0
    overlap = states.inner_product(reference, states.normalize(state))
    return min(abs(overlap) ** 2, 1.0)


# --- resource and probability formulas -------------------------------------


def junction_count(n: int) -> int:
    """Adjacent-photon junctions in a chain of ceil(n/2) pair sources."""
    return (n - 1) // 2


@lru_cache(maxsize=None)
def _aux_pairs_cached(d: int) -> tuple[tuple[int, int], ...]:
    evens = [i for i in range(d) if i % 2 == 0]
    odds = [i for i in range(d) if i % 2 == 1]
    pairs = []
    for cls in (evens, odds):
        for a in range(len(cls)):
            for b in range(a + 1, len(cls)):
                pairs.append((cls[a], cls[b]))
    return tuple(pairs)


def aux_pairs(d: int) -> list[tuple[int, int]]:
    """Same-parity unordered path pairs targeted by one filter stage each,
    even pairs first, lexicographic within each parity class."""
    return list(_aux_pairs_cached(d))


def aux_count(d: int, n: int) -> int:
    """Auxiliary entangled pairs consumed; ceiling and binomial forms must agree."""
    _check_params(d, n)
    per_junction_ceiling = -((d * (d - 2)) // -4)  # ceil(d(d-2)/4)
    per_junction_binomial = len(aux_pairs(d))
    if per_junction_ceiling != per_junction_binomial:
        raise AssertionError(
            f"aux-count forms disagree for d={d}: "
            f"{per_junction_ceiling} != {per_junction_binomial}"
        )
    return per_junction_ceiling * junction_count(n)


def eta1_exact(d: int) -> Fraction:
    """Survival rate of the parity PBS filter on the d**2-term junction input."""
    _check_params(d, 2)
    cross = 2 * ((d + 1) // 2) * (d // 2)
    return Fraction(d * d - cross, d * d)


def eta1(d: int) -> float:
    return float(eta1_exact(d))


def eta2_exact(d: int, k: int) -> Fraction:
    """Survival rate of the k-th auxiliary stage in the per-stage accounting
    where each stage removes its two targeted cross terms and halves the rest."""
    n_stages = aux_count(d, 4)
    if not 1 <= k <= n_stages:
        raise InvalidParameters(f"stage index k={k} outside 1..{n_stages}")
    survivors = d * d * eta1_exact(d)  # integer-valued fraction
    return (survivors - 2 * k) / (2 * (survivors - 2 * (k - 1)))


def eta2(d: int, k: int) -> float:
    return float(eta2_exact(d, k))


def eta_product_exact(d: int) -> Fraction:
    """Exact eta1 * prod_k eta2(k) via one big integer quotient.

    Equivalent to multiplying eta2_exact stage by stage but avoids the
    per-step gcd on huge power-of-two denominators, keeping the d <= 128
    identity sweep fast."""
    n_stages = aux_count(d, 4)
    survivors = d * d - 2 * ((d + 1) // 2) * (d // 2)
    num, den = 1, 1
    for k in range(1, n_stages + 1):
        num *= survivors - 2 * k
        den *= 2 * (survivors - 2 * (k - 1))
    return eta1_exact(d) * Fraction(num, den)


def predicted_prob_for_options(
    d: int, n: int, feedforward: bool, odd_n_mode: str | None = None
) -> Fraction:
    """Closed-form success probability of the full chain.

    With feedforward every pair-analysis outcome is corrected (probability 1
    each); without it only HH/VV pairs are kept (one factor 1/2 per auxiliary
    stage).  For odd n, ``single_outcome`` keeps the one uniform-superposition
    Fourier outcome (factor 1/d) and ``full_fourier`` corrects every outcome;
    ``None`` pairs the odd-n mode with ``feedforward`` (full when it is on).
    """
    _check_params(d, n)
    sources = -(n // -2)  # ceil(n/2)
    n_aux = aux_count(d, n)
    p = Fraction(1, d ** (sources - 1)) * Fraction(1, 2**n_aux)
    if not feedforward:
        p *= Fraction(1, 2**n_aux)
    single = not feedforward if odd_n_mode is None else odd_n_mode == "single_outcome"
    if n % 2 == 1 and single:
        p *= Fraction(1, d)
    return p


def predicted_prob(d: int, n: int, feedforward: bool = True) -> float:
    return float(predicted_prob_for_options(d, n, feedforward))


DIAGONAL = "diagonal"
CROSS_PARITY = "cross-parity"
SAME_PARITY = "same-parity"


@dataclass(frozen=True)
class MCTClassification:
    """Partition of the d**2 junction terms |i i j j> by how they are removed."""

    d: int
    by_pair: dict[tuple[int, int], str]

    @property
    def diagonal_count(self) -> int:
        return sum(1 for c in self.by_pair.values() if c == DIAGONAL)

    @property
    def cross_parity_count(self) -> int:
        return sum(1 for c in self.by_pair.values() if c == CROSS_PARITY)

    @property
    def same_parity_count(self) -> int:
        return sum(1 for c in self.by_pair.values() if c == SAME_PARITY)


def classify_terms(d: int) -> MCTClassification:
    """Diagonal terms survive; cross-parity cross terms die at the PBS filter;
    same-parity cross terms need one auxiliary stage per unordered pair."""
    _check_params(d, 2)
    by_pair: dict[tuple[int, int], str] = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                by_pair[(i, j)] = DIAGONAL
            elif i % 2 != j % 2:
                by_pair[(i, j)] = CROSS_PARITY
            else:
                by_pair[(i, j)] = SAME_PARITY
    return MCTClassification(d, by_pair)


@dataclass(frozen=True)
class ResourceSummary:
    d: int
    n: int
    epr_count: int
    aux_count: int
    eta1: float
    eta2_values: tuple[float, ...]
    predicted_prob_ff: float
    predicted_prob_filtered: float


RESOURCE_CSV_HEADER = (
    "d,n,epr_count,aux_count,eta1,predicted_prob_ff,predicted_prob_filtered"
)


def resource_summary(d: int, n: int) -> ResourceSummary:
    _check_params(d, n)
    per_junction = aux_count(d, 4)
    return ResourceSummary(
        d=d,
        n=n,
        epr_count=-(n // -2),
        aux_count=aux_count(d, n),
        eta1=eta1(d),
        eta2_values=tuple(eta2(d, k) for k in range(1, per_junction + 1)),
        predicted_prob_ff=predicted_prob(d, n, True),
        predicted_prob_filtered=predicted_prob(d, n, False),
    )


def resource_csv_row(summary: ResourceSummary) -> str:
    return (
        f"{summary.d},{summary.n},{summary.epr_count},{summary.aux_count},"
        f"{summary.eta1!r},{summary.predicted_prob_ff!r},"
        f"{summary.predicted_prob_filtered!r}"
    )


# --- brute-force oracle -----------------------------------------------------


def oracle_run(
    d: int,
    n: int,
    feedforward: bool = True,
    odd_n_mode: str | None = None,
    input_coeffs: Sequence[float] | None = None,
):
    """Dense term-list pipeline sharing no machinery with either simulator.

    The product input is enumerated explicitly as source-value tuples; each
    junction first drops cross-parity tuples, then walks its stage list
    removing exactly the stage's two targeted cross terms while damping every
    survivor's amplitude by 1/(2*sqrt(2)) (retention times one projection
    outcome).  Success probability is recovered combinatorially from the
    surviving amplitudes and the outcome multiplicity of each stage.
    """
    from .protocol import RunReport  # deferred: protocol builds on this module

    _check_params(d, n)
    if d > ORACLE_MAX_D or n > ORACLE_MAX_N:
        raise OracleTooLarge(
            f"oracle bounded to d <= {ORACLE_MAX_D}, n <= {ORACLE_MAX_N}"
        )
    if odd_n_mode is None:
        odd_n_mode = "full_fourier" if feedforward else "single_outcome"
    sources = -(n // -2)
    if input_coeffs is None:
        coeffs = [1.0 / math.sqrt(d)] * d
    else:
        coeffs = [float(c) for c in input_coeffs]

    # every source-value assignment, with its product amplitude
    tuples: dict[tuple[int, ...], complex] = {}

    def extend(prefix: tuple[int, ...], amp: complex) -> None:
        if len(prefix) == sources:
            if abs(amp) > 0.0:
                tuples[prefix] = amp
            return
        for i in range(d):
            extend(prefix + (i,), amp * coeffs[i])

    extend((), 1.0 + 0j)

    trace: list[float] = []
    labels: list[str] = []
    prob_chosen = 1.0
    prob_filtered = 1.0  # pure convention: keep HH/VV pairs, single Fourier outcome
    prob_ff = 1.0        # pure convention: correct every outcome
    damp = 1.0 / (2.0 * math.sqrt(2.0))
    for junction in range(sources - 1):
        total = sum(abs(a) ** 2 for a in tuples.values())
        if total == 0.0:
            break
        kept = {
            t: a for t, a in tuples.items() if t[junction] % 2 == t[junction + 1] % 2
        }
        p1 = sum(abs(a) ** 2 for a in kept.values()) / total
        trace.append(p1)
        labels.append(f"j{junction}.parity_filter")
        prob_chosen *= p1
        prob_filtered *= p1
        prob_ff *= p1
        tuples = kept
        for stage, (i, j) in enumerate(aux_pairs(d)):
            total = sum(abs(a) ** 2 for a in tuples.values())
            if total == 0.0:
                break
            survivors = {
                t: a * damp
                for t, a in tuples.items()
                if (t[junction], t[junction + 1]) not in ((i, j), (j, i))
            }
            # coincidence part: survivors retain half their squared weight
            p_coin = 0.5 * sum(abs(a) ** 2 for a in survivors.values()) * 8.0 / total
            p_pas = 1.0 if feedforward else 0.5
            trace.extend([p_coin, p_pas])
            labels.extend(
                [f"j{junction}.aux{stage}.filter", f"j{junction}.aux{stage}.pas"]
            )
            prob_chosen *= p_coin * p_pas
            prob_ff *= p_coin
            prob_filtered *= p_coin * 0.5
            tuples = survivors

    # odd-photon reduction: measure the first photon of the even chain out
    drop_first = n % 2 == 1
    if drop_first:
        p_reduce = 1.0 if odd_n_mode == "full_fourier" else 1.0 / d
        trace.append(p_reduce)
        labels.append("reduce")
        prob_chosen *= p_reduce
        prob_ff *= 1.0
        prob_filtered *= 1.0 / d

    photons = list(range(1 if drop_first else 0, 2 * sources))
    nsq = sum(abs(a) ** 2 for a in tuples.values())
    final = PhotonicState({}, 0.0)
    if nsq > 0.0:
        # the oracle's own 1/sqrt(norm): the report takes the fidelity of the
        # amplitudes it is given, so raw ones would round differently
        scale = 1.0 / math.sqrt(nsq)
        kets = []
        for t, a in tuples.items():
            modes = [(photon * d + t[photon // 2], states.H) for photon in photons]
            kets.append((ket(*modes), a * scale))
        final = states.make_state(kets, branch_prob=prob_chosen)
    predicted = (
        predicted_prob_for_options(d, n, feedforward, odd_n_mode)
        if input_coeffs is None
        else None
    )
    return RunReport.build(
        "oracle", d, n, feedforward, final,
        [[p * d + i for i in range(d)] for p in photons],
        (prob_chosen, prob_filtered, prob_ff), predicted, trace, labels,
    )
