"""Closed-form resource counts, reference states, fidelity and the oracle:
a brute-force executor, independent of the other two, that
``protocol.execute`` runs on a compiled plan.  This module imports nothing
from ``protocol``.

Counting identities are evaluated in exact rational arithmetic and only
converted to float at the API boundary, so the identity checks below are
exact rather than tolerance-based.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

from . import states
from .errors import InvalidParameters, OracleTooLarge
from .states import PhotonicState, ket

ORACLE_MAX_D = 4
ORACLE_MAX_N = 6

# odd-n reduction modes: keep the uniform-superposition Fourier outcome only,
# or correct every outcome
SINGLE_OUTCOME = "single_outcome"
FULL_FOURIER = "full_fourier"


def resolve_odd_mode(odd_n_mode: str | None, feedforward: bool) -> str:
    """``odd_n_mode`` itself, or for None the mode paired with ``feedforward``
    (``FULL_FOURIER`` when it is on); any other value raises InvalidParameters."""
    if odd_n_mode is None:
        return FULL_FOURIER if feedforward else SINGLE_OUTCOME
    if odd_n_mode not in (SINGLE_OUTCOME, FULL_FOURIER):
        raise InvalidParameters(f"unknown odd-n mode {odd_n_mode!r}")
    return odd_n_mode


def _check_params(d: int, n: int) -> None:
    if not isinstance(d, int) or not isinstance(n, int) or d < 2 or n < 2:
        raise InvalidParameters(f"need integer d >= 2 and n >= 2, got d={d}, n={n}")


def default_port_groups(d: int, n_photons: int) -> list[list[int]]:
    """Photon p occupies ports [p*d, (p+1)*d); path i is its i-th port."""
    return [[p * d + i for i in range(d)] for p in range(n_photons)]


def _check_ports(groups: Sequence[Sequence[int]]) -> None:
    """Every port of ``groups`` is valid (``states.mode`` names the first bad
    one, path by path), and no two paths share one (InvalidParameters)."""
    ports = [port for paths in zip(*groups) for port in paths]
    for port in ports:
        states.mode(port, states.H)
    if len(set(ports)) != len(ports):
        raise InvalidParameters("port groups must not share a port")


def ghz_reference(
    d: int, n: int, port_groups: Sequence[Sequence[int]] | None = None
) -> PhotonicState:
    """(1/sqrt(d)) * sum_i |i>^(x n) in path encoding, all photons horizontal.

    Ket i holds one H photon on port ``g[i]`` of every group ``g``, in i
    order.  Every port is a non-negative int and no two paths share one, so
    the d kets are distinct and unbunched.  A compiled plan builds its own
    once (``ProtocolPlan.reference``)."""
    _check_params(d, n)
    groups = port_groups if port_groups is not None else default_port_groups(d, n)
    if len(groups) != n or any(len(g) != d for g in groups):
        raise InvalidParameters("port groups must give each of the n photons d paths")
    _check_ports(groups)
    amp = 1.0 / math.sqrt(d)
    return states.make_state(
        (tuple(((g[i], states.H), 1) for g in groups), amp) for i in range(d)
    )


def fidelity(state: PhotonicState, reference: PhotonicState, *, normalized: bool = False) -> float:
    """|<ref|state/||state||>|**2; an empty state has fidelity 0.  A state
    already normalised is passed with ``normalized=True`` and used as it is."""
    if state.is_empty:
        return 0.0
    overlap = states.inner_product(reference, state if normalized else states.normalize(state))
    return min(abs(overlap) ** 2, 1.0)


# --- resource and probability formulas -------------------------------------


def junction_count(n: int) -> int:
    """Adjacent-photon junctions in a chain of ceil(n/2) pair sources."""
    return (n - 1) // 2


def aux_pairs(d: int) -> list[tuple[int, int]]:
    """Same-parity unordered path pairs targeted by one filter stage each,
    even pairs first, lexicographic within each parity class; a new list on
    every call.  Its length is ``aux_count(d, 4)``."""
    return list(combinations(range(0, d, 2), 2)) + list(combinations(range(1, d, 2), 2))


def aux_count(d: int, n: int) -> int:
    """Auxiliary entangled pairs consumed: the paper's ceil(d(d-2)/4) per
    junction, which equals C(ceil(d/2), 2) + C(floor(d/2), 2), the number of
    same-parity pairs; ``verify`` checks the two forms agree."""
    _check_params(d, n)
    return -((d * (d - 2)) // -4) * junction_count(n)


def _survivors(d: int) -> int:
    """Terms of the d**2-term junction input that the parity filter keeps:
    all but the 2 * ceil(d/2) * floor(d/2) cross-parity ones."""
    return d * d - 2 * ((d + 1) // 2) * (d // 2)


def eta1_exact(d: int) -> Fraction:
    """Survival rate of the parity PBS filter on the d**2-term junction input."""
    _check_params(d, 2)
    return Fraction(_survivors(d), d * d)


def eta2_exact(d: int) -> Iterator[Fraction]:
    """Survival rates of d's auxiliary stages k = 1 .. ``aux_count(d, 4)``,
    in order, in the paper's per-stage accounting, where each stage removes
    its two targeted cross terms and halves the rest: of the s parity-filter
    survivors, stage k keeps half of s - 2k out of s - 2(k - 1).  ``plan``
    prints these as its "helper stage k rate" lines.  d is checked at the
    call, and the rates come as an iterator, so no list of them is held.

    From d = 5 the rule and element executors measure other per-stage
    rates, and only the products agree: at d = 5, n = 4 these rates are
    11/26, 9/22, 7/18 and 5/14, while ``run`` measures 9/26, 7/18, 1/2 and
    5/14 at its ``interfere`` stages."""
    n_stages = aux_count(d, 4)
    s = _survivors(d)
    return (Fraction(s - 2 * k, 2 * (s - 2 * k + 2)) for k in range(1, n_stages + 1))


def _cancel_shared(num: range, den: range) -> tuple[int, int]:
    """Products of the values only in ``num`` and of those only in ``den``,
    two progressions of step 2 or -2.  The values they share run by 2 from
    ``lo`` to ``hi`` (none when their parities differ or they do not
    overlap), so each side multiplies only its values below and above that."""
    num, den = (side if side.step > 0 else side[::-1] for side in (num, den))
    if not num or not den or (num[0] - den[0]) % 2:
        return math.prod(num), math.prod(den)
    lo, hi = max(num[0], den[0]), min(num[-1], den[-1])

    def outside(side: range) -> int:
        below = math.prod(range(side.start, min(lo, side.stop), 2))
        return below * math.prod(range(max(hi + 2, side.start), side.stop, 2))

    return outside(num), outside(den)


def eta_product_exact(d: int) -> Fraction:
    """Exact eta1 * prod_k eta2(k), equal to multiplying the rates of
    ``eta2_exact`` stage by stage.

    The numerator factors s - 2k and the denominator factors s - 2(k-1)
    both step by -2, so the factors they share cancel exactly
    (``_cancel_shared``); only the leftovers are multiplied, and the factor
    2**N of the denominator is a shift."""
    n_stages = aux_count(d, 4)
    survivors = _survivors(d)
    num, den = _cancel_shared(
        range(survivors - 2, survivors - 2 * n_stages - 1, -2),
        range(survivors, survivors - 2 * n_stages + 1, -2),
    )
    return eta1_exact(d) * Fraction(num, den << n_stages)


def predicted_prob_for_options(
    d: int, n: int, feedforward: bool, odd_n_mode: str | None = None
) -> Fraction:
    """Closed-form success probability of the full chain.

    With feedforward every pair-analysis outcome is corrected (probability 1
    each); without it only HH/VV pairs are kept (one factor 1/2 per auxiliary
    stage).  For odd n, ``SINGLE_OUTCOME`` keeps the one uniform-superposition
    Fourier outcome (factor 1/d) and ``FULL_FOURIER`` corrects every outcome
    (see ``resolve_odd_mode``).
    """
    _check_params(d, n)
    single = resolve_odd_mode(odd_n_mode, feedforward) == SINGLE_OUTCOME and n % 2 == 1
    sources = -(n // -2)  # ceil(n/2)
    return Fraction(1, d ** (sources - 1 + single) << aux_count(d, n) * (1 if feedforward else 2))


# --- brute-force oracle -----------------------------------------------------


def oracle_run(plan, report) -> PhotonicState:
    """The final state of ``plan`` (a ``protocol.ProtocolPlan``) from a dense
    term-list pipeline sharing no simulation machinery with the other
    executors, its stages recorded in ``report`` (a ``protocol.RunReport``).

    It reads d, n and the source terms from the plan's options, which
    checked them when they were made, and walks ``plan.stages``, recording
    each measuring stage under its label; ``execute`` makes and finishes
    the report.  The plan builds its stage list from its one grammar, so
    the product input is enumerated up front as source-value tuples, and
    ``sources`` stages fall through, as do ``tag`` stages (no-ops by
    construction: the grammar fixes where each stands) and the other stages
    that measure nothing.  A ``pbs_filter`` stage drops cross-parity
    tuples; an ``aux_interfere`` stage removes exactly its two targeted
    cross terms and records half the squared weight left (the coincidence
    retains half of each survivor's weight); ``aux_pas`` keeps half the
    outcomes filtered and all with feedforward.  Survivors keep their
    source amplitudes, and no stage removes a tuple whose values are all
    equal, so the enumeration never empties; the state is normalised once,
    at the end.  Past ``ORACLE_MAX_D`` or ``ORACLE_MAX_N`` it raises
    OracleTooLarge; asked to keep intermediate states (``report.keep``),
    which it has none of, it raises InvalidParameters."""
    d, n = plan.d, plan.n
    if d > ORACLE_MAX_D or n > ORACLE_MAX_N:
        raise OracleTooLarge(
            f"oracle bounded to d <= {ORACLE_MAX_D}, n <= {ORACLE_MAX_N}"
        )
    if report.keep:
        raise InvalidParameters("the oracle keeps no intermediate states")
    sources = -(n // -2)
    tuples = {  # every assignment of the sources' terms, with its product amplitude
        tuple(i for i, _ in terms): math.prod((c for _, c in terms), start=1.0 + 0j)
        for terms in product(plan.options.source, repeat=sources)
    }

    for stage in plan.stages:
        if stage.kind == "pbs_filter":
            k = stage.junction  # it joins sources k and k + 1
            total = sum(abs(a) ** 2 for a in tuples.values())
            kept = {t: a for t, a in tuples.items() if t[k] % 2 == t[k + 1] % 2}
            report.record(stage.label, sum(abs(a) ** 2 for a in kept.values()) / total)
            tuples = kept
        elif stage.kind == "aux_interfere":
            k, (i, j) = stage.junction, stage.aux_pair
            total = sum(abs(a) ** 2 for a in tuples.values())
            kept = {t: a for t, a in tuples.items() if (t[k], t[k + 1]) not in ((i, j), (j, i))}
            report.record(stage.label, 0.5 * sum(abs(a) ** 2 for a in kept.values()) / total)
            tuples = kept
        elif stage.kind == "aux_pas":
            # filtered keeps HH/VV, half the outcomes; feedforward corrects all
            report.pair_analysis(stage.label, 0.5, 1.0)
        elif stage.kind == "reduce":
            # the first photon of the even chain is measured out; keeping one
            # of d uniform outcomes costs 1/d, correcting them all nothing
            report.reduction(stage.label, 1.0 / d, 1.0)

    photons = range(n % 2, 2 * sources)  # an odd n measured photon 0 out
    nsq = sum(abs(a) ** 2 for a in tuples.values())
    # the oracle's own 1/sqrt(norm): the report takes the fidelity of the
    # amplitudes it is given, so raw ones would round differently
    scale = 1.0 / math.sqrt(nsq)
    return states.make_state([
        (ket(*((photon * d + t[photon // 2], states.H) for photon in photons)), a * scale)
        for t, a in tuples.items()
    ])
