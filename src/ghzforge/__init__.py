"""ghzforge: linear-optical simulation of post-selected GHZ state preparation.

The package is organized as a small stack: sparse Fock states
(:mod:`ghzforge.states`), optical elements (:mod:`ghzforge.elements`),
measurements and post-selection (:mod:`ghzforge.measurement`), the protocol
compiler with its three executors (:mod:`ghzforge.protocol`), closed-form
analysis plus the brute-force oracle executor (:mod:`ghzforge.analysis`), and a
pinned regression checklist (:mod:`ghzforge.golden`).
"""

from . import errors
from .analysis import (
    aux_count,
    aux_pairs,
    fidelity,
    ghz_reference,
)
from .elements import (
    BDMerge,
    BDSplit,
    HWP,
    Inject,
    PBS,
    Phase,
    apply_bd_merge,
    apply_bd_split,
    apply_hwp,
    apply_pbs,
    apply_phase,
    run_circuit,
)
from .measurement import (
    CoincidencePattern,
    CoincidenceSelect,
    PasPairSelect,
    feedforward,
    fourier_measure_path,
    postselect_coincidence,
    project_polarization_pair,
)
from .protocol import (
    FULL_FOURIER,
    SINGLE_OUTCOME,
    ProtocolOptions,
    ProtocolPlan,
    RunReport,
    build_aux_source,
    build_epr_source,
    compile_plan,
    execute,
    polarization_tag,
    reduce_to_odd,
    run,
)
from .states import (
    EPS,
    H,
    V,
    FockTerm,
    Mode,
    PhotonicState,
    fock_term,
    inner_product,
    ket,
    make_state,
    normalize,
    tensor,
    vacuum,
)

__version__ = "0.1.0"

__all__ = [
    "EPS", "H", "V", "Mode", "FockTerm", "PhotonicState",
    "fock_term", "ket", "make_state", "normalize", "tensor",
    "inner_product", "vacuum",
    "PBS", "HWP", "Phase", "BDMerge", "BDSplit", "Inject",
    "apply_pbs", "apply_hwp", "apply_phase", "apply_bd_merge", "apply_bd_split",
    "run_circuit",
    "CoincidencePattern", "CoincidenceSelect", "PasPairSelect",
    "postselect_coincidence", "project_polarization_pair",
    "fourier_measure_path", "feedforward",
    "ProtocolOptions", "ProtocolPlan", "RunReport", "compile_plan", "execute",
    "run", "reduce_to_odd", "build_epr_source", "build_aux_source",
    "polarization_tag", "SINGLE_OUTCOME", "FULL_FOURIER",
    "ghz_reference", "fidelity", "aux_count", "aux_pairs",
    "errors",
]
