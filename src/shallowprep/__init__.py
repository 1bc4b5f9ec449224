"""Constant-depth synthesis and exact verification of symmetric quantum states.

The package splits into a layered-circuit representation (``circuits``,
``library``), a simulator on the nonzero amplitudes with certification
helpers (``simulate``, which applies each Grover round that ``rounds``
finds as one reflection), amplitude-amplification building blocks
(``primitives``), exact rational distribution machinery (``dists``), the
state constructions themselves (``synthesis``: one builder for weighted
symmetric states, whose one-hot case is the Dicke state), and
sweep/acceptance harnesses
(``claims``, ``acceptance``, ``cli``).
"""

from .acceptance import (
    CRITERION_IDS,
    PRIMITIVE_NAMES,
    AcceptanceReport,
    CheckRow,
    certify_primitive,
    run_acceptance,
)
from .circuits import (
    Builder,
    Circuit,
    CircuitError,
    CostReport,
    Gate,
    Register,
    cost,
    deserialize,
    serialize,
)
from .claims import CLAIM_IDS, ClaimVerdict, SweepConfig, run_claims
from .dists import (
    DampedBinomial,
    DomainError,
    damped_binomial,
    occupancy_pmf,
    trailing_zero_mass,
)
from .primitives import (
    AmplifyInfo,
    MarkedPreparation,
    adjust_amplitudes,
    amplify_to_exact,
    ctrl_from_zero_overlap,
    ctrl_state,
    exact_grover,
    ham_gadget,
    parallel_amplify,
    prepare_onehot_dist,
    prepare_small_state,
)
from .simulate import (
    CertificationError,
    SimulationError,
    StateVector,
    VerificationResult,
    certify_library_gate,
    check_clean_preparation,
    output_overlap,
    residual_mass,
    run,
)
from .synthesis import (
    SynthesisOutput,
    build_dicke,
    build_symmetric,
    default_ell,
    dicke_vector,
    prepare_zero_damped,
    symmetric_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceReport",
    "AmplifyInfo",
    "Builder",
    "CLAIM_IDS",
    "CRITERION_IDS",
    "CertificationError",
    "CheckRow",
    "Circuit",
    "CircuitError",
    "ClaimVerdict",
    "CostReport",
    "DampedBinomial",
    "DomainError",
    "Gate",
    "MarkedPreparation",
    "PRIMITIVE_NAMES",
    "Register",
    "SimulationError",
    "StateVector",
    "SweepConfig",
    "SynthesisOutput",
    "VerificationResult",
    "adjust_amplitudes",
    "amplify_to_exact",
    "build_dicke",
    "build_symmetric",
    "certify_library_gate",
    "certify_primitive",
    "check_clean_preparation",
    "cost",
    "ctrl_from_zero_overlap",
    "ctrl_state",
    "damped_binomial",
    "default_ell",
    "deserialize",
    "dicke_vector",
    "exact_grover",
    "ham_gadget",
    "occupancy_pmf",
    "output_overlap",
    "parallel_amplify",
    "prepare_onehot_dist",
    "prepare_small_state",
    "prepare_zero_damped",
    "residual_mass",
    "run",
    "run_acceptance",
    "run_claims",
    "serialize",
    "symmetric_vector",
    "trailing_zero_mass",
]
