"""Entanglement from spatial overlap of partially distinguishable particles.

The package models N identical particles sent through a linear transformation
onto N detectors, keeps the outcomes where every detector fires exactly once,
and traces out whatever hidden degrees of freedom make the particles partially
distinguishable. The result is a spin-register density matrix plus the
postselection success probability, ready for witness checks, phase searches
and simulated tomography.
"""

__version__ = "0.2.0"

from .brute_force import brute_density_matrix, permanent
from .density import DensityMatrix
from .entanglement import (
    GHZ_WITNESS_BOUND,
    VERDICT_GHZ,
    VERDICT_INCONCLUSIVE,
    VERDICT_W,
    W_WITNESS_BOUND,
    ClassificationReport,
    TargetState,
    classify,
    classify_states,
    fidelity_mixed,
    fidelity_pure,
    ghz_state,
    optimize_w_phases,
    w_state,
)
from .errors import (
    ConfigError,
    CountsParseError,
    IdentangleError,
    IncompleteSettingsError,
    PostselectionImpossibleError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .reduction import (
    GramMatrix,
    NoBunchingOutcomes,
    density_matrices_from_spec,
    density_matrix_from_spec,
    gram_from_delays,
    gram_from_labels,
    no_bunching_outcomes,
)
from .tomography import (
    CountRow,
    CountsTable,
    log_likelihood,
    read_counts,
    reconstruct_linear,
    reconstruct_mle,
    simulate_counts,
    write_counts,
)
from .transform import (
    UNUSED,
    GHZParams,
    Spin,
    TransformSpec,
    balanced_ghz_params,
    balanced_tritter_rows,
    custom_spec,
    dft_tritter_rows,
    ghz_preset,
    w_preset,
)

__all__ = [
    "__version__",
    "ClassificationReport",
    "ConfigError",
    "CountRow",
    "CountsParseError",
    "CountsTable",
    "DensityMatrix",
    "GHZParams",
    "GHZ_WITNESS_BOUND",
    "GramMatrix",
    "IdentangleError",
    "IncompleteSettingsError",
    "NoBunchingOutcomes",
    "PostselectionImpossibleError",
    "Spin",
    "TargetState",
    "TransformSpec",
    "UNUSED",
    "UnsupportedConfigurationError",
    "VERDICT_GHZ",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_W",
    "ValidationError",
    "W_WITNESS_BOUND",
    "balanced_ghz_params",
    "balanced_tritter_rows",
    "brute_density_matrix",
    "classify",
    "classify_states",
    "custom_spec",
    "density_matrices_from_spec",
    "density_matrix_from_spec",
    "dft_tritter_rows",
    "fidelity_mixed",
    "fidelity_pure",
    "ghz_preset",
    "ghz_state",
    "gram_from_delays",
    "gram_from_labels",
    "log_likelihood",
    "no_bunching_outcomes",
    "optimize_w_phases",
    "permanent",
    "read_counts",
    "reconstruct_linear",
    "reconstruct_mle",
    "simulate_counts",
    "w_preset",
    "w_state",
    "write_counts",
]
