"""Exact state-vector simulator of the delayed-choice quantum eraser.

Two interferometer models share one small linear-algebra core: a two-path
splitter fanned into n detector channels, and a continuous two-slit
screen discretized into bins. Both carry an optional two-state path
marker; conditioning the marker on erasure states recovers complementary
interference patterns, and conditioning on a detection (the delayed mode)
leaves the marker in a definite, position-determined erasure state. The
analysis layer verifies that joint statistics are independent of the
measurement ordering and provides deterministic seeded event sampling.
"""

__version__ = "0.10.0"

from .analysis import (
    MARKER_FIRST,
    SYSTEM_FIRST,
    EventRecord,
    JointTable,
    epr_correlation_table,
    epr_state,
    joint_distribution,
    joint_distributions,
    mutual_information,
    ordering_invariance_residual,
    sample_events,
)
from .core import (
    ATOL,
    DensityOperator,
    Distribution,
    PureState,
    fidelity_pure,
    make_state,
    project_marker,
    project_system,
    purity,
    reduced_marker_density,
)
from .marker import (
    MarkerBasis,
    MarkerState,
    erasure_basis,
    which_path_basis,
)
from .nchannel import (
    PhaseConfig,
    conditioned_distribution,
    default_config,
    delayed_marker_state,
    detector_probabilities,
    final_state_bare,
    final_state_marked,
    random_config,
    validate_config,
)
from .rng import SplitMix64
from .twoslit import (
    ScreenGeometry,
    ScreenGrid,
    build_grid,
    default_geometry,
    default_grid,
    delayed_marker_state_at,
    marked_state,
    pattern_conditioned,
    pattern_marked_unconditioned,
    pattern_no_marker,
    visibility,
)

__all__ = [
    "ATOL",
    "MARKER_FIRST",
    "SYSTEM_FIRST",
    "DensityOperator",
    "Distribution",
    "EventRecord",
    "JointTable",
    "MarkerBasis",
    "MarkerState",
    "PhaseConfig",
    "PureState",
    "ScreenGeometry",
    "ScreenGrid",
    "SplitMix64",
    "build_grid",
    "conditioned_distribution",
    "default_config",
    "default_geometry",
    "default_grid",
    "delayed_marker_state",
    "delayed_marker_state_at",
    "detector_probabilities",
    "epr_correlation_table",
    "epr_state",
    "erasure_basis",
    "fidelity_pure",
    "final_state_bare",
    "final_state_marked",
    "joint_distribution",
    "joint_distributions",
    "make_state",
    "marked_state",
    "mutual_information",
    "ordering_invariance_residual",
    "pattern_conditioned",
    "pattern_marked_unconditioned",
    "pattern_no_marker",
    "project_marker",
    "project_system",
    "purity",
    "random_config",
    "reduced_marker_density",
    "sample_events",
    "validate_config",
    "visibility",
    "which_path_basis",
]
