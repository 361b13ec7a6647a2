"""agrip: deterministic compressed-sensing matrices from finite geometry.

Construct measurement matrices whose columns are graph indicators of
functions on finite-field point sets (polynomial, plane-curve, surface and
toric families), verify their coherence and average-coherence exactly, apply
sign schemes (seeded random and balanced), and run sparse-recovery
experiments.  See README.md for the CLI and file formats.
"""

__version__ = "0.1.0"

from .errors import AgripError
from .exact import SurdSum, exact_ratio_sqrt
from .fields import (
    FieldSpec,
    extension_with_embedding,
    make_field,
    parse_descriptor,
)
from .matrix import (
    CoherenceReport,
    MeasurementMatrix,
    StrongCoherenceVerdict,
    average_coherence,
    coherence,
    coherence_report,
    read_sparse,
    sparsity_order_bound,
    welch_bound,
    welch_bound_squared,
    write_sparse,
)
from .constructions import (
    EvaluationDesign,
    INFINITY,
    PlaneCurveCensus,
    build_design,
    construction_a_simple_poles,
    construction_a_single_point,
    devore,
    evaluation_matrix,
    fermat_hyperplane_matrix,
    fermat_surface_points,
    plane_curve_census,
    plane_curve_matrix,
    projective_space_design,
    ruled_surface_design,
    toric_design,
)
from .signs import (
    BalancedCertificate,
    balanced_matrix,
    certify_strong_coherence,
    expected_abs_inner_product,
    randomize_signs,
)
from .recovery import (
    ExperimentReport,
    RecoveryResult,
    SparseSignal,
    measure,
    normalized_operator,
    omp,
    one_step_thresholding,
    run_experiment,
)
from .verification import (
    FermatSectionReport,
    OracleResult,
    brute_force_coherence,
    brute_force_rip_delta,
    coherence_via_differences,
    fermat_section_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
