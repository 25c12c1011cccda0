"""Half-plane fields in layered media via transformation operators.

Solves vector Robin and two-layer Dirichlet boundary value problems for
u_yy + a^2 u_xx = 0 on a half-plane by applying operator transforms
(boundary-layer integrals, image series) to the homogeneous harmonic
extension of the boundary data, with built-in independent oracles.
"""

from .basefield import (
    BoundaryTrace,
    FieldGrid,
    GridSpec,
    TraceMode,
    cosine_trace,
    evaluate_on_grid,
    harmonic_extension,
    harmonic_extension_dx,
    laplace_residual_linf,
    profile_at_y,
    sampled_trace,
)
from .opalgebra import (
    ImageSeries,
    OperatorTerm,
    TermSumOperator,
    contraction_op,
    identity_op,
    image_series,
    reflection_op,
    scaling_op,
    shift_op,
)
from .oracle import (
    CompareMetrics,
    ModeMatchSolution,
    compare,
    fd_solve,
    mode_match_reference,
    mode_match_two_layer,
    residual_report,
    robin_mode_solution,
)
from .report import ResidualReport, SolveReport
from .spectral import (
    SpectralMatrix,
    apply_scalar_fn,
    commutator_norm,
    eigendecompose,
    matrix_exp,
    spectrum_in_halfplane,
)
from .transmute import (
    ConventionMode,
    RobinProblem,
    TwoLayerProblem,
    order0_approximation,
    order1_approximation,
    reflection_coefficient,
    robin_values,
    solve_robin,
    solve_two_layer,
    two_layer_values,
)

__version__ = "0.1.0"
