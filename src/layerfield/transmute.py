"""Boundary-condition and layered-medium transforms of the base field.

Two solvers are exposed. ``solve_robin`` maps the half-plane Dirichlet base
field to the Robin problem h u + u_x = f through a matrix-weighted integral
over a boundary-layer variable. ``solve_two_layer`` maps it to the two-layer
Dirichlet problem (value and flux continuity at x = l, conductivities
lambda_1, lambda_2) through the operator image series.

Both carry a convention switch. Literal mode evaluates the transform
exactly as defined, in which case the Robin output satisfies
h u(0,y) + u_x(0,y) = -f(y) and the two-layer contraction is
kappa = (lambda_2 / lambda_1) a_1 a_2^{-1}, which does not satisfy flux
continuity. Calibrated mode negates the Robin output (so the boundary
identity holds with +f) and replaces kappa by the reflection coefficient
(kappa - I)(kappa + I)^{-1}, which restores flux continuity. Reports and
the CLI summary always state which identity was checked.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from . import opalgebra
from .basefield import (
    BoundaryTrace,
    FieldGrid,
    GridSpec,
    TraceMode,
    _mode_values,
    _sample_values,
    boundary_values,
    extension_values,
    laplace_residual_linf,
)
from .errors import (
    DimMismatchError,
    NonCommutingError,
    QuadratureFailureError,
    SeriesDivergingWarning,
    SharedBasisRequiredError,
    SingularMatrixError,
    SpectrumViolationError,
)
from .report import SolveReport
from .spectral import (
    SpectralMatrix,
    apply_scalar_fn,
    commutator_norm,
    eigendecompose,
    spectrum_in_halfplane,
)

COMMUTATOR_TOL = 1e-10
SHARED_BASIS_TOL = 1e-8


class ConventionMode(enum.Enum):
    LITERAL = "literal"
    CALIBRATED = "calibrated"


@dataclass(frozen=True)
class RobinProblem:
    """Robin boundary value problem: u_yy + a^2 u_xx = 0, h u + u_x = f.

    Requires sigma(a) in the right half-plane, sigma(h) in the left, and
    a h = h a (the boundary identity is only derived for commuting pairs).
    """

    a: SpectralMatrix
    h: SpectralMatrix
    trace: BoundaryTrace

    def __post_init__(self):
        if self.a.dim != self.h.dim or self.a.dim != self.trace.dim:
            raise DimMismatchError("a, h and trace dims must agree")
        if not spectrum_in_halfplane(self.a, "right"):
            raise SpectrumViolationError("sigma(a) must lie in x > 0")
        if not spectrum_in_halfplane(self.h, "left"):
            raise SpectrumViolationError("sigma(h) must lie in x < 0")
        scale = max(1.0, float(np.linalg.norm(self.a.entries)
                               * np.linalg.norm(self.h.entries)))
        if commutator_norm(self.a, self.h) > COMMUTATOR_TOL * scale:
            raise NonCommutingError("a and h must commute")

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True)
class TwoLayerProblem:
    """Two-layer Dirichlet problem on x > 0 with interface at x = l.

    Layer 1 (0 < x < l) carries a1, layer 2 (x > l) carries a2; lambda1 and
    lambda2 are the scalar conductivities in the flux condition
    lambda1 u1_x(l, y) = lambda2 u2_x(l, y).
    """

    a1: SpectralMatrix
    a2: SpectralMatrix
    lambda1: float
    lambda2: float
    l: float
    trace: BoundaryTrace

    def __post_init__(self):
        if self.a1.dim != self.a2.dim or self.a1.dim != self.trace.dim:
            raise DimMismatchError("a1, a2 and trace dims must agree")
        if not (spectrum_in_halfplane(self.a1, "right")
                and spectrum_in_halfplane(self.a2, "right")):
            raise SpectrumViolationError("layer spectra must lie in x > 0")
        if self.lambda1 <= 0.0:
            raise ValueError("lambda1 must be positive")
        if self.lambda2 <= 0.0:
            raise ValueError("lambda2 must be positive")
        if self.l <= 0.0:
            raise ValueError("interface abscissa l must be positive")

    @property
    def dim(self) -> int:
        return self.a1.dim


def reflection_coefficient(kappa) -> np.ndarray:
    """(kappa - I)(kappa + I)^{-1}; contraction when sigma(kappa) > 0."""
    kappa = np.asarray(kappa, dtype=float)
    if kappa.ndim == 0:
        kappa = kappa.reshape(1, 1)
    n = kappa.shape[0]
    denom = kappa + np.eye(n)
    if np.linalg.cond(denom) > 1e14:
        raise SingularMatrixError("kappa + I is singular")
    # right-multiplication by inv(denom): solve X denom = kappa - I
    return np.linalg.solve(denom.T, (kappa - np.eye(n)).T).T


def contraction_matrix(problem: TwoLayerProblem,
                       mode: ConventionMode) -> np.ndarray:
    """The interface contraction: kappa itself (literal) or its reflection
    coefficient (calibrated)."""
    kappa = (problem.lambda2 / problem.lambda1) * (
        problem.a1.entries @ np.linalg.inv(problem.a2.entries))
    if mode is ConventionMode.LITERAL:
        return kappa
    c = commutator_norm(problem.a1, problem.a2)
    scale = max(1.0, float(np.linalg.norm(problem.a1.entries)
                           * np.linalg.norm(problem.a2.entries)))
    if c > SHARED_BASIS_TOL * scale:
        raise SharedBasisRequiredError(
            "calibrated mode requires simultaneously diagonalizable a1, a2")
    return reflection_coefficient(kappa)


# ---------------------------------------------------------------------------
# Robin transform


def _gauss_nodes(lo: float, hi: float, panels: int, order: int = 8):
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (half[:, None] * base_x[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def _robin_kernel(ah: SpectralMatrix, omega: float,
                  eps_hi: float) -> np.ndarray:
    """K(omega) = int_0^eps_hi e^{-omega eps} e^{a h eps} d eps in closed
    form, (omega I - ah)^{-1} (I - e^{(ah - omega I) eps_hi}). sigma(ah) < 0
    for a commuting Robin pair, so omega - mu never vanishes."""
    return apply_scalar_fn(
        ah, lambda mu: -np.expm1((mu - omega) * eps_hi) / (omega - mu))


def robin_values(problem: RobinProblem, xs, ys, mode: ConventionMode,
                 eps_max: float = 50.0, quad_tol: float = 1e-9,
                 dx_order: int = 0):
    """Robin solution (or its x-derivative) at the given nodes.

    Returns (values, quadrature_error) with values of shape
    (len(xs), len(ys), n). The boundary-layer integral is cut at
    E = min(eps_max, -ln(quad_tol) / min|sigma(a h)|). Mode parts use the
    exact kernel K(omega), so only a sampled part adds quadrature error.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    a = problem.a
    n = problem.dim
    ah = eigendecompose(a.entries @ problem.h.entries)
    eps_hi = min(eps_max,
                 -np.log(quad_tol) / float(np.abs(ah.eigenvalues).min()))
    out = np.zeros((xs.size, ys.size, n))
    quad_err = 0.0

    trace = problem.trace
    if trace.modes:
        # sum_i P_i [K(omega) a amp] e^{-omega x / lambda_i} per mode
        modes = []
        for m in trace.modes:
            k_mat = _robin_kernel(ah, m.omega, eps_hi) @ a.entries
            modes.append(TraceMode(m.omega, k_mat @ m.cos_amp,
                                   k_mat @ m.sin_amp))
        out += apply_operator(opalgebra.scaling_op(a, 0.0),
                              BoundaryTrace(n, tuple(modes)), xs, ys,
                              dx_order)

    if trace.samples is not None:
        sample_trace = BoundaryTrace(dim=n, samples=trace.samples)
        panels = 8
        prev = None
        while True:
            nodes, wts = _gauss_nodes(0.0, eps_hi, panels)
            exps = np.exp(np.outer(nodes, ah.eigenvalues))
            bq = np.einsum("ik,qk,kj->qij", ah.eigvecs, exps, ah.eigvecs_inv)
            bq = bq @ a.entries                       # e^{ah eps_q} a
            cur = np.zeros_like(out)
            for i, lam in enumerate(a.eigenvalues):
                args = (xs[:, None] / lam + nodes[None, :]).ravel()
                ext = extension_values(sample_trace, args, ys,
                                       dx_order=dx_order)
                ext = ext.reshape(xs.size, nodes.size, ys.size, n)
                if dx_order == 1:
                    ext = ext / lam
                contrib = np.einsum("q,qkj,xqyj->xyk", wts, bq, ext)
                cur += np.einsum("kj,xyj->xyk", a.projector(i), contrib)
            if prev is not None:
                delta = float(np.abs(cur - prev).max())
                if delta <= quad_tol * max(1.0, float(np.abs(cur).max())):
                    out += cur
                    quad_err = max(quad_err, delta)
                    break
            prev = cur
            panels *= 2
            if panels > 8 * 2 ** 8:
                raise QuadratureFailureError(
                    "boundary-layer quadrature for sampled trace "
                    "did not converge")

    if mode is ConventionMode.CALIBRATED:
        out = -out
    return out, quad_err


def solve_robin(problem: RobinProblem, grid: GridSpec, mode: ConventionMode,
                eps_max: float = 50.0, quad_tol: float = 1e-9):
    """Solve the Robin problem on a grid. Returns (FieldGrid, SolveReport).

    The reported boundary residual is against the identity the chosen mode
    is expected to satisfy: h u + u_x = -f (literal) or +f (calibrated).
    """
    vals, quad_err = robin_values(problem, grid.x_nodes, grid.y_nodes, mode,
                                  eps_max, quad_tol)
    field = FieldGrid(grid.x_range, grid.y_range, vals)

    ys = grid.y_nodes
    u0, _ = robin_values(problem, [0.0], ys, mode, eps_max, quad_tol)
    du0, _ = robin_values(problem, [0.0], ys, mode, eps_max, quad_tol,
                          dx_order=1)
    f = boundary_values(problem.trace, ys)
    sign = -1.0 if mode is ConventionMode.LITERAL else 1.0
    resid = u0[0] @ problem.h.entries.T + du0[0] - sign * f
    boundary_linf = float(np.abs(resid).max())

    report = SolveReport(
        pde_residual_linf=laplace_residual_linf(field, problem.a.entries),
        boundary_residual_linf=boundary_linf,
        quadrature_error=quad_err,
    )
    return field, report


# ---------------------------------------------------------------------------
# Two-layer transform


def split_grid_at_interface(grid: GridSpec, l: float) -> tuple[GridSpec, GridSpec]:
    """Split a full-range grid into per-layer grids sharing the interface node.

    Node counts are apportioned so that both layers keep (nearly) the
    parent spacing; the interface abscissa is a node of both grids.
    """
    x0, x1 = grid.x_range
    if not x0 < l < x1:
        raise ValueError(f"interface l={l} must lie inside x_range {grid.x_range}")
    frac = (l - x0) / (x1 - x0)
    n1 = int(round((grid.nx - 1) * frac)) + 1
    n1 = min(max(n1, 2), grid.nx - 1)
    n2 = grid.nx - n1 + 1
    return (GridSpec((x0, l), grid.y_range, n1, grid.ny),
            GridSpec((l, x1), grid.y_range, n2, grid.ny))


def apply_operator(op: opalgebra.TermSumOperator, trace: BoundaryTrace,
                   xs, ys, dx_order: int = 0) -> np.ndarray:
    """Evaluate an operator applied to the base field on an x-y node set.

    dx_order=1 gives the x-derivative (chain rule through each term's
    argument map). Shape (len(xs), len(ys), n). Modes are summed over all
    terms in one separable pass; a sampled part is evaluated term by term.
    """
    if dx_order not in (0, 1):
        raise ValueError("dx_order must be 0 or 1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    out = _mode_values(trace, op.terms, xs, ys, dx_order)
    if trace.samples is not None:
        for m, alpha, beta in op.terms:
            ext = _sample_values(trace, alpha * xs + beta, ys, dx_order)
            if dx_order == 1:
                ext = alpha * ext
            out += np.einsum("ij,xyj->xyi", m, ext)
    return out


def build_layer_operators(problem: TwoLayerProblem, mode: ConventionMode,
                          series_tol: float = 1e-10,
                          j_max: int = 64) -> opalgebra.ImageSeries:
    """Image-series operators for the problem in the given convention.

    Warns SeriesDivergingWarning when series_tol > 0 and j_max ended the
    series with its error bound still at or above series_tol.
    """
    chi = contraction_matrix(problem, mode)
    series = opalgebra.image_series(problem.a1, problem.a2, chi, problem.l,
                                    j_max=j_max, series_tol=series_tol,
                                    envelope=problem.trace.envelope)
    if series_tol > 0.0 and series.last_term_norm >= series_tol:
        warnings.warn(
            f"image series stopped at j_max={j_max} with error bound "
            f"{series.last_term_norm:.3g} >= series_tol={series_tol:.3g}",
            SeriesDivergingWarning, stacklevel=2)
    return series


def two_layer_values(problem: TwoLayerProblem, layer: int, xs, ys,
                     mode: ConventionMode, series_tol: float = 1e-10,
                     j_max: int = 64, dx_order: int = 0) -> np.ndarray:
    """Point evaluation of the two-layer solution in layer 1 or 2."""
    if layer not in (1, 2):
        raise ValueError("layer must be 1 or 2")
    series = build_layer_operators(problem, mode, series_tol, j_max)
    op = series.layer1 if layer == 1 else series.layer2
    return apply_operator(op, problem.trace, xs, ys, dx_order=dx_order)


def solve_two_layer(problem: TwoLayerProblem, grid: GridSpec,
                    mode: ConventionMode, series_tol: float = 1e-10,
                    j_max: int = 64):
    """Solve the two-layer problem on a grid split at the interface.

    Returns (layer1 FieldGrid, layer2 FieldGrid, SolveReport). The report
    carries the Dirichlet recovery residual at x = 0, the interface value
    and flux gaps, the discrete interior PDE residual, and the series
    truncation diagnostics.
    """
    series = build_layer_operators(problem, mode, series_tol, j_max)
    field1, field2 = _fields_from_operators(problem, grid, series.layer1,
                                            series.layer2)
    trace = problem.trace

    ys = grid.y_nodes
    u1_0 = apply_operator(series.layer1, trace, [0.0], ys)[0]
    f = boundary_values(trace, ys)
    dirichlet_gap = float(np.abs(u1_0 - f).max())

    l = problem.l
    u1_l = apply_operator(series.layer1, trace, [l], ys)[0]
    u2_l = apply_operator(series.layer2, trace, [l], ys)[0]
    value_gap = float(np.abs(u1_l - u2_l).max())
    du1_l = apply_operator(series.layer1, trace, [l], ys, dx_order=1)[0]
    du2_l = apply_operator(series.layer2, trace, [l], ys, dx_order=1)[0]
    flux_gap = float(np.abs(problem.lambda1 * du1_l
                            - problem.lambda2 * du2_l).max())

    pde = max(laplace_residual_linf(field1, problem.a1.entries),
              laplace_residual_linf(field2, problem.a2.entries))
    report = SolveReport(
        pde_residual_linf=pde,
        boundary_residual_linf=dirichlet_gap,
        interface_value_gap=value_gap,
        interface_flux_gap=flux_gap,
        series_terms_used=series.orders_used,
        truncation_proxy=series.last_term_norm,
    )
    return field1, field2, report


# ---------------------------------------------------------------------------
# Low-order approximations


def approximation_operators(problem: TwoLayerProblem, order: int,
                            mode: ConventionMode = ConventionMode.CALIBRATED):
    """Low-order layer operators: order 0 is the base field pushed through
    each layer's argument map; order 1 adds the single-reflection
    correction. Returns a merged (layer1, layer2) pair."""
    a1, l = problem.a1, problem.l
    t_op = opalgebra.shift_op(a1, l)
    r1 = opalgebra.scaling_op(a1, l)
    r2 = opalgebra.scaling_op(problem.a2, l)
    # R1 T, R1 T^2 built directly: a1 projector products leave x < 0 terms
    op1 = opalgebra.scaling_op(a1, 0.0)
    op2 = r2.compose(t_op)
    if order == 0:
        return op1.merged(), op2.merged()
    if order != 1:
        raise ValueError("order must be 0 or 1")
    u_op = opalgebra.contraction_op(contraction_matrix(problem, mode))
    s_op = opalgebra.reflection_op(l, problem.dim)
    ut = u_op.compose(t_op)
    corr1 = (opalgebra.scaling_op(a1, -l) - s_op.compose(r1)).compose(ut)
    corr2 = (r2.compose(opalgebra.shift_op(a1, 2.0 * l)) - r2).compose(ut)
    return (op1 + corr1).merged(), (op2 + corr2).merged()


def _fields_from_operators(problem, grid, op1, op2):
    g1spec, g2spec = split_grid_at_interface(grid, problem.l)
    v1 = apply_operator(op1, problem.trace, g1spec.x_nodes, g1spec.y_nodes)
    v2 = apply_operator(op2, problem.trace, g2spec.x_nodes, g2spec.y_nodes)
    return (FieldGrid(g1spec.x_range, g1spec.y_range, v1, problem.l),
            FieldGrid(g2spec.x_range, g2spec.y_range, v2, problem.l))


def order0_approximation(problem: TwoLayerProblem, grid: GridSpec):
    """Zeroth-order fields, ignoring the interface reflection entirely."""
    op1, op2 = approximation_operators(problem, 0)
    return _fields_from_operators(problem, grid, op1, op2)


def order1_approximation(problem: TwoLayerProblem, grid: GridSpec,
                         mode: ConventionMode):
    """First-order fields: order 0 plus the single-reflection correction."""
    op1, op2 = approximation_operators(problem, 1, mode)
    return _fields_from_operators(problem, grid, op1, op2)
