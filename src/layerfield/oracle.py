"""Independent ground-truth solvers and comparison metrics.

Nothing here shares code paths with the operator-series or boundary-layer
solvers: mode matching solves per-frequency interface systems in closed
form, and the finite-difference solver discretizes the layered problem
directly. Both exist to check the transforms, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .basefield import FieldGrid, boundary_values, laplace_residual_linf
from .errors import (
    GridMismatchError,
    SharedBasisRequiredError,
    SingularSystemError,
    TruncationTooSmallError,
)
from .report import SolveReport
from .spectral import SpectralMatrix, eigendecompose
from .transmute import ConventionMode, RobinProblem, TwoLayerProblem

_PAIR_TOL = 1e-8


def shared_eigensystem(mats: list[SpectralMatrix]):
    """A basis diagonalizing every matrix in the list, with the per-matrix
    eigenvalues paired by shared eigenvector.

    Tries each matrix's own eigenbasis and a generic linear combination
    (which separates degenerate eigenvalues of the individual matrices).
    Raises SharedBasisRequiredError if none works.
    """
    candidates = list(mats)
    if len(mats) > 1:
        mix = sum(float(np.pi ** (k + 1) / 10.0 ** k) * m.entries
                  for k, m in enumerate(mats))
        try:
            candidates.append(eigendecompose(mix))
        except Exception:
            pass
    for cand in candidates:
        q, qinv = cand.eigvecs, cand.eigvecs_inv
        diags = []
        ok = True
        for m in mats:
            d = qinv @ m.entries @ q
            off = d - np.diag(np.diag(d))
            if np.linalg.norm(off) > _PAIR_TOL * max(1.0, np.linalg.norm(d)):
                ok = False
                break
            diags.append(np.diag(d).copy())
        if ok:
            return q, qinv, diags
    raise SharedBasisRequiredError(
        "matrices are not simultaneously diagonalizable within tolerance")


# ---------------------------------------------------------------------------
# Mode matching


def _exp_pair_values(omega, trig, basis, alpha, e_minus, e_plus, xs, ys,
                     dx_order: int) -> np.ndarray:
    """Field sum_i basis[:, i] (e_minus_i e^{-k_i x} + e_plus_i e^{k_i x})
    trig(omega y) with k = omega / alpha, on the (xs, ys) nodes, shape
    (nx, ny, n); dx_order=1 gives its x-derivative."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    k = omega / alpha
    em = np.exp(-np.outer(xs, k))
    ep = np.exp(np.outer(xs, k))
    if dx_order == 1:
        em = -k[None, :] * em
        ep = k[None, :] * ep
    coef = em * e_minus[None, :] + ep * e_plus[None, :]
    wave = np.cos(omega * ys) if trig == "cos" else np.sin(omega * ys)
    return (coef @ basis.T)[:, None, :] * wave[None, :, None]


@dataclass(frozen=True)
class ModeMatchSolution:
    """Exact per-frequency two-layer solution.

    e1, e2 are the decaying/growing layer-1 amplitudes and e3 the decaying
    layer-2 amplitude in the shared eigenbasis (physical amplitudes are
    basis @ e*). A nonzero growing layer-2 amplitude e4 appears only for
    the truncated-domain variant (zero far boundary at x = truncation_x).
    """

    omega: float
    trig: str
    basis: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    truncation_x: float | None = None

    def layer1_values(self, xs, ys, dx_order: int = 0) -> np.ndarray:
        return _exp_pair_values(self.omega, self.trig, self.basis, self.alpha1,
                                self.e1, self.e2, xs, ys, dx_order)

    def layer2_values(self, xs, ys, dx_order: int = 0) -> np.ndarray:
        return _exp_pair_values(self.omega, self.trig, self.basis, self.alpha2,
                                self.e3, self.e4, xs, ys, dx_order)


def _mode_match(problem: TwoLayerProblem, omega: float, amp, trig: str,
                truncation_x: float | None) -> ModeMatchSolution:
    if omega <= 0.0:
        raise ValueError("mode matching requires omega > 0")
    if trig not in ("cos", "sin"):
        raise ValueError("trig must be 'cos' or 'sin'")
    amp = np.atleast_1d(np.asarray(amp, dtype=float))
    q, qinv, (d1, d2) = shared_eigensystem([problem.a1, problem.a2])
    v = qinv @ amp
    lam1, lam2, l = problem.lambda1, problem.lambda2, problem.l
    n = amp.size
    e = np.zeros((4, n))
    for i in range(n):
        a1i, a2i = d1[i], d2[i]
        e1m = np.exp(-omega * l / a1i)
        e1p = np.exp(omega * l / a1i)
        e2m = np.exp(-omega * l / a2i)
        e2p = np.exp(omega * l / a2i)
        if truncation_x is None:
            mat = np.array([
                [1.0, 1.0, 0.0],
                [e1m, e1p, -e2m],
                [-lam1 / a1i * e1m, lam1 / a1i * e1p, lam2 / a2i * e2m],
            ])
            rhs = np.array([v[i], 0.0, 0.0])
        else:
            exm = np.exp(-omega * truncation_x / a2i)
            exp_ = np.exp(omega * truncation_x / a2i)
            mat = np.array([
                [1.0, 1.0, 0.0, 0.0],
                [e1m, e1p, -e2m, -e2p],
                [-lam1 / a1i * e1m, lam1 / a1i * e1p,
                 lam2 / a2i * e2m, -lam2 / a2i * e2p],
                [0.0, 0.0, exm, exp_],
            ])
            rhs = np.array([v[i], 0.0, 0.0, 0.0])
        try:
            sol = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"mode-match system singular: {exc}") from exc
        resid = np.abs(mat @ sol - rhs).max()
        if resid > 1e-12 * max(1.0, np.abs(rhs).max(), np.abs(sol).max()):
            raise SingularSystemError(
                f"mode-match residual {resid:.3g} too large")
        e[:sol.size, i] = sol
    return ModeMatchSolution(
        omega=omega, trig=trig, basis=q, alpha1=d1, alpha2=d2,
        e1=e[0], e2=e[1], e3=e[2], e4=e[3], truncation_x=truncation_x)


def mode_match_two_layer(problem: TwoLayerProblem, omega: float, amp,
                         trig: str = "cos") -> ModeMatchSolution:
    """Half-plane two-layer solution for one trigonometric mode."""
    return _mode_match(problem, omega, amp, trig, None)


def mode_match_truncated(problem: TwoLayerProblem, omega: float, amp,
                         truncation_x: float,
                         trig: str = "cos") -> ModeMatchSolution:
    """Two-layer mode solution on [0, X] with a zero far boundary, the
    exact continuum counterpart of what fd_solve discretizes."""
    return _mode_match(problem, omega, amp, trig, truncation_x)


def mode_match_reference(problem: TwoLayerProblem, xs, ys, layer: int,
                         dx_order: int = 0,
                         truncation_x: float | None = None) -> np.ndarray:
    """Assemble the exact field from all trace modes on the given nodes."""
    trace = problem.trace
    if trace.samples is not None:
        raise ValueError("mode matching covers mode traces only")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    out = np.zeros((xs.size, ys.size, trace.dim))
    for m in trace.modes:
        for amp, trig in ((m.cos_amp, "cos"), (m.sin_amp, "sin")):
            if not np.any(amp != 0.0):
                continue
            sol = _mode_match(problem, m.omega, amp, trig, truncation_x)
            vals = (sol.layer1_values(xs, ys, dx_order) if layer == 1
                    else sol.layer2_values(xs, ys, dx_order))
            out += vals
    return out


@dataclass(frozen=True)
class RobinModeSolution:
    """Exact per-frequency Robin solution, optionally on a truncated strip."""

    omega: float
    trig: str
    basis: np.ndarray
    alpha: np.ndarray
    e_minus: np.ndarray
    e_plus: np.ndarray

    def values(self, xs, ys, dx_order: int = 0) -> np.ndarray:
        return _exp_pair_values(self.omega, self.trig, self.basis, self.alpha,
                                self.e_minus, self.e_plus, xs, ys, dx_order)


def robin_mode_solution(problem: RobinProblem, omega: float, amp,
                        trig: str = "cos",
                        truncation_x: float | None = None) -> RobinModeSolution:
    """Exact solution of h u + u_x = amp trig(omega y) per eigencomponent."""
    if omega <= 0.0:
        raise ValueError("requires omega > 0")
    amp = np.atleast_1d(np.asarray(amp, dtype=float))
    q, qinv, (da, dh) = shared_eigensystem([problem.a, problem.h])
    v = qinv @ amp
    n = amp.size
    e_minus = np.zeros(n)
    e_plus = np.zeros(n)
    for i in range(n):
        k = omega / da[i]
        if truncation_x is None:
            e_minus[i] = v[i] / (dh[i] - k)
        else:
            mat = np.array([[dh[i] - k, dh[i] + k],
                            [np.exp(-k * truncation_x),
                             np.exp(k * truncation_x)]])
            e_minus[i], e_plus[i] = np.linalg.solve(mat, [v[i], 0.0])
    return RobinModeSolution(omega, trig, q, da, e_minus, e_plus)


# ---------------------------------------------------------------------------
# Finite differences


def _trace_component_rhs(trace, qinv, ys) -> np.ndarray:
    """Boundary data transformed to the shared eigenbasis, (ny, n)."""
    f = boundary_values(trace, ys)
    return f @ qinv.T


def fd_y_span(trace) -> float:
    """The fd oracle's y period: the smallest k 2 pi / omega_min, k <= 16,
    over which every mode of the trace is periodic."""
    omega_min = trace.min_positive_omega
    for k in range(1, 17):
        cycles = [k * m.omega / omega_min for m in trace.modes]
        if all(abs(c - round(c)) <= 1e-9 for c in cycles):
            return k * 2.0 * np.pi / omega_min
    raise ValueError("modes are not periodic over k 2 pi / omega_min for "
                     "any k <= 16")


def fd_solve(problem, truncation_x: float, nx: int, ny: int,
             far_tol: float = 0.05) -> FieldGrid:
    """Second-order finite-difference solve on [0, X] x one y period
    (:func:`fd_y_span`).

    Mode traces only (so y can be made exactly periodic). Componentwise in
    the shared eigenbasis: 5-point interior stencil, one-sided second-order
    boundary and interface-flux rows, u = 0 at the far boundary x = X. The
    grid stores the ny distinct periodic y-nodes (the period endpoint is
    not duplicated).
    """
    trace = problem.trace
    if trace.samples is not None:
        raise ValueError("fd oracle covers mode traces only")
    if nx < 3 or ny < 2:
        raise ValueError(f"fd grid needs nx >= 3 and ny >= 2, got {nx} x {ny}")
    omega_min = trace.min_positive_omega
    if omega_min is None:
        raise TruncationTooSmallError(
            "trace has no decaying mode; far boundary u=0 is inconsistent")

    two_layer = isinstance(problem, TwoLayerProblem)
    if two_layer:
        q, qinv, (d1, d2) = shared_eigensystem([problem.a1, problem.a2])
        lam_max = max(d1.max(), d2.max())
    else:
        q, qinv, (d1, dh) = shared_eigensystem([problem.a, problem.h])
        lam_max = d1.max()
    if np.exp(-omega_min * truncation_x / lam_max) >= far_tol:
        raise TruncationTooSmallError(
            f"exp(-omega X / max lambda) = "
            f"{np.exp(-omega_min * truncation_x / lam_max):.3g} "
            f"exceeds far_tol={far_tol}")

    y_span = fd_y_span(trace)

    hx = truncation_x / (nx - 1)
    hy = y_span / ny
    xs = np.linspace(0.0, truncation_x, nx)
    ys = np.arange(ny) * hy

    if two_layer:
        il_float = problem.l / hx
        il = int(round(il_float))
        if abs(il_float - il) > 1e-9 or not 2 <= il <= nx - 3:
            raise ValueError("interface must fall on an interior grid node "
                             "with two nodes on each side")
    rhs_modes = _trace_component_rhs(trace, qinv, ys)     # (ny, n)

    # The system is kron(Dx, I_y) + kron(diag(lap) cy, ring_y): Dx carries
    # the x stencil and the boundary, interface and far rows, lap marks the
    # rows that hold the 5-point Laplacian, ring_y its periodic y part.
    lap = np.ones(nx)
    lap[[0, nx - 1]] = 0.0
    if two_layer:
        lap[il] = 0.0
    inner = np.flatnonzero(lap)
    # At ny = 2 both y neighbours are the same node; their entries add up.
    shift = sp.csr_matrix((np.ones(ny), (np.arange(ny),
                                         (np.arange(ny) + 1) % ny)),
                          shape=(ny, ny))
    ring_y = (1.0 / hy ** 2) * (shift + shift.T - 2.0 * sp.identity(ny))
    y_part = sp.kron(sp.diags(lap), ring_y, format="csr")

    u_eig = np.empty((nx, ny, trace.dim))
    for k in range(trace.dim):
        ax = (np.where(xs <= problem.l, d1[k], d2[k]) if two_layer
              else np.full(nx, d1[k]))
        cx = ax * ax / hx ** 2
        dx = sp.lil_matrix((nx, nx))
        dx[inner, inner - 1] = dx[inner, inner + 1] = cx[inner]
        dx[inner, inner] = -2.0 * cx[inner]
        dx[nx - 1, nx - 1] = 1.0
        if two_layer:
            dx[0, 0] = 1.0
            # lambda1 u_x(l-) = lambda2 u_x(l+), one-sided 2nd order
            c1 = problem.lambda1 / (2.0 * hx)
            c2 = problem.lambda2 / (2.0 * hx)
            dx[il, il - 2:il + 3] = [c1, -4.0 * c1, 3.0 * c1 + 3.0 * c2,
                                     -4.0 * c2, c2]
        else:
            # h u + u_x = f with one-sided second-order u_x
            dx[0, :3] = [dh[k] - 3.0 / (2.0 * hx), 4.0 / (2.0 * hx),
                         -1.0 / (2.0 * hx)]
        mat = sp.kron(dx, sp.identity(ny), format="csr") + y_part
        b = np.zeros(nx * ny)
        b[:ny] = rhs_modes[:, k]
        sol = spsolve(mat, b)
        resid = np.abs(mat @ sol - b).max()
        if not np.all(np.isfinite(sol)) or resid > 1e-10 * max(1.0, np.abs(b).max()):
            raise SingularSystemError(
                f"fd system residual {resid:.3g} too large")
        u_eig[:, :, k] = sol.reshape(nx, ny)

    u_phys = np.einsum("ij,xyj->xyi", q, u_eig)
    return FieldGrid((0.0, truncation_x), (0.0, y_span - hy), u_phys,
                     layer_boundary=problem.l if two_layer else None)


# ---------------------------------------------------------------------------
# Comparison and residual metrics


@dataclass(frozen=True)
class CompareMetrics:
    linf: float
    l2: float
    per_component: np.ndarray


def compare(field_a: FieldGrid, field_b: FieldGrid) -> CompareMetrics:
    """Norms of the difference of two fields on identical grids.

    l2 is the cell-weighted discrete norm sqrt(hx hy sum |diff|^2).
    """
    if field_a.values.shape != field_b.values.shape:
        raise GridMismatchError("field shapes differ")
    for ra, rb in ((field_a.x_range, field_b.x_range),
                   (field_a.y_range, field_b.y_range)):
        if not np.allclose(ra, rb, rtol=0.0, atol=1e-12):
            raise GridMismatchError("grid ranges differ")
    diff = field_a.values - field_b.values
    linf = float(np.abs(diff).max())
    l2 = float(np.sqrt(field_a.hx * field_a.hy * np.sum(diff * diff)))
    per_component = np.abs(diff).max(axis=(0, 1))
    return CompareMetrics(linf, l2, per_component)


def _one_sided_dx(values: np.ndarray, h: float, at_start: bool) -> np.ndarray:
    """Second-order one-sided x-derivative at the first or last x row."""
    if at_start:
        return (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)


def residual_report(fields, problem,
                    mode: ConventionMode = ConventionMode.CALIBRATED) -> SolveReport:
    """Discrete residuals of solved fields against the problem statement.

    For a Robin problem pass one FieldGrid (x starting at 0); for a
    two-layer problem pass the (layer1, layer2) pair sharing the interface
    node. The Robin boundary residual is measured against the identity of
    the stated convention mode.
    """
    if isinstance(problem, RobinProblem):
        field = fields
        if abs(field.x_range[0]) > 1e-12:
            raise GridMismatchError("Robin residuals need a grid starting at x=0")
        ys = field.y_nodes
        f = boundary_values(problem.trace, ys)
        du0 = _one_sided_dx(field.values, field.hx, at_start=True)
        robin_lhs = field.values[0] @ problem.h.entries.T + du0
        sign = -1.0 if mode is ConventionMode.LITERAL else 1.0
        boundary = float(np.abs(robin_lhs - sign * f).max())
        pde = laplace_residual_linf(field, problem.a.entries)
        return SolveReport(pde_residual_linf=pde,
                           boundary_residual_linf=boundary)

    field1, field2 = fields
    if not np.isclose(field1.x_range[1], field2.x_range[0], atol=1e-12):
        raise GridMismatchError("layer grids must share the interface node")
    ys = field1.y_nodes
    f = boundary_values(problem.trace, ys)
    dirichlet = float(np.abs(field1.values[0] - f).max()) \
        if abs(field1.x_range[0]) <= 1e-12 else 0.0
    value_gap = float(np.abs(field1.values[-1] - field2.values[0]).max())
    flux1 = problem.lambda1 * _one_sided_dx(field1.values, field1.hx, False)
    flux2 = problem.lambda2 * _one_sided_dx(field2.values, field2.hx, True)
    flux_gap = float(np.abs(flux1 - flux2).max())
    pde = max(laplace_residual_linf(field1, problem.a1.entries),
              laplace_residual_linf(field2, problem.a2.entries))
    return SolveReport(pde_residual_linf=pde,
                       boundary_residual_linf=dirichlet,
                       interface_value_gap=value_gap,
                       interface_flux_gap=flux_gap)
