"""Independent ground-truth solvers and comparison metrics.

Nothing here shares code paths with the operator-series or boundary-layer
solvers: mode matching solves per-frequency interface systems in closed
form, and the finite-difference solver discretizes the layered problem
directly. Both exist to check the transforms. The finite-difference
system is solved in Fourier space along the periodic y direction, one
x-system per wavenumber, and its solution is checked against the
real-space system it stands for.
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
)
from .report import ResidualReport
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


def _exp_values(omega, trig, basis, alpha, terms, xs, ys,
                dx_order: int) -> np.ndarray:
    """Field sum_i basis[:, i] sum_(amp, sign, x0) amp_i e^{sign k_i (x - x0)}
    trig(omega y) with k = omega / alpha, on the (xs, ys) nodes, shape
    (nx, ny, n); dx_order=1 gives its x-derivative. Each growing term
    (sign +1) is written against the far end x0 of its layer, so no
    exponential exceeds 1 on that layer."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.asarray(ys, dtype=float)
    k = omega / alpha
    coef = np.zeros((xs.size, k.size))
    for amp, sign, x0 in terms:
        term = np.exp(sign * np.outer(xs - x0, k)) * amp[None, :]
        coef += sign * k[None, :] * term if dx_order == 1 else term
    wave = np.cos(omega * ys) if trig == "cos" else np.sin(omega * ys)
    return (coef @ basis.T)[:, None, :] * wave[None, :, None]


@dataclass(frozen=True)
class ModeMatchSolution:
    """Exact per-frequency two-layer solution on the half-plane.

    In the shared eigenbasis (physical amplitudes are basis @ e*), layer 1
    is e1 e^{-k1 x} + e2 e^{k1 (x - l)} and layer 2 is e3 e^{-k2 (x - l)},
    with k = omega / alpha. Every exponential is at most 1 on its layer,
    so no omega overflows them.
    """

    omega: float
    trig: str
    basis: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    l: float
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray

    def layer1_values(self, xs, ys, dx_order: int = 0) -> np.ndarray:
        return _exp_values(self.omega, self.trig, self.basis, self.alpha1,
                           ((self.e1, -1.0, 0.0), (self.e2, 1.0, self.l)),
                           xs, ys, dx_order)

    def layer2_values(self, xs, ys, dx_order: int = 0) -> np.ndarray:
        return _exp_values(self.omega, self.trig, self.basis, self.alpha2,
                           ((self.e3, -1.0, self.l),), xs, ys, dx_order)


def mode_match_two_layer(problem: TwoLayerProblem, omega: float, amp,
                         trig: str = "cos") -> ModeMatchSolution:
    """Half-plane two-layer solution for one trigonometric mode."""
    if omega <= 0.0:
        raise ValueError("mode matching requires omega > 0")
    if trig not in ("cos", "sin"):
        raise ValueError("trig must be 'cos' or 'sin'")
    amp = np.atleast_1d(np.asarray(amp, dtype=float))
    q, qinv, (d1, d2) = shared_eigensystem([problem.a1, problem.a2])
    v = qinv @ amp
    lam1, lam2, l = problem.lambda1, problem.lambda2, problem.l
    e = np.zeros((3, amp.size))
    for i in range(amp.size):
        # Dirichlet data at x = 0, then value and flux continuity at x = l
        e1m = np.exp(-omega * l / d1[i])
        c1, c2 = lam1 / d1[i], lam2 / d2[i]
        mat = np.array([[1.0, e1m, 0.0],
                        [e1m, 1.0, -1.0],
                        [-c1 * e1m, c1, c2]])
        rhs = np.array([v[i], 0.0, 0.0])
        try:
            sol = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"mode-match system singular: {exc}") from exc
        resid = np.abs(mat @ sol - rhs).max()
        if not resid <= 1e-12 * max(1.0, np.abs(rhs).max(), np.abs(sol).max()):
            raise SingularSystemError(
                f"mode-match residual {resid:.3g} too large")
        e[:, i] = sol
    return ModeMatchSolution(omega=omega, trig=trig, basis=q, alpha1=d1,
                             alpha2=d2, l=l, e1=e[0], e2=e[1], e3=e[2])


def mode_match_reference(problem: TwoLayerProblem, xs, ys, layer: int,
                         dx_order: int = 0) -> np.ndarray:
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
            sol = mode_match_two_layer(problem, m.omega, amp, trig)
            vals = (sol.layer1_values(xs, ys, dx_order) if layer == 1
                    else sol.layer2_values(xs, ys, dx_order))
            out += vals
    return out


@dataclass(frozen=True)
class RobinModeSolution:
    """Exact per-frequency Robin solution on the half-plane: e_minus
    e^{-k x} per eigencomponent (physical amplitudes basis @ e_minus),
    with k = omega / alpha."""

    omega: float
    trig: str
    basis: np.ndarray
    alpha: np.ndarray
    e_minus: np.ndarray

    def values(self, xs, ys, dx_order: int = 0) -> np.ndarray:
        return _exp_values(self.omega, self.trig, self.basis, self.alpha,
                           ((self.e_minus, -1.0, 0.0),), xs, ys, dx_order)


def robin_mode_solution(problem: RobinProblem, omega: float, amp,
                        trig: str = "cos") -> RobinModeSolution:
    """Exact solution of h u + u_x = amp trig(omega y) per eigencomponent."""
    if omega <= 0.0:
        raise ValueError("requires omega > 0")
    amp = np.atleast_1d(np.asarray(amp, dtype=float))
    q, qinv, (da, dh) = shared_eigensystem([problem.a, problem.h])
    e_minus = (qinv @ amp) / (dh - omega / da)
    return RobinModeSolution(omega, trig, q, da, e_minus)


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
    if omega_min is None:
        raise ValueError("fd oracle needs a mode with omega > 0")
    for k in range(1, 17):
        cycles = [k * m.omega / omega_min for m in trace.modes]
        if all(abs(c - round(c)) <= 1e-9 for c in cycles):
            return k * 2.0 * np.pi / omega_min
    raise ValueError("modes are not periodic over k 2 pi / omega_min for "
                     "any k <= 16")


def fd_solve(problem, x_max: float, nx: int, ny: int) -> FieldGrid:
    """Second-order finite-difference solve of the half-plane problem on
    the nodes of [0, x_max] x one y period (:func:`fd_y_span`).

    Mode traces only (so y can be made exactly periodic). Componentwise in
    the shared eigenbasis: 5-point interior stencil, one-sided second-order
    boundary and interface-flux rows. The grid stores the ny distinct
    periodic y-nodes (the period endpoint is not duplicated).

    The periodic y part of the stencil is circulant, so a real DFT in y
    (Hockney's Fourier-analysis method) splits the 2-D system into
    ny // 2 + 1 decoupled x-systems, one per y-wavenumber, solved together
    as one block-diagonal sparse system. The far row of wavenumber q is
    u_{N-1} = r_q u_{N-2}, with r_q the decaying root of the outermost
    layer's x-recurrence: exact for the semi-infinite grid (a discrete
    Dirichlet-to-Neumann condition), so x_max cuts nothing off. The
    solution is then checked on the real-space system: a residual above
    1e-10 times the boundary data scale, or a non-finite value, raises
    SingularSystemError.
    """
    trace = problem.trace
    if trace.samples is not None:
        raise ValueError("fd oracle covers mode traces only")
    if nx < 3 or ny < 2:
        raise ValueError(f"fd grid needs nx >= 3 and ny >= 2, got {nx} x {ny}")
    y_span = fd_y_span(trace)

    two_layer = isinstance(problem, TwoLayerProblem)
    if two_layer:
        q, qinv, (d1, d2) = shared_eigensystem([problem.a1, problem.a2])
    else:
        q, qinv, (d1, dh) = shared_eigensystem([problem.a, problem.h])

    hx = x_max / (nx - 1)
    hy = y_span / ny
    xs = np.linspace(0.0, x_max, nx)
    ys = np.arange(ny) * hy

    if two_layer:
        il_float = problem.l / hx
        il = int(round(il_float))
        if abs(il_float - il) > 1e-9 or not 2 <= il <= nx - 3:
            raise ValueError("interface must fall on an interior grid node "
                             "with two nodes on each side")
    rhs_modes = _trace_component_rhs(trace, qinv, ys)     # (ny, n)

    # The system is Dx U + diag(lap) U ring_y = B on the (nx, ny) nodes: Dx
    # carries the x stencil and the boundary and interface rows, lap marks
    # the rows that hold the 5-point Laplacian, ring_y is its periodic y
    # part and only row x = 0 of B is nonzero. ring_y is circulant, so a
    # real DFT in y turns it into diag(mu) and the system into one x-system
    # (Dx + mu_q diag(lap)) v_q = rfft(B)_q per wavenumber q. At ny = 2 both
    # y neighbours are the same node; mu_1 = -4 / hy^2 is their summed entry.
    # The far row v_{N-1} - r_q v_{N-2} = 0 differs per q: its diagonal 1
    # sits in Dx and its -r_q on the subdiagonal of the y part.
    lap = np.ones(nx)
    lap[[0, nx - 1]] = 0.0
    if two_layer:
        lap[il] = 0.0
    inner = np.flatnonzero(lap)
    nq = ny // 2 + 1
    mu = -(4.0 / hy ** 2) * np.sin(np.pi * np.arange(nq) / ny) ** 2

    u_eig = np.empty((nx, ny, trace.dim))
    for k in range(trace.dim):
        ax = (np.where(xs <= problem.l, d1[k], d2[k]) if two_layer
              else np.full(nx, d1[k]))
        cx = ax * ax / hx ** 2
        # The outermost rows c (v_{i-1} - 2 v_i + v_{i+1}) + mu v_i = 0 have
        # the roots r and 1/r; 1/(t + sqrt(t^2 - 1)) is the decaying one,
        # free of the cancellation in t - sqrt(t^2 - 1) at large |mu|.
        t = 1.0 - mu / (2.0 * cx[nx - 2])
        r = 1.0 / (t + np.sqrt(t * t - 1.0))
        rows = [inner, inner, inner, [nx - 1]]
        cols = [inner - 1, inner, inner + 1, [nx - 1]]
        vals = [cx[inner], -2.0 * cx[inner], cx[inner], [1.0]]
        if two_layer:
            # lambda1 u_x(l-) = lambda2 u_x(l+), one-sided 2nd order
            c1 = problem.lambda1 / (2.0 * hx)
            c2 = problem.lambda2 / (2.0 * hx)
            rows += [[0], [il] * 5]
            cols += [[0], range(il - 2, il + 3)]
            vals += [[1.0], [c1, -4.0 * c1, 3.0 * c1 + 3.0 * c2,
                             -4.0 * c2, c2]]
        else:
            # h u + u_x = f with one-sided second-order u_x
            rows += [[0] * 3]
            cols += [[0, 1, 2]]
            vals += [[dh[k] - 3.0 / (2.0 * hx), 4.0 / (2.0 * hx),
                      -1.0 / (2.0 * hx)]]
        dx = sp.csr_matrix((np.concatenate(vals),
                            (np.concatenate(rows), np.concatenate(cols))),
                           shape=(nx, nx))
        # Block q of the block-diagonal matrix is the x-system of
        # wavenumber q; real and imaginary parts are two right-hand sides.
        far = np.zeros((nq, nx))
        far[:, nx - 2] = -r
        y_part = sp.diags([np.kron(mu, lap), far.ravel()[:-1]], [0, -1])
        mat = sp.kron(sp.identity(nq), dx, format="csc") + y_part
        f_hat = np.fft.rfft(rhs_modes[:, k])
        b = np.zeros((nq, nx, 2))
        b[:, 0, 0] = f_hat.real
        b[:, 0, 1] = f_hat.imag
        v = spsolve(mat, b.reshape(nq * nx, 2)).reshape(nq, nx, 2)
        u = np.fft.irfft(v[..., 0] + 1j * v[..., 1], n=ny, axis=0).T
        # Residual of the real-space system, matrix-free; the far row
        # applies r per wavenumber, a circulant in real space.
        res = dx @ u + lap[:, None] * (np.roll(u, 1, axis=1)
                                       + np.roll(u, -1, axis=1)
                                       - 2.0 * u) / hy ** 2
        res[0] -= rhs_modes[:, k]
        res[nx - 1] -= np.fft.irfft(r * np.fft.rfft(u[nx - 2]), n=ny)
        resid = np.abs(res).max()
        scale = max(1.0, np.abs(rhs_modes[:, k]).max())
        if not np.all(np.isfinite(u)) or resid > 1e-10 * scale:
            raise SingularSystemError(
                f"fd system residual {resid:.3g} too large")
        u_eig[:, :, k] = u

    u_phys = np.einsum("ij,xyj->xyi", q, u_eig)
    return FieldGrid((0.0, x_max), (0.0, y_span - hy), u_phys,
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
                    mode: ConventionMode = ConventionMode.CALIBRATED
                    ) -> ResidualReport:
    """Discrete residuals of solved fields against the problem statement.

    For a Robin problem pass one FieldGrid (x starting at 0); for a
    two-layer problem pass the (layer1, layer2) pair sharing the interface
    node. The Robin boundary residual is measured against the identity of
    the stated convention mode. The two-layer Dirichlet residual is
    measured only on a grid starting at x = 0; otherwise it is None.
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
        return ResidualReport(pde_residual_linf=pde,
                              boundary_residual_linf=boundary)

    field1, field2 = fields
    if not np.isclose(field1.x_range[1], field2.x_range[0], atol=1e-12):
        raise GridMismatchError("layer grids must share the interface node")
    ys = field1.y_nodes
    f = boundary_values(problem.trace, ys)
    dirichlet = float(np.abs(field1.values[0] - f).max()) \
        if abs(field1.x_range[0]) <= 1e-12 else None
    value_gap = float(np.abs(field1.values[-1] - field2.values[0]).max())
    flux1 = problem.lambda1 * _one_sided_dx(field1.values, field1.hx, False)
    flux2 = problem.lambda2 * _one_sided_dx(field2.values, field2.hx, True)
    flux_gap = float(np.abs(flux1 - flux2).max())
    pde = max(laplace_residual_linf(field1, problem.a1.entries),
              laplace_residual_linf(field2, problem.a2.entries))
    return ResidualReport(pde_residual_linf=pde,
                          boundary_residual_linf=dirichlet,
                          interface_value_gap=value_gap,
                          interface_flux_gap=flux_gap)
