import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from layerfield.basefield import (
    BoundaryTrace,
    FieldGrid,
    GridSpec,
    TraceMode,
    boundary_values,
    cosine_trace,
)
from layerfield.errors import GridMismatchError, SharedBasisRequiredError
from layerfield.oracle import (
    compare,
    fd_solve,
    fd_y_span,
    mode_match_reference,
    mode_match_two_layer,
    residual_report,
    robin_mode_solution,
    shared_eigensystem,
)
from layerfield.spectral import eigendecompose
from layerfield.transmute import (
    ConventionMode,
    RobinProblem,
    TwoLayerProblem,
    solve_two_layer,
)

CAL = ConventionMode.CALIBRATED
LIT = ConventionMode.LITERAL


def two_layer_reference(problem, fd):
    """The half-plane mode-matching solution on the fd nodes."""
    xs, ys = fd.x_nodes, fd.y_nodes
    vals = np.zeros_like(fd.values)
    mask1 = xs <= problem.l
    for layer, mask in ((1, mask1), (2, ~mask1)):
        vals[mask] = mode_match_reference(problem, xs[mask], ys, layer)
    return FieldGrid(fd.x_range, fd.y_range, vals, fd.layer_boundary)


def decaying_root(mu, alpha, hx):
    """The root |r| < 1 of c (1/r - 2 + r) + mu = 0, c = alpha^2 / hx^2:
    the ratio of successive x-nodes of a decaying solution of the
    outermost rows at y-eigenvalue mu."""
    t = 1.0 - mu * hx ** 2 / (2.0 * alpha ** 2)
    return t - np.sqrt(t * t - 1.0)


def _rel(*terms):
    """Largest |sum of terms| over the largest sum of |terms|."""
    terms = np.broadcast_arrays(*terms)
    return np.abs(sum(terms)).max() / np.sum(np.abs(terms), axis=0).max()


def fd_row_residuals(problem, fd):
    """Relative residual of each documented fd row family, from the solved
    field mapped back to the shared eigenbasis."""
    two_layer = isinstance(problem, TwoLayerProblem)
    mats = [problem.a1, problem.a2] if two_layer else [problem.a, problem.h]
    _, qinv, (d1, d2) = shared_eigensystem(mats)
    u = fd.values @ qinv.T                                  # (nx, ny, n)
    f = boundary_values(problem.trace, fd.y_nodes) @ qinv.T  # (ny, n)
    hx, hy, nx = fd.hx, fd.hy, fd.nx
    if two_layer:
        il = int(round(problem.l / hx))
        alpha = np.where((fd.x_nodes <= problem.l)[:, None], d1, d2)
    else:
        il = None
        alpha = np.broadcast_to(d1, (nx, d1.size))
    cx = (alpha * alpha / hx ** 2)[:, None, :]
    cy = 1.0 / hy ** 2
    rows = [i for i in range(1, nx - 1) if i != il]
    ny = fd.ny
    mu = -(4.0 / hy ** 2) * np.sin(np.pi * np.arange(ny // 2 + 1) / ny) ** 2
    r = decaying_root(mu[:, None], alpha[-1][None, :], hx)   # (nq, n)
    out = {"laplace": _rel(cx[rows] * u[[i - 1 for i in rows]],
                           -2.0 * cx[rows] * u[rows],
                           cx[rows] * u[[i + 1 for i in rows]],
                           cy * np.roll(u, 1, axis=1)[rows],
                           -2.0 * cy * u[rows],
                           cy * np.roll(u, -1, axis=1)[rows]),
           "far": _rel(u[-1], -np.fft.irfft(
               r * np.fft.rfft(u[-2], axis=0), n=ny, axis=0))}
    if two_layer:
        out["dirichlet"] = _rel(u[0], -f)
        c1 = problem.lambda1 / (2.0 * hx)
        c2 = problem.lambda2 / (2.0 * hx)
        out["interface_flux"] = _rel(
            3.0 * c1 * u[il], -4.0 * c1 * u[il - 1], c1 * u[il - 2],
            3.0 * c2 * u[il], -4.0 * c2 * u[il + 1], c2 * u[il + 2])
    else:
        out["robin"] = _rel(d2 * u[0], -3.0 * u[0] / (2.0 * hx),
                            4.0 * u[1] / (2.0 * hx), -u[2] / (2.0 * hx), -f)
    return out


def _fd_row_cases():
    pair = np.array([[2.0, 1.0], [1.0, 2.0]])
    tr2 = BoundaryTrace(dim=2, modes=(
        TraceMode(1.0, np.array([1.0, -0.5]), np.array([0.3, 0.2])),
        TraceMode(2.0, np.array([0.4, 0.1]), np.array([0.0, -0.7]))))
    a1, a2 = eigendecompose(pair), eigendecompose(pair + np.eye(2))
    robin = RobinProblem(a1, eigendecompose(-np.eye(2) - 0.25 * pair), tr2)
    # X = 16 and nx = 33 give hx = 0.5: l = 1 puts the interface on node 2,
    # l = 15 on node nx - 3.
    return {
        "interface_node_2_ny_2": (
            TwoLayerProblem(a1, a2, 1.0, 3.0, 1.0, tr2), 16.0, 33, 2),
        "interface_node_nx_minus_3": (
            TwoLayerProblem(a1, a2, 2.0, 0.5, 15.0, tr2), 16.0, 33, 12),
        "robin_n2": (robin, 16.0, 41, 10),
        "robin_n2_ny_2": (robin, 16.0, 41, 2),
    }


def direct_fd_solve(problem, x_max, nx, ny):
    """The fd system of fd_solve assembled in real space,
    kron(Dx, I_y) + kron(diag(lap), ring_y) - kron(far, R) per
    eigencomponent, and solved directly by SuperLU; values (nx, ny, n) in
    the physical basis. far is the single entry (nx - 1, nx - 2) and R the
    circulant with ring_y's eigenvectors and the decaying roots of its
    eigenvalues: the transparent far row u_{N-1} = R u_{N-2}."""
    two_layer = isinstance(problem, TwoLayerProblem)
    mats = [problem.a1, problem.a2] if two_layer else [problem.a, problem.h]
    q, qinv, (d1, d2) = shared_eigensystem(mats)
    hx = x_max / (nx - 1)
    hy = fd_y_span(problem.trace) / ny
    xs = np.linspace(0.0, x_max, nx)
    f = boundary_values(problem.trace, np.arange(ny) * hy) @ qinv.T
    il = int(round(problem.l / hx)) if two_layer else None
    eye = np.eye(ny)
    # at ny = 2 both rolls hit the same node and their entries add up
    ring_y = (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)
              - 2.0 * eye) / hy ** 2
    mu = np.fft.rfft(ring_y[:, 0]).real
    far = sp.csr_matrix(([1.0], ([nx - 1], [nx - 2])), shape=(nx, nx))
    u = np.empty((nx, ny, f.shape[1]))
    for k in range(f.shape[1]):
        alpha = (np.where(xs <= problem.l, d1[k], d2[k]) if two_layer
                 else np.full(nx, d1[k]))
        dx = np.zeros((nx, nx))
        lap = np.zeros(nx)
        for i in range(1, nx - 1):
            if i != il:
                c = alpha[i] ** 2 / hx ** 2
                dx[i, i - 1:i + 2] = [c, -2.0 * c, c]
                lap[i] = 1.0
        dx[nx - 1, nx - 1] = 1.0
        if two_layer:
            dx[0, 0] = 1.0
            c1 = problem.lambda1 / (2.0 * hx)
            c2 = problem.lambda2 / (2.0 * hx)
            dx[il, il - 2:il + 3] = [c1, -4.0 * c1, 3.0 * (c1 + c2),
                                     -4.0 * c2, c2]
        else:
            dx[0, :3] = [d2[k] - 1.5 / hx, 2.0 / hx, -0.5 / hx]
        r = decaying_root(mu, alpha[-1], hx)
        circ_r = np.fft.irfft(r[:, None] * np.fft.rfft(eye, axis=0), n=ny,
                              axis=0)
        mat = (sp.kron(sp.csr_matrix(dx), sp.identity(ny))
               + sp.kron(sp.diags(lap), sp.csr_matrix(ring_y))
               - sp.kron(far, sp.csr_matrix(circ_r))).tocsc()
        b = np.zeros(nx * ny)
        b[:ny] = f[:, k]
        u[:, :, k] = spsolve(mat, b).reshape(nx, ny)
    return u @ q.T


def _direct_solve_cases():
    cases = _fd_row_cases()
    two_layer, _, _, _ = cases["interface_node_2_ny_2"]
    robin, _, _, _ = cases["robin_n2"]
    amp = np.array([0.8, -1.3, 0.6]), np.array([0.4, 0.9, -1.1])
    vector = TwoLayerProblem(eigendecompose(np.diag([1.0, 1.5, 2.0])),
                             eigendecompose(np.diag([2.0, 3.0, 0.7])),
                             1.0, 3.0, 1.0,
                             BoundaryTrace(dim=3, modes=(
                                 TraceMode(1.0, *amp),)))
    return {
        "two_layer_ny_odd": (two_layer, 16.0, 33, 13),
        "two_layer_ny_2": (two_layer, 16.0, 33, 2),
        "robin_nondiagonal_ny_odd": (robin, 16.0, 41, 11),
        "robin_nondiagonal_ny_even": (robin, 16.0, 41, 10),
        "robin_nondiagonal_ny_2": (robin, 16.0, 41, 2),
        "vector_transforms_n3": (vector, 12.0, 97, 64),
    }


class TestSharedEigensystem:
    def test_diagonal_pair(self):
        q, qinv, (d1, d2) = shared_eigensystem(
            [eigendecompose(np.diag([1.0, 2.0])),
             eigendecompose(np.diag([5.0, 3.0]))])
        assert np.allclose(q @ np.diag(d1) @ qinv, np.diag([1.0, 2.0]))
        assert np.allclose(q @ np.diag(d2) @ qinv, np.diag([5.0, 3.0]))

    def test_degenerate_first_matrix(self):
        # identity is diagonal in any basis; the pairing must come from a2
        a2 = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        q, qinv, (d1, d2) = shared_eigensystem([eigendecompose(np.eye(2)), a2])
        assert np.allclose(d1, [1.0, 1.0])
        assert np.allclose(np.sort(d2), [1.0, 3.0])

    def test_noncommuting_rejected(self):
        with pytest.raises(SharedBasisRequiredError):
            shared_eigensystem([
                eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]])),
                eigendecompose(np.array([[3.0, 0.0], [1.0, 1.0]]))])


class TestModeMatch:
    def test_homogeneous_no_reflection(self):
        a = eigendecompose(1.0)
        prob = TwoLayerProblem(a, a, 1.0, 1.0, 1.0, cosine_trace(1.0, [1.0]))
        sol = mode_match_two_layer(prob, 1.0, [1.0])
        # u = e^{-x}: no growing term, and layer 2's amplitude, scaled to
        # the interface x = l = 1, is e^{-1}
        assert (sol.basis @ sol.e1)[0] == pytest.approx(1.0, abs=1e-14)
        assert (sol.basis @ sol.e2)[0] == pytest.approx(0.0, abs=1e-14)
        assert (sol.basis @ sol.e3)[0] == pytest.approx(np.exp(-1.0),
                                                        abs=1e-14)

    def test_benchmark_spot_value(self, benchmark_problem):
        # frozen from the geometric image series summed in closed form
        chi, q = 0.2, 0.2 * np.exp(-2.0)
        frozen = (np.exp(-1.0) - chi * np.exp(-1.0)) / (1.0 - q)
        assert frozen == pytest.approx(0.302491, abs=1e-6)
        sol = mode_match_two_layer(benchmark_problem, 1.0, [1.0])
        got = sol.layer1_values([1.0], [0.0])[0, 0, 0]
        assert got == pytest.approx(frozen, abs=1e-12)

    def test_amplitude_split_invariant(self, benchmark_problem):
        sol = mode_match_two_layer(benchmark_problem, 1.0, [1.0])
        # the growing term is scaled to x = l = 1: e2 e^{k1 (0 - l)} at x = 0
        assert np.allclose(sol.basis @ sol.e1
                           + sol.basis @ sol.e2 * np.exp(-1.0), [1.0],
                           atol=1e-14)

    def test_interface_conditions_satisfied(self, benchmark_problem):
        sol = mode_match_two_layer(benchmark_problem, 1.0, [1.0])
        ys = np.linspace(-2, 2, 7)
        u1 = sol.layer1_values([1.0], ys)[0]
        u2 = sol.layer2_values([1.0], ys)[0]
        assert np.abs(u1 - u2).max() <= 1e-12
        du1 = sol.layer1_values([1.0], ys, dx_order=1)[0]
        du2 = sol.layer2_values([1.0], ys, dx_order=1)[0]
        assert np.abs(1.0 * du1 - 3.0 * du2).max() <= 1e-12

    def test_dirichlet_recovery(self, benchmark_problem):
        sol = mode_match_two_layer(benchmark_problem, 1.0, [1.0])
        ys = np.linspace(-2, 2, 7)
        u0 = sol.layer1_values([0.0], ys)[0, :, 0]
        assert np.abs(u0 - np.cos(ys)).max() <= 1e-14

    def test_matrix_problem_decouples(self):
        a1 = eigendecompose(np.diag([1.0, 1.0]))
        a2 = eigendecompose(np.diag([2.0, 2.0]))
        tr = cosine_trace(1.0, [1.0, 2.0])
        prob = TwoLayerProblem(a1, a2, 1.0, 3.0, 1.0, tr)
        sol = mode_match_two_layer(prob, 1.0, [1.0, 2.0])
        u = sol.layer1_values([0.7], [0.0])[0, 0]
        assert u[1] == pytest.approx(2.0 * u[0], rel=1e-12)

    def test_large_omega_stays_finite(self, benchmark_problem):
        # e^{omega l / a1} overflows from omega ~ 710; the scaled
        # amplitudes never form it
        sol = mode_match_two_layer(benchmark_problem, 800.0, [1.0])
        ys = np.linspace(-2, 2, 7)
        assert np.abs(sol.layer1_values([0.0], ys)[0, :, 0]
                      - np.cos(800.0 * ys)).max() <= 1e-14
        u1 = sol.layer1_values([1.0], ys)[0]
        u2 = sol.layer2_values([1.0], ys)[0]
        assert np.all(np.isfinite(u1)) and np.abs(u1 - u2).max() <= 1e-14
        du1 = sol.layer1_values([1.0], ys, dx_order=1)[0]
        du2 = sol.layer2_values([1.0], ys, dx_order=1)[0]
        assert np.abs(1.0 * du1 - 3.0 * du2).max() <= 1e-12 * 800.0
        far = sol.layer2_values([1.0, 3.0, 50.0], ys)
        assert np.all(np.isfinite(far))

    def test_requires_positive_frequency(self, benchmark_problem):
        with pytest.raises(ValueError):
            mode_match_two_layer(benchmark_problem, 0.0, [1.0])


class TestRobinModeSolution:
    def test_halfplane_coefficient(self):
        prob = RobinProblem(eigendecompose(1.0), eigendecompose(-1.0),
                            cosine_trace(1.0, [1.0]))
        sol = robin_mode_solution(prob, 1.0, [1.0])
        # (h - omega/a) A = amp  =>  A = -1/2
        assert sol.e_minus[0] == pytest.approx(-0.5)
        got = sol.values([0.4], [0.3])[0, 0, 0]
        assert got == pytest.approx(-0.5 * np.exp(-0.4) * np.cos(0.3))

    @pytest.mark.parametrize("omega", [1.0, 90.0, 800.0])
    def test_boundary_row_and_decay(self, omega):
        prob = RobinProblem(eigendecompose(1.0), eigendecompose(-1.0),
                            cosine_trace(omega, [1.0]))
        sol = robin_mode_solution(prob, omega, [1.0])
        lhs = (-sol.values([0.0], [0.0])[0, 0, 0]
               + sol.values([0.0], [0.0], dx_order=1)[0, 0, 0])
        assert lhs == pytest.approx(1.0, abs=1e-12)
        far = sol.values([8.0], [0.0])[0, 0, 0]
        assert np.isfinite(far) and abs(far) <= np.exp(-8.0 * omega)


class TestFdSolve:
    def test_homogeneous_two_layer_discretization_level(self):
        # In the homogeneous case the flux row is exact to O(h^3), and its
        # local effect partially cancels the interior truncation, so the
        # sup-norm Richardson ratio is erratic pre-asymptotically. Assert
        # discretization-level agreement at two resolutions instead; the
        # clean order check runs on the heterogeneous benchmark below.
        a = eigendecompose(1.0)
        prob = TwoLayerProblem(a, a, 1.0, 1.0, 1.0, cosine_trace(1.0, [1.0]))
        errs = []
        for nx, ny in ((33, 32), (65, 64)):
            fd = fd_solve(prob, 8.0, nx, ny)
            ref = two_layer_reference(prob, fd)
            errs.append(compare(fd, ref).linf)
        assert errs[0] <= 1e-3
        assert errs[1] <= 3e-4

    def test_benchmark_richardson_ratio(self, benchmark_problem):
        errs = []
        for nx, ny in ((33, 32), (65, 64)):
            fd = fd_solve(benchmark_problem, 8.0, nx, ny)
            ref = two_layer_reference(benchmark_problem, fd)
            errs.append(compare(fd, ref).linf)
        assert errs[1] <= 5e-4
        assert 3.5 <= errs[0] / errs[1] <= 5.0

    def test_commensurate_modes_share_one_period(self, benchmark_problem):
        # omega 1 and 1.5: the y span is 4 pi, the smallest common period
        trace = BoundaryTrace(dim=1, modes=(
            TraceMode(1.0, [1.0], [0.0]), TraceMode(1.5, [0.5], [0.3])))
        prob = TwoLayerProblem(benchmark_problem.a1, benchmark_problem.a2,
                               1.0, 3.0, 1.0, trace)
        assert fd_y_span(trace) == pytest.approx(4.0 * np.pi, rel=1e-15)
        errs = []
        for nx, ny in ((65, 100), (129, 200)):
            fd = fd_solve(prob, 8.0, nx, ny)
            assert fd.y_range[1] + fd.hy == pytest.approx(4.0 * np.pi)
            ref = two_layer_reference(prob, fd)
            errs.append(compare(fd, ref).linf)
        assert errs[1] <= 2e-4
        assert 3.5 <= errs[0] / errs[1] <= 5.0

    def test_incommensurate_modes_rejected(self):
        trace = BoundaryTrace(dim=1, modes=(
            TraceMode(1.0, [1.0], [0.0]), TraceMode(2.0 ** 0.5, [0.5], [0.0])))
        with pytest.raises(ValueError, match="not periodic"):
            fd_y_span(trace)

    def test_robin_against_mode_solution(self):
        prob = RobinProblem(eigendecompose(1.0), eigendecompose(-1.0),
                            cosine_trace(1.0, [1.0]))
        errs = []
        for nx, ny in ((17, 16), (33, 32)):
            fd = fd_solve(prob, 8.0, nx, ny)
            sol = robin_mode_solution(prob, 1.0, [1.0])
            ref = FieldGrid(fd.x_range, fd.y_range,
                            sol.values(fd.x_nodes, fd.y_nodes))
            errs.append(compare(fd, ref).linf)
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_zero_data_zero_field(self):
        a = eigendecompose(1.0)
        prob = TwoLayerProblem(a, a, 1.0, 1.0, 1.0, cosine_trace(1.0, [0.0]))
        fd = fd_solve(prob, 8.0, 17, 8)
        assert np.abs(fd.values).max() == 0.0

    @pytest.mark.parametrize("problem", ["benchmark", "robin"])
    def test_far_row_is_exact(self, benchmark_problem, scalar_robin_problem,
                              problem):
        # The far row is exact for the semi-infinite grid, so a strip just
        # past the interface holds the same discrete solution as a long one.
        prob = benchmark_problem if problem == "benchmark" \
            else scalar_robin_problem
        long = fd_solve(prob, 8.0, 129, 32)
        short = fd_solve(prob, 2.0, 33, 32)
        assert short.hx == pytest.approx(long.hx, rel=1e-15)
        assert np.abs(short.values - long.values[:33]).max() <= 1e-13

    def test_mode_traces_only(self):
        a = eigendecompose(1.0)
        y = np.linspace(-10, 10, 21)
        tr = BoundaryTrace(dim=1, samples=(y, np.exp(-y * y)[:, None]))
        prob = TwoLayerProblem(a, a, 1.0, 1.0, 1.0, tr)
        with pytest.raises(ValueError):
            fd_solve(prob, 8.0, 17, 8)

    def test_interface_must_be_a_node(self, benchmark_problem):
        with pytest.raises(ValueError):
            fd_solve(benchmark_problem, 8.0, 18, 8)

    @pytest.mark.parametrize("case", sorted(_fd_row_cases()))
    def test_solution_satisfies_documented_rows(self, case):
        problem, x_max, nx, ny = _fd_row_cases()[case]
        fd = fd_solve(problem, x_max, nx, ny)
        residuals = fd_row_residuals(problem, fd)
        assert set(residuals) >= {"laplace", "far"}
        for name, rel in residuals.items():
            assert rel <= 1e-10, (name, rel)

    @pytest.mark.parametrize("case", sorted(_direct_solve_cases()))
    def test_matches_direct_real_space_solve(self, case):
        problem, x_max, nx, ny = _direct_solve_cases()[case]
        fd = fd_solve(problem, x_max, nx, ny)
        ref = direct_fd_solve(problem, x_max, nx, ny)
        assert fd.values.shape == ref.shape == (nx, ny, problem.dim)
        assert np.abs(fd.values - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("nx, ny", [(17, 1), (17, 0), (2, 8)])
    def test_degenerate_grid_rejected_up_front(self, scalar_robin_problem,
                                               nx, ny):
        with pytest.raises(ValueError, match="nx >= 3 and ny >= 2"):
            fd_solve(scalar_robin_problem, 8.0, nx, ny)

    def test_vector_problem_matches_scalar_runs(self):
        a1 = eigendecompose(np.diag([1.0, 1.0]))
        a2 = eigendecompose(np.diag([2.0, 2.0]))
        tr = cosine_trace(1.0, [1.0, 0.5])
        prob = TwoLayerProblem(a1, a2, 1.0, 3.0, 1.0, tr)
        fd = fd_solve(prob, 8.0, 17, 16)
        scalar = TwoLayerProblem(eigendecompose(1.0), eigendecompose(2.0),
                                 1.0, 3.0, 1.0, cosine_trace(1.0, [1.0]))
        fds = fd_solve(scalar, 8.0, 17, 16)
        assert np.abs(fd.values[:, :, 0] - fds.values[:, :, 0]).max() <= 1e-10
        assert np.abs(fd.values[:, :, 1] - 0.5 * fds.values[:, :, 0]).max() <= 1e-10


class TestCompare:
    def test_identical_is_zero(self):
        g = FieldGrid((0, 1), (0, 1), np.random.default_rng(0).random((4, 4, 2)))
        m = compare(g, g)
        assert m.linf == 0.0 and m.l2 == 0.0

    def test_shifted_by_epsilon(self):
        vals = np.zeros((4, 4, 1))
        a = FieldGrid((0, 1), (0, 1), vals)
        b = FieldGrid((0, 1), (0, 1), vals + 1e-3)
        assert compare(a, b).linf == pytest.approx(1e-3)

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        grids = [FieldGrid((0, 1), (0, 1), rng.random((3, 3, 2)))
                 for _ in range(3)]
        for m in ("linf", "l2"):
            dab = getattr(compare(grids[0], grids[1]), m)
            dba = getattr(compare(grids[1], grids[0]), m)
            dac = getattr(compare(grids[0], grids[2]), m)
            dcb = getattr(compare(grids[2], grids[1]), m)
            assert dab == pytest.approx(dba)
            assert dab <= dac + dcb + 1e-15

    def test_mismatch_rejected(self):
        a = FieldGrid((0, 1), (0, 1), np.zeros((4, 4, 1)))
        b = FieldGrid((0, 2), (0, 1), np.zeros((4, 4, 1)))
        with pytest.raises(GridMismatchError):
            compare(a, b)
        c = FieldGrid((0, 1), (0, 1), np.zeros((5, 4, 1)))
        with pytest.raises(GridMismatchError):
            compare(a, c)


class TestResidualReport:
    def test_zero_field_zero_data(self):
        a = eigendecompose(1.0)
        prob = TwoLayerProblem(a, a, 1.0, 1.0, 1.0, cosine_trace(1.0, [0.0]))
        z1 = FieldGrid((0.0, 1.0), (0, 1), np.zeros((5, 5, 1)), 1.0)
        z2 = FieldGrid((1.0, 3.0), (0, 1), np.zeros((5, 5, 1)), 1.0)
        rep = residual_report((z1, z2), prob)
        assert rep.pde_residual_linf == 0.0
        assert rep.boundary_residual_linf == 0.0
        assert rep.interface_value_gap == 0.0
        assert rep.interface_flux_gap == 0.0

    def test_exact_solution_residual_refines(self, benchmark_problem):
        reps = []
        for nx in (23, 45):
            grid_y = np.linspace(-2, 2, nx)
            g1x = np.linspace(0, 1, nx)
            g2x = np.linspace(1, 3, nx)
            v1 = mode_match_reference(benchmark_problem, g1x, grid_y, 1)
            v2 = mode_match_reference(benchmark_problem, g2x, grid_y, 2)
            f1 = FieldGrid((0, 1), (-2, 2), v1, 1.0)
            f2 = FieldGrid((1, 3), (-2, 2), v2, 1.0)
            reps.append(residual_report((f1, f2), benchmark_problem))
        assert 3.4 <= reps[0].pde_residual_linf / reps[1].pde_residual_linf <= 4.6
        # the flux-gap stencil superconverges here (leading error terms of
        # the two one-sided derivatives cancel), so only require order >= 2
        assert reps[0].interface_flux_gap / reps[1].interface_flux_gap >= 3.4

    def test_calibrated_vs_literal_flux_gap(self, benchmark_problem):
        grid = GridSpec((0.0, 3.0), (-2.0, 2.0), 43, 21)
        for mode, expect_small in ((CAL, True), (LIT, False)):
            f1, f2, _ = solve_two_layer(benchmark_problem, grid, mode,
                                        series_tol=1e-12)
            rep = residual_report((f1, f2), benchmark_problem, mode)
            if expect_small:
                assert rep.interface_flux_gap <= 5e-3   # one-sided stencil error
            else:
                assert rep.interface_flux_gap > 0.1

    def test_two_layer_grid_off_x_0_has_no_dirichlet_residual(
            self, benchmark_problem):
        ys = np.linspace(-2, 2, 9)
        fields = [FieldGrid((x0, x1), (-2, 2),
                            mode_match_reference(benchmark_problem,
                                                 np.linspace(x0, x1, 9),
                                                 ys, layer), 1.0)
                  for layer, (x0, x1) in ((1, (0.5, 1.0)), (2, (1.0, 3.0)))]
        rep = residual_report(tuple(fields), benchmark_problem)
        assert rep.boundary_residual_linf is None
        assert set(rep.as_dict()) == {"pde_residual_linf",
                                      "interface_value_gap",
                                      "interface_flux_gap"}

    def test_robin_report(self, scalar_robin_problem):
        from layerfield.transmute import solve_robin
        grid = GridSpec((0.0, 2.0), (-2.0, 2.0), 33, 17)
        field, _ = solve_robin(scalar_robin_problem, grid, CAL)
        rep = residual_report(field, scalar_robin_problem, CAL)
        assert rep.boundary_residual_linf <= 5e-3      # one-sided stencil error
        rep_wrong = residual_report(field, scalar_robin_problem, LIT)
        assert rep_wrong.boundary_residual_linf > 0.5  # field obeys +f, not -f
