import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from conftest import benchmark_layer1_closed_form, benchmark_layer2_closed_form
from layerfield.basefield import (
    BoundaryTrace,
    GridSpec,
    TraceMode,
    cosine_trace,
    extension_values,
    laplace_residual_linf,
)
from layerfield.errors import (
    NonCommutingError,
    SeriesDivergingWarning,
    SharedBasisRequiredError,
    SingularMatrixError,
    SpectrumViolationError,
)
from layerfield.oracle import mode_match_reference, robin_mode_solution
from layerfield.spectral import eigendecompose
from layerfield.transmute import (
    ConventionMode,
    RobinProblem,
    TwoLayerProblem,
    apply_operator,
    approximation_operators,
    build_layer_operators,
    contraction_matrix,
    order0_approximation,
    order1_approximation,
    reflection_coefficient,
    robin_values,
    solve_robin,
    solve_two_layer,
    split_grid_at_interface,
    two_layer_values,
)
from layerfield.transmute import _robin_kernel

LIT = ConventionMode.LITERAL
CAL = ConventionMode.CALIBRATED

# A commuting, non-diagonal Robin pair: a = Q diag(1, 2) Q^{-1},
# h = Q diag(-1, -3) Q^{-1} with a non-orthogonal Q.
_Q = np.array([[1.0, 0.4], [-0.3, 1.0]])
_QINV = np.linalg.inv(_Q)
NONDIAG_A = _Q @ np.diag([1.0, 2.0]) @ _QINV
NONDIAG_H = _Q @ np.diag([-1.0, -3.0]) @ _QINV


class TestReflectionCoefficient:
    def test_homogeneous_limit(self):
        assert np.allclose(reflection_coefficient(np.eye(2)), 0.0)

    def test_scalar_value(self):
        assert reflection_coefficient(1.5)[0, 0] == pytest.approx(0.2)

    def test_diagonal_componentwise(self):
        out = reflection_coefficient(np.diag([1.5, 3.0]))
        assert np.allclose(out, np.diag([0.2, 0.5]), atol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            reflection_coefficient(-np.eye(2))

    def test_contraction_for_positive_spectrum(self):
        kappa = np.array([[1.2, 0.3], [0.1, 2.0]])
        out = reflection_coefficient(kappa)
        assert np.abs(np.linalg.eigvals(out)).max() < 1.0


class TestProblemValidation:
    def test_robin_spectrum_guards(self):
        tr = cosine_trace(1.0, [1.0])
        with pytest.raises(SpectrumViolationError):
            RobinProblem(eigendecompose(-1.0), eigendecompose(-1.0), tr)
        with pytest.raises(SpectrumViolationError):
            RobinProblem(eigendecompose(1.0), eigendecompose(1.0), tr)

    def test_robin_commutator_guard(self):
        tr = cosine_trace(1.0, [1.0, 1.0])
        a = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        h = eigendecompose(np.array([[-1.0, -0.5], [0.0, -2.0]]))
        with pytest.raises(NonCommutingError):
            RobinProblem(a, h, tr)

    def test_two_layer_guards(self):
        tr = cosine_trace(1.0, [1.0])
        a = eigendecompose(1.0)
        with pytest.raises(ValueError):
            TwoLayerProblem(a, a, -1.0, 1.0, 1.0, tr)
        with pytest.raises(ValueError):
            TwoLayerProblem(a, a, 1.0, 1.0, -0.5, tr)
        with pytest.raises(SpectrumViolationError):
            TwoLayerProblem(a, eigendecompose(-2.0), 1.0, 1.0, 1.0, tr)


class TestRobinTransform:
    def test_scalar_closed_form(self, scalar_robin_problem):
        # integral of e^{-eps} e^{-eps} halves the base field
        xs = np.linspace(0.0, 2.0, 7)
        ys = np.linspace(-3.0, 3.0, 7)
        vals, _ = robin_values(scalar_robin_problem, xs, ys, LIT)
        ref = 0.5 * np.exp(-xs)[:, None] * np.cos(ys)[None, :]
        assert np.abs(vals[:, :, 0] - ref).max() <= 1e-9

    def test_origin_value(self, scalar_robin_problem):
        vals, _ = robin_values(scalar_robin_problem, [0.0], [0.0], LIT)
        assert vals[0, 0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_calibrated_is_negated_literal(self, scalar_robin_problem):
        xs, ys = [0.3, 1.2], [0.0, 0.7]
        lit, _ = robin_values(scalar_robin_problem, xs, ys, LIT)
        cal, _ = robin_values(scalar_robin_problem, xs, ys, CAL)
        assert np.allclose(cal, -lit)

    def test_zero_data_zero_field(self):
        prob = RobinProblem(eigendecompose(1.0), eigendecompose(-1.0),
                            cosine_trace(1.0, [0.0]))
        vals, _ = robin_values(prob, [0.0, 0.5], [0.0, 1.0], LIT)
        assert np.abs(vals).max() == 0.0

    def test_boundary_identity_both_modes(self, scalar_robin_problem):
        ys = np.linspace(-np.pi, np.pi, 21)
        d = 1e-3
        f = np.cos(ys)[:, None]
        for mode, sign in ((LIT, -1.0), (CAL, 1.0)):
            u, _ = robin_values(scalar_robin_problem, [0.0, d, 2 * d], ys, mode)
            dux = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * d)
            resid = -u[0] + dux - sign * f
            assert np.abs(resid).max() <= 1e-5

    def test_vector_decoupling(self):
        tr2 = cosine_trace(1.0, [1.0, 1.0])
        prob = RobinProblem(eigendecompose(np.diag([1.0, 2.0])),
                            eigendecompose(np.diag([-1.0, -3.0])), tr2)
        xs = np.linspace(0, 2, 5)
        ys = np.linspace(-2, 2, 5)
        uv, _ = robin_values(prob, xs, ys, CAL)
        tr1 = cosine_trace(1.0, [1.0])
        for k, (ak, hk) in enumerate(((1.0, -1.0), (2.0, -3.0))):
            sk, _ = robin_values(
                RobinProblem(eigendecompose(ak), eigendecompose(hk), tr1),
                xs, ys, CAL)
            assert np.abs(uv[:, :, k] - sk[:, :, 0]).max() <= 1e-8

    def test_kernel_quadrature_against_resolvent(self):
        # closed form (omega I - ah)^{-1} (I - e^{(ah - omega I) E}) against
        # an independent quadrature of e^{-omega eps} expm(ah eps)
        ah = NONDIAG_A @ NONDIAG_H
        eps_hi = 20.0
        for omega in (0.0, 1.0, 7.0):
            ref, _ = quad_vec(
                lambda eps: np.exp(-omega * eps) * expm(ah * eps),
                0.0, eps_hi, epsabs=1e-13, epsrel=1e-13)
            got = _robin_kernel(eigendecompose(ah), omega, eps_hi)
            assert np.abs(got - ref).max() <= 1e-11

    @pytest.mark.parametrize("mode, sign", [(LIT, -1.0), (CAL, 1.0)])
    def test_nondiagonal_pair_against_mode_solution(self, mode, sign):
        # literal output is minus the exact solution of h u + u_x = f
        modes = (TraceMode(1.0, [1.0, -0.5], [0.0, 0.0]),
                 TraceMode(2.5, [0.3, 0.2], [-0.7, 0.4]))
        prob = RobinProblem(eigendecompose(NONDIAG_A),
                            eigendecompose(NONDIAG_H),
                            BoundaryTrace(dim=2, modes=modes))
        xs = np.linspace(0.0, 3.0, 7)
        ys = np.linspace(-2.0, 2.0, 9)
        for dx_order in (0, 1):
            ref = sum(robin_mode_solution(prob, m.omega, amp, trig).values(
                          xs, ys, dx_order)
                      for m in modes
                      for amp, trig in ((m.cos_amp, "cos"), (m.sin_amp, "sin")))
            got, err = robin_values(prob, xs, ys, mode, quad_tol=1e-12,
                                    dx_order=dx_order)
            assert np.abs(got - sign * ref).max() <= 1e-10
            assert err == 0.0

    def test_interior_pde_residual_refines(self, scalar_robin_problem):
        res = []
        for nx in (17, 33):
            grid = GridSpec((0.0, 2.0), (-2.0, 2.0), nx, nx)
            field, _ = solve_robin(scalar_robin_problem, grid, CAL)
            res.append(laplace_residual_linf(field,
                                             scalar_robin_problem.a.entries))
        assert 3.4 <= res[0] / res[1] <= 4.6

    def test_report_fields(self, scalar_robin_problem):
        grid = GridSpec((0.0, 2.0), (-2.0, 2.0), 9, 9)
        _, rep = solve_robin(scalar_robin_problem, grid, CAL)
        assert rep.boundary_residual_linf <= 1e-8   # analytic derivative path
        assert rep.quadrature_error <= 1e-9
        assert rep.series_terms_used == 0

    def test_mixed_trace_is_additive(self):
        # a trace with modes and samples solves to the sum of the parts
        a, h = eigendecompose(1.0), eigendecompose(-1.0)
        ysamp = np.linspace(-30.0, 30.0, 601)
        samples = (ysamp, np.exp(-ysamp * ysamp / 4.0)[:, None])
        mixed = BoundaryTrace(dim=1,
                              modes=(TraceMode(1.0, [0.7], [0.0]),),
                              samples=samples)
        onlym = cosine_trace(1.0, [0.7])
        onlys = BoundaryTrace(dim=1, samples=samples)
        xs, ys = [0.6], [0.2]
        vmix, _ = robin_values(RobinProblem(a, h, mixed), xs, ys, LIT)
        vm, _ = robin_values(RobinProblem(a, h, onlym), xs, ys, LIT)
        vs, _ = robin_values(RobinProblem(a, h, onlys), xs, ys, LIT)
        assert vmix[0, 0, 0] == pytest.approx(vm[0, 0, 0] + vs[0, 0, 0],
                                              abs=1e-10)

    def test_sampled_trace_path(self):
        # Robin with sampled boundary data agrees with the mode path when
        # the samples resolve the same cosine
        t = np.linspace(-400.0, 400.0, 200_001)
        tr_s = BoundaryTrace(dim=1, samples=(t, np.cos(t)[:, None]))
        tr_m = cosine_trace(1.0, [1.0])
        a, h = eigendecompose(1.0), eigendecompose(-1.0)
        xs, ys = [0.5], [0.25]
        vs, _ = robin_values(RobinProblem(a, h, tr_s), xs, ys, LIT,
                             quad_tol=1e-8)
        vm, _ = robin_values(RobinProblem(a, h, tr_m), xs, ys, LIT)
        assert vs[0, 0, 0] == pytest.approx(vm[0, 0, 0], abs=5e-5)


class TestApplyOperator:
    @pytest.mark.parametrize("dx_order", [0, 1])
    def test_against_per_term_extension(self, dx_order):
        # sum_k M_k alpha_k^d g^(d)(alpha_k x + beta_k, y) over an image
        # series with reflection terms, for a trace mixing modes (one of
        # them omega = 0) and samples. a1 is scalar so that every term's
        # argument stays >= 0 on layer 1, as the sampled part requires.
        a1 = eigendecompose(1.5 * np.eye(2))
        a2 = eigendecompose(_Q @ np.diag([3.0, 0.7]) @ _QINV)
        ysamp = np.linspace(-6.0, 6.0, 25)
        samples = (ysamp, np.stack([np.exp(-ysamp ** 2),
                                    1.0 / (1.0 + ysamp ** 2)], axis=1))
        trace = BoundaryTrace(dim=2, modes=(
            TraceMode(0.0, [0.4, -0.2], [0.0, 0.0]),
            TraceMode(1.0, [1.0, 0.5], [-0.3, 0.8])), samples=samples)
        prob = TwoLayerProblem(a1, a2, 1.0, 3.0, 1.0, trace)
        op = build_layer_operators(prob, CAL, series_tol=0.0, j_max=2).layer1
        assert any(t.arg_scale < 0.0 for t in op.terms)
        xs = np.linspace(0.1, 1.0, 5)
        ys = np.linspace(-2.0, 2.0, 7)
        ref = sum(alpha ** dx_order * np.einsum(
                      "ij,xyj->xyi", m,
                      extension_values(trace, alpha * xs + beta, ys,
                                       dx_order=dx_order))
                  for m, alpha, beta in op.terms)
        got = apply_operator(op, trace, xs, ys, dx_order=dx_order)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestTwoLayerTransform:
    def test_benchmark_closed_form(self, benchmark_problem):
        xs = np.linspace(0.0, 1.0, 6)
        ys = np.linspace(-2.0, 2.0, 5)
        got = two_layer_values(benchmark_problem, 1, xs, ys, CAL,
                               series_tol=1e-12)
        ref = benchmark_layer1_closed_form(xs[:, None], ys[None, :])
        assert np.abs(got[:, :, 0] - ref).max() <= 1e-10
        xs2 = np.linspace(1.0, 3.0, 6)
        got2 = two_layer_values(benchmark_problem, 2, xs2, ys, CAL,
                                series_tol=1e-12)
        ref2 = benchmark_layer2_closed_form(xs2[:, None], ys[None, :])
        assert np.abs(got2[:, :, 0] - ref2).max() <= 1e-10

    def test_benchmark_spot_value(self, benchmark_problem):
        got = two_layer_values(benchmark_problem, 1, [1.0], [0.0], CAL,
                               series_tol=1e-12)[0, 0, 0]
        assert got == pytest.approx(0.302490, abs=1e-5)

    def test_dirichlet_recovery_any_contraction(self, benchmark_problem):
        ys = np.linspace(-np.pi, np.pi, 21)
        for mode in (LIT, CAL):
            u0 = two_layer_values(benchmark_problem, 1, [0.0], ys, mode,
                                  series_tol=1e-12)[0, :, 0]
            assert np.abs(u0 - np.cos(ys)).max() <= 1e-8

    def test_value_continuity_any_contraction(self, benchmark_problem):
        ys = np.linspace(-np.pi, np.pi, 21)
        for mode in (LIT, CAL):
            u1 = two_layer_values(benchmark_problem, 1, [1.0], ys, mode,
                                  series_tol=1e-12)
            u2 = two_layer_values(benchmark_problem, 2, [1.0], ys, mode,
                                  series_tol=1e-12)
            assert np.abs(u1 - u2).max() <= 1e-8

    def test_flux_continuity_calibrated_only(self, benchmark_problem):
        grid = GridSpec((0.0, 3.0), (-np.pi, np.pi), 22, 15)
        _, _, rep_cal = solve_two_layer(benchmark_problem, grid, CAL,
                                        series_tol=1e-12)
        _, _, rep_lit = solve_two_layer(benchmark_problem, grid, LIT,
                                        series_tol=1e-12)
        assert rep_cal.interface_flux_gap <= 1e-5
        assert rep_lit.interface_flux_gap > 0.1

    def test_homogeneous_degeneration_matrix(self):
        a = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        tr = BoundaryTrace(dim=2, modes=(TraceMode(1.0, [1.0, 0.5], [0.0, 0.2]),))
        prob = TwoLayerProblem(a, a, 2.0, 2.0, 1.0, tr)
        grid = GridSpec((0.0, 3.0), (-np.pi, np.pi), 31, 17)
        f1, f2, _ = solve_two_layer(prob, grid, CAL)
        # reference: utilde(a^{-1} x, y) per eigencomponent
        for fld in (f1, f2):
            ref = np.zeros_like(fld.values)
            for i in range(2):
                lam = a.eigenvalues[i]
                ext = extension_values(tr, fld.x_nodes / lam, fld.y_nodes)
                ref += np.einsum("ij,xyj->xyi", a.projector(i), ext)
            assert np.abs(fld.values - ref).max() <= 1e-10

    def test_literal_homogeneous_mismatch_is_reported(self):
        a = eigendecompose(1.0)
        prob = TwoLayerProblem(a, a, 2.0, 2.0, 1.0, cosine_trace(1.0, [1.0]))
        grid = GridSpec((0.0, 2.0), (-1.0, 1.0), 11, 5)
        f1, _, _ = solve_two_layer(prob, grid, LIT, series_tol=1e-12)
        ref = extension_values(prob.trace, f1.x_nodes, f1.y_nodes)
        assert np.abs(f1.values - ref).max() > 0.1

    def test_calibrated_requires_shared_basis(self):
        a1 = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        a2 = eigendecompose(np.array([[3.0, 0.0], [1.0, 1.0]]))
        tr = cosine_trace(1.0, [1.0, 1.0])
        prob = TwoLayerProblem(a1, a2, 1.0, 2.0, 1.0, tr)
        with pytest.raises(SharedBasisRequiredError):
            contraction_matrix(prob, CAL)
        # literal mode has no such restriction
        assert contraction_matrix(prob, LIT).shape == (2, 2)

    def test_diverging_series_warns(self):
        a1, a2 = eigendecompose(1.0), eigendecompose(2.0)
        prob = TwoLayerProblem(a1, a2, 1.0, 20.0, 1.0,
                               cosine_trace(0.05, [1.0]))
        grid = GridSpec((0.0, 2.0), (-1.0, 1.0), 9, 5)
        with pytest.warns(SeriesDivergingWarning):
            solve_two_layer(prob, grid, LIT, series_tol=1e-10, j_max=8)

    def test_series_stopped_by_j_max_warns(self, benchmark_problem):
        with pytest.warns(SeriesDivergingWarning, match="j_max=2"):
            build_layer_operators(benchmark_problem, CAL, series_tol=1e-10,
                                  j_max=2)

    def test_order_sweep_without_tolerance_is_silent(self, benchmark_problem):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = build_layer_operators(benchmark_problem, CAL,
                                           series_tol=0.0, j_max=2)
        assert series.orders_used == 3

    def test_interior_pde_residual_refines(self, benchmark_problem):
        res = []
        for nx in (23, 45):
            grid = GridSpec((0.0, 3.0), (-2.0, 2.0), nx, nx)
            f1, f2, _ = solve_two_layer(benchmark_problem, grid, CAL,
                                        series_tol=1e-12)
            res.append(max(laplace_residual_linf(f1, np.array([[1.0]])),
                           laplace_residual_linf(f2, np.array([[2.0]]))))
        assert 3.4 <= res[0] / res[1] <= 4.6

    def test_split_grid(self):
        grid = GridSpec((0.0, 3.0), (0.0, 1.0), 64, 8)
        g1, g2 = split_grid_at_interface(grid, 1.0)
        assert g1.nx == 22 and g2.nx == 43
        assert g1.x_range == (0.0, 1.0) and g2.x_range == (1.0, 3.0)
        assert g1.x_nodes[-1] == g2.x_nodes[0] == 1.0
        with pytest.raises(ValueError):
            split_grid_at_interface(grid, 3.5)


class TestLowOrderApproximations:
    def test_order0_scalar_composition(self, benchmark_problem):
        # u1 = utilde(x/a1), u2 = utilde((x-l)/a2 + l/a1)
        grid = GridSpec((0.0, 3.0), (-1.0, 1.0), 22, 9)
        f1, f2 = order0_approximation(benchmark_problem, grid)
        r1 = np.exp(-f1.x_nodes)[:, None] * np.cos(f1.y_nodes)[None, :]
        r2 = (np.exp(-((f2.x_nodes - 1.0) / 2.0 + 1.0))[:, None]
              * np.cos(f2.y_nodes)[None, :])
        assert np.abs(f1.values[:, :, 0] - r1).max() <= 1e-14
        assert np.abs(f2.values[:, :, 0] - r2).max() <= 1e-14

    def test_order0_boundary_and_interface(self, benchmark_problem):
        grid = GridSpec((0.0, 3.0), (-1.0, 1.0), 22, 9)
        f1, f2 = order0_approximation(benchmark_problem, grid)
        assert np.abs(f1.values[0, :, 0] - np.cos(f1.y_nodes)).max() <= 1e-14
        assert np.abs(f1.values[-1] - f2.values[0]).max() <= 1e-14

    def test_order1_adds_single_reflection_terms(self, benchmark_problem):
        op1, _ = approximation_operators(benchmark_problem, 1, CAL)
        # scalar expansion: g(x) + 0.2 g(x+2) - 0.2 g(2-x)
        expected = {(1.0, 0.0): 1.0, (1.0, 2.0): 0.2, (-1.0, 2.0): -0.2}
        assert len(op1.terms) == 3
        for t in op1.terms:
            assert t.weight[0, 0] == pytest.approx(
                expected[(t.arg_scale, t.arg_shift)])

    def test_order1_equals_order0_for_zero_contraction(self):
        a = eigendecompose(1.5)
        prob = TwoLayerProblem(a, a, 2.0, 2.0, 1.0, cosine_trace(1.0, [1.0]))
        grid = GridSpec((0.0, 2.0), (-1.0, 1.0), 11, 7)
        f0 = order0_approximation(prob, grid)
        f1 = order1_approximation(prob, grid, CAL)
        for k in range(2):
            assert np.abs(f0[k].values - f1[k].values).max() <= 1e-15

    def test_error_ordering(self, benchmark_problem):
        grid = GridSpec((0.0, 3.0), (-np.pi, np.pi), 22, 15)
        full = solve_two_layer(benchmark_problem, grid, CAL,
                               series_tol=1e-12)[:2]
        o0 = order0_approximation(benchmark_problem, grid)
        o1 = order1_approximation(benchmark_problem, grid, CAL)
        e0 = max(np.abs(o0[k].values - full[k].values).max() for k in range(2))
        e1 = max(np.abs(o1[k].values - full[k].values).max() for k in range(2))
        assert e0 > e1 > 0.0


class TestSeriesTruncation:
    def test_vector_series_stops_on_the_error_bound(self):
        # n = 3, diagonal a1, a2: the weight norm alone would run all 65
        # orders; the e^{-omega s} decay of the arguments ends it early
        a1 = eigendecompose(np.diag([1.0, 1.5, 2.0]))
        a2 = eigendecompose(np.diag([2.0, 3.0, 0.7]))
        prob = TwoLayerProblem(a1, a2, 1.0, 3.0, 1.0,
                               cosine_trace(1.0, [1.0, -0.5, 0.8]))
        series = build_layer_operators(prob, CAL, series_tol=1e-12)
        assert series.orders_used <= 26
        assert series.last_term_norm < 1e-12
        ys = np.linspace(0.0, 2.0 * np.pi, 9)
        for layer, xs in ((1, np.linspace(0.0, 1.0, 7)),
                          (2, np.linspace(1.0, 3.0, 7))):
            got = two_layer_values(prob, layer, xs, ys, CAL,
                                   series_tol=1e-12)
            ref = mode_match_reference(prob, xs, ys, layer)
            assert np.abs(got - ref).max() <= 1e-12

    def test_sampled_trace_keeps_weight_norm_stop(self):
        # a sampled trace has a constant envelope, so the bound of a term
        # is its weight norm and the stop order and bound stay as they were
        ys = np.linspace(-10.0, 10.0, 41)
        trace = BoundaryTrace(dim=2, samples=(ys, np.stack(
            [np.exp(-0.5 * ys ** 2), 1.0 / (1.0 + ys ** 2)], axis=1)))
        prob = TwoLayerProblem(eigendecompose(np.diag([1.0, 2.0])),
                               eigendecompose(np.diag([3.0, 0.7])),
                               1.0, 1.0, 1.0, trace)
        series = build_layer_operators(prob, CAL, series_tol=1e-10)
        assert series.orders_used == 37
        assert series.last_term_norm == pytest.approx(5.113563495919272e-11,
                                                      rel=1e-14)
        assert (len(series.layer1.terms), len(series.layer2.terms)) \
            == (148, 74)

    def test_nondiagonal_sampled_solve_matches_eigenbasis(self):
        # a1, a2 share the non-diagonal eigenbasis Q. A product of two of
        # a1's projectors is round-off with a layer-1 argument that can be
        # negative, where the sampled extension is undefined.
        ys = np.linspace(-10.0, 10.0, 41)
        g = np.stack([np.exp(-ys ** 2), 0.5 * np.exp(-(ys - 1.0) ** 2)],
                     axis=1)
        grid = GridSpec((0.0, 3.0), (-3.0, 3.0), 9, 9)

        def solve(a1, a2, values):
            prob = TwoLayerProblem(eigendecompose(a1), eigendecompose(a2),
                                   1.0, 3.0, 1.0,
                                   BoundaryTrace(dim=2, samples=(ys, values)))
            # chi has an eigenvalue of about 0.79, so j_max = 64 ends the
            # series with a bound of about 6e-7
            with pytest.warns(SeriesDivergingWarning):
                series = build_layer_operators(prob, CAL)
            with pytest.warns(SeriesDivergingWarning):
                f1, f2, _ = solve_two_layer(prob, grid, CAL)
            o1, o2 = order1_approximation(prob, grid, CAL)
            return series, [f.values for f in (f1, f2, o1, o2)]

        series, fields = solve(_Q @ np.diag([1.0, 2.0]) @ _QINV,
                               _Q @ np.diag([3.0, 0.7]) @ _QINV, g @ _Q.T)
        for t in series.layer1.terms:
            assert t.arg_shift + min(0.0, t.arg_scale * 1.0) >= 0.0
        _, eigen_fields = solve(np.diag([1.0, 2.0]), np.diag([3.0, 0.7]), g)
        for u, e in zip(fields, eigen_fields):
            assert np.abs(u - e @ _Q.T).max() <= 1e-12
