"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); every
tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import benchmark_layer1_closed_form
from layerfield.basefield import (
    BoundaryTrace,
    FieldGrid,
    GridSpec,
    TraceMode,
    cosine_trace,
    extension_values,
)
from layerfield.cli import parse_config, run_verify
from layerfield.errors import DefectiveMatrixError
from layerfield.opalgebra import TermSumOperator, image_series, term
from layerfield.oracle import (
    compare,
    fd_solve,
    mode_match_reference,
    mode_match_two_layer,
)
from layerfield.spectral import (
    apply_scalar_fn,
    eigendecompose,
    matrix_exp,
)
from layerfield.transmute import (
    ConventionMode,
    RobinProblem,
    TwoLayerProblem,
    approximation_operators,
    build_layer_operators,
    order0_approximation,
    order1_approximation,
    robin_values,
    solve_two_layer,
    two_layer_values,
)
from test_spectral import expm_series, random_diagonalizable

LIT = ConventionMode.LITERAL
CAL = ConventionMode.CALIBRATED


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {desc}")


def robin_boundary_residual(problem, mode, sign, quad_tol=1e-9, step=1e-3):
    ys = np.linspace(-np.pi, np.pi, 41)
    u, _ = robin_values(problem, [0.0, step, 2 * step], ys, mode,
                        quad_tol=quad_tol)
    dux = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * step)
    f = np.cos(ys)[:, None]
    lhs = u[0] @ problem.h.entries.T + dux
    return np.abs(lhs - sign * f).max()


def test_criterion_1_robin_boundary_identity(scalar_robin_problem):
    with criterion(1, "Robin boundary identity, both conventions, and the "
                      "closed-form origin value"):
        assert robin_boundary_residual(scalar_robin_problem, LIT, -1.0) <= 1e-5
        assert robin_boundary_residual(scalar_robin_problem, CAL, +1.0) <= 1e-5
        origin, _ = robin_values(scalar_robin_problem, [0.0], [0.0], LIT)
        assert origin[0, 0, 0] == pytest.approx(0.5, abs=1e-6)


def test_criterion_2_robin_vector_decoupling():
    with criterion(2, "diagonal vector Robin problem matches independent "
                      "scalar runs to 1e-8"):
        tr2 = cosine_trace(1.0, [1.0, 1.0])
        prob = RobinProblem(eigendecompose(np.diag([1.0, 2.0])),
                            eigendecompose(np.diag([-1.0, -3.0])), tr2)
        xs = np.linspace(0.0, 2.0, 9)
        ys = np.linspace(-np.pi, np.pi, 9)
        vec, _ = robin_values(prob, xs, ys, LIT)
        tr1 = cosine_trace(1.0, [1.0])
        for k, (ak, hk) in enumerate(((1.0, -1.0), (2.0, -3.0))):
            scal, _ = robin_values(
                RobinProblem(eigendecompose(ak), eigendecompose(hk), tr1),
                xs, ys, LIT)
            assert np.abs(vec[:, :, k] - scal[:, :, 0]).max() <= 1e-8


def test_criterion_3_two_layer_benchmark(benchmark_problem):
    with criterion(3, "benchmark series vs mode-matching oracle: sup over "
                      "64x64 grid <= 1e-8, spot value 0.302490 +- 1e-5"):
        grid = GridSpec((0.0, 3.0), (-np.pi, np.pi), 64, 64)
        f1, f2, _ = solve_two_layer(benchmark_problem, grid, CAL,
                                    series_tol=1e-12)
        for layer, fld in ((1, f1), (2, f2)):
            ref = mode_match_reference(benchmark_problem, fld.x_nodes,
                                       fld.y_nodes, layer)
            assert np.abs(fld.values - ref).max() <= 1e-8
        spot = two_layer_values(benchmark_problem, 1, [1.0], [0.0], CAL,
                                series_tol=1e-12)[0, 0, 0]
        assert spot == pytest.approx(0.302490, abs=1e-5)
        oracle_spot = mode_match_two_layer(
            benchmark_problem, 1.0, [1.0]).layer1_values([1.0], [0.0])[0, 0, 0]
        assert spot == pytest.approx(oracle_spot, abs=1e-10)


def test_criterion_4_homogeneous_degeneration():
    a = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    tr = BoundaryTrace(dim=2,
                       modes=(TraceMode(1.0, [1.0, 0.5], [0.0, 0.2]),))
    prob = TwoLayerProblem(a, a, 2.0, 2.0, 1.0, tr)
    grid = GridSpec((0.0, 3.0), (-np.pi, np.pi), 31, 17)

    def base_composed(fld):
        ref = np.zeros_like(fld.values)
        for i in range(2):
            ext = extension_values(tr, fld.x_nodes / a.eigenvalues[i],
                                   fld.y_nodes)
            ref += np.einsum("ij,xyj->xyi", a.projector(i), ext)
        return ref

    with criterion(4, "homogeneous two-layer degenerates to the composed "
                      "base field (calibrated, sup <= 1e-10)"):
        gap_cal = 0.0
        for fld in solve_two_layer(prob, grid, CAL)[:2]:
            gap_cal = max(gap_cal,
                          np.abs(fld.values - base_composed(fld)).max())
        assert gap_cal <= 1e-10
        gap_lit = 0.0
        for fld in solve_two_layer(prob, grid, LIT, series_tol=1e-12)[:2]:
            gap_lit = max(gap_lit,
                          np.abs(fld.values - base_composed(fld)).max())
        print(f"    (literal-mode homogeneous discrepancy {gap_lit:.3e}, "
              "documented, not a failure)")


def test_criterion_5_series_invariants(benchmark_problem):
    with criterion(5, "Dirichlet recovery and value continuity <= 1e-8 for "
                      "both contractions; flux continuity <= 1e-5 calibrated"):
        ys = np.linspace(-np.pi, np.pi, 33)
        for mode in (LIT, CAL):
            u0 = two_layer_values(benchmark_problem, 1, [0.0], ys, mode,
                                  series_tol=1e-12)[0, :, 0]
            assert np.abs(u0 - np.cos(ys)).max() <= 1e-8
            u1 = two_layer_values(benchmark_problem, 1, [1.0], ys, mode,
                                  series_tol=1e-12)
            u2 = two_layer_values(benchmark_problem, 2, [1.0], ys, mode,
                                  series_tol=1e-12)
            assert np.abs(u1 - u2).max() <= 1e-8
        du1 = two_layer_values(benchmark_problem, 1, [1.0], ys, CAL,
                               series_tol=1e-12, dx_order=1)
        du2 = two_layer_values(benchmark_problem, 2, [1.0], ys, CAL,
                               series_tol=1e-12, dx_order=1)
        assert np.abs(1.0 * du1 - 3.0 * du2).max() <= 1e-5


def test_criterion_6_corollary_ordering(benchmark_problem):
    with criterion(6, "approximation errors order correctly and the first "
                      "order sits under the chi^2 tail bound"):
        grid = GridSpec((0.0, 3.0), (-np.pi, np.pi), 64, 64)
        full = solve_two_layer(benchmark_problem, grid, CAL,
                               series_tol=1e-12)[:2]
        o0 = order0_approximation(benchmark_problem, grid)
        o1 = order1_approximation(benchmark_problem, grid, CAL)
        e0 = max(np.abs(o0[k].values - full[k].values).max()
                 for k in range(2))
        e1 = max(np.abs(o1[k].values - full[k].values).max()
                 for k in range(2))
        assert e0 > e1 > 0.0
        # C measured from the series tail: total weight of the terms beyond
        # first order, times sup |f| (= 1), scaled by chi^2; each dropped
        # term is bounded by its weight norm times sup of the decaying
        # profile, so e1 <= chi^2 C must hold
        chi = 0.2
        series = build_layer_operators(benchmark_problem, CAL,
                                       series_tol=1e-12)
        op1, op2 = approximation_operators(benchmark_problem, 1, CAL)
        w_tail = max(sum(np.linalg.norm(t.weight)
                         for t in (series.layer1 - op1).merged().terms),
                     sum(np.linalg.norm(t.weight)
                         for t in (series.layer2 - op2).merged().terms))
        c_measured = w_tail * 1.0 / chi ** 2
        assert e1 <= chi ** 2 * c_measured


def test_criterion_7_fd_oracle_agreement(benchmark_problem):
    with criterion(7, "fd oracle: Richardson ratio in [3.5, 4.5] against the "
                      "truncated mode solution; calibrated series within 3x "
                      "the fd solve's measured error"):
        X = 8.0
        errs = []
        solves = []
        for nx, ny in ((65, 64), (129, 128)):
            fd = fd_solve(benchmark_problem, X, nx, ny)
            xs, ys = fd.x_nodes, fd.y_nodes
            mask1 = xs <= benchmark_problem.l
            ref = np.zeros_like(fd.values)
            for layer, mask in ((1, mask1), (2, ~mask1)):
                ref[mask] = mode_match_reference(
                    benchmark_problem, xs[mask], ys, layer, truncation_x=X)
            errs.append(compare(fd, FieldGrid(fd.x_range, fd.y_range, ref,
                                              fd.layer_boundary)).linf)
            solves.append(fd)
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5
        # measured discretization error of the finest solve as an
        # approximation of the half-plane problem (grid plus domain
        # truncation), from the half-plane mode-matching oracle
        fd = solves[-1]
        xs, ys = fd.x_nodes, fd.y_nodes
        mask1 = xs <= benchmark_problem.l
        halfplane = np.zeros_like(fd.values)
        series = np.zeros_like(fd.values)
        for layer, mask in ((1, mask1), (2, ~mask1)):
            halfplane[mask] = mode_match_reference(benchmark_problem,
                                                   xs[mask], ys, layer)
            series[mask] = two_layer_values(benchmark_problem, layer,
                                            xs[mask], ys, CAL,
                                            series_tol=1e-12)
        fd_err = np.abs(fd.values - halfplane).max()
        assert np.abs(series - fd.values).max() <= 3.0 * fd_err
        print(f"    (ratio {ratio:.2f}, fd error {fd_err:.2e})")


def test_criterion_8_operator_algebra():
    with criterion(8, "1000 randomized algebra checks at 1e-12 and the "
                      "scalar image expansion term-by-term through j=6"):
        rng = np.random.default_rng(2024)

        def rand_op(nterms):
            return TermSumOperator(2, [
                term(rng.uniform(-1, 1, (2, 2)),
                     rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0),
                     rng.uniform(-2.0, 2.0))
                for _ in range(nterms)])

        def rand_profile():
            c = rng.uniform(-1, 1, 2)
            w = rng.uniform(0.5, 1.5, 2)
            p = rng.uniform(0, 3, 2)
            return lambda x: np.sin(np.multiply.outer(
                np.asarray(x, float), w) + p) * c

        checks = 0
        for _ in range(400):                      # composition closure
            a, b = rand_op(2), rand_op(2)
            f = rand_profile()
            x = rng.uniform(-1, 1)
            nested = a.apply(lambda s: b.apply(f, s), x)
            assert np.abs(a.compose(b).apply(f, x) - nested).max() <= 1e-12
            checks += 1
        for _ in range(300):                      # associativity
            a, b, c = rand_op(2), rand_op(2), rand_op(2)
            lhs = a.compose(b).compose(c).merged()
            rhs = a.compose(b.compose(c)).merged()
            assert len(lhs.terms) == len(rhs.terms)
            for ta, tb in zip(lhs.terms, rhs.terms):
                assert abs(ta.arg_scale - tb.arg_scale) <= 1e-12
                assert abs(ta.arg_shift - tb.arg_shift) <= 1e-12
                assert np.abs(ta.weight - tb.weight).max() <= 1e-12
            checks += 1
        for _ in range(300):                      # linearity
            a = rand_op(3)
            f, g = rand_profile(), rand_profile()
            x = rng.uniform(-1, 1)
            both = a.apply(lambda s: f(s) + g(s), x)
            assert np.abs(both - a.apply(f, x) - a.apply(g, x)).max() <= 1e-12
            checks += 1
        assert checks == 1000

        # term-by-term image expansion, scalar benchmark coefficients
        chi, l, a1v, a2v = 0.2, 1.0, 1.0, 2.0
        s = image_series(eigendecompose(a1v), eigendecompose(a2v), chi, l,
                         j_max=6)
        exp1 = {}
        exp2 = {}
        for j in range(7):
            exp1[(1.0 / a1v, 2 * j * l / a1v)] = chi ** j
            exp1[(-1.0 / a1v, 2 * (j + 1) * l / a1v)] = -chi ** (j + 1)
            exp2[(1.0 / a2v, -l / a2v + (2 * j + 1) * l / a1v)] = \
                (1 - chi) * chi ** j
        for op, expected in ((s.layer1, exp1), (s.layer2, exp2)):
            assert len(op.terms) == len(expected)
            for t in op.terms:
                key = (t.arg_scale, t.arg_shift)
                match = [v for (ks, kb), v in expected.items()
                         if abs(ks - key[0]) <= 1e-12
                         and abs(kb - key[1]) <= 1e-12]
                assert len(match) == 1
                assert t.weight[0, 0] == pytest.approx(match[0], abs=1e-14)


def test_criterion_9_spectral_properties():
    with criterion(9, "spectral reconstruction, semigroup, functional "
                      "calculus, and defective-matrix rejection"):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a = random_diagonalizable(rng, 3)
            m = eigendecompose(a)
            resid = np.linalg.norm(
                (m.eigvecs * m.eigenvalues) @ m.eigvecs_inv - a)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(a))
            s, t = rng.uniform(-10, 10, 2)
            assert np.linalg.norm(matrix_exp(m, s + t)
                                  - matrix_exp(m, s) @ matrix_exp(m, t)) <= 1e-9
            c1, c2 = rng.uniform(-1, 1, (2, 3))
            g1 = lambda x: c1[0] + c1[1] * x + c1[2] * x * x
            g2 = lambda x: c2[0] + c2[1] * x + c2[2] * x * x
            assert np.linalg.norm(
                apply_scalar_fn(m, lambda x: g1(x) * g2(x))
                - apply_scalar_fn(m, g1) @ apply_scalar_fn(m, g2)) <= 1e-9
            tc = rng.uniform(-1, 1)
            assert np.linalg.norm(
                apply_scalar_fn(m, lambda x: np.exp(tc * x))
                - matrix_exp(m, tc)) <= 1e-11
        mpow = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.linalg.norm(matrix_exp(mpow, 0.3)
                              - expm_series(mpow.entries, 0.3)) <= 1e-12
        with pytest.raises(DefectiveMatrixError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI reruns are byte-identical and the exported CSV "
                       "reproduces the benchmark spot value"):
        raw = {
            "problem": {
                "kind": "two_layer",
                "a1": 1.0, "a2": 2.0, "lambda1": 1.0, "lambda2": 3.0,
                "l": 1.0,
                "trace": {"modes": [{"omega": 1.0, "cos_amp": 1.0}]},
            },
            "grid": {"x_range": [0.0, 3.0],
                     "y_range": [0.0, 6.283185307179586],
                     "nx": 64, "ny": 64},
            "solver": {"mode": "calibrated", "series_tol": 1e-12},
            "verify": {"fd_oracle": True, "mode_match_oracle": True,
                       "residual_report": True, "fd_nx": 33, "fd_ny": 32},
            "output": {"dir": str(tmp_path / "out")},
        }
        text = json.dumps(raw)
        names = ("layer1.csv", "layer2.csv", "report.json", "verify.json")
        assert run_verify(parse_config(text)) == 0
        first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
        assert run_verify(parse_config(text)) == 0
        for n in names:
            assert (tmp_path / "out" / n).read_bytes() == first[n]

        rows = (tmp_path / "out" / "layer1.csv").read_text().splitlines()
        assert rows[0] == "x,y,u1"
        spot = [r for r in rows[1:] if float(r.split(",")[0]) == 1.0
                and float(r.split(",")[1]) == 0.0]
        assert len(spot) == 1
        csv_value = float(spot[0].split(",")[2])
        assert csv_value == pytest.approx(0.302490, abs=1e-5)
        assert csv_value == pytest.approx(
            benchmark_layer1_closed_form(1.0, 0.0), abs=1e-10)
