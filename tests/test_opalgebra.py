import numpy as np
import pytest

from layerfield.errors import DimMismatchError, ZeroEigenvalueError
from layerfield.opalgebra import (
    TermSumOperator,
    contraction_op,
    identity_op,
    image_series,
    reflection_op,
    scaling_op,
    shift_op,
    term,
)
from layerfield.spectral import eigendecompose


def vec_profile(coeffs, freqs, phases):
    """Smooth vector test profile sum of sines; vectorized over x."""
    def f(x):
        x = np.asarray(x, dtype=float)
        vals = np.sin(np.multiply.outer(x, freqs) + phases) * coeffs
        return vals
    return f


def random_operator(rng, n, nterms):
    terms = [term(rng.uniform(-1, 1, (n, n)),
                  rng.choice([-1, 1]) * rng.uniform(0.3, 2.0),
                  rng.uniform(-2.0, 2.0))
             for _ in range(nterms)]
    return TermSumOperator(n, terms)


def term_sets_equal(a, b, tol=1e-12):
    am, bm = a.merged(), b.merged()
    if len(am.terms) != len(bm.terms):
        return False
    for ta, tb in zip(am.terms, bm.terms):
        if (abs(ta.arg_scale - tb.arg_scale) > tol
                or abs(ta.arg_shift - tb.arg_shift) > tol
                or np.abs(ta.weight - tb.weight).max() > tol):
            return False
    return True


class TestConstructors:
    def test_shift_scalar_reading(self):
        op = shift_op(eigendecompose(2.0), 1.0)
        (t,) = op.terms
        assert t.weight == pytest.approx(1.0)
        assert (t.arg_scale, t.arg_shift) == (1.0, 0.5)

    def test_shift_diagonal(self):
        op = shift_op(eigendecompose(np.diag([1.0, 2.0])), 1.0)
        expected = {(1.0, 1.0): np.diag([1.0, 0.0]),
                    (1.0, 0.5): np.diag([0.0, 1.0])}
        assert len(op.terms) == 2
        for t in op.terms:
            assert np.allclose(t.weight, expected[(t.arg_scale, t.arg_shift)])

    def test_shift_projector_weights_sum_to_identity(self):
        op = shift_op(eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]])), 1.0)
        total = sum(t.weight for t in op.terms)
        assert np.allclose(total, np.eye(2), atol=1e-12)
        shifts = sorted(t.arg_shift for t in op.terms)
        assert shifts == pytest.approx([1.0 / 3.0, 1.0])

    def test_shift_zero_eigenvalue(self):
        with pytest.raises(ZeroEigenvalueError):
            shift_op(eigendecompose(np.diag([0.0, 1.0])), 1.0)

    def test_contraction_identity_and_zero(self):
        f = vec_profile(np.array([1.0, 2.0]), np.array([1.0, 0.7]),
                        np.array([0.1, 0.2]))
        ident = contraction_op(np.eye(2))
        zero = contraction_op(np.zeros((2, 2)))
        x = 0.37
        assert np.allclose(ident.apply(f, x), f(x))
        assert np.allclose(zero.apply(f, x), 0.0)

    def test_contraction_scalar(self):
        (t,) = contraction_op(0.2).terms
        assert t.weight[0, 0] == pytest.approx(0.2)
        assert (t.arg_scale, t.arg_shift) == (1.0, 0.0)

    def test_reflection_reading(self):
        op = reflection_op(1.0, 1)
        f = vec_profile(np.array([1.0]), np.array([1.3]), np.array([0.4]))
        assert np.allclose(op.apply(f, 0.3), f(1.7))
        assert np.allclose(op.apply(f, 1.0), f(1.0))   # fixed point at l

    def test_reflection_involution(self):
        s = reflection_op(1.0, 2)
        assert term_sets_equal(s.compose(s), identity_op(2))

    def test_scaling_scalar_reading(self):
        (t,) = scaling_op(eigendecompose(2.0), 1.0).terms
        assert (t.arg_scale, t.arg_shift) == (0.5, -0.5)

    def test_scaling_identity_no_shift(self):
        op = scaling_op(eigendecompose(np.eye(2)), 0.0)
        assert term_sets_equal(op, identity_op(2))

    def test_scaling_diagonal(self):
        op = scaling_op(eigendecompose(np.diag([1.0, 2.0])), 1.0)
        expected = {(1.0, -1.0): np.diag([1.0, 0.0]),
                    (0.5, -0.5): np.diag([0.0, 1.0])}
        for t in op.terms:
            assert np.allclose(t.weight, expected[(t.arg_scale, t.arg_shift)])


class TestComposeMerge:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(3)
        b = random_operator(rng, 2, 4)
        assert term_sets_equal(identity_op(2).compose(b), b)

    def test_scalar_shift_addition(self):
        a = TermSumOperator(1, [term([[1.0]], 1.0, 0.5)])
        c = a.compose(a).merged()
        (t,) = c.terms
        assert (t.arg_scale, t.arg_shift) == (1.0, 1.0)

    def test_affine_composition_closed_form(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-1, 1, (2, 2))
        nmat = rng.uniform(-1, 1, (2, 2))
        a = TermSumOperator(2, [term(m, 2.0, 1.0)])
        b = TermSumOperator(2, [term(nmat, 3.0, -1.0)])
        (t,) = a.compose(b).terms
        assert np.allclose(t.weight, m @ nmat)
        assert (t.arg_scale, t.arg_shift) == (6.0, 2.0)
        # pointwise nested evaluation on a random profile
        f = vec_profile(rng.uniform(0.5, 1, 2), rng.uniform(0.5, 2, 2),
                        rng.uniform(0, 3, 2))
        for x in rng.uniform(-1, 1, 5):
            nested = a.apply(lambda s: b.apply(f, s), x)
            assert np.abs(a.compose(b).apply(f, x) - nested).max() <= 1e-12

    def test_merge_sums_duplicates(self):
        m = np.array([[1.0, 0.5], [0.0, 2.0]])
        op = TermSumOperator(2, [term(m, 1.0, 0.0), term(m, 1.0, 0.0)])
        merged = op.merged()
        (t,) = merged.terms
        assert np.allclose(t.weight, 2 * m)

    def test_merge_drops_zero_weight(self):
        op = TermSumOperator(1, [term([[0.0]], 1.0, 0.0),
                                 term([[1.0]], 1.0, 1.0)])
        assert len(op.merged().terms) == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            identity_op(2).compose(identity_op(3))


class TestApply:
    def test_shift_on_linear_profile(self):
        op = shift_op(eigendecompose(1.0), 1.0)
        f = lambda x: np.asarray(x, dtype=float)[..., None]
        assert op.apply(f, 0.25)[0] == pytest.approx(1.25)

    def test_zero_operator_returns_zeros(self):
        op = TermSumOperator(2, [])
        f = vec_profile(np.ones(2), np.ones(2), np.zeros(2))
        assert np.allclose(op.apply(f, 0.5), 0.0)
        assert op.apply(f, np.array([0.1, 0.2])).shape == (2, 2)

    def test_linearity(self):
        rng = np.random.default_rng(17)
        op = random_operator(rng, 2, 5)
        f = vec_profile(rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2),
                        rng.uniform(0, 3, 2))
        g = vec_profile(rng.uniform(-1, 1, 2), rng.uniform(0.5, 2, 2),
                        rng.uniform(0, 3, 2))
        x = 0.7
        both = op.apply(lambda s: f(s) + g(s), x)
        assert np.abs(both - op.apply(f, x) - op.apply(g, x)).max() <= 1e-13


class TestImageSeries:
    def test_zero_contraction_single_order(self):
        a = eigendecompose(2.0)
        s = image_series(a, a, 0.0, 1.0, j_max=0)
        # layer1 g = g(x/a); layer2 g = g((x-l)/a + l/a) = g(x/a)
        f = vec_profile(np.array([1.0]), np.array([1.1]), np.array([0.3]))
        for x in (0.2, 0.9):
            assert np.allclose(s.layer1.apply(f, x), f(x / 2.0), atol=1e-14)
        for x in (1.1, 2.5):
            assert np.allclose(s.layer2.apply(f, x), f(x / 2.0), atol=1e-14)

    def test_scalar_expansion_j1(self):
        # layer1 g: g(x) - 0.2 g(2-x) + 0.2 g(x+2) - 0.04 g(4-x)
        a = eigendecompose(1.0)
        s = image_series(a, a, 0.2, 1.0, j_max=1)
        expected = {(1.0, 0.0): 1.0, (-1.0, 2.0): -0.2,
                    (1.0, 2.0): 0.2, (-1.0, 4.0): -0.04}
        assert len(s.layer1.terms) == 4
        for t in s.layer1.terms:
            assert t.weight[0, 0] == pytest.approx(
                expected[(t.arg_scale, t.arg_shift)], abs=1e-14)

    def test_identity_contraction_kills_layer2(self):
        a = eigendecompose(1.0)
        s = image_series(a, a, 1.0, 1.0, j_max=0)
        assert len(s.layer2.terms) == 0

    def test_scalar_term_count_linear_in_orders(self):
        a1 = eigendecompose(1.0)
        a2 = eigendecompose(2.0)
        s = image_series(a1, a2, 0.2, 1.0, j_max=8)
        assert len(s.layer1.terms) <= 2 * 9
        assert len(s.layer2.terms) <= 2 * 9

    def test_shared_eigenvector_term_count_quadratic(self):
        # a1 and chi diagonal: term growth stays within ~n^2 per order
        n, j_max = 2, 6
        a1 = eigendecompose(np.diag([1.0, 2.0]))
        a2 = eigendecompose(np.diag([2.0, 3.0]))
        chi = np.diag([0.2, 0.4])
        s = image_series(a1, a2, chi, 1.0, j_max=j_max)
        bound = 4 * n * n * (j_max + 1)
        assert len(s.layer1.terms) <= bound
        assert len(s.layer2.terms) <= bound

    def test_series_tol_stops_early(self):
        a = eigendecompose(1.0)
        s = image_series(a, a, 0.2, 1.0, j_max=64, series_tol=1e-12)
        assert s.orders_used < 64
        assert s.last_term_norm < 1e-12

    def test_layer2_scalar_closed_form(self):
        a1 = eigendecompose(1.0)
        a2 = eigendecompose(2.0)
        chi = 0.2
        s = image_series(a1, a2, chi, 1.0, j_max=3)
        f = vec_profile(np.array([1.0]), np.array([0.9]), np.array([0.2]))
        x = 1.7
        expected = sum((1 - chi) * chi ** j * f((x - 1.0) / 2.0 + (2 * j + 1))
                       for j in range(4))
        assert np.allclose(s.layer2.apply(f, x), expected, atol=1e-13)


class TestAlgebraProperties:
    def test_composition_closure_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            a = random_operator(rng, 2, 3)
            b = random_operator(rng, 2, 3)
            f = vec_profile(rng.uniform(-1, 1, 2), rng.uniform(0.5, 1.5, 2),
                            rng.uniform(0, 3, 2))
            x = rng.uniform(-1, 1)
            nested = a.apply(lambda s: b.apply(f, s), x)
            assert np.abs(a.compose(b).apply(f, x) - nested).max() <= 1e-12

    def test_associativity_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            a = random_operator(rng, 2, 2)
            b = random_operator(rng, 2, 2)
            c = random_operator(rng, 2, 2)
            assert term_sets_equal(a.compose(b).compose(c),
                                   a.compose(b.compose(c)), tol=1e-12)
