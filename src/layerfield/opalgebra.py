"""Finite sums of matrix-weighted affine-argument terms.

An operator here acts on vector profiles f(x) as

    (A f)(x) = sum_k M_k f(alpha_k x + beta_k)

with n x n weights M_k and scalar argument maps. The family is closed
under addition and composition, which is what makes shift, reflection,
contraction and scaling operators, and the whole layered-medium image
series, representable exactly as one canonical term list.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DimMismatchError, SpectrumViolationError, ZeroEigenvalueError
from .spectral import SpectralMatrix, spectrum_in_halfplane

# Terms whose (alpha, beta) agree within this are merged by summing weights.
MERGE_TOL = 1e-12


class OperatorTerm(NamedTuple):
    """One term M f(alpha x + beta); alpha must be nonzero."""

    weight: np.ndarray
    arg_scale: float
    arg_shift: float


def term(weight, alpha: float, beta: float) -> OperatorTerm:
    w = np.array(weight, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimMismatchError(f"term weight must be square, got {w.shape}")
    if alpha == 0.0:
        raise ValueError("argument scale alpha must be nonzero")
    w.setflags(write=False)
    return OperatorTerm(w, float(alpha), float(beta))


class TermSumOperator:
    """Ordered sum of :class:`OperatorTerm`; linear in the profile."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=()):
        terms = tuple(terms)
        for t in terms:
            if t.weight.shape != (dim, dim):
                raise DimMismatchError(
                    f"term weight {t.weight.shape} does not match dim {dim}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("TermSumOperator is immutable")

    def __repr__(self):
        return f"TermSumOperator(dim={self.dim}, nterms={len(self.terms)})"

    def __add__(self, other: "TermSumOperator") -> "TermSumOperator":
        if self.dim != other.dim:
            raise DimMismatchError("operator dims differ")
        return TermSumOperator(self.dim, self.terms + other.terms)

    def __neg__(self) -> "TermSumOperator":
        return TermSumOperator(
            self.dim,
            [term(-t.weight, t.arg_scale, t.arg_shift) for t in self.terms])

    def __sub__(self, other: "TermSumOperator") -> "TermSumOperator":
        return self + (-other)

    def compose(self, other: "TermSumOperator") -> "TermSumOperator":
        """self after other: (self.compose(other))(f) = self(other(f))."""
        if self.dim != other.dim:
            raise DimMismatchError("operator dims differ")
        out = []
        for m, alpha, beta in self.terms:
            for nmat, gamma, delta in other.terms:
                out.append(term(m @ nmat, gamma * alpha, gamma * beta + delta))
        return TermSumOperator(self.dim, out)

    def merged(self) -> "TermSumOperator":
        """Canonical form: terms sharing (alpha, beta) within MERGE_TOL are
        summed, then terms with an exactly zero weight are dropped."""
        order = sorted(range(len(self.terms)),
                       key=lambda k: (self.terms[k].arg_scale,
                                      self.terms[k].arg_shift, k))
        groups = []
        for k in order:
            t = self.terms[k]
            if groups:
                g = groups[-1]
                if (abs(t.arg_scale - g[1]) <= MERGE_TOL
                        and abs(t.arg_shift - g[2]) <= MERGE_TOL):
                    g[0] = g[0] + t.weight
                    continue
            groups.append([np.array(t.weight), t.arg_scale, t.arg_shift])
        kept = [term(w, a, b) for w, a, b in groups
                if np.linalg.norm(w) > 0.0]
        return TermSumOperator(self.dim, kept)

    def apply(self, f: Callable, x):
        """Evaluate sum M f(alpha x + beta) at scalar or 1-d array x.

        f must return shape (n,) for scalar input and (k, n) for a
        length-k array.
        """
        total = np.zeros(np.shape(x) + (self.dim,))
        for m, alpha, beta in self.terms:
            v = np.asarray(f(alpha * np.asarray(x, dtype=float) + beta),
                           dtype=float)
            total = total + v @ m.T
        return total


def identity_op(n: int) -> TermSumOperator:
    return TermSumOperator(n, [term(np.eye(n), 1.0, 0.0)])


def _check_nonzero_spectrum(a: SpectralMatrix):
    scale = max(1.0, float(np.abs(a.eigenvalues).max()))
    if np.any(np.abs(a.eigenvalues) < 1e-14 * scale):
        raise ZeroEigenvalueError("operator requires nonzero eigenvalues")


def shift_op(a: SpectralMatrix, l: float) -> TermSumOperator:
    """Spectrally weighted shift: f -> sum_i P_i f(x + l / lambda_i)."""
    _check_nonzero_spectrum(a)
    terms = [term(a.projector(i), 1.0, l / lam)
             for i, lam in enumerate(a.eigenvalues)]
    return TermSumOperator(a.dim, terms)


def contraction_op(chi) -> TermSumOperator:
    """Value contraction: f -> chi f(x)."""
    chi = np.asarray(chi, dtype=float)
    if chi.ndim == 0:
        chi = chi.reshape(1, 1)
    if chi.ndim != 2 or chi.shape[0] != chi.shape[1]:
        raise DimMismatchError(f"chi must be square, got shape {chi.shape}")
    return TermSumOperator(chi.shape[0], [term(chi, 1.0, 0.0)])


def reflection_op(l: float, n: int) -> TermSumOperator:
    """Reflection about the interface: f -> f(2l - x)."""
    if l <= 0.0:
        raise ValueError("interface abscissa l must be positive")
    return TermSumOperator(n, [term(np.eye(n), -1.0, 2.0 * l)])


def scaling_op(a: SpectralMatrix, l: float) -> TermSumOperator:
    """Argument contraction with shift: f -> sum_i P_i f((x - l) / lambda_i)."""
    _check_nonzero_spectrum(a)
    terms = [term(a.projector(i), 1.0 / lam, -l / lam)
             for i, lam in enumerate(a.eigenvalues)]
    return TermSumOperator(a.dim, terms)


class ImageSeries(NamedTuple):
    """Truncated image-series operators for the two layers plus diagnostics.

    orders_used counts the orders summed (j = 0 .. orders_used-1);
    last_term_norm is the error bound of the last one (see image_series).
    """

    layer1: TermSumOperator
    layer2: TermSumOperator
    orders_used: int
    last_term_norm: float


def image_series(a1: SpectralMatrix, a2: SpectralMatrix, chi, l: float,
                 j_max: int = 64, series_tol: float = 0.0,
                 envelope: Callable | None = None) -> ImageSeries:
    """Build the two-layer image-series operators.

    With T^2 = shift_op(a1, 2l), D_0 = U T and D_j = (U T^2) D_{j-1}, order
    j adds (R1 T^2) D_{j-1} - (S R1) D_j to layer 1 and
    (R2 T^2) D_{j-1} - R2 D_j to layer 2 (R1 T, R2 T at j = 0). R1 T,
    R1 T^2 and S R1 are P_i g(x / lambda_i), P_i g((x + l) / lambda_i) and
    P_i g((l - x) / lambda_i): no two projectors of a1 are multiplied, and
    every layer-1 argument is >= 0 on [0, l].

    Term k has the bound ||M_k||_F G(s_k) / G(0), s_k its smallest argument
    over its layer ([0, l] or x >= l) and G = ``envelope`` a decreasing
    bound of the base field (None: constant). The series stops at the first
    order whose summed bound is below series_tol (if positive), or at
    j_max; terms bounded by eps times the order-0 bound are dropped.
    """
    if a1.dim != a2.dim:
        raise DimMismatchError("layer coefficient dims differ")
    if not (spectrum_in_halfplane(a1, "right")
            and spectrum_in_halfplane(a2, "right")):
        raise SpectrumViolationError(
            "layer coefficients must have positive spectra")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if l <= 0.0:
        raise ValueError("interface abscissa l must be positive")
    n = a1.dim
    u_op = contraction_op(chi)
    if u_op.dim != n:
        raise DimMismatchError("chi dim does not match layer coefficients")

    t_op, t2_op = shift_op(a1, l), shift_op(a1, 2.0 * l)
    r2 = scaling_op(a2, l)
    r1t2, r2t2 = scaling_op(a1, -l), r2.compose(t2_op)
    ut2 = u_op.compose(t2_op)
    sr1 = TermSumOperator(n, [term(m, -alpha, -beta) for m, alpha, beta
                              in scaling_op(a1, l).terms])
    envelope = envelope or np.ones_like
    scale = max(float(envelope(0.0)), np.finfo(float).tiny)

    def bounds(op: TermSumOperator, lo: float, hi: float) -> np.ndarray:
        norms = np.array([np.linalg.norm(t.weight) for t in op.terms])
        s_min = np.array([b + min(a * lo, a * hi) for _, a, b in op.terms])
        return norms * (envelope(s_min) / scale)

    d_op = u_op.compose(t_op)                        # D_0
    first1, first2 = scaling_op(a1, 0.0), r2.compose(t_op)
    terms1: list[OperatorTerm] = []
    terms2: list[OperatorTerm] = []
    for j in range(j_max + 1):
        add1 = (first1 - sr1.compose(d_op)).merged()
        add2 = (first2 - r2.compose(d_op)).merged()
        b1, b2 = bounds(add1, 0.0, l), bounds(add2, l, np.inf)
        last_bound = float(sum(b1) + sum(b2))
        floor = np.finfo(float).eps * last_bound if j == 0 else floor
        terms1.extend(t for t, b in zip(add1.terms, b1) if b > floor)
        terms2.extend(t for t, b in zip(add2.terms, b2) if b > floor)
        if (series_tol > 0.0 and last_bound < series_tol) or j == j_max:
            break
        first1, first2 = r1t2.compose(d_op), r2t2.compose(d_op)
        d_op = ut2.compose(d_op).merged()            # D_{j+1}

    return ImageSeries(TermSumOperator(n, terms1).merged(),
                       TermSumOperator(n, terms2).merged(), j + 1,
                       last_bound)
