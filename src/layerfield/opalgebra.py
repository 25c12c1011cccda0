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

    def merged(self, prune_tol: float = 0.0) -> "TermSumOperator":
        """Canonical form: terms sharing (alpha, beta) within MERGE_TOL are
        summed, then terms with ||M||_F <= prune_tol are dropped."""
        if prune_tol < 0.0:
            raise ValueError("prune_tol must be nonnegative")
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
                if np.linalg.norm(w) > prune_tol]
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

    def weight_norm(self) -> float:
        """Sum of Frobenius norms of the term weights."""
        return float(sum(np.linalg.norm(t.weight) for t in self.terms))


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

    orders_used counts the reflection orders summed (j = 0 .. orders_used-1),
    last_term_norm is the total weight norm of the final added order
    (truncation proxy), chi_radius the spectral radius of the contraction.
    """

    layer1: TermSumOperator
    layer2: TermSumOperator
    orders_used: int
    last_term_norm: float
    chi_radius: float


def image_series(a1: SpectralMatrix, a2: SpectralMatrix, chi, l: float,
                 j_max: int = 64, prune_tol: float = 0.0,
                 series_tol: float = 0.0) -> ImageSeries:
    """Build the two-layer image-series operators.

    layer1 = sum_j (R_a1 - S R_a1 U_chi) T_a1 (T_a1 U_chi T_a1)^j and
    layer2 = sum_j (R_a2 - R_a2 U_chi) T_a1 (T_a1 U_chi T_a1)^j, truncated
    when the added order's weight norm drops below series_tol (if positive)
    or at j_max. Both operators come back merged and pruned.
    """
    if a1.dim != a2.dim:
        raise DimMismatchError("layer coefficient dims differ")
    if not (spectrum_in_halfplane(a1, "right")
            and spectrum_in_halfplane(a2, "right")):
        raise SpectrumViolationError(
            "layer coefficients must have positive spectra")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    n = a1.dim

    t_op = shift_op(a1, l)
    u_op = contraction_op(chi)
    if u_op.dim != n:
        raise DimMismatchError("chi dim does not match layer coefficients")
    r1 = scaling_op(a1, l)
    r2 = scaling_op(a2, l)
    s_op = reflection_op(l, n)

    front1 = r1 - s_op.compose(r1).compose(u_op)
    front2 = r2 - r2.compose(u_op)
    core = t_op.compose(u_op).compose(t_op)

    acc = t_op
    terms1: list[OperatorTerm] = []
    terms2: list[OperatorTerm] = []
    orders_used = 0
    last_norm = float("inf")
    for j in range(j_max + 1):
        add1 = front1.compose(acc).merged(0.0)
        add2 = front2.compose(acc).merged(0.0)
        terms1.extend(add1.terms)
        terms2.extend(add2.terms)
        orders_used = j + 1
        last_norm = add1.weight_norm() + add2.weight_norm()
        if series_tol > 0.0 and last_norm < series_tol:
            break
        if j < j_max:
            acc = acc.compose(core).merged(0.0)

    layer1 = TermSumOperator(n, terms1).merged(prune_tol)
    layer2 = TermSumOperator(n, terms2).merged(prune_tol)
    chi_mat = np.asarray(chi, dtype=float)
    if chi_mat.ndim == 0:
        chi_mat = chi_mat.reshape(1, 1)
    chi_radius = float(np.abs(np.linalg.eigvals(chi_mat)).max())
    return ImageSeries(layer1, layer2, orders_used, last_norm, chi_radius)
