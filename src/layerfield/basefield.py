"""Half-plane harmonic base fields from vector boundary data.

The base problem is componentwise Laplace on x > 0 with Dirichlet trace
f(y). Boundary data combines decaying trigonometric modes with an optional
sampled profile. Modes extend as e^{-omega x} factors and continue
analytically to x < 0; sampled profiles extend through the half-plane
Poisson integral, evaluated in closed form against the piecewise-linear
interpolant of the samples (the kernel has an elementary antiderivative on
each segment), and reject x < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvalDomainError

_ZERO_OMEGA_TOL = 1e-15


@dataclass(frozen=True)
class TraceMode:
    """One trigonometric boundary mode: cos_amp cos(omega y) + sin_amp sin(omega y)."""

    omega: float
    cos_amp: np.ndarray
    sin_amp: np.ndarray

    def __post_init__(self):
        ca = np.atleast_1d(np.asarray(self.cos_amp, dtype=float))
        sa = np.atleast_1d(np.asarray(self.sin_amp, dtype=float))
        if ca.shape != sa.shape or ca.ndim != 1:
            raise ValueError("cos_amp and sin_amp must be equal-length vectors")
        if self.omega < 0.0:
            raise ValueError("mode frequency must be nonnegative")
        ca.setflags(write=False)
        sa.setflags(write=False)
        object.__setattr__(self, "cos_amp", ca)
        object.__setattr__(self, "sin_amp", sa)
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def dim(self) -> int:
        return self.cos_amp.shape[0]


@dataclass(frozen=True)
class BoundaryTrace:
    """Vector boundary datum f(y): trigonometric modes and/or samples.

    samples, when present, is a pair (y_grid, values) with y_grid strictly
    increasing of length m and values of shape (m, dim); evaluation between
    samples is linear interpolation, outside the support it is zero.
    """

    dim: int
    modes: tuple = ()
    samples: tuple | None = None

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes and self.samples is None:
            raise ValueError("trace needs modes or samples")
        omegas = [m.omega for m in modes]
        for m in modes:
            if m.dim != self.dim:
                raise ValueError("mode amplitude length does not match dim")
            if m.omega <= _ZERO_OMEGA_TOL and np.any(m.sin_amp != 0.0):
                raise ValueError("omega=0 mode cannot carry a sine amplitude")
        if len(set(omegas)) != len(omegas):
            raise ValueError("mode frequencies must be distinct")
        if self.samples is not None:
            y, v = self.samples
            y = np.asarray(y, dtype=float)
            v = np.asarray(v, dtype=float)
            if v.ndim == 1:
                v = v[:, None]
            if y.ndim != 1 or y.size < 2 or v.shape != (y.size, self.dim):
                raise ValueError("samples must be (y[m], values[m, dim]) with m >= 2")
            if np.any(np.diff(y) <= 0.0):
                raise ValueError("sample grid must be strictly increasing")
            y.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "samples", (y, v))
        object.__setattr__(self, "modes", modes)

    @property
    def min_positive_omega(self) -> float | None:
        pos = [m.omega for m in self.modes if m.omega > _ZERO_OMEGA_TOL]
        return min(pos) if pos else None

    @cached_property
    def _envelope_constants(self):
        amps = [np.linalg.norm(m.cos_amp) + np.linalg.norm(m.sin_amp)
                for m in self.modes]
        floor = (0.0 if self.samples is None
                 else np.linalg.norm(self.samples[1], axis=1).max())
        return np.array([m.omega for m in self.modes]), np.array(amps), floor

    def envelope(self, s):
        """G(s) = sum_m (|c_m| + |s_m|) e^{-omega_m s} + max_j |f_j|, which
        bounds the base field's norm at every x >= s."""
        omegas, amps, floor = self._envelope_constants
        return np.exp(-np.multiply.outer(s, omegas)) @ amps + floor


def cosine_trace(omega: float, amp) -> BoundaryTrace:
    """Trace f(y) = amp * cos(omega y)."""
    amp = np.atleast_1d(np.asarray(amp, dtype=float))
    return BoundaryTrace(dim=amp.size,
                         modes=(TraceMode(omega, amp, np.zeros_like(amp)),))


def sampled_trace(y, values) -> BoundaryTrace:
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return BoundaryTrace(dim=values.shape[1], samples=(np.asarray(y, float), values))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid: uniform nodes over closed ranges."""

    x_range: tuple
    y_range: tuple
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:   # the 5-point residual's interior
            raise ValueError("nx and ny must be at least 3")
        if not (self.x_range[0] < self.x_range[1]
                and self.y_range[0] < self.y_range[1]):
            raise ValueError("ranges must be increasing intervals")
        object.__setattr__(self, "x_range",
                           (float(self.x_range[0]), float(self.x_range[1])))
        object.__setattr__(self, "y_range",
                           (float(self.y_range[0]), float(self.y_range[1])))

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)


@dataclass(frozen=True)
class FieldGrid:
    """Sampled n-component field on a :class:`GridSpec`-style grid.

    values has shape (nx, ny, n), axis 0 along x.
    """

    x_range: tuple
    y_range: tuple
    values: np.ndarray
    layer_boundary: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError("values must be (nx>=2, ny>=2, n)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "x_range",
                           (float(self.x_range[0]), float(self.x_range[1])))
        object.__setattr__(self, "y_range",
                           (float(self.y_range[0]), float(self.y_range[1])))

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    @property
    def y_nodes(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)

    @property
    def hx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / (self.ny - 1)


def _mode_values(trace: BoundaryTrace, terms, xs, ys,
                 dx_order: int) -> np.ndarray:
    """sum_k M_k d^j/dx^j g(alpha_k x + beta_k, y) over the trace's modes g,
    for the term list ``terms`` of (M_k, alpha_k, beta_k) and j = dx_order.

    Each mode's field is separable: an (nx, n, n) x-factor, summed over the
    terms, times the (ny, n) wave in y.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((xs.size, ys.size, trace.dim))
    if not (trace.modes and terms):
        return out
    weights = np.array([t[0] for t in terms])              # (T, n, n)
    alphas = np.array([t[1] for t in terms])[:, None]
    args = alphas * xs[None, :] + np.array([t[2] for t in terms])[:, None]
    for m in trace.modes:
        ex = np.exp(-m.omega * args)                       # (T, nx)
        if dx_order == 1:
            ex = (-m.omega * alphas) * ex
        xfac = np.tensordot(ex, weights, axes=(0, 0))      # (nx, n, n)
        wave = (np.cos(m.omega * ys)[:, None] * m.cos_amp[None, :]
                + np.sin(m.omega * ys)[:, None] * m.sin_amp[None, :])
        out += wave @ xfac.transpose(0, 2, 1)
    return out


def _sample_values(trace: BoundaryTrace, terms, xs, ys,
                   dx_order: int) -> np.ndarray:
    """sum_k M_k d^j/dx^j P(alpha_k x + beta_k, y) over the terms
    (M_k, alpha_k, beta_k), P the Poisson extension of the samples.

    On segment [t_j, t_{j+1}] the datum is c + d t, whose Poisson integral
    has an elementary antiderivative in s = t - y: it is taken once per
    sample node and differenced. Only interpolation and support-truncation
    error remain (bounded by x times the tail mass outside the support).
    """
    ygrid, vals = trace.samples
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((xs.size, ys.size, trace.dim))
    d = np.diff(vals, axis=0) / np.diff(ygrid)[:, None]   # (S, n)
    c = vals[:-1] - d * ygrid[:-1, None]                   # (S, n)
    s = ygrid[None, :] - ys[:, None]                       # (ny, S+1)
    s2 = s * s
    for m, alpha, beta in terms:
        args = alpha * xs + beta
        if np.any(args < 0.0):
            raise EvalDomainError("sampled traces are undefined for x < 0")
        for i, x in enumerate(args):
            if x <= 0.0:
                if dx_order == 1:
                    raise EvalDomainError(
                        "x-derivative of a sampled trace is undefined at x = 0")
                ext = np.stack([np.interp(ys, ygrid, v, left=0.0, right=0.0)
                                for v in vals.T], axis=1)
            else:
                r = x * x + s2
                d_log = np.diff(0.5 * np.log(r), axis=1)
                if dx_order == 0:
                    d_atan = np.diff(np.arctan2(s, x), axis=1)
                    tail = x * (d_log @ d)
                else:
                    d_atan = -np.diff(s / r, axis=1)
                    tail = (d_log + x * np.diff(x / r, axis=1)) @ d
                ext = (d_atan @ c + (ys[:, None] * d_atan) @ d + tail) / np.pi
            out[i] += np.einsum("ij,yj->yi", m, alpha ** dx_order * ext)
    return out


def extension_values(trace: BoundaryTrace, xs, ys,
                     dx_order: int = 0) -> np.ndarray:
    """Harmonic extension (dx_order=0) or its x-derivative (dx_order=1),
    vectorized to shape (len(xs), len(ys), dim)."""
    if dx_order not in (0, 1):
        raise ValueError("dx_order must be 0 or 1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    terms = ((np.eye(trace.dim), 1.0, 0.0),)
    out = _mode_values(trace, terms, xs, ys, dx_order)
    if trace.samples is not None:
        out = out + _sample_values(trace, terms, xs, ys, dx_order)
    return out


def harmonic_extension(trace: BoundaryTrace, x: float, y: float) -> np.ndarray:
    """Base-field value at a single point (x >= 0 for sampled traces)."""
    return extension_values(trace, [x], [y])[0, 0]


def harmonic_extension_dx(trace: BoundaryTrace, x: float, y: float) -> np.ndarray:
    """x-derivative of the base field at a single point."""
    return extension_values(trace, [x], [y], dx_order=1)[0, 0]


def boundary_values(trace: BoundaryTrace, ys) -> np.ndarray:
    """The boundary datum f at the given y nodes, shape (len(ys), dim)."""
    return extension_values(trace, [0.0], ys)[0]


def profile_at_y(trace: BoundaryTrace, y: float):
    """The base field as a function of x at fixed y (vectorized over x)."""
    def profile(x):
        scalar = np.ndim(x) == 0
        vals = extension_values(trace, np.atleast_1d(x), [y])[:, 0, :]
        return vals[0] if scalar else vals
    return profile


def evaluate_on_grid(trace: BoundaryTrace, spec: GridSpec) -> FieldGrid:
    """Sample the base field on a rectangular grid."""
    vals = extension_values(trace, spec.x_nodes, spec.y_nodes)
    return FieldGrid(spec.x_range, spec.y_range, vals)


def laplace_residual_linf(grid: FieldGrid, coeff=None) -> float:
    """Sup of the 5-point residual of u_yy + (coeff @ coeff) u_xx.

    coeff=None means the isotropic base equation (identity coefficient).
    """
    u = grid.values
    if coeff is None:
        a2 = np.eye(grid.dim)
    else:
        coeff = np.asarray(coeff, dtype=float)
        a2 = coeff @ coeff
    u_xx = (u[:-2, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[2:, 1:-1]) / grid.hx ** 2
    u_yy = (u[1:-1, :-2] - 2.0 * u[1:-1, 1:-1] + u[1:-1, 2:]) / grid.hy ** 2
    res = u_yy + np.einsum("ij,xyj->xyi", a2, u_xx)
    return float(np.abs(res).max())
