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
        if self.nx < 2 or self.ny < 2:
            raise ValueError("nx and ny must be at least 2")
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


def _mode_values(trace: BoundaryTrace, xs, ys, dx_order: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros((xs.size, ys.size, trace.dim))
    for m in trace.modes:
        ex = np.exp(-m.omega * xs)
        if dx_order == 1:
            ex = -m.omega * ex
        wave = (np.cos(m.omega * ys)[:, None] * m.cos_amp[None, :]
                + np.sin(m.omega * ys)[:, None] * m.sin_amp[None, :])
        out += ex[:, None, None] * wave[None, :, :]
    return out


def _sample_values(trace: BoundaryTrace, xs, ys, dx_order: int) -> np.ndarray:
    ygrid, vals = trace.samples
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs < 0.0):
        raise EvalDomainError("sampled traces are undefined for x < 0")
    n = trace.dim
    out = np.empty((xs.size, ys.size, n))

    # Piecewise-linear data: on segment [t0, t1] the datum is c + d t, and
    # (1/pi) int x (c + d t) / (x^2 + (y-t)^2) dt has the closed form used
    # below with s = t - y. Only interpolation and support-truncation error
    # remain (bounded by x times the tail mass outside the sample support).
    t0 = ygrid[:-1]
    t1 = ygrid[1:]
    d = (vals[1:] - vals[:-1]) / (t1 - t0)[:, None]       # (S, n)
    c = vals[:-1] - d * t0[:, None]                        # (S, n)

    at_boundary = xs <= 0.0
    for i, x in enumerate(xs):
        if at_boundary[i]:
            if dx_order == 1:
                raise EvalDomainError(
                    "x-derivative of a sampled trace is undefined at x = 0")
            for k in range(n):
                out[i, :, k] = np.interp(ys, ygrid, vals[:, k],
                                         left=0.0, right=0.0)
            continue
        s0 = t0[None, :] - ys[:, None]                     # (m, S)
        s1 = t1[None, :] - ys[:, None]
        if dx_order == 0:
            d_atan = np.arctan2(s1, x) - np.arctan2(s0, x)
            d_log = 0.5 * (np.log(x * x + s1 * s1) - np.log(x * x + s0 * s0))
            cy = d_atan @ c + (ys[:, None] * d_atan) @ d   # (m, n)
            out[i] = (cy + x * (d_log @ d)) / np.pi
        else:
            r0 = x * x + s0 * s0
            r1 = x * x + s1 * s1
            d_atan_dx = s0 / r0 - s1 / r1
            d_log = 0.5 * (np.log(r1) - np.log(r0))
            d_log_dx = x / r1 - x / r0
            cy = d_atan_dx @ c + (ys[:, None] * d_atan_dx) @ d
            out[i] = (cy + (d_log + x * d_log_dx) @ d) / np.pi
    return out


def extension_values(trace: BoundaryTrace, xs, ys,
                     dx_order: int = 0) -> np.ndarray:
    """Harmonic extension (dx_order=0) or its x-derivative (dx_order=1),
    vectorized to shape (len(xs), len(ys), dim)."""
    if dx_order not in (0, 1):
        raise ValueError("dx_order must be 0 or 1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    out = _mode_values(trace, xs, ys, dx_order)
    if trace.samples is not None:
        out = out + _sample_values(trace, xs, ys, dx_order)
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
