"""Diagnostics containers shared by the solvers and the oracles."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


def _check_entries(report):
    for name, value in asdict(report).items():
        if value is not None and (not math.isfinite(value) or value < 0):
            raise ValueError(f"report field {name}={value} must be "
                             "finite and nonnegative")


@dataclass(frozen=True)
class SolveReport:
    """Residual norms and truncation diagnostics for one solve.

    All entries are finite and nonnegative; fields that do not apply to a
    given solver are zero.
    """

    pde_residual_linf: float = 0.0
    boundary_residual_linf: float = 0.0
    interface_value_gap: float = 0.0
    interface_flux_gap: float = 0.0
    series_terms_used: int = 0
    truncation_proxy: float = 0.0
    quadrature_error: float = 0.0

    def __post_init__(self):
        _check_entries(self)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ResidualReport:
    """Discrete residuals measured on solved fields.

    An entry that was not measured is None and is left out of
    ``as_dict``: the interface gaps of a Robin problem, and the boundary
    residual of a two-layer grid that does not start at x = 0. Set entries
    are finite and nonnegative.
    """

    pde_residual_linf: float
    boundary_residual_linf: float | None = None
    interface_value_gap: float | None = None
    interface_flux_gap: float | None = None

    def __post_init__(self):
        _check_entries(self)

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}
