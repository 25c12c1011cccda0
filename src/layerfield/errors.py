"""Exception and warning types shared across the package."""


class LayerFieldError(Exception):
    """Base class for all package-specific errors."""


class DimMismatchError(LayerFieldError):
    """Operands have incompatible dimensions."""


class DefectiveMatrixError(LayerFieldError):
    """Matrix lacks a full set of independent eigenvectors."""


class ComplexSpectrumError(LayerFieldError):
    """Eigenvalues have imaginary parts beyond tolerance (unsupported)."""


class IllConditionedEigvecsError(LayerFieldError):
    """Eigenvector matrix condition number exceeds the configured cap."""


class EvalDomainError(LayerFieldError):
    """A function was evaluated outside its domain."""


class ZeroEigenvalueError(LayerFieldError):
    """Operator construction requires nonzero eigenvalues."""


class SpectrumViolationError(LayerFieldError):
    """Spectrum is not confined to the required half-plane."""


class NonCommutingError(LayerFieldError):
    """Coefficient matrices must commute for this operation."""


class SharedBasisRequiredError(LayerFieldError):
    """Matrices must be simultaneously diagonalizable here."""


class SingularMatrixError(LayerFieldError):
    """Matrix inversion failed."""


class SingularSystemError(LayerFieldError):
    """Linear system solve failed or left a large residual."""


class QuadratureFailureError(LayerFieldError):
    """Adaptive quadrature did not reach tolerance within budget."""


class GridMismatchError(LayerFieldError):
    """Field grids do not cover identical nodes."""


class ParseError(LayerFieldError):
    """Configuration text could not be parsed."""


class ValidationError(LayerFieldError):
    """Configuration parsed but violates an invariant."""


class SeriesDivergingWarning(UserWarning):
    """j_max ended the image series with its error bound >= series_tol."""
