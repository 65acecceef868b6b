"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class;
generic ValueError/RuntimeError are reserved for programming errors.
"""


class CcegeomError(Exception):
    """Base class for all package-specific errors."""


class SingularMetric(CcegeomError):
    """Metric matrix failed a positive-definiteness check at some point."""


class DomainError(CcegeomError):
    """A point lies outside the declared coordinate chart."""


class UnsupportedDimension(CcegeomError):
    """Operation requested in a dimension the implementation does not cover
    (even boundary dimension would introduce logarithmic expansion terms)."""


class FitConditioning(CcegeomError):
    """Least-squares design matrix is too ill-conditioned to trust."""


class UnstableFit(CcegeomError):
    """Fitted coefficient moved too much under a stability perturbation
    (dropping a rung, rescaling the ladder)."""


class QuadratureTolerance(CcegeomError):
    """Error estimate of a quadrature (its rule against a companion rule)
    exceeds the tolerance."""


class CharacteristicFailure(CcegeomError):
    """The radial map of a profile cannot be built or inverted, or the
    normal form built from it violates the gauge |ds|^2 = 1."""


class SolverFailure(CcegeomError):
    """Collocation solver did not converge."""


class PositivityViolation(CcegeomError):
    """A quantity that must be positive (eigenfunction, volume density)
    failed the check; usually signals non-Einstein input or a bug."""


class ModelParameterError(CcegeomError):
    """Model parameters outside the admissible range."""


class NotAvailable(CcegeomError):
    """Exact reference value requested for a quantity the model does not
    carry in closed form."""
