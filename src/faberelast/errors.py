"""Exception types shared across the package."""


class FaberElastError(Exception):
    """Base class for all package errors."""


class DomainError(FaberElastError, ValueError):
    """A point lies outside the domain of validity of an evaluation."""


class ConvexityError(FaberElastError, ValueError):
    """Material constants violate strong convexity (mu > 0, lambda + mu > 0)."""


class ProximityError(DomainError):
    """A quadrature target is too close to the boundary for the naive rule."""


class NumericError(FaberElastError, ArithmeticError):
    """An evaluation hit a numerically degenerate configuration."""


class SingularBlockError(FaberElastError, ArithmeticError):
    """The coupled coefficient block is too ill-conditioned to invert."""


class DegenerateRotationError(FaberElastError, ArithmeticError):
    """The denominator fixing the rotation constant is below threshold."""


class TruncationError(FaberElastError, ValueError):
    """The requested truncation order cannot represent the data exactly."""


class SampleShapeError(FaberElastError, ValueError):
    """A sampled function returned values of another shape than its sample points."""


class ConfigError(FaberElastError, ValueError):
    """A job configuration file is missing keys or violates an invariant."""


class NonUnivalentMapError(FaberElastError):
    """The exterior map failed its univalence check; ``report`` says how."""

    def __init__(self, report):
        lines = ["map failed the univalence check:",
                 f"  min |Psi'| on the boundary samples: {report.min_abs_derivative:.3e}"]
        if report.derivative_winding:
            lines.append(f"  Psi' has {report.derivative_winding} zero(s) outside the unit circle")
        if report.crossing_segments:
            pairs = list(report.crossing_segments)[:4]
            lines.append(f"  boundary self-intersections at segment pairs {pairs}")
        super().__init__("\n".join(lines))
        self.report = report

    def __reduce__(self):  # pickle from the report, not from the message
        return type(self), (self.report,)
