"""Exception types shared across the package."""


class ElicitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ElicitError):
    """A parameter vector violates its model's domain bounds."""


class OutOfImage(ElicitError):
    """A requested moment value is unreachable by the model."""


class DegenerateMoments(ElicitError):
    """Moment vector has (numerically) zero variance; link undefined."""


class VerticalContour(ElicitError):
    """Contour slope undefined: d(link)/d(r2) is numerically zero."""


class EmptySample(ElicitError):
    """Empirical moments requested from an empty sample."""


class InfiniteWeightInSum(ElicitError):
    """total_loss called with an infinite weight; handled as a constraint, never summed."""


class ZeroMomentBase(ElicitError):
    """Base-weight renormalization requires all sample moments nonzero."""


class EmptyGrid(ElicitError):
    """Meshgrid oracle box admits no grid cell at the requested width."""


class TooFewPoints(ElicitError):
    """Not enough converged sweep points for the requested analysis."""


class EndpointMissing(ElicitError):
    """Sweep endpoint (zero or infinite weight) absent or unconverged."""


class MixedCase(ElicitError):
    """Slope-sign classification is not uniform over the interval."""


class ConfigError(ElicitError):
    """A config has the wrong structure: an unknown, missing or mistyped key.

    The message names the offending key.  A bad value, alone or beside the
    others, is reported by the object built from it, with its own ElicitError.
    """
