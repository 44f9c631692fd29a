"""Exception types raised across the library."""


class CrosswindError(Exception):
    """Base class for library errors."""


class InvalidParameterError(CrosswindError, ValueError):
    """A physical or configuration parameter violates its constraints.

    ``field`` names the rejected dataclass field or argument, when there is one.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NonIntegerDelayError(InvalidParameterError):
    """The input delay is not an integer multiple of the sampling interval."""


class UnobservablePairError(CrosswindError, ValueError):
    """Observer design requested for an unobservable (A, C) pair."""


class UnstablePoleError(InvalidParameterError):
    """Requested observer poles lie on or outside the unit circle."""


class AreConvergenceError(CrosswindError, RuntimeError):
    """Riccati fixed-point iteration failed to converge."""


class SingularInnovationError(CrosswindError, ValueError):
    """Innovation covariance C P C^T + R is not positive."""


class BufferLengthError(CrosswindError, ValueError):
    """Delayed-input buffer length does not match the model delay."""


class QpInfeasibleError(CrosswindError, RuntimeError):
    """The constrained MPC quadratic program was not solved to optimality.

    ``status`` is the solver's: ``infeasible`` (no feasible point) or
    ``max_iters`` (the iteration cap was reached).
    """

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class PlantDivergenceError(CrosswindError, RuntimeError):
    """Simulated plant state became non-finite or unreasonably large."""

    def __init__(self, message, step=None, partial_trace=None):
        super().__init__(message)
        self.step = step
        self.partial_trace = partial_trace


class ScenarioError(CrosswindError, ValueError):
    """Scenario file failed to parse or validate."""
