"""Exception types raised across the library."""


class CrosswindError(Exception):
    """Base class for library errors."""


class InvalidParameterError(CrosswindError, ValueError):
    """A physical or configuration parameter violates its constraints.

    This covers every input the library cannot use, also one that admits no
    design (an unobservable pair, a Riccati solve that does not converge).
    ``field`` names the rejected dataclass field or argument, when there is one.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class QpInfeasibleError(CrosswindError, RuntimeError):
    """The constrained MPC quadratic program was not solved to optimality.

    ``status`` is the solver's: ``infeasible`` (no feasible point) or
    ``max_iters`` (the iteration cap was reached).
    """

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class PlantDivergenceError(CrosswindError, RuntimeError):
    """Simulated plant state became non-finite or unreasonably large.

    A run that diverges sets ``step`` and its time ``t``, the
    ``partial_trace`` (a Trace over a copy of rows 0..step, so it does not
    keep the run's whole store alive), and ``state``, the last finite
    plant state.
    """

    def __init__(self, message, step=None, partial_trace=None, t=None, state=None):
        super().__init__(message)
        self.step = step
        self.partial_trace = partial_trace
        self.t = t
        self.state = state


class ScenarioError(CrosswindError, ValueError):
    """Scenario file failed to parse or validate."""
