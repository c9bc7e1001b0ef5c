"""Exception hierarchy shared across the toolkit."""


class CapnetError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(CapnetError):
    """Vector/matrix sizes do not agree."""


class DomainError(CapnetError):
    """An input lies outside the admissible set (e.g. the actuator box)."""


class TuningError(CapnetError):
    """Controller gains violate a structural requirement of an operation."""


class FlowSolverError(CapnetError):
    """A hydraulic flow solve produced no valid flow vector: a switched-off
    pump, valves outside [-1, 1], non-positive flow, a failed pressure-balance
    check, or a partial-flow solve that did not converge."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IntegrationError(CapnetError):
    """Time integration failed (step-size underflow, inner Newton failure)."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class EquilibriumError(CapnetError):
    """The Newton solve for a closed-loop equilibrium ended without one: its
    step or backtracking budget ran out, its Jacobian was singular, or the
    residual stayed above tolerance.  Carries the residual reached, the
    Newton steps taken and the number of saturated agents."""

    def __init__(self, message, residual=None, iterations=None, saturated=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.saturated = saturated


class AllocationError(CapnetError):
    """A linear-program allocation ended without an optimum (infeasible,
    unbounded or out of iterations).  Carries the solver's status code; the
    message is the solver's own."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class ConfigError(CapnetError):
    """A scenario/network configuration file is malformed or inconsistent."""
