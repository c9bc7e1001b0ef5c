"""Exception hierarchy shared across the toolkit, and the strict-object check
that raises its ConfigError for config and network files."""


class CapnetError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(CapnetError):
    """Vector/matrix sizes do not agree."""


class DomainError(CapnetError):
    """An input lies outside the admissible set (e.g. the actuator box)."""


class TuningError(CapnetError):
    """Controller gains violate a structural requirement of an operation."""


class VaryingDisturbanceError(CapnetError):
    """An operation defined for a constant disturbance w met a varying one, or
    RODAS4, which steps on a varying w's breakpoints, met one without any."""


class FlowSolverError(CapnetError):
    """A hydraulic solve produced no valid answer: a switched-off pump,
    valves outside [-1, 1], non-positive flow, a failed pressure-balance
    check, or a partial-flow Newton or min-max level search that stopped
    short.  Carries the relative residual and the steps taken, where known."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IntegrationError(CapnetError):
    """Time integration failed (step-size underflow, step budget, singular matrix)."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class EquilibriumError(CapnetError):
    """The solve for a closed-loop equilibrium ended without one: a Newton
    or root-search budget ran out, the Jacobian was singular, or the
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


def strict_object(value, where: str, allowed, required=()) -> dict:
    """``value`` when it is an object holding every ``required`` key and no
    key outside ``allowed``; a ConfigError naming ``where`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(value)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    return value
