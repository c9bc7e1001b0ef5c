"""Core vector types, actuator nonlinearities, tuning rules and shared solvers.

Everything here is plain numpy on 1-D float arrays.  The types are frozen
dataclasses and the operations are pure functions, so they are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, TuningError, VaryingDisturbanceError

DECENTRALIZED = "decentralized"
COORDINATING = "coordinating"

#: relative tolerance of the tuning equality a_i*kP_i == (1+alpha)*kI_i:
#: exact float equality would be brittle under config round-trips
TUNING_RTOL = 1e-9


def as_vector(x, name="vector") -> np.ndarray:
    """Coerce to a read-only 1-D float array."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    v = v.copy()
    v.flags.writeable = False
    return v


def _check_len(u, n, name):
    """u must hold n entries along its last axis (one vector, or a stack)."""
    if np.shape(u)[-1:] != (n,):
        raise DimensionError(f"{name} has shape {np.shape(u)}, expected (..., {n})")


@dataclass(frozen=True)
class SaturationBounds:
    """Per-agent actuator limits defining the admissible box.

    The box must be bounded with nonempty interior: finite lower_i < upper_i.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower, "lower"))
        object.__setattr__(self, "upper", as_vector(self.upper, "upper"))
        if len(self.lower) != len(self.upper):
            raise DimensionError("lower and upper bounds differ in length")
        if len(self.lower) < 1:
            raise DimensionError("bounds need at least one agent")
        if not np.all((self.lower < self.upper) & np.isfinite(self.lower)
                      & np.isfinite(self.upper)):
            raise ValueError("need finite lower_i < upper_i for every agent")

    @property
    def n(self) -> int:
        return len(self.lower)

    @classmethod
    def symmetric(cls, limit: float, n: int) -> "SaturationBounds":
        """Box [-limit, limit]^n."""
        lim = float(limit)
        return cls(np.full(n, -lim), np.full(n, lim))

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Uniform draw(s) from the box."""
        if size is None:
            return rng.uniform(self.lower, self.upper)
        return rng.uniform(self.lower, self.upper, size=(size, self.n))


def saturate(u, bounds: SaturationBounds) -> np.ndarray:
    """Clamp u element-wise into the actuator box; u is one input vector or
    an (m, n) stack of them."""
    u = np.asarray(u, dtype=float)
    _check_len(u, bounds.n, "u")
    return np.clip(u, bounds.lower, bounds.upper)


def deadzone(u, bounds: SaturationBounds) -> np.ndarray:
    """Saturation excess u - saturate(u); zero exactly while u is in the box."""
    u = np.asarray(u, dtype=float)
    _check_len(u, bounds.n, "u")
    return u - np.clip(u, bounds.lower, bounds.upper)


@dataclass(frozen=True, eq=False)
class DisturbanceProfile:
    """A disturbance w(t), in one of three forms that :meth:`eval` reads.

    A piecewise-linear profile holds a shared scalar series (k,) or a
    per-agent series (k, n) of ``values`` at the breakpoint ``times``; an
    affine map w = scale*(value - offset) turns a raw series such as an
    outdoor temperature into the disturbance each agent sees (scale=a,
    offset=T_ref).  A constant one holds its one vector as ``values`` and no
    breakpoints.  One with a ``source`` is ``source.eval`` with no known
    breakpoints.
    """

    values: np.ndarray
    times: np.ndarray
    scale: np.ndarray | float = 1.0
    offset: np.ndarray | float = 0.0
    source: object = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) == 1:
            raise ValueError("piecewise profile needs at least two breakpoints")
        if not np.all(np.diff(t) > 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if len(t) and self.values.shape[0] != len(t):
            raise ValueError("values and times disagree in length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(self.values))):
            raise ValueError("profile times and values must be finite")
        object.__setattr__(self, "times", t)

    @classmethod
    def piecewise(cls, times, values) -> "DisturbanceProfile":
        if len(times) < 2:  # no breakpoints at all is the constant form
            raise ValueError("piecewise profile needs at least two breakpoints")
        return cls(values=values, times=times)

    @property
    def varies(self) -> bool:
        """Whether w changes in time: it has breakpoints or a source."""
        return self.source is not None or len(self.times) > 0

    def raw(self, t):
        """Interpolated raw value(s) before the affine map, at time t or
        at each of a 1-D array of times (stacked along the first axis)."""
        if self.values.ndim == 1:
            return np.interp(t, self.times, self.values)
        return np.stack([np.interp(t, self.times, col) for col in self.values.T], axis=-1)

    def eval(self, t) -> np.ndarray:
        """Disturbance vector at time t, or the (m, n) stack of them at
        each of a 1-D array of m times; a constant one returns its stored
        vector itself at one time."""
        if self.source is not None:
            return self.source.eval(t)
        if not len(self.times):
            if isinstance(t, np.ndarray) and t.ndim:
                return np.repeat(self.values[None], len(t), axis=0)
            return self.values
        raw = self.raw(t)
        return self.scale * ((raw if self.values.ndim == 2 else raw[..., None]) - self.offset)

    def with_thermal_map(self, a, T_ref) -> "DisturbanceProfile":
        """Map a raw temperature series into w(t) = a * (T(t) - T_ref)."""
        return replace(self, scale=a, offset=T_ref)


def _per_agent(value, n, name, ok=np.isfinite, what="finite") -> np.ndarray:
    """A scalar or an (n,) vector as a read-only (n,) vector, every entry of
    which must be ``ok``."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(n, float(v))
    v = as_vector(v, name)
    if len(v) != n:
        raise DimensionError(f"{name} has length {len(v)}, expected {n}")
    if not np.all(ok(v)):  # NaN fails too
        raise ValueError(f"{name} must be {what}")
    return v


def _as_disturbance(w, n) -> DisturbanceProfile:
    """w as the DisturbanceProfile of n agents (see :class:`AgentEnsemble`)."""
    if isinstance(w, DisturbanceProfile) and not w.varies:
        w = w.values
    if not hasattr(w, "eval"):
        return DisturbanceProfile(_per_agent(w, n, "w"), ())
    if not isinstance(w, DisturbanceProfile):
        w = DisturbanceProfile((), (), source=w)
    if w.source is not None:
        _per_agent(w.eval(0.0), n, "w(0)")
        return w
    if w.values.ndim == 2:
        _check_len(w.values, n, "w values")
    return replace(w, scale=_per_agent(w.scale, n, "w scale"),
                   offset=_per_agent(w.offset, n, "w offset"))


@dataclass(frozen=True)
class AgentEnsemble:
    """Internal decay rates a_i > 0 and disturbances w_i of every agent.

    ``w`` is a constant scalar or vector, a :class:`DisturbanceProfile` (its
    scale and offset broadcast to the n agents, so a shared series reaches
    every agent) or any other object with ``eval(t)``, taken to vary in time
    with no known breakpoints.  It becomes ``disturbance``, the one profile
    every consumer evaluates, its shape and values checked here, once; ``w``
    stays the (n,) vector when it is constant.
    """

    a: np.ndarray
    w: object
    disturbance: DisturbanceProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, "a"))
        if not np.all((self.a > 0) & (self.a < np.inf)):
            raise ValueError("agent rates a_i must be strictly positive and finite")
        disturbance = _as_disturbance(self.w, self.n)
        object.__setattr__(self, "disturbance", disturbance)
        object.__setattr__(self, "w", disturbance if disturbance.varies else disturbance.values)

    @property
    def n(self) -> int:
        return len(self.a)

    def constant_w(self, what: str) -> np.ndarray:
        """The constant w, which ``what`` needs: VaryingDisturbanceError
        naming it when w varies in time."""
        if self.disturbance.varies:
            raise VaryingDisturbanceError(f"{what} needs a constant agents.w; "
                                          "this one varies in time")
        return self.w


def _broadcast_gain(value, n, name) -> np.ndarray:
    return _per_agent(value, n, name, lambda v: (v > 0) & (v < np.inf),
                      "strictly positive and finite")


@dataclass(frozen=True)
class ControllerGains:
    """PI gains plus the anti-windup gain of the selected controller.

    mode "decentralized" carries a per-agent anti-windup vector kA;
    mode "coordinating" carries the shared scalar kC and the ratio alpha
    used by the tuning rule a_i*kP_i = (1+alpha)*kI_i.
    """

    kP: np.ndarray
    kI: np.ndarray
    mode: str = DECENTRALIZED
    kA: Optional[np.ndarray] = None
    kC: Optional[float] = None
    alpha: Optional[float] = None
    n_agents: Optional[int] = None  # broadcast target when all gains are scalar

    def __post_init__(self):
        lengths = {np.atleast_1d(np.asarray(g, dtype=float)).shape[0]
                   for g in (self.kP, self.kI, self.kA) if g is not None}
        lengths.discard(1)
        if len(lengths) > 1:
            raise DimensionError(f"gain vectors disagree in length: {sorted(lengths)}")
        n = self.n_agents or (lengths.pop() if lengths else 1)
        object.__setattr__(self, "n_agents", n)
        object.__setattr__(self, "kP", _broadcast_gain(self.kP, n, "kP"))
        object.__setattr__(self, "kI", _broadcast_gain(self.kI, n, "kI"))
        if self.mode == DECENTRALIZED:
            if self.kA is None:
                raise ValueError("decentralized gains require kA")
            if self.kC is not None or self.alpha is not None:
                raise ValueError("kC/alpha are coordinating-mode gains")
            object.__setattr__(self, "kA", _broadcast_gain(self.kA, n, "kA"))
        elif self.mode == COORDINATING:
            if self.kA is not None:
                raise ValueError("kA is a decentralized-mode gain")
            if self.kC is None or self.alpha is None:
                raise ValueError("coordinating gains require kC and alpha")
            if not (0 < float(self.kC) < np.inf and 0 < float(self.alpha) < np.inf):
                raise ValueError("kC and alpha must be strictly positive and finite")
            object.__setattr__(self, "kC", float(self.kC))
            object.__setattr__(self, "alpha", float(self.alpha))
        else:
            raise ValueError(f"unknown controller mode {self.mode!r}")

    @property
    def n(self) -> int:
        return len(self.kP)


@dataclass(frozen=True)
class TuningCheck:
    """One inequality/equality instance of a tuning rule."""

    label: str
    agent: Optional[int]
    lhs: float
    rhs: float
    ok: bool

    def __str__(self):
        where = "global" if self.agent is None else f"agent {self.agent}"
        mark = "ok" if self.ok else "FAIL"
        return f"[{mark}] {self.label} ({where}): {self.lhs:.6g} vs {self.rhs:.6g}"


@dataclass(frozen=True)
class TuningReport:
    """Outcome of a tuning-rule validation; failures are data, not errors."""

    mode: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        head = f"tuning[{self.mode}]: {'pass' if self.passed else 'FAIL'}"
        return "\n".join([head] + [f"  {c}" for c in self.checks])


def validate_decentralized_tuning(agents: AgentEnsemble, gains: ControllerGains) -> TuningReport:
    """Check kP_i*a_i > kI_i and kP_i*kA_i < 1 for every agent."""
    if gains.mode != DECENTRALIZED:
        raise ValueError("gains are not in decentralized mode")
    _check_len(gains.kP, agents.n, "kP")
    checks = []
    for i in range(agents.n):
        lhs = gains.kP[i] * agents.a[i]
        checks.append(TuningCheck("kP*a > kI", i, lhs, gains.kI[i], lhs > gains.kI[i]))
    for i in range(agents.n):
        lhs = gains.kP[i] * gains.kA[i]
        checks.append(TuningCheck("kP*kA < 1", i, lhs, 1.0, lhs < 1.0))
    return TuningReport(DECENTRALIZED, tuple(checks))


def validate_coordinating_tuning(agents: AgentEnsemble, gains: ControllerGains) -> TuningReport:
    """Check a_i*kP_i == (1+alpha)*kI_i per agent and (kC/2)*sum(kP) <= 1.

    The per-agent equality is tested with the relative tolerance TUNING_RTOL.
    """
    if gains.mode != COORDINATING:
        raise ValueError("gains are not in coordinating mode")
    _check_len(gains.kP, agents.n, "kP")
    checks = []
    for i in range(agents.n):
        lhs = agents.a[i] * gains.kP[i]
        rhs = (1.0 + gains.alpha) * gains.kI[i]
        ok = bool(np.isclose(lhs, rhs, rtol=TUNING_RTOL, atol=0.0))
        checks.append(TuningCheck("a*kP == (1+alpha)*kI", i, lhs, rhs, ok))
    lhs = 0.5 * gains.kC * float(np.sum(gains.kP))
    checks.append(TuningCheck("(kC/2)*sum(kP) <= 1", None, lhs, 1.0, lhs <= 1.0))
    return TuningReport(COORDINATING, tuple(checks))


def validate_tuning(agents: AgentEnsemble, gains: ControllerGains) -> TuningReport:
    """Dispatch to the validator matching ``gains.mode``."""
    if gains.mode == DECENTRALIZED:
        return validate_decentralized_tuning(agents, gains)
    return validate_coordinating_tuning(agents, gains)


def enforce_tuning(agents: AgentEnsemble, gains: ControllerGains, force: bool) -> TuningReport:
    """The :func:`validate_tuning` report; unless it passed or ``force`` is
    set, a one-line TuningError that lists the failed checks and the switch."""
    report = validate_tuning(agents, gains)
    if not report.passed and not force:
        raise TuningError(f"tuning rule violated ({'; '.join(map(str, report.failures()))}); "
                          "set \"force\": true in the config's controller section, or pass "
                          "force=True from Python, to run anyway")
    return report


# ---------------------------------------------------------------------------
# iterative solvers shared by every module

#: step halvings the Armijo line search may take within one Newton step
MAX_BACKTRACKS = 30
_ARMIJO = 1e-4
#: iterations a bracketed root search may take
ROOT_MAX_ITER = 100


def damped_newton(lin: Callable, res: Callable, x, done: Callable, max_steps: int,
                  fail: Callable, steps: int = 0):
    """Newton on F(x) = 0 with Armijo backtracking on 0.5*|F|^2: ``lin(x)``
    gives (F, dF/dx), ``res(x)`` F alone at the line search's trial points,
    and ``done(F)`` stops it.  ``steps`` counts on from earlier solves up to
    ``max_steps``; returns (x, steps).  Raises ``fail(reason, x, F, steps)``
    at the last accepted x when the budget runs out, dF/dx is singular or
    MAX_BACKTRACKS halvings bring no sufficient decrease."""
    F, J = lin(x)
    while not done(F):
        if steps >= max_steps:
            raise fail(f"budget of {max_steps} steps used up", x, F, steps)
        steps += 1
        try:
            d = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise fail("singular Jacobian", x, F, steps) from None
        phi = float(F @ F)
        t = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            x_try = x + t * d
            F_try = res(x_try)
            if float(F_try @ F_try) <= (1.0 - 2.0 * _ARMIJO * t) * phi:
                break
            t *= 0.5
        else:
            raise fail(f"no sufficient decrease in {MAX_BACKTRACKS} backtracks", x, F, steps)
        x = x_try
        F, J = lin(x)
    return x, steps


def bracketed_root(f: Callable, lo: float, hi: float, fail: Callable, xtol: float = 2e-12):
    """The root of the scalar f, which changes sign between lo and hi, by
    Brent's method; raises ``fail(iterations)`` after ROOT_MAX_ITER."""
    from scipy.optimize import brentq  # deferred: scipy is slow to import

    root, info = brentq(f, lo, hi, xtol=xtol, maxiter=ROOT_MAX_ITER, full_output=True,
                        disp=False)
    if not info.converged:
        raise fail(info.iterations)
    return root
