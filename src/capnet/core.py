"""Core vector types, actuator nonlinearities and controller tuning rules.

Everything here is plain numpy on 1-D float arrays.  The types are frozen
dataclasses and the operations are pure functions, so they are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError

DECENTRALIZED = "decentralized"
COORDINATING = "coordinating"


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


def sign(x) -> np.ndarray:
    """Element-wise sign with sign(0) = 0 exactly."""
    return np.sign(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class AgentEnsemble:
    """Internal decay rates a_i > 0 and disturbances w_i of every agent.

    ``w`` is either a constant vector or any object with an ``eval(t)``
    method returning the disturbance vector at time t, and the (m, n) stack
    of them at a 1-D array of m times (see
    :class:`capnet.sim.DisturbanceProfile`).
    """

    a: np.ndarray
    w: object

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, "a"))
        if not np.all((self.a > 0) & (self.a < np.inf)):
            raise ValueError("agent rates a_i must be strictly positive and finite")
        if not self.w_is_constant:
            return
        object.__setattr__(self, "w", as_vector(self.w, "w"))
        if len(self.w) != self.n:
            raise DimensionError("w and a differ in length")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("disturbances w_i must be finite")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def w_is_constant(self) -> bool:
        return not hasattr(self.w, "eval")

    def w_at(self, t) -> np.ndarray:
        """Disturbance vector at time t, or the (m, n) stack of them at each
        of a 1-D array of m times."""
        if self.w_is_constant:
            return self.w if np.ndim(t) == 0 else np.tile(self.w, (len(t), 1))
        w = np.asarray(self.w.eval(t), dtype=float)
        _check_len(w, self.n, "w(t)")
        return w


def _broadcast_gain(value, n, name) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(n, float(v))
    v = as_vector(v, name)
    if len(v) != n:
        raise DimensionError(f"{name} has length {len(v)}, expected {n}")
    if not np.all(v > 0):
        raise ValueError(f"{name} must be strictly positive")
    return v


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
            if float(self.kC) <= 0 or float(self.alpha) <= 0:
                raise ValueError("kC and alpha must be strictly positive")
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


def validate_coordinating_tuning(
    agents: AgentEnsemble, gains: ControllerGains, rtol: float = 1e-9
) -> TuningReport:
    """Check a_i*kP_i == (1+alpha)*kI_i per agent and (kC/2)*sum(kP) <= 1.

    The per-agent equality is tested with relative tolerance ``rtol``;
    exact float equality would be brittle under config round-trips.
    """
    if gains.mode != COORDINATING:
        raise ValueError("gains are not in coordinating mode")
    _check_len(gains.kP, agents.n, "kP")
    checks = []
    for i in range(agents.n):
        lhs = agents.a[i] * gains.kP[i]
        rhs = (1.0 + gains.alpha) * gains.kI[i]
        ok = bool(np.isclose(lhs, rhs, rtol=rtol, atol=0.0))
        checks.append(TuningCheck("a*kP == (1+alpha)*kI", i, lhs, rhs, ok))
    lhs = 0.5 * gains.kC * float(np.sum(gains.kP))
    checks.append(TuningCheck("(kC/2)*sum(kP) <= 1", None, lhs, 1.0, lhs <= 1.0))
    return TuningReport(COORDINATING, tuple(checks))


def validate_tuning(agents: AgentEnsemble, gains: ControllerGains) -> TuningReport:
    """Dispatch to the validator matching ``gains.mode``."""
    if gains.mode == DECENTRALIZED:
        return validate_decentralized_tuning(agents, gains)
    return validate_coordinating_tuning(agents, gains)
