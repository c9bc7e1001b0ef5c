"""Closed-loop vector fields for the two anti-windup PI controllers.

Both controllers share the PI law u = -kP*x - kI*z.  They differ in how the
integrator reacts to saturation: the decentralized law feeds each agent's own
saturation excess back into its integrator, while the coordinating law feeds
the same shared sum of all excesses into every integrator.

The module also provides the (zeta, u) coordinates in which the stability
certificates are expressed, both certificate functions, and trajectory
monitors that flag any accepted step on which a certificate increased beyond
slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (COORDINATING, DECENTRALIZED, AgentEnsemble, ControllerGains,
                   SaturationBounds, as_vector, deadzone)
from .errors import DimensionError, TuningError
from .interconnect import Interconnection

#: multiplicative slack for the certificate-decrease monitors; discrete
#: integration may produce increases of this order without meaning anything
MONITOR_SLACK = 1e-7


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """Plant + interconnection + controller, dimension-checked once."""

    agents: AgentEnsemble
    ic: Interconnection
    gains: ControllerGains
    bounds: SaturationBounds

    def __post_init__(self):
        n = self.agents.n
        if self.gains.n != n or self.ic.n != n or self.bounds.n != n:
            raise DimensionError("agents, gains, interconnection and bounds disagree in size")
        if not (np.array_equal(self.bounds.lower, self.ic.bounds.lower)
                and np.array_equal(self.bounds.upper, self.ic.bounds.upper)):
            raise ValueError("system bounds must equal the interconnection domain")

    @property
    def n(self) -> int:
        return self.agents.n

    # positive diagonal factors used by the certificates:
    # scaled integral gain c = kI/kP and the margin d = a - c
    @property
    def c_ratio(self) -> np.ndarray:
        return self.gains.kI / self.gains.kP

    @property
    def d_margin(self) -> np.ndarray:
        return self.agents.a - self.c_ratio


@dataclass
class ClosedLoopState:
    """Tracking errors x and integral states z."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise DimensionError("x and z must be 1-D arrays of equal length")

    @classmethod
    def zero(cls, n: int) -> "ClosedLoopState":
        return cls(np.zeros(n), np.zeros(n))


def control_input(gains: ControllerGains, s: ClosedLoopState) -> np.ndarray:
    """PI law u = -kP*x - kI*z."""
    return -gains.kP * s.x - gains.kI * s.z


def field(sys: ClosedLoopSystem, s: ClosedLoopState, t: float = 0.0):
    """Time derivatives (dx, dz) of the loop the gains select, at time t:
    :func:`field_stack` of one state."""
    return field_stack(sys, s.x, s.z, t)


def field_stack(sys: ClosedLoopSystem, x, z, t=0.0):
    """Time derivatives (dx, dz) of the loop the gains select, for a stack
    of states or for one.

    x and z are (m, n) arrays holding one state per row, or (n,) arrays of
    one state; t is one time for every row or an (m,) array of them.  Both
    loops share dx = -a*x + b(v) + w with v the clipped PI input
    u = -kP*x - kI*z.  The decentralized integrator gets dz = x + kA*(u - v),
    its own excess; the coordinating one gets dz = x + kC*sum_j (u - v)_j,
    the same shared sum in every agent.  u is clipped into the box once for
    the whole stack, so b(v) comes from one call of the raw ``ic.fn`` on the
    stack: a clipped v cannot fail the domain check of
    ``eval_interconnection``.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.ndim not in (1, 2) or x.shape != z.shape or x.shape[-1] != sys.n:
        raise DimensionError(f"x and z must both have shape (m, {sys.n}) or ({sys.n},)")
    u, v = _inputs(sys, x, z)
    b = np.asarray(sys.ic.fn(v if v.ndim == 2 else v[None]), dtype=float)
    return _derivatives(sys, x, u, v, b.reshape(v.shape), sys.agents.disturbance.eval(t))


def _inputs(sys: ClosedLoopSystem, x, z):
    """The PI inputs u and their clipped values v, one state or a stack;
    v has np.clip's bits from its two ufuncs, without its wrapper's cost
    per call."""
    u = -sys.gains.kP * x - sys.gains.kI * z
    return u, np.minimum(np.maximum(u, sys.bounds.lower), sys.bounds.upper)


def _derivatives(sys: ClosedLoopSystem, x, u, v, b, w):
    """(dx, dz) at the states x with PI inputs u, clipped inputs v,
    resources b = b(v) and disturbance w, one state or a stack."""
    gains = sys.gains
    dx = -sys.agents.a * x + b + w
    if gains.mode == DECENTRALIZED:
        dz = x + gains.kA * (u - v)
    else:
        dz = x + gains.kC * (u - v).sum(axis=-1, keepdims=True)
    return dx, dz


def field_linearization(sys: ClosedLoopSystem, s: ClosedLoopState, t: float):
    """The derivatives (dx, dz) of either loop at one state and time t, with
    their Jacobian J = d(dx, dz)/d(x, z) in block form: db/dv and the mask
    of the agents strictly inside the box, from one
    :meth:`~capnet.interconnect.Interconnection.linearize` call.

    du/d(x, z) = (-kP, -kI) reaches b(v) through the free agents, and the
    anti-windup excess u - v through the saturated ones.  With p = -kP and
    i = -kI on the free agents, e = -kP and g = -kI on the saturated ones
    (zero elsewhere), and K = diag(kA) for the decentralized loop or
    kC*1*1' for the coordinating one:

        J = [[db/dv diag(p) - diag(a),  db/dv diag(i)],
             [I + K diag(e),            K diag(g)    ]].

    :func:`loop_factor` solves with I/(h*gamma) - J in this form.
    """
    return _linearization(sys, s.x, s.z, sys.agents.disturbance.eval(t), sys.ic.linearize)[:4]


def _linearization(sys: ClosedLoopSystem, x, z, w, linearize):
    """:func:`field_linearization` at the state (x, z) under the
    disturbance w, with db/dv from ``linearize``, then the input u."""
    u, v = _inputs(sys, x, z)
    b, Jb = linearize(v)
    dx, dz = _derivatives(sys, x, u, v, b, w)
    return dx, dz, Jb, (u > sys.bounds.lower) & (u < sys.bounds.upper), u


def _first_switch(lower, upper, u, du, ddu):
    """The time until the first agent's input u reaches the bound ahead of
    it along u + du*t + ddu*t^2/2, where the field's Jacobian jumps: the
    next bound above u where du > 0 and below it where du < 0.  inf when no
    agent moves toward a bound or each one that does turns before it.  All
    five are sequences with one float per agent; a loop over them beats
    a dozen array operations at the sizes here."""
    first = math.inf
    for ui, di, ddi, lo, hi in zip(u, du, ddu, lower, upper):
        if di > 0:
            gap = (lo if ui < lo else hi) - ui
        elif di < 0:
            gap = (hi if ui > hi else lo) - ui
        else:
            continue
        disc = di * di + 2.0 * ddi * gap
        if di * gap > 0 and disc >= 0:
            # the smaller positive root, free of cancellation
            first = min(first, 2.0 * gap / (di + math.copysign(math.sqrt(disc), di)))
    return first


def loop_factor(sys: ClosedLoopSystem, Jb, free):
    """``factor(c)`` for the loop Jacobian J of :func:`field_linearization`'s
    db/dv and free mask: a solver ``solve(r)`` of (c*I - J) k = r, for a
    2n-vector r = (r1, r2), from one n x n factorization per c.

    The z block D = c*I - K diag(g) is diagonal for the decentralized loop,
    and c*I less the rank-1 kC*1*g' for the coordinating one, inverted by
    Sherman-Morrison.  The x part of k solves the Schur complement
    S = c*I - J11 - J12 D^-1 J21, an n x n matrix: k_x = S^-1 (r1 +
    J12 D^-1 r2) = W r with W = S^-1 [I, J12 D^-1], and then
    k_z = D^-1 (r2 + J21 k_x).  Since i and e, g are zero on complementary
    agents, S = diag(c + a) + db/dv diag(kP + kI/c on the free agents)
    less, coordinating, a rank-1 term.  S is inverted once per c, which
    raises LinAlgError where it is singular, and the rows of k_x and k_z
    are assembled into the 2n x 2n inverse M of c*I - J, so that
    ``solve(r)`` is the one product M r.
    """
    n, gains, a = sys.n, sys.gains, sys.agents.a
    decentralized = gains.mode == DECENTRALIZED
    saturated = ~free
    to_b = -gains.kI * free
    excess_x, excess_z = -gains.kP * saturated, -gains.kI * saturated
    # what depends on the linearization alone, once for every c
    if decentralized:
        d_sat, j21 = gains.kA * excess_z, 1.0 + gains.kA * excess_x
    else:
        to_b_sum, shared_z = (Jb @ to_b)[:, None], gains.kC * excess_z.sum()

    def factor(c):
        S = Jb * (free * (gains.kP + gains.kI / c))
        R = Jb * (to_b / c)  # J12 D^-1
        if not decentralized:
            scale = gains.kC / (c * (c - shared_z))
            alpha, beta = scale * excess_z, scale * (excess_z + c * excess_x)
            S -= to_b_sum * beta
            R += to_b_sum * alpha
        S.reshape(-1)[::n + 1] += c + a
        M = np.empty((2 * n, 2 * n))
        W = M[:n]  # k_x = W r
        W[:, :n] = np.linalg.inv(S)
        np.matmul(W[:, :n], R, out=W[:, n:])
        if decentralized:
            # k_z = (r2 + j21*k_x)/d
            d = c - d_sat
            np.multiply((j21 / d)[:, None], W, out=M[n:])
            M.reshape(-1)[2 * n * n + n::2 * n + 1] += 1.0 / d
        else:
            # k_z = (r2 + k_x)/c plus the shared term alpha.r2 + beta.k_x = g.r
            g = beta @ W
            g[n:] += alpha
            np.add(W / c, g, out=M[n:])
            M.reshape(-1)[2 * n * n + n::2 * n + 1] += 1.0 / c
        return M.__matmul__

    return factor


def state_maps(sys: ClosedLoopSystem):
    """The maps RODAS4 evaluates at one state y = (x, z) of the loop, built
    once per run: ``fun(t, y)`` is the field, ``lin(t, y, dfdt)`` the
    triple of the field, :func:`loop_factor` of its Jacobian there and the
    time until the first saturation switch that the linearization predicts
    (:func:`_first_switch`), with dfdt = (dw/dt, 0) the field's slope in t
    ahead, and ``check()`` runs the interconnection's deferred checks
    (:meth:`~capnet.interconnect.Interconnection.point_maps`) on every
    evaluation since its last call.  ``fun`` and ``lin`` check nothing of
    b(v) themselves: on the DHN every check of a row's flow solve (valve
    box, pump, positive flows, pressure balance) runs in ``check()``, once
    per attempted step, on the stack of the step's rows.  Each gives the
    bits of :func:`field_stack` and :func:`field_linearization` at that
    state.  w(t) is evaluated once per distinct time: RODAS4's stages 4 and
    5 and the next linearization all sit at t + h, so the last one is kept,
    and w at each breakpoint of its profile, where a step that lands and is
    rejected leaves for another that lands there later, is kept for the run.
    """
    n = sys.n
    b_at, linearize, check = sys.ic.point_maps()
    w = sys.agents.disturbance
    breakpoints = frozenset(w.times.tolist())
    w_last, w_breakpoint = lru_cache(maxsize=1)(w.eval), lru_cache(maxsize=None)(w.eval)

    def w_at(t):
        return (w_breakpoint if t in breakpoints else w_last)(t)

    def fun(t, y):
        x = y[:n]
        u, v = _inputs(sys, x, y[n:])
        return np.concatenate(_derivatives(sys, x, u, v, b_at(v), w_at(t)))

    du_dx, du_dz = -sys.gains.kP, -sys.gains.kI
    lower, upper = sys.bounds.lower.tolist(), sys.bounds.upper.tolist()

    def lin(t, y, dfdt):
        dx, dz, Jb, free, u = _linearization(sys, y[:n], y[n:], w_at(t), linearize)
        # u's rate du and its change ddu along J (dx, dz) + dfdt, in J's
        # block form: v moves with u on the free agents only
        du = du_dx * dx + du_dz * dz
        dv = free * du
        ddx, ddz = _derivatives(sys, dx, du, dv, Jb @ dv, dfdt[:n])
        ddu = du_dx * ddx + du_dz * ddz
        return (np.concatenate((dx, dz)), loop_factor(sys, Jb, free),
                _first_switch(lower, upper, u.tolist(), du.tolist(), ddu.tolist()))

    return fun, lin, check


# ---------------------------------------------------------------------------
# coordinates


def to_zeta_u(s: ClosedLoopState, gains: ControllerGains):
    """Map (x, z) to (zeta, u) with zeta = -kI*z and u = -kP*x - kI*z."""
    return _zeta_u(gains, s.x, s.z)


def _zeta_u(gains, x, z):
    """(zeta, u) of one state or of each row of an (m, n) stack of them."""
    zeta = -gains.kI * z
    u = -gains.kP * x + zeta
    return zeta, u


def from_zeta_u(zeta, u, gains: ControllerGains) -> ClosedLoopState:
    """Exact inverse of :func:`to_zeta_u`."""
    zeta = np.asarray(zeta, dtype=float)
    u = np.asarray(u, dtype=float)
    x = (zeta - u) / gains.kP
    z = -zeta / gains.kI
    return ClosedLoopState(x, z)


# ---------------------------------------------------------------------------
# certificates


def lyapunov_decentralized(sys: ClosedLoopSystem, zeta_shift, u_shift) -> float:
    """Weighted 1-norm certificate of the decentralized loop.

    Arguments are the deviations (zeta - zeta0, u - u0) from an equilibrium.
    V = sum_i eta_i*d_i/(kP_i*c_i) |zeta~_i| + eta_i/kP_i |u~_i|, which
    requires the tuning margin d_i = a_i - kI_i/kP_i to be positive.
    """
    return float(_decentralized_value(_decentralized_weights(sys),
                                      np.asarray(zeta_shift, dtype=float),
                                      np.asarray(u_shift, dtype=float)))


def _decentralized_weights(sys: ClosedLoopSystem):
    d = sys.d_margin
    if np.any(d <= 0):
        raise TuningError("certificate needs kP_i*a_i > kI_i for every agent")
    eta, kP, c = sys.ic.eta, sys.gains.kP, sys.c_ratio
    return eta * d / (kP * c), eta / kP


def _decentralized_value(weights, zeta_shift, u_shift):
    """V of one shift, or of each row of a stack: a row is summed with the
    arithmetic of a single shift."""
    w_zeta, w_u = weights
    return (np.sum(w_zeta * np.abs(zeta_shift), axis=-1)
            + np.sum(w_u * np.abs(u_shift), axis=-1))


def lyapunov_coordinating(sys: ClosedLoopSystem, zeta, u) -> float:
    """Quadratic dead-zone certificate of the coordinating loop.

    V = 1/2 dz(zeta)' D R^-1 C^-1 dz(zeta) + 1/2 dz(u)' R^-1 dz(u), with the
    dead-zones taken against the actuator bounds.  Zero exactly when both
    zeta and u are inside the bounds.
    """
    return float(_coordinating_value(sys, _coordinating_weight(sys),
                                     deadzone(np.asarray(zeta, dtype=float), sys.bounds),
                                     deadzone(np.asarray(u, dtype=float), sys.bounds)))


def _coordinating_weight(sys: ClosedLoopSystem) -> np.ndarray:
    if sys.gains.mode != COORDINATING:
        raise ValueError("system gains are not coordinating")
    d = sys.d_margin
    if np.any(d <= 0):
        raise TuningError("certificate needs a_i > kI_i/kP_i for every agent")
    return d / (sys.gains.kI * sys.c_ratio)


def _coordinating_value(sys, w_zeta, dz_zeta, dz_u):
    """V of one pair of dead-zones, or of each row of a stack of them."""
    return (0.5 * np.sum(w_zeta * dz_zeta ** 2, axis=-1)
            + 0.5 * np.sum(dz_u ** 2 / sys.gains.kI, axis=-1))


# ---------------------------------------------------------------------------
# monitors


@dataclass
class MonitorRecord:
    t: float
    value: float
    increase: float


class LyapunovMonitor:
    """Checks a certificate along the accepted integrator steps of one run.

    Subclasses define the certificate, ``value``, and when a state is in
    scope, ``in_scope``.  Both take a stack of states as two (m, n) arrays x
    and z and return one entry per row.  :meth:`check` flags every step that
    starts in scope and on which V increased by more than slack*(1 + V) of
    its start, with ``slack`` the module's MONITOR_SLACK.  A varying w, for
    which no certificate holds, is refused here (VaryingDisturbanceError).
    """

    name = "lyapunov"
    slack = MONITOR_SLACK

    def __init__(self, sys: ClosedLoopSystem):
        sys.agents.constant_w(f"the {self.name} monitor")
        self.sys = sys
        self.violations: list = []

    def value(self, x, z) -> np.ndarray:
        raise NotImplementedError

    def in_scope(self, x, z) -> np.ndarray:
        return np.ones(np.shape(x)[:-1], dtype=bool)

    def check(self, t, x, z):
        """Record the violations along the run that reached the states
        (x[k], z[k]) at the times t[k], in order: one ``value`` and one
        ``in_scope`` call on the whole stack."""
        V = self.value(x, z)
        increase = V[1:] - V[:-1]
        flagged = self.in_scope(x, z)[:-1] & (increase > self.slack * (1.0 + V[:-1]))
        self.violations += [MonitorRecord(*rec) for rec in zip(
            np.asarray(t)[1:][flagged].tolist(), V[1:][flagged].tolist(),
            increase[flagged].tolist())]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_excess(self) -> float:
        if not self.violations:
            return 0.0
        return max(r.increase for r in self.violations)


class DecentralizedMonitor(LyapunovMonitor):
    """Decrease monitor for the decentralized certificate, anchored at a
    computed equilibrium (zeta0, u0), with the slack MONITOR_SLACK.  The
    tuning margin is checked and the certificate weights are built once,
    here; TuningError without a margin."""

    name = "decentralized-lyapunov"

    def __init__(self, sys, zeta0, u0):
        super().__init__(sys)
        self.zeta0 = as_vector(zeta0, "zeta0")
        self.u0 = as_vector(u0, "u0")
        self._weights = _decentralized_weights(sys)

    def value(self, x, z) -> np.ndarray:
        zeta, u = _zeta_u(self.sys.gains, x, z)
        return _decentralized_value(self._weights, zeta - self.zeta0, u - self.u0)


class CoordinatingMonitor(LyapunovMonitor):
    """Decrease monitor for the coordinating dead-zone certificate.

    Decrease is only guaranteed while the control is saturated, so steps
    starting from dz(u) = 0 are out of scope.  The slack is MONITOR_SLACK.
    The mode and tuning margin are checked and the weight is built once,
    here, with the errors of :func:`lyapunov_coordinating`.
    """

    name = "coordinating-lyapunov"

    def __init__(self, sys):
        super().__init__(sys)
        self._weight = _coordinating_weight(sys)

    def value(self, x, z) -> np.ndarray:
        zeta, u = _zeta_u(self.sys.gains, x, z)
        bounds = self.sys.bounds
        return _coordinating_value(self.sys, self._weight,
                                   deadzone(zeta, bounds), deadzone(u, bounds))

    def in_scope(self, x, z) -> np.ndarray:
        return np.any(deadzone(_zeta_u(self.sys.gains, x, z)[1], self.sys.bounds) != 0.0,
                      axis=-1)


def rejectable_disturbance(sys: ClosedLoopSystem) -> bool:
    """True when b(upper)+w > 0 > b(lower)+w, i.e. exact rejection of the
    constant w is feasible strictly inside the actuator box."""
    w = sys.agents.constant_w("rejectable_disturbance")
    hi = sys.ic(sys.bounds.upper) + w
    lo = sys.ic(sys.bounds.lower) + w
    return bool(np.all(hi > 0) and np.all(lo < 0))


def no_monitor_reason(sys: ClosedLoopSystem) -> Optional[str]:
    """Why no certificate monitor applies to sys, or None when one does.

    Both certificates need a constant disturbance and a positive tuning
    margin d = a - kI/kP; the coordinating one also needs w rejectable
    strictly inside the box.
    """
    if sys.agents.disturbance.varies:
        return "time-varying w"
    if np.any(sys.d_margin <= 0):
        return "tuning margin <= 0"
    if sys.gains.mode == COORDINATING and not rejectable_disturbance(sys):
        return "not rejectable"
    return None
