"""Time integration, the study's temperature profile and scenario execution.

The default integrator is an embedded Dormand-Prince Runge-Kutta 5(4) pair.
It steps a stack of states at once (``integrate_many``), every row under its
own step control, so many starts cost one loop of field evaluations on the
stack; ``integrate`` is the stack of one.  Stiff runs such as the
district-heating study use RODAS4 (``rosenbrock``) on the analytic
closed-loop Jacobian, one start at a time, stepping exactly on disturbance
kinks and across each saturation switch that a linearization predicts in
a short step of its own.  Its maps at one state, built once per run by
:func:`~capnet.control.state_maps`, give the stage field, the field with a
factor of I/(h*gamma) - J and the time to the next switch at each accepted
state from one linearization of the interconnection (an n x n Schur
complement, one factorization per attempted step), and the checks the
one-point solves defer, run once per attempted step.  Both integrators
return each row's accepted steps (time, state and derivative at every step
end); the certificate monitors check them, and the output grid is sampled
from them by cubic Hermite interpolation, each in one pass after the run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .control import (ClosedLoopState, ClosedLoopSystem, LyapunovMonitor, field, field_stack,
                      state_maps)
from .core import DisturbanceProfile, enforce_tuning
from .errors import ConfigError, IntegrationError, VaryingDisturbanceError

log = logging.getLogger(__name__)

#: the one-state closed-loop field under the name that perfbench/tracing.py
#: wraps; RK45 evaluates stacks through field_stack instead, and RODAS4 one
#: state through control.state_maps
loop_field = field

POLICIES = ("decentralized", "coordinating", "oracle-l1", "oracle-linf")


# ---------------------------------------------------------------------------
# the study's outdoor temperature


#: synthetic 96-hour outdoor temperature [degC]: mild start, daily swings,
#: a deep pit below -25 degC around hour 51, recovery toward -10 degC
TEMPERATURE_TIMES = np.array([0, 6, 12, 18, 24, 30, 33, 36, 42, 45, 47, 49,
                              51, 53, 55, 58, 62, 68, 74, 80, 86, 92, 96], dtype=float)
TEMPERATURE_VALUES = np.array([-5, -9, -6, -10, -13, -18, -16, -14, -19, -24, -26, -26.4,
                               -26.5, -26.4, -25.5, -23, -19, -15, -13, -14.5, -12, -11, -10])


def make_temperature_profile() -> DisturbanceProfile:
    """The shipped piecewise-linear outdoor temperature T_o(t)."""
    return DisturbanceProfile.piecewise(TEMPERATURE_TIMES, TEMPERATURE_VALUES)


# ---------------------------------------------------------------------------
# integrators


@dataclass
class SolverOptions:
    """Integration settings; defaults suit the desk-scale systems here."""

    method: str = "rk45"            # "rk45" | "rosenbrock"
    atol: float = 1e-8
    rtol: float = 1e-6
    output_dt: Optional[float] = None   # None: record accepted steps
    dt_init: Optional[float] = None
    dt_max: Optional[float] = None      # None: span/64
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk45", "rosenbrock"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("atol", "rtol", "output_dt", "dt_init", "dt_max"):
            val = getattr(self, name)
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be a finite number above 0, got {val!r}")


@dataclass
class IntegrationStats:
    accepted: int = 0
    rejected: int = 0
    n_field_evals: int = 0


@dataclass
class Trajectory:
    """Sampled closed-loop run: states, inputs, saturated inputs, certificate."""

    times: np.ndarray
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    lyapunov: Optional[np.ndarray]
    stats: IntegrationStats
    monitor: Optional[LyapunovMonitor] = None

    @property
    def n_points(self) -> int:
        return len(self.times)

    def state(self, k: int) -> ClosedLoopState:
        return ClosedLoopState(self.x[k].copy(), self.z[k].copy())

    def terminal_state(self) -> ClosedLoopState:
        return self.state(-1)


# Dormand-Prince 5(4) tableau; fifth-order solution is propagated, the
# embedded fourth-order difference drives step control (FSAL pair).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                           -92097 / 339200, 187 / 2100, 1 / 40])


def _hermite(t, t0, y0, f0, t1, y1, f1):
    """Cubic Hermite interpolant on one accepted step, or on each of a stack
    of them: the times are scalars or (k, 1) columns beside (k, d) states.

    (1 - s)^2 is taken by ``float_power``, which calls the C library's pow on
    every element as a scalar ``** 2`` does; an array ``** 2`` squares exactly
    and differs in the last bit on some points, so a stack would not give the
    bits of one step at a time.
    """
    h = t1 - t0
    s = (t - t0) / h
    sq = np.float_power(1 - s, 2)
    h00 = (1 + 2 * s) * sq
    h10 = s * sq
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


#: the most times an output grid may hold
MAX_OUTPUT_ROWS = 1_000_000


def _output_grid(t0, t1, dt):
    """Times t0, t0 + dt, ... ending exactly on t1.  Their count is worked
    out first: ValueError, before any array is made, beyond MAX_OUTPUT_ROWS."""
    steps = (t1 - t0) / dt + 1e-9
    m = int(steps) if steps < MAX_OUTPUT_ROWS else MAX_OUTPUT_ROWS
    short = t0 + dt * m < t1 - 1e-9 * max(1.0, abs(t1))  # t1 is appended
    if m + 1 + short > MAX_OUTPUT_ROWS:
        raise ValueError(f"output_dt {dt!r} over t_span ({t0!r}, {t1!r}) gives more than "
                         f"{MAX_OUTPUT_ROWS} output times")
    grid = t0 + dt * np.arange(m + 1)
    if short:
        return np.append(grid, t1)
    grid[-1] = t1
    return grid


def _sample(grid, T, Y, F):
    """Dense output on ``grid`` from one row's accepted steps (T, Y, F).

    The first grid time takes the start Y[0].  Every later one falls in the
    first step whose end is no more than 1e-12 before it; within 1e-12 of that
    end it takes the end's time and state, otherwise the step's Hermite
    interpolant.  Grid times past the last step are dropped.
    """
    j = np.searchsorted(T[1:] + 1e-12, grid[1:])  # step j ends at T[j + 1]
    g, j = grid[1:][j < len(T) - 1], j[j < len(T) - 1]
    end = g >= T[j + 1] - 1e-12
    ys = np.where(end[:, None], Y[j + 1], _hermite(g[:, None], T[j, None], Y[j], F[j],
                                                   T[j + 1, None], Y[j + 1], F[j + 1]))
    return np.append(grid[0], np.where(end, T[j + 1], g)), np.concatenate([Y[:1], ys])


def _integrate_rk45(fun, t0, t1, y0, opts):
    """Dormand-Prince 5(4) on a stack of states, one per row of y0.

    Every row keeps its own time, step size, error norm, accept/reject
    decision and step factor, so a row takes the same steps in any stack; a
    row leaves the stack once it reaches t1.  The stages of the rows still
    stepping live in one (k, 7, d) array, and each tableau row is applied by
    a matmul that numpy runs row by row, so every row gets the arithmetic of
    a stack of one.  ``fun(t, y)`` maps the (k,) times and (k, d) states of
    the rows still stepping to their derivatives.  No row attempts more than
    ``opts.max_steps`` steps.

    Returns, per row, its accepted steps as arrays (T, Y, F): the start and
    the end of every accepted step, with the state and the derivative (the
    FSAL stage) there; and one IntegrationStats per row.  Each step logs the
    rows it accepted as one chunk, and the chunks are split by row once, at
    the end.
    """
    span = t1 - t0
    dt_max = opts.dt_max if opts.dt_max is not None else span / 64.0
    dt_init = opts.dt_init if opts.dt_init is not None else min(dt_max, span / 100.0)
    m, d = y0.shape
    accepted, attempted = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    # time, state, derivative and step size of the rows still stepping; each
    # of them has attempted the same number of steps
    rows = np.arange(m)
    t, y, dt = np.full(m, t0), y0.copy(), np.full(m, dt_init)
    f = fun(t, y)
    log = [(rows, t, y, f)]
    t_end = t1 - 1e-12 * max(1.0, abs(t1))
    steps = 0
    while True:
        going = t < t_end
        if not going.all():
            attempted[rows[~going]] = steps
            rows, t, y, f, dt = rows[going], t[going], y[going], f[going], dt[going]
            if not len(rows):
                break
        h = np.minimum(np.minimum(dt, t1 - t), dt_max)
        underflow = h < 1e-14 * np.maximum(1.0, np.abs(t))
        if underflow.any():
            j = np.argmax(underflow)
            raise IntegrationError("step size underflow", t=float(t[j]), state=y[j].copy())
        if steps >= opts.max_steps:
            raise IntegrationError("step budget exhausted", t=float(t[0]), state=y[0].copy())
        steps += 1
        hc = h[:, None]
        ts = t[:, None] + _DP_C * hc
        k = np.empty((len(rows), 7, d))
        k[:, 0] = f
        for i in range(1, 7):
            k[:, i] = fun(ts[:, i], y + hc * (_DP_A[i] @ k[:, :i]))
        y_new = y + hc * (_DP_B5 @ k)
        err_vec = hc * (_DP_E @ k)
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.mean((err_vec / scale) ** 2, axis=1))
        ok = err <= 1.0
        t_new = t + h
        # FSAL: the last stage is f(t_new, y_new)
        log.append((rows[ok], t_new[ok], y_new[ok], k[ok, 6]))
        accepted[rows] += ok
        # grow by 0.9*err^-0.2 within [0.2, 5]; an error below 1e-10 grows
        # by the cap and a NaN error (fmax) shrinks by 0.2
        dt = h * np.minimum(5.0, np.fmax(0.2, 0.9 * np.maximum(err, 1e-10) ** -0.2))
        t = np.where(ok, t_new, t)
        y = np.where(ok[:, None], y_new, y)
        f = np.where(ok[:, None], k[:, 6], f)
    row_of, T, Y, F = (np.concatenate(col) for col in zip(*log))
    order = np.argsort(row_of, kind="stable")
    cuts = np.cumsum(accepted + 1)[:-1]
    steps_by_row = zip(*(np.split(a[order], cuts) for a in (T, Y, F)))
    stats = [IntegrationStats(int(a), int(n - a), int(1 + 6 * n))
             for a, n in zip(accepted, attempted)]
    return list(steps_by_row), stats


# RODAS4 (Hairer & Wanner, Solving ODEs II, sec. IV.7) in the transformed
# stages k_i of (I/(h*gamma) - J) k_i = f(t + c_i*h, y + sum_j a_ij*k_j)
#   + sum_j (c_ij/h)*k_j + h*d_i*df/dt.  Stiffly accurate: stage 6 is the
# order-4 solution, and k_6 its difference to the embedded order-3 one.
_RO_GAMMA = 0.25
_RO_C = (0.0, 0.386, 0.21, 0.63, 1.0, 1.0)
_RO_D = (0.25, -0.1043, 0.1035, -0.0362, 0.0, 0.0)
_RO_A = [np.array(row) for row in (
    (), (1.544,), (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895))]
_RO_A.append(np.append(_RO_A[4], 1.0))
_RO_CC = [np.array(row) for row in (
    (), (-5.6688,), (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.3193054312314,
     -6.058818238834054))]
#: each stage's two tableau rows, a_i and c_i, applied to k[:i] as one product
_RO_AC = [np.array([a, cc]) for a, cc in zip(_RO_A, _RO_CC)]


#: a step that would pass the first saturation switch that ``lin``
#: predicts stops this factor short of it, on the side it linearized; the
#: prediction is good to about 1e-3 of itself
_SWITCH_SHORT = 0.98
#: the next step then crosses the switch and ends this factor past it, so
#: that the linearization after it is on the far side
_SWITCH_PAST = 1.01
#: a switch predicted within this fraction of a step's start does not cut
#: the step short: the step is taken whole, which keeps a switch that
#: recurs at every step, as at an equilibrium with some u_i on its bound,
#: from shrinking the steps without end; nor is a crossing step shorter
#: than this fraction of the short step before it
_SWITCH_NEAR = 0.01


def _integrate_rosenbrock(fun, lin, check, t0, t1, y0, opts, stops, slopes):
    """RODAS4 under PI step control (Gustafsson 1991; Hairer's beta = 0.04),
    stepping onto the kinks of the field (Hairer & Wanner, Solving ODEs II,
    sec. IV.7; Gear & Osterby 1984).

    Every step ends exactly on each time in ``stops`` (sorted, ending at t1),
    and ``slopes`` holds the constant df/dt on the stretch up to each stop.
    ``fun(t, y)`` gives f at the stages, and ``lin(t, y, dfdt)`` the triple
    (f, factor, switch) at the start and at each accepted state, from one
    evaluation there, with dfdt the slope of the stretch ahead:
    ``factor(c)`` returns a solver of (c*I - J) k = r and raises
    LinAlgError where that matrix is singular, and ``switch`` is the time
    until the first kink of f that the linearization predicts (inf for
    none).  A step with its end past that kink is cut in two: it stops
    just short of the kink (_SWITCH_SHORT), and the next step crosses it
    and ends just past it (_SWITCH_PAST), unless the kink is within
    _SWITCH_NEAR of the step's start.  A step that ends past a kink gets
    no error estimate to trust: its stages there follow another Jacobian,
    and its error grows with the distance it runs past the kink, where the
    estimate does not see it.  So only the short crossing step runs past
    one, and the step after it resumes at the size proposed before it.  On
    the first step from a stop, where df/dt jumps, the stiff modes form a
    layer whose error shrinks like h^2 rather than h^4, so a rejection
    there shrinks the step by err^(-1/2) rather than err^(-1/4).

    One factor of I/(h*gamma) - J per attempted step serves all six
    stages; each stage applies its two tableau rows to the earlier stages
    as one product.  ``check()`` runs the checks that ``fun`` and ``lin``
    defer, once per attempted step, before it is accepted or rejected, and
    once at the end.  At most ``opts.max_steps`` steps are attempted.
    Returns the accepted steps as arrays (T, Y, F), as
    :func:`_integrate_rk45` gives one row's, and the IntegrationStats.
    """
    span = t1 - t0
    dt_max = opts.dt_max if opts.dt_max is not None else span / 64.0
    dt = opts.dt_init if opts.dt_init is not None else min(dt_max, span / 100.0)
    stats = IntegrationStats()
    t, y = t0, y0.copy()
    abs_y = np.abs(y)
    f, factor, switch = lin(t, y, slopes[0])
    stats.n_field_evals += 1
    steps = [(t, y, f)]
    err_prev, rejected_last, restart = 1.0, False, False
    short_step = 0.0  # the length of the accepted step that stopped short of a switch
    k = np.empty((6, len(y0)))
    last = len(stops) - 1
    for stretch, (stop, ft) in enumerate(zip(stops, slopes)):
        while t < stop:
            h = min(dt, dt_max)
            landing = t + h >= stop - 1e-12 * max(1.0, abs(stop))
            if landing:
                h = stop - t
            cut = None
            if short_step:
                if _SWITCH_PAST * switch < h:
                    h = max(_SWITCH_PAST * switch, _SWITCH_NEAR * short_step)
                    landing, cut = False, "cross"
            elif _SWITCH_NEAR * h <= switch < h:
                h, landing, cut = _SWITCH_SHORT * switch, False, "short"
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step size underflow", t=t, state=y.copy())
            if stats.accepted + stats.rejected >= opts.max_steps:
                raise IntegrationError("step budget exhausted", t=t, state=y.copy())
            try:
                solve = factor(1.0 / (h * _RO_GAMMA))
            except np.linalg.LinAlgError as exc:
                raise IntegrationError(f"singular Rosenbrock matrix: {exc}",
                                       t=t, state=y.copy()) from exc
            k[0] = solve(f + (h * _RO_D[0]) * ft)
            for i in range(1, 6):
                ac = _RO_AC[i] @ k[:i]
                y_stage = y + ac[0]
                k[i] = solve(fun(t + _RO_C[i] * h, y_stage) + ac[1] / h + (h * _RO_D[i]) * ft)
            stats.n_field_evals += 5
            check()
            y_new = y_stage + k[5]  # the last stage sits at y + _RO_A[5] @ k[:5]
            abs_new = np.abs(y_new)
            e = k[5] / (opts.atol + opts.rtol * np.maximum(abs_y, abs_new))
            err = math.sqrt(e @ e / len(e))
            if err <= 1.0:
                t = stop if landing else t + h
                y, abs_y = y_new, abs_new
                f, factor, switch = lin(t, y, slopes[min(stretch + landing, last)])
                stats.n_field_evals += 1
                steps.append((t, y, f))
                stats.accepted += 1
                err = max(err, 1e-10)
                growth = min(5.0, max(0.2, 0.9 * err ** -0.22 * err_prev ** 0.04))
                if rejected_last:
                    growth = min(growth, 1.0)
                err_prev, rejected_last, restart = err, False, landing
                short_step = h if cut == "short" else 0.0
                # the sliver that crossed a switch tells nothing of the step
                # the field allows: the step proposed before it stands
                floor = dt if cut == "cross" else 0.0
            else:  # also when err is NaN: max(0.2, nan) is 0.2
                stats.rejected += 1
                growth = max(0.2, 0.9 * err ** (-0.5 if restart else -0.25))
                rejected_last, floor = True, 0.0
            dt = max(floor, h * growth)
    check()
    return tuple(np.array(col) for col in zip(*steps)), stats


def integrate(
    sys: ClosedLoopSystem,
    s0: ClosedLoopState,
    t_span,
    opts: Optional[SolverOptions] = None,
    monitor: Optional[LyapunovMonitor] = None,
) -> Trajectory:
    """Integrate the closed loop over t_span and sample the output grid.

    The monitor, when given, checks the certificate across every accepted
    step once the run ends; a monitor holds a constant w by construction.
    """
    return integrate_many(sys, [s0], t_span, opts, [monitor])[0]


def integrate_many(
    sys: ClosedLoopSystem,
    starts,
    t_span,
    opts: Optional[SolverOptions] = None,
    monitors=None,
) -> list:
    """Integrate the closed loop from every state in ``starts`` over t_span;
    one Trajectory per start, each as :func:`integrate` gives it alone.

    RK45 steps all starts together as one stack, each row under its own
    step control; the Rosenbrock method runs them one after another.  Either
    returns each row's accepted steps, and everything else is one pass over
    them per row: ``monitors`` holds one LyapunovMonitor or None per start,
    and each monitor checks its row's accepted states at once
    (:meth:`~capnet.control.LyapunovMonitor.check`), then the output grid is
    sampled from the same steps, a grid built before the first step.  w(t)
    is ``sys.agents.disturbance``; RODAS4 steps exactly onto each of its
    breakpoints and refuses a varying one without any (VaryingDisturbanceError).

    The steps are held until the last row ends, (1 + 4n)*8 bytes per
    accepted row-step: under 1 MB on the shipped workloads, but about 120 MB
    for a 22-agent ``verify --stability`` at t_max 1600 (some 170 000
    row-steps).
    """
    opts = opts or SolverOptions()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not starts:
        return []
    n = sys.n
    monitors = [None] * len(starts) if monitors is None else list(monitors)
    if len(monitors) != len(starts):
        raise ValueError("need one monitor (or None) per start")
    grid = None if opts.output_dt is None else _output_grid(t0, t1, opts.output_dt)
    y0 = np.array([np.concatenate([s0.x, s0.z]) for s0 in starts])

    def fun_stack(t, y):
        dx, dz = field_stack(sys, y[:, :n], y[:, n:], t)
        return np.concatenate([dx, dz], axis=1)

    if opts.method == "rk45":
        steps, stats = _integrate_rk45(fun_stack, t0, t1, y0, opts)
    else:
        # w(t) is affine between consecutive breakpoints: one slope per
        # stretch, from w at t0 and at each stop, each evaluated once
        w = sys.agents.disturbance
        if w.varies and not len(w.times):
            raise VaryingDisturbanceError(
                "method 'rosenbrock' steps on the breakpoints of a varying w, and this one "
                "is known only through eval; use method 'rk45'")
        ends = [t0] + [tb for tb in w.times if t0 < tb < t1] + [t1]
        ws = [w.eval(t) for t in ends]
        slopes = [np.concatenate([(wb - wa) / (tb - ta), np.zeros(n)])
                  for ta, tb, wa, wb in zip(ends, ends[1:], ws, ws[1:])]
        maps = state_maps(sys)
        steps, stats = zip(*(_integrate_rosenbrock(*maps, t0, t1, row, opts, ends[1:], slopes)
                             for row in y0))
    trajs = []
    for (T, Y, F), st, mon in zip(steps, stats, monitors):
        if mon is not None:
            mon.check(T, Y[:, :n], Y[:, n:])
        times, ys = (T, Y) if grid is None else _sample(grid, T, Y, F)
        trajs.append(_trajectory(sys, times, ys, st, mon))
    return trajs


def _trajectory(sys, times, ys, stats, monitor) -> Trajectory:
    n = sys.n
    xs, zs = ys[:, :n], ys[:, n:]
    us = -sys.gains.kP * xs - sys.gains.kI * zs
    vs = np.clip(us, sys.bounds.lower, sys.bounds.upper)
    lyap = None if monitor is None else monitor.value(xs, zs)
    return Trajectory(times=times, x=xs, z=zs, u=us, v=vs,
                      lyapunov=lyap, stats=stats, monitor=monitor)


# ---------------------------------------------------------------------------
# scenario execution


@dataclass
class Scenario:
    """The settings of one run; its summary reads everything else off ``system``."""

    policy: str
    system: ClosedLoopSystem  # its agents and interconnection serve every policy
    t_span: tuple
    opts: SolverOptions
    force: bool = False
    out_dir: Optional[Path] = None
    prefix: str = "run"


@dataclass
class RunArtifacts:
    policy: str
    trajectory: Optional[Trajectory]
    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    summary: dict
    csv_path: Optional[Path] = None
    summary_path: Optional[Path] = None


def write_trajectory_csv(path: Path, times, x, u, v, lyapunov=None):
    """CSV contract: header t,x1..xn,u1..un,v1..vn,V with 17 significant
    digits, UTF-8 and LF line endings; V is empty when no monitor ran.

    Each row is written by one printf-style format, whose ``%.17g`` gives
    the digits of ``f"{val:.17g}"``."""
    n = x.shape[1]
    cols = (["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(n)]
            + [f"v{i+1}" for i in range(n)] + ["V"])
    columns = [np.asarray(times, dtype=float)[:, None], x, u, v]
    if lyapunov is not None:
        columns.append(np.asarray(lyapunov, dtype=float)[:, None])
    fmt = ",".join(["%.17g"] * (3 * n + 1) + ["" if lyapunov is None else "%.17g"]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(fmt % tuple(row) for row in np.hstack(columns).tolist())


def write_summary(path: Path, summary: dict):
    """One key=value line per entry, sorted by key."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(summary):
            fh.write(f"{key}={summary[key]}\n")


def _deviation_stats(times, x, w: DisturbanceProfile):
    """Max/sum absolute deviation over time, plus the cut at the coldest
    sample where w is a shared piecewise series, such as an outdoor
    temperature (its raw values, before the thermal map)."""
    max_dev = np.max(np.abs(x), axis=1)
    sum_dev = np.sum(np.abs(x), axis=1)
    out = {
        "max_deviation_overall": float(np.max(max_dev)),
        "time_of_max_deviation": float(times[int(np.argmax(max_dev))]),
    }
    if len(w.times) and w.values.ndim == 1:
        temps = w.raw(times)
        k = int(np.argmin(temps))
        out.update({
            "coldest_time": float(times[k]),
            "coldest_temperature": float(temps[k]),
            "max_deviation_at_coldest": float(max_dev[k]),
            "sum_deviation_at_coldest": float(sum_dev[k]),
        })
    return out


def run_scenario(sc: Scenario) -> RunArtifacts:
    """Execute one policy and write its trajectory CSV and summary record,
    which ends with the interconnection's ``counts()`` where it has them.
    A closed-loop policy's own refusals come first (:func:`_tuning_report`),
    so a refused run makes no output directory; the directory is made next,
    so a path that cannot be one fails (OSError) before anything integrates."""
    if sc.policy not in POLICIES:
        raise ConfigError(f"unknown policy {sc.policy!r}")
    closed_loop = sc.policy in ("decentralized", "coordinating")
    report = _tuning_report(sc) if closed_loop else None
    if sc.out_dir is not None:
        Path(sc.out_dir).mkdir(parents=True, exist_ok=True)
    arts = _run_closed_loop(sc, report) if closed_loop else _run_oracle_policy(sc)
    if sc.system.ic.counts is not None:
        arts.summary.update(sc.system.ic.counts())
    if sc.out_dir is not None:
        out = Path(sc.out_dir)
        csv_path = out / f"{sc.prefix}_{sc.policy}.csv"
        lyap = arts.trajectory.lyapunov if arts.trajectory is not None else None
        u = arts.trajectory.u if arts.trajectory is not None else arts.v
        write_trajectory_csv(csv_path, arts.times, arts.x, u, arts.v, lyap)
        summary_path = out / f"{sc.prefix}_{sc.policy}_summary.txt"
        write_summary(summary_path, arts.summary)
        arts.csv_path = csv_path
        arts.summary_path = summary_path
    return arts


def _tuning_report(sc: Scenario):
    """The tuning report of a closed-loop policy's gains, after its own
    refusals: ConfigError where the policy is not the gains' mode, and
    TuningError for out-of-rule gains without force (core.enforce_tuning)."""
    sys = sc.system
    if sys.gains.mode != sc.policy:
        raise ConfigError(f"policy {sc.policy} does not match gains mode {sys.gains.mode}")
    report = enforce_tuning(sys.agents, sys.gains, sc.force)
    if not report.passed:
        log.warning("tuning rule violated, continuing under force:\n%s", report.summary())
    return report


def _run_closed_loop(sc: Scenario, report) -> RunArtifacts:
    from . import equilibria  # deferred: equilibria imports this module

    sys = sc.system
    monitor, reason = equilibria.certificate_monitor(sys)
    if reason is not None:
        log.info("certificate monitor disabled: %s", reason)
    traj = integrate(sys, ClosedLoopState.zero(sys.n), sc.t_span, sc.opts, monitor=monitor)
    summary = {
        "policy": sc.policy,
        "n_agents": sys.n,
        "t0": sc.t_span[0],
        "t1": sc.t_span[1],
        "tuning_passed": report.passed,
        "forced": bool(not report.passed and sc.force),
        "monitor_enabled": monitor is not None,
        "monitor_ok": monitor.ok if monitor is not None else "",
        "monitor_violations": len(monitor.violations) if monitor is not None else 0,
        "steps_accepted": traj.stats.accepted,
        "steps_rejected": traj.stats.rejected,
        "field_evaluations": traj.stats.n_field_evals,
    }
    summary.update(_deviation_stats(traj.times, traj.x, sys.agents.disturbance))
    return RunArtifacts(policy=sc.policy, trajectory=traj, times=traj.times,
                        x=traj.x, v=traj.v, summary=summary)


def _run_oracle_policy(sc: Scenario) -> RunArtifacts:
    """Re-solve the static optimal allocation on the output grid.

    The instantaneous optimum under the frozen disturbance w(t) of every
    grid time is one :func:`~capnet.equilibria.solve_allocations` call over
    the stack of them.
    """
    from . import equilibria  # deferred import, see module docstring

    t0, t1 = sc.t_span
    dt = sc.opts.output_dt if sc.opts.output_dt is not None else (t1 - t0) / 200.0
    times = _output_grid(t0, t1, dt)
    agents = sc.system.agents
    vs, xs = equilibria.solve_allocations(sc.system.ic, agents.a, agents.disturbance.eval(times),
                                          sc.policy.removeprefix("oracle-"))
    summary = {
        "policy": sc.policy,
        "n_agents": sc.system.n,
        "t0": t0,
        "t1": t1,
        "monitor_enabled": False,
        "resolve_interval": dt,
    }
    summary.update(_deviation_stats(times, xs, agents.disturbance))
    return RunArtifacts(policy=sc.policy, trajectory=None, times=times,
                        x=xs, v=vs, summary=summary)
