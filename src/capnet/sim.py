"""Time integration, disturbance profiles and scenario execution.

The default integrator is an embedded Dormand-Prince Runge-Kutta 5(4) pair.
It steps a stack of states at once (``integrate_many``), every row under its
own step control, so many starts cost one loop of field evaluations on the
stack; ``integrate`` is the stack of one.  Stiff runs such as the
district-heating study use RODAS4 (``rosenbrock``) on the analytic
closed-loop Jacobian, one start at a time, stepping exactly on disturbance
kinks.  Both return each row's accepted steps (time, state and derivative at
every step end); the certificate monitors check them, and the output grid is
sampled from them by cubic Hermite interpolation, each in one pass after the
run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .control import (ClosedLoopState, ClosedLoopSystem, CoordinatingMonitor,
                      DecentralizedMonitor, LyapunovMonitor, field, field_jacobian,
                      field_stack, no_monitor_reason)
from .core import DECENTRALIZED, AgentEnsemble
from .errors import (ConfigError, EquilibriumError, FlowSolverError, IntegrationError,
                     TuningError)
from .hydraulics import HydraulicStats
from .interconnect import Interconnection

log = logging.getLogger(__name__)

#: the one-state closed-loop field under the name that perfbench/tracing.py
#: wraps; both integrators evaluate stacks through field_stack instead
loop_field = field

POLICIES = ("decentralized", "coordinating", "oracle-l1", "oracle-linf")


# ---------------------------------------------------------------------------
# disturbance profiles


@dataclass(frozen=True, eq=False)
class DisturbanceProfile:
    """Piecewise-linear disturbance; a constant one is a plain vector w.

    ``values`` is a shared scalar series (k,) or a per-agent series (k, n)
    at the breakpoint ``times``.  An affine map w = scale*(value - offset)
    turns a raw series such as an outdoor temperature into the disturbance
    each agent sees (scale=a, offset=T_ref).
    """

    values: np.ndarray
    times: np.ndarray
    scale: np.ndarray | float = 1.0
    offset: np.ndarray | float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("piecewise profile needs at least two breakpoints")
        if not np.all(np.diff(t) > 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if self.values.shape[0] != len(t):
            raise ValueError("values and times disagree in length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(self.values))):
            raise ValueError("profile times and values must be finite")
        object.__setattr__(self, "times", t)

    @classmethod
    def piecewise(cls, times, values) -> "DisturbanceProfile":
        return cls(values=values, times=times)

    def raw(self, t):
        """Interpolated raw value(s) before the affine map, at time t or
        at each of a 1-D array of times (stacked along the first axis)."""
        if self.values.ndim == 1:
            return np.interp(t, self.times, self.values)
        return np.stack([np.interp(t, self.times, col) for col in self.values.T], axis=-1)

    def eval(self, t) -> np.ndarray:
        """Disturbance vector at time t, or the (m, n) stack of them at
        each of a 1-D array of m times."""
        raw = self.raw(t)
        if self.values.ndim == 1:
            raw = np.asarray(raw)[..., None]
        return np.asarray(self.scale * (raw - self.offset), dtype=float)

    def with_thermal_map(self, a, T_ref) -> "DisturbanceProfile":
        """Map a raw temperature series into w(t) = a * (T(t) - T_ref)."""
        return DisturbanceProfile(values=self.values, times=self.times,
                                  scale=np.asarray(a, dtype=float),
                                  offset=np.asarray(T_ref, dtype=float))


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
    """Sampled closed-loop run: states, inputs, resource shares, certificate."""

    times: np.ndarray
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    b: np.ndarray
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


def _output_grid(t0, t1, dt):
    """Times t0, t0 + dt, ... ending exactly on t1."""
    m = int(np.floor((t1 - t0) / dt + 1e-9))
    grid = t0 + dt * np.arange(m + 1)
    if grid[-1] < t1 - 1e-9 * max(1.0, abs(t1)):
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


def _integrate_rosenbrock(fun, jac, t0, t1, y0, opts, stops, dfdt):
    """RODAS4 under PI step control (Gustafsson 1991; Hairer's beta = 0.04).

    Every step ends exactly on each time in ``stops`` (sorted, ending at t1),
    and ``dfdt(a, b)`` is the constant df/dt between consecutive stops a, b.
    One inverse of I/(h*gamma) - J per attempted step serves all six stages.
    At most ``opts.max_steps`` steps are attempted.  Returns the accepted
    steps as arrays (T, Y, F), as :func:`_integrate_rk45` gives one row's,
    and the IntegrationStats.
    """
    span = t1 - t0
    dt_max = opts.dt_max if opts.dt_max is not None else span / 64.0
    dt = opts.dt_init if opts.dt_init is not None else min(dt_max, span / 100.0)
    n = len(y0)
    stats = IntegrationStats()
    t, y = t0, y0.copy()
    f = fun(t, y)
    stats.n_field_evals += 1
    steps = [(t, y, f)]
    J = jac(t, y)
    err_prev, rejected_last = 1.0, False
    k = np.empty((6, n))
    for stop in stops:
        ft = dfdt(t, stop)
        while t < stop:
            landing = t + min(dt, dt_max) >= stop - 1e-12 * max(1.0, abs(stop))
            h = stop - t if landing else min(dt, dt_max)
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("step size underflow", t=t, state=y.copy())
            if stats.accepted + stats.rejected >= opts.max_steps:
                raise IntegrationError("step budget exhausted", t=t, state=y.copy())
            try:
                inv = np.linalg.inv(np.eye(n) / (h * _RO_GAMMA) - J)
            except np.linalg.LinAlgError as exc:
                raise IntegrationError(f"singular Rosenbrock matrix: {exc}",
                                       t=t, state=y.copy()) from exc
            k[0] = inv @ (f + (h * _RO_D[0]) * ft)
            for i in range(1, 6):
                fi = fun(t + _RO_C[i] * h, y + _RO_A[i] @ k[:i])
                k[i] = inv @ (fi + (_RO_CC[i] @ k[:i]) / h + (h * _RO_D[i]) * ft)
            stats.n_field_evals += 5
            y_new = y + _RO_A[5] @ k[:5] + k[5]
            scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((k[5] / scale) ** 2)))
            if err <= 1.0:
                t_new = stop if landing else t + h
                f_new = fun(t_new, y_new)
                stats.n_field_evals += 1
                t, y, f = t_new, y_new, f_new
                steps.append((t, y, f))
                J = jac(t, y)
                stats.accepted += 1
                err = max(err, 1e-10)
                factor = min(5.0, max(0.2, 0.9 * err ** -0.22 * err_prev ** 0.04))
                if rejected_last:
                    factor = min(factor, 1.0)
                err_prev, rejected_last = err, False
            else:  # also when err is NaN: max(0.2, nan) is 0.2
                stats.rejected += 1
                factor = max(0.2, 0.9 * err ** -0.25)
                rejected_last = True
            dt = h * factor
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
    step once the run ends.  It is refused and disabled with a notice when
    the disturbance varies in time, since the decrease certificates assume a
    constant disturbance.
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
    sampled from the same steps.

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
    if any(mon is not None for mon in monitors) and not sys.agents.w_is_constant:
        log.info("disturbance varies in time: Lyapunov monitor disabled")
        monitors = [None] * len(starts)

    y0 = np.array([np.concatenate([s0.x, s0.z]) for s0 in starts])

    def fun_stack(t, y):
        dx, dz = field_stack(sys, y[:, :n], y[:, n:], t)
        return np.concatenate([dx, dz], axis=1)

    if opts.method == "rk45":
        steps, stats = _integrate_rk45(fun_stack, t0, t1, y0, opts)
    else:
        # w(t) is affine between consecutive breakpoints of its profile
        w_times = getattr(sys.agents.w, "times", None)
        stops = [tb for tb in (() if w_times is None else w_times) if t0 < tb < t1] + [t1]

        def dfdt(ta, tb):
            slope = (sys.agents.w_at(tb) - sys.agents.w_at(ta)) / (tb - ta)
            return np.concatenate([slope, np.zeros(n)])

        def jac(t, y):
            return field_jacobian(sys, ClosedLoopState(y[:n], y[n:]))

        def fun(t, y):
            return fun_stack(t, y[None])[0]

        steps, stats = zip(*(_integrate_rosenbrock(fun, jac, t0, t1, row, opts, stops, dfdt)
                             for row in y0))
    grid = None if opts.output_dt is None else _output_grid(t0, t1, opts.output_dt)
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
    bs = sys.ic(vs)
    lyap = None if monitor is None else monitor.value(xs, zs)
    return Trajectory(times=times, x=xs, z=zs, u=us, v=vs, b=bs,
                      lyapunov=lyap, stats=stats, monitor=monitor)


# ---------------------------------------------------------------------------
# scenario execution


@dataclass
class Scenario:
    """Everything run_scenario needs, already built into objects."""

    policy: str
    agents: AgentEnsemble
    ic: Interconnection
    t_span: tuple
    opts: SolverOptions
    system: Optional[ClosedLoopSystem] = None       # PI policies
    force: bool = False
    temperature: Optional[DisturbanceProfile] = None  # raw T_o(t), for summaries
    hydraulic_stats: Optional[HydraulicStats] = None
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


def _setup_monitor(sys: ClosedLoopSystem):
    reason = no_monitor_reason(sys)
    if reason is None and sys.gains.mode == DECENTRALIZED:
        from . import equilibria  # deferred: equilibria imports this module

        try:
            rep = equilibria.find_equilibrium_decentralized(sys)
        except (EquilibriumError, FlowSolverError) as exc:  # no anchor for the shifted V
            reason = f"no equilibrium: {exc}"
        else:
            return DecentralizedMonitor(sys, rep.zeta0, rep.u0)
    if reason is not None:
        log.info("certificate monitor disabled: %s", reason)
        return None
    return CoordinatingMonitor(sys)


def _deviation_stats(times, x, temperature):
    """Max/sum absolute deviation over time plus the coldest-sample cut."""
    max_dev = np.max(np.abs(x), axis=1)
    sum_dev = np.sum(np.abs(x), axis=1)
    out = {
        "max_deviation_overall": float(np.max(max_dev)),
        "time_of_max_deviation": float(times[int(np.argmax(max_dev))]),
    }
    if temperature is not None:
        temps = temperature.raw(times)
        k = int(np.argmin(temps))
        out.update({
            "coldest_time": float(times[k]),
            "coldest_temperature": float(temps[k]),
            "max_deviation_at_coldest": float(max_dev[k]),
            "sum_deviation_at_coldest": float(sum_dev[k]),
        })
    return out


def run_scenario(sc: Scenario) -> RunArtifacts:
    """Execute one policy and write its trajectory CSV and summary record."""
    if sc.policy not in POLICIES:
        raise ConfigError(f"unknown policy {sc.policy!r}")
    if sc.policy in ("decentralized", "coordinating"):
        arts = _run_closed_loop(sc)
    else:
        arts = _run_oracle_policy(sc)
    if sc.hydraulic_stats is not None:
        arts.summary.update({
            "flow_solves": sc.hydraulic_stats.n_solves,
            "max_mass_residual": sc.hydraulic_stats.max_mass_residual,
            # the tree flow solve is exact: no Newton iterations, key kept
            "max_newton_iterations": 0,
        })
    if sc.out_dir is not None:
        out = Path(sc.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{sc.prefix}_{sc.policy}.csv"
        lyap = arts.trajectory.lyapunov if arts.trajectory is not None else None
        u = arts.trajectory.u if arts.trajectory is not None else arts.v
        write_trajectory_csv(csv_path, arts.times, arts.x, u, arts.v, lyap)
        summary_path = out / f"{sc.prefix}_{sc.policy}_summary.txt"
        write_summary(summary_path, arts.summary)
        arts.csv_path = csv_path
        arts.summary_path = summary_path
    return arts


def _run_closed_loop(sc: Scenario) -> RunArtifacts:
    from .core import validate_tuning

    sys = sc.system
    if sys is None:
        raise ConfigError(f"policy {sc.policy} needs a closed-loop system")
    if sys.gains.mode != sc.policy:
        raise ConfigError(f"policy {sc.policy} does not match gains mode {sys.gains.mode}")
    report = validate_tuning(sys.agents, sys.gains)
    if not report.passed:
        if not sc.force:
            raise TuningError(
                "tuning rule violated; pass force=True/--force to simulate anyway:\n"
                + report.summary())
        log.warning("tuning rule violated, continuing under force:\n%s", report.summary())
    monitor = _setup_monitor(sys)
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
    summary.update(_deviation_stats(traj.times, traj.x, sc.temperature))
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
    vs, xs = equilibria.solve_allocations(sc.ic, sc.agents.a, sc.agents.w_at(times),
                                          sc.policy.removeprefix("oracle-"))
    summary = {
        "policy": sc.policy,
        "n_agents": sc.ic.n,
        "t0": t0,
        "t1": t1,
        "monitor_enabled": False,
        "resolve_interval": dt,
    }
    summary.update(_deviation_stats(times, xs, sc.temperature))
    return RunArtifacts(policy=sc.policy, trajectory=None, times=times,
                        x=xs, v=vs, summary=summary)
