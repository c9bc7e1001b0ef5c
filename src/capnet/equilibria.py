"""Closed-loop equilibria, open-loop optimal allocations, and verification.

Both closed-loop equilibria are zeros of a normal map on the control input,

    N(u) = b(sat u) + r + c*(u - sat u),

found by one semismooth Newton method (Qi & Sun 1993) with Armijo
backtracking on 0.5*|N|^2, inside a budget of Newton steps and backtracks
fixed before it starts.  The decentralized loop is N with r = w and
c = a*kA.  The coordinating loop couples every agent through the shared
excess sum S = sum(u - sat u); for a fixed S it is N with r = w + a*kC*S and
c = a*kC, and S is the root of a scalar slack found by a bracketed search.

The open-loop optima that certify them come from two independent routes:

* a derivative-free direct search (coarse grid or Latin hypercube, then a
  Nelder-Mead polish) used as the oracle of record for verification, and
* the exact allocators an interconnection carries (a linear program for
  b(v) = B v, tree inversion for the district-heating network) used where
  many re-solves are needed, e.g. the benchmark policies of the
  district-heating scenario, which solve every output time in one call
  (:func:`solve_allocations`); without one the allocation is the oracle's.

The closed-loop solves call neither route, and neither route touches the
controller equations, so agreement between them is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import (ClosedLoopState, ClosedLoopSystem, CoordinatingMonitor,
                      DecentralizedMonitor, control_input, field as loop_field,
                      no_monitor_reason, rejectable_disturbance)
from .core import (COORDINATING, DECENTRALIZED, AgentEnsemble, saturate,
                   validate_tuning)
from .errors import DimensionError, EquilibriumError, TuningError
from .interconnect import Interconnection, eval_jacobian


# ---------------------------------------------------------------------------
# reports


@dataclass
class EquilibriumReport:
    """A converged closed-loop equilibrium with both cost readings.

    ``iterations`` counts the Newton steps the solve took.
    """

    mode: str
    u0: np.ndarray
    x0: np.ndarray
    z0: np.ndarray
    zeta0: np.ndarray
    residual: float
    cost_l1w: float
    cost_linf: float
    iterations: int


@dataclass
class NoEquilibrium:
    """Why the coordinating loop has no equilibrium.

    Every equilibrium equalizes the errors at -kC*S and leaves the reduced
    solve at that excess sum S free of excess.  None exists when the reduced
    solve at S = 0 carries excess of both signs, when no S up to the bound
    set by aggregate monotonicity clears the excess, or when the S that
    clears it leaves excess of the other sign.  ``best_u`` is the reduced
    solution with the smallest coordinating residual ``best_residual``.
    """

    best_u: np.ndarray
    best_residual: float
    iterations: int
    message: str


def _per_vector(cost):
    return float(cost) if np.ndim(cost) == 0 else cost


def weighted_l1_cost(eta, a, x):
    """sum_i eta_i*a_i*|x_i|: a float for one error vector, an array of one
    cost per row for an (m, n) stack."""
    return _per_vector(np.sum(np.asarray(eta) * np.asarray(a) * np.abs(np.asarray(x)),
                              axis=-1))


def linf_cost(x):
    """max_i |x_i|: a float for one error vector, an array of one cost per
    row for an (m, n) stack."""
    return _per_vector(np.max(np.abs(np.asarray(x)), axis=-1))


def open_loop_state(ic: Interconnection, agents: AgentEnsemble, v) -> np.ndarray:
    """x solving the agent dynamics at rest for the saturated input v, or
    for each row of an (m, n) stack of inputs."""
    v = saturate(np.asarray(v, dtype=float), ic.bounds)
    return (ic(v) + agents.w) / agents.a


# ---------------------------------------------------------------------------
# closed-loop equilibria

#: step halvings the Armijo line search may take within one Newton step
MAX_BACKTRACKS = 30
_ARMIJO = 1e-4


def _unconverged(reason, residual, tol, steps, u, bounds) -> EquilibriumError:
    saturated = int(np.count_nonzero((u <= bounds.lower) | (u >= bounds.upper)))
    return EquilibriumError(
        f"{reason}: residual {residual:.3e} against tolerance {tol:.1e} after "
        f"{steps} Newton steps, {saturated} of {len(u)} agents saturated",
        residual=residual, iterations=steps, saturated=saturated)


def _solve_normal_map(ic: Interconnection, a, r, c, u, tol, steps, max_steps):
    """Semismooth Newton for N(u) = b(sat u) + r + c*(u - sat u) = 0.

    The generalized Jacobian keeps the columns of J_b(sat u) for agents
    strictly inside the box and puts c_j on the diagonal for the others.
    Stops once max|N/a| < tol.  ``steps`` is the running count of Newton
    steps, carried over from earlier solves; returns (u, steps).  Raises
    EquilibriumError when ``max_steps`` is reached, the line search uses up
    MAX_BACKTRACKS halvings, or the Jacobian is singular.
    """
    lo, hi = ic.bounds.lower, ic.bounds.upper

    def normal_map(u):
        v = np.clip(u, lo, hi)
        return ic(v) + r + c * (u - v)

    def fail(reason):
        return _unconverged(f"Newton solve stopped ({reason})",
                            float(np.max(np.abs(n_u / a))), tol, steps, u, ic.bounds)

    n_u = normal_map(u)
    while float(np.max(np.abs(n_u / a))) >= tol:
        if steps >= max_steps:
            raise fail(f"budget of {max_steps} steps used up")
        steps += 1
        inside = (u > lo) & (u < hi)
        J = np.where(inside[None, :], eval_jacobian(ic, np.clip(u, lo, hi)), np.diag(c))
        try:
            d = np.linalg.solve(J, -n_u)
        except np.linalg.LinAlgError:
            raise fail("singular generalized Jacobian") from None
        phi = float(n_u @ n_u)
        t = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            u_try = u + t * d
            n_try = normal_map(u_try)
            if float(n_try @ n_try) <= (1.0 - 2.0 * _ARMIJO * t) * phi:
                break
            t *= 0.5
        else:
            raise fail(f"no sufficient decrease in {MAX_BACKTRACKS} backtracks")
        u, n_u = u_try, n_try
    return u, steps


def _finish_report(sys: ClosedLoopSystem, u0: np.ndarray, iterations: int,
                   tol: float) -> EquilibriumReport:
    """The report at u0, whose stationarity residual max(|dx|, |dz|) must be
    below tol."""
    v0 = saturate(u0, sys.bounds)
    x0 = (sys.ic(v0) + sys.agents.w) / sys.agents.a
    z0 = -(u0 + sys.gains.kP * x0) / sys.gains.kI
    s0 = ClosedLoopState(x0, z0)
    dx, dz = loop_field(sys, s0, 0.0)
    residual = float(max(np.max(np.abs(dx)), np.max(np.abs(dz))))
    if not residual < tol:
        raise _unconverged(f"{sys.gains.mode} equilibrium above tolerance", residual,
                           tol, iterations, u0, sys.bounds)
    return EquilibriumReport(
        mode=sys.gains.mode, u0=u0, x0=x0, z0=z0, zeta0=-sys.gains.kI * z0,
        residual=residual,
        cost_l1w=weighted_l1_cost(sys.ic.eta, sys.agents.a, x0),
        cost_linf=linf_cost(x0), iterations=iterations)


def find_equilibrium_decentralized(
    sys: ClosedLoopSystem,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> EquilibriumReport:
    """The unique decentralized equilibrium: b(sat u) + w + a*kA*dz(u) = 0.

    Semismooth Newton from the middle of the box, at most ``max_iter``
    steps, until the stationarity residual max(|dx|, |dz|) is below ``tol``.
    Raises EquilibriumError with the residual reached, the step count and
    the number of saturated agents when it does not get there.
    """
    if sys.gains.mode != DECENTRALIZED:
        raise ValueError("system gains are not decentralized")
    if not sys.agents.w_is_constant:
        raise ValueError("equilibria are defined for constant disturbances")
    a = sys.agents.a
    u, steps = _solve_normal_map(sys.ic, a, sys.agents.w, a * sys.gains.kA,
                                 0.5 * (sys.bounds.lower + sys.bounds.upper),
                                 tol, 0, max_iter)
    return _finish_report(sys, u, steps, tol)


def find_equilibrium_coordinating(
    sys: ClosedLoopSystem,
    tol: float = 1e-10,
    max_iter: int = 2000,
):
    """An equilibrium of the coordinating loop: b(sat u) + w + a*kC*S = 0
    with S = sum(dz(u)), so every error equals -kC*S.

    In the reduced variable S, u(S) solves b(sat u) + w + a*kC*(S + dz(u)) = 0
    by the semismooth Newton of the decentralized loop, warm-started from the
    previous S.  When u(0) carries no excess it is the equilibrium (the
    disturbance is rejectable).  Otherwise S is the root of a slack that is
    the largest excess while one remains and minus the smallest distance to
    the saturating bound after, bracketed by brentq between 0 and the largest
    |S| that aggregate monotonicity allows; S is then put on the agents at
    that bound.  Returns :class:`NoEquilibrium` with the reason when the
    reduced problem shows there is none.  ``max_iter`` bounds the Newton
    steps of all reduced solves together; exhausting it, or a stationarity
    residual max(|dx|, |dz|) not below ``tol`` at the end, raises
    EquilibriumError.
    """
    if sys.gains.mode != COORDINATING:
        raise ValueError("system gains are not coordinating")
    if not sys.agents.w_is_constant:
        raise ValueError("equilibria are defined for constant disturbances")
    ic, a, w, kC = sys.ic, sys.agents.a, sys.agents.w, sys.gains.kC
    lo, hi = sys.bounds.lower, sys.bounds.upper
    c = a * kC
    u = 0.5 * (lo + hi)
    steps = 0
    solved = {}  # S -> u(S)

    def solve_at(S):
        nonlocal u, steps
        if S not in solved:
            # inner tolerance leaves room for the excess left at the root
            u, steps = _solve_normal_map(ic, a, w + c * S, c, u, 0.01 * tol,
                                         steps, max_iter)
            solved[S] = u
        return solved[S]

    def no_equilibrium(message):
        def residual(u):
            v = np.clip(u, lo, hi)
            return float(np.max(np.abs((ic(v) + w) / a + kC * np.sum(u - v))))
        best = min(solved.values(), key=residual)
        return NoEquilibrium(best, residual(best), steps, message)

    u0 = solve_at(0.0)
    excess = u0 - np.clip(u0, lo, hi)
    if not np.any(excess):
        return _finish_report(sys, u0, steps, tol)
    if np.any(excess > 0) and np.any(excess < 0):
        return no_equilibrium("excess of both signs at S = 0")
    sgn = 1.0 if np.any(excess > 0) else -1.0
    bound = hi if sgn > 0 else lo

    def slack(s):
        return float(np.max(sgn * (solve_at(sgn * s) - bound)))

    # an equilibrium has eta.(b(v) + w) = -kC*S*eta.a with eta.b increasing on
    # the box, so |S| cannot exceed the value at the opposite corner
    corner = lo if sgn > 0 else hi
    s_max = -sgn * float(ic.eta @ (ic(corner) + w)) / (kC * float(ic.eta @ a))
    if not s_max > 0.0 or slack(s_max) > 0.0:
        return no_equilibrium(f"no excess sum up to {max(s_max, 0.0):.6g} clears "
                              f"the excess")
    from scipy.optimize import brentq  # deferred: scipy is slow to import

    s_root = brentq(slack, 0.0, s_max, xtol=4 * np.finfo(float).eps * s_max)
    S = sgn * s_root
    u_S = solve_at(S)
    v = np.clip(u_S, lo, hi)
    if np.any(sgn * (u_S - v) < 0):
        return no_equilibrium(f"excess of both signs at S = {S:.6g}")
    distance = sgn * (bound - v)
    binding = distance <= np.min(distance)
    u = v.copy()
    u[binding] = bound[binding] + S / np.count_nonzero(binding)
    return _finish_report(sys, u, steps, tol)


# ---------------------------------------------------------------------------
# direct-search oracles


@dataclass
class OracleOptions:
    grid_points: int = 9          # per axis, used when n <= grid_dim_limit
    grid_dim_limit: int = 4
    lhs_samples: int = 2000       # used when n > grid_dim_limit
    polish: bool = True
    seed: int = 0


@dataclass
class OracleResult:
    v: np.ndarray
    x: np.ndarray
    cost: float
    method: str
    n_evaluations: int


def _candidate_points(bounds, opts: OracleOptions) -> np.ndarray:
    n = bounds.n
    if n <= opts.grid_dim_limit:
        axes = [np.linspace(bounds.lower[i], bounds.upper[i], opts.grid_points)
                for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(opts.seed)
    pts = np.empty((opts.lhs_samples, n))
    for d in range(n):
        # Latin hypercube: one sample per stratum, shuffled per dimension
        strata = (rng.permutation(opts.lhs_samples) + rng.random(opts.lhs_samples))
        pts[:, d] = bounds.lower[d] + strata / opts.lhs_samples * (
            bounds.upper[d] - bounds.lower[d])
    return pts


def _direct_search(ic, agents, cost_of_x, opts: Optional[OracleOptions]):
    opts = opts or OracleOptions()
    bounds = ic.bounds
    candidates = _candidate_points(bounds, opts)
    costs = cost_of_x(open_loop_state(ic, agents, candidates))
    evals = len(candidates)

    def cost(v):
        nonlocal evals
        evals += 1
        return cost_of_x(open_loop_state(ic, agents, v))

    best_idx = int(np.argmin(costs))
    v_best, c_best = candidates[best_idx].copy(), float(costs[best_idx])
    method = "grid" if bounds.n <= opts.grid_dim_limit else "lhs"
    if opts.polish:
        from scipy.optimize import minimize  # deferred: scipy is slow to import

        res = minimize(cost, v_best, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000 * bounds.n, "maxfev": 8000 * bounds.n})
        if res.fun <= c_best:
            v_best, c_best = np.clip(res.x, bounds.lower, bounds.upper), float(res.fun)
        method += "+nelder-mead"
    x_best = (ic(v_best) + agents.w) / agents.a
    return OracleResult(v=v_best, x=x_best, cost=c_best, method=method,
                        n_evaluations=evals)


def oracle_weighted_l1(ic: Interconnection, agents: AgentEnsemble,
                       opts: Optional[OracleOptions] = None) -> OracleResult:
    """Minimize sum_i eta_i*a_i*|x_i| over the valve box by direct search."""
    eta, a = ic.eta, agents.a
    return _direct_search(ic, agents, lambda x: weighted_l1_cost(eta, a, x), opts)


def oracle_linf(ic: Interconnection, agents: AgentEnsemble,
                opts: Optional[OracleOptions] = None) -> OracleResult:
    """Minimize max_i |x_i| over the valve box by direct search."""
    return _direct_search(ic, agents, linf_cost, opts)


# ---------------------------------------------------------------------------
# structured allocation solvers


@dataclass
class AllocationResult:
    """An open-loop optimum.  ``iterations`` is 1 for a structural allocator
    and the number of evaluations of b for the direct search."""

    v: np.ndarray
    x: np.ndarray
    cost: float
    iterations: int
    converged: bool
    method: str


def _allocate(ic, agents, name, cost_of_x, oracle) -> AllocationResult:
    if ic.allocator is None:
        res = oracle(ic, agents)
        return AllocationResult(v=res.v, x=res.x, cost=res.cost,
                                iterations=res.n_evaluations, converged=True,
                                method="oracle:" + res.method)
    V, X, methods = getattr(ic.allocator, name)(agents.a, agents.w[None])
    return AllocationResult(v=V[0], x=X[0], cost=cost_of_x(X[0]), iterations=1,
                            converged=True, method=methods[0])


def solve_l1_allocation(ic: Interconnection, agents: AgentEnsemble) -> AllocationResult:
    """The open-loop allocation minimizing sum_i eta_i*a_i*|x_i| over the box.

    Solved by the interconnection's allocator when it carries one (a linear
    program for b(v) = B v, tree inversion for the DHN), as a stack of one,
    whose errors propagate; otherwise by the direct-search oracle.
    """
    eta, a = ic.eta, agents.a
    return _allocate(ic, agents, "l1",
                     lambda x: weighted_l1_cost(eta, a, x), oracle_weighted_l1)


def solve_linf_allocation(ic: Interconnection, agents: AgentEnsemble) -> AllocationResult:
    """The open-loop allocation minimizing max_i |x_i| over the box.

    Solved by the interconnection's allocator when it carries one (a linear
    program for b(v) = B v; for the DHN, one signed error level shared by
    every agent whose valve is not pinned at a bound, in closed form while
    nothing is pinned and by a root search per change of the pinned set),
    as a stack of one, whose errors propagate; otherwise by the
    direct-search oracle.
    """
    return _allocate(ic, agents, "linf", linf_cost, oracle_linf)


def solve_allocations(ic: Interconnection, a: np.ndarray, W: np.ndarray, norm: str):
    """Open-loop optima of each row of an (m, n) stack of disturbances W,
    under ``norm``: "l1" as :func:`solve_l1_allocation`, "linf" as
    :func:`solve_linf_allocation`.  Returns the (m, n) stacks of valves and
    errors.  Raises DimensionError unless W is (m, n).

    One call of the interconnection's allocator, which gives each row what
    it gets alone (the DHN's weighted-L1 active set starts each row from
    that row's all-open flows); without one, one direct-search solve per row.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != ic.n:
        raise DimensionError(f"W must be an (m, {ic.n}) stack of disturbances, got {W.shape}")
    if ic.allocator is None:
        solve = {"l1": solve_l1_allocation, "linf": solve_linf_allocation}[norm]
        rows = [solve(ic, AgentEnsemble(a=a, w=w)) for w in W]
        return (np.reshape([r.v for r in rows], W.shape),
                np.reshape([r.x for r in rows], W.shape))
    V, X, _ = getattr(ic.allocator, norm)(a, W)
    return V, X


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationVerdict:
    name: str
    passed: bool
    details: dict
    failures: tuple = ()

    def report(self) -> str:
        lines = [f"verdict={self.name}", f"passed={self.passed}"]
        for key in sorted(self.details):
            lines.append(f"{key}={self.details[key]}")
        for f in self.failures:
            lines.append(f"failure={f}")
        lines.append(f"# {self.name}: {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.failures)} failures)")
        return "\n".join(lines)


def verify_optimality(
    sys: ClosedLoopSystem,
    report: EquilibriumReport,
    mode: str,
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-5,
    opts: Optional[OracleOptions] = None,
) -> VerificationVerdict:
    """Certify an equilibrium against the direct-search oracle and against
    random alternative open-loop equilibria.

    mode "l1w" compares the weighted-L1 cost, "linf" the max cost.  Every
    sampled alternative with a different saturated input must be strictly
    costlier than the closed-loop equilibrium.  The alternatives are uniform
    on the box, drawn from ``seed`` as one stack and evaluated as one.
    """
    if mode not in ("l1w", "linf"):
        raise ValueError("mode must be 'l1w' or 'linf'")
    eta, a = sys.ic.eta, sys.agents.a
    if mode == "l1w":
        oracle = oracle_weighted_l1(sys.ic, sys.agents, opts)
        closed_cost = report.cost_l1w
        cost_of_x = lambda x: weighted_l1_cost(eta, a, x)
    else:
        oracle = oracle_linf(sys.ic, sys.agents, opts)
        closed_cost = report.cost_linf
        cost_of_x = linf_cost
    failures = []
    margin = closed_cost - oracle.cost
    if closed_cost > oracle.cost + tol * (1.0 + closed_cost):
        failures.append(f"closed-loop cost {closed_cost!r} exceeds oracle {oracle.cost!r}")
    # alternatives are drawn in chunks of those still wanted, dropping draws
    # equal to v0, so they are those of drawing one at a time
    rng = np.random.default_rng(seed)
    v0 = saturate(report.u0, sys.bounds)
    chunks = [np.empty((0, sys.n))]
    checked = 0
    while checked < n_samples:
        v = sys.bounds.sample(rng, n_samples - checked)
        chunks.append(v[np.any(v != v0, axis=1)])
        checked += len(chunks[-1])
    v = np.concatenate(chunks)
    alt_cost = cost_of_x(open_loop_state(sys.ic, sys.agents, v))
    worst_gap = float(np.min(alt_cost - closed_cost, initial=np.inf))
    for k in np.flatnonzero(~(alt_cost > closed_cost)):
        failures.append(
            f"alternative at v={np.array2string(v[k], precision=6)} has cost "
            f"{float(alt_cost[k])!r} <= closed-loop cost {closed_cost!r}")
    details = {
        "mode": mode,
        "closed_loop_cost": closed_cost,
        "oracle_cost": oracle.cost,
        "oracle_method": oracle.method,
        "margin": margin,
        "n_alternatives": checked,
        "min_alternative_gap": worst_gap,
        "seed": seed,
    }
    return VerificationVerdict("optimality", not failures, details, tuple(failures))


def _terminal_errors(sys: ClosedLoopSystem, eq: EquilibriumReport, s: ClosedLoopState,
                     tol: float):
    """Distance of s from the equilibria that eq stands for, and whether s
    saturates the same agents as eq.

    The decentralized equilibrium is unique, so the distance is pointwise in
    (x, z).  Coordinating equilibria form a set: each member shares eq's
    errors x, applied inputs v, saturated agents, the unsaturated agents' z
    and the excess sum S = sum(u - v), while the saturated agents' z only
    have to carry S between them, so theirs are not compared.  An agent whose
    u lies within tol of the nearest bound counts as saturated either way:
    how S splits between the saturated agents depends on the start, so a
    member may hold one of them exactly on its bound.
    """
    if sys.gains.mode == DECENTRALIZED:
        return max(float(np.max(np.abs(s.x - eq.x0))),
                   float(np.max(np.abs(s.z - eq.z0)))), True
    lo, hi = sys.bounds.lower, sys.bounds.upper
    u = control_input(sys.gains, s)
    v, v0 = saturate(u, sys.bounds), saturate(eq.u0, sys.bounds)
    free = v0 == eq.u0
    err = max(float(np.max(np.abs(s.x - eq.x0))), float(np.max(np.abs(v - v0))),
              float(np.max(np.abs(s.z - eq.z0)[free], initial=0.0)),
              abs(float(np.sum(u - v)) - float(np.sum(eq.u0 - v0))))
    on_bound = np.minimum(np.abs(u - lo), np.abs(u - hi)) <= tol
    return err, bool(np.all(((v == u) == free) | on_bound))


def verify_global_convergence(
    sys: ClosedLoopSystem,
    n_starts: int = 20,
    seed: int = 0,
    t_max: float = 200.0,
    tol: float = 1e-4,
    box_scale: float = 10.0,
    force: bool = False,
    solver_opts=None,
    equilibrium: Optional[EquilibriumReport] = None,
) -> VerificationVerdict:
    """Integrate from random initial states and check they all land on the
    computed equilibrium, with the decrease monitor silent throughout.

    ``equilibrium`` takes the system's equilibrium when the caller has
    already solved for it; otherwise it is solved here.  Initial states are
    drawn from the box |.|_inf <= box_scale * equilibrium magnitude, and all
    of them are stepped together by one stacked integration.  A coordinating
    run may end on any member of the equilibrium set (see
    ``_terminal_errors``).  Coordinating systems also check that the
    trailing 20% of each run stays unsaturated when the disturbance is
    rejectable.  The details sum the integrator's steps and field
    evaluations over all starts.  Raises ValueError for n_starts < 1: no
    start integrated is no evidence.
    """
    from .sim import SolverOptions, integrate_many  # deferred: sim imports this module

    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number above 0, got {tol!r}")
    report = validate_tuning(sys.agents, sys.gains)
    if not report.passed and not force:
        raise TuningError("tuning rule violated; use force=True to verify anyway:\n"
                          + report.summary())
    if equilibrium is not None:
        eq = equilibrium
    elif sys.gains.mode == DECENTRALIZED:
        eq = find_equilibrium_decentralized(sys)
    else:
        eq = find_equilibrium_coordinating(sys)
        if isinstance(eq, NoEquilibrium):
            return VerificationVerdict(
                "global-convergence", False,
                {"mode": sys.gains.mode, "equilibrium": "none",
                 "best_residual": eq.best_residual},
                (f"no equilibrium found: {eq.message}",))
    rejectable = rejectable_disturbance(sys) if sys.gains.mode == COORDINATING else False
    unmonitored = no_monitor_reason(sys)
    magnitude = max(float(np.max(np.abs(eq.x0))), float(np.max(np.abs(eq.z0))))
    half_width = box_scale * (magnitude if magnitude > 0 else 1.0)
    opts = solver_opts or SolverOptions(output_dt=t_max / 50.0)
    rng = np.random.default_rng(seed)
    starts, monitors = [], []
    for _ in range(n_starts):
        starts.append(ClosedLoopState(rng.uniform(-half_width, half_width, sys.n),
                                      rng.uniform(-half_width, half_width, sys.n)))
        monitor = None
        if unmonitored is None and sys.gains.mode == DECENTRALIZED:
            monitor = DecentralizedMonitor(sys, eq.zeta0, eq.u0)
        elif unmonitored is None:
            monitor = CoordinatingMonitor(sys)
        monitors.append(monitor)
    trajs = integrate_many(sys, starts, (0.0, t_max), opts, monitors)
    failures = []
    worst_terminal = 0.0
    monitor_violations = 0
    monitored = 0
    for start, (traj, monitor) in enumerate(zip(trajs, monitors)):
        err, same_saturation = _terminal_errors(sys, eq, traj.terminal_state(), tol)
        worst_terminal = max(worst_terminal, err)
        if err > tol:
            failures.append(f"start {start}: terminal error {err:.3e} > {tol:.1e}")
        if not same_saturation:
            failures.append(f"start {start}: saturates other agents than the equilibrium")
        if monitor is not None:
            monitored += 1
            monitor_violations += len(monitor.violations)
            if not monitor.ok:
                failures.append(
                    f"start {start}: certificate increased beyond slack "
                    f"({len(monitor.violations)} times, worst {monitor.max_excess:.3e})")
        if sys.gains.mode == COORDINATING and rejectable:
            tail = traj.times >= traj.times[0] + 0.8 * (traj.times[-1] - traj.times[0])
            dz_tail = traj.u[tail] - traj.v[tail]
            if np.any(dz_tail != 0.0):
                failures.append(f"start {start}: saturation active in the trailing 20%")
    details = {
        "mode": sys.gains.mode,
        "n_starts": n_starts,
        "t_max": t_max,
        "tol": tol,
        "box_half_width": half_width,
        "worst_terminal_error": worst_terminal,
        "monitored_runs": monitored,
        "monitor_violations": monitor_violations,
        "equilibrium_residual": eq.residual,
        "seed": seed,
        "steps_accepted": sum(traj.stats.accepted for traj in trajs),
        "steps_rejected": sum(traj.stats.rejected for traj in trajs),
        "field_evaluations": sum(traj.stats.n_field_evals for traj in trajs),
    }
    return VerificationVerdict("global-convergence", not failures, details, tuple(failures))
