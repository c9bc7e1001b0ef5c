"""Closed-loop equilibria, open-loop optimal allocations, and verification.

The closed-loop equilibria are computed by damped fixed-point iteration on
the stationary control input.  The open-loop optima that certify them come
from two independent routes:

* a derivative-free direct search (coarse grid or Latin hypercube, then a
  Nelder-Mead polish) used as the oracle of record for verification, and
* structured allocation solvers (active-set Newton on the complementarity /
  equalization conditions) used where many re-solves are needed, e.g. the
  benchmark policies of the district-heating scenario.

Neither route touches the controller equations, so agreement with the
closed-loop equilibrium is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .control import (ClosedLoopState, ClosedLoopSystem, CoordinatingMonitor,
                      DecentralizedMonitor, control_input, field as loop_field,
                      from_zeta_u, rejectable_disturbance, to_zeta_u)
from .core import (COORDINATING, DECENTRALIZED, AgentEnsemble, saturate,
                   validate_tuning)
from .errors import CapnetError, EquilibriumError, TuningError
from .interconnect import Interconnection


# ---------------------------------------------------------------------------
# reports


@dataclass
class EquilibriumReport:
    """A converged closed-loop equilibrium with both cost readings."""

    mode: str
    u0: np.ndarray
    x0: np.ndarray
    z0: np.ndarray
    zeta0: np.ndarray
    residual: float
    cost_l1w: float
    cost_linf: float
    iterations: int
    relax: float


@dataclass
class NoEquilibrium:
    """Diagnostics of a stalled coordinating fixed-point iteration.

    Reports the best residual reached; it does not prove infeasibility.
    """

    best_u: np.ndarray
    best_residual: float
    iterations: int
    message: str


def weighted_l1_cost(eta, a, x) -> float:
    return float(np.sum(np.asarray(eta) * np.asarray(a) * np.abs(np.asarray(x))))


def linf_cost(x) -> float:
    return float(np.max(np.abs(np.asarray(x))))


def open_loop_state(ic: Interconnection, agents: AgentEnsemble, v) -> np.ndarray:
    """x solving the agent dynamics at rest for the saturated input v."""
    v = saturate(np.asarray(v, dtype=float), ic.bounds)
    return (ic(v) + agents.w) / agents.a


def lipschitz_estimate(ic: Interconnection, n_pairs: int = 64, seed: int = 0) -> float:
    """Sampled max-norm Lipschitz constant of the interconnection."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        v1 = ic.bounds.sample(rng)
        v2 = ic.bounds.sample(rng)
        dv = float(np.max(np.abs(v2 - v1)))
        if dv < 1e-12:
            continue
        worst = max(worst, float(np.max(np.abs(ic(v2) - ic(v1)))) / dv)
    return worst


# ---------------------------------------------------------------------------
# closed-loop equilibria


def _finish_report(sys: ClosedLoopSystem, u0: np.ndarray, iterations: int,
                   relax: float) -> EquilibriumReport:
    v0 = saturate(u0, sys.bounds)
    x0 = (sys.ic(v0) + sys.agents.w) / sys.agents.a
    z0 = -(u0 + sys.gains.kP * x0) / sys.gains.kI
    s0 = ClosedLoopState(x0, z0)
    dx, dz = loop_field(sys, s0, 0.0)
    residual = float(max(np.max(np.abs(dx)), np.max(np.abs(dz))))
    return EquilibriumReport(
        mode=sys.gains.mode, u0=u0, x0=x0, z0=z0, zeta0=-sys.gains.kI * z0,
        residual=residual,
        cost_l1w=weighted_l1_cost(sys.ic.eta, sys.agents.a, x0),
        cost_linf=linf_cost(x0), iterations=iterations, relax=relax)


def find_equilibrium_decentralized(
    sys: ClosedLoopSystem,
    relax: Optional[float] = None,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> EquilibriumReport:
    """Fixed-point iteration u <- u - relax*(b(sat(u)) + w + a*kA*dz(u)).

    ``relax`` defaults to 0.5/(L + max(a*kA)) with L a sampled Lipschitz
    estimate of the interconnection, and is halved whenever the iteration
    diverges.  The returned stationarity residual is max(|dx|, |dz|).
    """
    if sys.gains.mode != DECENTRALIZED:
        raise ValueError("system gains are not decentralized")
    if not sys.agents.w_is_constant:
        raise ValueError("equilibria are defined for constant disturbances")
    w = sys.agents.w
    awk = sys.agents.a * sys.gains.kA

    def g(u):
        v = saturate(u, sys.bounds)
        return sys.ic(v) + w + awk * (u - v)

    if relax is None:
        relax = 0.5 / (lipschitz_estimate(sys.ic) + float(np.max(awk)))
    u = 0.5 * (sys.bounds.lower + sys.bounds.upper)
    u_start = u.copy()
    res0 = float(np.max(np.abs(g(u))))
    best = np.inf
    iterations = 0
    for halving in range(60):
        diverged = False
        for _ in range(max_iter):
            iterations += 1
            gu = g(u)
            res = float(np.max(np.abs(gu / sys.agents.a)))
            best = min(best, res)
            if res < tol and float(np.max(np.abs(relax * gu))) < tol:
                return _finish_report(sys, u, iterations, relax)
            if not np.all(np.isfinite(gu)) or res > 1e6 * (1.0 + res0):
                diverged = True
                break
            u = u - relax * gu
        if not diverged:
            break
        relax *= 0.5
        u = u_start.copy()
    raise EquilibriumError(
        f"decentralized fixed point did not converge (best residual {best:.3e})")


def _coordinating_newton_polish(sys, g, u, tol, max_iter=60):
    """Semismooth Newton on the coordinating stationarity residual, used when
    the damped fixed point stalls near a saturation boundary.  Returns the
    refined u or None."""
    kC = sys.gains.kC
    a = sys.agents.a
    n = sys.n
    for _ in range(max_iter):
        gu = g(u)
        res = float(np.max(np.abs(gu / a)))
        if res < tol:
            return u
        v = saturate(u, sys.bounds)
        inside = ((u > sys.bounds.lower) & (u < sys.bounds.upper)).astype(float)
        try:
            Jb = _ic_jacobian(sys.ic, v)
        except CapnetError:
            return None
        # saturated coordinates all contribute through the same rank-1 sum, so
        # the system is singular along the split of their excess: take the
        # minimum-norm least-squares step
        J = Jb * inside[None, :] + kC * np.outer(a, 1.0 - inside)
        step, *_ = np.linalg.lstsq(J, -gu, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        t = 1.0
        base = float(gu @ gu)
        for _ in range(20):
            u_try = u + t * step
            if float(g(u_try) @ g(u_try)) < base:
                break
            t *= 0.5
        else:
            return None
        u = u_try
    return None


def _coordinating_from_equalization(sys, g, tol):
    """Construct a saturated coordinating equilibrium from the equalized
    allocation: the stationarity conditions force equal errors, fully open
    valves on the binding agents, and only the SUM of their excesses, so any
    split (taken equal here) is an equilibrium.  Verified via the residual."""
    scale = float(np.max(np.abs(sys.agents.w))) + 1.0
    hi = sys.bounds.upper
    v, x, ok = _equalize(sys.ic, sys.agents, hi.copy(), 1e-9 * scale, 60)
    if not ok:
        return None
    tau = float(np.median(x))
    if tau >= 0.0:
        return None  # rejectable regime: the damped iteration handles it
    sat_set = v >= hi - 1e-9
    if not sat_set.any():
        return None
    excess_sum = -tau / sys.gains.kC
    u = v.copy()
    u[sat_set] += excess_sum / int(sat_set.sum())
    if float(np.max(np.abs(g(u) / sys.agents.a))) < max(tol, 1e-8 * scale):
        return u
    return None


def find_equilibrium_coordinating(
    sys: ClosedLoopSystem,
    tol: float = 1e-10,
    relax: Optional[float] = None,
    max_iter: int = 200_000,
):
    """Damped fixed point for the coordinating stationarity conditions.

    Solves b_i(sat(u)) + w_i + a_i*kC*sum(dz(u)) = 0 for all i.  A stalled
    iteration is polished by a semismooth Newton step before giving up.
    Equilibria need not exist for strongly uneven disturbances; a genuine
    stall returns :class:`NoEquilibrium` with the best residual reached.
    """
    if sys.gains.mode != COORDINATING:
        raise ValueError("system gains are not coordinating")
    if not sys.agents.w_is_constant:
        raise ValueError("equilibria are defined for constant disturbances")
    w = sys.agents.w
    kC = sys.gains.kC

    def g(u):
        v = saturate(u, sys.bounds)
        return sys.ic(v) + w + sys.agents.a * kC * float(np.sum(u - v))

    if relax is None:
        relax = 0.5 / (lipschitz_estimate(sys.ic)
                       + float(np.max(sys.agents.a)) * kC * sys.n)
    u = 0.5 * (sys.bounds.lower + sys.bounds.upper)
    best_res = np.inf
    best_u = u.copy()
    iterations = 0
    stall_window = 2000
    last_best = np.inf
    while iterations < max_iter:
        for _ in range(stall_window):
            iterations += 1
            gu = g(u)
            res = float(np.max(np.abs(gu / sys.agents.a)))
            if res < best_res:
                best_res, best_u = res, u.copy()
            if res < tol:
                return _finish_report(sys, u, iterations, relax)
            if not np.all(np.isfinite(gu)):
                return NoEquilibrium(best_u, best_res, iterations,
                                     "iteration left the finite domain")
            u = u - relax * gu
            if iterations >= max_iter:
                break
        if best_res > 0.99 * last_best:
            # no meaningful progress over a whole window: first try a smaller
            # step, then report the stall
            if relax > 1e-6:
                relax *= 0.5
                u = best_u.copy()
            else:
                break
        last_best = best_res
    if best_res < tol:
        return _finish_report(sys, best_u, iterations, relax)
    u_polished = _coordinating_newton_polish(sys, g, best_u.copy(), tol)
    if u_polished is not None:
        return _finish_report(sys, u_polished, iterations, relax)
    u_built = _coordinating_from_equalization(sys, g, tol)
    if u_built is not None:
        return _finish_report(sys, u_built, iterations, relax)
    return NoEquilibrium(best_u, best_res, iterations,
                         f"residual stalled at {best_res:.3e} (tolerance {tol:.1e})")


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
    evals = 0

    def cost(v):
        nonlocal evals
        evals += 1
        v = np.clip(v, bounds.lower, bounds.upper)
        return cost_of_x((ic(v) + agents.w) / agents.a)

    candidates = _candidate_points(bounds, opts)
    costs = np.array([cost(v) for v in candidates])
    best_idx = int(np.argmin(costs))
    v_best, c_best = candidates[best_idx].copy(), float(costs[best_idx])
    method = "grid" if bounds.n <= opts.grid_dim_limit else "lhs"
    if opts.polish:
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
    v: np.ndarray
    x: np.ndarray
    cost: float
    iterations: int
    converged: bool
    method: str


def _ic_jacobian(ic: Interconnection, v: np.ndarray) -> np.ndarray:
    if ic.jacobian is not None:
        return np.asarray(ic.jacobian(v), dtype=float)
    eps = 1e-6
    b0 = ic(v)
    J = np.empty((ic.n, ic.n))
    for j in range(ic.n):
        vp = v.copy()
        vp[j] = min(vp[j] + eps, ic.bounds.upper[j])
        step = vp[j] - v[j]
        if step <= 0:
            vp[j] = v[j] - eps
            step = -eps
        J[:, j] = (ic(vp) - b0) / step
    return J


def _solve_pinned_targets(ic, agents, targets, free, v, tol, max_iter=40):
    """Newton for b_free(v) = targets on the free coordinates, v clamped to
    the box; pinned coordinates stay fixed.  Returns (v, ok)."""
    lo, hi = ic.bounds.lower, ic.bounds.upper
    for _ in range(max_iter):
        r = ic(v)[free] - targets[free]
        if float(np.max(np.abs(r), initial=0.0)) < tol:
            return v, True
        J = _ic_jacobian(ic, v)[np.ix_(free, free)]
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return v, False
        # damped update, clipped to the box
        t = 1.0
        base = float(r @ r)
        improved = False
        for _ in range(10):
            v_try = v.copy()
            v_try[free] = np.clip(v[free] + t * step, lo[free], hi[free])
            if np.array_equal(v_try, v):
                break
            r_try = ic(v_try)[free] - targets[free]
            if float(r_try @ r_try) < base:
                improved = True
                break
            t *= 0.5
        if not improved:
            # stuck against the box or a flat direction: report what we have
            return v, float(np.max(np.abs(r))) < tol
        v = v_try
    r = ic(v)[free] - targets[free]
    return v, float(np.max(np.abs(r), initial=0.0)) < tol


def solve_l1_allocation(
    ic: Interconnection,
    agents: AgentEnsemble,
    warm_start: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_outer: int = 40,
) -> AllocationResult:
    """Weighted-L1-optimal open-loop allocation via its complementarity
    structure: each agent either rests at zero error or holds its valve at
    the upper limit while in deficit (lower limit while in surplus).

    Interconnections carrying a structural allocator (e.g. the invertible
    tree hydraulics) take that path; otherwise an active-set Newton runs on
    the interconnection directly, with the direct-search oracle as the final
    fallback.
    """
    if ic.allocator is not None:
        try:
            v, x, method = ic.allocator.l1(agents.a, agents.w, warm_start)
            return AllocationResult(v=v, x=x,
                                    cost=weighted_l1_cost(ic.eta, agents.a, x),
                                    iterations=1, converged=True, method=method)
        except CapnetError:
            pass
    n = ic.n
    lo, hi = ic.bounds.lower, ic.bounds.upper
    v = np.clip(warm_start.copy(), lo, hi) if warm_start is not None else hi.copy()
    scale = float(np.max(np.abs(agents.w))) + 1.0
    for outer in range(1, max_outer + 1):
        x = (ic(v) + agents.w) / agents.a
        at_hi = np.isclose(v, hi, rtol=0.0, atol=1e-12)
        at_lo = np.isclose(v, lo, rtol=0.0, atol=1e-12)
        # complementarity residual: interior agents must sit at x = 0, agents
        # at the upper limit may be in deficit, at the lower limit in surplus
        comp = np.where(at_hi, np.maximum(x, 0.0), x)
        comp = np.where(at_lo, np.minimum(x, 0.0), comp)
        if float(np.max(np.abs(comp))) < tol * scale:
            cost = weighted_l1_cost(ic.eta, agents.a, x)
            return AllocationResult(v=v, x=x, cost=cost, iterations=outer,
                                    converged=True, method="complementarity")
        # re-solve zero-error targets on the currently interior agents
        free = np.nonzero(~(at_hi & (x < 0)) & ~(at_lo & (x > 0)))[0]
        if len(free) == 0:
            # fully saturated allocation but residual above tolerance: retry
            # with everything free so clamping can re-assign the active set
            free = np.arange(n)
        targets = -np.asarray(agents.w, dtype=float)
        v, _ = _solve_pinned_targets(ic, agents, targets, free, v, tol * scale)
    res = oracle_weighted_l1(ic, agents)
    return AllocationResult(v=res.v, x=res.x, cost=res.cost, iterations=max_outer,
                            converged=True, method="fallback:" + res.method)


def _equalize(ic, agents, v_start, tol, max_outer):
    """Solve x_i(v) = x_ref(v) with the most disadvantaged agent pinned fully
    open.  Returns (v, x, converged)."""
    n = ic.n
    lo, hi = ic.bounds.lower, ic.bounds.upper
    v = v_start.copy()
    # pin the agent worst off when everything is fully open; a warm start
    # point has equalized errors and cannot rank the agents
    ref = int(np.argmin((ic(hi) + agents.w) / agents.a))
    swaps = 0
    outer = 0
    stalled = False
    def masked_error(vv, xx):
        # agents pinned fully open may sit below the common level; everyone
        # else must match it exactly
        e = xx - xx[ref]
        e = np.where(vv >= hi - 1e-12, np.maximum(e, 0.0), e)
        e[ref] = 0.0
        return e

    while outer < max_outer and not stalled:
        outer += 1
        v[ref] = hi[ref]
        x = (ic(v) + agents.w) / agents.a
        tau = x[ref]
        err = x - tau
        err_ok = masked_error(v, x)
        if float(np.max(np.abs(err_ok))) < tol:
            worst = int(np.argmin(x))
            if x[worst] < tau - tol and swaps < n:
                ref = worst
                swaps += 1
                continue
            return v, x, True
        # working set: everyone except the reference and the agents that are
        # legitimately pinned fully open below the level; a pinned agent whose
        # error turns positive rejoins and gets closed
        pinned = (v >= hi - 1e-12) & (err <= tol)
        work = np.array([i for i in range(n) if i != ref and not pinned[i]])
        if len(work) == 0:
            stalled = True
            continue
        J = _ic_jacobian(ic, v) / agents.a[:, None]
        Jw = J[np.ix_(work, work)] - np.tile(J[ref, work], (len(work), 1))
        try:
            step = np.linalg.solve(Jw, -err[work])
        except np.linalg.LinAlgError:
            break
        t = 1.0
        base = float(err_ok @ err_ok)
        improved = False
        for _ in range(10):
            v_try = v.copy()
            v_try[work] = np.clip(v[work] + t * step, lo[work], hi[work])
            if np.array_equal(v_try, v):
                break
            x_try = (ic(v_try) + agents.w) / agents.a
            e_try = masked_error(v_try, x_try)
            if float(e_try @ e_try) < base:
                improved = True
                break
            t *= 0.5
        if not improved:
            stalled = True  # judged below on the residual actually reached
        else:
            v = v_try
    x = (ic(v) + agents.w) / agents.a
    err_ok = masked_error(v, x)
    ok = float(np.max(np.abs(err_ok))) < tol and float(np.min(x)) >= x[ref] - tol
    return v, x, ok


def solve_linf_allocation(
    ic: Interconnection,
    agents: AgentEnsemble,
    warm_start: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_outer: int = 60,
) -> AllocationResult:
    """Min-max-optimal allocation by error equalization.

    Solves the equalized system x_i(v) = tau with the most disadvantaged
    agent pinned at its upper limit.  When the common level comes out at or
    above zero the disturbance is rejectable, and an exact-rejection solve
    (all errors zero, valves interior) replaces it.  Falls back to the
    direct-search oracle whenever the structured solves do not converge.
    """
    if ic.allocator is not None:
        try:
            v, x, method = ic.allocator.linf(agents.a, agents.w, warm_start)
            return AllocationResult(v=v, x=x, cost=linf_cost(x), iterations=1,
                                    converged=True, method=method)
        except CapnetError:
            pass
    n = ic.n
    lo, hi = ic.bounds.lower, ic.bounds.upper
    scale = float(np.max(np.abs(agents.w))) + 1.0
    v0 = np.clip(warm_start.copy(), lo, hi) if warm_start is not None else hi.copy()

    v_eq, x_eq, ok_eq = _equalize(ic, agents, v0, tol * scale, max_outer)
    if ok_eq and float(np.min(x_eq)) < -tol * scale:
        # genuine deficit: the equalized allocation is the min-max optimum
        return AllocationResult(v=v_eq, x=x_eq, cost=linf_cost(x_eq), iterations=1,
                                converged=True, method="equalization")
    # rejectable (or equalization failed): try zero error on every agent
    targets = -np.asarray(agents.w, dtype=float)
    start = v_eq if ok_eq else v0
    v_rej, ok_rej = _solve_pinned_targets(ic, agents, targets, np.arange(n),
                                          start.copy(), tol * scale)
    if ok_rej and np.all(v_rej >= lo) and np.all(v_rej <= hi):
        x = (ic(v_rej) + agents.w) / agents.a
        if float(np.max(np.abs(x))) < tol * scale:
            return AllocationResult(v=v_rej, x=x, cost=linf_cost(x), iterations=1,
                                    converged=True, method="rejection")
    if ok_eq:
        return AllocationResult(v=v_eq, x=x_eq, cost=linf_cost(x_eq), iterations=1,
                                converged=True, method="equalization")
    res = oracle_linf(ic, agents)
    return AllocationResult(v=res.v, x=res.x, cost=res.cost, iterations=max_outer,
                            converged=True, method="fallback:" + res.method)


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
    costlier than the closed-loop equilibrium.
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
        cost_of_x = lambda x: linf_cost(x)
    failures = []
    margin = closed_cost - oracle.cost
    if closed_cost > oracle.cost + tol * (1.0 + closed_cost):
        failures.append(f"closed-loop cost {closed_cost!r} exceeds oracle {oracle.cost!r}")
    rng = np.random.default_rng(seed)
    v0 = saturate(report.u0, sys.bounds)
    worst_gap = np.inf
    checked = 0
    while checked < n_samples:
        v = sys.bounds.sample(rng)
        if np.array_equal(v, v0):
            continue
        checked += 1
        alt_cost = cost_of_x(open_loop_state(sys.ic, sys.agents, v))
        worst_gap = min(worst_gap, alt_cost - closed_cost)
        if not alt_cost > closed_cost:
            failures.append(
                f"alternative at v={np.array2string(v, precision=6)} has cost "
                f"{alt_cost!r} <= closed-loop cost {closed_cost!r}")
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
    drawn from the box |.|_inf <= box_scale * equilibrium magnitude.
    Coordinating systems also check that the trailing 20% of each run stays
    unsaturated when the disturbance is rejectable.
    """
    from .sim import SolverOptions, integrate  # deferred: sim imports this module

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
    magnitude = max(float(np.max(np.abs(eq.x0))), float(np.max(np.abs(eq.z0))))
    half_width = box_scale * (magnitude if magnitude > 0 else 1.0)
    opts = solver_opts or SolverOptions(output_dt=t_max / 50.0)
    rng = np.random.default_rng(seed)
    failures = []
    worst_terminal = 0.0
    monitor_violations = 0
    monitored = 0
    for start in range(n_starts):
        s0 = ClosedLoopState(rng.uniform(-half_width, half_width, sys.n),
                             rng.uniform(-half_width, half_width, sys.n))
        monitor = None
        if sys.gains.mode == DECENTRALIZED and np.all(sys.d_margin > 0):
            monitor = DecentralizedMonitor(sys, eq.zeta0, eq.u0)
        elif sys.gains.mode == COORDINATING and rejectable and np.all(sys.d_margin > 0):
            monitor = CoordinatingMonitor(sys)
        traj = integrate(sys, s0, (0.0, t_max), opts, monitor=monitor)
        term = traj.terminal_state()
        err = max(float(np.max(np.abs(term.x - eq.x0))),
                  float(np.max(np.abs(term.z - eq.z0))))
        worst_terminal = max(worst_terminal, err)
        if err > tol:
            failures.append(f"start {start}: terminal error {err:.3e} > {tol:.1e}")
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
    }
    return VerificationVerdict("global-convergence", not failures, details, tuple(failures))
