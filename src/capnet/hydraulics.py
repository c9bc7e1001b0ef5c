"""Tree-structured district-heating hydraulics.

A single plant pumps water at constant differential pressure through a tree
of pipes to consumer valves.  Pipe pressure loss is quadratic, s_e*|Q|*Q,
and applies once on the supply side and once on the mirrored return side
(factor 2 on every pipe).  Each consumer adds a connection loss s_c*q^2 and
a valve loss (base + span/(v+offset)^2)*q^2 with valve position v in [-1,1].

Every branch therefore loses pressure as R*Q^2, and for fixed valves the
flows follow exactly from two passes over the tree.  Bottom-up, a pipe in
series with its subtree adds, R = 2s + R_sub, and parallel branches combine
as R_eq^(-1/2) = sum R_k^(-1/2), consumers counting as branches of
resistance r_i(v_i).  Top-down, each child keeps the pressure share
p_child = p * R_child / (2s + R_child), and each consumer draws
q_i = sqrt(p_node / r_i).  The solve checks its answer against the pressure
balance on every root-to-consumer path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .core import AgentEnsemble, SaturationBounds
from .errors import ConfigError, DimensionError, FlowSolverError
from .interconnect import Interconnection


@dataclass(frozen=True)
class Pipe:
    parent: str
    child: str
    s: float  # Pa/(m^3/h)^2, one-way; applied twice for supply+return

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError(f"pipe {self.parent}-{self.child}: resistance must be > 0")


@dataclass(frozen=True)
class Consumer:
    node: str
    s_c: float = 2.5
    valve_base: float = 5.0
    valve_span: float = 30.0
    valve_offset: float = 1.001

    def __post_init__(self):
        if min(self.s_c, self.valve_base, self.valve_span) <= 0:
            raise ValueError(f"consumer at {self.node}: resistances must be > 0")
        if self.valve_offset <= 1.0:
            raise ValueError("valve offset must exceed 1 so the curve is finite at v=-1")

    def resistance(self, v):
        """Total consumer-side resistance at valve position v."""
        return self.s_c + self.valve_base + self.valve_span / (v + self.valve_offset) ** 2


class HydraulicNetwork:
    """Immutable-by-convention tree network with pump pressure at the root.

    ``pump_dp`` may be zero only to model a switched-off plant; the flow
    solve refuses to run in that case (no pressure to split), which callers
    surface as a solver error rather than a construction error.
    """

    def __init__(self, root: str, pipes: Sequence[Pipe], consumers: Sequence[Consumer],
                 pump_dp: float):
        self.root = str(root)
        self.pipes = tuple(pipes)
        self.consumers = tuple(consumers)
        self.pump_dp = float(pump_dp)
        if self.pump_dp < 0:
            raise ValueError("pump_dp must be non-negative")
        if not self.consumers:
            raise ValueError("network needs at least one consumer")
        self._build_topology()

    @property
    def n_consumers(self) -> int:
        return len(self.consumers)

    def _build_topology(self):
        parent_pipe = {}
        children = {}
        nodes = {self.root}
        for k, p in enumerate(self.pipes):
            if p.child in parent_pipe or p.child == self.root:
                raise ValueError(f"node {p.child} has more than one parent (not a tree)")
            parent_pipe[p.child] = k
            children.setdefault(p.parent, []).append(k)
            nodes.update((p.parent, p.child))
        # breadth-first numbering from the root (node 0): every pipe's parent
        # is numbered, and listed, before its child
        node_id = {self.root: 0}
        top_down = []
        frontier = [self.root]
        for node in frontier:
            for k in children.get(node, ()):
                child = self.pipes[k].child
                node_id[child] = len(node_id)
                top_down.append(k)
                frontier.append(child)
        unreached = sorted(nodes - node_id.keys())
        if unreached:
            raise ValueError(f"node {unreached[0]} is not connected to the root by a unique path")
        # path incidence: E[e, i] = 1 if pipe e lies on the root path of consumer i
        E = np.zeros((len(self.pipes), self.n_consumers))
        for i, c in enumerate(self.consumers):
            if c.node not in node_id:
                raise ValueError(f"consumer {i} attaches to unknown node {c.node}")
            cur = c.node
            while cur != self.root:
                E[parent_pipe[cur], i] = 1.0
                cur = self.pipes[parent_pipe[cur]].parent
        self.path_matrix = E
        self.pipe_s = np.array([p.s for p in self.pipes])
        self.n_nodes = len(node_id)
        self.consumer_node = np.array([node_id[c.node] for c in self.consumers])
        # (parent, child, 2s) of every pipe that feeds a consumer, top-down;
        # pipes into consumer-free subtrees carry no flow and are skipped
        self._flow_pipes = [(node_id[self.pipes[k].parent], node_id[self.pipes[k].child],
                             2.0 * self.pipes[k].s) for k in top_down if E[k].any()]
        # node incidence over [plant supply, pipe flows, consumer flows]:
        # +1 for what flows into a node, -1 for what leaves it; those flows
        # are [sum(q), E q, q], the pipe flows summed along root paths
        A = np.zeros((self.n_nodes, 1 + len(self.pipes) + self.n_consumers))
        A[0, 0] = 1.0
        for k, p in enumerate(self.pipes):
            A[node_id[p.child], 1 + k] += 1.0
            A[node_id[p.parent], 1 + k] -= 1.0
        A[self.consumer_node, 1 + len(self.pipes) + np.arange(self.n_consumers)] = -1.0
        self.node_incidence = A
        self._flows_of_q = np.vstack([np.ones(self.n_consumers), E, np.eye(self.n_consumers)])
        self._s2 = 2.0 * self.pipe_s  # supply + return
        self._r_fixed = np.array([c.s_c + c.valve_base for c in self.consumers])
        self._valve_span = np.array([c.valve_span for c in self.consumers])
        self._valve_offset = np.array([c.valve_offset for c in self.consumers])

    def consumer_resistance(self, v: np.ndarray) -> np.ndarray:
        return self._r_fixed + self._valve_span / (v + self._valve_offset) ** 2

    def consumer_resistance_slope(self, v: np.ndarray) -> np.ndarray:
        return -2.0 * self._valve_span / (v + self._valve_offset) ** 3

    def mass_residual(self, q: np.ndarray) -> float:
        """Max junction imbalance: inflow minus child-pipe and local consumer
        outflow at every node, with pipe flows summed from the consumer flows
        along their root paths (independent of the solver's accumulation)."""
        return float(abs(self.node_incidence @ (self._flows_of_q @ q)).max())


@dataclass
class FlowSolution:
    """Solved flows plus their checks."""

    q: np.ndarray
    pressure_residual: float  # max |balance residual| / pump_dp
    mass_residual: float      # m^3/h


def solve_flows(net: HydraulicNetwork, v, tol: float = 1e-10, full_output: bool = False):
    """Solve consumer flows q > 0 balancing the pump pressure on every
    root-to-consumer path, exactly, by two passes over the tree.

    The answer is checked: ``tol`` bounds the pressure-balance residual
    relative to pump_dp.  Raises FlowSolverError above it, on non-positive
    flow, on valves outside [-1, 1] and on a switched-off pump (pump_dp == 0).
    """
    n = net.n_consumers
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionError(f"v has shape {v.shape}, expected ({n},)")
    v_list = v.tolist()  # at tens of consumers, cheaper than numpy reductions
    v_min, v_max = min(v_list), max(v_list)
    if not (v_min >= -1.0 - 1e-12 and v_max <= 1.0 + 1e-12):
        raise FlowSolverError("valve positions must lie in [-1, 1]")
    if v_min < -1.0 or v_max > 1.0:
        v = v.clip(-1.0, 1.0)
    dp = net.pump_dp
    if dp <= 0.0:
        raise FlowSolverError("pump differential pressure is zero; flow problem is degenerate")

    r = net.consumer_resistance(v)
    g = 1.0 / np.sqrt(r)  # consumer conductance r^(-1/2)
    # bottom-up: G[node] = R_eq^(-1/2) of everything below the node; a pipe
    # in series with its subtree conducts G / sqrt(1 + 2s G^2), and
    # share = sqrt(p_child / p_parent) = 1 / sqrt(1 + 2s G^2)
    G = np.bincount(net.consumer_node, weights=g, minlength=net.n_nodes).tolist()
    shares = []
    for parent, child, s2 in reversed(net._flow_pipes):
        G_child = G[child]
        share = 1.0 / math.sqrt(1.0 + s2 * G_child * G_child)
        G[parent] += G_child * share
        shares.append(share)
    # top-down: square root of the pressure across each node
    sqrt_p = [0.0] * net.n_nodes
    sqrt_p[0] = math.sqrt(dp)
    for (parent, child, _), share in zip(net._flow_pipes, reversed(shares)):
        sqrt_p[child] = sqrt_p[parent] * share
    q = np.array(sqrt_p)[net.consumer_node] * g
    if not q.min() > 0.0:
        raise FlowSolverError("solved flows are not all positive")

    E = net.path_matrix
    Q = E @ q
    F = dp - (net._s2 * Q * Q) @ E - r * q * q
    pressure_residual = float(abs(F).max()) / dp
    if pressure_residual > tol:
        raise FlowSolverError(
            f"flow solve failed its pressure-balance check "
            f"(relative residual {pressure_residual:.3e})", residual=pressure_residual)
    if not full_output:
        return q
    return FlowSolution(q=q, pressure_residual=pressure_residual,
                        mass_residual=net.mass_residual(q))


def solve_flows_partial(
    net: HydraulicNetwork,
    v: np.ndarray,
    fixed_q: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Flows when some consumers are throttled to a prescribed flow.

    ``fixed_q`` holds the prescribed flow where finite and NaN where the
    consumer valve position ``v`` is authoritative.  Only the free consumers
    satisfy a pressure balance; the throttled ones are assumed to own a valve
    position achieving their flow (see :func:`valve_positions_for_flows`).

    Damped Newton on the free flows, within a budget of ``max_iter`` (60)
    steps of at most 30 step halvings each, until the pressure-balance
    residual is at most ``tol`` relative to pump_dp.  Raises FlowSolverError
    when the pump is switched off (pump_dp == 0), when 30 halvings do not
    lower the squared residual ("line search stalled", with the step count)
    and when the budget runs out.
    """
    n = net.n_consumers
    free = ~np.isfinite(fixed_q)
    q = np.where(free, np.nan, fixed_q)
    if not np.any(free):
        return q
    dp = net.pump_dp
    if dp <= 0.0:
        raise FlowSolverError("pump differential pressure is zero; flow problem is degenerate")
    E = net.path_matrix
    s2 = 2.0 * net.pipe_s
    r = net.consumer_resistance(np.clip(v, -1.0, 1.0))
    path_s = s2 @ E if len(net.pipes) else np.zeros(n)
    if warm_start is not None and np.all(warm_start[free] > 0):
        q[free] = warm_start[free]
    else:
        q[free] = np.sqrt(dp / (path_s + r))[free] / np.sqrt(n)

    idx = np.nonzero(free)[0]
    merit_prev = np.inf
    for it in range(1, max_iter + 1):
        Q = E @ q
        drop = s2 * np.abs(Q) * Q
        F = (dp - (drop @ E) - r * np.abs(q) * q)[idx]
        if np.max(np.abs(F)) <= tol * dp:
            return q
        H = (E[:, idx].T * (4.0 * net.pipe_s * np.abs(Q))) @ E[:, idx]
        H[np.diag_indices(len(idx))] += 2.0 * r[idx] * np.abs(q[idx])
        try:
            step = np.linalg.solve(H, F)
        except np.linalg.LinAlgError:
            H[np.diag_indices(len(idx))] += 1e-12 * (1.0 + np.trace(H) / len(idx))
            step = np.linalg.solve(H, F)
        t = 1.0
        merit_prev = float(F @ F)
        for _ in range(30):
            q_try = q.copy()
            q_try[idx] = q[idx] + t * step
            Qt = E @ q_try
            Ft = (dp - ((s2 * np.abs(Qt) * Qt) @ E) - r * np.abs(q_try) * q_try)[idx]
            if float(Ft @ Ft) < merit_prev:
                break
            t *= 0.5
        else:
            raise FlowSolverError("partial-flow line search stalled", iterations=it)
        q = q_try
    raise FlowSolverError(f"partial-flow Newton did not converge in {max_iter} iterations")


def valve_positions_for_flows(net: HydraulicNetwork, q: np.ndarray) -> np.ndarray:
    """Exact valve positions delivering the given consumer flows.

    The tree balance is explicitly invertible: edge drops follow from the
    flows, the pressure left for each consumer fixes its total resistance,
    and the valve curve is solved for v.  Entries are +inf when even a fully
    open valve cannot pass the flow and -inf when any opening oversupplies.
    """
    q = np.asarray(q, dtype=float)
    E = net.path_matrix
    drop = 2.0 * net.pipe_s * np.abs(E @ q) * (E @ q)
    dp_consumer = net.pump_dp - (drop @ E)
    v = np.empty(net.n_consumers)
    for i, c in enumerate(net.consumers):
        if q[i] <= 0.0:
            v[i] = -np.inf
            continue
        if dp_consumer[i] <= 0.0:
            v[i] = np.inf
            continue
        radicand = dp_consumer[i] / q[i] ** 2 - c.s_c - c.valve_base
        if radicand <= 0.0:
            v[i] = np.inf  # not enough pressure headroom even fully open
            continue
        v[i] = np.sqrt(c.valve_span / radicand) - c.valve_offset
    return v


def flow_sensitivity(net: HydraulicNetwork, v, q: Optional[np.ndarray] = None) -> np.ndarray:
    """dq/dv at the solved operating point, by the implicit function theorem."""
    v = np.clip(np.asarray(v, dtype=float), -1.0, 1.0)
    if q is None:
        q = solve_flows(net, v)
    E = net.path_matrix
    Q = E @ q
    H = (E.T * (4.0 * net.pipe_s * np.abs(Q))) @ E
    H[np.diag_indices(net.n_consumers)] += 2.0 * net.consumer_resistance(v) * np.abs(q)
    # residual_i depends on v only through r_i:  dF_i/dv_i = -r'(v_i)|q_i|q_i
    dF_dv = -net.consumer_resistance_slope(v) * np.abs(q) * q
    return np.linalg.solve(H, np.diag(dF_dv))


# ---------------------------------------------------------------------------
# buildings


@dataclass(frozen=True)
class BuildingParams:
    """Thermal parameters of the consumer buildings.

    Scalar fields broadcast over all consumers.  Units: c [kWh/K],
    a_hat [kW/K], delta [K], T_ref [degC], c_pw [kWh/(kg K)], rho_w [kg/m^3].
    """

    c: float | np.ndarray = 2.0
    a_hat: float | np.ndarray = 1.2
    delta: float | np.ndarray = 50.0
    T_ref: float | np.ndarray = 20.0
    c_pw: float = 1.16e-3
    rho_w: float = 1000.0

    def __post_init__(self):
        for name in ("c", "a_hat", "delta"):
            if np.any(np.asarray(getattr(self, name)) <= 0):
                raise ValueError(f"building parameter {name} must be > 0")
        if self.c_pw <= 0 or self.rho_w <= 0:
            raise ValueError("water properties must be > 0")

    def rates(self, n: int) -> np.ndarray:
        """Normalized decay rates a_i = a_hat_i / c_i [1/h]."""
        return np.broadcast_to(np.asarray(self.a_hat) / np.asarray(self.c), (n,)).copy()

    def heat_coefficient(self, n: int) -> np.ndarray:
        """K per (m^3/h) of flow: c_pw * rho_w * delta_i / c_i."""
        coef = self.c_pw * self.rho_w * np.asarray(self.delta) / np.asarray(self.c)
        return np.broadcast_to(coef, (n,)).copy()

    def disturbance(self, n: int, T_o: float) -> np.ndarray:
        """w_i = (a_hat_i/c_i) * (T_o - T_ref_i) [K/h]."""
        return self.rates(n) * (T_o - np.broadcast_to(np.asarray(self.T_ref), (n,)))


@dataclass
class HydraulicStats:
    """Accumulated diagnostics across all flow solves of one scenario."""

    n_solves: int = 0
    max_mass_residual: float = 0.0
    max_pressure_residual: float = 0.0

    def update(self, sol: FlowSolution):
        self.n_solves += 1
        self.max_mass_residual = max(self.max_mass_residual, sol.mass_residual)
        self.max_pressure_residual = max(self.max_pressure_residual, sol.pressure_residual)


class DhnAllocator:
    """Fast optimal open-loop allocations exploiting tree invertibility.

    Valve positions follow in closed form from any prescribed consumer flow
    pattern, so the weighted-L1 optimum reduces to an active-set iteration
    over reduced flow solves, and the min-max optimum to the largest common
    error level tau of the agents in deficit that every valve can still
    deliver.  When every agent is in deficit, the flows at level tau are
    affine in tau and agent i's valve reaches fully open where a concave
    quadratic in tau crosses zero, so that level is the smallest of the
    quadratics' larger roots (:meth:`_closed_form_level`).  A bracketed
    bisection on tau runs instead when some agent needs no heat (w_i >= 0)
    or is oversupplied even by a shut valve at zero error (its valve stays
    shut), or when the closed form's preconditions fail.  Errors raise
    FlowSolverError.  Used by the benchmark policies; the generic
    direct-search oracles remain the independent reference.
    """

    def __init__(self, net: HydraulicNetwork, coef: np.ndarray):
        self.net = net
        self.coef = coef

    def _level(self, a, w, tau, shut=None):
        """Valves and flows with the agents outside ``shut`` (by default those
        with w_i >= 0) at error tau and the valves of those in it shut."""
        q = (a * tau - w) / self.coef
        shut = w >= 0.0 if shut is None else shut
        if not shut.any():
            return valve_positions_for_flows(self.net, q), q
        q = solve_flows_partial(self.net, np.where(shut, -1.0, 1.0), np.where(shut, np.nan, q))
        return np.where(shut, -1.0, valve_positions_for_flows(self.net, q)), q

    def _closed_form_level(self, a, w):
        """The largest common error level every valve can deliver when every
        agent is in deficit, or None where the closed form does not apply.

        At level tau the flows are q(tau) = (a*tau - w)/coef, and agent i's
        valve is at most fully open while
        f_i(tau) = pump_dp - sum_k E_ki 2 s_k Q_k(tau)^2 - r_i(1) q_i(tau)^2 >= 0
        with Q = E q: a concave quadratic in tau.  For positive flows it holds
        up to its larger root, so the level is the smallest larger root.  None
        when a quadratic has no real root or a flow at that level is not
        positive.
        """
        net = self.net
        E = net.path_matrix
        alpha, beta = a / self.coef, -w / self.coef  # q(tau) = alpha*tau + beta
        A, B = E @ alpha, E @ beta
        r_open = net.consumer_resistance(np.ones(net.n_consumers))
        c2 = -((net._s2 * A * A) @ E + r_open * alpha * alpha)
        c1 = -2.0 * ((net._s2 * A * B) @ E + r_open * alpha * beta)
        c0 = net.pump_dp - (net._s2 * B * B) @ E - r_open * beta * beta
        disc = c1 * c1 - 4.0 * c2 * c0
        if not np.all(disc >= 0.0):
            return None
        # larger root (-c1 - sqrt(disc)) / (2 c2), written without the
        # cancellation of its textbook form since c1 < 0 < sqrt(disc) - c1
        tau = float(np.min(2.0 * c0 / (np.sqrt(disc) - c1)))
        if not np.all(alpha * tau + beta > 0.0):
            return None
        return tau

    def linf(self, a, w, warm_v=None):
        w = np.asarray(w, dtype=float)
        tau = self._closed_form_level(a, w) if np.all(w < 0.0) else None
        if tau is not None:
            tau = min(tau, 0.0)  # at or above 0, w is rejected exactly
            v = self._level(a, w, tau)[0]
            if np.all((v >= -1.0) & (v <= 1.0 + 1e-9)):
                v = np.clip(v, -1.0, 1.0)
                x = (self.coef * solve_flows(self.net, v) + w) / a
                return v, x, "dhn-rejection" if tau == 0.0 else "dhn-equalization"
        return self._linf_search(a, w)

    def _linf_search(self, a, w):
        """Bracketed bisection on the common level tau, for the inputs the
        closed form does not cover."""
        # agents with w_i >= 0 are in surplus at any opening and stay shut; the
        # level tau binds the others, and above 0 only below the shut errors
        shut = w >= 0.0
        if not shut.any():
            # so is an agent whose valve would have to close beyond shut to
            # hold zero error
            shut = self._level(a, w, 0.0)[0] < -1.0

        def shut_error(q):
            return float(np.max((self.coef * q + w)[shut] / a[shut]))

        def reachable(tau):
            v, q = self._level(a, w, tau, shut)
            return v.max() <= 1.0 and (tau < 0.0 or tau < shut_error(q))

        v, q = self._level(a, w, 0.0, shut)
        if np.max(v) <= 1.0 and not shut.any():
            method = "dhn-rejection"
        else:
            if np.max(v) <= 1.0:
                tau_lo, tau_hi = 0.0, shut_error(q)
            else:
                x_full = (self.coef * solve_flows(self.net, np.where(shut, -1.0, 1.0)) + w) / a
                tau_lo, tau_hi = float(np.min(x_full[~shut])), 0.0
            # the worst fully-open agent pins the achievable common level
            for _ in range(200):
                if reachable(tau_lo):
                    break
                tau_lo -= max(1.0, 0.1 * abs(tau_lo))
            for _ in range(100):
                tau_mid = 0.5 * (tau_lo + tau_hi)
                if tau_mid == tau_lo or tau_mid == tau_hi:
                    break  # the interval is down to adjacent floats
                if reachable(tau_mid):
                    tau_lo = tau_mid
                else:
                    tau_hi = tau_mid
            v = self._level(a, w, tau_lo, shut)[0]
            method = "dhn-equalization"
        v = np.clip(v, -1.0, 1.0)
        x = (self.coef * solve_flows(self.net, v) + w) / a
        return v, x, method

    def l1(self, a, w, warm_v=None):
        net = self.net
        n = net.n_consumers
        w = np.asarray(w, dtype=float)
        # an agent with w_i >= 0 is in surplus at every opening; by lemma 1,
        # closing its valve alone lowers a_i*|x_i| by more than it changes
        # everyone else's cost, so it stays shut and out of the active set
        shut = w >= 0.0
        valves = np.where(shut, -1.0, 1.0)
        q_zero_error = -w / self.coef
        if warm_v is not None:
            pinned = (np.asarray(warm_v) >= 1.0 - 1e-9) & ~shut
        else:
            pinned = ~shut
        scale = float(np.max(np.abs(w))) + 1.0
        q = None
        for _ in range(2 * n):
            fixed_q = np.where(pinned | shut, np.nan, q_zero_error)
            q = solve_flows_partial(net, valves, fixed_q, warm_start=q)
            x = (self.coef * q + w) / a
            v_needed = valve_positions_for_flows(net, q)
            release = pinned & (x > 1e-9 * scale)
            grab = ~(pinned | shut) & (v_needed > 1.0)
            if not release.any() and not grab.any():
                break
            pinned = (pinned & ~release) | grab
        else:
            raise FlowSolverError("allocation active set did not settle")
        v = np.where(pinned | shut, valves, np.clip(v_needed, -1.0, 1.0))
        x = (self.coef * solve_flows(net, v) + w) / a
        return v, x, "dhn-complementarity"


def dhn_interconnection(
    net: HydraulicNetwork,
    bld: BuildingParams,
    stats: Optional[HydraulicStats] = None,
) -> Interconnection:
    """Wrap the network as the interconnection b(v) = coef * q(v).

    coef_i = c_pw*rho_w*delta_i/c_i converts flow to heating rate [K/h].
    """
    n = net.n_consumers
    coef = bld.heat_coefficient(n)
    bounds = SaturationBounds.symmetric(1.0, n)

    def fn(v):
        sol = solve_flows(net, v, full_output=True)
        if stats is not None:
            stats.update(sol)
        return coef * sol.q

    def jac(v):
        return coef[:, None] * flow_sensitivity(net, v)

    return Interconnection(fn=fn, eta=np.ones(n), bounds=bounds, jacobian=jac,
                           name="dhn", allocator=DhnAllocator(net, coef))


# ---------------------------------------------------------------------------
# the 22-consumer reference scenario

#: pump-pressure multiplier under which the full-open network just
#: under-supplies the heat demand of the coldest simulated hours, so the
#: capacity constraint actually binds.  At this value the worst consumer's
#: full-open heating rate, 19.9 K/h, is 8.0 K/h short of the 27.9 K/h demand
#: at -26.5 degC while the network still rejects outdoor temperatures milder
#: than about -17 degC.
CALIBRATED_CAPACITY_SCALE = 1.15e-3


def build_dhn_network(capacity_scale: float = 1.0) -> HydraulicNetwork:
    """The 22-consumer tree of the shipped ``configs/dhn_fig1.cfg`` (one
    trunk, a hub, three consumer lines), its pump pressure scaled by
    ``capacity_scale``.

    Junction names follow the numbering 23 (plant) to 36; consumers attach
    two per junction along the lines 26-27-28-29, 30-31-32 and 33-34-35-36.
    """
    raw = resources.files("capnet").joinpath("configs", "dhn_fig1.cfg").read_text(
        encoding="utf-8")
    return network_from_dict(json.loads(raw), capacity_scale)


def build_dhn_scenario(T_o: float = -25.0, capacity_scale: float = 1.0):
    """Reference network, homogeneous building stock, and the derived agents.

    Agent rates are a_i = a_hat/c = 0.6 1/h and the constant disturbance is
    w_i = a_i*(T_o - T_ref) for the given outdoor temperature.
    """
    net = build_dhn_network(capacity_scale)
    bld = BuildingParams()
    n = net.n_consumers
    agents = AgentEnsemble(a=bld.rates(n), w=bld.disturbance(n, T_o))
    return net, bld, agents


# ---------------------------------------------------------------------------
# network file schema


def network_to_dict(net: HydraulicNetwork) -> dict:
    return {
        "schema_version": 1,
        "root": net.root,
        "pump_dp": net.pump_dp,
        "edges": [{"parent": p.parent, "child": p.child, "s": p.s} for p in net.pipes],
        "consumers": [
            {"node": c.node, "s_c": c.s_c, "valve_base": c.valve_base,
             "valve_span": c.valve_span, "valve_offset": c.valve_offset}
            for c in net.consumers
        ],
    }


def network_from_dict(data: dict, capacity_scale: float = 1.0) -> HydraulicNetwork:
    """Build a network from the documented file schema (strict keys)."""
    allowed = {"schema_version", "root", "pump_dp", "edges", "consumers"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"network: unknown keys {sorted(unknown)}")
    for key in ("root", "pump_dp", "edges", "consumers"):
        if key not in data:
            raise ConfigError(f"network: missing key '{key}'")
    try:
        pipes = [Pipe(str(e["parent"]), str(e["child"]), float(e["s"]))
                 for e in data["edges"]]
        consumers = [
            Consumer(node=str(c["node"]), s_c=float(c.get("s_c", 2.5)),
                     valve_base=float(c.get("valve_base", 5.0)),
                     valve_span=float(c.get("valve_span", 30.0)),
                     valve_offset=float(c.get("valve_offset", 1.001)))
            for c in data["consumers"]
        ]
        return HydraulicNetwork(root=str(data["root"]), pipes=pipes, consumers=consumers,
                                pump_dp=float(data["pump_dp"]) * capacity_scale)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"network: {exc}") from exc
