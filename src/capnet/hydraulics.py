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

The solve and its inverse map take one valve vector or an (m, n) stack of
them, and the allocators an (m, n) stack of disturbances.  The solve is one
body: its node values are Python floats for one row and (m,) rows for a
larger stack, and every row gets exactly the arithmetic it gets alone.  The
pressure left across each consumer, pump_dp less the pipe losses on its root
path, is :meth:`HydraulicNetwork.consumer_pressure` wherever it is needed.
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
        if not 0 < self.s < math.inf:
            raise ValueError(f"pipe {self.parent}-{self.child}: resistance must be > 0 "
                             f"and finite, got {self.s!r}")


@dataclass(frozen=True)
class Consumer:
    node: str
    s_c: float = 2.5
    valve_base: float = 5.0
    valve_span: float = 30.0
    valve_offset: float = 1.001

    def __post_init__(self):
        if not all(0 < r < math.inf for r in (self.s_c, self.valve_base, self.valve_span)):
            raise ValueError(f"consumer at {self.node}: resistances must be > 0 and finite")
        if not 1.0 < self.valve_offset < math.inf:
            raise ValueError("valve offset must exceed 1 so the curve is finite at v=-1, "
                             f"and be finite, got {self.valve_offset!r}")


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
        if not (math.isfinite(self.pump_dp) and self.pump_dp >= 0):
            raise ValueError(f"pump_dp must be a finite number >= 0, got {self.pump_dp!r}")
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
        self._s_c = np.array([c.s_c for c in self.consumers])
        self._valve_base = np.array([c.valve_base for c in self.consumers])
        self._r_fixed = self._s_c + self._valve_base
        self._valve_span = np.array([c.valve_span for c in self.consumers])
        self._valve_offset = np.array([c.valve_offset for c in self.consumers])

    def consumer_resistance(self, v: np.ndarray) -> np.ndarray:
        return self._r_fixed + self._valve_span / (v + self._valve_offset) ** 2

    def consumer_resistance_slope(self, v: np.ndarray) -> np.ndarray:
        return -2.0 * self._valve_span / (v + self._valve_offset) ** 3

    def mass_residual(self, q: np.ndarray):
        """Max junction imbalance: inflow minus child-pipe and local consumer
        outflow at every node, with pipe flows summed from the consumer flows
        along their root paths (independent of the solver's accumulation).
        A float for one flow vector, an (m,) array for an (m, n) stack."""
        r = abs(_along_paths(self.node_incidence, _along_paths(self._flows_of_q, q))).max(axis=-1)
        return float(r) if q.ndim == 1 else r

    def consumer_pressure(self, q: np.ndarray) -> np.ndarray:
        """Pressure left across each consumer at flows q, one vector or an
        (m, n) stack: pump_dp less the supply and return losses 2s|Q|Q of
        the pipes on its root path, whose flows are Q = E q."""
        Q = _along_paths(self.path_matrix, q)
        return self.pump_dp - _over_paths(self._s2 * abs(Q) * Q, self.path_matrix)


def _along_paths(M, x):
    """M @ x for one vector x or for each row of a stack of them, with the
    arithmetic of the 1-D product (a 2-D matmul may round differently)."""
    return M @ x if x.ndim == 1 else (M @ x[..., None])[..., 0]


def _over_paths(x, M):
    """x @ M for one vector x or for each row of a stack, likewise."""
    return x @ M if x.ndim == 1 else (x[..., None, :] @ M)[..., 0, :]


def solve_flows(net: HydraulicNetwork, v, tol: float = 1e-10) -> np.ndarray:
    """Solve consumer flows q > 0 balancing the pump pressure on every
    root-to-consumer path, exactly, by two passes over the tree: for one
    valve vector v, or for each row of an (m, n) stack of them.

    One row, given as a vector or as a stack of one, runs the passes over
    Python floats, which is faster there; a larger stack runs the same
    statements over (m,) rows, one per node, with numpy.  Every row gets the
    same bits either way.  Each row is checked: ``tol`` bounds its
    pressure-balance residual relative to pump_dp.  Raises FlowSolverError
    above it, on non-positive flow, on valves outside [-1, 1] or not finite,
    and on a switched-off pump (pump_dp == 0); in a stack, one bad row fails
    the whole stack, and the message names the first such row.  Each check
    runs on the whole stack first and looks for that row only if it fails.
    """
    n = net.n_consumers
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise DimensionError(f"v has shape {v.shape}, expected ({n},) or (m, {n})")
    m = len(v) if v.ndim == 2 else 1
    V = v.reshape(n) if m == 1 else v
    reach = abs(V).max(initial=0.0)  # NaN propagates and fails the test
    if not reach <= 1.0 + 1e-12:
        _, row = _first_failing_row(abs(V).max(axis=-1) <= 1.0 + 1e-12, m)
        raise FlowSolverError(f"{row}valve positions must lie in [-1, 1]")
    if reach > 1.0:
        V = V.clip(-1.0, 1.0)
    dp = net.pump_dp
    if dp <= 0.0:
        raise FlowSolverError("pump differential pressure is zero; flow problem is degenerate")

    r = net.consumer_resistance(V)
    g = 1.0 / np.sqrt(r)  # consumer conductance r^(-1/2)
    # node values: Python floats for one row, (m,) rows for a stack (node
    # by node, so that a node's row is contiguous)
    if V.ndim == 1:
        G = np.bincount(net.consumer_node, weights=g, minlength=net.n_nodes).tolist()
        sqrt, sqrt_p = math.sqrt, [0.0] * net.n_nodes
    else:
        G = np.zeros((net.n_nodes, m))
        np.add.at(G, net.consumer_node, g.T)  # adds in consumer order, as bincount
        sqrt, sqrt_p = np.sqrt, np.zeros((net.n_nodes, m))
    # bottom-up: G[node] = R_eq^(-1/2) of everything below the node; a pipe
    # in series with its subtree conducts G / sqrt(1 + 2s G^2), and
    # share = sqrt(p_child / p_parent) = 1 / sqrt(1 + 2s G^2)
    shares = []
    for parent, child, s2 in reversed(net._flow_pipes):
        G_child = G[child]
        share = 1.0 / sqrt(1.0 + s2 * G_child * G_child)
        G[parent] += G_child * share
        shares.append(share)
    # top-down: square root of the pressure across each node
    sqrt_p[0] = math.sqrt(dp)
    for (parent, child, _), share in zip(net._flow_pipes, reversed(shares)):
        sqrt_p[child] = sqrt_p[parent] * share
    q = np.asarray(sqrt_p)[net.consumer_node].T * g
    if not q.min(initial=1.0) > 0.0:
        _, row = _first_failing_row(q.min(axis=-1) > 0.0, m)
        raise FlowSolverError(f"{row}solved flows are not all positive")

    F = net.consumer_pressure(q) - r * q * q
    if not abs(F).max(initial=0.0) / dp <= tol:
        residual = abs(F).max(axis=-1) / dp
        k, row = _first_failing_row(residual <= tol, m)
        residual = float(np.atleast_1d(residual)[k])
        raise FlowSolverError(
            f"{row}flow solve failed its pressure-balance check "
            f"(relative residual {residual:.3e})", residual=residual)
    return q.reshape(v.shape)


def _first_failing_row(ok, m: int):
    """The first row k where ``ok`` (one flag per row, a scalar for one row)
    is False, and the "row k of m: " that names it in a stack of m > 1."""
    k = int(np.flatnonzero(~np.atleast_1d(ok))[0])
    return k, f"row {k} of {m}: " if m > 1 else ""


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
    r = net.consumer_resistance(np.clip(v, -1.0, 1.0))
    path_s = net._s2 @ E if len(net.pipes) else np.zeros(n)
    if warm_start is not None and np.all(warm_start[free] > 0):
        q[free] = warm_start[free]
    else:
        q[free] = np.sqrt(dp / (path_s + r))[free] / np.sqrt(n)

    idx = np.nonzero(free)[0]
    for it in range(1, max_iter + 1):
        F = (net.consumer_pressure(q) - r * np.abs(q) * q)[idx]
        if np.max(np.abs(F)) <= tol * dp:
            return q
        Q = E @ q
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
            Ft = (net.consumer_pressure(q_try) - r * np.abs(q_try) * q_try)[idx]
            if float(Ft @ Ft) < merit_prev:
                break
            t *= 0.5
        else:
            raise FlowSolverError("partial-flow line search stalled", iterations=it)
        q = q_try
    raise FlowSolverError(f"partial-flow Newton did not converge in {max_iter} iterations")


def valve_positions_for_flows(net: HydraulicNetwork, q: np.ndarray) -> np.ndarray:
    """Exact valve positions delivering the given consumer flows, for one
    flow vector or each row of an (m, n) stack of them.

    The tree balance is explicitly invertible: edge drops follow from the
    flows, the pressure left for each consumer fixes its total resistance,
    and the valve curve is solved for v.  Entries are +inf when even a fully
    open valve cannot pass the flow and -inf when any opening oversupplies.
    """
    q = np.asarray(q, dtype=float)
    dp_consumer = net.consumer_pressure(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        radicand = dp_consumer / q ** 2 - net._s_c - net._valve_base
        v = np.sqrt(net._valve_span / radicand) - net._valve_offset
    v[radicand <= 0.0] = np.inf  # not enough pressure headroom even fully open
    v[dp_consumer <= 0.0] = np.inf
    v[q <= 0.0] = -np.inf
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
        for name in ("c", "a_hat", "delta", "c_pw", "rho_w"):
            value = np.asarray(getattr(self, name))
            if not np.all((value > 0) & (value < np.inf)):
                raise ValueError(f"building parameter {name} must be > 0 and finite")
        if not np.all(np.isfinite(self.T_ref)):
            raise ValueError("building parameter T_ref must be finite")

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
    """Accumulated diagnostics across all flow solves of one scenario; a
    stack of m rows counts as m solves."""

    n_solves: int = 0
    max_mass_residual: float = 0.0

    def update(self, mass_residuals):
        """Count the solves of a stack from their (m,) mass residuals, or
        one solve from its float."""
        mass_residuals = np.atleast_1d(mass_residuals)
        self.n_solves += len(mass_residuals)
        self.max_mass_residual = max([self.max_mass_residual, *mass_residuals.tolist()])


class DhnAllocator:
    """Fast optimal open-loop allocations exploiting tree invertibility.

    Both methods follow the allocator contract of
    :class:`~capnet.interconnect.Interconnection`: they take an (m, n) stack
    of disturbances and return the stacked valves and errors with a list of
    m methods.  Valve positions follow in closed form from any prescribed
    consumer flow pattern (:func:`valve_positions_for_flows`).  Both methods
    have one shape: closed forms for the stack, per-row solver for the rest.
    They try their exact closed forms on the whole stack at once, so a row
    that one of them holds costs no call of its own, and only the rows
    neither holds go through the per-row solver, one at a time.

    The weighted-L1 optimum is an active set over reduced flow solves
    (:meth:`_l1_row`): an agent holds zero error, or its valve is fully open
    while it is short, or shut while it is oversupplied.  ``l1`` tries the
    exact rejection (every valve that zero error needs lies in [-1, 1]) on
    the whole stack, then solves the rows it misses all open: every deficit
    valve fully open, every surplus valve shut.  A row is held there when
    no deficit agent is short by more than the active set's tolerance;
    otherwise its all-open flows are the active set's first iterate, with
    the short agents released.  Each row is solved from its own all-open
    state, so it gets the bits it gets alone, wherever it sits in a stack.

    The min-max optimum has one signed error level lam, as the paper's
    coordinating equilibrium does: each agent's error is lam, or its valve
    is pinned at the bound that helps the others (shut for lam < 0, fully
    open for lam > 0), and the valve that sets lam is at the opposite bound
    b.  The sign comes from the valves that zero error needs: all in
    [-1, 1] is an exact rejection, one above 1 gives lam < 0, otherwise
    lam > 0.  One routine solves either sign (:meth:`_signed_level`): lam
    in closed form while nothing is pinned, then a root search per change
    of the pinned set.  When a pinned agent's error outweighs lam, the other
    sign is solved too and the smaller maximum kept.  An optimum with errors
    at both +M and -M, where no coordinating equilibrium exists, has neither
    shape and can be missed by a little.  ``linf``'s closed forms are the
    fully open level and the exact rejection; the rows neither holds go
    through :meth:`_signed_level`.

    ``stats``, when given, counts every flow solve that sets a returned
    error, and ``l1``'s all-open solves, with their mass residuals.  Errors
    raise FlowSolverError.  Used by the benchmark policies; the generic
    direct-search oracles remain the independent reference.
    """

    def __init__(self, net: HydraulicNetwork, coef: np.ndarray,
                 stats: Optional[HydraulicStats] = None):
        self.net = net
        self.coef = coef
        self.stats = stats

    def _solve(self, v):
        """The flows at valves v, one vector or a stack; ``stats`` counts
        every row and its mass residual."""
        q = solve_flows(self.net, v)
        if self.stats is not None:
            self.stats.update(self.net.mass_residual(q))
        return q

    def _errors(self, a, w, v):
        """The valves v clipped to the box and the errors they leave, for
        one vector or a stack."""
        v = np.clip(v, -1.0, 1.0)
        return v, (self.coef * self._solve(v) + w) / a

    def _flows(self, a, w, lam, b=1.0, pinned=None):
        """Flows with the agents outside ``pinned`` at error lam (no flow
        where that needs a negative one) and the valves in it at -b."""
        q = np.maximum((a * lam - w) / self.coef, 0.0)
        if pinned is None or not pinned.any():
            return q
        return solve_flows_partial(self.net, np.full(len(q), -b), np.where(pinned, np.nan, q))

    def _closed_form_level(self, a, w, b):
        """The level where, with nothing pinned, the first valve reaches b,
        for w or each row of a stack; nan where a quadratic has no real root
        or a flow there is not positive.

        Valve i is within b while b*f_i(lam) >= 0, with Q = E q and
        f_i(lam) = pump_dp - sum_k E_ki 2 s_k Q_k(lam)^2 - r_i(b) q_i(lam)^2
        concave in lam, as the flows q = (a*lam - w)/coef are affine: up to
        its larger root for b = 1, beyond it for b = -1."""
        net = self.net
        E = net.path_matrix
        alpha, beta = a / self.coef, -w / self.coef  # q(lam) = alpha*lam + beta
        A, B = E @ alpha, _along_paths(E, beta)
        r_b = net.consumer_resistance(np.full(net.n_consumers, b))
        c2 = -((net._s2 * A * A) @ E + r_b * alpha * alpha)
        c1 = -2.0 * (_over_paths(net._s2 * A * B, E) + r_b * alpha * beta)
        c0 = net.pump_dp - _over_paths(net._s2 * B * B, E) - r_b * beta * beta
        disc = c1 * c1 - 4.0 * c2 * c0
        with np.errstate(divide="ignore", invalid="ignore"):
            # both roots without cancellation; c2 < 0, so the larger is the max
            t = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
            lam = b * np.min(b * np.maximum(t / c2, c0 / t), axis=-1)
        real = np.all(disc >= 0.0, axis=-1)
        positive = np.all(alpha * lam[..., None] + beta > 0.0, axis=-1)
        return np.where(real & positive, lam, np.nan)

    def _pinned_level(self, a, w, b, pinned, lam_prev):
        """The level with the valves in ``pinned`` at -b, as the root of the
        free valves' pressure margin to b.  The root lies between lam_prev,
        the level before the last change of ``pinned`` (0 before any), and
        the error of the free agent worst off with every free valve at b.
        brentq gets 100 iterations; FlowSolverError when they run out."""
        net = self.net
        r_b = net.consumer_resistance(np.full(net.n_consumers, b))

        def margin(lam):  # >= 0 where every free valve is on the near side of b
            q = self._flows(a, w, lam, b, pinned)
            return float(np.min(b * (net.consumer_pressure(q) - r_b * q * q)[~pinned]))

        if margin(lam_prev) >= 0.0:  # the change does not move the level
            return lam_prev
        x_b = (self.coef * solve_flows(net, np.where(pinned, -b, b)) + w) / a
        lam_b = b * float(np.min(b * x_b[~pinned]))
        if margin(lam_b) <= 0.0:  # zero up to rounding: that agent binds at lam_b
            return lam_b
        from scipy.optimize import brentq  # deferred: scipy is slow to import

        lam, info = brentq(margin, lam_prev, lam_b, full_output=True, disp=False)
        if not info.converged:
            raise FlowSolverError("min-max level search did not converge",
                                  iterations=info.iterations)
        return lam

    def _signed_level(self, a, w, b):
        """Valves and errors at the level lam where a valve binds at b.  A
        valve that lam would push past the other bound is pinned there, and
        released once its agent's error lies beyond lam; both changes move
        lam away from 0, so the pinned set settles within 2n passes."""
        pinned = np.zeros(len(w), dtype=bool)
        lam, lam_prev = float(self._closed_form_level(a, w, b)), 0.0
        for _ in range(2 * len(w)):
            if np.isnan(lam):
                lam = self._pinned_level(a, w, b, pinned, lam_prev)
            q = self._flows(a, w, lam, b, pinned)
            v = valve_positions_for_flows(self.net, q)
            beyond = ~pinned & (b * v < -1.0)
            x = (self.coef * q + w) / a
            wrong = pinned & (b * (x - lam) < -1e-9 * (1.0 + abs(lam)))
            if not (beyond | wrong).any():
                return (*self._errors(a, w, np.where(pinned, -b, v)), "dhn-equalization")
            pinned, lam_prev, lam = (pinned | beyond) & ~wrong, lam, np.nan
        raise FlowSolverError("min-max pinned set did not settle")

    def _linf_signed(self, a, w, v_zero):
        """The min-max optimum of one w that neither closed form holds, from
        the valves v_zero that zero error needs."""
        b = 1.0 if np.any(v_zero > 1.0 + 1e-9) else -1.0
        best = self._signed_level(a, w, b)
        if np.max(b * best[1]) > np.max(-b * best[1]):
            # a pinned agent's error outweighs the level: try the other sign
            best = min(best, self._signed_level(a, w, -b), key=lambda r: np.max(np.abs(r[1])))
        return best

    def linf(self, a, W):
        m = len(W)
        V, X, methods = np.empty_like(W), np.empty_like(W), [None] * m
        todo = np.ones(m, dtype=bool)
        levels = ((self._closed_form_level(a, W, 1.0), "dhn-equalization"),
                  (np.zeros(m), "dhn-rejection"))
        for lam, method in levels:
            # above 0, every fully open valve can hold zero error
            rows = np.flatnonzero(todo & (lam <= 0.0))
            if len(rows):
                V[rows] = valve_positions_for_flows(self.net,
                                                    self._flows(a, W[rows], lam[rows, None]))
                held = rows[np.all((V[rows] >= -1.0) & (V[rows] <= 1.0 + 1e-9), axis=1)]
                todo[held] = False
                for k in held:
                    methods[k] = method
        if not todo.all():
            V[~todo], X[~todo] = self._errors(a, W[~todo], V[~todo])
        # the rejection pass left the valves that zero error needs in V[todo]
        for k in np.flatnonzero(todo):
            V[k], X[k], methods[k] = self._linf_signed(a, W[k], V[k])
        return V, X, methods

    @staticmethod
    def _l1_tol(w):
        """The active set's error tolerance, for w or each row of a stack."""
        return 1e-9 * (np.max(np.abs(w), axis=-1) + 1.0)

    def _l1_row(self, a, w, pinned, q):
        """The valves of one w's weighted-L1 optimum, by the active set from
        the all-open flows q, with the deficit agents in ``pinned`` fully
        open and every surplus agent shut."""
        net = self.net
        # an agent with w_i >= 0 is in surplus at every opening; by lemma 1,
        # closing its valve alone lowers a_i*|x_i| by more than it changes
        # everyone else's cost, so it stays shut and out of the active set.
        # An agent in deficit joins the shut set while even a shut valve
        # oversupplies it, as it joins the open set while a fully open one
        # leaves it short, and leaves either set once its error changes sign.
        shut = w >= 0.0
        q_zero_error = -w / self.coef
        tol = float(self._l1_tol(w))
        for _ in range(2 * net.n_consumers):
            fixed_q = np.where(pinned | shut, np.nan, q_zero_error)
            q = solve_flows_partial(net, np.where(shut, -1.0, 1.0), fixed_q, warm_start=q)
            x = (self.coef * q + w) / a
            v_needed = valve_positions_for_flows(net, q)
            free = ~(pinned | shut)
            release = (pinned & (x > tol)) | (shut & (x < -tol))
            grab, close = free & (v_needed > 1.0), free & (v_needed < -1.0)
            if not (release | grab | close).any():
                return np.where(shut, -1.0, np.where(pinned, 1.0, v_needed))
            pinned = (pinned & ~release) | grab
            shut = (shut & ~release) | close
        raise FlowSolverError("allocation active set did not settle")

    def l1(self, a, W):
        # exact rejection: every valve that zero error needs lies in the box
        V = valve_positions_for_flows(self.net, -W / self.coef)
        X = np.empty_like(W)
        # the rows whose errors the final solve sets: the exact rejections
        # and the active set's
        final = np.all((V >= -1.0) & (V <= 1.0), axis=1)
        rows = np.flatnonzero(~final)
        if len(rows):
            # all open: every deficit valve fully open and every surplus valve
            # shut (a surplus agent's error is positive at any opening).  The
            # row is held when no deficit agent's error exceeds the active
            # set's tol; otherwise this is the active set's first iterate
            surplus = W[rows] >= 0.0
            V[rows] = np.where(surplus, -1.0, 1.0)
            Q = self._solve(V[rows])
            X[rows] = (self.coef * Q + W[rows]) / a
            pinned = ~surplus & (X[rows] <= self._l1_tol(W[rows])[:, None])
            active = ~np.all(surplus | pinned, axis=1)
            for k, pin, q in zip(rows[active], pinned[active], Q[active]):
                V[k] = self._l1_row(a, W[k], pin, q)
            final[rows[active]] = True
        if final.any():
            V[final], X[final] = self._errors(a, W[final], V[final])
        return V, X, ["dhn-complementarity"] * len(W)


def dhn_interconnection(
    net: HydraulicNetwork,
    bld: BuildingParams,
    stats: Optional[HydraulicStats] = None,
) -> Interconnection:
    """Wrap the network as the interconnection b(v) = coef * q(v).

    coef_i = c_pw*rho_w*delta_i/c_i converts flow to heating rate [K/h].
    The flows of a stack of valve positions are one :func:`solve_flows`
    call; ``stats`` counts every row and its mass residual.
    """
    n = net.n_consumers
    coef = bld.heat_coefficient(n)
    bounds = SaturationBounds.symmetric(1.0, n)

    def fn(V):
        q = solve_flows(net, V)
        if stats is not None:
            stats.update(net.mass_residual(q))
        return coef * q

    def jac(v):
        return coef[:, None] * flow_sensitivity(net, v)

    return Interconnection(fn=fn, eta=np.ones(n), bounds=bounds, jacobian=jac,
                           name="dhn", allocator=DhnAllocator(net, coef, stats))


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
