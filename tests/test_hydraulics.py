import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capnet as cp
from capnet import hydraulics, sim
from capnet.errors import FlowSolverError
from capnet.hydraulics import (DhnAllocator, solve_flows_partial,
                               valve_positions_for_flows)


def single_consumer_net(pump_dp=0.6e6):
    return cp.HydraulicNetwork("23", [cp.Pipe("23", "A", 0.9)],
                               [cp.Consumer("A", 2.5)], pump_dp)


def reference_newton(net, v, tol=1e-13, max_iter=100):
    """Independent oracle for any tree: damped Newton on the consumer flows
    of the path pressure balances dp - sum_path 2 s Q|Q| - r q|q| = 0."""
    E = net.path_matrix
    s2 = 2.0 * np.array([p.s for p in net.pipes])
    r = np.array([c.s_c + c.valve_base + c.valve_span / (vi + c.valve_offset) ** 2
                  for c, vi in zip(net.consumers, v)])
    dp = net.pump_dp

    def residual(q):
        Q = E @ q
        return dp - (s2 * np.abs(Q) * Q) @ E - r * np.abs(q) * q

    q = np.sqrt(dp / (s2 @ E + r)) / np.sqrt(net.n_consumers)
    F = residual(q)
    for _ in range(max_iter):
        if np.max(np.abs(F)) <= tol * dp:
            return q
        H = (E.T * (2.0 * s2 * np.abs(E @ q))) @ E + np.diag(2.0 * r * np.abs(q))
        step = np.linalg.solve(H, F)
        t = 1.0
        while float(residual(q + t * step) @ residual(q + t * step)) >= float(F @ F):
            t *= 0.5
            assert t > 1e-12, "reference Newton line search stalled"
        q = q + t * step
        F = residual(q)
    raise AssertionError("reference Newton did not converge")


@st.composite
def random_trees(draw):
    """A plant, up to 6 junctions at depth <= 4, 1-8 consumers anywhere
    (the plant node included), and valve positions for them."""
    depth = {"P": 0}
    pipes = []
    for k in range(draw(st.integers(0, 6))):
        parent = draw(st.sampled_from(sorted(m for m in depth if depth[m] < 4)))
        depth[f"J{k}"] = depth[parent] + 1
        pipes.append(cp.Pipe(parent, f"J{k}", draw(st.floats(0.01, 2.0))))
    consumers = [
        cp.Consumer(draw(st.sampled_from(sorted(depth))), s_c=draw(st.floats(0.5, 5.0)),
                    valve_base=draw(st.floats(1.0, 10.0)),
                    valve_span=draw(st.floats(5.0, 50.0)))
        for _ in range(draw(st.integers(1, 8)))
    ]
    net = cp.HydraulicNetwork("P", pipes, consumers, draw(st.floats(1e2, 1e6)))
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in consumers])
    return net, v


def scalar_balance_bisect(v, s=0.9, s_c=2.5, dp=0.6e6):
    """Independent oracle: bisection on the single-consumer pressure balance."""
    def residual(q):
        r = s_c + 5.0 + 30.0 / (v + 1.001) ** 2
        return dp - 2.0 * s * q * abs(q) - r * q * abs(q)
    lo, hi = 0.0, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSingleConsumer:
    def test_full_open_matches_closed_form(self):
        net = single_consumer_net()
        q = cp.solve_flows(net, np.array([1.0]))
        closed = np.sqrt(0.6e6 / (2 * 0.9 + 2.5 + 5 + 30 / 2.001 ** 2))
        assert abs(q[0] - closed) / closed < 1e-6
        assert q[0] == pytest.approx(scalar_balance_bisect(1.0), rel=1e-9)

    def test_closed_valve_matches_closed_form(self):
        net = single_consumer_net()
        q = cp.solve_flows(net, np.array([-1.0]))
        closed = np.sqrt(0.6e6 / (2 * 0.9 + 2.5 + 5 + 30 / 0.001 ** 2))
        assert abs(q[0] - closed) / closed < 1e-6
        assert q[0] == pytest.approx(0.141, abs=5e-4)
        assert q[0] == pytest.approx(scalar_balance_bisect(-1.0), rel=1e-9)

    def test_bisection_oracle_across_positions(self):
        net = single_consumer_net()
        for v in (-0.9, -0.5, 0.0, 0.5, 0.99):
            q = cp.solve_flows(net, np.array([v]))
            assert q[0] == pytest.approx(scalar_balance_bisect(v), rel=1e-9)


class TestNetworkSolver:
    def test_symmetric_star_equal_flows(self):
        net = cp.HydraulicNetwork(
            "P", [cp.Pipe("P", "A", 0.5), cp.Pipe("A", "L", 0.1), cp.Pipe("A", "R", 0.1)],
            [cp.Consumer("L", 2.5), cp.Consumer("R", 2.5)], 1e5)
        for v in (0.3, -0.4, 1.0):
            q = cp.solve_flows(net, np.array([v, v]))
            assert q[0] == pytest.approx(q[1], rel=1e-12)

    def test_mass_conservation(self):
        net = cp.build_dhn_network()
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.uniform(-1, 1, net.n_consumers)
            assert net.mass_residual(cp.solve_flows(net, v)) < 1e-8

    def test_flows_strictly_positive(self):
        net = cp.build_dhn_network()
        rng = np.random.default_rng(1)
        v = rng.uniform(-1, 1, net.n_consumers)
        assert np.all(cp.solve_flows(net, v) > 0)

    def test_deterministic_bit_identical(self):
        net = cp.build_dhn_network()
        v = np.linspace(-0.9, 0.9, net.n_consumers)
        q1 = cp.solve_flows(net, v)
        q2 = cp.solve_flows(net, v)
        np.testing.assert_array_equal(q1, q2)

    def test_results_independent_of_call_history(self):
        net, bld, _ = cp.build_dhn_scenario()
        v = np.full(net.n_consumers, 0.2)
        fresh = cp.dhn_interconnection(net, bld)(v)
        used = cp.dhn_interconnection(net, bld)
        for w in (np.ones(22), -np.ones(22), np.linspace(-1, 1, 22)):
            used(w)
        np.testing.assert_array_equal(used(v), fresh)
        np.testing.assert_array_equal(used.jacobian(v),
                                      cp.dhn_interconnection(net, bld).jacobian(v))

    def test_pressure_scaling_sqrt(self):
        base = cp.build_dhn_network(1.0)
        scaled = cp.build_dhn_network(0.25)
        v = np.full(base.n_consumers, 0.1)
        np.testing.assert_allclose(cp.solve_flows(scaled, v),
                                   0.5 * cp.solve_flows(base, v), rtol=1e-9)

    def test_zero_pump_pressure_is_solver_error(self):
        net = cp.build_dhn_network(0.0)
        with pytest.raises(FlowSolverError):
            cp.solve_flows(net, np.zeros(net.n_consumers))

    @pytest.mark.parametrize("slot", [0, 5, 21])
    def test_nan_valve_refused_as_outside_box(self, slot):
        # min and max of a list skip a NaN after the first entry
        net = cp.build_dhn_network(cp.CALIBRATED_CAPACITY_SCALE)
        v = np.zeros(net.n_consumers)
        v[slot] = np.nan
        with pytest.raises(FlowSolverError, match=r"valve positions must lie in \[-1, 1\]"):
            cp.solve_flows(net, v)
        with pytest.raises(FlowSolverError, match=r"^valve positions must lie"):
            cp.solve_flows(net, v[None])  # a stack of one fails as its row, unnamed
        V = np.zeros((4, net.n_consumers))
        V[2, slot] = np.nan
        with pytest.raises(FlowSolverError, match=r"row 2 of 4: valve positions must lie"):
            cp.solve_flows(net, V)

    def test_aggregate_flow_monotone_in_valves(self):
        # opening any single valve strictly raises the total throughput and
        # strictly lowers everyone else's share
        net = cp.build_dhn_network()
        rng = np.random.default_rng(2)
        v = rng.uniform(-0.5, 0.5, net.n_consumers)
        q = cp.solve_flows(net, v)
        for i in (0, 7, 13, 21):
            v2 = v.copy()
            v2[i] += 0.3
            q2 = cp.solve_flows(net, v2)
            assert q2.sum() > q.sum()
            others = np.arange(net.n_consumers) != i
            assert np.all(q2[others] < q[others])

    def test_tree_validation(self):
        with pytest.raises(ValueError):
            cp.HydraulicNetwork("P", [cp.Pipe("P", "A", 1.0), cp.Pipe("B", "A", 1.0)],
                                [cp.Consumer("A")], 1e5)
        with pytest.raises(ValueError):
            cp.HydraulicNetwork("P", [cp.Pipe("A", "B", 1.0)],
                                [cp.Consumer("B")], 1e5)
        with pytest.raises(ValueError):
            cp.HydraulicNetwork("P", [cp.Pipe("P", "A", 1.0)],
                                [cp.Consumer("missing")], 1e5)

    @pytest.mark.parametrize("pump_dp", [-1.0, float("nan"), float("inf")])
    def test_pump_dp_must_be_finite_and_non_negative(self, pump_dp):
        with pytest.raises(ValueError, match="pump_dp"):
            single_consumer_net(pump_dp)

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
    def test_pipe_resistance_must_be_positive(self, s):
        with pytest.raises(ValueError, match="resistance must be > 0"):
            cp.Pipe("P", "A", s)

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["s_c", "valve_base", "valve_span"])
    def test_consumer_resistances_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match="resistances must be > 0"):
            cp.Consumer("A", **{name: value})

    @pytest.mark.parametrize("offset", [1.0, float("nan"), float("inf")])
    def test_valve_offset_must_exceed_one(self, offset):
        with pytest.raises(ValueError, match="valve offset"):
            cp.Consumer("A", valve_offset=offset)

    def test_jacobian_matches_finite_differences(self):
        net = cp.build_dhn_network()
        v = np.full(net.n_consumers, 0.3)
        J = cp.flow_sensitivity(net, v)
        q0 = cp.solve_flows(net, v)
        eps = 1e-6
        for j in (0, 11, 21):
            vp = v.copy()
            vp[j] += eps
            fd = (cp.solve_flows(net, vp) - q0) / eps
            np.testing.assert_allclose(J[:, j], fd, atol=1e-4 * np.max(np.abs(fd)))


class TestTreeSolveProperties:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(random_trees())
    def test_matches_reference_newton(self, tree):
        net, v = tree
        q = cp.solve_flows(net, v)
        np.testing.assert_allclose(q, reference_newton(net, v), rtol=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(random_trees())
    def test_valve_inversion_round_trip(self, tree):
        net, v = tree
        q = cp.solve_flows(net, v, tol=1e-10)  # raises above that pressure residual
        assert net.mass_residual(q) <= 1e-12 * q.sum()
        np.testing.assert_allclose(valve_positions_for_flows(net, q), v, atol=1e-7)


def study_network():
    return cp.build_dhn_network(cp.CALIBRATED_CAPACITY_SCALE)


def valve_stack(rng, m, n):
    """Uniform valves with a few entries at exactly -1 and 1 and a few
    within 1e-12 outside the box, which the solve clips."""
    V = rng.uniform(-1.0, 1.0, (m, n))
    k = rng.integers(0, V.size, (4, max(1, V.size // 20)))
    V.flat[k[0]], V.flat[k[1]] = -1.0, 1.0
    V.flat[k[2]], V.flat[k[3]] = -1.0 - 5e-13, 1.0 + 5e-13
    return V


class TestStackedSolve:
    """The (m, n) form of solve_flows gives every row the bits of the row loop."""

    @pytest.mark.parametrize("m", [2, 5, 22, 23, 385, 1000])
    def test_matches_row_loop(self, m):
        net = study_network()
        V = valve_stack(np.random.default_rng(m), m, net.n_consumers)
        rows = np.array([cp.solve_flows(net, v) for v in V])
        q = cp.solve_flows(net, V)
        np.testing.assert_array_equal(q, rows)
        np.testing.assert_array_equal(net.mass_residual(q),
                                      [net.mass_residual(row) for row in rows])

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(random_trees(), st.integers(2, 7))
    def test_matches_row_loop_on_random_trees(self, tree, m):
        net, v = tree
        V = np.vstack([v, valve_stack(np.random.default_rng(m), m - 1, net.n_consumers)])
        np.testing.assert_array_equal(cp.solve_flows(net, V),
                                      [cp.solve_flows(net, row) for row in V])

    def test_stack_of_one_and_empty_stack(self):
        net = study_network()
        v = np.linspace(-1.0, 1.0, net.n_consumers)
        np.testing.assert_array_equal(cp.solve_flows(net, v[None]), [cp.solve_flows(net, v)])
        assert cp.solve_flows(net, np.empty((0, net.n_consumers))).shape == (0, net.n_consumers)

    def test_stack_of_one_is_one_call(self, monkeypatch):
        # the tracer wraps the module-level name: a stack of one solved by
        # calling it again would count twice
        calls = []
        solve = hydraulics.solve_flows

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hydraulics, "solve_flows", counted)
        net = study_network()
        assert hydraulics.solve_flows(net, np.zeros((1, net.n_consumers))).shape == (1, 22)
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 2, 22), (22, 1)])
    def test_other_shapes_raise(self, shape):
        with pytest.raises(cp.DimensionError):
            cp.solve_flows(study_network(), np.zeros(shape))

    def test_row_outside_box_fails_the_stack(self):
        net = study_network()
        V = np.zeros((5, net.n_consumers))
        V[3, 7] = 1.0 + 2e-12
        with pytest.raises(FlowSolverError, match=r"row 3 of 5: valve positions must lie"):
            cp.solve_flows(net, V)
        # a stack of one fails as its row does, with no row named
        for v in (V[3], V[3:4]):
            with pytest.raises(FlowSolverError, match=r"^valve positions must lie"):
                cp.solve_flows(net, v)

    def test_failed_check_names_the_first_failing_row(self):
        # at a tolerance of row 0's own residual, the rows with a larger one
        # fail their pressure-balance check: the stack fails with the first
        # of them and that row's residual
        net = study_network()
        V = np.random.default_rng(3).uniform(-1.0, 1.0, (40, net.n_consumers))
        residuals = []
        for v in V:
            with pytest.raises(FlowSolverError) as info:
                cp.solve_flows(net, v, tol=-1.0)
            residuals.append(info.value.residual)
        tol = residuals[0]
        k = next(k for k, residual in enumerate(residuals) if residual > tol)
        with pytest.raises(FlowSolverError, match=rf"row {k} of 40: flow solve failed") as info:
            cp.solve_flows(net, V, tol=tol)
        assert info.value.residual == residuals[k]
        # a stack of one fails as its row does: same message, same residual
        messages = []
        for v in (V[k], V[k:k + 1]):
            with pytest.raises(FlowSolverError, match=r"^flow solve failed") as info:
                cp.solve_flows(net, v, tol=tol)
            assert info.value.residual == residuals[k]
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_zero_pump_pressure_raises(self):
        net = cp.build_dhn_network(0.0)
        with pytest.raises(FlowSolverError, match="pump differential pressure is zero"):
            cp.solve_flows(net, np.zeros((3, net.n_consumers)))

    def test_interconnection_counts_every_row(self):
        net, bld = study_network(), cp.BuildingParams()
        V = valve_stack(np.random.default_rng(9), 30, net.n_consumers)
        stacked, rows = cp.HydraulicStats(), cp.HydraulicStats()
        b = cp.dhn_interconnection(net, bld, stacked)(V)
        ic = cp.dhn_interconnection(net, bld, rows)
        np.testing.assert_array_equal(b, [ic(v) for v in V])
        # construction probes a stack of 6 on either side
        assert stacked.n_solves == rows.n_solves == 6 + len(V)
        assert stacked.max_mass_residual == rows.max_mass_residual

    @pytest.mark.parametrize("slot", [0, 5])
    def test_nan_input_is_domain_error(self, slot):
        ic = cp.dhn_interconnection(study_network(), cp.BuildingParams())
        v = np.zeros(ic.n)
        v[slot] = np.nan
        with pytest.raises(cp.DomainError):
            ic(v)
        with pytest.raises(cp.DomainError):
            ic(np.vstack([np.zeros(ic.n), v]))


class TestInverseMaps:
    def test_valve_positions_on_stacks(self):
        # rows that need a valve beyond fully open (+inf), that get
        # oversupplied by any opening (-inf), and solved flows
        net = study_network()
        rng = np.random.default_rng(5)
        Q = cp.solve_flows(net, rng.uniform(-1.0, 1.0, (8, net.n_consumers)))
        Q[1] *= 50.0
        Q[2, [0, 9]] = 0.0
        Q[3, 4] = -1.0
        Q[4, 12] *= 30.0
        V = valve_positions_for_flows(net, Q)
        rows = np.array([valve_positions_for_flows(net, q) for q in Q])
        np.testing.assert_array_equal(V, rows)
        assert np.isposinf(V[1]).all() and np.isposinf(V[4, 12])
        assert np.isneginf(V[2, [0, 9]]).all() and np.isneginf(V[3, 4])
        assert np.isfinite(V[[0, 5, 6, 7]]).all()


    def test_valve_positions_invert_solved_flows(self):
        net = cp.build_dhn_network()
        rng = np.random.default_rng(4)
        v = rng.uniform(-0.8, 0.9, net.n_consumers)
        q = cp.solve_flows(net, v)
        np.testing.assert_allclose(valve_positions_for_flows(net, q), v, atol=1e-7)

    def test_partial_solve_consistent_with_full(self):
        net = cp.build_dhn_network()
        v = np.full(net.n_consumers, 0.5)
        q_full = cp.solve_flows(net, v)
        fixed = np.full(net.n_consumers, np.nan)
        fixed[::2] = q_full[::2]
        q_mixed = solve_flows_partial(net, v, fixed)
        np.testing.assert_allclose(q_mixed, q_full, rtol=1e-8)


class TestBuildings:
    def test_heat_coefficient(self):
        bld = cp.BuildingParams()
        np.testing.assert_allclose(bld.heat_coefficient(3), 29.0)

    def test_rates_and_disturbance(self):
        bld = cp.BuildingParams()
        np.testing.assert_allclose(bld.rates(2), 0.6)
        np.testing.assert_allclose(bld.disturbance(2, -25.0), -27.0)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            cp.BuildingParams(c=0.0)

    @pytest.mark.parametrize("value", [float("nan"), np.array([2.0, float("nan")]),
                                       float("inf")])
    @pytest.mark.parametrize("name", ["c", "a_hat", "delta", "c_pw", "rho_w"])
    def test_nan_building_parameter_refused(self, name, value):
        with pytest.raises(ValueError, match=f"building parameter {name} must be > 0"):
            cp.BuildingParams(**{name: value})

    @pytest.mark.parametrize("T_ref", [float("nan"), float("inf"), [20.0, float("nan")]])
    def test_non_finite_T_ref_refused(self, T_ref):
        with pytest.raises(ValueError, match="building parameter T_ref must be finite"):
            cp.BuildingParams(T_ref=T_ref)


class TestScenario:
    def test_consumer_count(self):
        net, bld, agents = cp.build_dhn_scenario()
        assert net.n_consumers == 22
        assert agents.n == 22
        np.testing.assert_allclose(agents.a, 0.6)
        np.testing.assert_allclose(agents.w, -27.0)

    def test_network_file_round_trip(self, tmp_path):
        net = cp.build_dhn_network()
        data = cp.network_to_dict(net)
        path = tmp_path / "net.cfg"
        path.write_text(json.dumps(data), encoding="utf-8")
        net2 = cp.network_from_dict(json.loads(path.read_text(encoding="utf-8")))
        v = np.full(22, 0.25)
        np.testing.assert_array_equal(cp.solve_flows(net, v), cp.solve_flows(net2, v))

    def test_network_file_unknown_key(self):
        data = cp.network_to_dict(cp.build_dhn_network())
        data["pipes"] = []
        with pytest.raises(cp.ConfigError):
            cp.network_from_dict(data)

    def test_interconnection_values_and_stats(self):
        net, bld, _ = cp.build_dhn_scenario()
        stats = cp.HydraulicStats()
        ic = cp.dhn_interconnection(net, bld, stats)
        v = np.zeros(22)
        np.testing.assert_allclose(ic(v), 29.0 * cp.solve_flows(net, v), rtol=1e-9)
        assert stats.n_solves >= 1
        assert stats.max_mass_residual < 1e-8

    def test_dhn_satisfies_structural_assumption(self, dhn_small):
        _, _, ic = dhn_small
        assert cp.check_assumption1(ic, 300, rng_seed=0).passed

    def test_zero_flow_limit(self):
        # all valves shut against a tiny pump pressure: heat rate nearly zero
        net = cp.build_dhn_network(1e-9)
        bld = cp.BuildingParams()
        ic = cp.dhn_interconnection(net, bld)
        b = ic(np.full(22, -1.0))
        assert np.all(b > 0) and np.all(b < 1e-3)


#: dhn_small's line at a tenth of its pump pressure, and disturbances under
#: which the weakly loaded agent is oversupplied even by a shut valve
LOW_PUMP_W = [[-0.05, -30.0], [-30.0, -0.05]]


def low_pump_small_net():
    return cp.HydraulicNetwork(
        "P", [cp.Pipe("P", "A", 0.9), cp.Pipe("A", "B", 0.3)],
        [cp.Consumer("A", 2.5), cp.Consumer("B", 2.5)], 0.6e6 * 2e-6)


class TestAllocatorsOnSmallNetwork:
    @pytest.mark.parametrize("T_o", [-26.5, -15.0, -5.0])
    def test_l1_matches_grid_oracle(self, dhn_small, T_o):
        net, bld, ic = dhn_small
        agents = cp.AgentEnsemble(a=bld.rates(2), w=bld.disturbance(2, T_o))
        fast = cp.solve_l1_allocation(ic, agents)
        slow = cp.oracle_weighted_l1(ic, agents, cp.OracleOptions(grid_points=41))
        assert fast.cost <= slow.cost + 1e-6 * (1 + slow.cost)

    @pytest.mark.parametrize("T_o", [-26.5, -15.0, -5.0])
    def test_linf_matches_grid_oracle(self, dhn_small, T_o):
        net, bld, ic = dhn_small
        agents = cp.AgentEnsemble(a=bld.rates(2), w=bld.disturbance(2, T_o))
        fast = cp.solve_linf_allocation(ic, agents)
        slow = cp.oracle_linf(ic, agents, cp.OracleOptions(grid_points=41))
        assert fast.cost <= slow.cost + 1e-6 * (1 + slow.cost)

    @pytest.mark.parametrize("w", [[0.5, -5.0], [-5.0, 0.5], [0.0, -20.0], [3.0, -1.0]])
    def test_l1_shuts_agents_without_demand(self, dhn_small, w):
        net, bld, ic = dhn_small
        agents = cp.AgentEnsemble(a=bld.rates(2), w=w)
        fast = cp.solve_l1_allocation(ic, agents)
        slow = cp.oracle_weighted_l1(ic, agents, cp.OracleOptions(grid_points=41))
        assert fast.method == "dhn-complementarity"
        np.testing.assert_array_equal(fast.v[np.asarray(w) >= 0.0], -1.0)
        assert fast.cost <= slow.cost + 1e-9 * (1 + slow.cost)

    @pytest.mark.parametrize("w", [[3.0, -1.0], [0.5, -5.0], [-0.01, -5.0], [-5.0, -0.01],
                                   [-0.5, -20.0], [2.0, 1.0], [1.0, 2.0]])
    def test_linf_with_surplus_agent_matches_oracle(self, dhn_small, w):
        # an agent oversupplied even by a shut valve binds the level, and the
        # other valve opens to draw flow from it: fully for w = [3, -1],
        # partly for w = [2, 1].  w = [-0.5, -20] is an exact rejection that
        # the default 9-point grid misses.
        net, bld, ic = dhn_small
        agents = cp.AgentEnsemble(a=bld.rates(2), w=w)
        fast = cp.solve_linf_allocation(ic, agents)
        slow = cp.oracle_linf(ic, agents, cp.OracleOptions(grid_points=41))
        assert fast.cost <= slow.cost + 1e-9 * (1 + slow.cost)
        np.testing.assert_allclose(fast.v, slow.v, atol=1e-5)

    @pytest.mark.parametrize("w", [[-0.01, -5.0], [-5.0, -0.01]])
    def test_l1_shuts_deficit_agent_oversupplied_when_shut(self, dhn_small, w):
        # the weakly loaded agent needs a valve below -1 for zero error: it
        # is shut, and the flow it cannot refuse is left to the other agent
        net, bld, ic = dhn_small
        agents = cp.AgentEnsemble(a=bld.rates(2), w=w)
        fast = cp.solve_l1_allocation(ic, agents)
        slow = cp.oracle_weighted_l1(ic, agents, cp.OracleOptions(grid_points=41))
        assert fast.cost <= slow.cost + 1e-9 * (1 + slow.cost)
        np.testing.assert_array_equal(fast.v[np.argmax(w)], -1.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.floats(0.0, 6.0), st.floats(-30.0, -0.1), st.booleans())
    def test_linf_mixed_signs_matches_oracle(self, dhn_small, surplus, deficit, swap):
        net, bld, ic = dhn_small
        w = [deficit, surplus] if swap else [surplus, deficit]
        agents = cp.AgentEnsemble(a=bld.rates(2), w=w)
        fast = cp.solve_linf_allocation(ic, agents)
        slow = cp.oracle_linf(ic, agents)
        assert fast.cost <= slow.cost + 1e-9 * (1 + slow.cost)

    @pytest.mark.parametrize("w", LOW_PUMP_W, ids=["weak-first", "weak-last"])
    def test_linf_low_pump_matches_oracle(self, w):
        bld = cp.BuildingParams()
        ic = cp.dhn_interconnection(low_pump_small_net(), bld)
        agents = cp.AgentEnsemble(a=bld.rates(2), w=w)
        fast = cp.solve_linf_allocation(ic, agents)
        slow = cp.oracle_linf(ic, agents, cp.OracleOptions(grid_points=41))
        assert fast.cost <= slow.cost + 1e-9 * (1 + slow.cost)
        np.testing.assert_allclose(fast.v, slow.v, atol=1e-5)

    @pytest.mark.xfail(strict=True, reason="linf's signed level misses an optimum with "
                                           "errors at both +M and -M")
    def test_linf_two_sided_optimum_matches_oracle(self):
        # the optimum has one agent at +M and one at -M, which no single
        # signed level describes; linf returns 9.9949205 here and the grid
        # oracle finds 9.9948515
        net = cp.HydraulicNetwork(
            "P", [cp.Pipe("P", "J", 1.847)],
            [cp.Consumer("J", 3.312, 8.736, 42.33), cp.Consumer("J", 3.530, 7.427, 39.06),
             cp.Consumer("J", 2.447, 9.087, 12.22)], 3.271)
        bld = cp.BuildingParams()
        ic = cp.dhn_interconnection(net, bld)
        agents = cp.AgentEnsemble(a=bld.rates(3), w=[5.99, -7.89, -17.77])
        fast = cp.solve_linf_allocation(ic, agents)
        slow = cp.oracle_linf(ic, agents, cp.OracleOptions(grid_points=21))
        assert fast.cost <= slow.cost + 1e-9 * (1 + slow.cost)

    def test_deep_deficit_equalizes(self, dhn_small):
        net, bld, ic = dhn_small
        agents = cp.AgentEnsemble(a=bld.rates(2), w=bld.disturbance(2, -26.5))
        res = cp.solve_linf_allocation(ic, agents)
        assert res.x.max() - res.x.min() < 1e-6
        assert np.any(res.v >= 1.0 - 1e-9)


def count_calls(monkeypatch, owner, names):
    """Count the calls of each named function or method of ``owner``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def count_inverse_calls(monkeypatch):
    """Count the allocator's inverse-map and partial-solve calls."""
    return count_calls(monkeypatch, hydraulics,
                       ("valve_positions_for_flows", "solve_flows_partial"))


def linf_full_bisection(alloc, a, w):
    """The all-deficit min-max optimum by 100 halvings on the common error
    level tau: the largest tau < 0 whose flows (a*tau - w)/coef no valve
    needs to open beyond 1 for."""
    def valves(tau):
        return valve_positions_for_flows(alloc.net, (a * tau - w) / alloc.coef)

    x_full = (alloc.coef * cp.solve_flows(alloc.net, np.ones(len(a))) + w) / a
    tau_lo, tau_hi = float(np.min(x_full)), 0.0
    while np.max(valves(tau_lo)) > 1.0:
        tau_lo -= max(1.0, 0.1 * abs(tau_lo))
    for _ in range(100):
        tau_mid = 0.5 * (tau_lo + tau_hi)
        if np.max(valves(tau_mid)) <= 1.0:
            tau_lo = tau_mid
        else:
            tau_hi = tau_mid
    v = np.clip(valves(tau_lo), -1.0, 1.0)
    return v, (alloc.coef * cp.solve_flows(alloc.net, v) + w) / a


class TestDhnAllocator:
    @pytest.mark.parametrize("T_o, cost", [(20.0, 3.0596817753551195),
                                           (25.0, 69.05968177535513)])
    def test_l1_without_heating_demand_shuts_every_valve(self, T_o, cost):
        net, bld, agents = cp.build_dhn_scenario(
            T_o=T_o, capacity_scale=cp.CALIBRATED_CAPACITY_SCALE)
        res = cp.solve_l1_allocation(cp.dhn_interconnection(net, bld), agents)
        np.testing.assert_array_equal(res.v, -np.ones(22))
        assert res.cost == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("T_o, method", [(-26.5, "dhn-equalization"),
                                             (-20.0, "dhn-equalization"),
                                             (-15.0, "dhn-rejection")])
    def test_linf_closed_form_level(self, monkeypatch, T_o, method):
        net = cp.build_dhn_network(cp.CALIBRATED_CAPACITY_SCALE)
        bld = cp.BuildingParams()
        a, w = bld.rates(22), bld.disturbance(22, T_o)
        alloc = DhnAllocator(net, bld.heat_coefficient(22))
        v_ref, x_ref = linf_full_bisection(alloc, a, w)
        calls = count_inverse_calls(monkeypatch)
        (v,), (x,), (got,) = alloc.linf(a, w[None])
        assert got == method
        assert calls == {"valve_positions_for_flows": 1, "solve_flows_partial": 0}
        np.testing.assert_allclose(v, v_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)
        assert np.ptp(x) < 1e-10
        if method == "dhn-equalization":
            assert np.max(v) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        else:  # milder than about -17 degC the network rejects w exactly
            assert np.max(np.abs(x)) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(random_trees(), st.data())
    def test_linf_closed_form_never_costlier_than_bisection(self, tree, data):
        net, v = tree
        n = net.n_consumers
        bld = cp.BuildingParams()
        a, coef = bld.rates(n), bld.heat_coefficient(n)
        # every agent in deficit, from well inside to well beyond what the
        # valves at v deliver
        scale = np.array(data.draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n)))
        w = -coef * cp.solve_flows(net, v) * scale
        alloc = DhnAllocator(net, coef)
        v_ref, x_ref = linf_full_bisection(alloc, a, w)
        (v_new,), (x_new,), _ = alloc.linf(a, w[None])
        cost_ref = cp.linf_cost(x_ref)
        assert cp.linf_cost(x_new) <= cost_ref + 1e-12 * (1.0 + cost_ref)
        if np.all(v_ref > -1.0):  # no valve shut, so the bisection is the optimum
            np.testing.assert_allclose(v_new, v_ref, rtol=0.0, atol=1e-10)

    def test_linf_study_profile_makes_one_inverse_call(self, monkeypatch):
        net, bld, _ = cp.build_dhn_scenario(capacity_scale=cp.CALIBRATED_CAPACITY_SCALE)
        ic = cp.dhn_interconnection(net, bld)
        a = bld.rates(22)
        profile = sim.make_temperature_profile().with_thermal_map(a, np.full(22, bld.T_ref))
        calls = count_inverse_calls(monkeypatch)
        for t in np.linspace(0.0, 96.0, 385):  # the reproduce-dhn output grid
            w = profile.eval(t)
            assert np.all(w < 0.0)
            cp.solve_linf_allocation(ic, cp.AgentEnsemble(a=a, w=w))
            assert calls == {"valve_positions_for_flows": 1, "solve_flows_partial": 0}, t
            calls.update(dict.fromkeys(calls, 0))


def study_disturbances(bld):
    """w at the 385 times of the reproduce-dhn output grid, 0 to 96 h by 0.25 h."""
    a = bld.rates(22)
    profile = sim.make_temperature_profile().with_thermal_map(a, np.full(22, bld.T_ref))
    return a, profile.eval(0.25 * np.arange(385))


def spy_l1_rows(monkeypatch):
    """Record the disturbance of every row that ``l1`` hands to the active set."""
    chained = []
    l1_row = DhnAllocator._l1_row
    monkeypatch.setattr(DhnAllocator, "_l1_row",
                        lambda self, a, w, pinned, q: chained.append(w.copy())
                        or l1_row(self, a, w, pinned, q))
    return chained


def l1_mixed_stack(rng, net, coef):
    """Disturbances on a small network, shuffled: exact rejections (zero
    error at random valves), rows where every deficit valve is fully open
    and short by up to 3 K/h with every surplus valve shut, and rows that
    need the active set, with and without a surplus agent."""
    n = net.n_consumers
    rejection = -coef * cp.solve_flows(net, rng.uniform(-0.9, 0.9, (8, n)))
    # one surplus agent in every other row
    surplus = np.zeros((24, n), dtype=bool)
    surplus[np.arange(0, 24, 2), rng.integers(0, n, 12)] = True
    W = np.where(surplus, rng.uniform(0.0, 6.0, (24, n)), rng.uniform(-30.0, -0.01, (24, n)))
    short = -coef * cp.solve_flows(net, np.where(surplus, -1.0, 1.0)) - rng.uniform(0.5, 3.0)
    W[:12] = np.where(surplus, W, short)[:12]
    W = np.vstack([rejection, W, LOW_PUMP_W])
    return W[rng.permutation(len(W))]


def rows_alone(solve, a, W):
    """Each row of W solved as a stack of one, as (v, x, method)."""
    return [tuple(out[0] for out in solve(a, w[None])) for w in W]


def assert_rows_match(stacked, rows):
    V, X, methods = stacked
    np.testing.assert_array_equal(V, [row[0] for row in rows])
    np.testing.assert_array_equal(X, [row[1] for row in rows])
    assert methods == [row[2] for row in rows]


class TestAllocatorStacks:
    """Allocators take a stack of disturbances and give every row the bits
    of solving it as a stack of one, so a permuted stack gives the permuted
    rows; the weighted-L1 active set starts each row from its own all-open
    state."""

    def test_linf_study_rows(self, monkeypatch):
        net, bld = study_network(), cp.BuildingParams()
        a, W = study_disturbances(bld)
        alloc = DhnAllocator(net, bld.heat_coefficient(22))
        rows = rows_alone(alloc.linf, a, W)
        calls = count_inverse_calls(monkeypatch)
        stacked = alloc.linf(a, W)
        assert_rows_match(stacked, rows)
        assert set(stacked[2]) == {"dhn-equalization", "dhn-rejection"}
        # one inverse map per closed form, for the whole stack
        assert calls == {"valve_positions_for_flows": 2, "solve_flows_partial": 0}

    @pytest.mark.parametrize("low_pump", [False, True])
    def test_linf_rows_through_signed_level(self, monkeypatch, dhn_small, low_pump):
        # mixed signs, surplus agents and the low-pump cases that neither
        # closed form holds sit between rows that one does
        net = low_pump_small_net() if low_pump else dhn_small[0]
        bld = cp.BuildingParams()
        a = bld.rates(2)
        rng = np.random.default_rng(7)
        W = np.vstack([[[3.0, -1.0], [-26.0, -20.0], [0.5, -5.0], [2.0, 1.0], [1.0, 2.0],
                        [-0.01, -5.0], [-0.5, -20.0], [-5.0, -5.0]], LOW_PUMP_W,
                       np.column_stack([rng.uniform(0.0, 6.0, 12), rng.uniform(-30.0, -0.1, 12)]),
                       rng.uniform(-30.0, 0.0, (8, 2))])
        alloc = DhnAllocator(net, bld.heat_coefficient(2))
        rows = rows_alone(alloc.linf, a, W)
        signed = []
        signed_level = DhnAllocator._signed_level
        monkeypatch.setattr(DhnAllocator, "_signed_level",
                            lambda self, a, w, b: signed.append(b) or signed_level(self, a, w, b))
        assert_rows_match(alloc.linf(a, W), rows)
        assert signed

    def test_l1_study_rows_match_warm_chain(self, monkeypatch):
        net, bld = study_network(), cp.BuildingParams()
        a, W = study_disturbances(bld)
        alloc = DhnAllocator(net, bld.heat_coefficient(22))
        rows = rows_alone(alloc.l1, a, W)
        solves = count_calls(monkeypatch, hydraulics, ("solve_flows",))
        pressures = count_calls(monkeypatch, cp.HydraulicNetwork, ("consumer_pressure",))
        assert_rows_match(alloc.l1(a, W), rows)
        # one all-open solve for the rows the exact rejection misses and one
        # for the errors of the others; the active set goes on from the
        # all-open flows (665 pressure evaluations, 844 from cold starts)
        assert solves["solve_flows"] == 2
        assert pressures["consumer_pressure"] <= 700
        p = np.random.default_rng(0).permutation(len(W))
        assert_rows_match(alloc.l1(a, W[p]), [rows[k] for k in p])

    def test_l1_closed_form_study_rows_make_no_partial_solve(self, monkeypatch):
        net, bld = study_network(), cp.BuildingParams()
        a, W = study_disturbances(bld)
        alloc = DhnAllocator(net, bld.heat_coefficient(22))
        chained = spy_l1_rows(monkeypatch)
        V, X, methods = alloc.l1(a, W)
        held = ~np.any(np.all(W[:, None] == np.array(chained)[None], axis=2), axis=1)
        assert held.sum() == 322 and len(chained) == 63
        # exact rejections and all-open rows, held by one closed form each
        assert np.all(np.abs(V[held]) == 1.0, axis=1).sum() == 44
        # the held rows alone: one inverse map and no active-set row
        calls = count_inverse_calls(monkeypatch)
        alone = alloc.l1(a, W[held])
        assert calls == {"valve_positions_for_flows": 1, "solve_flows_partial": 0}
        assert len(chained) == 63
        assert_rows_match(alone, list(zip(V[held], X[held], np.array(methods)[held])))

    @pytest.mark.parametrize("low_pump", [False, True])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_l1_mixed_stack_matches_warm_chain(self, monkeypatch, dhn_small, low_pump, seed):
        net = low_pump_small_net() if low_pump else dhn_small[0]
        bld = cp.BuildingParams()
        a, coef = bld.rates(2), bld.heat_coefficient(2)
        alloc = DhnAllocator(net, coef)
        W = l1_mixed_stack(np.random.default_rng(seed), net, coef)
        rows = rows_alone(alloc.l1, a, W)
        chained = spy_l1_rows(monkeypatch)
        V, X, methods = alloc.l1(a, W)
        assert_rows_match((V, X, methods), rows)
        # every route was taken: exact rejections, all open with a surplus
        # agent shut, and the active set with and without one
        routed = np.array([any(np.array_equal(w, c) for c in chained) for w in W])
        surplus = np.any(W >= 0.0, axis=1)
        inside = np.all(np.abs(V) < 1.0, axis=1)
        open_ = np.all(V == np.where(W >= 0.0, -1.0, 1.0), axis=1)
        assert (inside & ~routed).any() and (open_ & surplus & ~routed).any()
        assert (routed & surplus).any() and (routed & ~surplus).any()
        p = np.random.default_rng(seed).permutation(len(W))
        assert_rows_match(alloc.l1(a, W[p]), [rows[k] for k in p])

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_linear_allocator_rows(self, ic2, norm):
        W = np.array([[-2.0, -1.0], [0.3, -0.4], [-0.5, 1.2], [1.0, 1.0]])
        solve, a = getattr(ic2.allocator, norm), np.array([1.0, 2.0])
        assert_rows_match(solve(a, W), rows_alone(solve, a, W))

    def test_empty_stack(self):
        net, bld = study_network(), cp.BuildingParams()
        alloc = DhnAllocator(net, bld.heat_coefficient(22))
        for solve in (alloc.l1, alloc.linf):
            V, X, methods = solve(bld.rates(22), np.empty((0, 22)))
            assert V.shape == X.shape == (0, 22) and methods == []

