import numpy as np
import pytest

import capnet as cp
from capnet.equilibria import NoEquilibrium
from tests.conftest import B_REF, W_REF


def scalar_stationarity_bisect(w=-2.0, a=1.0, kA=0.4, lim=1.0):
    """Independent oracle for the scalar saturated equilibrium input: bisection
    on g(u) = sat(u) + w + a*kA*(u - sat(u)), which is increasing in u."""
    def g(u):
        s = min(max(u, -lim), lim)
        return s + w + a * kA * (u - s)
    lo, hi = -100.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDecentralizedEquilibrium:
    def test_scalar_against_bisection(self, scalar_system):
        rep = cp.find_equilibrium_decentralized(scalar_system)
        assert rep.u0[0] == pytest.approx(scalar_stationarity_bisect(), abs=1e-9)
        assert rep.u0[0] == pytest.approx(3.5, abs=1e-9)
        assert rep.x0[0] == pytest.approx(-1.0, abs=1e-10)
        assert rep.z0[0] == pytest.approx(-1.5, abs=1e-9)

    def test_two_agent_values(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        np.testing.assert_allclose(rep.u0, [4.125, 1.625], atol=1e-9)
        np.testing.assert_allclose(rep.x0, [-1.25, -0.25], atol=1e-10)
        assert rep.residual < 1e-10
        assert rep.cost_l1w == pytest.approx(1.5, abs=1e-9)
        assert rep.cost_linf == pytest.approx(1.25, abs=1e-9)

    def test_origin_when_unforced(self, ic2, gains_dec2, bounds2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, 0.0])
        sys0 = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_dec2,
                                   bounds=bounds2)
        rep = cp.find_equilibrium_decentralized(sys0)
        np.testing.assert_allclose(rep.u0, 0.0, atol=1e-10)
        np.testing.assert_allclose(rep.x0, 0.0, atol=1e-10)

    def test_relax_independent(self, sys_dec2):
        r1 = cp.find_equilibrium_decentralized(sys_dec2, relax=0.05)
        r2 = cp.find_equilibrium_decentralized(sys_dec2, relax=0.22)
        np.testing.assert_allclose(r1.u0, r2.u0, atol=1e-9)

    def test_sign_complementarity(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        dz0 = cp.deadzone(rep.u0, sys_dec2.bounds)
        for i in range(2):
            if abs(rep.x0[i]) > 1e-9:
                assert np.sign(rep.x0[i]) == -np.sign(dz0[i])

    def test_residual_is_field_norm(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        s = cp.ClosedLoopState(rep.x0, rep.z0)
        dx, dz = cp.field_decentralized(sys_dec2, s)
        assert rep.residual == pytest.approx(max(np.max(np.abs(dx)), np.max(np.abs(dz))))
        assert rep.residual < 1e-9


class TestCoordinatingEquilibrium:
    def test_two_agent_values(self, sys_coord2):
        rep = cp.find_equilibrium_coordinating(sys_coord2)
        assert isinstance(rep, cp.EquilibriumReport)
        np.testing.assert_allclose(rep.x0, [-1.05, -1.05], atol=1e-8)
        np.testing.assert_allclose(np.clip(rep.u0, -1, 1), [1.0, 0.2], atol=1e-8)
        dz0 = cp.deadzone(rep.u0, sys_coord2.bounds)
        assert np.sum(dz0) == pytest.approx(2.1, abs=1e-7)
        assert rep.x0.max() - rep.x0.min() < 1e-9
        # stationarity of the shared anti-windup term: x0 = -kC * sum(dz(u0))
        np.testing.assert_allclose(
            rep.x0, -sys_coord2.gains.kC * np.sum(dz0) * np.ones(2), atol=1e-8)

    def test_rejectable_gives_zero_error(self, ic2, gains_coord2, bounds2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-0.3, 0.2])
        sysc = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_coord2,
                                   bounds=bounds2)
        rep = cp.find_equilibrium_coordinating(sysc)
        np.testing.assert_allclose(rep.x0, 0.0, atol=1e-9)
        assert np.all(cp.deadzone(rep.u0, bounds2) == 0.0)

    def test_no_equilibrium_for_uneven_disturbance(self, ic2, gains_coord2, bounds2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-100.0, 0.0])
        sysc = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_coord2,
                                   bounds=bounds2)
        out = cp.find_equilibrium_coordinating(sysc, max_iter=40_000)
        assert isinstance(out, NoEquilibrium)
        assert out.best_residual > 1.0

    def test_dhn_capacity_bound_equalizes_errors(self):
        # calibrated DHN at -26.5 degC with tuning-compliant gains; the
        # equalized level 9.31561 is the L-infinity allocator's optimum
        net, bld, agents = cp.build_dhn_scenario(T_o=-26.5,
                                                 capacity_scale=cp.CALIBRATED_CAPACITY_SCALE)
        ic = cp.dhn_interconnection(net, bld)
        n = net.n_consumers
        gains = cp.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.4), mode="coordinating",
                                   alpha=0.5, kC=0.9 * 2 / n)
        sysc = cp.ClosedLoopSystem(agents=agents, ic=ic, gains=gains,
                                   bounds=cp.SaturationBounds.symmetric(1.0, n))
        rep = cp.find_equilibrium_coordinating(sysc)
        assert isinstance(rep, cp.EquilibriumReport), rep.message
        assert rep.x0.max() - rep.x0.min() < 1e-9
        allocation = cp.solve_linf_allocation(ic, agents)
        assert rep.cost_linf == pytest.approx(allocation.cost, rel=1e-7)
        assert rep.cost_linf == pytest.approx(9.31561, abs=1e-5)

    def test_uneven_disturbance_infeasible_by_scan(self, ic2):
        # equal errors demand (b1+w1) == (b2+w2); a box scan shows the gap
        # never closes, confirming the stall is genuine
        g = np.linspace(-1.0, 1.0, 41)
        best = np.inf
        for v1 in g:
            for v2 in g:
                b = B_REF @ np.array([v1, v2])
                best = min(best, abs((b[0] - 100.0) - (b[1] + 0.0)))
        assert best > 90.0


class TestOracles:
    def test_l1_reference_values(self, ic2, agents2):
        res = cp.oracle_weighted_l1(ic2, agents2)
        assert res.cost == pytest.approx(1.5, abs=1e-8)
        np.testing.assert_allclose(res.v, [1.0, 1.0], atol=1e-6)

    def test_linf_reference_values(self, ic2, agents2):
        res = cp.oracle_linf(ic2, agents2)
        assert res.cost == pytest.approx(1.05, abs=1e-8)
        np.testing.assert_allclose(res.v, [1.0, 0.2], atol=1e-5)

    def test_zero_cost_when_rejectable(self, ic2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-0.3, 0.2])
        assert cp.oracle_weighted_l1(ic2, agents).cost < 1e-8
        assert cp.oracle_linf(ic2, agents).cost < 1e-8

    def test_grid_refinement_monotone(self, ic2, agents2):
        coarse = cp.oracle_linf(ic2, agents2, cp.OracleOptions(grid_points=9))
        fine = cp.oracle_linf(ic2, agents2, cp.OracleOptions(grid_points=17))
        assert fine.cost <= coarse.cost + 1e-9

    def test_lhs_path_used_for_larger_n(self):
        n = 6
        B = np.eye(n) - 0.05 * (np.ones((n, n)) - np.eye(n))
        bounds = cp.SaturationBounds.symmetric(1.0, n)
        ic = cp.LinearMMatrix(B).as_interconnection(bounds)
        agents = cp.AgentEnsemble(a=np.ones(n), w=-2.0 * np.ones(n))
        res = cp.oracle_weighted_l1(ic, agents)
        assert res.method.startswith("lhs")
        # deficit for everyone: optimum is the fully open corner
        corner = (ic(np.ones(n)) + agents.w) / agents.a
        assert res.cost == pytest.approx(np.sum(np.abs(corner)), rel=1e-4)


class TestStructuredAllocators:
    def test_match_oracles_linear(self, ic2, agents2):
        l1 = cp.solve_l1_allocation(ic2, agents2)
        li = cp.solve_linf_allocation(ic2, agents2)
        assert l1.cost == pytest.approx(1.5, abs=1e-8)
        assert li.cost == pytest.approx(1.05, abs=1e-8)

    def test_mixed_regime(self, ic2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-2.0, -0.5])
        l1 = cp.solve_l1_allocation(ic2, agents)
        ref = cp.oracle_weighted_l1(ic2, agents)
        assert l1.cost == pytest.approx(ref.cost, abs=1e-7)


class TestVerifyOptimality:
    def test_decentralized_passes(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        verdict = cp.verify_optimality(sys_dec2, rep, "l1w", n_samples=1000, seed=0)
        assert verdict.passed
        assert abs(verdict.details["margin"]) < 1e-6

    def test_coordinating_passes(self, sys_coord2):
        rep = cp.find_equilibrium_coordinating(sys_coord2)
        verdict = cp.verify_optimality(sys_coord2, rep, "linf", n_samples=1000, seed=0)
        assert verdict.passed

    def test_perturbed_input_detected(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        wrong_u = np.array([0.5, -0.5])  # different saturation pattern
        x = (sys_dec2.ic(np.clip(wrong_u, -1, 1)) + sys_dec2.agents.w) / sys_dec2.agents.a
        fake = cp.EquilibriumReport(
            mode=rep.mode, u0=wrong_u, x0=x, z0=rep.z0, zeta0=rep.zeta0,
            residual=0.0, cost_l1w=float(np.sum(np.abs(x))),
            cost_linf=float(np.max(np.abs(x))), iterations=0, relax=0.0)
        verdict = cp.verify_optimality(sys_dec2, fake, "l1w", n_samples=200, seed=0)
        assert not verdict.passed

    def test_report_is_key_value_text(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        verdict = cp.verify_optimality(sys_dec2, rep, "l1w", n_samples=10, seed=0)
        text = verdict.report()
        assert "passed=True" in text
        assert any(line.startswith("margin=") for line in text.splitlines())


class TestCostOrdering:
    def test_each_controller_wins_its_own_metric(self, sys_dec2, sys_coord2):
        dec = cp.find_equilibrium_decentralized(sys_dec2)
        coord = cp.find_equilibrium_coordinating(sys_coord2)
        assert dec.cost_l1w <= coord.cost_l1w + 1e-9
        assert coord.cost_linf <= dec.cost_linf + 1e-9


class TestSixAgentInstance:
    """Random M-matrix coupling, uneven disturbances, several saturated
    agents at once: both equilibria must match the structured allocators."""

    @pytest.fixture(scope="class")
    @staticmethod
    def instance():
        rng = np.random.default_rng(5)
        n = 6
        off = -rng.uniform(0.02, 0.12, (n, n))
        np.fill_diagonal(off, 0.0)
        B = np.eye(n) + off
        ic = cp.LinearMMatrix(B).as_interconnection(cp.SaturationBounds.symmetric(1.0, n))
        agents = cp.AgentEnsemble(a=np.ones(n), w=-rng.uniform(1.2, 2.2, n))
        return ic, agents

    def test_decentralized_cost_matches_allocator(self, instance):
        ic, agents = instance
        gains = cp.ControllerGains(kP=2.0, kI=1.0, mode="decentralized", kA=0.4,
                                   n_agents=6)
        sys6 = cp.ClosedLoopSystem(agents=agents, ic=ic, gains=gains, bounds=ic.bounds)
        eq = cp.find_equilibrium_decentralized(sys6)
        alloc = cp.solve_l1_allocation(ic, agents)
        assert eq.cost_l1w == pytest.approx(alloc.cost, abs=1e-8)

    def test_coordinating_cost_matches_allocator(self, instance):
        ic, agents = instance
        gains = cp.ControllerGains(kP=1.0, kI=0.5, mode="coordinating", kC=0.2,
                                   alpha=1.0, n_agents=6)
        sys6 = cp.ClosedLoopSystem(agents=agents, ic=ic, gains=gains, bounds=ic.bounds)
        eq = cp.find_equilibrium_coordinating(sys6)
        assert isinstance(eq, cp.EquilibriumReport)
        assert eq.residual < 1e-9
        assert eq.x0.max() - eq.x0.min() < 1e-9
        alloc = cp.solve_linf_allocation(ic, agents)
        assert eq.cost_linf == pytest.approx(alloc.cost, abs=1e-8)


class TestGlobalConvergence:
    def test_decentralized(self, sys_dec2):
        verdict = cp.verify_global_convergence(sys_dec2, n_starts=5, seed=3,
                                               t_max=150.0, tol=1e-4)
        assert verdict.passed
        assert verdict.details["monitored_runs"] == 5
        assert verdict.details["monitor_violations"] == 0

    def test_coordinating_rejectable(self, ic2, gains_coord2, bounds2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-0.3, 0.2])
        sysc = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_coord2,
                                   bounds=bounds2)
        verdict = cp.verify_global_convergence(sysc, n_starts=5, seed=4,
                                               t_max=150.0, tol=1e-4)
        assert verdict.passed

    def test_tuning_gate(self, ic2, bounds2):
        agents = cp.AgentEnsemble(a=[0.3, 0.3], w=[-1.0, -1.0])
        gains = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0],
                                   mode="decentralized", kA=[0.4, 0.4])
        sys_bad = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains,
                                      bounds=bounds2)
        with pytest.raises(cp.TuningError):
            cp.verify_global_convergence(sys_bad, n_starts=1, t_max=1.0)
