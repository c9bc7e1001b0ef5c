import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

import capnet as cp
from capnet import cli, core, equilibria, interconnect, sim
from capnet.equilibria import NoEquilibrium
from capnet.hydraulics import DhnAllocator
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


def damped_decentralized_reference(B, a, w, kA, max_iter=200_000):
    """Independent reference for the linear decentralized equilibrium: the
    damped fixed point u <- u - relax*(B sat(u) + w + a*kA*dz(u)) on [-1, 1]^n.
    For column-diagonally-dominant B every linear piece of the map is a
    contraction in the 1-norm at this step, so the iteration converges."""
    c = a * kA
    relax = 1.0 / max(float(np.max(np.sum(np.abs(B), axis=0))), float(np.max(c)))
    u = np.zeros(len(w))
    for _ in range(max_iter):
        v = np.clip(u, -1.0, 1.0)
        step = relax * (B @ v + w + c * (u - v))
        u = u - step
        if float(np.max(np.abs(step))) < 1e-15 * (1.0 + float(np.max(np.abs(u)))):
            return u
    raise AssertionError("damped reference iteration did not converge")


def random_linear_instance(seed, n, regime):
    """Column- and row-diagonally-dominant M-matrix coupling on [-1, 1]^n
    with a disturbance that the network can reject, that leaves every agent
    in deficit even fully open, or that asks some agents for more than a
    fully open valve and others for more than a shut one or less."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n)
    B = np.diag(d) - rng.uniform(0.0, 0.8 * float(d.min()) / (n - 1), (n, n)) * (1 - np.eye(n))
    bounds = cp.SaturationBounds.symmetric(1.0, n)
    if regime == "rejectable":
        w = -B @ rng.uniform(-0.9, 0.9, n)
    elif regime == "deficit":
        w = -B @ np.ones(n) - rng.uniform(0.05, 2.0, n)
    else:
        w = -B @ rng.uniform(-1.5, 1.5, n)
    return B, cp.LinearMMatrix(B).as_interconnection(bounds), w, rng.uniform(0.5, 2.0, n)


SOLVERS = {"decentralized": cp.find_equilibrium_decentralized,
           "coordinating": cp.find_equilibrium_coordinating}


def dhn_system(mode, ic=None):
    """The calibrated DHN at -26.5 degC with tuning-compliant gains."""
    net, bld, agents = cp.build_dhn_scenario(T_o=-26.5,
                                             capacity_scale=cp.CALIBRATED_CAPACITY_SCALE)
    ic = ic or cp.dhn_interconnection(net, bld)
    n = net.n_consumers
    if mode == "decentralized":
        gains = cp.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.4), mode=mode,
                                   kA=np.full(n, 0.9))
    else:
        gains = cp.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.4), mode=mode,
                                   alpha=0.5, kC=0.9 * 2 / n)
    return cp.ClosedLoopSystem(agents=agents, ic=ic, gains=gains,
                               bounds=cp.SaturationBounds.symmetric(1.0, n))


class CountingInterconnection:
    """A DHN interconnection whose fn and linearization calls are counted."""

    def __init__(self):
        net, bld, _ = cp.build_dhn_scenario(T_o=-26.5,
                                            capacity_scale=cp.CALIBRATED_CAPACITY_SCALE)
        base = cp.dhn_interconnection(net, bld)
        self.calls = 0

        def counted(f):
            def wrapper(v):
                self.calls += 1
                return f(v)
            return wrapper

        self.ic = cp.Interconnection(fn=counted(base.fn), eta=base.eta, bounds=base.bounds,
                                     linearization=counted(base.linearization),
                                     allocator=base.allocator)
        self.calls = 0  # construction probes fn


class TestVaryingDisturbance:
    """Each operation defined for a constant w refuses a varying one with
    VaryingDisturbanceError naming the operation."""

    @pytest.fixture(scope="class")
    def varying(self, ic2, gains_dec2, gains_coord2, bounds2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=cp.DisturbanceProfile.piecewise(
            [0.0, 1.0], [W_REF, 2.0 * W_REF]))
        return {mode: cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains, bounds=bounds2)
                for mode, gains in (("decentralized", gains_dec2),
                                    ("coordinating", gains_coord2))}

    @pytest.mark.parametrize("name, mode", [
        ("open_loop_state", "decentralized"),
        ("solve_l1_allocation", "decentralized"),
        ("solve_linf_allocation", "decentralized"),
        ("find_equilibrium_decentralized", "decentralized"),
        ("find_equilibrium_coordinating", "coordinating"),
    ])
    def test_refused(self, varying, name, mode):
        sys_ = varying[mode]
        args = {"open_loop_state": (sys_.ic, sys_.agents, np.zeros(2)),
                "solve_l1_allocation": (sys_.ic, sys_.agents),
                "solve_linf_allocation": (sys_.ic, sys_.agents)}.get(name, (sys_,))
        with pytest.raises(cp.VaryingDisturbanceError, match=f"^{name} needs a constant"):
            getattr(cp, name)(*args)


@pytest.mark.parametrize("mode, system", [("decentralized", "sys_dec2"),
                                          ("coordinating", "sys_coord2")])
def test_find_equilibrium_takes_the_solve_of_the_gains_mode(request, mode, system):
    sys_ = request.getfixturevalue(system)
    got, want = cp.find_equilibrium(sys_), SOLVERS[mode](sys_)
    assert got.mode == mode
    np.testing.assert_array_equal(got.u0, want.u0)


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

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           regime=st.sampled_from(["rejectable", "deficit", "mixed"]))
    def test_matches_damped_reference_and_allocators(self, seed, n, regime):
        B, ic, w, a = random_linear_instance(seed, n, regime)
        agents = cp.AgentEnsemble(a=a, w=w)
        kA = np.random.default_rng(seed + 1).uniform(0.2, 1.0, n)
        dec = cp.ClosedLoopSystem(
            agents=agents, ic=ic, bounds=ic.bounds,
            gains=cp.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.5),
                                     mode="decentralized", kA=kA))
        rep = cp.find_equilibrium_decentralized(dec)
        assert rep.residual < 1e-12
        np.testing.assert_allclose(rep.u0, damped_decentralized_reference(B, a, w, kA),
                                   rtol=0.0, atol=1e-8)
        alloc = cp.solve_l1_allocation(ic, agents)
        assert rep.cost_l1w == pytest.approx(alloc.cost, rel=1e-8, abs=1e-8)
        assert alloc.cost <= cp.oracle_weighted_l1(ic, agents).cost + 1e-9
        coord = cp.ClosedLoopSystem(
            agents=agents, ic=ic, bounds=ic.bounds,
            gains=cp.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.5), mode="coordinating",
                                     kC=float(np.random.default_rng(seed + 2).uniform(0.1, 1.0)),
                                     alpha=1.0))
        out = cp.find_equilibrium_coordinating(coord)
        linf = cp.solve_linf_allocation(ic, agents)
        assert linf.cost <= cp.oracle_linf(ic, agents).cost + 1e-9
        if linf.x.max() - linf.x.min() < 1e-9:
            assert isinstance(out, cp.EquilibriumReport), out.message
        if isinstance(out, cp.EquilibriumReport):
            assert out.residual < 1e-10
            assert out.x0.max() - out.x0.min() < 1e-9
            assert out.cost_linf == pytest.approx(linf.cost, rel=1e-8, abs=1e-8)

    def test_sign_complementarity(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        dz0 = cp.deadzone(rep.u0, sys_dec2.bounds)
        for i in range(2):
            if abs(rep.x0[i]) > 1e-9:
                assert np.sign(rep.x0[i]) == -np.sign(dz0[i])

    def test_residual_is_field_norm(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        s = cp.ClosedLoopState(rep.x0, rep.z0)
        dx, dz = cp.field(sys_dec2, s)
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
        sysc = dhn_system("coordinating")
        rep = cp.find_equilibrium_coordinating(sysc)
        assert isinstance(rep, cp.EquilibriumReport), rep.message
        assert rep.x0.max() - rep.x0.min() < 1e-9
        allocation = cp.solve_linf_allocation(sysc.ic, sysc.agents)
        assert rep.cost_linf == pytest.approx(allocation.cost, rel=1e-7)
        assert rep.cost_linf == pytest.approx(9.31561, abs=1e-5)

    def test_dhn_newton_reaches_equalized_equilibrium(self):
        # on this draw the L-infinity allocator equalizes every error at
        # 48.19584 (spread 5e-14), the shape of a coordinating equilibrium;
        # with the excess on the loop's own scale a*kC the Newton solve
        # stalled after 93 steps at residual 5.9
        base = dhn_system("coordinating")
        w = np.random.default_rng(0).uniform(-30.0, 30.0, (5, 22))[4]
        sysc = dataclasses.replace(base, agents=cp.AgentEnsemble(a=base.agents.a, w=w))
        allocation = cp.solve_linf_allocation(sysc.ic, sysc.agents)
        assert allocation.method == "dhn-equalization"
        rep = cp.find_equilibrium_coordinating(sysc)
        assert isinstance(rep, cp.EquilibriumReport), rep.message
        assert rep.cost_linf == pytest.approx(allocation.cost, rel=1e-7)

    @pytest.mark.parametrize("low, high", [(-30.0, 30.0), (-5.0, 30.0)])
    def test_dhn_sweep_agrees_with_linf_allocator(self, low, high):
        # 120 mixed-sign draws, then 120 mostly single-sign ones: every
        # equilibrium found attains the L-infinity optimum, and where that
        # optimum has every error equal (the shape of a coordinating
        # equilibrium) the solve does not report NoEquilibrium
        base = dhn_system("coordinating")
        found = 0
        for w in np.random.default_rng(0).uniform(low, high, (120, 22)):
            sysc = dataclasses.replace(base, agents=cp.AgentEnsemble(a=base.agents.a, w=w))
            allocation = cp.solve_linf_allocation(sysc.ic, sysc.agents)
            out = cp.find_equilibrium_coordinating(sysc)
            if isinstance(out, NoEquilibrium):
                x = allocation.x
                assert np.ptp(x) > 1e-9 * (1.0 + np.max(np.abs(x))), out.message
            else:
                found += 1
                assert abs(out.cost_linf - allocation.cost) <= 1e-7 * (1.0 + allocation.cost)
        assert found > 0

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


class TestNewtonBudget:
    """On the calibrated DHN both equilibria take a handful of Newton steps,
    each one Jacobian and one evaluation of b per trial point."""

    @pytest.mark.parametrize("mode, limit", [("decentralized", 50), ("coordinating", 300)])
    def test_dhn_evaluation_count(self, mode, limit):
        counting = CountingInterconnection()
        rep = SOLVERS[mode](dhn_system(mode, counting.ic))
        assert isinstance(rep, cp.EquilibriumReport)
        assert counting.calls <= limit
        assert rep.iterations <= counting.calls
        assert rep.iterations <= 80

    @pytest.mark.parametrize("mode", ["decentralized", "coordinating"])
    def test_exhausted_budget_raises_with_residual(self, mode):
        with pytest.raises(cp.EquilibriumError, match=r"residual \d\.\d+e[+-]\d+") as info:
            SOLVERS[mode](dhn_system(mode), max_iter=1)
        assert info.value.iterations == 1
        assert info.value.residual > 0.0
        assert info.value.saturated is not None

    def test_exhausted_root_budget_raises_typed_error(self, monkeypatch):
        # the excess-sum search on the calibrated DHN takes more than one
        # root iteration; out of them it raises EquilibriumError, not scipy's
        monkeypatch.setattr(core, "ROOT_MAX_ITER", 1)
        with pytest.raises(cp.EquilibriumError, match=r"excess-sum search stopped") as info:
            cp.find_equilibrium_coordinating(dhn_system("coordinating"))
        assert info.value.iterations > 0
        assert info.value.residual > 0.0
        assert info.value.saturated is not None


class TestIndependentOfOpenLoopRoute:
    """The closed-loop solves must not lean on the open-loop optima they are
    certified against."""

    @pytest.fixture
    def no_open_loop_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed-loop solve used the open-loop route")

        for name in ("_direct_search", "solve_l1_allocation", "solve_linf_allocation",
                     "oracle_weighted_l1", "oracle_linf"):
            monkeypatch.setattr(equilibria, name, refuse)

        class RefusingAllocator:
            l1 = linf = staticmethod(refuse)

        return RefusingAllocator()

    def test_dhn(self, no_open_loop_route):
        base = dhn_system("decentralized").ic
        ic = cp.Interconnection(fn=base.fn, eta=base.eta, bounds=base.bounds,
                                linearization=base.linearization,
                                allocator=no_open_loop_route)
        dec = cp.find_equilibrium_decentralized(dhn_system("decentralized", ic))
        coord = cp.find_equilibrium_coordinating(dhn_system("coordinating", ic))
        assert dec.residual < 1e-12
        assert isinstance(coord, cp.EquilibriumReport) and coord.residual < 1e-10

    def test_dhn_closed_loop_never_calls_the_allocator(self, monkeypatch, tmp_path):
        # b(v) reaches the flow solve through the interconnection's meter,
        # not through the allocator it carries: both equilibria, the three
        # checkers and four hours of the study's RODAS4 run call no method
        # of it (building the interconnection still builds the allocator)
        systems = {mode: dhn_system(mode) for mode in SOLVERS}
        cfg = cli.ScenarioConfig.load(cli.shipped_config_path("dhn_study_decentralized.cfg"))
        cfg.data["sim"]["t_span"] = [0.0, 4.0]
        cfg.data["outputs"]["directory"] = str(tmp_path)
        study = cli.build_scenario(cfg)
        called = []
        for name, attr in list(vars(DhnAllocator).items()):
            fn = attr.__func__ if isinstance(attr, staticmethod) else attr
            if name == "__init__" or not callable(fn):
                continue

            def spy(*args, _name=name, _fn=fn, **kwargs):
                called.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(DhnAllocator, name,
                                staticmethod(spy) if isinstance(attr, staticmethod) else spy)
        for mode, sys_ in systems.items():
            assert isinstance(SOLVERS[mode](sys_), cp.EquilibriumReport)
        for check in (cp.check_assumption1, cp.check_lemma1, cp.check_lemma2):
            check(systems["decentralized"].ic, 100)
        sim.run_scenario(study)
        assert study.system.ic.counts()["flow_solves"] > 6
        assert called == []

    def test_linear(self, no_open_loop_route, sys_dec2, sys_coord2):
        base = sys_dec2.ic
        ic = cp.Interconnection(fn=base.fn, eta=base.eta, bounds=base.bounds,
                                linearization=base.linearization,
                                allocator=no_open_loop_route)
        dec = cp.ClosedLoopSystem(agents=sys_dec2.agents, ic=ic, gains=sys_dec2.gains,
                                  bounds=sys_dec2.bounds)
        coord = cp.ClosedLoopSystem(agents=sys_coord2.agents, ic=ic,
                                    gains=sys_coord2.gains, bounds=sys_coord2.bounds)
        assert cp.find_equilibrium_decentralized(dec).residual < 1e-12
        assert cp.find_equilibrium_coordinating(coord).residual < 1e-10


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

    def test_linf_surplus_even_when_shut(self):
        # one agent is in surplus even with its valve shut; error equalization
        # returned cost 1.1116 here
        _, ic, w, a = random_linear_instance(2, 2, "mixed")
        agents = cp.AgentEnsemble(a=a, w=w)
        li = cp.solve_linf_allocation(ic, agents)
        assert li.cost == pytest.approx(cp.oracle_linf(ic, agents).cost, rel=0.0, abs=1e-9)
        assert li.cost == pytest.approx(0.1593, abs=1e-4)

    def test_linf_six_agent_deficit(self):
        # the equalization and rejection solves both failed here, and the
        # Latin-hypercube fallback returned 1.7044
        _, ic, w, a = random_linear_instance(0, 6, "deficit")
        assert cp.solve_linf_allocation(ic, cp.AgentEnsemble(a=a, w=w)).cost <= 1.69377

    def test_without_allocator_uses_oracle(self, ic2, agents2):
        bare = cp.Interconnection(fn=ic2.fn, eta=ic2.eta, bounds=ic2.bounds)
        for solve, cost in ((cp.solve_l1_allocation, 1.5), (cp.solve_linf_allocation, 1.05)):
            res = solve(bare, agents2)
            assert res.method.startswith("oracle:")
            assert res.cost == pytest.approx(cost, abs=1e-8)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 2, 2)])
    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_stack_shape_checked(self, ic2, norm, shape):
        # a disturbance is a stack of one: a 1-D w is refused, as is a
        # stack of the wrong width or rank
        for ic in (ic2, cp.Interconnection(fn=ic2.fn, eta=ic2.eta, bounds=ic2.bounds)):
            with pytest.raises(cp.DimensionError, match=r"\(m, 2\) stack"):
                equilibria.solve_allocations(ic, np.ones(2), np.zeros(shape), norm)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    @pytest.mark.parametrize("system", ["linear", "dhn", "no-allocator"])
    def test_stack_matches_allocation_per_w(self, ic2, system, norm):
        # without an allocator, each row is the direct-search oracle's
        if system != "dhn":
            ic, a = ic2, np.array([1.0, 2.0])
            if system == "no-allocator":
                ic = cp.Interconnection(fn=ic2.fn, eta=ic2.eta, bounds=ic2.bounds)
            W = np.array([[-2.0, -1.0], [0.3, -0.4], [-0.5, 1.2], [1.0, 1.0]])
        else:
            # the study's hours whose weighted-L1 rows need the active set
            net, bld, _ = cp.build_dhn_scenario(capacity_scale=cp.CALIBRATED_CAPACITY_SCALE)
            ic, a = cp.dhn_interconnection(net, bld), bld.rates(22)
            profile = sim.make_temperature_profile().with_thermal_map(a, np.full(22, bld.T_ref))
            W = profile.eval(np.arange(29.5, 65.0, 1.5))
        V, X = equilibria.solve_allocations(ic, a, W, norm)
        solve = {"l1": cp.solve_l1_allocation, "linf": cp.solve_linf_allocation}[norm]
        for v, x, w in zip(V, X, W):
            res = solve(ic, cp.AgentEnsemble(a=a, w=w))
            np.testing.assert_array_equal(v, res.v)
            np.testing.assert_array_equal(x, res.x)

    @pytest.mark.parametrize("solve", [cp.solve_l1_allocation, cp.solve_linf_allocation])
    def test_solver_failure_raises(self, monkeypatch, ic2, agents2, solve):
        def failed(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(interconnect, "linprog", failed)
        with pytest.raises(cp.AllocationError, match="numerical difficulties") as info:
            solve(ic2, agents2)
        assert info.value.status == 4


class TestVerifyOptimality:
    def test_decentralized_passes(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        verdict = cp.verify_optimality(sys_dec2, rep, n_samples=1000, seed=0)
        assert verdict.passed
        assert abs(verdict.details["margin"]) < 1e-6

    def test_coordinating_passes(self, sys_coord2):
        rep = cp.find_equilibrium_coordinating(sys_coord2)
        verdict = cp.verify_optimality(sys_coord2, rep, n_samples=1000, seed=0)
        assert verdict.passed

    def test_perturbed_input_detected(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        wrong_u = np.array([0.5, -0.5])  # different saturation pattern
        x = (sys_dec2.ic(np.clip(wrong_u, -1, 1)) + sys_dec2.agents.w) / sys_dec2.agents.a
        fake = cp.EquilibriumReport(
            mode=rep.mode, u0=wrong_u, x0=x, z0=rep.z0, zeta0=rep.zeta0,
            residual=0.0, cost_l1w=float(np.sum(np.abs(x))),
            cost_linf=float(np.max(np.abs(x))), iterations=0)
        verdict = cp.verify_optimality(sys_dec2, fake, n_samples=200, seed=0)
        assert not verdict.passed

    def test_report_is_key_value_text(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        verdict = cp.verify_optimality(sys_dec2, rep, n_samples=10, seed=0)
        text = verdict.report()
        assert "passed=True" in text
        assert any(line.startswith("margin=") for line in text.splitlines())


class TestCostOrdering:
    def test_each_controller_wins_its_own_metric(self, sys_dec2, sys_coord2):
        dec = cp.find_equilibrium_decentralized(sys_dec2)
        coord = cp.find_equilibrium_coordinating(sys_coord2)
        assert dec.cost_l1w <= coord.cost_l1w + 1e-9
        assert coord.cost_linf <= dec.cost_linf + 1e-9


class TestDhnAllocatorsAgainstEquilibria:
    """The DHN allocators against the closed-loop equilibria of the calibrated
    network with the tuning-compliant gains, at seeded random disturbances."""

    @staticmethod
    def system(mode, w):
        base = dhn_system(mode)
        return cp.ClosedLoopSystem(agents=cp.AgentEnsemble(a=base.agents.a, w=w), ic=base.ic,
                                   gains=base.gains, bounds=base.bounds)

    @pytest.mark.parametrize("low, high", [(-10.0, 10.0), (0.0, 10.0)],
                             ids=["mixed", "surplus"])
    def test_linf_matches_coordinating_cost(self, low, high):
        rng = np.random.default_rng(1)
        reports = 0
        for _ in range(6):
            sys_ = self.system("coordinating", rng.uniform(low, high, 22))
            eq = cp.find_equilibrium_coordinating(sys_)
            if isinstance(eq, cp.EquilibriumReport):
                reports += 1
                cost = cp.solve_linf_allocation(sys_.ic, sys_.agents).cost
                assert cost == pytest.approx(eq.cost_linf, rel=0.0,
                                             abs=1e-7 * (1.0 + eq.cost_linf))
        assert reports >= 4

    def test_l1_matches_decentralized_cost(self):
        # the third draw has deficit agents that even a shut valve oversupplies
        rng = np.random.default_rng(1)
        for _ in range(3):
            sys_ = self.system("decentralized", rng.uniform(-30.0, 5.0, 22))
            eq = cp.find_equilibrium_decentralized(sys_)
            cost = cp.solve_l1_allocation(sys_.ic, sys_.agents).cost
            assert cost == pytest.approx(eq.cost_l1w, rel=0.0, abs=1e-7 * (1.0 + eq.cost_l1w))


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

    def test_dhn_coordinating_lands_in_equilibrium_set(self):
        # 4 agents saturate; the run ends with x within 1.4e-7 of the
        # equilibrium but their z 119.7 away from the one returned
        verdict = cp.verify_global_convergence(dhn_system("coordinating"), n_starts=1,
                                               seed=0, t_max=200.0)
        assert verdict.passed, verdict.failures
        assert verdict.details["worst_terminal_error"] < 1e-4

    def test_coordinating_set_membership(self):
        sys_ = dhn_system("coordinating")
        eq = cp.find_equilibrium_coordinating(sys_)
        lo, hi = sys_.bounds.lower, sys_.bounds.upper
        saturated = np.flatnonzero((eq.u0 <= lo) | (eq.u0 >= hi))
        free = np.flatnonzero((eq.u0 > lo) & (eq.u0 < hi))
        assert len(saturated) >= 2 and len(free) >= 1

        tol = 1e-4

        def errors(u):
            s = cp.ClosedLoopState(eq.x0, -(u + sys_.gains.kP * eq.x0) / sys_.gains.kI)
            return equilibria._terminal_errors(sys_, eq, s, tol)

        # moving excess between saturated agents keeps S: same set member
        i, j = saturated[:2]
        excess = eq.u0[i] - np.clip(eq.u0[i], lo[i], hi[i])
        u = eq.u0.copy()
        u[i] -= 0.5 * excess
        u[j] += 0.5 * excess
        err, same = errors(u)
        assert err < 1e-12 and same
        # an unsaturated agent's z, or the excess sum, may not move
        u = eq.u0.copy()
        u[free[0]] += 1e-3
        assert errors(u)[0] >= 1e-3 - 1e-12
        u = eq.u0.copy()
        u[i] += np.sign(excess) * 1e-3
        assert errors(u)[0] >= 1e-3 - 1e-12
        # nor may an agent leave the saturated set by more than tol
        u = eq.u0.copy()
        u[i] = np.clip(u[i], lo[i], hi[i]) - np.sign(excess) * 1e-3
        assert not errors(u)[1]
        # but within tol of its bound it may sit on either side: the state is
        # within tol of the member that holds agent i exactly on its bound
        u = eq.u0.copy()
        u[j] += excess
        u[i] = np.clip(u[i], lo[i], hi[i]) - np.sign(excess) * 1e-6
        err, same = errors(u)
        assert same and err < tol

    def test_decentralized_check_stays_pointwise(self, sys_dec2):
        eq = cp.find_equilibrium_decentralized(sys_dec2)
        s = cp.ClosedLoopState(eq.x0, eq.z0 + np.array([0.0, 1e-3]))
        err, same = equilibria._terminal_errors(sys_dec2, eq, s, 1e-4)
        assert err == pytest.approx(1e-3) and same

    def test_details_count_steps_and_field_evaluations(self, sys_dec2):
        verdict = cp.verify_global_convergence(sys_dec2, n_starts=3, seed=3, t_max=50.0)
        d = verdict.details
        assert d["steps_accepted"] > 0 and d["steps_rejected"] >= 0
        # one evaluation at each start, six per attempted step
        assert d["field_evaluations"] == 3 + 6 * (d["steps_accepted"] + d["steps_rejected"])

    @pytest.mark.parametrize("n_starts", [0, -2])
    def test_no_starts_refused(self, sys_dec2, n_starts):
        # no start integrated is no evidence of convergence
        with pytest.raises(ValueError, match="n_starts must be >= 1"):
            cp.verify_global_convergence(sys_dec2, n_starts=n_starts)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-4])
    def test_tolerance_must_be_finite_and_positive(self, sys_dec2, tol):
        # with tol = nan every start would pass: err > nan is False
        with pytest.raises(ValueError, match="tol must be a finite number above 0"):
            cp.verify_global_convergence(sys_dec2, n_starts=1, tol=tol)

    def test_tuning_gate(self, ic2, bounds2):
        agents = cp.AgentEnsemble(a=[0.3, 0.3], w=[-1.0, -1.0])
        gains = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0],
                                   mode="decentralized", kA=[0.4, 0.4])
        sys_bad = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains,
                                      bounds=bounds2)
        with pytest.raises(cp.TuningError):
            cp.verify_global_convergence(sys_bad, n_starts=1, t_max=1.0)
