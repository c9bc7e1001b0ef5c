import numpy as np
import pytest

import capnet as cp
from capnet import cli, equilibria, sim
from capnet.control import field, field_jacobian
from capnet.errors import IntegrationError
from capnet.sim import (Scenario, SolverOptions, integrate_many, make_temperature_profile,
                        run_scenario, write_trajectory_csv)


class TestDisturbanceProfile:
    def test_piecewise_shared_scalar(self):
        prof = cp.DisturbanceProfile.piecewise([0.0, 2.0], [0.0, 10.0])
        assert prof.raw(1.0) == pytest.approx(5.0)

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            cp.DisturbanceProfile.piecewise([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])

    def test_thermal_map(self):
        prof = cp.DisturbanceProfile.piecewise([0.0, 1.0], [-25.0, -25.0])
        w = prof.with_thermal_map(np.array([0.6, 0.6]), np.array([20.0, 20.0]))
        np.testing.assert_allclose(w.eval(0.5), [-27.0, -27.0])


class TestTemperatureProfile:
    def test_dips_below_minus_25_in_window(self):
        prof = make_temperature_profile()
        t = np.linspace(0.0, prof.times[-1], 10_000)
        vals = np.array([prof.raw(tt) for tt in t])
        assert vals.min() < -25.0
        coldest = t[np.argmin(vals)]
        assert 45.0 <= coldest <= 60.0

    def test_duration_and_start(self):
        prof = make_temperature_profile()
        assert prof.times[-1] - prof.times[0] >= 90.0
        assert -15.0 <= prof.raw(0.0) <= 0.0

    def test_recovers_toward_minus_10(self):
        prof = make_temperature_profile()
        assert prof.raw(prof.times[-1]) >= -12.0


class TestSolverOptions:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["atol", "rtol", "output_dt", "dt_init", "dt_max"])
    def test_settings_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number above 0"):
            SolverOptions(**{name: value})


class TestIntegrate:
    def test_equilibrium_start_stays(self, scalar_system):
        rep = cp.find_equilibrium_decentralized(scalar_system)
        s0 = cp.ClosedLoopState(rep.x0.copy(), rep.z0.copy())
        traj = cp.integrate(scalar_system, s0, (0.0, 100.0), SolverOptions())
        assert np.max(np.abs(traj.x - rep.x0)) < 1e-7
        assert np.max(np.abs(traj.z - rep.z0)) < 1e-7

    def test_two_agent_convergence(self, sys_dec2):
        traj = cp.integrate(sys_dec2, cp.ClosedLoopState.zero(2), (0.0, 200.0),
                            SolverOptions())
        np.testing.assert_allclose(traj.x[-1], [-1.25, -0.25], atol=1e-4)

    def test_tolerance_halving_stable_terminal(self, sys_dec2):
        s0 = cp.ClosedLoopState(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
        t1 = cp.integrate(sys_dec2, s0, (0.0, 200.0),
                          SolverOptions(atol=1e-8, rtol=1e-6))
        t2 = cp.integrate(sys_dec2, s0, (0.0, 200.0),
                          SolverOptions(atol=5e-9, rtol=5e-7))
        assert np.max(np.abs(t1.x[-1] - t2.x[-1])) < 1e-5

    def test_tolerance_refinement_bound(self, sys_dec2):
        s0 = cp.ClosedLoopState(np.array([3.0, -5.0]), np.array([2.0, 4.0]))
        t1 = cp.integrate(sys_dec2, s0, (0.0, 200.0), SolverOptions())
        t2 = cp.integrate(sys_dec2, s0, (0.0, 200.0),
                          SolverOptions(atol=1e-9, rtol=1e-7))
        term1 = np.concatenate([t1.x[-1], t1.z[-1]])
        term2 = np.concatenate([t2.x[-1], t2.z[-1]])
        assert np.max(np.abs(term1 - term2)) < 10 * 1e-6 * np.max(np.abs(term1))

    def test_output_grid(self, sys_dec2):
        traj = cp.integrate(sys_dec2, cp.ClosedLoopState.zero(2), (0.0, 10.0),
                            SolverOptions(output_dt=0.5))
        np.testing.assert_allclose(traj.times, np.arange(0.0, 10.5, 0.5))

    def test_rosenbrock_agrees_with_rk45(self, sys_dec2):
        s0 = cp.ClosedLoopState.zero(2)
        ref = cp.integrate(sys_dec2, s0, (0.0, 50.0), SolverOptions())
        ros = cp.integrate(sys_dec2, s0, (0.0, 50.0), SolverOptions(method="rosenbrock"))
        assert np.max(np.abs(ref.x[-1] - ros.x[-1])) < 2e-3

    @pytest.mark.parametrize("name", ["linear2_decentralized.cfg",
                                      "linear2_coordinating.cfg"])
    def test_lyapunov_column_matches_certificate(self, name):
        sys_, starts = _shipped_starts(name, n_starts=1)
        monitor = _monitor(sys_)
        traj = cp.integrate(sys_, starts[0], (0.0, 50.0), SolverOptions(output_dt=1.0),
                            monitor=monitor)
        want = []
        for k in range(traj.n_points):
            zeta, u = cp.to_zeta_u(traj.state(k), sys_.gains)
            if sys_.gains.mode == "decentralized":
                want.append(cp.lyapunov_decentralized(sys_, zeta - monitor.zeta0,
                                                      u - monitor.u0))
            else:
                want.append(cp.lyapunov_coordinating(sys_, zeta, u))
        np.testing.assert_array_equal(traj.lyapunov, want)

    @pytest.mark.parametrize("method", ["rk45", "rosenbrock"])
    def test_two_value_calls_per_run(self, monkeypatch, method):
        # the integrators value nothing; each monitored run values its
        # accepted states (the start and every step's end) in one call, then
        # its certificate column in one more
        sys_, starts = _shipped_starts("linear2_decentralized.cfg", n_starts=6)
        calls = []
        real = cp.DecentralizedMonitor.value

        def value(self, x, z):
            calls.append(len(x))
            return real(self, x, z)

        monkeypatch.setattr(cp.DecentralizedMonitor, "value", value)
        trajs = integrate_many(sys_, starts, (0.0, 100.0), SolverOptions(method=method),
                               [_monitor(sys_) for _ in starts])
        assert calls == [count for traj in trajs
                         for count in (1 + traj.stats.accepted, traj.n_points)]

    def test_time_varying_disturbance_disables_monitor(self, ic2, gains_dec2, bounds2):
        prof = cp.DisturbanceProfile.piecewise([0.0, 100.0], [[-2.0, -1.0], [-1.0, -0.5]])
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=prof)
        sysd = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_dec2, bounds=bounds2)
        monitor = cp.DecentralizedMonitor(sysd, np.zeros(2), np.zeros(2))
        traj = cp.integrate(sysd, cp.ClosedLoopState.zero(2), (0.0, 5.0),
                            SolverOptions(), monitor=monitor)
        assert traj.monitor is None
        assert traj.lyapunov is None

    def test_aux_records(self, sys_dec2):
        traj = cp.integrate(sys_dec2, cp.ClosedLoopState.zero(2), (0.0, 5.0),
                            SolverOptions(output_dt=1.0))
        np.testing.assert_allclose(traj.v, np.clip(traj.u, -1.0, 1.0))
        for k in range(traj.n_points):
            np.testing.assert_allclose(traj.b[k], sys_dec2.ic(traj.v[k]))


class TestDenseOutput:
    def test_stacked_hermite_matches_scalar_calls(self):
        # on points where a correctly rounded square and pow differ in the
        # last bit, a stack of steps must interpolate as one step at a time
        rng = np.random.default_rng(4)
        m, d = 200_000, 2
        t0 = rng.uniform(0.0, 10.0, m)
        t1 = t0 + rng.uniform(1e-3, 2.0, m)
        t = t0 + rng.uniform(0.0, 1.0, m) * (t1 - t0)
        y0, f0, y1, f1 = rng.normal(size=(4, m, d))
        s = (t - t0) / (t1 - t0)
        split = np.array([r ** 2 != r * r for r in (1 - s).tolist()])  # pow vs product
        assert split.sum() > 100
        got = sim._hermite(t[:, None], t0[:, None], y0, f0, t1[:, None], y1, f1)
        for k in np.flatnonzero(split).tolist() + list(range(100)):
            want = sim._hermite(float(t[k]), float(t0[k]), y0[k], f0[k], float(t1[k]),
                                y1[k], f1[k])
            np.testing.assert_array_equal(got[k], want)

    def test_sample_matches_step_by_step_reference(self):
        # grid times on, within 1e-12 of, between and past the step ends
        rng = np.random.default_rng(6)
        T = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 30))])
        Y, F = rng.normal(size=(2, len(T), 2))
        grid = np.sort(np.concatenate([[0.0], rng.uniform(0.0, T[-1] + 1.0, 40), T[3:9],
                                       T[10:14] + 5e-13, T[15:19] - 5e-13]))
        times, ys = sim._sample(grid, T, Y, F)
        want_t, want_y = [grid[0]], [Y[0]]
        nxt = 1
        for j in range(1, len(T)):
            while nxt < len(grid) and grid[nxt] <= T[j] + 1e-12:
                tg = grid[nxt]
                if tg >= T[j] - 1e-12:
                    want_t.append(T[j])
                    want_y.append(Y[j])
                else:
                    want_t.append(tg)
                    want_y.append(sim._hermite(tg, T[j - 1], Y[j - 1], F[j - 1], T[j], Y[j],
                                               F[j]))
                nxt += 1
        assert nxt < len(grid)  # some grid times lie past the last step
        np.testing.assert_array_equal(times, want_t)
        np.testing.assert_array_equal(ys, want_y)


class TestRk45Accuracy:
    @pytest.mark.parametrize("system", ["sys_dec2", "sys_coord2"])
    @pytest.mark.parametrize("dt_init", [None, 50.0], ids=["default", "rejected-first"])
    def test_grid_matches_dop853(self, request, system, dt_init):
        # the dense output and the step after a rejection both need f(t) of
        # the step's start; a stale last stage in its place costs ~2e-2
        from scipy.integrate import solve_ivp

        sys_ = request.getfixturevalue(system)
        s0 = cp.ClosedLoopState(np.array([3.0, -5.0]), np.array([2.0, 4.0]))
        traj = cp.integrate(sys_, s0, (0.0, 50.0),
                            SolverOptions(output_dt=0.5, dt_init=dt_init))

        def f(t, y):
            return np.concatenate(field(sys_, cp.ClosedLoopState(y[:2], y[2:]), t))

        ref = solve_ivp(f, (0.0, 50.0), np.concatenate([s0.x, s0.z]), method="DOP853",
                        rtol=1e-12, atol=1e-12, t_eval=traj.times)
        assert ref.success
        err = np.max(np.abs(np.hstack([traj.x, traj.z]) - ref.y.T))
        assert err < 1e-3, err


def _shipped_starts(name, n_starts=20, seed=0):
    """A shipped linear config's system and random starts in [-20, 20]^4."""
    built = cli.build_scenario(cli.ScenarioConfig.load(cli.shipped_config_path(name)))
    rng = np.random.default_rng(seed)
    starts = [cp.ClosedLoopState(rng.uniform(-20.0, 20.0, 2), rng.uniform(-20.0, 20.0, 2))
              for _ in range(n_starts)]
    return built.system, starts


def _monitor(sys_):
    if sys_.gains.mode == "decentralized":
        rep = cp.find_equilibrium_decentralized(sys_)
        return cp.DecentralizedMonitor(sys_, rep.zeta0, rep.u0)
    return cp.CoordinatingMonitor(sys_)


class TestStackedRk45:
    @pytest.mark.parametrize("name", ["linear2_decentralized.cfg",
                                      "linear2_coordinating.cfg"])
    def test_rows_match_single_runs(self, name):
        sys_, starts = _shipped_starts(name)
        opts = SolverOptions(output_dt=4.0)
        stacked = integrate_many(sys_, starts, (0.0, 200.0), opts,
                                 [_monitor(sys_) for _ in starts])
        for s0, row in zip(starts, stacked):
            alone = cp.integrate(sys_, s0, (0.0, 200.0), opts, monitor=_monitor(sys_))
            np.testing.assert_array_equal(row.times, alone.times)
            np.testing.assert_allclose(row.x, alone.x, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(row.z, alone.z, rtol=0.0, atol=1e-10)
            assert row.stats == alone.stats
            assert row.monitor.ok == alone.monitor.ok
            assert len(row.monitor.violations) == len(alone.monitor.violations)

    def test_row_finishes_while_others_step(self, sys_dec2):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        starts = [cp.ClosedLoopState(rep.x0.copy(), rep.z0.copy()),
                  cp.ClosedLoopState(np.array([3.0, -5.0]), np.array([2.0, 4.0]))]
        # a small dt_max keeps the far start stepping after the near one ends
        opts = SolverOptions(output_dt=1.0, dt_max=20.0)
        stacked = integrate_many(sys_dec2, starts, (0.0, 100.0), opts)
        assert stacked[0].stats.accepted < stacked[1].stats.accepted
        for s0, row in zip(starts, stacked):
            alone = cp.integrate(sys_dec2, s0, (0.0, 100.0), opts)
            assert row.times[-1] == 100.0
            assert row.stats == alone.stats
            np.testing.assert_allclose(row.x, alone.x, rtol=0.0, atol=1e-10)

    def test_step_budget_is_per_row(self, sys_dec2):
        starts = [cp.ClosedLoopState(np.array([1.0, -1.0]), np.zeros(2)),
                  cp.ClosedLoopState(np.array([3.0, -5.0]), np.array([2.0, 4.0]))]
        alone = [cp.integrate(sys_dec2, s0, (0.0, 100.0)).stats for s0 in starts]
        most = max(st.accepted + st.rejected for st in alone)
        # the stack fits the budget of its longest row, not the sum over rows
        stacked = integrate_many(sys_dec2, starts, (0.0, 100.0), SolverOptions(max_steps=most))
        assert [traj.stats for traj in stacked] == alone
        with pytest.raises(IntegrationError, match="budget"):
            integrate_many(sys_dec2, starts, (0.0, 100.0), SolverOptions(max_steps=most // 2))

    def test_step_underflow_names_the_row(self, sys_dec2):
        starts = [cp.ClosedLoopState.zero(2), cp.ClosedLoopState(np.full(2, np.nan),
                                                                 np.zeros(2))]
        with pytest.raises(IntegrationError, match="underflow") as info:
            integrate_many(sys_dec2, starts, (0.0, 10.0))
        assert np.isnan(info.value.state[0])

    @pytest.mark.parametrize("method", ["rk45", "rosenbrock"])
    def test_budget_bounds_attempted_steps(self, sys_dec2, method):
        # the budget k caps the attempted steps at k, and a run that needs
        # exactly k steps still ends
        s0 = cp.ClosedLoopState(np.array([3.0, -5.0]), np.array([2.0, 4.0]))
        need = cp.integrate(sys_dec2, s0, (0.0, 100.0), SolverOptions(method=method)).stats
        need = need.accepted + need.rejected
        exact = cp.integrate(sys_dec2, s0, (0.0, 100.0),
                             SolverOptions(method=method, max_steps=need))
        assert exact.stats.accepted + exact.stats.rejected == need
        for k in (1, 3, need - 1):
            attempts = _attempts_until_budget(sys_dec2, s0, SolverOptions(method=method,
                                                                          max_steps=k))
            assert attempts == k, (k, attempts)


def _attempts_until_budget(sys_, s0, opts):
    """Steps attempted before the budget ran out, counted from the field
    evaluations: RK45 takes one, then six per attempted step; RODAS4 takes one
    and a Jacobian, then five per attempted step and one more, with a
    Jacobian, per accepted one."""
    calls = {"field": 0, "jacobian": 0}
    real_stack, real_field, real_jac = sim.field_stack, sim.loop_field, sim.field_jacobian

    def field_stack(*args, **kwargs):
        calls["field"] += 1
        return real_stack(*args, **kwargs)

    def loop_field(*args, **kwargs):
        calls["field"] += 1
        return real_field(*args, **kwargs)

    def field_jacobian(*args, **kwargs):
        calls["jacobian"] += 1
        return real_jac(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "field_stack", field_stack)
        mp.setattr(sim, "loop_field", loop_field)
        mp.setattr(sim, "field_jacobian", field_jacobian)
        with pytest.raises(IntegrationError, match="budget"):
            cp.integrate(sys_, s0, (0.0, 100.0), opts)
    if opts.method == "rk45":
        return (calls["field"] - 1) // 6
    accepted = calls["jacobian"] - 1
    return (calls["field"] - 1 - accepted) // 5


def _rosenbrock(fun, jac, t1, y0, opts, dfdt):
    """Integrate fun from 0 to t1 with RODAS4; the final state and the stats."""
    (_, Y, _), stats = sim._integrate_rosenbrock(fun, jac, 0.0, t1, np.asarray(y0, dtype=float),
                                                 opts, [t1], dfdt)
    return Y[-1], stats


class TestRosenbrock:
    # p' = -p + t and q' = p*q from p = q = 1: p = t - 1 + 2exp(-t) and
    # q = exp(t^2/2 - t + 2(1 - exp(-t)))
    @staticmethod
    def _fun(t, y):
        return np.array([-y[0] + t, y[0] * y[1]])

    @staticmethod
    def _jac(t, y):
        return np.array([[-1.0, 0.0], [y[1], y[0]]])

    def test_fourth_order_on_fixed_steps(self):
        exact = np.array([2 * np.exp(-1.0), np.exp(-0.5 + 2 * (1 - np.exp(-1.0)))])
        errors = []
        for h in (0.1, 0.05):
            # tolerances so loose that every step is accepted at dt_max
            opts = SolverOptions(method="rosenbrock", atol=1e6, rtol=1e6, dt_init=h, dt_max=h)
            y1, stats = _rosenbrock(self._fun, self._jac, 1.0, [1.0, 1.0], opts,
                                    lambda ta, tb: np.array([1.0, 0.0]))
            assert stats.rejected == 0
            assert stats.accepted == pytest.approx(1.0 / h)
            errors.append(np.max(np.abs(y1 - exact)))
        assert errors[0] / errors[1] >= 12.0, errors

    def test_singular_iteration_matrix_raises(self):
        h = 0.1
        opts = SolverOptions(method="rosenbrock", dt_init=h, dt_max=h)
        with pytest.raises(IntegrationError, match="singular"):
            _rosenbrock(self._fun, lambda t, y: np.eye(2) / (h * sim._RO_GAMMA), 1.0,
                        [1.0, 1.0], opts, lambda ta, tb: np.array([1.0, 0.0]))

    def test_step_underflow_raises(self):
        with pytest.raises(IntegrationError, match="underflow"):
            _rosenbrock(lambda t, y: np.full(2, np.nan), self._jac, 1.0, [1.0, 1.0],
                        SolverOptions(method="rosenbrock"), lambda ta, tb: np.zeros(2))

    def test_step_budget_raises(self):
        with pytest.raises(IntegrationError, match="budget"):
            _rosenbrock(self._fun, self._jac, 1.0, [1.0, 1.0],
                        SolverOptions(method="rosenbrock", max_steps=3),
                        lambda ta, tb: np.array([1.0, 0.0]))

    def test_steps_end_on_profile_breakpoints(self, ic2, gains_dec2, bounds2):
        times = [0.0, 0.7, 1.3, 2.9, 4.1, 6.0]
        values = [[-2.0, -1.0], [-0.5, 0.3], [-3.0, -2.0], [-1.0, -1.5], [0.2, -0.4],
                  [-2.0, -1.0]]
        agents = cp.AgentEnsemble(a=[1.0, 1.0],
                                  w=cp.DisturbanceProfile.piecewise(times, values))
        sysd = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_dec2, bounds=bounds2)
        traj = cp.integrate(sysd, cp.ClosedLoopState.zero(2), (0.2, 5.0),
                            SolverOptions(method="rosenbrock"))
        assert traj.times[0] == 0.2 and traj.times[-1] == 5.0
        for tb in (0.7, 1.3, 2.9, 4.1):
            assert tb in traj.times

    def test_dhn_field_evaluation_budget(self, dhn_study):
        # RK45 needed about 19000 per policy, held at its stability limit
        for policy in ("decentralized", "coordinating"):
            assert int(dhn_study["summary"][f"{policy}.field_evaluations"]) <= 8000, policy

    def test_dhn_headline_converged_in_tolerance(self, dhn_study):
        # at rtol = atol = 1e-8 the decentralized run takes about 15000
        # field evaluations, three times the shipped tolerance's
        sc = cli.build_scenario(cli.ScenarioConfig.load(
            cli.shipped_config_path("dhn_study_decentralized.cfg")))
        sc.opts.rtol /= 100.0
        sc.opts.atol /= 100.0
        tight = run_scenario(sc).summary["max_deviation_at_coldest"]
        shipped = float(dhn_study["summary"]["decentralized.max_deviation_at_coldest"])
        assert abs(shipped - tight) < 5e-4, (shipped, tight)


def _closed_loop(ic, a, w, mode):
    n = ic.n
    if mode == "decentralized":
        gains = cp.ControllerGains(kP=np.full(n, 2.0), kI=np.full(n, 1.0), mode=mode,
                                   kA=np.linspace(0.3, 0.5, n))
    else:
        gains = cp.ControllerGains(kP=np.full(n, 1.0), kI=np.full(n, 0.5), mode=mode,
                                   kC=0.5, alpha=1.0)
    return cp.ClosedLoopSystem(agents=cp.AgentEnsemble(a=a, w=w), ic=ic, gains=gains,
                               bounds=ic.bounds)


class TestFieldJacobian:
    @pytest.mark.parametrize("mode", ["decentralized", "coordinating"])
    @pytest.mark.parametrize("network", ["linear", "dhn"])
    @pytest.mark.parametrize("u", [[0.3, -0.6], [1.4, -0.2], [-1.7, 2.5]],
                             ids=["free", "one-saturated", "both-saturated"])
    def test_matches_central_differences(self, ic2, dhn_small, mode, network, u):
        ic = ic2 if network == "linear" else dhn_small[2]
        w = [-2.0, -1.0] if network == "linear" else [-8.0, -12.0]
        sys_ = _closed_loop(ic, [1.0, 0.6], w, mode)
        # a state with u = -kP*x - kI*z as given, away from every kink
        z = np.array([0.2, -0.1])
        x = -(np.asarray(u) + sys_.gains.kI * z) / sys_.gains.kP
        y = np.concatenate([x, z])

        def f(y):
            return np.concatenate(field(sys_, cp.ClosedLoopState(y[:2], y[2:])))

        J = field_jacobian(sys_, cp.ClosedLoopState(x, z))
        eps = 1e-6
        J_fd = np.column_stack([(f(y + eps * e) - f(y - eps * e)) / (2 * eps)
                                for e in np.eye(4)])
        np.testing.assert_allclose(J, J_fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(J)))


class TestCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "t.csv"
        times = np.array([0.0, 0.5])
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        u = x + 1
        v = np.clip(u, -1, 1)
        write_trajectory_csv(path, times, x, u, v, None)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "t,x1,x2,u1,u2,v1,v2,V"
        assert lines[1].endswith(",")  # V column empty without a monitor
        assert len(lines) == 3

    def test_seventeen_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        val = 1.0 / 3.0
        write_trajectory_csv(path, np.array([val]), np.array([[val]]),
                             np.array([[val]]), np.array([[val]]), np.array([val]))
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line.split(",")[0] == f"{val:.17g}"
        assert float(line.split(",")[1]) == val

    @pytest.mark.parametrize("monitored", [False, True])
    def test_fields_match_format_spec(self, tmp_path, monitored):
        specials = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16 + 1, 3.0, -42.0, 0.1, 1e300]
        rng = np.random.default_rng(0)
        times = np.array(specials + [0.5])
        x, u, v = (rng.permutation(times)[:, None] * rng.normal(size=(1, 3)) for _ in range(3))
        lyap = rng.permutation(times) if monitored else None
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, times, x, u, v, lyap)
        want = []
        for k in range(len(times)):
            row = [times[k], *x[k], *u[k], *v[k]]
            fields = [f"{val:.17g}" for val in row]
            want.append(",".join(fields + ["" if lyap is None else f"{lyap[k]:.17g}"]))
        assert path.read_text(encoding="utf-8").splitlines()[1:] == want


class TestRunScenario:
    def _scenario(self, sys_dec2, tmp_path, **kw):
        defaults = dict(policy="decentralized", agents=sys_dec2.agents, ic=sys_dec2.ic,
                        t_span=(0.0, 20.0), opts=SolverOptions(output_dt=0.5),
                        system=sys_dec2, out_dir=tmp_path, prefix="t")
        defaults.update(kw)
        return Scenario(**defaults)

    def test_writes_csv_and_summary(self, sys_dec2, tmp_path):
        arts = run_scenario(self._scenario(sys_dec2, tmp_path))
        assert arts.csv_path.exists()
        assert arts.summary_path.exists()
        header = arts.csv_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,x1,x2,u1,u2,v1,v2,V"
        assert arts.summary["monitor_enabled"] is True
        assert arts.summary["monitor_ok"] is True

    def test_deterministic_bytes(self, sys_dec2, tmp_path):
        a1 = run_scenario(self._scenario(sys_dec2, tmp_path, prefix="a"))
        a2 = run_scenario(self._scenario(sys_dec2, tmp_path, prefix="b"))
        assert a1.csv_path.read_bytes() == a2.csv_path.read_bytes()

    def test_policy_gain_mismatch(self, sys_dec2, tmp_path):
        sc = self._scenario(sys_dec2, tmp_path, policy="coordinating")
        with pytest.raises(cp.ConfigError):
            run_scenario(sc)

    def test_tuning_violation_needs_force(self, ic2, bounds2, tmp_path):
        agents = cp.AgentEnsemble(a=[0.3, 0.3], w=[-2.0, -1.0])
        gains = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0],
                                   mode="decentralized", kA=[0.4, 0.4])
        sysd = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains, bounds=bounds2)
        sc = Scenario(policy="decentralized", agents=agents, ic=ic2, t_span=(0.0, 1.0),
                      opts=SolverOptions(), system=sysd, out_dir=tmp_path)
        with pytest.raises(cp.TuningError):
            run_scenario(sc)
        sc.force = True
        arts = run_scenario(sc)
        assert arts.summary["forced"] is True

    def test_monitor_setup_raises_unexpected_errors(self, sys_dec2, tmp_path, monkeypatch):
        def broken(sys_):
            raise ZeroDivisionError("bug in the Newton solve")

        monkeypatch.setattr(equilibria, "find_equilibrium_decentralized", broken)
        with pytest.raises(ZeroDivisionError):
            run_scenario(self._scenario(sys_dec2, tmp_path))

    def test_no_equilibrium_runs_unmonitored(self, sys_dec2, tmp_path, monkeypatch):
        def none_found(sys_):
            raise cp.EquilibriumError("no equilibrium", residual=1.0, iterations=3)

        monkeypatch.setattr(equilibria, "find_equilibrium_decentralized", none_found)
        arts = run_scenario(self._scenario(sys_dec2, tmp_path))
        assert arts.summary["monitor_enabled"] is False
        rows = arts.csv_path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(row.endswith(",") for row in rows)

    def test_oracle_linf_equalizes(self, sys_coord2, tmp_path):
        sc = Scenario(policy="oracle-linf", agents=sys_coord2.agents, ic=sys_coord2.ic,
                      t_span=(0.0, 2.0), opts=SolverOptions(output_dt=1.0),
                      out_dir=tmp_path, prefix="o")
        arts = run_scenario(sc)
        for k in range(len(arts.times)):
            spread = arts.x[k].max() - arts.x[k].min()
            assert spread < 1e-6
        assert arts.csv_path.exists()

    def test_oracle_l1_matches_decentralized_equilibrium_cost(self, sys_dec2, tmp_path):
        rep = cp.find_equilibrium_decentralized(sys_dec2)
        sc = Scenario(policy="oracle-l1", agents=sys_dec2.agents, ic=sys_dec2.ic,
                      t_span=(0.0, 1.0), opts=SolverOptions(output_dt=1.0),
                      out_dir=tmp_path, prefix="o1")
        arts = run_scenario(sc)
        cost = np.sum(np.abs(arts.x[0]) * sys_dec2.agents.a * sys_dec2.ic.eta)
        assert cost == pytest.approx(rep.cost_l1w, abs=1e-6)

    @pytest.mark.parametrize("policy", ["oracle-l1", "oracle-linf"])
    def test_oracle_policy_matches_per_time_loop(self, policy, tmp_path):
        # one allocator call over the grid against the loop it replaced: one
        # allocation per output time
        cfg = cli.ScenarioConfig.load(cli.shipped_config_path("dhn_study_decentralized.cfg"))
        cfg.data["sim"].update(t_span=[40.0, 56.0], output_dt=0.5)
        cfg.data["outputs"]["directory"] = str(tmp_path)
        sc = cli.build_scenario(cfg, policy)
        arts = run_scenario(sc)
        solve = {"oracle-l1": cp.solve_l1_allocation, "oracle-linf": cp.solve_linf_allocation}
        for k, t in enumerate(arts.times):
            res = solve[policy](sc.ic, cp.AgentEnsemble(a=sc.agents.a, w=sc.agents.w_at(t)))
            np.testing.assert_array_equal(arts.v[k], res.v)
            np.testing.assert_array_equal(arts.x[k], res.x)
