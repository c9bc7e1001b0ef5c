import numpy as np
import pytest

import capnet as cp
from capnet.control import (CoordinatingMonitor, DecentralizedMonitor, control_input,
                            field_stack, no_monitor_reason)
from capnet.errors import DimensionError, TuningError


class TestFields:
    def test_scalar_equilibrium_state(self, scalar_system):
        # u = 3.5 saturates at 1; the anti-windup exactly cancels the error
        s = cp.ClosedLoopState([-1.0], [-1.5])
        u = control_input(scalar_system.gains, s)
        assert u[0] == pytest.approx(3.5)
        dx, dz = cp.field(scalar_system, s)
        assert dx[0] == pytest.approx(0.0, abs=1e-12)
        assert dz[0] == pytest.approx(0.0, abs=1e-12)

    def test_origin_equilibrium_unforced(self, ic2, gains_dec2, bounds2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, 0.0])
        sys0 = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_dec2, bounds=bounds2)
        dx, dz = cp.field(sys0, cp.ClosedLoopState.zero(2))
        np.testing.assert_allclose(dx, 0.0)
        np.testing.assert_allclose(dz, 0.0)

    def test_two_agent_equilibrium_state(self, sys_dec2):
        x0 = np.array([-1.25, -0.25])
        u0 = np.array([4.125, 1.625])
        z0 = -(u0 + sys_dec2.gains.kP * x0) / sys_dec2.gains.kI
        dx, dz = cp.field(sys_dec2, cp.ClosedLoopState(x0, z0))
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)
        np.testing.assert_allclose(dz, 0.0, atol=1e-12)

    def test_coordinating_equilibrium_state(self, sys_coord2):
        x0 = np.array([-1.05, -1.05])
        u0 = np.array([3.1, 0.2])
        z0 = -(u0 + sys_coord2.gains.kP * x0) / sys_coord2.gains.kI
        s = cp.ClosedLoopState(x0, z0)
        u = control_input(sys_coord2.gains, s)
        np.testing.assert_allclose(u, u0, atol=1e-12)
        dx, dz = cp.field(sys_coord2, s)
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)
        np.testing.assert_allclose(dz, 0.0, atol=1e-12)

    def test_unsaturated_fields_agree(self, agents2, ic2, bounds2):
        gd = cp.ControllerGains(kP=[1.0, 1.0], kI=[0.5, 0.5], mode="decentralized",
                                kA=[0.1, 0.1])
        gc = cp.ControllerGains(kP=[1.0, 1.0], kI=[0.5, 0.5], mode="coordinating",
                                kC=0.5, alpha=1.0)
        sd = cp.ClosedLoopSystem(agents=agents2, ic=ic2, gains=gd, bounds=bounds2)
        sc = cp.ClosedLoopSystem(agents=agents2, ic=ic2, gains=gc, bounds=bounds2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-0.4, 0.4, 2)
            z = rng.uniform(-0.4, 0.4, 2)
            s = cp.ClosedLoopState(x, z)
            if np.any(cp.deadzone(control_input(gd, s), bounds2) != 0.0):
                continue
            dxd, dzd = cp.field(sd, s)
            dxc, dzc = cp.field(sc, s)
            np.testing.assert_array_equal(dxd, dxc)
            np.testing.assert_array_equal(dzd, dzc)


class TestFieldStack:
    @pytest.mark.parametrize("system", ["sys_dec2", "sys_coord2"])
    def test_rows_equal_field(self, request, system):
        sys_ = request.getfixturevalue(system)
        rng = np.random.default_rng(5)
        x, z = rng.uniform(-4.0, 4.0, (2, 6, 2))
        dx, dz = field_stack(sys_, x, z)
        for k in range(6):
            dxk, dzk = cp.field(sys_, cp.ClosedLoopState(x[k], z[k]))
            np.testing.assert_array_equal(dx[k], dxk)
            np.testing.assert_array_equal(dz[k], dzk)

    def test_time_varying_disturbance_per_row(self, ic2, gains_dec2, bounds2):
        prof = cp.DisturbanceProfile.piecewise([0.0, 10.0], [[-2.0, -1.0], [0.0, 1.0]])
        sys_ = cp.ClosedLoopSystem(agents=cp.AgentEnsemble(a=[1.0, 1.0], w=prof), ic=ic2,
                                   gains=gains_dec2, bounds=bounds2)
        x = np.array([[0.1, 0.2], [0.1, 0.2]])
        t = np.array([0.0, 5.0])
        dx, _ = field_stack(sys_, x, np.zeros_like(x), t)
        for k in range(2):
            np.testing.assert_array_equal(
                dx[k], cp.field(sys_, cp.ClosedLoopState(x[k], np.zeros(2)), t[k])[0])

    def test_shape_checked(self, sys_dec2):
        with pytest.raises(DimensionError):
            field_stack(sys_dec2, np.zeros((3, 3)), np.zeros((3, 3)))


class TestCoordinates:
    def test_round_trip(self, gains_dec2):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = cp.ClosedLoopState(rng.normal(size=2), rng.normal(size=2))
            zeta, u = cp.to_zeta_u(s, gains_dec2)
            back = cp.from_zeta_u(zeta, u, gains_dec2)
            np.testing.assert_allclose(back.x, s.x, atol=1e-12)
            np.testing.assert_allclose(back.z, s.z, atol=1e-12)

    def test_zero_error_means_zeta_equals_u(self, gains_dec2):
        s = cp.ClosedLoopState(np.zeros(2), np.array([0.7, -0.3]))
        zeta, u = cp.to_zeta_u(s, gains_dec2)
        np.testing.assert_array_equal(zeta, u)

    def test_scalar_values(self):
        gains = cp.ControllerGains(kP=[2.0], kI=[1.0], mode="decentralized", kA=[0.4])
        zeta, u = cp.to_zeta_u(cp.ClosedLoopState([-1.0], [-1.5]), gains)
        assert u[0] == pytest.approx(3.5)
        assert zeta[0] == pytest.approx(1.5)


class TestCertificates:
    def test_decentralized_zero_at_equilibrium(self, sys_dec2):
        assert cp.lyapunov_decentralized(sys_dec2, np.zeros(2), np.zeros(2)) == 0.0

    def test_decentralized_scalar_value(self, scalar_system):
        # a=1, kP=2, kI=1, eta=1: c=0.5, d=0.5, coefficient d/(kP*c) = 0.5
        val = cp.lyapunov_decentralized(scalar_system, np.array([1.0]), np.array([0.0]))
        assert val == pytest.approx(0.5)

    def test_decentralized_needs_margin(self, ic2, bounds2):
        agents = cp.AgentEnsemble(a=[0.4, 0.4], w=[0.0, 0.0])
        gains = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0],
                                   mode="decentralized", kA=[0.4, 0.4])
        sys_bad = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains, bounds=bounds2)
        with pytest.raises(TuningError):
            cp.lyapunov_decentralized(sys_bad, np.ones(2), np.ones(2))

    def test_coordinating_zero_inside_bounds(self, sys_coord2):
        assert cp.lyapunov_coordinating(sys_coord2, np.array([0.5, -0.5]),
                                        np.array([0.9, 0.0])) == 0.0

    def test_coordinating_scalar_value(self, ic2, bounds2):
        bounds = cp.SaturationBounds.symmetric(1.0, 1)
        ic = cp.LinearMMatrix([[1.0]]).as_interconnection(bounds)
        agents = cp.AgentEnsemble(a=[1.0], w=[0.0])
        gains = cp.ControllerGains(kP=[1.0], kI=[0.5], mode="coordinating",
                                   kC=0.5, alpha=1.0)
        sysc = cp.ClosedLoopSystem(agents=agents, ic=ic, gains=gains, bounds=bounds)
        val = cp.lyapunov_coordinating(sysc, np.array([0.0]), np.array([3.1]))
        assert val == pytest.approx(4.41)

    def test_rejectable_disturbance(self, ic2, gains_coord2, bounds2):
        ok = cp.AgentEnsemble(a=[1.0, 1.0], w=[-0.3, 0.2])
        no = cp.AgentEnsemble(a=[1.0, 1.0], w=[-2.0, -1.0])
        s_ok = cp.ClosedLoopSystem(agents=ok, ic=ic2, gains=gains_coord2, bounds=bounds2)
        s_no = cp.ClosedLoopSystem(agents=no, ic=ic2, gains=gains_coord2, bounds=bounds2)
        assert cp.rejectable_disturbance(s_ok)
        assert not cp.rejectable_disturbance(s_no)


def _observed_one_at_a_time(monitor, t, x, z):
    """(t, V, increase) of each flagged step, valuing one state at a time: a
    step is flagged when its start is in scope and V grew by more than
    slack*(1 + V at the start)."""
    flagged, prev, prev_in_scope = [], None, True
    for k in range(len(t)):
        v = float(monitor.value(x[k:k + 1], z[k:k + 1])[0])
        if prev is not None and prev_in_scope:
            increase = v - prev
            if increase > monitor.slack * (1.0 + prev):
                flagged.append((float(t[k]), v, increase))
        prev, prev_in_scope = v, bool(monitor.in_scope(x[k:k + 1], z[k:k + 1])[0])
    return flagged


class TestMonitors:
    @pytest.mark.parametrize("mode, a, w, reason", [
        ("decentralized", [1.0, 1.0], [-2.0, -1.0], None),
        ("coordinating", [1.0, 1.0], [-0.3, 0.2], None),
        ("decentralized", [1.0, 1.0],
         cp.DisturbanceProfile.piecewise([0.0, 1.0], [[-2.0, -1.0], [-1.0, -2.0]]),
         "time-varying w"),
        ("decentralized", [0.5, 1.0], [-2.0, -1.0], "tuning margin <= 0"),
        ("coordinating", [0.4, 1.0], [-0.3, 0.2], "tuning margin <= 0"),
        ("coordinating", [1.0, 1.0], [-2.0, -1.0], "not rejectable"),
    ], ids=["dec", "coord", "time-varying", "dec-margin", "coord-margin", "not-rejectable"])
    def test_no_monitor_reason(self, ic2, gains_dec2, gains_coord2, bounds2, mode, a, w,
                               reason):
        # both gain sets have kI/kP = 0.5, so a_i = 0.5 leaves no margin
        gains = gains_dec2 if mode == "decentralized" else gains_coord2
        sys_ = cp.ClosedLoopSystem(agents=cp.AgentEnsemble(a=a, w=w), ic=ic2, gains=gains,
                                   bounds=bounds2)
        assert no_monitor_reason(sys_) == reason

    def test_flags_artificial_increase(self, sys_dec2):
        monitor = DecentralizedMonitor(sys_dec2, np.zeros(2), np.zeros(2))
        # near, then far: V jumped up and must be flagged
        x = np.array([[0.1, 0.1], [2.0, 2.0]])
        z = np.array([[0.05, 0.05], [1.0, 1.0]])
        monitor.check(np.array([0.0, 1.0]), x, z)
        assert not monitor.ok
        assert monitor.max_excess > 0

    def test_accepts_decrease(self, sys_dec2):
        monitor = DecentralizedMonitor(sys_dec2, np.zeros(2), np.zeros(2))
        scalefac = 2.0 ** -np.arange(5.0)[:, None]
        monitor.check(np.arange(5.0), scalefac * np.ones(2), scalefac * np.ones(2))
        assert monitor.ok

    def test_coordinating_monitor_scope(self, sys_coord2):
        monitor = CoordinatingMonitor(sys_coord2)
        # row 0 unsaturated: decrease not claimed; row 1 saturated
        x, z = np.array([[0.0, 0.0], [-3.0, -3.0]]), np.zeros((2, 2))
        assert monitor.in_scope(x, z).tolist() == [False, True]

    @pytest.mark.parametrize("n", [2, 22])
    def test_values_match_certificates_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        bounds = cp.SaturationBounds.symmetric(1.0, n)
        ic = cp.LinearMMatrix(np.eye(n) - 0.5 / n * (1.0 - np.eye(n))).as_interconnection(bounds)
        kP, kI = rng.uniform(1.0, 3.0, n), rng.uniform(0.1, 1.0, n)
        agents = cp.AgentEnsemble(a=kI / kP + rng.uniform(0.05, 1.0, n), w=-rng.uniform(0, 2, n))
        dec = cp.ClosedLoopSystem(agents=agents, ic=ic, bounds=bounds, gains=cp.ControllerGains(
            kP=kP, kI=kI, mode="decentralized", kA=np.full(n, 0.4)))
        coord = cp.ClosedLoopSystem(agents=agents, ic=ic, bounds=bounds, gains=cp.ControllerGains(
            kP=kP, kI=kI, mode="coordinating", kC=0.5 / n, alpha=1.0))
        zeta0, u0 = rng.normal(size=n), rng.normal(size=n)
        mon_dec = DecentralizedMonitor(dec, zeta0, u0)
        mon_coord = CoordinatingMonitor(coord)
        x, z = rng.normal(scale=3.0, size=(2, 100, n))
        v_dec, v_coord = mon_dec.value(x, z), mon_coord.value(x, z)
        for k in range(100):
            s = cp.ClosedLoopState(x[k], z[k])
            zeta, u = cp.to_zeta_u(s, dec.gains)
            assert v_dec[k] == cp.lyapunov_decentralized(dec, zeta - zeta0, u - u0)
            zeta, u = cp.to_zeta_u(s, coord.gains)
            assert v_coord[k] == cp.lyapunov_coordinating(coord, zeta, u)

    def test_stack_matches_per_row_observation(self, sys_dec2, sys_coord2):
        # seven runs under three certificates, each checked as one stack of
        # its states, against the same run observed one state at a time
        rep = cp.find_equilibrium_decentralized(sys_dec2)

        monitors = ([DecentralizedMonitor(sys_dec2, rep.zeta0, rep.u0) for _ in range(3)]
                    + [DecentralizedMonitor(sys_dec2, np.zeros(2), np.zeros(2))]
                    + [CoordinatingMonitor(sys_coord2) for _ in range(3)])
        m, n_steps = len(monitors), 40
        rng = np.random.default_rng(3)
        decay = 0.8 ** np.arange(n_steps)[:, None, None]
        x = rng.normal(scale=3.0, size=(n_steps, m, 2)) * decay
        z = rng.normal(scale=3.0, size=(n_steps, m, 2)) * decay
        x[29], x[30] = 5.0, 50.0  # saturated, then far beyond slack in every run
        # the coordinating runs sit unsaturated on steps 10..14, so the jump
        # on step 15 starts out of scope
        x[10:15, 4:] = z[10:15, 4:] = 0.0
        x[15, 4:] = 20.0
        times = np.arange(n_steps)[:, None] + 0.01 * np.arange(m)
        for r, mon in enumerate(monitors):
            mon.check(times[:, r], x[:, r], z[:, r])
            want = _observed_one_at_a_time(mon, times[:, r], x[:, r], z[:, r])
            assert [(v.t, v.value, v.increase) for v in mon.violations] == want
            assert mon.ok == (not want)
            assert mon.max_excess == max((inc for _, _, inc in want), default=0.0)
            assert any(np.floor(t) == 30 for t, _, _ in want)
        for mon in monitors[4:]:
            assert not any(np.floor(v.t) == 15 for v in mon.violations)
            assert mon.value(x[15:16, 4], z[15:16, 4])[0] > mon.value(x[14:15, 4], z[14:15, 4])[0]

    def test_margin_checked_at_construction(self, ic2, bounds2):
        agents = cp.AgentEnsemble(a=[0.4, 0.4], w=[0.0, 0.0])
        dec = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0], mode="decentralized",
                                 kA=[0.4, 0.4])
        coord = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0], mode="coordinating",
                                   kC=0.5, alpha=1.0)
        with pytest.raises(TuningError):
            DecentralizedMonitor(cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=dec,
                                                     bounds=bounds2), np.zeros(2), np.zeros(2))
        with pytest.raises(TuningError):
            CoordinatingMonitor(cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=coord,
                                                    bounds=bounds2))
