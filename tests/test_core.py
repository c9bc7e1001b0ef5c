import numpy as np
import pytest

import capnet as cp
from capnet.errors import DimensionError, VaryingDisturbanceError


class Ramp:
    """A disturbance known only by its eval: (t, -t, t, ...) on ``n`` agents."""

    def __init__(self, n):
        self.sign = np.resize([1.0, -1.0], n)

    def eval(self, t):
        return self.sign * t


def bounds11():
    return cp.SaturationBounds([-1.0], [1.0])


class TestNonlinearities:
    def test_saturate_above_upper(self):
        assert cp.saturate([1.5], bounds11()) == pytest.approx([1.0])

    def test_saturate_interior_identity(self):
        assert cp.saturate([0.3], bounds11()) == pytest.approx([0.3])

    def test_saturate_both_limits(self, bounds2):
        np.testing.assert_allclose(cp.saturate([3.5, -2.0], bounds2), [1.0, -1.0])

    def test_deadzone_values(self):
        b = bounds11()
        assert cp.deadzone([1.5], b) == pytest.approx([0.5])
        assert cp.deadzone([0.3], b) == pytest.approx([0.0])
        assert cp.deadzone([3.5], b) == pytest.approx([2.5])

    def test_deadzone_zero_iff_inside(self):
        rng = np.random.default_rng(3)
        b = cp.SaturationBounds(-rng.random(5) - 0.1, rng.random(5) + 0.1)
        u = rng.normal(scale=2.0, size=5)
        dz = cp.deadzone(u, b)
        inside = (u >= b.lower) & (u <= b.upper)
        assert np.all((dz == 0.0) == inside)

    def test_dimension_mismatch(self, bounds2):
        with pytest.raises(DimensionError):
            cp.saturate([1.0, 2.0, 3.0], bounds2)
        with pytest.raises(DimensionError):
            cp.deadzone([1.0], bounds2)

    def test_identities_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 22):
            b = cp.SaturationBounds(-1 - rng.random(n), 1 + rng.random(n))
            u = rng.normal(scale=3.0, size=(500, n))
            eps = np.finfo(float).eps
            for row in u:
                sat = cp.saturate(row, b)
                dz = cp.deadzone(row, b)
                np.testing.assert_allclose(sat + dz, row, rtol=4 * eps, atol=4 * eps)
                np.testing.assert_array_equal(cp.saturate(sat, b), sat)

    def test_monotone(self):
        rng = np.random.default_rng(11)
        b = cp.SaturationBounds(np.full(4, -1.0), np.full(4, 1.0))
        for _ in range(200):
            u = rng.normal(scale=2.0, size=4)
            v = u + rng.random(4)
            assert np.all(cp.saturate(u, b) <= cp.saturate(v, b))
            assert np.all(cp.deadzone(u, b) <= cp.deadzone(v, b))


class TestTypes:
    def test_bounds_need_interior(self):
        with pytest.raises(ValueError):
            cp.SaturationBounds([0.0], [0.0])
        with pytest.raises(DimensionError):
            cp.SaturationBounds([0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            cp.SaturationBounds([-np.inf], [1.0])

    def test_agents_positive_rates(self):
        with pytest.raises(ValueError):
            cp.AgentEnsemble(a=[1.0, 0.0], w=[0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            cp.AgentEnsemble(a=[1.0, np.inf], w=[0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, np.nan])

    def test_agents_profile_disturbance(self):
        prof = cp.DisturbanceProfile.piecewise([0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=prof)
        assert agents.disturbance.varies
        np.testing.assert_allclose(agents.disturbance.eval(0.5), [1.0, 2.0])

    def test_shared_series_reaches_every_agent(self):
        # a (k,) series with the default scalar scale and offset
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=cp.DisturbanceProfile.piecewise([0, 1], [1, 2]))
        np.testing.assert_array_equal(agents.disturbance.eval(0.5), [1.5, 1.5])
        stack = agents.disturbance.eval(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(stack, [[1.0, 1.0], [1.5, 1.5], [2.0, 2.0]])

    def test_constant_disturbance_is_one_stored_vector(self):
        agents = cp.AgentEnsemble(a=[1.0, 1.0, 1.0], w=-0.5)
        w = agents.disturbance
        assert not w.varies and len(w.times) == 0
        np.testing.assert_array_equal(agents.w, [-0.5, -0.5, -0.5])
        assert w.eval(3.0) is agents.w and agents.constant_w("test") is agents.w
        np.testing.assert_array_equal(w.eval(np.array([0.0, 1.0])), [agents.w, agents.w])

    def test_eval_only_disturbance_varies(self):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=Ramp(2))
        assert agents.disturbance.varies and len(agents.disturbance.times) == 0
        np.testing.assert_array_equal(agents.disturbance.eval(2.0), [2.0, -2.0])
        with pytest.raises(VaryingDisturbanceError, match="test needs a constant agents.w"):
            agents.constant_w("test")

    @pytest.mark.parametrize("w", [
        [0.0, 1.0, 2.0],
        cp.DisturbanceProfile.piecewise([0.0, 1.0], [[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]]),
        cp.DisturbanceProfile.piecewise([0.0, 1.0], [0.0, 1.0]).with_thermal_map([1.0] * 3, 0.0),
        Ramp(3),
    ], ids=["vector", "per-agent series", "scale", "eval-only"])
    def test_disturbance_shape_checked_once(self, w):
        with pytest.raises(DimensionError):
            cp.AgentEnsemble(a=[1.0, 1.0], w=w)

    def test_gain_mode_consistency(self):
        with pytest.raises(ValueError):
            cp.ControllerGains(kP=[1.0], kI=[1.0], mode="decentralized")  # kA missing
        with pytest.raises(ValueError):
            cp.ControllerGains(kP=[1.0], kI=[1.0], mode="coordinating", kA=[1.0],
                               kC=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            cp.ControllerGains(kP=[1.0], kI=[-1.0], mode="decentralized", kA=[1.0])
        with pytest.raises(ValueError):
            cp.ControllerGains(kP=[1.0], kI=[1.0], mode="sliding")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_gains_must_be_finite(self, value):
        one = np.ones(2)
        dec = dict(kP=one, kI=one, kA=one, mode="decentralized")
        coord = dict(kP=one, kI=one, kC=0.5, alpha=1.0, mode="coordinating")
        for gain in ("kP", "kI", "kA"):
            with pytest.raises(ValueError, match=f"{gain} must be strictly positive and finite"):
                cp.ControllerGains(**dict(dec, **{gain: [1.0, value]}))
        for gain in ("kC", "alpha"):
            with pytest.raises(ValueError, match="alpha must be strictly positive and finite"):
                cp.ControllerGains(**dict(coord, **{gain: value}))

    def test_scalar_gains_broadcast_against_explicit_vector(self):
        g = cp.ControllerGains(kP=[2.0, 2.0, 2.0], kI=1.0, mode="decentralized", kA=0.4)
        assert g.n == 3
        np.testing.assert_allclose(g.kI, [1.0, 1.0, 1.0])


class TestDecentralizedTuning:
    def test_pass(self):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, 0.0])
        gains = cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0],
                                   mode="decentralized", kA=[0.4, 0.4])
        report = cp.validate_decentralized_tuning(agents, gains)
        assert report.passed
        assert not report.failures()

    def test_fail_integral_dominates(self):
        # the homogeneous case-study gains: kP*a = 0.6 does not dominate kI = 1
        agents = cp.AgentEnsemble(a=[0.6], w=[0.0])
        gains = cp.ControllerGains(kP=[1.0], kI=[1.0], mode="decentralized", kA=[1.0])
        report = cp.validate_decentralized_tuning(agents, gains)
        assert not report.passed
        assert any(c.label == "kP*a > kI" for c in report.failures())

    def test_fail_antiwindup_too_large(self):
        agents = cp.AgentEnsemble(a=[1.0], w=[0.0])
        gains = cp.ControllerGains(kP=[1.0], kI=[0.5], mode="decentralized", kA=[2.0])
        report = cp.validate_decentralized_tuning(agents, gains)
        assert not report.passed
        assert any(c.label == "kP*kA < 1" for c in report.failures())

    def test_mode_mismatch_raises(self, gains_coord2):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, 0.0])
        with pytest.raises(ValueError):
            cp.validate_decentralized_tuning(agents, gains_coord2)


class TestCoordinatingTuning:
    def test_pass(self):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, 0.0])
        gains = cp.ControllerGains(kP=[1.0, 1.0], kI=[0.5, 0.5],
                                   mode="coordinating", kC=0.5, alpha=1.0)
        assert cp.validate_coordinating_tuning(agents, gains).passed

    def test_fail_kc_bound(self):
        agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[0.0, 0.0])
        gains = cp.ControllerGains(kP=[1.0, 1.0], kI=[0.5, 0.5],
                                   mode="coordinating", kC=1.5, alpha=1.0)
        report = cp.validate_coordinating_tuning(agents, gains)
        assert not report.passed
        bad = [c for c in report.failures() if c.agent is None]
        assert bad and bad[0].lhs == pytest.approx(1.5)

    def test_fail_case_study_gains(self):
        # 22 homogeneous agents with kP = 1 and kC = 0.5: (kC/2)*sum(kP) = 5.5
        n = 22
        agents = cp.AgentEnsemble(a=np.full(n, 0.6), w=np.zeros(n))
        gains = cp.ControllerGains(kP=np.ones(n), kI=np.ones(n),
                                   mode="coordinating", kC=0.5, alpha=1.0)
        report = cp.validate_coordinating_tuning(agents, gains)
        assert not report.passed
        glob = [c for c in report.checks if c.agent is None][0]
        assert glob.lhs == pytest.approx(5.5)
        assert not glob.ok

    def test_equality_uses_relative_tolerance(self):
        agents = cp.AgentEnsemble(a=[1.0], w=[0.0])
        kI = 0.5 * (1.0 + 1e-12)  # round-trip-sized wobble must not fail
        gains = cp.ControllerGains(kP=[1.0], kI=[kI], mode="coordinating",
                                   kC=0.5, alpha=1.0)
        assert cp.validate_coordinating_tuning(agents, gains).passed
