"""End-to-end acceptance suite.

Each test prints one [PASS] line naming the criterion it certifies; expected
numbers are frozen from independent oracles (grid search, bisection) noted
alongside each assertion.
"""

import time

import numpy as np
import pytest

import capnet as cp
from tests.conftest import B_REF


def test_criterion_1_nonlinearity_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    total = 0
    eps = np.finfo(float).eps
    for n in (1, 2, 5, 22):
        lower = -1.0 - rng.random(n)
        upper = 1.0 + rng.random(n)
        b = cp.SaturationBounds(lower, upper)
        m = 25_000
        u = rng.normal(scale=3.0, size=(m, n))
        sat = np.clip(u, lower, upper)
        dz = u - sat
        # identity sat + dz == u to machine precision
        assert np.all(np.abs(sat + dz - u) <= 4 * eps * np.maximum(1.0, np.abs(u)))
        # idempotence, exact
        assert np.array_equal(np.clip(sat, lower, upper), sat)
        # agreement with the library operations on a subsample
        for row in u[:200]:
            np.testing.assert_array_equal(cp.saturate(row, b), np.clip(row, lower, upper))
            np.testing.assert_array_equal(cp.deadzone(row, b), row - np.clip(row, lower, upper))
        # monotonicity on ordered pairs
        u2 = u + rng.random((m, n))
        sat2 = np.clip(u2, lower, upper)
        assert np.all(sat <= sat2)
        assert np.all(u - sat <= u2 - sat2)
        total += m
    elapsed = time.monotonic() - t0
    assert total >= 100_000
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: nonlinearity identities on {total} random vectors "
          f"({elapsed:.2f}s)")


def test_criterion_2_structural_checkers(ic2):
    t0 = time.monotonic()
    for verdict in (cp.check_assumption1(ic2, 500, rng_seed=0),
                    cp.check_lemma1(ic2, 500, rng_seed=0),
                    cp.check_lemma2(ic2, 500, rng_seed=0)):
        assert verdict.passed, verdict.summary()
    net, bld, _ = cp.build_dhn_scenario()
    ic_dhn = cp.dhn_interconnection(net, bld)
    np.testing.assert_array_equal(ic_dhn.eta, np.ones(22))
    for verdict in (cp.check_assumption1(ic_dhn, 500, rng_seed=0),
                    cp.check_lemma1(ic_dhn, 500, rng_seed=0),
                    cp.check_lemma2(ic_dhn, 500, rng_seed=0)):
        assert verdict.passed, verdict.summary()
    # positive off-diagonal coupling: competition and inverse positivity break
    B_bad = np.array([[1.0, 0.25], [-0.25, 1.0]])
    bounds = cp.SaturationBounds.symmetric(1.0, 2)
    ic_bad = cp.Interconnection(fn=lambda V: (B_bad @ V[..., None])[..., 0], eta=np.ones(2),
                                bounds=bounds)
    assert not cp.check_assumption1(ic_bad, 10_000, rng_seed=0).passed
    assert not cp.check_lemma2(ic_bad, 10_000, rng_seed=0).passed
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 2: structural checkers pass on reference and DHN "
          f"interconnections, fail on the counterexample ({elapsed:.2f}s)")


def test_criterion_3_decentralized_global_convergence(sys_dec2):
    t0 = time.monotonic()
    verdict = cp.verify_global_convergence(sys_dec2, n_starts=20, seed=0,
                                           t_max=200.0, tol=1e-4)
    elapsed = time.monotonic() - t0
    assert verdict.passed, verdict.report()
    # x0 = (-1.25, -0.25) from the fixed-point solver, hand-verified by
    # direct substitution into the stationarity conditions
    eq = cp.find_equilibrium_decentralized(sys_dec2)
    np.testing.assert_allclose(eq.x0, [-1.25, -0.25], atol=1e-10)
    assert verdict.details["worst_terminal_error"] < 1e-4
    assert verdict.details["monitored_runs"] == 20
    assert verdict.details["monitor_violations"] == 0
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 3: 20 random starts converge to the decentralized "
          f"equilibrium within 1e-4, certificate monotone ({elapsed:.2f}s)")


def test_criterion_4_decentralized_optimality(sys_dec2):
    eq = cp.find_equilibrium_decentralized(sys_dec2)
    # 1.5 frozen from an independent 201x201 grid scan of the weighted-L1
    # landscape (optimum at the fully open corner)
    assert abs(eq.cost_l1w - 1.5) < 1e-5
    verdict = cp.verify_optimality(sys_dec2, eq, n_samples=1000, seed=0)
    assert verdict.passed, verdict.report()
    assert verdict.details["n_alternatives"] == 1000
    assert verdict.details["min_alternative_gap"] > 0
    print("\n[PASS] criterion 4: decentralized equilibrium attains the weighted-L1 "
          f"oracle minimum 1.5 (margin {verdict.details['margin']:.2e}), "
          "1000 alternatives all strictly costlier")


def test_criterion_5_coordinating_optimality(sys_coord2):
    eq = cp.find_equilibrium_coordinating(sys_coord2)
    assert isinstance(eq, cp.EquilibriumReport)
    # 1.05 frozen from an independent 201x201 grid scan of the max-error
    # landscape (optimum at v = (1, 0.2))
    assert abs(eq.cost_linf - 1.05) < 1e-5
    assert eq.x0.max() - eq.x0.min() < 1e-9
    verdict = cp.verify_optimality(sys_coord2, eq, n_samples=1000, seed=0)
    assert verdict.passed, verdict.report()
    print("\n[PASS] criterion 5: coordinating equilibrium attains the max-error "
          f"oracle minimum 1.05, components equal within 1e-9")


def test_criterion_6_coordinating_convergence(ic2, gains_coord2, bounds2):
    agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-0.3, 0.2])
    sysc = cp.ClosedLoopSystem(agents=agents, ic=ic2, gains=gains_coord2, bounds=bounds2)
    assert cp.rejectable_disturbance(sysc)
    verdict = cp.verify_global_convergence(sysc, n_starts=20, seed=0,
                                           t_max=200.0, tol=1e-4)
    assert verdict.passed, verdict.report()
    eq = cp.find_equilibrium_coordinating(sysc)
    np.testing.assert_allclose(eq.x0, 0.0, atol=1e-9)
    print("\n[PASS] criterion 6: coordinating loop rejects the disturbance from 20 "
          "random starts, trailing 20% of every run unsaturated")


def test_criterion_7_hydraulic_fidelity(dhn_study):
    # single-consumer closed forms, frozen from scalar bisection on the
    # stated pressure balance (match required to 1e-6 relative)
    net1 = cp.HydraulicNetwork("23", [cp.Pipe("23", "A", 0.9)],
                               [cp.Consumer("A", 2.5)], 0.6e6)
    q_open = cp.solve_flows(net1, np.array([1.0]))[0]
    q_shut = cp.solve_flows(net1, np.array([-1.0]))[0]
    assert abs(q_open - 189.0244025310073) / 189.0244025310073 < 1e-6
    assert abs(q_shut - 0.1414213343169888) / 0.1414213343169888 < 1e-6
    # every exact tree flow solve of the four-policy study conserved mass
    summary = dhn_study["summary"]
    residual_keys = [k for k in summary if k.endswith("max_mass_residual")]
    assert len(residual_keys) == 4
    for key in residual_keys:
        assert float(summary[key]) < 1e-8, (key, summary[key])
    for key in (k for k in summary if k.endswith("max_newton_iterations")):
        assert int(summary[key]) <= 50, (key, summary[key])
    print("\n[PASS] criterion 7: closed-form flows matched to 1e-6; mass residual "
          f"< 1e-8 across {sum(int(summary[k]) for k in summary if k.endswith('flow_solves'))} "
          "flow solves")


def test_criterion_8_case_study_comparison(dhn_study):
    summary = dhn_study["summary"]
    dec_max = float(summary["decentralized.max_deviation_at_coldest"])
    coord_max = float(summary["coordinating.max_deviation_at_coldest"])
    dec_sum = float(summary["decentralized.sum_deviation_at_coldest"])
    coord_sum = float(summary["coordinating.sum_deviation_at_coldest"])
    assert float(summary["decentralized.coldest_temperature"]) < -25.0
    assert coord_max < dec_max
    assert dec_sum <= coord_sum
    assert dhn_study["elapsed"] < 600.0
    print(f"\n[PASS] criterion 8: at the coldest sample, coordinated max deviation "
          f"{coord_max:.2f} K < decentralized {dec_max:.2f} K and decentralized sum "
          f"{dec_sum:.1f} K <= coordinated {coord_sum:.1f} K; four policies in "
          f"{dhn_study['elapsed']:.0f}s")


def test_dhn_headline_converged(dhn_study):
    # 13.05301 K and 9.28455 K: both PI loops integrated by scipy's DOP853
    # at rtol 1e-10, apart from capnet's integrator (perfbench/reference.py)
    summary = dhn_study["summary"]
    for policy, reference in (("decentralized", 13.05301), ("coordinating", 9.28455)):
        value = float(summary[f"{policy}.max_deviation_at_coldest"])
        assert abs(value - reference) < 5e-4, (policy, value, reference)
    print("\n[PASS] headline: coldest-hour max deviations match the solve_ivp "
          "reference within 5e-4 K")
