"""The stacked samplers draw and judge exactly the pairs of a per-pair loop.

The reference functions below are the structural checkers, the optimality
alternatives loop and the oracle's direct search as they were written one
pair (or point) per iteration, before the stacked versions replaced them.
The one deliberate change is in the lemma-2 proposal: the step scale is drawn
before the Jacobian solve, so a failed solve takes the same doubles as a
successful one.  The stream is unchanged wherever the solve succeeds.
"""

import numpy as np
import pytest

import capnet as cp
from capnet import equilibria, interconnect
from capnet.equilibria import (EquilibriumReport, OracleOptions, OracleResult,
                               VerificationVerdict, linf_cost, weighted_l1_cost)
from capnet.interconnect import STRICT_MARGIN, Counterexample, PropertyVerdict
from tests.test_equilibria import random_linear_instance
from tests.test_interconnect import bad_matrix_interconnection

# ---------------------------------------------------------------------------
# per-pair reference


def reference_ordered_pair(rng, bounds, pin_prob):
    v_low = bounds.sample(rng)
    pinned = rng.random(bounds.n) < pin_prob
    v_high = np.where(pinned, v_low, rng.uniform(v_low, bounds.upper))
    return v_low, v_high


def reference_assumption1(ic, n_samples, rng_seed=0, pin_prob=0.5, margin=STRICT_MARGIN):
    rng = np.random.default_rng(rng_seed)
    bad, grazing = [], []
    checked = 0
    attempts = 0
    while checked < n_samples and attempts < 20 * n_samples:
        attempts += 1
        v_low, v_high = reference_ordered_pair(rng, ic.bounds, pin_prob)
        if np.array_equal(v_low, v_high):
            continue
        diff = ic(v_high) - ic(v_low)
        for i in np.nonzero(v_high == v_low)[0]:
            val = diff[i]
            if val > margin:
                bad.append(Counterexample("competition (i)", checked, v_low, v_high, int(i), float(val)))
            elif val >= -margin:
                grazing.append(Counterexample("competition (i)", checked, v_low, v_high, int(i), float(val)))
        agg = float(ic.eta @ diff)
        if agg < -margin:
            bad.append(Counterexample("aggregate monotonicity (ii)", checked, v_low, v_high, None, agg))
        elif agg <= margin:
            grazing.append(Counterexample("aggregate monotonicity (ii)", checked, v_low, v_high, None, agg))
        checked += 1
    return PropertyVerdict("assumption1", n_samples, checked, rng_seed, margin,
                           tuple(bad), tuple(grazing))


def reference_lemma1(ic, n_pairs, rng_seed=0, pin_prob=0.5, margin=STRICT_MARGIN):
    rng = np.random.default_rng(rng_seed)
    bad, grazing = [], []
    checked = 0
    attempts = 0
    while checked < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        v = ic.bounds.sample(rng)
        pinned = rng.random(ic.n) < pin_prob
        v_alt = np.where(pinned, v, ic.bounds.sample(rng))
        if np.array_equal(v, v_alt):
            continue
        diff = ic(v_alt) - ic(v)
        moved = v_alt != v
        lhs = float(np.sum(ic.eta[moved] * np.sign(v_alt[moved] - v[moved]) * diff[moved]))
        rhs = float(np.sum(ic.eta[~moved] * np.abs(diff[~moved])))
        gap = lhs - rhs
        if gap < -margin:
            bad.append(Counterexample("signed-change dominance", checked, v, v_alt, None, gap))
        elif gap <= margin:
            grazing.append(Counterexample("signed-change dominance", checked, v, v_alt, None, gap))
        checked += 1
    return PropertyVerdict("lemma1", n_pairs, checked, rng_seed, margin,
                           tuple(bad), tuple(grazing))


def reference_lemma2_proposal(ic, rng, v_low):
    lo, hi = ic.bounds.lower, ic.bounds.upper
    n = ic.n
    mode = rng.random()
    if mode < 0.5 and (ic.linearization is not None or n <= 8):
        J = ic.linearize(v_low)[1]
        rhs = rng.uniform(0.1, 1.0, n)
        scale = 10.0 ** rng.uniform(-2.7, -0.7)  # drawn before the solve
        try:
            dv = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            return None
        m = float(np.max(np.abs(dv)))
        if not np.isfinite(m) or m == 0.0:
            return None
        dv *= scale * float(np.max(hi - lo)) / m
        return np.clip(v_low + dv, lo, hi)
    if mode < 0.75:
        scale = rng.uniform()
        step = np.minimum(scale * (hi - v_low) * rng.uniform(0.8, 1.2, n), hi - v_low)
        return v_low + step
    scale = rng.uniform()
    r = rng.random(n)
    up = rng.uniform(0.0, scale * (hi - v_low))
    down = -rng.uniform(0.0, 0.3 * scale * (v_low - lo))
    return v_low + np.where(r < 0.75, up, np.where(r < 0.9, 0.0, down))


def reference_lemma2(ic, n_pairs, rng_seed=0, margin=STRICT_MARGIN):
    rng = np.random.default_rng(rng_seed)
    bad, grazing = [], []
    qualifying = 0
    for k in range(n_pairs):
        v_low = ic.bounds.sample(rng)
        v_high = reference_lemma2_proposal(ic, rng, v_low)
        if v_high is None or np.array_equal(v_low, v_high):
            continue
        if not np.all(ic(v_high) - ic(v_low) >= 0.0):
            continue
        qualifying += 1
        gaps = v_high - v_low
        worst = int(np.argmin(gaps))
        val = float(gaps[worst])
        if val < -margin:
            bad.append(Counterexample("inverse positivity", k, v_low, v_high, worst, val))
        elif val <= margin:
            grazing.append(Counterexample("inverse positivity", k, v_low, v_high, worst, val))
    return PropertyVerdict("lemma2", n_pairs, qualifying, rng_seed, margin,
                           tuple(bad), tuple(grazing))


def reference_direct_search(ic, agents, cost_of_x, opts):
    opts = opts or OracleOptions()
    bounds = ic.bounds
    evals = 0

    def cost(v):
        nonlocal evals
        evals += 1
        v = np.clip(v, bounds.lower, bounds.upper)
        return cost_of_x((ic(v) + agents.w) / agents.a)

    candidates = equilibria._candidate_points(bounds, opts)
    costs = np.array([cost(v) for v in candidates])
    best_idx = int(np.argmin(costs))
    v_best, c_best = candidates[best_idx].copy(), float(costs[best_idx])
    method = "grid" if bounds.n <= equilibria.ORACLE_GRID_DIM_LIMIT else "lhs"
    if opts.polish:
        from scipy.optimize import minimize

        res = minimize(cost, v_best, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000 * bounds.n, "maxfev": 8000 * bounds.n})
        if res.fun <= c_best:
            v_best, c_best = np.clip(res.x, bounds.lower, bounds.upper), float(res.fun)
        method += "+nelder-mead"
    x_best = (ic(v_best) + agents.w) / agents.a
    return OracleResult(v=v_best, x=x_best, cost=c_best, method=method,
                        n_evaluations=evals)


def reference_verify_optimality(sys, report, mode, n_samples=1000, seed=0, tol=1e-5,
                                opts=None):
    eta, a = sys.ic.eta, sys.agents.a
    if mode == "l1w":
        oracle = reference_direct_search(sys.ic, sys.agents,
                                         lambda x: weighted_l1_cost(eta, a, x), opts)
        closed_cost = report.cost_l1w
        cost_of_x = lambda x: weighted_l1_cost(eta, a, x)
    else:
        oracle = reference_direct_search(sys.ic, sys.agents, linf_cost, opts)
        closed_cost = report.cost_linf
        cost_of_x = lambda x: linf_cost(x)
    failures = []
    margin = closed_cost - oracle.cost
    if closed_cost > oracle.cost + tol * (1.0 + closed_cost):
        failures.append(f"closed-loop cost {closed_cost!r} exceeds oracle {oracle.cost!r}")
    rng = np.random.default_rng(seed)
    v0 = cp.saturate(report.u0, sys.bounds)
    worst_gap = np.inf
    checked = 0
    while checked < n_samples:
        v = sys.bounds.sample(rng)
        if np.array_equal(v, v0):
            continue
        checked += 1
        alt_cost = cost_of_x(equilibria.open_loop_state(sys.ic, sys.agents, v))
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


# ---------------------------------------------------------------------------
# instances


def _no_jacobian_mmatrix(n=9):
    """An M-matrix coupling on an asymmetric box, without a linearization and with
    n > 8, so lemma 2 never aims through the Jacobian."""
    rng = np.random.default_rng(11)
    B = np.diag(rng.uniform(1.0, 2.0, n)) - rng.uniform(0.0, 0.1, (n, n)) * (1 - np.eye(n))
    bounds = cp.SaturationBounds(-rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
    return cp.Interconnection(fn=lambda V: (B @ V[..., None])[..., 0], eta=np.ones(n),
                              bounds=bounds)


INSTANCES = ("ic2", "bad_matrix", "dhn_small", "mmatrix5", "mmatrix9_no_jacobian")


@pytest.fixture(scope="module")
def instances(ic2, dhn_small):
    """name -> (interconnection, agents) with a constant disturbance."""
    _, ic5, w5, a5 = random_linear_instance(3, 5, "mixed")
    ic9 = _no_jacobian_mmatrix()
    return {
        "ic2": (ic2, cp.AgentEnsemble(a=[1.0, 1.0], w=[-2.0, -1.0])),
        "bad_matrix": (bad_matrix_interconnection(), cp.AgentEnsemble(a=[1.0, 2.0], w=[-0.5, 0.2])),
        "dhn_small": (dhn_small[2], cp.AgentEnsemble(a=[0.3, 0.3], w=[-0.5, -5.0])),
        "mmatrix5": (ic5, cp.AgentEnsemble(a=a5, w=w5)),
        "mmatrix9_no_jacobian": (ic9, cp.AgentEnsemble(a=np.ones(9), w=-0.3 * np.ones(9))),
    }


def assert_same_verdict(got, want):
    assert (got.name, got.n_requested, got.n_checked, got.seed, got.margin) == \
        (want.name, want.n_requested, want.n_checked, want.seed, want.margin)
    for got_list, want_list in ((got.counterexamples, want.counterexamples),
                                (got.marginal, want.marginal)):
        assert [(c.check, c.sample, c.index) for c in got_list] == \
            [(c.check, c.sample, c.index) for c in want_list]
        for g, w in zip(got_list, want_list):
            np.testing.assert_array_equal(g.v_low, w.v_low)
            np.testing.assert_array_equal(g.v_high, w.v_high)
            assert g.value == pytest.approx(w.value, rel=0.0, abs=1e-12)


CHECKERS = ((cp.check_assumption1, reference_assumption1),
            (cp.check_lemma1, reference_lemma1),
            (cp.check_lemma2, reference_lemma2))


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("seed", range(5))
def test_checkers_match_per_pair_reference(instances, name, seed):
    ic = instances[name][0]
    for checker, reference in CHECKERS:
        assert_same_verdict(checker(ic, 200, rng_seed=seed), reference(ic, 200, rng_seed=seed))
        # an infinite margin lists every checked pair (every qualifying one
        # for lemma 2) as marginal, so all of them are compared
        assert_same_verdict(checker(ic, 200, rng_seed=seed, margin=np.inf),
                            reference(ic, 200, rng_seed=seed, margin=np.inf))


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("seed", range(5))
def test_lemma2_proposals_match_per_pair_reference(instances, name, seed):
    ic = instances[name][0]
    v_low, v_high = interconnect._lemma2_proposals(ic, np.random.default_rng(seed), 300)
    rng = np.random.default_rng(seed)
    for k in range(300):
        want_low = ic.bounds.sample(rng)
        want_high = reference_lemma2_proposal(ic, rng, want_low)
        np.testing.assert_array_equal(v_low[k], want_low)
        if want_high is None:
            assert np.all(np.isnan(v_high[k]))
        else:
            np.testing.assert_array_equal(v_high[k], want_high)


def _off_optimum_report(sys, u0, mode):
    """A report of the ``mode`` loop at an arbitrary input, so that many
    alternatives beat it."""
    x0 = equilibria.open_loop_state(sys.ic, sys.agents, u0)
    zeros = np.zeros(sys.n)
    return EquilibriumReport(mode=mode, u0=u0, x0=x0, z0=zeros, zeta0=zeros,
                             residual=0.0, cost_l1w=weighted_l1_cost(sys.ic.eta, sys.agents.a, x0),
                             cost_linf=linf_cost(x0), iterations=0)


@pytest.mark.parametrize("name", INSTANCES)
def test_verify_optimality_matches_per_pair_reference(instances, name):
    ic, agents = instances[name]
    n = ic.n
    sys = cp.ClosedLoopSystem(agents=agents, ic=ic, bounds=ic.bounds,
                              gains=cp.ControllerGains(kP=np.ones(n), kI=np.ones(n),
                                                       mode="decentralized", kA=np.ones(n)))
    opts = OracleOptions(lhs_samples=300, polish=False)  # the polish: see the oracle test
    for seed in range(5):
        u0 = ic.bounds.sample(np.random.default_rng(100 + seed))
        for mode, norm in (("decentralized", "l1w"), ("coordinating", "linf")):
            report = _off_optimum_report(sys, u0, mode)
            got = cp.verify_optimality(sys, report, n_samples=200, seed=seed, opts=opts)
            want = reference_verify_optimality(sys, report, norm, n_samples=200, seed=seed,
                                               opts=opts)
            assert got.details == want.details
            assert got.failures == want.failures
            assert got.passed == want.passed


@pytest.mark.parametrize("name", INSTANCES)
def test_oracles_match_per_point_reference(instances, name):
    ic, agents = instances[name]
    eta, a = ic.eta, agents.a
    for opts in (OracleOptions(polish=False), OracleOptions(lhs_samples=300)):
        for oracle, cost_of_x in ((cp.oracle_weighted_l1, lambda x: weighted_l1_cost(eta, a, x)),
                                  (cp.oracle_linf, linf_cost)):
            got = oracle(ic, agents, opts)
            want = reference_direct_search(ic, agents, cost_of_x, opts)
            np.testing.assert_array_equal(got.v, want.v)
            np.testing.assert_array_equal(got.x, want.x)
            assert (got.cost, got.method, got.n_evaluations) == \
                (want.cost, want.method, want.n_evaluations)
