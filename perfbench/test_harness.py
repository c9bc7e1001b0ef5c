"""Self-tests of the benchmark harness (not of capnet).

    python3 -m pytest perfbench/test_harness.py -q

They show that the checks catch a wrong output (a swapped policy, a
perturbed allocation, an open-loop optimum that breaks complementarity),
that the two known program faults are counted as failed operations, and that
the metric names a run prints are the ones ``BENCHMARK.json`` lists.  The
last test runs every workload for one round, about a minute in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from capnet import core, equilibria  # noqa: E402
from workloads import DhnCertify, DhnClosedLoop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _summary(policy_ref):
    return {k: repr(v) for k, v in policy_ref.items()}


def test_swapped_policy_fails_round_check(tmp_path):
    wl = DhnClosedLoop(0, tmp_path)
    ref = wl.reference["policies"]
    dec, coord = _summary(ref[core.DECENTRALIZED]), _summary(ref[core.COORDINATING])
    right = {"reproduce-dhn.decentralized": {"summary": dec},
             "reproduce-dhn.coordinating": {"summary": coord}}
    swapped = {"reproduce-dhn.decentralized": {"summary": coord},
               "reproduce-dhn.coordinating": {"summary": dec}}
    assert wl.check_round(right) == []
    assert len(wl.check_round(swapped)) == 2


@pytest.fixture(scope="module")
def certify_results(tmp_path_factory):
    wl = DhnCertify(0, tmp_path_factory.mktemp("certify"))
    return wl, {"fixed_point_dec": wl._fixed_point_dec(),
                "alloc_l1": wl._alloc("solve_l1_allocation"),
                "alloc_linf": wl._alloc("solve_linf_allocation")}


def test_allocations_agree_with_equilibrium(certify_results):
    wl, results = certify_results
    assert wl.check_round(results) == []
    assert wl._check_alloc(results["alloc_l1"]).problems == []


def test_perturbed_allocation_fails(certify_results):
    wl, results = certify_results
    good = results["alloc_l1"]
    v = good.v.copy()
    v[int(np.argmax(v < 1.0))] -= 0.05  # close one interior valve a little
    # valves changed but errors kept: the errors no longer follow
    stale = equilibria.AllocationResult(v=v, x=good.x, cost=good.cost, iterations=1,
                                        converged=True, method="perturbed")
    assert wl._check_alloc(stale).problems
    # consistent but no longer optimal: the equilibrium cost differs
    x = (wl._ic()(v) + wl.agents.w) / wl.agents.a
    worse = equilibria.AllocationResult(
        v=v, x=x, cost=equilibria.weighted_l1_cost(np.ones(len(x)), wl.agents.a, x),
        iterations=1, converged=True, method="perturbed")
    assert wl.check_round(dict(results, alloc_l1=worse))


def test_broken_complementarity_fails(certify_results):
    wl, results = certify_results
    l1 = results["alloc_l1"]
    x = np.tile(l1.x, (3, 1))
    v = np.tile(l1.v, (3, 1))
    policies = {"oracle-l1": {"x": x, "v": v}, "oracle-linf": {"x": x.copy(), "v": v}}
    assert wl.check_round(dict(results, **policies)) == []
    deficit = int(np.argmin(l1.x))
    v_bad = v.copy()
    v_bad[1, deficit] = 0.5
    broken = {"oracle-l1": {"x": x, "v": v_bad}, "oracle-linf": {"x": x.copy(), "v": v}}
    assert any("deficit" in p for p in wl.check_round(dict(results, **broken)))


def _run(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs_count_known_failures_and_print_listed_metrics():
    # failed operations per operations in a round
    known_failures = {"dhn-closed-loop": (1, 2), "dhn-certify": (1, 9),
                      "linear-certify": (0, 5)}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(known_failures)
    for name, (failed, ops) in known_failures.items():
        res = _run(name, 0)
        assert res["correct"], name
        assert res["attempted"] % ops == 0, res
        assert res["failed"] * ops == failed * res["attempted"], res
        assert set(res["metrics"]) == end_to_end
    traced = _run("linear-certify", 1)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
