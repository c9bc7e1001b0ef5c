"""The benchmark's tracer and workloads work on the package.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of its ``TARGETS``
by a timing wrapper, and ``Tracer.active()`` raises KeyError on one the owner
does not define; its observers read fields off the traced results.
``perfbench/workloads.py`` calls the package's public functions and checks
what they return.  A rename or a changed signature in ``src/capnet`` would
otherwise break ``perfbench/run.py`` without any test failing.  The tests
load both files and change nothing in them.
"""

import importlib.util
import sys
from pathlib import Path

import capnet as cp
from capnet import equilibria, interconnect, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_every_trace_target_is_defined_by_its_owner():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = [f"{name}: {owner.__name__}.{attr}" for name, owner, attr in tracing.TARGETS
               if attr not in owner.__dict__]
    assert not missing, "tracer targets missing: " + ", ".join(missing)


def test_observers_read_traced_results(sys_dec2):
    # called through the module attributes, which are what the tracer
    # patches; dt_init = 50 makes the first RK45 step a rejected one
    tracer = _load_tracing().Tracer()
    with tracer.active():
        sim.integrate(sys_dec2, cp.ClosedLoopState.zero(2), (0.0, 50.0),
                      sim.SolverOptions(dt_init=50.0))
        interconnect.check_lemma2(sys_dec2.ic, 50)
        equilibria.find_equilibrium_decentralized(sys_dec2)
        equilibria.oracle_linf(sys_dec2.ic, sys_dec2.agents,
                               equilibria.OracleOptions(grid_points=5))
    counts = {key: tracer.counts[key] for key in (
        "rk45.accepted", "rk45.rejected", "rk45.field_evals", "lemma2.qualifying",
        "lemma2.requested", "fixed_point_dec.iterations", "oracle.evaluations")}
    assert all(count > 0 for count in counts.values()), counts


def test_certify_allocations_pass_the_workload_checks(tmp_path):
    # dhn-certify calls solve_l1_allocation(ic, agents) and
    # solve_linf_allocation(ic, agents) and checks their AllocationResult
    # against a fresh network and the decentralized equilibrium; its oracle
    # operations run reproduce-dhn under both oracle policies, and the round
    # checks their complementarity and the order of their costs
    certify = _load("workloads").DhnCertify(0, tmp_path)
    ops = {op.name: op for op in certify.ops}
    names = ("fixed_point_dec", "alloc_l1", "alloc_linf", "oracle-l1", "oracle-linf")
    results = {name: ops[name].run() for name in names}
    for name, res in results.items():
        assert ops[name].check(res).problems == [], name
    assert "x" in results["oracle-l1"] and "x" in results["oracle-linf"]
    assert certify.check_round(results) == []
