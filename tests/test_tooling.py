"""The benchmark tracer works on the package.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of its ``TARGETS``
by a timing wrapper, and ``Tracer.active()`` raises KeyError on one the owner
does not define; its observers read fields off the traced results.  A rename
in ``src/capnet`` would otherwise break ``perfbench/run.py --trace 1``
without any test failing.  The tests load the tracer and change nothing in it.
"""

import importlib.util
from pathlib import Path

import capnet as cp
from capnet import equilibria, interconnect, sim

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
