"""The benchmark's tracer and workloads work on the package.

``perfbench/tracing.py`` replaces each ``(owner, attr)`` of its ``TARGETS``
by a timing wrapper, and ``Tracer.active()`` raises KeyError on one the owner
does not define; its observers read fields off the traced results.
``perfbench/workloads.py`` calls the package's public functions and checks
what they return, and ``perfbench/setup_probe.py`` validates and builds
scenario configs of its own.  A rename, a changed signature or a stricter
config schema in ``src/capnet`` would otherwise break ``perfbench/run.py``
without any test failing.  The tests load these files and change nothing in
them.  One more keeps each iterative solve on the one routine of
``capnet.core`` that does its job, another keeps the RODAS4 integrator free
of the hydraulics and of a dense inverse, a third leaves the kind of
disturbance to ``capnet.core``, and a fourth keeps every row check of a flow
solve (valve box, positive flows, pressure balance) and every mass residual
with the solve and its meter.  The last three give each premise of a
closed-loop claim one owner: the tuning refusal, the choice of equilibrium
solve, and the constant w that the certificate monitors need.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import capnet as cp
from capnet import equilibria, interconnect, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "capnet"


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


def test_setup_probe_builds_both_configs(capsys):
    # the probe validates and builds its own DHN study config and the
    # shipped linear one
    probe = _load("setup_probe")
    assert probe.main("dhn") == 0
    assert probe.main("linear") == 0


def test_root_search_and_line_search_live_in_core_only():
    # every damped Newton runs core.damped_newton and every scalar root
    # search core.bracketed_root: no other module names brentq or the
    # line search's budget
    shared = {"brentq", "MAX_BACKTRACKS"}
    users = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in shared:
                users.setdefault(name, set()).add(path.name)
    assert users == {name: {"core.py"} for name in shared}


def test_rosenbrock_integrator_is_generic_and_inverts_nothing():
    # the integrator takes its stage map, factor and deferred checks from
    # control.state_maps: no name of capnet.hydraulics and no np.linalg.inv
    # appear in it, so there is no DHN-only branch and no dense inverse
    hydraulic = {"hydraulics"}
    for node in ast.parse((PACKAGE / "hydraulics.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            hydraulic.add(node.name)
        elif isinstance(node, ast.Assign):
            hydraulic.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert {"solve_flows", "HydraulicStats", "CALIBRATED_CAPACITY_SCALE"} <= hydraulic
    functions = {node.name: node for node in ast.parse((PACKAGE / "sim.py").read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_integrate_rosenbrock", "integrate_many"):
        names = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & hydraulic, (name, names & hydraulic)
        assert "inv" not in names, name


def test_flow_checks_are_run_by_the_solve_and_the_meter_only():
    # every DHN flow solve's rows are checked inline by solve_flows or,
    # deferred from its one-point form, by HydraulicStats, which also takes
    # every mass residual: no other top-level function or class calls the
    # valve-box, positive-flow or pressure-balance row check or
    # mass_residual
    owned = {"_check_valves", "_check_positive", "_check_balance", "mass_residual"}
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (getattr(node.func, "id", None) in owned
                                                   or getattr(node.func, "attr", None) in owned):
                    callers.add((path.name, top.name))
    assert callers == {("hydraulics.py", "solve_flows"), ("hydraulics.py", "HydraulicStats")}


def test_a_run_summary_comes_from_its_system_alone():
    # a Scenario holds run settings only; the coldest-hour cut and the flow
    # counts are read off its closed-loop system, so sim names nothing of
    # capnet.hydraulics and no module but hydraulics makes a flow meter
    from dataclasses import fields

    assert [f.name for f in fields(sim.Scenario)] == [
        "policy", "system", "t_span", "opts", "force", "out_dir", "prefix"]
    imported = set()  # the modules imported from and the names imported
    for node in ast.walk(ast.parse((PACKAGE / "sim.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {getattr(node, "module", None) or "", *(a.name for a in node.names)}
    assert not {name for name in imported if name.split(".")[-1] == "hydraulics"}
    makers = {path.name for path in PACKAGE.glob("*.py") if path.name != "hydraulics.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and "HydraulicStats" in (
                  getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert makers == set()


def _reads_disturbance_kind(node):
    """Whether node names w_is_constant, calls hasattr(..., "eval") or reads
    .times off agents.w (as an attribute or through getattr)."""
    def is_agents_w(expr):
        return (isinstance(expr, ast.Attribute) and expr.attr == "w"
                and (getattr(expr.value, "attr", None) == "agents"
                     or getattr(expr.value, "id", None) == "agents"))

    if isinstance(node, ast.Name):
        return node.id == "w_is_constant"
    if isinstance(node, ast.Attribute):
        return node.attr == "w_is_constant" or (node.attr == "times" and is_agents_w(node.value))
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("hasattr", "getattr"):
        attr = node.args[1].value if isinstance(node.args[1], ast.Constant) else None
        return ((node.func.id == "hasattr" and attr == "eval")
                or (attr == "times" and is_agents_w(node.args[0])))
    return False


def test_disturbance_kind_is_decided_in_core_only():
    # AgentEnsemble turns every w into one DisturbanceProfile; the other
    # modules evaluate it and never ask which kind of w they hold
    readers = {path.name for path in PACKAGE.glob("*.py") if path.name != "core.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if _reads_disturbance_kind(node)}
    assert readers == set()


def test_eval_only_disturbance_gives_the_profile_bits():
    # perfbench/reference.py builds the study loops with a w known only by
    # its eval; the field must equal, bit for bit, that of the loop the CLI
    # builds from the shipped profile
    from capnet import cli, control

    reference = _load("reference")
    rng = np.random.default_rng(0)
    for policy in ("decentralized", "coordinating"):
        ours = reference.study_system(policy)
        shipped = cli.build_scenario(cli.ScenarioConfig.load(
            cli.shipped_config_path(f"dhn_study_{policy}.cfg"))).system
        assert ours.agents.disturbance.varies and not len(ours.agents.disturbance.times)
        for _ in range(1000):
            s = control.ClosedLoopState(*rng.uniform(-2.0, 2.0, (2, ours.n)))
            t = rng.uniform(0.0, 96.0)
            for got, want in zip(control.field(ours, s, t), control.field(shipped, s, t)):
                np.testing.assert_array_equal(got, want)


def _functions():
    """(file, name, node) of every top-level function and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
                if isinstance(node, ast.FunctionDef):
                    yield path.name, node.name, node


def _names(tree):
    return {node.id if isinstance(node, ast.Name) else node.attr
            if isinstance(node, ast.Attribute) else node.name
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}


def test_one_function_raises_the_tuning_refusal():
    # sim and verify both refuse out-of-rule gains through core.enforce_tuning
    raisers = {(path, name) for path, name, fn in _functions()
               for node in ast.walk(fn) if isinstance(node, ast.Raise)
               for const in ast.walk(node) if isinstance(const, ast.Constant)
               and "tuning rule violated" in str(const.value)}
    assert raisers == {("core.py", "enforce_tuning")}


def test_one_function_picks_the_equilibrium_solve():
    # a function that compares a mode and names both solves chooses between
    # them: only equilibria.find_equilibrium may
    solves = {"find_equilibrium_decentralized", "find_equilibrium_coordinating"}
    pickers = {(path, name) for path, name, fn in _functions()
               if solves <= _names(fn) and any(
                   isinstance(node, ast.Compare) and any(
                       getattr(side, "attr", None) == "mode"
                       for side in [node.left, *node.comparators])
                   for node in ast.walk(fn))}
    assert pickers == {("equilibria.py", "find_equilibrium")}


def test_sim_leaves_the_constant_w_to_the_monitors():
    # a certificate monitor refuses a varying w when it is built, so the
    # integrator has no reason to inspect one
    names = _names(ast.parse((PACKAGE / "sim.py").read_text()))
    assert not names & {"no_monitor_reason", "TIME_VARYING_W"}
