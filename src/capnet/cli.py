"""Command-line interface: simulate, check, verify, reproduce-dhn.

Configuration files are JSON with a versioned schema; unknown keys are
rejected so typos in scientific configs fail loudly.  Exit codes: 0 success,
1 counterexample/verdict failure, 2 configuration or tuning error, 3 solver
error; ``main`` maps each error to its code through ``ERROR_EXITS``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import equilibria, hydraulics, sim
from .control import ClosedLoopSystem
from .core import (COORDINATING, DECENTRALIZED, AgentEnsemble, ControllerGains,
                   SaturationBounds, validate_tuning)
from .errors import (AllocationError, CapnetError, ConfigError, EquilibriumError,
                     FlowSolverError, IntegrationError, TuningError)
from .interconnect import Interconnection, LinearMMatrix, check_assumption1, \
    check_lemma1, check_lemma2

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

#: exit code and stderr prefix of each error a subcommand may raise
ERROR_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    TuningError: (EXIT_CONFIG, "tuning error"),
    FlowSolverError: (EXIT_SOLVER, "solver error"),
    IntegrationError: (EXIT_SOLVER, "solver error"),
    EquilibriumError: (EXIT_SOLVER, "solver error"),
    AllocationError: (EXIT_SOLVER, "solver error"),
}

SCHEMA_VERSION = 1


def _require_keys(section: dict, allowed: set, required: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def load_config(path) -> dict:
    """Parse and schema-validate a scenario config; raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    validate_config(data, base_dir=Path(path).parent)
    return data


def serialize_config(data: dict) -> str:
    """Canonical form; parse(serialize(parse(x))) == parse(x)."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def validate_config(data: dict, base_dir: Optional[Path] = None):
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _require_keys(data, {"schema_version", "system", "agents", "controller",
                         "sim", "outputs"},
                  {"schema_version", "system", "controller"}, "config")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data['schema_version']!r}")
    system = data["system"]
    if not isinstance(system, dict) or "type" not in system:
        raise ConfigError("system: needs a 'type' key")
    if system["type"] == "linear":
        _require_keys(system, {"type", "B", "eta", "bounds"}, {"type", "B", "bounds"},
                      "system[linear]")
        _require_keys(system["bounds"], {"lower", "upper"}, {"lower", "upper"},
                      "system.bounds")
        if "agents" not in data:
            raise ConfigError("linear systems need an 'agents' section")
    elif system["type"] == "dhn":
        _require_keys(system, {"type", "network", "building", "capacity_scale"},
                      {"type", "network"}, "system[dhn]")
        if "building" in system:
            _require_keys(system["building"],
                          {"c", "a_hat", "delta", "T_ref", "c_pw", "rho_w"},
                          set(), "system.building")
    else:
        raise ConfigError(f"system.type must be 'linear' or 'dhn', got {system['type']!r}")
    if "agents" in data:
        _require_keys(data["agents"], {"a", "w", "temperature_profile"}, set(), "agents")
    ctrl = data["controller"]
    _require_keys(ctrl, {"mode", "kP", "kI", "kA", "kC", "alpha", "force"},
                  {"mode", "kP", "kI"}, "controller")
    if ctrl["mode"] not in (DECENTRALIZED, COORDINATING):
        raise ConfigError(f"controller.mode must be 'decentralized' or 'coordinating'")
    if "sim" in data:
        _require_keys(data["sim"], {"t_span", "atol", "rtol", "output_dt", "method",
                                    "dt_max"}, set(), "sim")
    if "outputs" in data:
        _require_keys(data["outputs"], {"directory", "prefix"}, set(), "outputs")


@dataclass
class ScenarioConfig:
    """Validated raw config plus the directory paths resolve against."""

    data: dict
    base_dir: Path

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls(data=load_config(path), base_dir=Path(path).parent)


def shipped_config_path(name: str) -> Path:
    """Path of a configuration file shipped inside the package."""
    return Path(resources.files("capnet").joinpath("configs", name))


def _resolve_network(ref, base_dir: Path, capacity_scale: float):
    if isinstance(ref, dict):
        return hydraulics.network_from_dict(ref, capacity_scale)
    name = str(ref)
    if name.startswith("builtin:"):
        path = shipped_config_path(name.split(":", 1)[1] + ".cfg")
    else:
        path = Path(name)
        if not path.is_absolute():
            path = base_dir / path
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read network file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"network file {path} line {exc.lineno}: {exc.msg}") from exc
    return hydraulics.network_from_dict(raw, capacity_scale)


@contextmanager
def _section(where: str):
    """Raise a bad value met in the block as a ConfigError that names the
    config section ``where``; a ConfigError raised there names its own."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, CapnetError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _vector_or_scalar(value, n, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ConfigError(f"{name}: expected scalar or length-{n} list")
    return arr


def _time_span(value) -> tuple:
    """The config's sim.t_span: two finite numbers t0 < t1, kept as given."""
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(t, (int, float)) and not isinstance(t, bool)
                    and math.isfinite(t) for t in value)
            and value[1] > value[0]):
        return tuple(value)
    raise ConfigError(f"sim: t_span must be two finite numbers t0 < t1, got {value!r}")


def build_scenario(cfg: ScenarioConfig, policy: Optional[str] = None) -> sim.Scenario:
    """Instantiate every object a run needs from a validated config; policy
    defaults to the controller mode."""
    data = cfg.data
    system_cfg = data["system"]
    hstats = None
    temperature = None
    if system_cfg["type"] == "linear":
        with _section("system.bounds"):
            bounds = SaturationBounds(system_cfg["bounds"]["lower"],
                                      system_cfg["bounds"]["upper"])
        n = bounds.n
        with _section("system.B"):
            B = np.asarray(system_cfg["B"], dtype=float)
            if B.shape != (n, n) or not np.all(np.isfinite(B)):
                raise ValueError(f"must be a {n}x{n} matrix of finite numbers, as the bounds "
                                 f"are {n}-dimensional; got shape {B.shape}")
        eta = system_cfg.get("eta")
        with _section("system"):
            try:
                mm = LinearMMatrix(B, None if eta is None else np.asarray(eta, dtype=float))
                ic = mm.as_interconnection(bounds)
            except ValueError as exc:
                # not an admissible M-matrix; wrap it raw so the structural
                # checkers can exhibit the violation instead of refusing to build
                log.warning("linear map is not an admissible M-matrix (%s); "
                            "wrapping it unchecked for property checking", exc)
                eta_vec = np.ones(n) if eta is None else np.asarray(eta, dtype=float)
                ic = Interconnection(fn=lambda V: (B @ V[..., None])[..., 0], eta=eta_vec,
                                     bounds=bounds, jacobian=lambda v: B,
                                     name="linear-unchecked")
        agents_cfg = data["agents"]
        if "a" not in agents_cfg or "w" not in agents_cfg:
            raise ConfigError("agents: linear systems need 'a' and 'w'")
        with _section("agents"):
            agents = AgentEnsemble(a=_vector_or_scalar(agents_cfg["a"], n, "agents.a"),
                                   w=_vector_or_scalar(agents_cfg["w"], n, "agents.w"))
    else:
        with _section("system.capacity_scale"):
            capacity_scale = float(system_cfg.get("capacity_scale", 1.0))
        net = _resolve_network(system_cfg["network"], cfg.base_dir, capacity_scale)
        with _section("system.building"):
            bld = hydraulics.BuildingParams(**system_cfg.get("building", {}))
        n = net.n_consumers
        bounds = SaturationBounds.symmetric(1.0, n)
        hstats = hydraulics.HydraulicStats()
        ic = hydraulics.dhn_interconnection(net, bld, hstats)
        agents_cfg = data.get("agents", {})
        with _section("agents"):
            a = bld.rates(n)
            if "a" in agents_cfg:
                a = _vector_or_scalar(agents_cfg["a"], n, "agents.a")
            if "temperature_profile" in agents_cfg:
                ref = agents_cfg["temperature_profile"]
                if ref == "builtin":
                    temperature = sim.make_temperature_profile()
                else:
                    _require_keys(ref, {"times", "values"}, {"times", "values"},
                                  "agents.temperature_profile")
                    temperature = sim.DisturbanceProfile.piecewise(ref["times"], ref["values"])
                T_ref = np.broadcast_to(np.asarray(bld.T_ref, dtype=float), (n,))
                w = temperature.with_thermal_map(a, T_ref)
            elif "w" in agents_cfg:
                w = _vector_or_scalar(agents_cfg["w"], n, "agents.w")
            else:
                raise ConfigError("agents: dhn systems need 'w' or 'temperature_profile'")
            agents = AgentEnsemble(a=a, w=w)

    ctrl = data["controller"]
    with _section("controller"):
        kwargs = dict(kP=_vector_or_scalar(ctrl["kP"], n, "controller.kP"),
                      kI=_vector_or_scalar(ctrl["kI"], n, "controller.kI"), mode=ctrl["mode"])
        if ctrl["mode"] == DECENTRALIZED:
            if "kA" not in ctrl:
                raise ConfigError("controller: decentralized mode needs kA")
            kwargs["kA"] = _vector_or_scalar(ctrl["kA"], n, "controller.kA")
        else:
            if "kC" not in ctrl or "alpha" not in ctrl:
                raise ConfigError("controller: coordinating mode needs kC and alpha")
            kwargs["kC"] = float(ctrl["kC"])
            kwargs["alpha"] = float(ctrl["alpha"])
        gains = ControllerGains(**kwargs)
        system = ClosedLoopSystem(agents=agents, ic=ic, gains=gains, bounds=bounds)

    sim_cfg = data.get("sim", {})
    t_span = _time_span(sim_cfg.get("t_span", (0.0, 96.0)))
    with _section("sim"):
        opts = sim.SolverOptions(
            method=sim_cfg.get("method", "rk45"),
            atol=float(sim_cfg.get("atol", 1e-8)),
            rtol=float(sim_cfg.get("rtol", 1e-6)),
            output_dt=sim_cfg.get("output_dt", 0.25),
            dt_max=sim_cfg.get("dt_max"),
        )
    out_cfg = data.get("outputs", {})
    out_dir = out_cfg.get("directory")
    if out_dir is not None:
        out_dir = Path(out_dir)  # relative paths resolve against the CWD
    return sim.Scenario(
        policy=policy or ctrl["mode"],
        agents=agents, ic=ic, t_span=t_span, opts=opts, system=system,
        force=bool(ctrl.get("force", False)), temperature=temperature,
        hydraulic_stats=hstats, out_dir=out_dir,
        prefix=out_cfg.get("prefix", "run"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    arts = sim.run_scenario(build_scenario(ScenarioConfig.load(args.config)))
    print(f"wrote {arts.csv_path}" if arts.csv_path else "run complete (no output dir)")
    for key in sorted(arts.summary):
        print(f"  {key}={arts.summary[key]}")
    return EXIT_OK


def cmd_check(args) -> int:
    system = build_scenario(ScenarioConfig.load(args.config)).system
    wanted = [name for name, on in (("assumption1", args.assumption1),
                                    ("lemma1", args.lemma1),
                                    ("lemma2", args.lemma2),
                                    ("tuning", args.tuning)) if on]
    if not wanted:
        wanted = ["assumption1", "lemma1", "lemma2", "tuning"]
    failed = False
    for name in wanted:
        if name == "tuning":
            report = validate_tuning(system.agents, system.gains)
            print(report.summary())
            failed = failed or not report.passed
            continue
        checker = {"assumption1": check_assumption1, "lemma1": check_lemma1,
                   "lemma2": check_lemma2}[name]
        verdict = checker(system.ic, args.samples, rng_seed=args.seed)
        print(verdict.summary())
        failed = failed or not verdict.passed
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(args) -> int:
    scenario = build_scenario(ScenarioConfig.load(args.config))
    system = scenario.system
    verdicts = []
    rep = None
    if args.optimality or not args.stability:
        if system.gains.mode == DECENTRALIZED:
            rep = equilibria.find_equilibrium_decentralized(system)
            mode = "l1w"
        else:
            rep = equilibria.find_equilibrium_coordinating(system)
            if isinstance(rep, equilibria.NoEquilibrium):
                print(f"no equilibrium: {rep.message}", file=sys.stderr)
                return EXIT_FAIL
            mode = "linf"
        verdicts.append(equilibria.verify_optimality(
            system, rep, mode, n_samples=args.samples, seed=args.seed))
    if args.stability:
        verdicts.append(equilibria.verify_global_convergence(
            system, n_starts=args.starts, seed=args.seed, t_max=args.t_max,
            tol=args.tol, force=scenario.force, equilibrium=rep))
    for verdict in verdicts:
        print(verdict.report())
        if args.report_dir:
            out = Path(args.report_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"verdict_{verdict.name}.txt").write_text(
                verdict.report() + "\n", encoding="utf-8")
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_FAIL


def cmd_reproduce_dhn(args) -> int:
    """Run the shipped dhn_study_<mode>.cfg of each policy; the oracle
    policies take the decentralized one, whose loop they do not use."""
    policies = list(sim.POLICIES) if args.policy == "all" else [args.policy]
    out_dir = Path(args.out)
    artifacts = []
    for policy in policies:
        mode = policy if policy in (DECENTRALIZED, COORDINATING) else DECENTRALIZED
        cfg = ScenarioConfig.load(shipped_config_path(f"dhn_study_{mode}.cfg"))
        cfg.data["system"]["capacity_scale"] = args.capacity_scale
        cfg.data["sim"].update(t_span=[0.0, args.t_end], output_dt=args.output_dt)
        cfg.data["outputs"]["directory"] = args.out
        artifacts.append(sim.run_scenario(build_scenario(cfg, policy)))
    lines = ["policy,time,max_deviation,sum_deviation"]
    for arts in artifacts:
        for k, t in enumerate(arts.times):
            lines.append(f"{arts.policy},{t:.17g},"
                         f"{np.max(np.abs(arts.x[k])):.17g},"
                         f"{np.sum(np.abs(arts.x[k])):.17g}")
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = out_dir / "dhn_comparison.csv"
    comparison.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {}
    for arts in artifacts:
        for key, val in arts.summary.items():
            summary[f"{arts.policy}.{key}"] = val
    sim.write_summary(out_dir / "dhn_summary.txt", summary)
    for arts in artifacts:
        s = arts.summary
        cold = s.get("max_deviation_at_coldest")
        print(f"{arts.policy}: coldest-hour max deviation "
              f"{cold if cold is not None else float('nan'):.3f} K, "
              f"sum {s.get('sum_deviation_at_coldest', float('nan')):.3f} K "
              f"(CSV: {arts.csv_path})")
    print(f"comparison table: {comparison}")
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type of a time horizon or tolerance: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capnet",
        description="Anti-windup PI control of capacity-limited networks: "
                    "simulation, structural checks, and equilibrium verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario from a config file")
    p_sim.add_argument("config")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run structural property checkers")
    p_check.add_argument("config")
    p_check.add_argument("--assumption1", action="store_true")
    p_check.add_argument("--lemma1", action="store_true")
    p_check.add_argument("--lemma2", action="store_true")
    p_check.add_argument("--tuning", action="store_true")
    p_check.add_argument("--samples", type=positive_int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="equilibrium optimality/stability verification")
    p_verify.add_argument("config")
    p_verify.add_argument("--stability", action="store_true")
    p_verify.add_argument("--optimality", action="store_true")
    p_verify.add_argument("--samples", type=positive_int, default=1000)
    p_verify.add_argument("--starts", type=positive_int, default=20)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--t-max", type=positive_float, default=200.0)
    p_verify.add_argument("--tol", type=positive_float, default=1e-4)
    p_verify.add_argument("--report-dir", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dhn = sub.add_parser("reproduce-dhn", help="run the 22-consumer heating case study")
    p_dhn.add_argument("--policy", default="all",
                       choices=list(sim.POLICIES) + ["all"])
    p_dhn.add_argument("--capacity-scale", type=float,
                       default=hydraulics.CALIBRATED_CAPACITY_SCALE)
    p_dhn.add_argument("--out", default="dhn_out")
    p_dhn.add_argument("--t-end", type=float, default=96.0)
    p_dhn.add_argument("--output-dt", type=float, default=0.25)
    p_dhn.set_defaults(func=cmd_reproduce_dhn)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERROR_EXITS) as exc:
        code, prefix = next(v for k, v in ERROR_EXITS.items() if isinstance(exc, k))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
