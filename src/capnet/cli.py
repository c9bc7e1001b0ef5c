"""Command-line interface: simulate, check, verify, reproduce-dhn.

Configuration files are JSON with a versioned schema; each section is
checked for unknown and missing keys so typos in scientific configs fail
loudly.  Exit codes: 0 success, 1 counterexample/verdict failure, 2
configuration, tuning or output-path error, 3 solver error; ``main`` maps
each error to its code through ``ERROR_EXITS``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import equilibria, hydraulics, sim
from .control import ClosedLoopSystem
from .core import (COORDINATING, DECENTRALIZED, AgentEnsemble, ControllerGains,
                   SaturationBounds, validate_tuning)
from .errors import (AllocationError, CapnetError, ConfigError, EquilibriumError,
                     FlowSolverError, IntegrationError, TuningError,
                     VaryingDisturbanceError, strict_object)
from .interconnect import LinearMMatrix, check_assumption1, check_lemma1, check_lemma2, \
    linear_interconnection

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

#: exit code and stderr prefix of each error a subcommand may raise
ERROR_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    TuningError: (EXIT_CONFIG, "tuning error"),
    VaryingDisturbanceError: (EXIT_CONFIG, "config error"),
    FlowSolverError: (EXIT_SOLVER, "solver error"),
    IntegrationError: (EXIT_SOLVER, "solver error"),
    EquilibriumError: (EXIT_SOLVER, "solver error"),
    AllocationError: (EXIT_SOLVER, "solver error"),
    OSError: (EXIT_CONFIG, "output error"),  # unreadable configs raise ConfigError
}

SCHEMA_VERSION = 1


#: (allowed, required) keys of the system section, by system type
SYSTEM_KEYS = {
    "linear": ({"type", "B", "eta", "bounds"}, {"type", "B", "bounds"}),
    "dhn": ({"type", "network", "building", "capacity_scale"}, {"type", "network"}),
}
#: (allowed, required) keys of the controller section, by mode: the
#: decentralized loop's per-agent anti-windup gain kA, or the coordinating
#: loop's shared gain kC and its ratio alpha
CONTROLLER_KEYS = {
    DECENTRALIZED: ({"mode", "kP", "kI", "kA", "force"}, {"mode", "kP", "kI", "kA"}),
    COORDINATING: ({"mode", "kP", "kI", "kC", "alpha", "force"},
                   {"mode", "kP", "kI", "kC", "alpha"}),
}


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
    validate_config(data)
    return data


def serialize_config(data: dict) -> str:
    """Canonical form; parse(serialize(parse(x))) == parse(x)."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _variant(section, where: str, key: str, variants: dict) -> str:
    """Check the object ``section`` against the (allowed, required) keys of
    the variant its ``key`` names; returns that name."""
    name = section.get(key) if isinstance(section, dict) else None
    if isinstance(section, dict) and name not in tuple(variants):
        raise ConfigError(f"{where}: {key} must be {' or '.join(map(repr, variants))}, "
                          f"got {name!r}")
    strict_object(section, where, *variants.get(name, ((), ())))
    return name


def validate_config(data: dict):
    """Check every section of a scenario config for a non-object and for
    unknown and missing keys; the keys a section takes follow the system
    type and the controller mode.  ``schema_version`` must be the integer 1,
    ``controller.force``, when given, a boolean, and ``outputs.prefix``, the
    stem of every output file's name, a name: no path separator ("/" or
    "\\") or NUL, and not empty, "." or "..".  Raises ConfigError naming the
    section."""
    strict_object(data, "config", {"schema_version", "system", "agents", "controller",
                                   "sim", "outputs"},
                  {"schema_version", "system", "agents", "controller"})
    # type first: true == 1 and 1.0 == 1 in Python
    if type(data["schema_version"]) is not int or data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data['schema_version']!r}")
    system, agents = data["system"], data["agents"]
    if _variant(system, "system", "type", SYSTEM_KEYS) == "linear":
        strict_object(system["bounds"], "system.bounds", {"lower", "upper"}, {"lower", "upper"})
        strict_object(agents, "agents", {"a", "w"}, {"a", "w"})
    else:
        strict_object(system.get("building", {}), "system.building",
                      {f.name for f in fields(hydraulics.BuildingParams)})
        strict_object(agents, "agents", {"a", "w", "temperature_profile"})
        if ("w" in agents) == ("temperature_profile" in agents):
            raise ConfigError("agents: dhn systems take exactly one of 'w' and "
                              "'temperature_profile'")
        profile = agents.get("temperature_profile", "builtin")
        if profile != "builtin":
            strict_object(profile, "agents.temperature_profile", {"times", "values"},
                          {"times", "values"})
            values = profile["values"]
            if not isinstance(values, list) or any(isinstance(v, (list, dict)) for v in values):
                raise ConfigError("agents.temperature_profile: values must be one number per "
                                  "time; the outdoor temperature is one series")
    _variant(data["controller"], "controller", "mode", CONTROLLER_KEYS)
    force = data["controller"].get("force", False)
    if not isinstance(force, bool):
        raise ConfigError(f"controller.force: expected true or false, got {force!r}")
    strict_object(data.get("sim", {}), "sim",
                  {"t_span", "atol", "rtol", "output_dt", "method", "dt_max"})
    outputs = data.get("outputs", {})
    strict_object(outputs, "outputs", {"directory", "prefix"})
    prefix = outputs.get("prefix", "run")
    if not (isinstance(prefix, str) and prefix not in ("", ".", "..")
            and not set(prefix) & set("/\\\0")):
        raise ConfigError("outputs: prefix must be a file-name stem, with no '/', '\\' or "
                          f"NUL and not '', '.' or '..'; got {prefix!r}")


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
    system_cfg, agents_cfg, ctrl = data["system"], data["agents"], data["controller"]
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
                ic = linear_interconnection(B, np.ones(n) if eta is None else eta, bounds)
        with _section("agents"):
            agents = AgentEnsemble(a=_vector_or_scalar(agents_cfg["a"], n, "agents.a"),
                                   w=agents_cfg["w"])
    else:
        with _section("system.capacity_scale"):
            capacity_scale = float(system_cfg.get("capacity_scale", 1.0))
        net = _resolve_network(system_cfg["network"], cfg.base_dir, capacity_scale)
        with _section("system.building"):
            bld = hydraulics.BuildingParams(**system_cfg.get("building", {}))
        n = net.n_consumers
        bounds = SaturationBounds.symmetric(1.0, n)
        ic = hydraulics.dhn_interconnection(net, bld)
        with _section("agents"):
            a = (_vector_or_scalar(agents_cfg["a"], n, "agents.a") if "a" in agents_cfg
                 else bld.rates(n))
            if "temperature_profile" in agents_cfg:
                ref = agents_cfg["temperature_profile"]
                temperature = (sim.make_temperature_profile() if ref == "builtin" else
                               sim.DisturbanceProfile.piecewise(ref["times"], ref["values"]))
                w = temperature.with_thermal_map(a, bld.T_ref)
            else:
                w = agents_cfg["w"]
            agents = AgentEnsemble(a=a, w=w)

    with _section("controller"):
        # the gains of the config's mode: kC and alpha are shared scalars
        gains = {key: float(ctrl[key]) if key in ("kC", "alpha")
                 else _vector_or_scalar(ctrl[key], n, f"controller.{key}")
                 for key in ("kP", "kI", "kA", "kC", "alpha") if key in ctrl}
        system = ClosedLoopSystem(agents=agents, ic=ic, bounds=bounds,
                                  gains=ControllerGains(mode=ctrl["mode"], **gains))

    # the settings the sim section gives, over SolverOptions' defaults; a
    # config samples every 0.25 h unless it says otherwise
    sim_cfg = {"output_dt": 0.25, **data.get("sim", {})}
    t_span = _time_span(sim_cfg.pop("t_span", (0.0, 96.0)))
    with _section("sim"):
        opts = sim.SolverOptions(**{key: float(val) if key in ("atol", "rtol") else val
                                    for key, val in sim_cfg.items()})
        if opts.output_dt is not None:
            sim._output_grid(*t_span, opts.output_dt)  # a grid past its budget fails here
    out_cfg = data.get("outputs", {})
    out_dir = out_cfg.get("directory")
    if out_dir is not None:
        out_dir = Path(out_dir)  # relative paths resolve against the CWD
    return sim.Scenario(
        policy=policy or ctrl["mode"], system=system, t_span=t_span, opts=opts,
        force=ctrl.get("force", False), out_dir=out_dir, prefix=out_cfg.get("prefix", "run"))


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
    checkers = {"assumption1": check_assumption1, "lemma1": check_lemma1,
                "lemma2": check_lemma2, "tuning": None}
    failed = False
    # the checks asked for, or all of them, in this order
    for name in [name for name in checkers if getattr(args, name)] or checkers:
        if name == "tuning":
            report = validate_tuning(system.agents, system.gains)
            print(report.summary())
            failed = failed or not report.passed
            continue
        verdict = checkers[name](system.ic, args.samples, rng_seed=args.seed)
        print(verdict.summary())
        failed = failed or not verdict.passed
    return EXIT_FAIL if failed else EXIT_OK


def cmd_verify(args) -> int:
    scenario = build_scenario(ScenarioConfig.load(args.config))
    system = scenario.system
    system.agents.constant_w("verify")
    if args.report_dir:
        Path(args.report_dir).mkdir(parents=True, exist_ok=True)
    verdicts = []
    rep = None
    if args.optimality or not args.stability:
        rep = equilibria.find_equilibrium(system)
        if isinstance(rep, equilibria.NoEquilibrium):
            print(f"no equilibrium: {rep.message}", file=sys.stderr)
            return EXIT_FAIL
        verdicts.append(equilibria.verify_optimality(
            system, rep, n_samples=args.samples, seed=args.seed))
    if args.stability:
        verdicts.append(equilibria.verify_global_convergence(
            system, n_starts=args.starts, seed=args.seed, t_max=args.t_max,
            tol=args.tol, force=scenario.force, equilibrium=rep))
    for verdict in verdicts:
        print(verdict.report())
        if args.report_dir:
            (Path(args.report_dir) / f"verdict_{verdict.name}.txt").write_text(
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
        if args.capacity_scale is not None:
            cfg.data["system"]["capacity_scale"] = args.capacity_scale
        if args.t_end is not None:
            cfg.data["sim"]["t_span"] = [0.0, args.t_end]
        if args.output_dt is not None:
            cfg.data["sim"]["output_dt"] = args.output_dt
        cfg.data["outputs"]["directory"] = args.out
        artifacts.append(sim.run_scenario(build_scenario(cfg, policy)))
    lines = ["policy,time,max_deviation,sum_deviation"]
    for arts in artifacts:
        dev = np.abs(arts.x)
        lines += [f"{arts.policy},{t:.17g},{most:.17g},{total:.17g}" for t, most, total in
                  zip(arts.times.tolist(), dev.max(axis=1).tolist(), dev.sum(axis=1).tolist())]
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


def seed_int(text: str) -> int:
    """argparse type of a random seed: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
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
    p_check.add_argument("--seed", type=seed_int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="equilibrium optimality/stability verification")
    p_verify.add_argument("config")
    p_verify.add_argument("--stability", action="store_true")
    p_verify.add_argument("--optimality", action="store_true")
    p_verify.add_argument("--samples", type=positive_int, default=1000)
    p_verify.add_argument("--starts", type=positive_int, default=20)
    p_verify.add_argument("--seed", type=seed_int, default=0)
    p_verify.add_argument("--t-max", type=positive_float, default=200.0)
    p_verify.add_argument("--tol", type=positive_float, default=1e-4)
    p_verify.add_argument("--report-dir", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dhn = sub.add_parser("reproduce-dhn", help="run the 22-consumer heating case study")
    p_dhn.add_argument("--policy", default="all",
                       choices=list(sim.POLICIES) + ["all"])
    # each flag left out keeps the shipped study config's value
    p_dhn.add_argument("--capacity-scale", type=float)
    p_dhn.add_argument("--out", default="dhn_out")
    p_dhn.add_argument("--t-end", type=float)
    p_dhn.add_argument("--output-dt", type=float)
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
