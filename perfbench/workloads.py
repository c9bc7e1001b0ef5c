"""The benchmark's workloads: the operations a round times, and the checks.

Each workload is a list of operations run in order as one round, plus a
check per operation and one per round.  Checks run untimed, after the
operation, and compare its outputs with computations or properties made here
rather than by the program: a solve_ivp reference, a grid scan, a fresh
interconnection, the CSV contract, and the agreement of closed-loop
equilibria with the open-loop allocators.

A check reports ``problems`` (the output is wrong) apart from a
``known_fault``: an operation that hits a program fault named in the README
is counted as failed, while any other problem makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from capnet import cli, core, equilibria, hydraulics, interconnect
from capnet.control import ClosedLoopSystem

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "headline_reference.json"

#: the coldest-hour max deviation must match the solve_ivp reference to half
#: a unit of its third printed decimal [K]
HEADLINE_TOL_K = 5e-4
#: the DHN study writes 96 h at 0.25 h, both ends included
STUDY_ROWS = 385
DHN_N = 22
#: outdoor temperature of the coldest hour, where dhn-certify works [degC]
T_COLD = -26.5
#: pairs per structural checker on the DHN
DHN_CHECK_SAMPLES = 100
#: spacing of the linear case's grid scan over the valve box
GRID_SPACING = 1e-3


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    known_fault: Optional[str] = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def run_cli(argv) -> dict:
    """``capnet <argv>`` in this process, with its standard output kept."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return {"rc": rc, "stdout": buf.getvalue()}


def read_summary(path: Path) -> dict:
    pairs = (line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {k: v for k, v in pairs}


def csv_problems(data: bytes, n: int, rows: int, t_end: float) -> tuple:
    """Problems with a trajectory CSV against its contract, and its values.

    Contract: header t,x1..xn,u1..un,v1..vn,V; one row per output time;
    floats written with 17 significant digits; UTF-8 with LF endings; V empty
    here (no monitor runs under a time-varying disturbance); v = clip(u).
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["CSV is not UTF-8"], None
    if "\r" in text or not text.endswith("\n"):
        return ["CSV line endings are not LF"], None
    lines = text[:-1].split("\n")
    header = (["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"u{i}" for i in range(1, n + 1)]
              + [f"v{i}" for i in range(1, n + 1)] + ["V"])
    problems = []
    if lines[0] != ",".join(header):
        problems.append("CSV header differs from the contract")
    if len(lines) - 1 != rows:
        problems.append(f"CSV has {len(lines) - 1} rows, expected {rows}")
    table = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header) or cells[-1] != "":
            return problems + [f"CSV row {k} has the wrong cells"], None
        if any(f"{float(c):.17g}" != c for c in cells[:-1]):
            return problems + [f"CSV row {k} is not written with 17 significant digits"], None
        table.append([float(c) for c in cells[:-1]])
    values = np.array(table)
    t = values[:, 0]
    u = values[:, 1 + n:1 + 2 * n]
    v = values[:, 1 + 2 * n:1 + 3 * n]
    if not np.allclose(t, np.linspace(0.0, t_end, rows), rtol=0.0, atol=1e-9):
        problems.append("CSV times are not the output grid")
    if np.any(v < -1.0) or np.any(v > 1.0):
        problems.append("applied input v leaves [-1, 1]")
    if not np.array_equal(v, np.clip(u, -1.0, 1.0)):
        problems.append("applied input v differs from clip(u)")
    return problems, values


def l1w_cost(a, x):
    """Weighted-L1 cost with eta = 1 (the DHN weight), row-wise."""
    return np.sum(a * np.abs(x), axis=-1)


# ---------------------------------------------------------------------------


class DhnClosedLoop:
    """The 96-hour, 22-consumer study, one PI policy at a time."""

    name = "dhn-closed-loop"
    setup_kind = "dhn"
    policies = (core.DECENTRALIZED, core.COORDINATING)

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        order = np.random.default_rng(seed).permutation(len(self.policies))
        self.ops = [Op(f"reproduce-dhn.{self.policies[k]}",
                       partial(self._run, self.policies[k]),
                       partial(self._check, self.policies[k])) for k in order]
        self._digests = {}

    def _run(self, policy):
        out = self.out_dir / policy
        return dict(run_cli(["reproduce-dhn", "--policy", policy, "--out", out]), dir=out)

    def _check(self, policy, res) -> Outcome:
        if res["rc"] != 0:
            return Outcome([f"reproduce-dhn exited {res['rc']}"])
        summary = read_summary(res["dir"] / f"dhn_{policy}_summary.txt")
        res["summary"] = summary
        data = (res["dir"] / f"dhn_{policy}.csv").read_bytes()
        problems, _ = csv_problems(data, DHN_N, STUDY_ROWS, 96.0)
        digest = hashlib.sha256(data).hexdigest()
        if self._digests.setdefault(policy, digest) != digest:
            problems.append("CSV differs from the first repetition in this run")
        if not float(summary["max_mass_residual"]) < 1e-8:
            problems.append(f"mass residual {summary['max_mass_residual']} >= 1e-8")
        if float(summary["coldest_time"]) != self.reference["coldest_time"]:
            problems.append(f"coldest sample at {summary['coldest_time']} h, "
                            f"reference {self.reference['coldest_time']} h")
        headline = float(summary["max_deviation_at_coldest"])
        expected = self.reference["policies"][policy]["max_deviation_at_coldest"]
        known = None
        if abs(headline - expected) > HEADLINE_TOL_K:
            known = (f"{policy} coldest-hour max deviation {headline:.5f} K is "
                     f"{abs(headline - expected):.5f} K off the reference {expected:.5f} K")
        return Outcome(problems, known)

    def check_round(self, results: dict) -> list:
        try:
            dec = results[f"reproduce-dhn.{core.DECENTRALIZED}"]["summary"]
            coord = results[f"reproduce-dhn.{core.COORDINATING}"]["summary"]
        except KeyError:
            return []  # an operation failed; its own check already says so
        problems = []
        if not (float(coord["max_deviation_at_coldest"])
                < float(dec["max_deviation_at_coldest"])):
            problems.append("coordinating max deviation is not below the decentralized "
                            "one at the coldest sample")
        if not (float(dec["sum_deviation_at_coldest"])
                <= float(coord["sum_deviation_at_coldest"])):
            problems.append("decentralized sum deviation exceeds the coordinating one "
                            "at the coldest sample")
        return problems


class DhnCertify:
    """Checkers, both fixed points and both allocators on the calibrated DHN,
    plus the oracle-policy re-solves over the 96-hour profile."""

    name = "dhn-certify"
    setup_kind = "dhn"

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.bld = hydraulics.BuildingParams()
        self.agents = core.AgentEnsemble(a=self.bld.rates(DHN_N),
                                         w=self.bld.disturbance(DHN_N, T_COLD))
        self.ops = [
            Op("check_assumption1", partial(self._checker, "check_assumption1"),
               self._check_verdict),
            Op("check_lemma1", partial(self._checker, "check_lemma1"), self._check_verdict),
            Op("check_lemma2", partial(self._checker, "check_lemma2"), self._check_verdict),
            Op("fixed_point_dec", self._fixed_point_dec, self._check_equilibrium),
            Op("fixed_point_coord", self._fixed_point_coord, self._check_equilibrium),
            Op("alloc_l1", partial(self._alloc, "solve_l1_allocation"), self._check_alloc),
            Op("alloc_linf", partial(self._alloc, "solve_linf_allocation"), self._check_alloc),
            Op("oracle-l1", partial(self._oracle_policy, "oracle-l1"),
               partial(self._check_oracle_policy, "oracle-l1")),
            Op("oracle-linf", partial(self._oracle_policy, "oracle-linf"),
               partial(self._check_oracle_policy, "oracle-linf")),
        ]

    # every operation builds its own interconnection, so no solver warm start
    # carries from one round into the next and rounds repeat exactly
    def _ic(self):
        net = hydraulics.build_dhn_network(hydraulics.CALIBRATED_CAPACITY_SCALE)
        return hydraulics.dhn_interconnection(net, self.bld)

    def _system(self, mode):
        n = DHN_N
        if mode == core.DECENTRALIZED:
            gains = core.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.4),
                                         mode=mode, kA=np.full(n, 0.9))
        else:
            gains = core.ControllerGains(kP=np.ones(n), kI=np.full(n, 0.4),
                                         mode=mode, kC=0.9 * 2 / n, alpha=0.5)
        ic = self._ic()
        return ClosedLoopSystem(agents=self.agents, ic=ic, gains=gains, bounds=ic.bounds)

    def _checker(self, name):
        return getattr(interconnect, name)(self._ic(), DHN_CHECK_SAMPLES, rng_seed=self.seed)

    def _fixed_point_dec(self):
        return equilibria.find_equilibrium_decentralized(self._system(core.DECENTRALIZED))

    def _fixed_point_coord(self):
        return equilibria.find_equilibrium_coordinating(self._system(core.COORDINATING))

    def _alloc(self, name):
        return getattr(equilibria, name)(self._ic(), self.agents)

    def _oracle_policy(self, policy):
        out = self.out_dir / policy
        return dict(run_cli(["reproduce-dhn", "--policy", policy, "--out", out]), dir=out)

    @staticmethod
    def _check_verdict(verdict) -> Outcome:
        return Outcome([] if verdict.passed else [verdict.summary()])

    @staticmethod
    def _check_equilibrium(report) -> Outcome:
        if isinstance(report, equilibria.NoEquilibrium):
            return Outcome(known_fault=f"no coordinating equilibrium: {report.message} "
                                       f"after {report.iterations} iterations")
        if not report.residual < 1e-8:
            return Outcome([f"{report.mode} equilibrium residual {report.residual:.3e}"])
        return Outcome()

    def _check_alloc(self, res) -> Outcome:
        """The allocation's errors and cost, recomputed on a fresh network."""
        problems = []
        if np.any(res.v < -1.0) or np.any(res.v > 1.0):
            problems.append("allocation leaves the valve box")
        x = (self._ic()(res.v) + self.agents.w) / self.agents.a
        if not np.allclose(x, res.x, rtol=0.0, atol=1e-8):
            problems.append("allocation errors do not follow from its valves")
        return Outcome(problems)

    def _check_oracle_policy(self, policy, res) -> Outcome:
        if res["rc"] != 0:
            return Outcome([f"reproduce-dhn --policy {policy} exited {res['rc']}"])
        problems, values = csv_problems((res["dir"] / f"dhn_{policy}.csv").read_bytes(),
                                        DHN_N, STUDY_ROWS, 96.0)
        if values is not None:
            res["x"] = values[:, 1:1 + DHN_N]
            res["v"] = values[:, 1 + 2 * DHN_N:1 + 3 * DHN_N]
        return Outcome(problems)

    def check_round(self, results: dict) -> list:
        problems = []
        a = self.agents.a
        dec, coord = results.get("fixed_point_dec"), results.get("fixed_point_coord")
        l1, linf = results.get("alloc_l1"), results.get("alloc_linf")
        if l1 is None or linf is None:
            return problems
        tol = 1e-7 * (1.0 + l1.cost)
        if isinstance(dec, equilibria.EquilibriumReport) and abs(dec.cost_l1w - l1.cost) > tol:
            problems.append(f"decentralized equilibrium cost {dec.cost_l1w!r} differs from "
                            f"the L1 allocation's {l1.cost!r}")
        if isinstance(coord, equilibria.EquilibriumReport):
            if np.ptp(coord.x0) > 1e-6 * (1.0 + np.max(np.abs(coord.x0))):
                problems.append("coordinating equilibrium errors are not equal")
            if abs(coord.cost_linf - linf.cost) > 1e-7 * (1.0 + linf.cost):
                problems.append(f"coordinating equilibrium cost {coord.cost_linf!r} differs "
                                f"from the Linf allocation's {linf.cost!r}")
        if l1w_cost(a, l1.x) > l1w_cost(a, linf.x) + tol:
            problems.append("the L1 allocation costs more than the Linf one in weighted L1")
        if np.max(np.abs(linf.x)) > np.max(np.abs(l1.x)) + 1e-7:
            problems.append("the Linf allocation costs more than the L1 one in max error")
        p_l1, p_linf = results.get("oracle-l1", {}), results.get("oracle-linf", {})
        if "x" in p_l1 and "x" in p_linf:
            x1, v1, xi = p_l1["x"], p_l1["v"], p_linf["x"]
            deficit = x1 < -1e-6
            if np.any(deficit & (v1 < 1.0 - 1e-9)):
                problems.append("oracle-l1: an agent in deficit does not have its valve "
                                "fully open")
            if np.any(l1w_cost(a, x1) > l1w_cost(a, xi) + 1e-7 * (1.0 + l1w_cost(a, xi))):
                problems.append("oracle-l1 costs more than oracle-linf in weighted L1")
            if np.any(np.max(np.abs(xi), axis=1) > np.max(np.abs(x1), axis=1) + 1e-7):
                problems.append("oracle-linf costs more than oracle-l1 in max error")
        return problems


class LinearCertify:
    """The shipped 2-agent M-matrix configs: check and verify both loops, and
    the checkers on a positive coupling they must reject."""

    name = "linear-certify"
    setup_kind = "linear"
    modes = (core.DECENTRALIZED, core.COORDINATING)
    positive_coupling = [[1.0, 0.25], [-0.25, 1.0]]

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.configs = {m: cli.shipped_config_path(f"linear2_{m}.cfg") for m in self.modes}
        data = json.loads(self.configs[core.DECENTRALIZED].read_text(encoding="utf-8"))
        self.grid_min = grid_scan(data)
        data["system"]["B"] = self.positive_coupling
        out_dir.mkdir(parents=True, exist_ok=True)
        self.bad_config = out_dir / "linear2_positive_coupling.cfg"
        self.bad_config.write_text(cli.serialize_config(data), encoding="utf-8")
        seed_arg = ["--seed", seed]
        self.ops = [Op(f"check.{m}", partial(run_cli, ["check", self.configs[m]] + seed_arg),
                       self._check_passes) for m in self.modes]
        self.ops.append(Op("check.positive-coupling",
                           partial(run_cli, ["check", self.bad_config, "--assumption1",
                                             "--lemma1", "--lemma2"] + seed_arg),
                           self._check_rejects))
        self.ops += [Op(f"verify.{m}",
                        partial(run_cli, ["verify", self.configs[m], "--optimality",
                                          "--stability"] + seed_arg),
                        partial(self._check_verify, m)) for m in self.modes]

    @staticmethod
    def _check_passes(res) -> Outcome:
        if res["rc"] != 0 or "FAIL" in res["stdout"] or "INCONCLUSIVE" in res["stdout"]:
            return Outcome([f"check exited {res['rc']}:\n{res['stdout']}"])
        return Outcome()

    @staticmethod
    def _check_rejects(res) -> Outcome:
        if res["rc"] != 1 or "assumption1: FAIL" not in res["stdout"]:
            return Outcome(["the checkers accept the positive coupling "
                            f"(exit {res['rc']})"])
        return Outcome()

    def _check_verify(self, mode, res) -> Outcome:
        verdicts = parse_verdicts(res["stdout"])
        problems = []
        if res["rc"] != 0 or len(verdicts) != 2 or not all(
                v.get("passed") == "True" for v in verdicts):
            problems.append(f"verify exited {res['rc']}:\n{res['stdout']}")
        optimality = [v for v in verdicts if v.get("verdict") == "optimality"]
        if optimality:
            cost = float(optimality[0]["closed_loop_cost"])
            best = self.grid_min[mode]
            # no grid point beats the equilibrium, and it lies within the grid's
            # resolution of the best grid point
            if cost > best + 1e-9 or best - cost > GRID_SPACING:
                problems.append(f"{mode} equilibrium cost {cost!r} does not match the "
                                f"grid scan's {best!r}")
        return Outcome(problems)

    def check_round(self, results: dict) -> list:
        return []


def parse_verdicts(text: str) -> list:
    """The key=value blocks that ``capnet verify`` prints, one per verdict."""
    blocks, cur = [], None
    for line in text.splitlines():
        if line.startswith("verdict="):
            cur = {}
            blocks.append(cur)
        if cur is not None and "=" in line and not line.startswith("#"):
            key, val = line.split("=", 1)
            cur[key] = val
    return blocks


def grid_scan(config: dict) -> dict:
    """Lowest weighted-L1 and max-error costs of a 2-agent linear config over
    a grid of the valve box, computed row by row to keep memory small."""
    B = np.asarray(config["system"]["B"], dtype=float)
    eta = np.asarray(config["system"].get("eta", [1.0, 1.0]), dtype=float)
    a = np.asarray(config["agents"]["a"], dtype=float)
    w = np.asarray(config["agents"]["w"], dtype=float)
    lo = np.asarray(config["system"]["bounds"]["lower"], dtype=float)
    hi = np.asarray(config["system"]["bounds"]["upper"], dtype=float)
    axes = [np.linspace(lo[i], hi[i], int(round((hi[i] - lo[i]) / GRID_SPACING)) + 1)
            for i in range(2)]
    best_l1 = best_linf = np.inf
    for v1 in axes[0]:
        x = (np.outer(axes[1], B[:, 1]) + B[:, 0] * v1 + w) / a
        best_l1 = min(best_l1, float(np.min(np.abs(x) @ (eta * a))))
        best_linf = min(best_linf, float(np.min(np.max(np.abs(x), axis=1))))
    return {core.DECENTRALIZED: best_l1, core.COORDINATING: best_linf}


WORKLOADS = {w.name: w for w in (DhnClosedLoop, DhnCertify, LinearCertify)}
