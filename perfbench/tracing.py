"""Spans around the public functions of each capnet module, from outside.

A :class:`Tracer` replaces module and class attributes by timing wrappers
while it is active and puts the originals back afterwards, so the program
itself carries no tracing code and untraced runs pay nothing.  Spans are kept
in memory as ``[name, start, end, parent]`` and written out at the end.  A
span's self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from capnet import cli, control, equilibria, hydraulics, interconnect, sim

#: (span name, owner, attribute).  A function imported under several names is
#: listed once per name, so every call site lands in the same span.
TARGETS = (
    ("hydraulics.solve_flows", hydraulics, "solve_flows"),
    ("hydraulics.mass_residual", hydraulics.HydraulicNetwork, "mass_residual"),
    ("hydraulics.solve_flows_partial", hydraulics, "solve_flows_partial"),
    ("hydraulics.valve_positions_for_flows", hydraulics, "valve_positions_for_flows"),
    ("interconnect.eval", interconnect, "eval_interconnection"),
    ("interconnect.check_assumption1", interconnect, "check_assumption1"),
    ("interconnect.check_assumption1", cli, "check_assumption1"),
    ("interconnect.check_lemma1", interconnect, "check_lemma1"),
    ("interconnect.check_lemma1", cli, "check_lemma1"),
    ("interconnect.check_lemma2", interconnect, "check_lemma2"),
    ("interconnect.check_lemma2", cli, "check_lemma2"),
    ("control.field", control, "field"),
    ("control.field", sim, "loop_field"),
    ("control.field", equilibria, "loop_field"),
    ("control.monitor", control.DecentralizedMonitor, "value"),
    ("control.monitor", control.CoordinatingMonitor, "value"),
    ("sim.integrate", sim, "integrate"),
    ("sim.write_csv", sim, "write_trajectory_csv"),
    ("equilibria.fixed_point_dec", equilibria, "find_equilibrium_decentralized"),
    ("equilibria.fixed_point_coord", equilibria, "find_equilibrium_coordinating"),
    ("equilibria.alloc_l1", equilibria, "solve_l1_allocation"),
    ("equilibria.alloc_linf", equilibria, "solve_linf_allocation"),
    ("equilibria.oracle", equilibria, "oracle_weighted_l1"),
    ("equilibria.oracle", equilibria, "oracle_linf"),
    ("equilibria.global_convergence", equilibria, "verify_global_convergence"),
)

#: per-layer metrics of a traced run: (name, unit, better)
LAYER_METRICS = (
    ("hydraulics.solve_flows.calls", "count", "lower"),
    ("hydraulics.solve_flows.self_s", "s", "lower"),
    ("hydraulics.solve_flows.us_per_call", "us", "lower"),
    ("hydraulics.mass_residual.calls", "count", "lower"),
    ("hydraulics.mass_residual.self_s", "s", "lower"),
    ("hydraulics.newton_iterations_max", "count", "lower"),
    ("hydraulics.solve_flows_partial.calls", "count", "lower"),
    ("hydraulics.solve_flows_partial.self_s", "s", "lower"),
    ("hydraulics.valve_positions_for_flows.calls", "count", "lower"),
    ("hydraulics.valve_positions_for_flows.self_s", "s", "lower"),
    ("interconnect.eval.calls", "count", "lower"),
    ("interconnect.eval.self_s", "s", "lower"),
    ("interconnect.check_assumption1.s", "s", "lower"),
    ("interconnect.check_lemma1.s", "s", "lower"),
    ("interconnect.check_lemma2.s", "s", "lower"),
    ("interconnect.lemma2.qualifying_ratio", "ratio", "higher"),
    ("control.field.calls", "count", "lower"),
    ("control.field.self_s", "s", "lower"),
    ("control.monitor.calls", "count", "lower"),
    ("control.monitor.self_s", "s", "lower"),
    ("sim.integrate.self_s", "s", "lower"),
    ("sim.rk45.steps_accepted", "count", "lower"),
    ("sim.rk45.steps_rejected", "count", "lower"),
    ("sim.rk45.accept_ratio", "ratio", "higher"),
    ("sim.field_evals", "count", "lower"),
    ("sim.write_csv.s", "s", "lower"),
    ("equilibria.fixed_point_dec.iterations", "count", "lower"),
    ("equilibria.fixed_point_dec.s", "s", "lower"),
    ("equilibria.fixed_point_coord.iterations", "count", "lower"),
    ("equilibria.fixed_point_coord.s", "s", "lower"),
    ("equilibria.alloc_l1.calls", "count", "lower"),
    ("equilibria.alloc_l1.s", "s", "lower"),
    ("equilibria.alloc_linf.calls", "count", "lower"),
    ("equilibria.alloc_linf.s", "s", "lower"),
    ("equilibria.oracle.evaluations", "count", "lower"),
    ("equilibria.oracle.s", "s", "lower"),
    ("equilibria.global_convergence.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.build_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """In-memory span recorder plus the counts read off traced results."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.counts: dict = defaultdict(int)
        self.newton_iterations_max = 0
        self.wall_s = 0.0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                observe(self, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for name, owner, attr in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one per operation."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = time.perf_counter()

    def by_name(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[k]
        return out

    def layer_metrics(self, setup: dict, overhead_pct: float) -> dict:
        agg = self.by_name()

        def calls(name):
            return agg[name][0] if name in agg else 0

        def total(name):
            return agg[name][1] if name in agg else 0.0

        def self_s(name):
            return agg[name][2] if name in agg else 0.0

        solves = calls("hydraulics.solve_flows")
        accepted = self.counts["rk45.accepted"]
        rejected = self.counts["rk45.rejected"]
        values = {
            "hydraulics.solve_flows.calls": solves,
            "hydraulics.solve_flows.self_s": self_s("hydraulics.solve_flows"),
            "hydraulics.solve_flows.us_per_call":
                1e6 * self_s("hydraulics.solve_flows") / solves if solves else 0.0,
            "hydraulics.mass_residual.calls": calls("hydraulics.mass_residual"),
            "hydraulics.mass_residual.self_s": self_s("hydraulics.mass_residual"),
            "hydraulics.newton_iterations_max": self.newton_iterations_max,
            "hydraulics.solve_flows_partial.calls": calls("hydraulics.solve_flows_partial"),
            "hydraulics.solve_flows_partial.self_s": self_s("hydraulics.solve_flows_partial"),
            "hydraulics.valve_positions_for_flows.calls":
                calls("hydraulics.valve_positions_for_flows"),
            "hydraulics.valve_positions_for_flows.self_s":
                self_s("hydraulics.valve_positions_for_flows"),
            "interconnect.eval.calls": calls("interconnect.eval"),
            "interconnect.eval.self_s": self_s("interconnect.eval"),
            "interconnect.check_assumption1.s": total("interconnect.check_assumption1"),
            "interconnect.check_lemma1.s": total("interconnect.check_lemma1"),
            "interconnect.check_lemma2.s": total("interconnect.check_lemma2"),
            "interconnect.lemma2.qualifying_ratio":
                (self.counts["lemma2.qualifying"] / self.counts["lemma2.requested"]
                 if self.counts["lemma2.requested"] else 0.0),
            "control.field.calls": calls("control.field"),
            "control.field.self_s": self_s("control.field"),
            "control.monitor.calls": calls("control.monitor"),
            "control.monitor.self_s": self_s("control.monitor"),
            "sim.integrate.self_s": self_s("sim.integrate"),
            "sim.rk45.steps_accepted": accepted,
            "sim.rk45.steps_rejected": rejected,
            "sim.rk45.accept_ratio":
                accepted / (accepted + rejected) if accepted + rejected else 0.0,
            "sim.field_evals": self.counts["rk45.field_evals"],
            "sim.write_csv.s": total("sim.write_csv"),
            "equilibria.fixed_point_dec.iterations": self.counts["fixed_point_dec.iterations"],
            "equilibria.fixed_point_dec.s": total("equilibria.fixed_point_dec"),
            "equilibria.fixed_point_coord.iterations":
                self.counts["fixed_point_coord.iterations"],
            "equilibria.fixed_point_coord.s": total("equilibria.fixed_point_coord"),
            "equilibria.alloc_l1.calls": calls("equilibria.alloc_l1"),
            "equilibria.alloc_l1.s": total("equilibria.alloc_l1"),
            "equilibria.alloc_linf.calls": calls("equilibria.alloc_linf"),
            "equilibria.alloc_linf.s": total("equilibria.alloc_linf"),
            "equilibria.oracle.evaluations": self.counts["oracle.evaluations"],
            "equilibria.oracle.s": total("equilibria.oracle"),
            "equilibria.global_convergence.s": total("equilibria.global_convergence"),
            "cli.import_s": setup["import_s"],
            "cli.build_s": setup["build_s"],
            "trace.wall_s": self.wall_s,
            "trace.layer_share":
                sum(row[2] for name, row in agg.items() if not name.startswith("op."))
                / self.wall_s if self.wall_s else 0.0,
            "trace.overhead_pct": overhead_pct,
        }
        return values

    def ops_s(self) -> float:
        """Time inside the traced operations, with the host-speed chunks
        that ran inside them (they also land in the self times)."""
        return sum(end - start for name, start, end, _ in self.spans
                   if name.startswith("op."))

    def write(self, path: Path):
        """Spans as {"names": [...], "spans": [[name_index, start, end, parent]]},
        times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def _on_flow_solve(tracer, result):
    iterations = getattr(result, "iterations", None)  # FlowSolution when full_output
    if iterations is not None:
        tracer.newton_iterations_max = max(tracer.newton_iterations_max, iterations)


def _on_integrate(tracer, traj):
    tracer.counts["rk45.accepted"] += traj.stats.accepted
    tracer.counts["rk45.rejected"] += traj.stats.rejected
    tracer.counts["rk45.field_evals"] += traj.stats.n_field_evals


def _on_lemma2(tracer, verdict):
    tracer.counts["lemma2.qualifying"] += verdict.n_checked
    tracer.counts["lemma2.requested"] += verdict.n_requested


def _iterations_into(key):
    def observe(tracer, report):
        tracer.counts[key] += report.iterations
    return observe


def _on_oracle(tracer, result):
    tracer.counts["oracle.evaluations"] += result.n_evaluations


_OBSERVERS = {
    "hydraulics.solve_flows": _on_flow_solve,
    "sim.integrate": _on_integrate,
    "interconnect.check_lemma2": _on_lemma2,
    "equilibria.fixed_point_dec": _iterations_into("fixed_point_dec.iterations"),
    "equilibria.fixed_point_coord": _iterations_into("fixed_point_coord.iterations"),
    "equilibria.oracle": _on_oracle,
}
