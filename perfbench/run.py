"""Benchmark of capnet's simulate-and-certify pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in ``workloads.py`` and
described in ``README.md``.  A run first times the set-up a user pays (fresh
interpreters importing ``capnet.cli`` and building a scenario), then repeats
whole rounds of the workload's operations in this one process for as close
to ``--seconds`` as whole rounds allow, checking every output untimed.  Every
timing is scaled to a nominal host speed by ``hostspeed.py``, because the
shared host's speed drifts within seconds.  With
``--trace 1`` it alternates untraced rounds with rounds traced by
``tracing.py`` and reports per-layer figures instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS thread: the host has two cores and each policy runs alone
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Sampler, edge_chunks, scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 5
#: workload -> what the set-up probe builds
SETUP_KIND = {"dhn-closed-loop": "dhn", "dhn-certify": "dhn", "linear-certify": "linear"}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def measure_setup(kind: str) -> dict:
    """Median scaled wall time of fresh interpreters importing and building."""
    walls, imports, builds = [], [], []
    chunks = edge_chunks()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), kind],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        after = edge_chunks()
        wall, chunks = scale(elapsed, chunks + after), after
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        inner = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(inner["import_s"])
        builds.append(inner["build_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "build_s": statistics.median(builds)}


class Tally:
    """Operation counts and per-operation scaled durations over the rounds
    of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.times = defaultdict(list)

    def median_round_s(self) -> float:
        """One round with every operation at its median scaled duration."""
        return sum(statistics.median(ts) for ts in self.times.values())


def traced_op(tracer, op):
    with tracer.active(), tracer.span("op." + op.name):
        return op.run()


def run_round(wl, tally: Tally, sampler: Sampler, tracer=None):
    """One round of the workload."""
    results = {}
    for op in wl.ops:
        gc.collect()
        try:
            res, scaled_s = sampler.time(
                op.run if tracer is None else partial(traced_op, tracer, op))
        except Exception as exc:  # an operation that raises is a wrong output
            tally.attempted += 1
            tally.problems.append(f"{op.name} raised {type(exc).__name__}: {exc}")
            continue
        tally.times[op.name].append(scaled_s)
        tally.attempted += 1
        outcome = op.check(res)
        results[op.name] = res
        tally.problems += [f"{op.name}: {p}" for p in outcome.problems]
        if outcome.known_fault is not None:
            tally.failed += 1
            log(f"known fault in {op.name}: {outcome.known_fault}")
    tally.problems += wl.check_round(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capnet" / "__init__.py").is_file():
        log(f"no capnet sources under {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import LAYER_METRICS, Tracer  # noqa: E402  (need capnet on the path)
    from workloads import WORKLOADS  # noqa: E402

    started = time.perf_counter()
    deadline = started + args.seconds
    setup = measure_setup(SETUP_KIND[args.workload])
    wl = WORKLOADS[args.workload](args.seed, OUT / args.workload)

    plain, traced = Tally(), Tally()
    sampler = Sampler()
    best_tracer, shortest = None, float("inf")
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if args.trace == 1 and rounds % 2 == 1:
            tracer = Tracer()
            run_round(wl, traced, sampler, tracer)
            tracer.wall_s = tracer.ops_s()
            if best_tracer is None or tracer.wall_s < best_tracer.wall_s:
                best_tracer = tracer
        else:
            run_round(wl, plain, sampler)
        rounds += 1
        shortest = min(shortest, time.perf_counter() - round_start)
        must_trace = args.trace == 1 and best_tracer is None
        # one more round only if that ends the run nearer the deadline
        if not must_trace and deadline - time.perf_counter() < shortest / 2:
            break
    log(f"{args.workload}: {rounds} rounds, scaled operation medians "
        + ", ".join(f"{k}={statistics.median(v):.3f}s" for k, v in plain.times.items()))

    problems = plain.problems + traced.problems
    for p in problems:
        log(f"INCORRECT {p}")
    if args.trace == 0:
        metrics = {
            "wall_s": (plain.median_round_s(), "s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_MB": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        overhead = 100.0 * (traced.median_round_s() / plain.median_round_s() - 1.0)
        values = best_tracer.layer_metrics(setup, overhead)
        metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
        best_tracer.write(OUT / f"trace_{args.workload}.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
