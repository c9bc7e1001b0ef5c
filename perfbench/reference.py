"""Independent reference for the coldest-hour headline of the DHN study.

Integrates both PI loops of the 22-consumer, 96-hour district-heating study
with ``scipy.integrate.solve_ivp`` (DOP853) at two tight tolerances, directly
on ``capnet.control.field``.  Nothing of ``capnet.sim`` runs: the outdoor
temperature is interpolated here, the integration restarts at every profile
breakpoint, and the state at the coldest sample (t = 51 h, -26.5 degC) is
read off the solver.  Only the published breakpoint data is taken from the
package, so the reference studies the same input as the program.

Run from the repository root:

    python3 perfbench/reference.py

It writes ``perfbench/headline_reference.json``, which the ``dhn-closed-loop``
workload of ``perfbench/run.py`` checks against.  It exits 1 without writing
when the two tolerances disagree by more than ``AGREEMENT_K``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

from capnet import control, core, hydraulics  # noqa: E402
from capnet.sim import TEMPERATURE_TIMES, TEMPERATURE_VALUES  # noqa: E402  (data only)

OUT = Path(__file__).resolve().parent / "headline_reference.json"
#: (rtol, atol) pairs; the finer one is the reference of record
TOLERANCES = ((1e-8, 1e-10), (1e-10, 1e-12))
#: the two tolerances must agree this closely on every headline number [K]
AGREEMENT_K = 1e-4


class _OutdoorDisturbance:
    """w(t) = a * (T_o(t) - T_ref) with T_o interpolated linearly."""

    def __init__(self, a, T_ref):
        self.a = np.asarray(a, dtype=float)
        self.T_ref = np.asarray(T_ref, dtype=float)

    def eval(self, t):
        return self.a * (float(np.interp(t, TEMPERATURE_TIMES, TEMPERATURE_VALUES))
                         - self.T_ref)


def study_system(policy: str) -> control.ClosedLoopSystem:
    """The closed loop that ``capnet reproduce-dhn --policy <policy>`` runs."""
    net = hydraulics.build_dhn_network(hydraulics.CALIBRATED_CAPACITY_SCALE)
    bld = hydraulics.BuildingParams()
    n = net.n_consumers
    a = bld.rates(n)
    agents = core.AgentEnsemble(
        a=a, w=_OutdoorDisturbance(a, np.broadcast_to(bld.T_ref, (n,))))
    if policy == core.DECENTRALIZED:
        gains = core.ControllerGains(kP=np.ones(n), kI=np.ones(n),
                                     mode=core.DECENTRALIZED, kA=np.ones(n))
    else:
        gains = core.ControllerGains(kP=np.ones(n), kI=np.ones(n),
                                     mode=core.COORDINATING, kC=0.5, alpha=1.0)
    return control.ClosedLoopSystem(agents=agents,
                                    ic=hydraulics.dhn_interconnection(net, bld),
                                    gains=gains,
                                    bounds=core.SaturationBounds.symmetric(1.0, n))


def coldest_time() -> float:
    return float(TEMPERATURE_TIMES[int(np.argmin(TEMPERATURE_VALUES))])


def state_at(sys_: control.ClosedLoopSystem, t_end: float, rtol: float, atol: float):
    """x(t_end) from rest at t = 0, restarting at every profile breakpoint."""
    n = sys_.n
    evals = 0

    def fun(t, y):
        nonlocal evals
        evals += 1
        dx, dz = control.field(sys_, control.ClosedLoopState(y[:n], y[n:]), t)
        return np.concatenate([dx, dz])

    y = np.zeros(2 * n)
    knots = [0.0] + [float(t) for t in TEMPERATURE_TIMES if 0.0 < t < t_end] + [t_end]
    for t0, t1 in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(fun, (t0, t1), y, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"solve_ivp failed on [{t0}, {t1}]: {sol.message}")
        y = sol.y[:, -1]
    return y[:n], evals


def main() -> int:
    t_cold = coldest_time()
    by_tol = []
    for rtol, atol in TOLERANCES:
        row = {"rtol": rtol, "atol": atol, "policies": {}}
        for policy in (core.DECENTRALIZED, core.COORDINATING):
            started = time.perf_counter()
            x, evals = state_at(study_system(policy), t_cold, rtol, atol)
            row["policies"][policy] = {
                "max_deviation_at_coldest": float(np.max(np.abs(x))),
                "sum_deviation_at_coldest": float(np.sum(np.abs(x))),
                "field_evaluations": evals,
            }
            print(f"rtol={rtol:g} {policy}: {row['policies'][policy]} "
                  f"in {time.perf_counter() - started:.1f} s", flush=True)
        by_tol.append(row)
    coarse, fine = by_tol
    worst = max(abs(coarse["policies"][p][k] - fine["policies"][p][k])
                for p in fine["policies"]
                for k in ("max_deviation_at_coldest", "sum_deviation_at_coldest"))
    if worst > AGREEMENT_K:
        print(f"tolerances disagree by {worst:.3e} K > {AGREEMENT_K:g} K; "
              "reference not written", file=sys.stderr)
        return 1
    record = {
        "command": "python3 perfbench/reference.py",
        "integrator": "scipy.integrate.solve_ivp DOP853, restarted at profile breakpoints",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "coldest_time": t_cold,
        "coldest_temperature": float(np.min(TEMPERATURE_VALUES)),
        "tolerance_agreement_K": worst,
        "policies": {p: {k: v[k] for k in ("max_deviation_at_coldest",
                                           "sum_deviation_at_coldest")}
                     for p, v in fine["policies"].items()},
        "by_tolerance": by_tol,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
