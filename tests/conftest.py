import time

import numpy as np
import pytest

import capnet as cp
from capnet import cli

# reference two-agent instance used throughout: symmetric M-matrix coupling,
# one agent under a disturbance too large to reject
B_REF = np.array([[1.0, -0.25], [-0.25, 1.0]])
W_REF = np.array([-2.0, -1.0])


@pytest.fixture(scope="session")
def bounds2():
    return cp.SaturationBounds.symmetric(1.0, 2)


@pytest.fixture(scope="session")
def ic2(bounds2):
    return cp.LinearMMatrix(B_REF).as_interconnection(bounds2)


@pytest.fixture(scope="session")
def agents2():
    return cp.AgentEnsemble(a=[1.0, 1.0], w=W_REF)


@pytest.fixture(scope="session")
def gains_dec2():
    return cp.ControllerGains(kP=[2.0, 2.0], kI=[1.0, 1.0],
                              mode="decentralized", kA=[0.4, 0.4])


@pytest.fixture(scope="session")
def gains_coord2():
    return cp.ControllerGains(kP=[1.0, 1.0], kI=[0.5, 0.5],
                              mode="coordinating", kC=0.5, alpha=1.0)


@pytest.fixture(scope="session")
def sys_dec2(agents2, ic2, gains_dec2, bounds2):
    return cp.ClosedLoopSystem(agents=agents2, ic=ic2, gains=gains_dec2, bounds=bounds2)


@pytest.fixture(scope="session")
def sys_coord2(agents2, ic2, gains_coord2, bounds2):
    return cp.ClosedLoopSystem(agents=agents2, ic=ic2, gains=gains_coord2, bounds=bounds2)


@pytest.fixture(scope="session")
def scalar_system():
    """One agent, identity interconnection on [-1, 1], unrejectable w = -2."""
    bounds = cp.SaturationBounds.symmetric(1.0, 1)
    ic = cp.LinearMMatrix([[1.0]]).as_interconnection(bounds)
    agents = cp.AgentEnsemble(a=[1.0], w=[-2.0])
    gains = cp.ControllerGains(kP=[2.0], kI=[1.0], mode="decentralized", kA=[0.4])
    return cp.ClosedLoopSystem(agents=agents, ic=ic, gains=gains, bounds=bounds)


@pytest.fixture(scope="session")
def dhn_small():
    """Two consumers on a short line; small enough for grid-search oracles."""
    net = cp.HydraulicNetwork(
        "P", [cp.Pipe("P", "A", 0.9), cp.Pipe("A", "B", 0.3)],
        [cp.Consumer("A", 2.5), cp.Consumer("B", 2.5)], 0.6e6 * 2e-5)
    bld = cp.BuildingParams()
    return net, bld, cp.dhn_interconnection(net, bld)


@pytest.fixture(scope="session")
def dhn_study(tmp_path_factory):
    """One full four-policy case-study run, shared by every test that reads it."""
    out = tmp_path_factory.mktemp("dhn_study")
    t0 = time.monotonic()
    rc = cli.main(["reproduce-dhn", "--policy", "all", "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert rc == 0
    summary = {}
    for line in (out / "dhn_summary.txt").read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition("=")
        summary[key] = val
    return {"out": out, "elapsed": elapsed, "summary": summary}
