"""The district-heating hydraulic model.

A plant pumps at constant differential pressure through a tree of pipes with
quadratic losses (counted on supply and return) into consumer valves.  Two
passes over the tree give the consumer flows exactly; the tree structure also
admits an exact inverse from flows back to valve positions.
"""

import numpy as np

import capnet as cp
from capnet.hydraulics import valve_positions_for_flows

# one consumer behind one pipe: the balance collapses to a closed form
net1 = cp.HydraulicNetwork("plant", [cp.Pipe("plant", "A", 0.9)],
                           [cp.Consumer("A", s_c=2.5)], pump_dp=0.6e6)
for v in (1.0, 0.0, -1.0):
    q = cp.solve_flows(net1, np.array([v]))[0]
    closed = np.sqrt(0.6e6 / (2 * 0.9 + 2.5 + 5 + 30 / (v + 1.001) ** 2))
    print(f"valve {v:+.0f}: q = {q:10.4f} m3/h   closed form {closed:10.4f}")

print("\n-- 22-consumer reference network --")
net, bld, agents = cp.build_dhn_scenario()
q_open = cp.solve_flows(net, np.ones(22))  # raises above a 1e-10 pressure residual
print(f"fully open: total {q_open.sum():.1f} m3/h, per-consumer "
      f"{q_open.min():.2f}..{q_open.max():.2f}, "
      f"mass residual {net.mass_residual(q_open):.1e}")

# heat rate delivered to the buildings: coefficient c_pw*rho_w*delta/c
coef = bld.heat_coefficient(22)[0]
print(f"heat coefficient: {coef:.1f} K per m3/h; demand at -25 degC: "
      f"{abs(bld.disturbance(1, -25.0)[0]):.1f} K/h")
print(f"full-open supply covers demand {coef * q_open.min() / 27.0:.0f}x "
      "(capacity never binds at the nominal pump pressure)")

scale = cp.CALIBRATED_CAPACITY_SCALE
net_cal = cp.build_dhn_network(scale)
q_cal = cp.solve_flows(net_cal, np.ones(22))
print(f"calibrated scale {scale:g}: worst consumer delivers "
      f"{coef * q_cal.min():.1f} K/h against the 27 K/h demand")

# flows -> valves is exact: useful for fast optimal allocations
v = np.random.default_rng(0).uniform(-0.5, 0.9, 22)
q = cp.solve_flows(net, v)
v_back = valve_positions_for_flows(net, q)
print(f"\nflow-to-valve inversion error: {np.max(np.abs(v_back - v)):.2e}")
