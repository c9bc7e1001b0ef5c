"""Equilibrium computation and brute-force optimality certification.

The decentralized loop settles on the allocation minimizing the eta-weighted
sum of errors; the coordinating loop minimizes the worst error.  Both claims
are certified against direct-search oracles and 1000 random alternatives.
"""

import numpy as np

import capnet as cp

bounds = cp.SaturationBounds.symmetric(1.0, 2)
ic = cp.LinearMMatrix([[1.0, -0.25], [-0.25, 1.0]]).as_interconnection(bounds)
agents = cp.AgentEnsemble(a=[1.0, 1.0], w=[-2.0, -1.0])

dec = cp.ClosedLoopSystem(
    agents=agents, ic=ic, bounds=bounds,
    gains=cp.ControllerGains(kP=2.0, kI=1.0, mode="decentralized", kA=0.4, n_agents=2))
coord = cp.ClosedLoopSystem(
    agents=agents, ic=ic, bounds=bounds,
    gains=cp.ControllerGains(kP=1.0, kI=0.5, mode="coordinating", kC=0.5, alpha=1.0,
                            n_agents=2))

rep_d = cp.find_equilibrium_decentralized(dec)
print(f"decentralized: u0={np.round(rep_d.u0, 4)} x0={np.round(rep_d.x0, 4)} "
      f"residual={rep_d.residual:.1e}")
print(f"  weighted-L1 cost {rep_d.cost_l1w:.6f}, max cost {rep_d.cost_linf:.6f}")

rep_c = cp.find_equilibrium_coordinating(coord)
print(f"coordinating : u0={np.round(rep_c.u0, 4)} x0={np.round(rep_c.x0, 4)} "
      f"residual={rep_c.residual:.1e}")

print("\noracles:")
print(f"  weighted-L1 minimum {cp.oracle_weighted_l1(ic, agents).cost:.6f}")
print(f"  max-error minimum   {cp.oracle_linf(ic, agents).cost:.6f}")

print("\nverdicts:")
print(cp.verify_optimality(dec, rep_d, n_samples=1000, seed=0).report())
print()
print(cp.verify_optimality(coord, rep_c, n_samples=1000, seed=0).report())

print("\nglobal convergence from 20 random starts:")
v = cp.verify_global_convergence(dec, n_starts=20, seed=0, t_max=200.0, tol=1e-4)
print(f"  decentralized: passed={v.passed}, "
      f"worst terminal error {v.details['worst_terminal_error']:.2e}")

# a disturbance the network can reject: the coordinating loop drives all
# errors to zero and leaves saturation for good
rejectable = cp.AgentEnsemble(a=[1.0, 1.0], w=[-0.3, 0.2])
coord_ok = cp.ClosedLoopSystem(agents=rejectable, ic=ic, bounds=bounds, gains=coord.gains)
v2 = cp.verify_global_convergence(coord_ok, n_starts=20, seed=0, t_max=200.0, tol=1e-4)
print(f"  coordinating (rejectable w): passed={v2.passed}")

# no equilibrium exists when the disturbance is too uneven for equal sharing
uneven = cp.AgentEnsemble(a=[1.0, 1.0], w=[-100.0, 0.0])
coord_bad = cp.ClosedLoopSystem(agents=uneven, ic=ic, bounds=bounds, gains=coord.gains)
out = cp.find_equilibrium_coordinating(coord_bad)
print(f"  uneven disturbance: {type(out).__name__} ({out.message})")
