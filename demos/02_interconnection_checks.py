"""Executable structural checks on interconnections.

A valid interconnection is competitive (raising everyone else's input lowers
your share) and aggregate-monotone under a positive weight.  The checkers
sample the box and report counterexamples; a matrix with a positive
off-diagonal entry is shown failing.
"""

import numpy as np

import capnet as cp

bounds = cp.SaturationBounds.symmetric(1.0, 2)

print("-- admissible M-matrix coupling --")
mm = cp.LinearMMatrix([[1.0, -0.25], [-0.25, 1.0]])
print("weight eta, the Perron left eigenvector of B:", mm.eta)
ic = mm.as_interconnection(bounds)
for check in (cp.check_assumption1, cp.check_lemma1, cp.check_lemma2):
    print(check(ic, 2000, rng_seed=0).summary())

print("\n-- positive off-diagonal entry: competition is violated --")
# b(v) = B v without LinearMMatrix's sign check, so the checker can show the violation
ic_bad = cp.linear_interconnection(np.array([[1.0, 0.25], [-0.25, 1.0]]), np.ones(2), bounds)
verdict = cp.check_assumption1(ic_bad, 2000, rng_seed=0)
print(verdict.summary())

print("\n-- district-heating hydraulics satisfy the same properties --")
net, bld, _ = cp.build_dhn_scenario()
ic_dhn = cp.dhn_interconnection(net, bld)
print(cp.check_assumption1(ic_dhn, 300, rng_seed=0).summary())
print(cp.check_lemma1(ic_dhn, 300, rng_seed=0).summary())
print(cp.check_lemma2(ic_dhn, 300, rng_seed=0).summary())
