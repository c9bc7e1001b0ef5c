"""Competitive monotone interconnections and randomized property checkers.

An interconnection maps a box of saturated control inputs to the resource
vector received by the agents.  The structural properties the control
results rely on are:

(i)  competition: raising everyone else's input while agent i holds still
     strictly lowers agent i's share, and
(ii) aggregate monotonicity: under a positive weight vector eta, the
     weighted total output strictly rises when inputs rise.

The checkers here sample ordered pairs from the box and report every
counterexample they find; they never raise on a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SaturationBounds, as_vector
from .errors import AllocationError, DimensionError, DomainError

#: strict inequalities are checked with this margin; violations smaller than
#: the margin are reported as "marginal" rather than failures
STRICT_MARGIN = 1e-10

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Interconnection:
    """A map from the actuator box into resource space, with weight eta.

    ``fn`` must be pure and finite on the box (spot-checked at construction).
    ``jacobian`` optionally returns d(fn)/dv at an interior point; without it
    the equilibrium Newton and the lemma-2 proposals use finite differences.
    ``allocator`` optionally provides ``l1(a, w, warm_v)`` and
    ``linf(a, w, warm_v)``, each returning the exact open-loop optimum as
    (v, x, method).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    eta: np.ndarray
    bounds: SaturationBounds
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    allocator: Optional[object] = None  # exact open-loop optima, see equilibria

    def __post_init__(self):
        object.__setattr__(self, "eta", as_vector(self.eta, "eta"))
        if len(self.eta) != self.bounds.n:
            raise DimensionError("eta and bounds differ in length")
        if not np.all(self.eta > 0):
            raise ValueError("eta must be strictly positive")
        self._probe()

    def _probe(self):
        """Spot-check that fn is total and finite on the box."""
        rng = np.random.default_rng(0)
        probes = [self.bounds.lower, self.bounds.upper,
                  0.5 * (self.bounds.lower + self.bounds.upper)]
        probes += [self.bounds.sample(rng) for _ in range(3)]
        for v in probes:
            out = np.asarray(self.fn(v), dtype=float)
            if out.shape != (self.n,):
                raise DimensionError(
                    f"interconnection returned shape {out.shape}, expected ({self.n},)")
            if not np.all(np.isfinite(out)):
                raise ValueError("interconnection returned non-finite values on the box")

    @property
    def n(self) -> int:
        return self.bounds.n

    def __call__(self, v) -> np.ndarray:
        return eval_interconnection(self, v)


def eval_interconnection(ic: Interconnection, v) -> np.ndarray:
    """Evaluate b(v) for v in the box; clamps boundary round-off only."""
    v = np.asarray(v, dtype=float)
    if v.shape != (ic.n,):
        raise DimensionError(f"v has shape {v.shape}, expected ({ic.n},)")
    lo, hi = ic.bounds.lower, ic.bounds.upper
    if np.any(v < lo - _BOUNDARY_TOL) or np.any(v > hi + _BOUNDARY_TOL):
        raise DomainError("input lies outside the actuator box beyond tolerance")
    return np.asarray(ic.fn(np.clip(v, lo, hi)), dtype=float)


def eval_jacobian(ic: Interconnection, v) -> np.ndarray:
    """d b / d v at v in the box: the interconnection's own ``jacobian`` when
    it has one, otherwise one-sided finite differences (forward, or backward
    where a forward step would leave the box)."""
    v = np.asarray(v, dtype=float)
    if ic.jacobian is not None:
        return np.asarray(ic.jacobian(v), dtype=float)
    eps = 1e-6
    b0 = ic(v)
    J = np.empty((ic.n, ic.n))
    for j in range(ic.n):
        vp = v.copy()
        step = eps if v[j] + eps <= ic.bounds.upper[j] else -eps
        vp[j] += step
        J[:, j] = (ic(vp) - b0) / step
    return J


# ---------------------------------------------------------------------------
# linear special case


def positive_left_weight(B, max_iter: int = 10_000, tol: float = 1e-13) -> np.ndarray:
    """Positive vector eta with eta^T B > 0 component-wise, for a matrix with
    non-positive off-diagonals and eigenvalues in the open right half-plane.

    Power iteration on the non-negative matrix s*I - B^T; raises ValueError if
    the iterate fails to be strictly positive (caller should then supply eta).
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    s = float(np.max(np.diag(B))) + 1.0
    M = s * np.eye(n) - B.T
    eta = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = M @ eta
        norm = np.sum(np.abs(nxt))
        if norm == 0.0:
            raise ValueError("power iteration collapsed; supply eta explicitly")
        nxt = nxt / norm
        if np.max(np.abs(nxt - eta)) < tol:
            eta = nxt
            break
        eta = nxt
    eta = eta / np.max(eta)
    if not np.all(eta > 0) or not np.all(eta @ B > 0):
        raise ValueError("no strictly positive left weight found; supply eta explicitly")
    return eta


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call: scipy is slow to import."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


class LinearAllocator:
    """Exact open-loop optima of b(v) = B v over the box, each one linear
    program solved by HiGHS.

    ``l1`` minimizes sum_i eta_i*a_i*|x_i| = sum_i eta_i*t_i subject to
    t >= +-(B v + w); ``linf`` minimizes s subject to |(B v + w)_i/a_i| <= s.
    Both return (v, x, method) with x = (B v + w)/a recomputed from the
    returned v, never read from the program's auxiliary variables.  A solve
    that ends without an optimum raises AllocationError with HiGHS' message.
    """

    def __init__(self, B: np.ndarray, eta: np.ndarray, bounds: SaturationBounds):
        self.B = B
        self.eta = eta
        self.bounds = bounds

    def _solve(self, a, w, row_scale, slack, cost, method):
        """min cost.t over (v, t) with |row_scale*(B v + w)| <= slack @ t."""
        A = row_scale[:, None] * self.B
        r = row_scale * w
        lo, hi = self.bounds.lower, self.bounds.upper
        res = linprog(np.concatenate([np.zeros(len(w)), cost]),
                      A_ub=np.block([[A, -slack], [-A, -slack]]),
                      b_ub=np.concatenate([-r, r]),
                      bounds=list(zip(lo, hi)) + [(0.0, None)] * len(cost),
                      method="highs")
        if res.status != 0:
            raise AllocationError(f"{method} allocation: {res.message}", status=res.status)
        v = np.clip(res.x[:len(w)], lo, hi)
        return v, (self.B @ v + w) / a, method

    def l1(self, a, w, warm_v=None):
        n = len(w)
        return self._solve(a, w, np.ones(n), np.eye(n), self.eta, "lp-l1")

    def linf(self, a, w, warm_v=None):
        return self._solve(a, w, 1.0 / a, np.ones((len(w), 1)), np.ones(1), "lp-linf")


@dataclass(frozen=True, eq=False)
class LinearMMatrix:
    """Linear interconnection b(v) = B v with non-positive off-diagonals.

    eta defaults to a positive left weight computed by power iteration.  Its
    interconnection carries a :class:`LinearAllocator`, so both open-loop
    optima are exact linear programs.
    """

    B: np.ndarray
    eta: Optional[np.ndarray] = None

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DimensionError("B must be square")
        off = B - np.diag(np.diag(B))
        if np.any(off > 0):
            raise ValueError("off-diagonal entries must be <= 0")
        object.__setattr__(self, "B", B)
        eta = positive_left_weight(B) if self.eta is None else as_vector(self.eta, "eta")
        if not np.all(eta > 0) or not np.all(eta @ B > 0):
            raise ValueError("eta must be positive with eta^T B > 0 component-wise")
        object.__setattr__(self, "eta", eta)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def as_interconnection(self, bounds: SaturationBounds) -> Interconnection:
        if bounds.n != self.n:
            raise DimensionError("bounds dimension does not match B")
        B = self.B
        return Interconnection(
            fn=lambda v: B @ v,
            eta=self.eta,
            bounds=bounds,
            jacobian=lambda v: B,
            name="linear",
            allocator=LinearAllocator(B, self.eta, bounds),
        )


# ---------------------------------------------------------------------------
# property checkers


@dataclass(frozen=True)
class Counterexample:
    """A sampled pair violating (or grazing) one strict inequality."""

    check: str
    sample: int
    v_low: np.ndarray
    v_high: np.ndarray
    index: Optional[int]
    value: float

    def __str__(self):
        where = "" if self.index is None else f", i={self.index}"
        return (f"{self.check} violated at sample {self.sample}{where}: "
                f"value={self.value:.3e}, v_low={np.array2string(self.v_low, precision=4)}, "
                f"v_high={np.array2string(self.v_high, precision=4)}")


@dataclass(frozen=True)
class PropertyVerdict:
    """Aggregated result of a randomized structural check.

    ``passed`` is true when no counterexample was found and at least one
    qualifying pair was checked.  Violations within ``margin`` of zero are
    listed in ``marginal`` and do not fail the verdict.
    """

    name: str
    n_requested: int
    n_checked: int
    seed: int
    margin: float
    counterexamples: tuple
    marginal: tuple = ()

    @property
    def inconclusive(self) -> bool:
        return self.n_checked == 0

    @property
    def passed(self) -> bool:
        return not self.inconclusive and len(self.counterexamples) == 0

    def summary(self) -> str:
        if self.inconclusive:
            status = "INCONCLUSIVE (no qualifying pairs)"
        else:
            status = "pass" if self.passed else "FAIL"
        lines = [f"{self.name}: {status} "
                 f"(checked {self.n_checked}/{self.n_requested} pairs, seed={self.seed}, "
                 f"{len(self.counterexamples)} counterexamples, {len(self.marginal)} marginal)"]
        lines += [f"  {c}" for c in self.counterexamples[:10]]
        if len(self.counterexamples) > 10:
            lines.append(f"  ... {len(self.counterexamples) - 10} more")
        return "\n".join(lines)


def _ordered_pair(rng, bounds: SaturationBounds, pin_prob: float):
    """Draw v_low <= v_high with each coordinate pinned equal with pin_prob."""
    v_low = bounds.sample(rng)
    pinned = rng.random(bounds.n) < pin_prob
    v_high = np.where(pinned, v_low, rng.uniform(v_low, bounds.upper))
    return v_low, v_high


def check_assumption1(
    ic: Interconnection,
    n_samples: int,
    rng_seed: int = 0,
    pin_prob: float = 0.5,
    margin: float = STRICT_MARGIN,
) -> PropertyVerdict:
    """Sample ordered pairs and test competition plus aggregate monotonicity.

    For each pair v_high >= v_low (v_high != v_low) it asserts
    b_i(v_high) - b_i(v_low) < 0 on pinned coordinates, and
    eta . (b(v_high) - b(v_low)) > 0.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    bad, grazing = [], []
    checked = 0
    attempts = 0
    while checked < n_samples and attempts < 20 * n_samples:
        attempts += 1
        v_low, v_high = _ordered_pair(rng, ic.bounds, pin_prob)
        if np.array_equal(v_low, v_high):
            continue
        diff = ic(v_high) - ic(v_low)
        for i in np.nonzero(v_high == v_low)[0]:
            val = diff[i]
            if val > margin:
                bad.append(Counterexample("competition (i)", checked, v_low, v_high, int(i), float(val)))
            elif val >= -margin:
                grazing.append(Counterexample("competition (i)", checked, v_low, v_high, int(i), float(val)))
        agg = float(ic.eta @ diff)
        if agg < -margin:
            bad.append(Counterexample("aggregate monotonicity (ii)", checked, v_low, v_high, None, agg))
        elif agg <= margin:
            grazing.append(Counterexample("aggregate monotonicity (ii)", checked, v_low, v_high, None, agg))
        checked += 1
    return PropertyVerdict("assumption1", n_samples, checked, rng_seed, margin,
                           tuple(bad), tuple(grazing))


def check_lemma1(
    ic: Interconnection,
    n_pairs: int,
    rng_seed: int = 0,
    pin_prob: float = 0.5,
    margin: float = STRICT_MARGIN,
) -> PropertyVerdict:
    """Signed-change dominance: for arbitrary pairs v != v~, the eta-weighted
    output change signed by the input change on moved coordinates strictly
    exceeds the absolute output change on unmoved coordinates.

    Coordinates are pinned equal with probability ``pin_prob`` so the unmoved
    index set is frequently nonempty; otherwise the right-hand side is almost
    always trivially zero.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(rng_seed)
    bad, grazing = [], []
    checked = 0
    attempts = 0
    while checked < n_pairs and attempts < 20 * n_pairs:
        attempts += 1
        v = ic.bounds.sample(rng)
        pinned = rng.random(ic.n) < pin_prob
        v_alt = np.where(pinned, v, ic.bounds.sample(rng))
        if np.array_equal(v, v_alt):
            continue
        diff = ic(v_alt) - ic(v)
        moved = v_alt != v
        lhs = float(np.sum(ic.eta[moved] * np.sign(v_alt[moved] - v[moved]) * diff[moved]))
        rhs = float(np.sum(ic.eta[~moved] * np.abs(diff[~moved])))
        gap = lhs - rhs
        if gap < -margin:
            bad.append(Counterexample("signed-change dominance", checked, v, v_alt, None, gap))
        elif gap <= margin:
            grazing.append(Counterexample("signed-change dominance", checked, v, v_alt, None, gap))
        checked += 1
    return PropertyVerdict("lemma1", n_pairs, checked, rng_seed, margin,
                           tuple(bad), tuple(grazing))


def _lemma2_proposal(ic, rng, v_low):
    """Candidate partner likely (but not certain) to order the outputs.

    Independent uniform partners almost never satisfy a component-wise output
    ordering in high dimension, so half the proposals aim an output increase
    through the local Jacobian inverse; the others move toward the upper
    corner or mix pinned/slightly-decreased coordinates.  Qualification is
    always judged on the true map afterwards.
    """
    lo, hi = ic.bounds.lower, ic.bounds.upper
    n = ic.n
    mode = rng.random()
    if mode < 0.5 and (ic.jacobian is not None or n <= 8):
        try:
            dv = np.linalg.solve(eval_jacobian(ic, v_low), rng.uniform(0.1, 1.0, n))
        except np.linalg.LinAlgError:
            return None
        m = float(np.max(np.abs(dv)))
        if not np.isfinite(m) or m == 0.0:
            return None
        dv *= 10.0 ** rng.uniform(-2.7, -0.7) * float(np.max(hi - lo)) / m
        return np.clip(v_low + dv, lo, hi)
    if mode < 0.75:
        scale = rng.uniform()
        step = np.minimum(scale * (hi - v_low) * rng.uniform(0.8, 1.2, n), hi - v_low)
        return v_low + step
    scale = rng.uniform()
    r = rng.random(n)
    up = rng.uniform(0.0, scale * (hi - v_low))
    down = -rng.uniform(0.0, 0.3 * scale * (v_low - lo))
    return v_low + np.where(r < 0.75, up, np.where(r < 0.9, 0.0, down))


def check_lemma2(
    ic: Interconnection,
    n_pairs: int,
    rng_seed: int = 0,
    margin: float = STRICT_MARGIN,
) -> PropertyVerdict:
    """Inverse positivity: whenever b(v_high) >= b(v_low) component-wise for
    distinct points, then v_high > v_low strictly element-wise.

    Qualifying pairs are found by rejection sampling over directed proposals
    (see :func:`_lemma2_proposal`); a verdict with zero qualifying pairs is
    inconclusive.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(rng_seed)
    bad, grazing = [], []
    qualifying = 0
    for k in range(n_pairs):
        v_low = ic.bounds.sample(rng)
        v_high = _lemma2_proposal(ic, rng, v_low)
        if v_high is None or np.array_equal(v_low, v_high):
            continue
        if not np.all(ic(v_high) - ic(v_low) >= 0.0):
            continue
        qualifying += 1
        gaps = v_high - v_low
        worst = int(np.argmin(gaps))
        val = float(gaps[worst])
        if val < -margin:
            bad.append(Counterexample("inverse positivity", k, v_low, v_high, worst, val))
        elif val <= margin:
            grazing.append(Counterexample("inverse positivity", k, v_low, v_high, worst, val))
    return PropertyVerdict("lemma2", n_pairs, qualifying, rng_seed, margin,
                           tuple(bad), tuple(grazing))
