"""Competitive monotone interconnections and randomized property checkers.

An interconnection maps a box of saturated control inputs to the resource
vector received by the agents.  The structural properties the control
results rely on are:

(i)  competition: raising everyone else's input while agent i holds still
     strictly lowers agent i's share, and
(ii) aggregate monotonicity: under a positive weight vector eta, the
     weighted total output strictly rises when inputs rise.

The checkers here sample ordered pairs from the box and report every
counterexample they find; they never raise on a violation.  Each draws all
its pairs first, from uniform doubles of one ``numpy.random.Generator``
seeded by ``rng_seed``, evaluates b on each side as one (m, n) stack and
judges every pair with array operations.  The stream is consumed exactly as
drawing one pair per iteration would: ``Generator.uniform(lo, hi)`` is
lo + (hi - lo)*d for the next double d, so the same seed gives the same
pairs, bit for bit, whatever the stacking.
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

#: probability with which the assumption-1 and lemma-1 checkers pin a
#: coordinate of a sampled pair equal
PIN_PROB = 0.5


@dataclass(frozen=True, eq=False)
class Interconnection:
    """A map from the actuator box into resource space, with weight eta.

    ``fn`` takes a whole stack: it maps an (m, n) array of points of the box,
    one per row, to the (m, n) array of their outputs, and row k of the
    result depends on row k of the input alone.  A row-oriented ``B @ v`` is
    refused at construction; a linear map computes the batched product
    ``(B @ V[..., None])[..., 0]``, which gives every row the arithmetic of
    ``B @ v`` alone (``V @ B.T`` rounds differently and depends on m).
    ``fn`` must be pure and finite on the box (spot-checked at construction).
    ``linearization`` optionally maps one point v of the box to the pair
    (b(v), db/dv) from one evaluation, b with the bits ``fn`` gives v in a
    stack of one; without it :meth:`linearize` uses finite differences.
    ``allocator`` optionally provides ``l1(a, W)`` and ``linf(a, W)``, the
    exact open-loop optima of the weighted-L1 and of the max error.  Each
    takes the (n,) rates a and an (m, n) stack W of disturbances, one per
    row, and returns (V, X, methods): the (m, n) stacks of valves and errors
    of the optimum of each row, and a list of m method names.  One
    disturbance is a stack of one; callers go through
    :mod:`capnet.equilibria`, which checks the shape once.  ``points``
    optionally builds the maps of :meth:`point_maps`, and ``counts``
    optionally reports the summary keys of the interconnection's own
    counters, which a run's summary ends with.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    eta: np.ndarray
    bounds: SaturationBounds
    linearization: Optional[Callable[[np.ndarray], tuple]] = None
    allocator: Optional[object] = None  # exact open-loop optima, see equilibria
    points: Optional[Callable[[], tuple]] = None
    counts: Optional[Callable[[], dict]] = None

    def __post_init__(self):
        object.__setattr__(self, "eta", as_vector(self.eta, "eta"))
        if len(self.eta) != self.bounds.n:
            raise DimensionError("eta and bounds differ in length")
        if not np.all(self.eta > 0):
            raise ValueError("eta must be strictly positive")
        self._probe()

    def _probe(self):
        """Spot-check the stack contract and that fn is finite on the box.

        One stack of the bounds, the midpoint and three samples, plus a
        fourth sample when n is 6: the stack never has n rows, so a
        row-oriented fn fails here rather than mixing rows silently.
        """
        rng = np.random.default_rng(0)
        lo, hi = self.bounds.lower, self.bounds.upper
        probes = np.vstack([lo, hi, 0.5 * (lo + hi),
                            self.bounds.sample(rng, 4 if self.n == 6 else 3)])
        contract = f"fn must map an (m, {self.n}) stack of points to an (m, {self.n}) stack"
        try:
            out = np.asarray(self.fn(probes), dtype=float)
        except ValueError as exc:
            raise DimensionError(f"{contract}; on {probes.shape} it raised: {exc}") from exc
        if out.shape != probes.shape:
            raise DimensionError(f"{contract}; on {probes.shape} it returned {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError("interconnection returned non-finite values on the box")

    @property
    def n(self) -> int:
        return self.bounds.n

    def __call__(self, v) -> np.ndarray:
        return eval_interconnection(self, v)

    def linearize(self, v):
        """(b(v), db/dv) at one point v of the box, from one call: its own
        ``linearization`` when it has one, otherwise one-sided finite
        differences (forward, or backward where a forward step would leave
        the box), with v and its n steps evaluated as one stack."""
        if self.linearization is not None:
            return self.linearization(v)
        eps = 1e-6
        steps = np.where(v + eps <= self.bounds.upper, eps, -eps)
        points = np.tile(v, (self.n + 1, 1))
        points[np.arange(1, self.n + 1), np.arange(self.n)] += steps
        b = self(points)
        return b[0], (b[1:] - b[0]).T / steps

    def point_maps(self):
        """(b, linearize, check) for a run of evaluations at one point each
        of the box, such as an integrator's stages: ``b(v)`` gives b with
        the bits ``fn`` gives v in a stack of one, ``linearize(v)`` the pair
        of :meth:`linearize`, and ``check()`` runs the checks they leave
        for later on everything they evaluated since its last call.  From
        ``points`` when given; otherwise ``fn`` on a stack of one and
        :meth:`linearize`, which check as they go."""
        if self.points is not None:
            return self.points()
        return (lambda v: np.asarray(self.fn(v[None]), dtype=float)[0], self.linearize,
                lambda: None)


def eval_interconnection(ic: Interconnection, v) -> np.ndarray:
    """Evaluate b(v) for v in the box, or b of each row of an (m, n) stack of
    such points; clamps boundary round-off only.

    The shape and the box are checked, and the input clipped, once for the
    whole stack, which ``ic.fn`` then maps in one call; a single point is a
    stack of one.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != ic.n:
        raise DimensionError(f"v has shape {v.shape}, expected ({ic.n},) or (m, {ic.n})")
    lo, hi = ic.bounds.lower, ic.bounds.upper
    if not np.all((v >= lo - _BOUNDARY_TOL) & (v <= hi + _BOUNDARY_TOL)):  # NaN fails too
        raise DomainError("input lies outside the actuator box beyond tolerance")
    b = np.asarray(ic.fn(np.clip(v, lo, hi).reshape(-1, ic.n)), dtype=float)
    return b.reshape(v.shape)


# ---------------------------------------------------------------------------
# linear special case


def linear_interconnection(B: np.ndarray, eta, bounds: SaturationBounds,
                           allocator=None) -> Interconnection:
    """b(v) = B v on the box, with its exact linearization (B v, B) and no
    check of B's sign pattern; :meth:`LinearMMatrix.as_interconnection`
    checks it first."""
    return Interconnection(fn=lambda V: (B @ V[..., None])[..., 0], eta=eta, bounds=bounds,
                           linearization=lambda v: (B @ v, B), allocator=allocator)


def positive_left_weight(B) -> np.ndarray:
    """Positive vector eta with eta^T B > 0 component-wise, for a matrix with
    non-positive off-diagonals and eigenvalues in the open right half-plane.

    The Perron left eigenvector of such an M-matrix: the eigenvector of B^T
    at its eigenvalue of smallest real part, scaled to max 1.  Raises
    ValueError if it is not strictly positive (caller should then supply eta).
    """
    B = np.asarray(B, dtype=float)
    values, vectors = np.linalg.eig(B.T)
    eta = vectors[:, np.argmin(values.real)].real
    eta = eta / eta[np.argmax(np.abs(eta))]
    if not np.all(eta > 0) or not np.all(eta @ B > 0):
        raise ValueError("no strictly positive left weight found; supply eta explicitly")
    return eta


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call: scipy is slow to import."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


class LinearAllocator:
    """Exact open-loop optima of b(v) = B v over the box, each one linear
    program solved by HiGHS, one row of a stack of disturbances at a time.

    ``l1`` minimizes sum_i eta_i*a_i*|x_i| = sum_i eta_i*t_i subject to
    t >= +-(B v + w); ``linf`` minimizes s subject to |(B v + w)_i/a_i| <= s.
    Both follow the allocator contract of :class:`Interconnection`, with x =
    (B v + w)/a recomputed from the returned v, never read from the
    program's auxiliary variables.  A solve that ends without an optimum
    raises AllocationError with HiGHS' message.
    """

    def __init__(self, B: np.ndarray, eta: np.ndarray, bounds: SaturationBounds):
        self.B = B
        self.eta = eta
        self.bounds = bounds

    def _solve(self, a, W, row_scale, slack, cost, method):
        """min cost.t over (v, t) with |row_scale*(B v + w)| <= slack @ t,
        for each row w of W."""
        A = row_scale[:, None] * self.B
        lo, hi = self.bounds.lower, self.bounds.upper
        n = len(lo)
        c, A_ub = np.concatenate([np.zeros(n), cost]), np.block([[A, -slack], [-A, -slack]])
        bounds = list(zip(lo, hi)) + [(0.0, None)] * len(cost)
        V = np.empty_like(W)
        for k, w in enumerate(W):
            r = row_scale * w
            res = linprog(c, A_ub=A_ub, b_ub=np.concatenate([-r, r]), bounds=bounds,
                          method="highs")
            if res.status != 0:
                raise AllocationError(f"{method} allocation: {res.message}", status=res.status)
            V[k] = np.clip(res.x[:n], lo, hi)
        return V, ((self.B @ V[..., None])[..., 0] + W) / a, [method] * len(W)

    def l1(self, a, W):
        n = len(self.eta)
        return self._solve(a, W, np.ones(n), np.eye(n), self.eta, "lp-l1")

    def linf(self, a, W):
        return self._solve(a, W, 1.0 / a, np.ones((len(a), 1)), np.ones(1), "lp-linf")


@dataclass(frozen=True, eq=False)
class LinearMMatrix:
    """Linear interconnection b(v) = B v with non-positive off-diagonals.

    eta defaults to the Perron left eigenvector of B, scaled to max 1.  Its
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
        return linear_interconnection(self.B, self.eta, bounds,
                                      allocator=LinearAllocator(self.B, self.eta, bounds))


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


def _uniform(lo, hi, d):
    """What ``Generator.uniform(lo, hi)`` returns for the doubles d it draws."""
    return lo + (hi - lo) * d


def _row_dots(x, y):
    """x @ y for each row of x, with the arithmetic of the 1-D dot product:
    a 2-D matmul may round differently."""
    return (x[:, None, :] @ y)[:, 0]


def _strict_positivity(q, margin):
    """Masks of the entries of q that fail q > 0 beyond the margin, and of
    those that fail it within the margin."""
    bad = q < -margin
    return bad, ~bad & (q <= margin)


def _distinct_pairs(rng, bounds: SaturationBounds, n_wanted, draw_free):
    """Sampled pairs (v, v~) with v != v~, as two stacks in draw order.

    Every attempt takes 3n doubles: n for v, n for the pins (a coordinate is
    pinned equal with probability PIN_PROB) and n from which
    ``draw_free(v, d)`` makes the free coordinates of v~.  Attempts whose two
    points coincide are dropped.  Attempts are drawn in chunks of the pairs
    still wanted, up to 20*n_wanted attempts in all, so the pairs are those
    of drawing the attempts one at a time.
    """
    n = bounds.n
    firsts, seconds = [], []
    found = attempts = 0
    while found < n_wanted and attempts < 20 * n_wanted:
        k = min(n_wanted - found, 20 * n_wanted - attempts)
        attempts += k
        d = rng.random((k, 3 * n))
        v = _uniform(bounds.lower, bounds.upper, d[:, :n])
        v_alt = np.where(d[:, n:2 * n] < PIN_PROB, v, draw_free(v, d[:, 2 * n:]))
        distinct = np.any(v_alt != v, axis=1)
        firsts.append(v[distinct])
        seconds.append(v_alt[distinct])
        found += len(firsts[-1])
    return np.concatenate(firsts), np.concatenate(seconds)


def _examples(mask, example):
    """example(*index) for every true entry of mask, in row-major order."""
    return tuple(example(*(int(j) for j in index)) for index in np.argwhere(mask))


def check_assumption1(
    ic: Interconnection,
    n_samples: int,
    rng_seed: int = 0,
    margin: float = STRICT_MARGIN,
) -> PropertyVerdict:
    """Sample ordered pairs and test competition plus aggregate monotonicity.

    For each pair v_high >= v_low (v_high != v_low) it asserts
    b_i(v_high) - b_i(v_low) < 0 on pinned coordinates, and
    eta . (b(v_high) - b(v_low)) > 0.  v_low is uniform on the box and each
    free coordinate of v_high uniform between v_low and the upper bound.
    All pairs are drawn first (see :func:`_distinct_pairs`) and b is
    evaluated on each side as one stack.  A pair's counterexamples are
    listed by coordinate, the aggregate last.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    upper = ic.bounds.upper
    v_low, v_high = _distinct_pairs(np.random.default_rng(rng_seed), ic.bounds, n_samples,
                                    lambda v, d: _uniform(v, upper, d))
    diff = ic(v_high) - ic(v_low)
    # column i < n: competition on coordinate i, negated so that it must be
    # positive (NaN, never listed, where i moved); column n: aggregate
    # monotonicity
    value = np.hstack([diff, _row_dots(diff, ic.eta)[:, None]])
    required = np.hstack([np.where(v_high == v_low, -diff, np.nan), value[:, -1:]])
    bad, grazing = _strict_positivity(required, margin)

    def example(k, i):
        if i == ic.n:
            return Counterexample("aggregate monotonicity (ii)", k, v_low[k], v_high[k],
                                  None, float(value[k, i]))
        return Counterexample("competition (i)", k, v_low[k], v_high[k], i, float(value[k, i]))

    return PropertyVerdict("assumption1", n_samples, len(v_low), rng_seed, margin,
                           _examples(bad, example), _examples(grazing, example))


def check_lemma1(
    ic: Interconnection,
    n_pairs: int,
    rng_seed: int = 0,
    margin: float = STRICT_MARGIN,
) -> PropertyVerdict:
    """Signed-change dominance: for arbitrary pairs v != v~, the eta-weighted
    output change signed by the input change on moved coordinates strictly
    exceeds the absolute output change on unmoved coordinates.

    Coordinates are pinned equal with probability PIN_PROB so the unmoved
    index set is frequently nonempty; otherwise the right-hand side is almost
    always trivially zero.  The free coordinates of v~ are uniform on the
    box.  All pairs are drawn first (see :func:`_distinct_pairs`) and b is
    evaluated on each side as one stack.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    lo, hi = ic.bounds.lower, ic.bounds.upper
    v, v_alt = _distinct_pairs(np.random.default_rng(rng_seed), ic.bounds, n_pairs,
                               lambda v, d: _uniform(lo, hi, d))
    diff = ic(v_alt) - ic(v)
    moved = v_alt != v
    lhs = np.sum(np.where(moved, ic.eta * np.sign(v_alt - v) * diff, 0.0), axis=1)
    rhs = np.sum(np.where(moved, 0.0, ic.eta * np.abs(diff)), axis=1)
    gap = lhs - rhs
    bad, grazing = _strict_positivity(gap, margin)

    def example(k):
        return Counterexample("signed-change dominance", k, v[k], v_alt[k], None, float(gap[k]))

    return PropertyVerdict("lemma1", n_pairs, len(v), rng_seed, margin,
                           _examples(bad, example), _examples(grazing, example))


def _lemma2_proposals(ic: Interconnection, rng, n_pairs):
    """n_pairs points v_low, each with a candidate partner v_high likely (but
    not certain) to order the outputs; v_high is NaN where none was made.

    Independent uniform partners almost never satisfy a component-wise output
    ordering in high dimension, so half the proposals aim an output increase
    through the local Jacobian inverse; the others move toward the upper
    corner or mix pinned/slightly-decreased coordinates.  Qualification is
    always judged on the true map afterwards.

    Pair k takes from the stream n doubles for v_low, one for its mode and
    then, by mode: n + 1 (Jacobian: the aimed increase, the step scale),
    n + 1 (upper corner: scale, jitter) or 3n + 1 (mix: scale, choice, up,
    down).  A Jacobian proposal takes its doubles even when the solve fails.
    The stream is drawn at its longest, 4n + 2 doubles per pair; a scalar
    scan over the modes finds where each pair starts, and each mode's
    proposals are then built as one stack.
    """
    lo, hi = ic.bounds.lower, ic.bounds.upper
    n = ic.n
    d = rng.random(n_pairs * (4 * n + 2))
    start = np.empty(n_pairs, dtype=np.intp)
    pos = 0
    for k in range(n_pairs):
        start[k] = pos
        pos += 4 * n + 2 if d[pos + n] >= 0.75 else 2 * n + 2
    cols = np.arange(n)
    v_low = _uniform(lo, hi, d[start[:, None] + cols])
    mode = d[start + n]
    after = start + n + 1  # the first double after the mode
    v_high = np.full_like(v_low, np.nan)
    aimed = (mode < 0.5) & (ic.linearization is not None or n <= 8)

    k = np.flatnonzero(aimed)
    if len(k):
        J = np.array([ic.linearize(v)[1] for v in v_low[k]])
        rhs = _uniform(0.1, 1.0, d[after[k, None] + cols])
        length = np.array([10.0 ** float(e) for e in _uniform(-2.7, -0.7, d[after[k] + n])])
        try:
            dv = np.linalg.solve(J, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # one singular matrix fails the stack
            dv = np.full_like(rhs, np.nan)
            for j in range(len(k)):
                try:
                    dv[j] = np.linalg.solve(J[j], rhs[j])
                except np.linalg.LinAlgError:
                    pass
        m = np.max(np.abs(dv), axis=1)
        ok = np.isfinite(m) & (m != 0.0)
        factor = length[ok] * float(np.max(hi - lo)) / m[ok]
        v_high[k[ok]] = np.clip(v_low[k[ok]] + dv[ok] * factor[:, None], lo, hi)

    k = np.flatnonzero(~aimed & (mode < 0.75))
    room = hi - v_low[k]
    jitter = _uniform(0.8, 1.2, d[after[k, None] + 1 + cols])
    v_high[k] = v_low[k] + np.minimum(d[after[k], None] * room * jitter, room)

    k = np.flatnonzero(mode >= 0.75)
    scale = d[after[k], None]
    choice = d[after[k, None] + 1 + cols]
    up = _uniform(0.0, scale * (hi - v_low[k]), d[after[k, None] + 1 + n + cols])
    down = -_uniform(0.0, 0.3 * scale * (v_low[k] - lo), d[after[k, None] + 1 + 2 * n + cols])
    v_high[k] = v_low[k] + np.where(choice < 0.75, up, np.where(choice < 0.9, 0.0, down))
    return v_low, v_high


def check_lemma2(
    ic: Interconnection,
    n_pairs: int,
    rng_seed: int = 0,
    margin: float = STRICT_MARGIN,
) -> PropertyVerdict:
    """Inverse positivity: whenever b(v_high) >= b(v_low) component-wise for
    distinct points, then v_high > v_low strictly element-wise.

    Qualifying pairs are found by rejection sampling over directed proposals
    (see :func:`_lemma2_proposals`), all drawn first; b is evaluated on each
    side of the proposals as one stack.  A proposal whose Jacobian solve
    fails is skipped.  A verdict with zero qualifying pairs is inconclusive.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    v_low, v_high = _lemma2_proposals(ic, np.random.default_rng(rng_seed), n_pairs)
    k = np.flatnonzero(~np.isnan(v_high[:, 0]) & np.any(v_high != v_low, axis=1))
    k = k[np.all(ic(v_high[k]) - ic(v_low[k]) >= 0.0, axis=1)]
    gaps = v_high[k] - v_low[k]
    worst = np.argmin(gaps, axis=1)
    value = gaps[np.arange(len(k)), worst]
    bad, grazing = _strict_positivity(value, margin)

    def example(j):
        return Counterexample("inverse positivity", int(k[j]), v_low[k[j]], v_high[k[j]],
                              int(worst[j]), float(value[j]))

    return PropertyVerdict("lemma2", n_pairs, len(k), rng_seed, margin,
                           _examples(bad, example), _examples(grazing, example))
