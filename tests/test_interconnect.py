import json

import numpy as np
import pytest

import capnet as cp
from capnet import cli
from capnet.errors import DimensionError, DomainError
from tests.conftest import B_REF


def bad_matrix_interconnection():
    """Positive off-diagonal entry: competition property (i) is violated."""
    B = np.array([[1.0, 0.25], [-0.25, 1.0]])
    bounds = cp.SaturationBounds.symmetric(1.0, 2)
    return cp.Interconnection(fn=lambda V: (B @ V[..., None])[..., 0], eta=np.ones(2),
                              bounds=bounds)


class TestEval:
    def test_matrix_vector_values(self, ic2):
        np.testing.assert_allclose(ic2(np.array([1.0, 1.0])), [0.75, 0.75])
        np.testing.assert_allclose(ic2(np.array([1.0, 0.2])), [0.95, -0.05])
        np.testing.assert_allclose(ic2(np.zeros(2)), [0.0, 0.0])

    def test_boundary_clamp_tolerance(self, ic2):
        out = cp.eval_interconnection(ic2, np.array([1.0 + 1e-13, -1.0]))
        np.testing.assert_allclose(out, B_REF @ [1.0, -1.0])

    def test_domain_error(self, ic2):
        with pytest.raises(DomainError):
            cp.eval_interconnection(ic2, np.array([1.5, 0.0]))

    def test_stack_equals_rows_bitwise(self, ic2, dhn_small):
        for ic in (ic2, dhn_small[2]):
            v = ic.bounds.sample(np.random.default_rng(0), 40)
            v[0] = ic.bounds.upper + 1e-13  # round-off is clamped in a stack too
            rows = np.array([cp.eval_interconnection(ic, row) for row in v])
            np.testing.assert_array_equal(cp.eval_interconnection(ic, v), rows)
            np.testing.assert_array_equal(ic(v), rows)
        assert cp.eval_interconnection(ic2, np.empty((0, 2))).shape == (0, 2)

    def test_stack_row_outside_box(self, ic2):
        v = np.zeros((4, 2))
        v[2, 1] = 1.5
        with pytest.raises(DomainError):
            cp.eval_interconnection(ic2, v)

    @pytest.mark.parametrize("shape", [(), (3,), (4, 3), (4, 1), (2, 2, 2)])
    def test_other_shapes_raise(self, ic2, shape):
        with pytest.raises(DimensionError):
            cp.eval_interconnection(ic2, np.zeros(shape))

    def test_finite_difference_jacobian_per_column(self):
        # one-sided differences, backward where a forward step leaves the box;
        # the stacked evaluation gives the column-by-column values bit for bit
        ic = bad_matrix_interconnection()
        for v in (np.array([0.3, -0.2]), np.array([1.0, 1.0 - 1e-7])):
            want = np.empty((2, 2))
            for j in range(2):
                step = 1e-6 if v[j] + 1e-6 <= 1.0 else -1e-6
                vp = v.copy()
                vp[j] += step
                want[:, j] = (ic(vp) - ic(v)) / step
            np.testing.assert_array_equal(ic.linearize(v)[1], want)

    def test_eta_must_be_positive(self, bounds2):
        with pytest.raises(ValueError):
            cp.Interconnection(fn=lambda v: v, eta=[1.0, 0.0], bounds=bounds2)

    def test_probe_rejects_nonfinite(self, bounds2):
        with pytest.raises(ValueError):
            cp.Interconnection(fn=lambda V: np.full(V.shape, np.nan), eta=[1.0, 1.0],
                               bounds=bounds2)


def unchecked_linear(tmp_path, B):
    """The CLI's raw wrapper of a linear map that is not an M-matrix."""
    n = len(B)
    cfg = {"schema_version": 1,
           "system": {"type": "linear", "B": B.tolist(),
                      "bounds": {"lower": [-1.0] * n, "upper": [1.0] * n}},
           "agents": {"a": 1.0, "w": -0.5},
           "controller": {"mode": "decentralized", "kP": 2.0, "kI": 1.0, "kA": 0.4},
           "sim": {"t_span": [0.0, 1.0]}}
    path = tmp_path / "unchecked.cfg"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    ic = cli.build_scenario(cli.ScenarioConfig.load(path)).system.ic
    assert ic.allocator is None  # the unchecked fallback carries no allocator
    return ic


class TestStackContract:
    """fn maps an (m, n) stack to an (m, n) stack, row by row."""

    @pytest.fixture(scope="class")
    def instances(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        n = 7
        off = rng.uniform(0.0, 0.1, (n, n)) * (1.0 - np.eye(n))
        B_mm = np.diag(rng.uniform(1.0, 2.0, n)) - off
        B_bad = B_mm + 2.0 * off.T * (rng.random((n, n)) < 0.3)
        net, bld, _ = cp.build_dhn_scenario()
        coef = bld.heat_coefficient(net.n_consumers)
        return {
            "linear": (cp.LinearMMatrix(B_mm).as_interconnection(
                cp.SaturationBounds.symmetric(1.0, n)), lambda v: B_mm @ v),
            "linear-unchecked": (unchecked_linear(tmp_path_factory.mktemp("cfg"), B_bad),
                                 lambda v: B_bad @ v),
            "dhn": (cp.dhn_interconnection(net, bld), lambda v: coef * cp.solve_flows(net, v)),
        }

    @pytest.mark.parametrize("name", ["linear", "linear-unchecked", "dhn"])
    def test_rows_do_not_depend_on_the_stack(self, instances, name):
        ic, row_map = instances[name]
        n = ic.n
        rng = np.random.default_rng(1)
        for m in (1, n, n + 1, 1000):
            v = ic.bounds.sample(rng, m)
            out = ic(v)
            assert out.shape == (m, n)
            np.testing.assert_array_equal(out, ic.fn(v))
            for k in range(m):
                np.testing.assert_array_equal(out[k], ic(v[k]))
                np.testing.assert_array_equal(out[k], row_map(v[k]))

    @pytest.mark.parametrize("name", ["linear", "linear-unchecked", "dhn"])
    def test_empty_stack(self, instances, name):
        ic, _ = instances[name]
        assert ic.fn(np.empty((0, ic.n))).shape == (0, ic.n)
        assert ic(np.empty((0, ic.n))).shape == (0, ic.n)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
    def test_row_oriented_fn_refused(self, n):
        # at n = 6 the probe stack would otherwise have n rows, and B @ V
        # would mix its rows without any error
        B = np.eye(n) - 0.1 * (1.0 - np.eye(n))
        bounds = cp.SaturationBounds.symmetric(1.0, n)
        with pytest.raises(DimensionError, match=r"stack"):
            cp.Interconnection(fn=lambda v: B @ v, eta=np.ones(n), bounds=bounds)
        with pytest.raises(DimensionError, match=r"stack"):
            cp.Interconnection(fn=lambda V: B @ V[0], eta=np.ones(n), bounds=bounds)
        cp.Interconnection(fn=lambda V: (B @ V[..., None])[..., 0], eta=np.ones(n),
                           bounds=bounds)


class TestLinearMMatrix:
    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(ValueError):
            cp.LinearMMatrix([[1.0, 0.25], [-0.25, 1.0]])

    def test_power_iteration_weight(self):
        mm = cp.LinearMMatrix(B_REF)
        assert np.all(mm.eta > 0)
        assert np.all(mm.eta @ mm.B > 0)
        # symmetric matrix: the weight is uniform
        np.testing.assert_allclose(mm.eta, [1.0, 1.0], rtol=1e-9)

    def test_asymmetric_weight(self):
        B = np.array([[2.0, -0.5, 0.0], [-0.3, 1.5, -0.4], [0.0, -0.2, 1.0]])
        mm = cp.LinearMMatrix(B)
        assert np.all(mm.eta @ B > 0)
        # the Perron left eigenvector, at B's eigenvalue of smallest real part
        lam = np.min(np.linalg.eigvals(B).real)
        np.testing.assert_allclose(mm.eta @ B, lam * mm.eta, rtol=1e-12)
        assert np.max(mm.eta) == 1.0

    def test_weight_needs_a_positive_left_eigenvector(self):
        # eigenvalues -1 and 3: the left vector [1, 1] at -1 has eta^T B < 0
        with pytest.raises(ValueError):
            cp.positive_left_weight([[1.0, -2.0], [-2.0, 1.0]])

    def test_explicit_eta_validated(self):
        with pytest.raises(ValueError):
            cp.LinearMMatrix([[1.0, -2.0], [-2.0, 1.0]], eta=[1.0, 1.0])


class TestAssumption1:
    def test_mmatrix_passes(self, ic2):
        verdict = cp.check_assumption1(ic2, 10_000, rng_seed=0)
        assert verdict.passed
        assert verdict.n_checked == 10_000
        assert not verdict.counterexamples

    def test_every_seed_passes(self, ic2):
        for seed in range(5):
            assert cp.check_assumption1(ic2, 500, rng_seed=seed).passed

    def test_counterexample_matrix_fails(self):
        verdict = cp.check_assumption1(bad_matrix_interconnection(), 10_000, rng_seed=0)
        assert not verdict.passed
        kinds = {c.check for c in verdict.counterexamples}
        assert "competition (i)" in kinds

    def test_deterministic(self, ic2):
        v1 = cp.check_assumption1(ic2, 300, rng_seed=42)
        v2 = cp.check_assumption1(ic2, 300, rng_seed=42)
        assert v1.n_checked == v2.n_checked
        assert len(v1.counterexamples) == len(v2.counterexamples)
        assert len(v1.marginal) == len(v2.marginal)


class TestLemma1:
    def test_hand_pair(self, ic2):
        # v = (0,0) vs (1,0): moved-coordinate signed change 1.0 beats the
        # unmoved coordinate's |change| 0.25
        diff = ic2(np.array([1.0, 0.0])) - ic2(np.zeros(2))
        assert diff[0] == pytest.approx(1.0)
        assert abs(diff[1]) == pytest.approx(0.25)

    def test_mmatrix_passes(self, ic2):
        verdict = cp.check_lemma1(ic2, 10_000, rng_seed=0)
        assert verdict.passed

    def test_requires_distinct_pair(self, ic2):
        # identical draws are rejected, never counted
        verdict = cp.check_lemma1(ic2, 50, rng_seed=0)
        assert verdict.n_checked == 50


class TestLemma2:
    def test_consistent_pair(self, ic2):
        lo, hi = np.zeros(2), np.array([0.5, 0.5])
        assert np.all(ic2(hi) - ic2(lo) >= 0)
        assert np.all(hi > lo)

    def test_skipped_pair(self, ic2):
        diff = ic2(np.array([1.0, 0.0])) - ic2(np.zeros(2))
        assert not np.all(diff >= 0)  # hypothesis not met: pair is skipped

    def test_mmatrix_passes(self, ic2):
        verdict = cp.check_lemma2(ic2, 10_000, rng_seed=0)
        assert verdict.passed
        assert verdict.n_checked >= 1

    def test_counterexample_matrix_fails(self):
        verdict = cp.check_lemma2(bad_matrix_interconnection(), 10_000, rng_seed=0)
        assert not verdict.passed

    def test_inconclusive_when_no_qualifying_pairs(self):
        # outputs move in opposite directions unless the draw is identical,
        # so the ordered-output hypothesis never holds
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        bounds = cp.SaturationBounds.symmetric(1.0, 2)
        ic = cp.Interconnection(fn=lambda V: (B @ V[..., None])[..., 0], eta=np.ones(2),
                                bounds=bounds)
        verdict = cp.check_lemma2(ic, 200, rng_seed=0)
        assert verdict.inconclusive
        assert not verdict.passed

    def test_singular_jacobian_skips_only_those_pairs(self):
        # the Jacobian is singular on the half v_0 < 0 of the box; an infinite
        # margin lists every qualifying pair, so the skipped ones show
        calls = []

        def with_jacobian(singular_half):
            def jac(v):
                calls.append(tuple(v))
                return np.zeros((2, 2)) if singular_half and v[0] < 0 else B_REF
            return cp.Interconnection(fn=lambda V: (B_REF @ V[..., None])[..., 0], eta=np.ones(2),
                                      bounds=cp.SaturationBounds.symmetric(1.0, 2),
                                      linearization=lambda v: (B_REF @ v, jac(v)))

        regular = cp.check_lemma2(with_jacobian(False), 400, rng_seed=3, margin=np.inf)
        calls.clear()
        singular = cp.check_lemma2(with_jacobian(True), 400, rng_seed=3, margin=np.inf)
        skipped = {v for v in calls if v[0] < 0}
        kept = [c for c in regular.marginal if tuple(c.v_low) not in skipped]
        assert len(kept) < regular.n_checked
        assert singular.n_checked == len(kept)
        assert [c.sample for c in singular.marginal] == [c.sample for c in kept]
        for got, want in zip(singular.marginal, kept):
            np.testing.assert_array_equal(got.v_high, want.v_high)

    def test_lemmas_follow_assumption(self, ic2, dhn_small):
        # wherever the assumption checker passes, both lemma checkers must too
        for ic, n in ((ic2, 2000), (dhn_small[2], 300)):
            assert cp.check_assumption1(ic, n, rng_seed=5).passed
            assert cp.check_lemma1(ic, n, rng_seed=5).passed
            assert cp.check_lemma2(ic, n, rng_seed=5).passed
