import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreset_iht import (
    SparseRegressionProblem,
    WeightVector,
    gradient,
    objective,
    project_topk_excluding,
    project_topk_nonneg,
    restrict,
)
from coreset_iht.problem import _Columns, _frozen_array
from conftest import random_problem


class TestTypes:
    def test_problem_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="phi contains non-finite"):
                SparseRegressionProblem([[1.0, bad], [2.0, 3.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            SparseRegressionProblem([[1.0, 2.0]], [np.inf])

    def test_problem_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SparseRegressionProblem(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            SparseRegressionProblem(np.ones((2, 3)), np.ones(3))

    def test_from_columns_target_is_column_sum(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((7, 5))
        p = SparseRegressionProblem.from_columns(phi)
        tol = 1e-10 * p.n * np.max(np.abs(phi))
        assert np.max(np.abs(p.y - phi.sum(axis=1))) <= tol
        assert p.n == 5 and p.s_dim == 7

    def test_problem_arrays_immutable(self):
        p = SparseRegressionProblem(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            p.phi[0, 0] = 3.0

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector([1.0, -0.5])

    def test_weight_vector_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeightVector([1.0, np.nan])

    def test_weight_vector_support_sorted_nonzeros(self):
        w = WeightVector([0.0, 2.0, 0.0, 1.0])
        assert w.support.tolist() == [1, 3]
        assert w.sparsity == 2
        assert len(w) == 4


class TestFrozenArray:
    def test_owned_read_only_array_is_shared(self):
        a = np.asarray(np.arange(12.0).reshape(3, 4), order="F")
        a.setflags(write=False)
        assert _frozen_array(a, order="F") is a
        assert _frozen_array(a) is a
        problem = SparseRegressionProblem(a, np.ones(3))
        assert problem.phi is a

    def test_writable_array_is_copied(self):
        a = np.arange(6.0)
        out = _frozen_array(a)
        assert not np.shares_memory(out, a) and not out.flags.writeable
        assert a.flags.writeable
        a[0] = 7.0
        assert out[0] == 0.0

    def test_read_only_view_of_writable_base_is_copied(self):
        base = np.arange(12.0).reshape(3, 4)
        view = base[:, :2]
        view.setflags(write=False)
        out = _frozen_array(view)
        assert not np.shares_memory(out, base)
        base[0, 0] = 7.0
        assert out[0, 0] == 0.0

    def test_other_layout_or_dtype_is_copied(self):
        a = np.arange(12.0).reshape(3, 4)
        a.setflags(write=False)
        out = _frozen_array(a, order="F")
        assert out is not a and out.flags.f_contiguous
        assert _frozen_array(a, dtype=np.float32) is not a


class TestLayout:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_problem_keeps_input_layout(self, order):
        phi = np.asarray(np.random.default_rng(0).standard_normal((6, 9)), order=order)
        problem = SparseRegressionProblem(phi, np.ones(6))
        assert problem.phi.flags.c_contiguous == (order == "C")
        assert problem.phi.flags.f_contiguous == (order == "F")
        assert np.array_equal(problem.phi, phi)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("count,gathered", [(1, True), (50, True), (51, False), (400, False)])
    def test_columns_products_match_dense(self, order, count, gathered):
        # 1/8 of the 400 columns are gathered; past that, products read all
        # of phi. Both give the dense result on either layout.
        rng = np.random.default_rng(count)
        phi = np.asarray(rng.standard_normal((30, 400)), order=order)
        idx = np.sort(rng.choice(400, count, replace=False))
        v = np.zeros(400)
        v[idx] = rng.standard_normal(count)
        r = rng.standard_normal(30)
        cols = _Columns(phi, idx)
        assert (cols.cols is not None) == gathered
        image, grad = phi @ v, -2.0 * (phi.T @ r)[idx]
        assert np.linalg.norm(cols.image(v) - image) <= 1e-12 * np.linalg.norm(image)
        assert np.linalg.norm(cols.gradient(r) - grad) <= 1e-12 * np.linalg.norm(grad)


class TestObjective:
    def test_zero_residual(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal((6, 4))
        w = np.abs(rng.standard_normal(4))
        p = SparseRegressionProblem(phi, phi @ w)
        assert objective(p, w) == 0.0

    def test_zero_weights_give_target_norm(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, 5, 3)
        assert objective(p, np.zeros(3)) == pytest.approx(float(p.y @ p.y), rel=1e-15)

    def test_matches_scalar_resummation(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((4, 6))
        y = rng.standard_normal(4)
        w = np.abs(rng.standard_normal(6))
        p = SparseRegressionProblem(phi, y)
        total = 0.0
        for row in range(4):
            r = y[row]
            for col in range(6):
                r -= phi[row, col] * w[col]
            total += r * r
        assert objective(p, w) == pytest.approx(total, rel=1e-12)

    def test_dimension_mismatch(self):
        p = SparseRegressionProblem(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            objective(p, np.ones(4))

    def test_accepts_weight_vector(self):
        p = SparseRegressionProblem(np.eye(3), np.ones(3))
        assert objective(p, WeightVector([1.0, 1.0, 1.0])) == 0.0

    def test_nonnegative_and_positive_off_optimum(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            p = random_problem(rng, 6, 5, y_scale=2.0)
            w = np.abs(rng.standard_normal(5))
            f = objective(p, w)
            assert f >= 0.0
            if np.max(np.abs(p.y - p.phi @ w)) > 1e-8:
                assert f > 0.0


class TestGradient:
    def test_zero_residual_gives_zero_vector(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((6, 4))
        w = np.abs(rng.standard_normal(4))
        p = SparseRegressionProblem(phi, phi @ w)
        assert np.array_equal(gradient(p, w), np.zeros(4))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s, n = rng.integers(2, 15), rng.integers(2, 15)
            p = random_problem(rng, s, n)
            w = np.abs(rng.standard_normal(n))
            g = gradient(p, w)
            h = 1e-5
            fd = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd[i] = (objective(p, w + e) - objective(p, w - e)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(g))))
            np.testing.assert_allclose(fd, g, rtol=1e-5, atol=1e-6 * scale)

    def test_zero_weights(self):
        rng = np.random.default_rng(6)
        p = random_problem(rng, 5, 4)
        expected = -2.0 * (p.phi.T @ p.y)
        assert np.array_equal(gradient(p, np.zeros(4)), expected)

    def test_dimension_mismatch(self):
        p = SparseRegressionProblem(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            gradient(p, np.ones(2))


def _brute_force_projection(v, k):
    """All C(n,k) supports, non-negative clipping on each, distance argmin."""
    n = v.shape[0]
    best_dist = np.inf
    best_u = None
    for support in itertools.combinations(range(n), k):
        u = np.zeros(n)
        for i in support:
            u[i] = max(v[i], 0.0)
        dist = float(np.linalg.norm(v - u) ** 2)
        if dist < best_dist:
            best_dist, best_u = dist, u
    return best_u, best_dist


class TestProjectTopkNonneg:
    def test_top2_example(self):
        w = project_topk_nonneg([3.0, -5.0, 1.0, 2.0], 2)
        assert w.w.tolist() == [3.0, 0.0, 0.0, 2.0]

    def test_identity_on_feasible(self):
        v = np.array([0.0, 2.5, 0.0, 0.0, 1.0])
        assert np.array_equal(project_topk_nonneg(v, 2).w, v)
        assert np.array_equal(project_topk_nonneg(v, 4).w, v)

    def test_all_negative_gives_zero(self):
        w = project_topk_nonneg([-1.0, -2.0, -0.5], 2)
        assert not w.w.any()

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            project_topk_nonneg([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            project_topk_nonneg([1.0, 2.0], 3)

    def test_tie_break_lowest_index(self):
        w = project_topk_nonneg([2.0, 2.0, 2.0], 2)
        assert w.support.tolist() == [0, 1]

    @pytest.mark.parametrize("v", [[np.nan, 1.0, 2.0], [1.0, -np.nan], [np.nan]])
    def test_nan_refused(self, v):
        # Clipping read a NaN as weight 0, while +inf was refused.
        with pytest.raises(ValueError, match="NaN"):
            project_topk_nonneg(v, 1)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(n, 4) + 1))
            v = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            proj = project_topk_nonneg(v, k)
            best_u, best_dist = _brute_force_projection(v, k)
            assert np.array_equal(proj.w, best_u)
            assert float(np.linalg.norm(v - proj.w) ** 2) == pytest.approx(best_dist, rel=1e-12)


class TestProjectTopkExcluding:
    def test_magnitude_ranking_example(self):
        idx = project_topk_excluding([5.0, 1.0, -7.0, 2.0], 2, {0})
        assert idx.tolist() == [2, 3]

    def test_all_excluded_gives_empty(self):
        idx = project_topk_excluding([1.0, 2.0], 1, {0, 1})
        assert idx.size == 0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.standard_normal(10)
            excluded = set(int(i) for i in rng.choice(10, size=rng.integers(0, 6), replace=False))
            got = project_topk_excluding(v, 3, excluded)
            ranked = sorted((i for i in range(10) if i not in excluded),
                            key=lambda i: (-abs(v[i]), i))
            assert sorted(got.tolist()) == sorted(ranked[:3])

    @pytest.mark.parametrize("excluded", [[], [0]])
    def test_nan_refused(self, excluded):
        # A NaN took the k-th place and was then dropped, so k = 2 gave [2]
        # although index 1 is a candidate.
        with pytest.raises(ValueError, match="NaN"):
            project_topk_excluding([np.nan, 1.0, 2.0], 2, excluded)

    def test_infinite_magnitude_ranks_first(self):
        idx = project_topk_excluding([1.0, -np.inf, 2.0, np.inf], 2, [])
        assert idx.tolist() == [1, 3]

    def test_out_of_range_excluded(self):
        with pytest.raises(ValueError):
            project_topk_excluding([1.0, 2.0], 1, {5})

    @pytest.mark.parametrize("excluded", [
        [False, False, True, True, False], np.array([False, False, True, True, False]),
        [2.0, 3.0], np.array([2.5])])
    def test_mask_or_float_indices_refused(self, excluded):
        # A cast would read the mask as the indices 0 and 1 and answer [2, 3].
        with pytest.raises(TypeError, match="excluded"):
            project_topk_excluding([5.0, 4.0, 3.0, 2.0, 1.0], 2, excluded)

    def test_integer_iterables_and_arrays(self):
        frozen = np.array([0, 1])
        frozen.setflags(write=False)
        for excluded in ([0, 1], (1, 0), {0, 1}, range(2), np.array([0, 1], dtype=np.int32),
                         np.array([1, 0], dtype=np.uint8), frozen):
            got = project_topk_excluding([5.0, 4.0, 3.0, 2.0, 1.0], 2, excluded)
            assert got.tolist() == [2, 3]


def stable_sort_topk_nonneg(v, k):
    """Reference projection: the first k of a stable descending argsort."""
    clipped = np.where(v > 0, v, 0.0)
    keep = np.argsort(-clipped, kind="stable")[:k]
    out = np.zeros(v.shape[0])
    out[keep] = clipped[keep]
    return out


def stable_sort_topk_excluding(v, k, excluded):
    mask = np.ones(v.shape[0], dtype=bool)
    mask[list(excluded)] = False
    candidates = np.flatnonzero(mask)
    order = np.argsort(-np.abs(v[candidates]), kind="stable")
    return np.sort(candidates[order[:k]])


@st.composite
def vectors_and_k(draw):
    """Short vectors over a few repeated values (ties, signed zeros,
    negatives) mixed with arbitrary finite floats, and k often close to n."""
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(
        -1e6, 1e6, allow_nan=False, allow_subnormal=False)
    v = np.array(draw(st.lists(values, min_size=1, max_size=24)))
    n = v.shape[0]
    k = draw(st.integers(1, n) | st.integers(max(1, n - 2), n))
    excluded = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return v, k, excluded


class TestTopkAgainstStableSort:
    @settings(max_examples=300, deadline=None)
    @given(vectors_and_k())
    def test_nonneg_projection(self, case):
        v, k, _ = case
        assert np.array_equal(project_topk_nonneg(v, k).w, stable_sort_topk_nonneg(v, k))

    @settings(max_examples=300, deadline=None)
    @given(vectors_and_k())
    def test_excluding_selection(self, case):
        v, k, excluded = case
        got = project_topk_excluding(v, k, excluded)
        assert np.array_equal(got, stable_sort_topk_excluding(v, k, excluded))
        assert got.dtype == np.int64


class TestRestrict:
    def test_full_support_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(restrict(v, [0, 1, 2]), v)

    def test_empty_support_zero(self):
        assert not restrict(np.array([1.0, 2.0]), []).any()

    def test_definition(self):
        assert restrict(np.array([1.0, 2.0, 3.0]), {1}).tolist() == [0.0, 2.0, 0.0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(np.array([1.0, 2.0]), [2])

    @pytest.mark.parametrize("support", [
        [False, False, True, True, False], np.array([False, False, True, True, False]),
        [2.0, 3.0], np.array([2.5])])
    def test_mask_or_float_indices_refused(self, support):
        # A cast would read the mask as the indices 0 and 1 and answer
        # [5, 4, 0, 0, 0].
        with pytest.raises(TypeError, match="support"):
            restrict([5.0, 4.0, 3.0, 2.0, 1.0], support)

    def test_integer_iterables_and_arrays(self):
        frozen = np.array([2, 3])
        frozen.setflags(write=False)
        for support in ([2, 3], (3, 2), {2, 3}, range(2, 4), np.array([2, 3], dtype=np.int32),
                        np.array([3, 2], dtype=np.uint8), frozen):
            assert restrict([5.0, 4.0, 3.0, 2.0, 1.0], support).tolist() == [
                0.0, 0.0, 3.0, 2.0, 0.0]

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal(8)
            u = rng.standard_normal(8)
            support = rng.choice(8, size=3, replace=False)
            a, b = rng.standard_normal(2)
            once = restrict(v, support)
            assert np.array_equal(restrict(once, support), once)
            np.testing.assert_allclose(
                restrict(a * v + b * u, support),
                a * restrict(v, support) + b * restrict(u, support),
                rtol=1e-12, atol=1e-12)
