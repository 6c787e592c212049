import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from coreset_iht import (
    EnumerationBudgetError,
    GaussianDist,
    NegativeKlError,
    RipConstants,
    SolverConfig,
    SparseRegressionProblem,
    WeightVector,
    brute_force_optimum,
    check_iterative_invariant,
    conjugate_posterior,
    contraction_factor,
    coreset_kl,
    decay_rate,
    estimate_rip,
    full_data_posterior,
    gaussian_kl,
    make_planted_problem,
    map_l2_distance,
    nnls_on_support,
    posterior_approximation,
    synth_gaussian_dataset,
)

from coreset_iht.evaluation import isometry_levels

from conftest import radial_basis_prior_and_posterior


class TestGaussianKl:
    def test_identical_inputs(self):
        d = GaussianDist([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert gaussian_kl(d, d) <= 1e-12

    def test_unit_mean_shift(self):
        p = GaussianDist([0.0], [[1.0]])
        q = GaussianDist([1.0], [[1.0]])
        assert gaussian_kl(p, q) == pytest.approx(0.5, rel=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        p = GaussianDist(rng.standard_normal(3), a @ a.T + np.eye(3))
        q = GaussianDist(rng.standard_normal(3), b @ b.T + np.eye(3))
        kl = gaussian_kl(p, q)
        draws = p.sample(np.random.default_rng(1), 1_000_000)
        diff_p = draws - p.mean
        diff_q = draws - q.mean
        from scipy.linalg import solve_triangular
        up = solve_triangular(p.chol, diff_p.T, lower=True)
        uq = solve_triangular(q.chol, diff_q.T, lower=True)
        logdet_p = 2 * np.sum(np.log(np.diag(p.chol)))
        logdet_q = 2 * np.sum(np.log(np.diag(q.chol)))
        log_ratio = 0.5 * ((uq * uq).sum(axis=0) - (up * up).sum(axis=0)
                           + logdet_q - logdet_p)
        se = log_ratio.std(ddof=1) / math.sqrt(log_ratio.shape[0])
        assert abs(kl - log_ratio.mean()) <= 3 * se

    def test_matches_triangular_solve_on_radial_basis(self):
        # d = 301; cond(chol) <= 122 for both, so 1e-12 is about 100 cond(chol) eps
        from scipy.linalg import solve_triangular

        prior, post = radial_basis_prior_and_posterior()
        for p, q in ((prior, post), (post, prior)):
            m = solve_triangular(q.chol, p.chol, lower=True)
            u = solve_triangular(q.chol, q.mean - p.mean, lower=True)
            ref = 0.5 * (np.sum(m * m) + u @ u - p.dim + 2.0 * np.sum(np.log(np.diag(q.chol)))
                         - 2.0 * np.sum(np.log(np.diag(p.chol))))
            assert gaussian_kl(p, q) == pytest.approx(ref, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_kl(GaussianDist([0.0], [[1.0]]),
                        GaussianDist([0.0, 0.0], np.eye(2)))

    def test_strongly_negative_result_raises_typed_error(self):
        # KL >= 0 in exact arithmetic, so only a broken inverse Cholesky
        # factor can drive it below -1e-9; a zero factor gives -d/2.
        d = GaussianDist([0.0, 0.0], np.eye(2))
        broken = GaussianDist([0.0, 0.0], np.eye(2))
        object.__setattr__(broken, "chol_inv", np.zeros((2, 2)))
        with pytest.raises(NegativeKlError, match="strongly negative"):
            gaussian_kl(d, broken)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            p = GaussianDist(rng.standard_normal(2), a @ a.T + np.eye(2))
            q = GaussianDist(rng.standard_normal(2), b @ b.T + np.eye(2))
            assert gaussian_kl(p, q) >= 0.0


class TestCoresetKl:
    def test_all_ones_is_zero_everywhere(self):
        model = synth_gaussian_dataset(3, 12, seed=0)
        w = np.ones(12)
        full, coreset = full_data_posterior(model), posterior_approximation(model, w)
        for direction in ("forward", "reverse", "symmetrized"):
            assert coreset_kl(full, coreset, direction) <= 1e-10

    def test_symmetrized_is_sum(self):
        model = synth_gaussian_dataset(3, 12, seed=1)
        w = np.zeros(12)
        w[[1, 5, 7]] = [4.0, 2.0, 6.0]
        full, coreset = full_data_posterior(model), posterior_approximation(model, w)
        f = coreset_kl(full, coreset, "forward")
        r = coreset_kl(full, coreset, "reverse")
        s = coreset_kl(full, coreset, "symmetrized")
        assert s == f + r

    def test_matches_hand_assembled_conjugate_posteriors(self):
        model = synth_gaussian_dataset(2, 10, seed=2)
        w = np.zeros(10)
        w[[0, 4]] = [3.0, 7.0]
        full = conjugate_posterior(model, np.ones(10))
        coreset = conjugate_posterior(model, w)
        fitted = full_data_posterior(model), posterior_approximation(model, w)
        assert coreset_kl(*fitted, "forward") == pytest.approx(
            gaussian_kl(full, coreset), rel=1e-12)
        assert coreset_kl(*fitted, "reverse") == pytest.approx(
            gaussian_kl(coreset, full), rel=1e-12)

    def test_bad_direction(self):
        model = synth_gaussian_dataset(2, 4, seed=3)
        full = full_data_posterior(model)
        with pytest.raises(ValueError):
            coreset_kl(full, full, "sideways")


class TestMapDistance:
    def test_all_ones_zero(self):
        model = synth_gaussian_dataset(3, 8, seed=4)
        assert map_l2_distance(full_data_posterior(model),
                               posterior_approximation(model, np.ones(8))) == 0.0

    def test_equals_conjugate_mean_distance(self):
        model = synth_gaussian_dataset(3, 8, seed=5)
        w = np.zeros(8)
        w[[2, 6]] = [5.0, 3.0]
        full = conjugate_posterior(model, np.ones(8))
        coreset = conjugate_posterior(model, w)
        expected = float(np.linalg.norm(full.mean - coreset.mean))
        assert map_l2_distance(full_data_posterior(model), posterior_approximation(
            model, w)) == pytest.approx(expected, rel=1e-12)


class TestRipConstants:
    def test_identity_matrix(self):
        p = SparseRegressionProblem(np.eye(4), np.ones(4))
        rip = estimate_rip(p, 1)
        for s in (1, 2, 3, 4):
            assert rip.alpha_at(s) == pytest.approx(1.0, abs=1e-12)
            assert rip.beta_at(s) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_singular_values(self):
        p = SparseRegressionProblem(np.diag([1.0, 2.0]), np.ones(2))
        rip = estimate_rip(p, 1)
        assert rip.alpha_at(1) == pytest.approx(1.0, abs=1e-12)
        assert rip.beta_at(1) == pytest.approx(4.0, abs=1e-12)

    def test_matches_independent_eigen_oracle(self):
        rng = np.random.default_rng(6)
        phi = rng.standard_normal((6, 8))
        p = SparseRegressionProblem(phi, rng.standard_normal(6))
        rip = estimate_rip(p, 2)
        lo, hi = np.inf, -np.inf
        for support in itertools.combinations(range(8), 2):
            sub = phi[:, support]
            evs = np.linalg.eigvalsh(sub.T @ sub)
            lo = min(lo, evs[0])
            hi = max(hi, evs[-1])
        assert rip.alpha_at(2) == pytest.approx(lo, rel=1e-12)
        assert rip.beta_at(2) == pytest.approx(hi, rel=1e-12)

    def test_budget_refusal(self):
        rng = np.random.default_rng(7)
        p = SparseRegressionProblem(rng.standard_normal((4, 8)), np.zeros(4))
        with pytest.raises(EnumerationBudgetError):
            estimate_rip(p, 2, budget=10)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(8)
        p = SparseRegressionProblem(rng.standard_normal((12, 7)), np.zeros(12))
        rip = estimate_rip(p, 1)
        assert list(rip.alpha) == sorted(rip.alpha, reverse=True)
        assert list(rip.beta) == sorted(rip.beta)

    def test_certifies_random_sparse_probes(self):
        rng = np.random.default_rng(9)
        phi = rng.standard_normal((15, 9))
        p = SparseRegressionProblem(phi, np.zeros(15))
        rip = estimate_rip(p, 1)
        for s in (2, 3):
            lo, hi = rip.alpha_at(s), rip.beta_at(s)
            for _ in range(10_000):
                support = rng.choice(9, size=s, replace=False)
                v = np.zeros(9)
                v[support] = rng.standard_normal(s)
                ratio = float(np.linalg.norm(phi @ v) ** 2 / (v @ v))
                assert lo - 1e-9 <= ratio <= hi + 1e-9

    @pytest.mark.parametrize("k,n,levels", [
        (2, 10, (2, 4, 6, 8)),
        (2, 6, (2, 4, 6)),
        (4, 4, (4,)),
    ], ids=["unclamped", "clamped", "k_equals_n"])
    def test_levels_are_the_bounds(self, k, n, levels):
        rng = np.random.default_rng(11)
        p = SparseRegressionProblem(rng.standard_normal((12, n)), np.zeros(12))
        rip = estimate_rip(p, k)
        assert rip.levels == levels == tuple(sorted(set(isometry_levels(k, n))))

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, k):
        p = SparseRegressionProblem(np.eye(4), np.ones(4))
        with pytest.raises(ValueError, match=rf"k must be in \[1, 4\], got {k}"):
            estimate_rip(p, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            RipConstants((1, 2), (0.5, 1.0), (1.0, 2.0))  # alpha increasing
        with pytest.raises(ValueError):
            RipConstants((1,), (2.0,), (1.0,))  # alpha > beta

    @pytest.mark.parametrize("levels", [(2, 1), (1, 1)], ids=["out_of_order", "repeated"])
    def test_levels_strictly_increasing(self, levels):
        with pytest.raises(ValueError, match="levels must be strictly increasing"):
            RipConstants(levels, (1.0, 1.0), (1.0, 1.0))

    def test_json_round_trip(self):
        rip = RipConstants((1, 2), (2.0, 1.5), (3.0, 4.0))
        payload = json.loads(json.dumps(rip.to_dict()))
        assert payload == {"levels": [1, 2], "alpha": [2.0, 1.5], "beta": [3.0, 4.0]}


class TestBruteForceOptimum:
    def test_recovers_planted_solution(self):
        problem, planted = make_planted_problem(9, 20, 2, seed=0)
        w, f = brute_force_optimum(problem, 2)
        assert f <= 1e-18
        assert np.array_equal(w.support, planted.support)
        np.testing.assert_allclose(w.w, planted.w, atol=1e-9)

    def test_matches_scipy_nnls_per_support(self):
        rng = np.random.default_rng(10)
        phi = rng.standard_normal((10, 7))
        y = rng.standard_normal(10) * 2
        problem = SparseRegressionProblem(phi, y)
        w, f = brute_force_optimum(problem, 2)
        best_f = np.inf
        best_w = None
        for support in itertools.combinations(range(7), 2):
            sub = phi[:, support]
            u, _ = scipy_nnls(sub, y)
            r = y - sub @ u
            if float(r @ r) < best_f:
                best_f = float(r @ r)
                best_w = np.zeros(7)
                best_w[list(support)] = u
        assert f == pytest.approx(best_f, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(w.w, best_w, atol=1e-7)

    def test_budget_refusal(self):
        rng = np.random.default_rng(11)
        problem = SparseRegressionProblem(rng.standard_normal((4, 10)), np.zeros(4))
        with pytest.raises(EnumerationBudgetError):
            brute_force_optimum(problem, 3, budget=5)

    def test_nnls_on_support_kkt(self):
        rng = np.random.default_rng(12)
        phi = rng.standard_normal((12, 4))
        y = rng.standard_normal(12) * 3
        u = nnls_on_support(phi, y)
        ref, _ = scipy_nnls(phi, y)
        np.testing.assert_allclose(u, ref, atol=1e-9)

    def test_nnls_on_support_ill_conditioned_block(self):
        # Two columns 1e-4 apart: a fixed-step projected gradient stalls far
        # from the optimum along their difference.
        rng = np.random.default_rng(13)
        phi = rng.standard_normal((50, 3))
        phi[:, 1] = phi[:, 0] + 1e-4 * rng.standard_normal(50)
        y = phi @ np.array([0.5, 0.5, 1.0])
        ref, _ = scipy_nnls(phi, y)
        np.testing.assert_allclose(nnls_on_support(phi, y), ref, atol=1e-9)

    @pytest.mark.parametrize("block", ["duplicate_column", "wide", "tied_entry"])
    def test_nnls_on_support_degenerate_block_meets_kkt(self, block):
        rng = np.random.default_rng(14)
        if block == "duplicate_column":
            phi = rng.standard_normal((12, 5))
            phi[:, 3] = phi[:, 1]
            y = phi @ np.array([1.0, 2.0, 0.0, 0.0, 1.0]) + 0.1 * rng.standard_normal(12)
        elif block == "wide":
            phi = rng.standard_normal((4, 9))
            y = 3.0 * rng.standard_normal(4)
        else:
            # Rounding breaks the tie between columns 0 and 2 after column 1
            # enters; either way the step back to the boundary runs. Both
            # (0.5, 0, 0.5) and (1, 0.5, 0) fit y exactly.
            phi = np.array([[0.0, 2.0, 2.0], [1.0, -2.0, -1.0]])
            y = np.array([1.0, 0.0])
        u = nnls_on_support(phi, y)
        assert_nnls_optimal(phi, y, u)
        if block == "duplicate_column":
            # Columns 1 and 3 tie exactly at every point: the lower index
            # enters, and column 3, dependent on it, never does.
            assert (phi.T @ y)[1] == (phi.T @ y)[3]
            assert u[1] > 0 and u[3] == 0

    def test_nnls_on_support_steps_back_to_the_boundary(self, monkeypatch):
        # Column 1 enters, then column 0; column 2 enters next and its least
        # squares puts column 1 at -1, so the step from (2/3, 1/3, 0) stops a
        # quarter of the way at (2, 0, 1), where column 1 leaves. The fit on
        # columns 0 and 2 is the answer. Full column rank: the minimizer is
        # unique.
        phi = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, -1.0], [-1.0, -2.0, 1.0]])
        y = np.array([2.0, 2.0, 0.0])
        fitted, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda a, b, rcond: fitted.append(a.shape[1]) or lstsq(a, b, rcond))
        u = nnls_on_support(phi, y)
        monkeypatch.undo()
        assert fitted == [1, 2, 3, 2]
        np.testing.assert_allclose(u, [3.0, 0.0, 2.0], rtol=0, atol=1e-14)
        assert_nnls_optimal(phi, y, u)

    def test_nnls_on_support_random_blocks_match_scipy(self):
        # About one block in eight steps back to the boundary.
        rng = np.random.default_rng(0)
        for _ in range(300):
            m, k = rng.integers(3, 12, size=2)
            phi = rng.standard_normal((m, k))
            y = rng.standard_normal(m)
            assert_nnls_optimal(phi, y, nnls_on_support(phi, y))


def assert_nnls_optimal(phi, y, u):
    """``u`` has scipy's NNLS objective to 1e-12 ||y||^2 and meets the
    KKT conditions: u >= 0, gradient zero on the support and non-negative
    off it."""
    ref, _ = scipy_nnls(phi, y)
    f, f_ref = (float(np.sum((phi @ v - y) ** 2)) for v in (u, ref))
    assert f == pytest.approx(f_ref, rel=0, abs=1e-12 * float(y @ y))
    grad = phi.T @ (phi @ u - y)
    tol = 1e-9 * np.linalg.norm(phi) * np.linalg.norm(y)
    assert np.all(u >= 0)
    assert np.all(grad[u == 0] >= -tol)
    np.testing.assert_allclose(grad[u > 0], 0.0, atol=tol)


class TestContractionFactor:
    def test_hand_computed_value(self):
        rip = RipConstants((2, 4, 6, 8), (0.8,) * 4, (1.2,) * 4)
        # 2*max(1.2/0.8 - 1, 1 - 0.8/1.2) + (1.2 - 0.8)/0.8 = 2*0.5 + 0.5
        assert contraction_factor(rip, 2, 10) == pytest.approx(1.5, rel=1e-12)

    def test_missing_level_named(self):
        rip = RipConstants((2, 4), (0.8,) * 2, (1.2,) * 2)
        with pytest.raises(ValueError, match="no isometry constants at level 6"):
            contraction_factor(rip, 2, 10)

    def test_decay_rate_formula(self):
        rho, tau = 0.3, 0.2
        expected = (rho * 1.2 + math.sqrt((rho * 1.2) ** 2 + 4 * rho * tau)) / 2
        assert decay_rate(rho, tau) == pytest.approx(expected, rel=1e-14)


class TestIterativeInvariant:
    def test_fixed_point_at_origin(self):
        problem = SparseRegressionProblem(np.eye(4), np.zeros(4))
        rip = estimate_rip(problem, 2)
        report = check_iterative_invariant(problem, SolverConfig(k=2),
                                           WeightVector(np.zeros(4)), rip)
        assert report["all_satisfied"]
        assert report["residual_norm"] == 0.0
        assert report["entries"][0]["error"] == 0.0

    def test_missing_level_rejected(self):
        problem, _ = make_planted_problem(8, 20, 2, seed=1)
        rip = estimate_rip(problem, 1)  # levels 1..4, not k = 2's 6 and 8
        with pytest.raises(ValueError, match="no isometry constants at level 6"):
            check_iterative_invariant(problem, SolverConfig(k=2),
                                      WeightVector(np.zeros(8)), rip)

    def test_holds_on_certified_instances(self):
        for seed in range(20):
            problem, _ = make_planted_problem(10, 30, 2, seed=seed)
            rip = estimate_rip(problem, 2)
            w_star, f_star = brute_force_optimum(problem, 2)
            assert f_star <= 1e-16
            cfg = SolverConfig(k=2, rel_tol=1e-12)
            report = check_iterative_invariant(problem, cfg, w_star, rip)
            assert report["all_satisfied"]
            assert report["contraction"] >= 0 and report["rate"] >= 0

    def test_linear_rate_regime_and_decay_envelope(self):
        hit_regime = 0
        for seed in range(8):
            problem, _ = make_planted_problem(10, 30, 2, seed=seed,
                                              near_orthonormal=True)
            rip = estimate_rip(problem, 2)
            w_star, _ = brute_force_optimum(problem, 2)
            cfg = SolverConfig(k=2, rel_tol=1e-12)
            report = check_iterative_invariant(problem, cfg, w_star, rip)
            assert report["all_satisfied"]
            if not report["linear_rate"]:
                continue
            hit_regime += 1
            fs = np.array(report["objectives"])
            ts = np.flatnonzero(fs > 0)
            if ts.size >= 3:
                slope = np.polyfit(ts, np.log(fs[ts]), 1)[0]
                assert slope <= math.log(report["rate"]) + 0.1
        assert hit_regime >= 4

    def test_report_json(self):
        problem, _ = make_planted_problem(8, 20, 2, seed=2)
        rip = estimate_rip(problem, 2)
        w_star, _ = brute_force_optimum(problem, 2)
        report = check_iterative_invariant(problem, SolverConfig(k=2), w_star, rip)
        assert list(report) == ["contraction", "rate", "momentum_max", "residual_norm",
                                "linear_rate", "all_satisfied", "objectives", "entries"]
        assert list(report["entries"][0]) == ["iteration", "error", "bound", "satisfied"]
        assert report["all_satisfied"] is all(e["satisfied"] for e in report["entries"])
        assert report["linear_rate"] is (
            report["contraction"] < 1.0 / (1.0 + 2.0 * report["momentum_max"]))
        assert json.loads(json.dumps(report)) == report
