import math

import numpy as np
import pytest
from scipy.optimize import minimize

from coreset_iht import (
    BayesianModel,
    Dataset,
    GaussianDist,
    LikelihoodError,
    build_projection,
    conjugate_posterior,
    laplace_approximation,
    load_csv_dataset,
    log_likelihood,
    objective,
    posterior_approximation,
    save_csv_dataset,
    synth_gaussian_dataset,
    synth_glm_dataset,
    synth_radial_basis_model,
)
from coreset_iht.models import CONJUGATE_KINDS, MODEL_KINDS


def gaussian_mean_model(x, obs_cov=None, prior_var=1.0):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    return BayesianModel(
        kind="gaussian_mean",
        dataset=Dataset(x, np.zeros(x.shape[0])),
        prior=GaussianDist(np.zeros(d), prior_var * np.eye(d)),
        obs_cov=np.eye(d) if obs_cov is None else obs_cov,
    )


def small_model(kind, seed=0):
    """A 12-point model of each kind with a non-trivial prior and likelihood."""
    rng = np.random.default_rng(seed)
    if kind in ("logistic", "poisson"):
        return synth_glm_dataset(kind, 12, d=2, seed=seed)
    x = rng.standard_normal((12, 3))
    prior = GaussianDist(rng.standard_normal(3), np.diag(rng.uniform(0.5, 2.0, 3)))
    if kind == "gaussian_mean":
        a = rng.standard_normal((3, 3))
        return BayesianModel(kind=kind, dataset=Dataset(x, np.zeros(12)), prior=prior,
                             obs_cov=a @ a.T + np.eye(3))
    return BayesianModel(kind=kind, dataset=Dataset(x, rng.standard_normal(12)),
                         prior=prior, noise_var=0.7)


class TestGaussianDist:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError):
            GaussianDist([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite_cov(self):
        with pytest.raises(ValueError):
            GaussianDist([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_logpdf_matches_direct_formula(self):
        d = GaussianDist([1.0], [[4.0]])
        x = 2.0
        expected = -0.5 * (np.log(2 * np.pi * 4.0) + (x - 1.0) ** 2 / 4.0)
        assert d.logpdf([x]) == pytest.approx(expected, rel=1e-12)

    def test_sampling_moments(self):
        dist = GaussianDist([2.0, -1.0], [[2.0, 0.3], [0.3, 0.5]])
        draws = dist.sample(np.random.default_rng(0), 200_000)
        np.testing.assert_allclose(draws.mean(axis=0), dist.mean, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), dist.cov, atol=0.03)


class TestModelValidation:
    def test_logistic_labels_checked(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            BayesianModel(kind="logistic", dataset=Dataset([[0.1]], [2.0]), prior=prior)

    def test_poisson_targets_checked(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            BayesianModel(kind="poisson", dataset=Dataset([[0.1]], [1.5]), prior=prior)

    def test_linear_regression_needs_noise_var(self):
        prior = GaussianDist(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            BayesianModel(kind="linear_regression", dataset=Dataset([[1.0]], [0.5]),
                          prior=prior)

    def test_prior_dim_must_match(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))  # logistic over 1 feature needs dim 2
        BayesianModel(kind="logistic", dataset=Dataset([[0.1]], [1.0]), prior=prior)
        with pytest.raises(ValueError):
            BayesianModel(kind="logistic", dataset=Dataset([[0.1, 0.2]], [1.0]), prior=prior)


class TestLogLikelihood:
    def test_logistic_at_zero_theta(self):
        model = synth_glm_dataset("logistic", 10, seed=0)
        theta = np.zeros(3)
        for i in range(10):
            assert log_likelihood(model, i, theta) == pytest.approx(math.log(0.5), rel=1e-12)

    def test_gaussian_mean_at_data_point(self):
        model = gaussian_mean_model([[0.3, -1.2]])
        value = log_likelihood(model, 0, np.array([0.3, -1.2]))
        assert value == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    def test_poisson_matches_direct_evaluation(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        model = BayesianModel(kind="poisson", dataset=Dataset([[0.4], [-1.2]], [2.0, 0.0]),
                              prior=prior)
        theta = np.array([0.7, -0.3])
        for i, (x, y) in enumerate([(0.4, 2.0), (-1.2, 0.0)]):
            rate = math.log1p(math.exp(0.7 * x - 0.3))
            expected = y * math.log(rate) - rate - math.lgamma(y + 1.0)
            assert log_likelihood(model, i, theta) == pytest.approx(expected, rel=1e-12)

    def test_index_out_of_range(self):
        model = gaussian_mean_model([[0.0]])
        with pytest.raises(ValueError):
            log_likelihood(model, 1, np.zeros(1))

    def test_nonfinite_raises_with_index(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        model = BayesianModel(kind="poisson", dataset=Dataset([[-800.0]], [3.0]), prior=prior)
        with pytest.raises(LikelihoodError, match="index 0"):
            log_likelihood(model, 0, np.array([1.0, 0.0]))


class TestLogJoint:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_derivatives_match_central_differences(self, kind):
        model = small_model(kind)
        rng = np.random.default_rng(1)
        dim = model.theta_dim
        theta = 0.5 * rng.standard_normal(dim)
        w = rng.uniform(0.0, 2.0, size=model.dataset.n)
        w[[2, 7]] = 0.0
        value, grad, neg_hess = model.log_joint(theta, w)

        def f(t):
            return model.log_joint(t, w)[0]

        h = 1e-4
        steps = h * np.eye(dim)
        fd_grad = np.array([(f(theta + e) - f(theta - e)) / (2 * h) for e in steps])
        fd_hess = np.array([[(f(theta + a + b) - f(theta + a - b) - f(theta - a + b)
                              + f(theta - a - b)) / (4 * h * h) for b in steps]
                            for a in steps])
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-7, atol=1e-8)
        np.testing.assert_allclose(neg_hess, -fd_hess, rtol=1e-5, atol=1e-5)
        assert value == pytest.approx(
            model.prior.logpdf(theta) + float(w @ model.log_likelihood_matrix(theta)[0]),
            rel=1e-12)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_fit_rejects_negative_weight(self, kind):
        model = small_model(kind)
        w = np.ones(model.dataset.n)
        w[3] = -0.5
        fits = [laplace_approximation]
        if kind in CONJUGATE_KINDS:
            fits.append(conjugate_posterior)
        for fit in fits:
            with pytest.raises(ValueError, match="non-negative"):
                fit(model, w)


class TestBuildProjection:
    def test_constant_likelihood_column_is_zero(self):
        # a zero feature row makes that point's likelihood constant in theta
        prior = GaussianDist(np.zeros(1), np.eye(1))
        model = BayesianModel(kind="linear_regression",
                              dataset=Dataset([[0.0], [1.0]], [0.5, 0.2]),
                              prior=prior, noise_var=0.7)
        proj = build_projection(model, prior, 200, seed=0)
        assert not proj.phi[:, 0].any()
        assert proj.phi[:, 1].any()

    def test_columns_centered(self):
        model = gaussian_mean_model(np.random.default_rng(0).standard_normal((6, 2)))
        proj = build_projection(model, model.prior, 500, seed=1)
        scale = np.max(np.abs(proj.phi), axis=0)
        assert np.all(np.abs(proj.phi.mean(axis=0)) <= 1e-10 * np.maximum(scale, 1e-300))

    def test_constant_shift_leaves_projection_unchanged(self):
        class ShiftedModel(BayesianModel):
            def log_likelihood_matrix(self, thetas):
                return super().log_likelihood_matrix(thetas) + 7.3

        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 2))
        base = gaussian_mean_model(x)
        shifted = ShiftedModel(kind="gaussian_mean", dataset=base.dataset,
                               prior=base.prior, obs_cov=base.obs_cov)
        p1 = build_projection(base, base.prior, 300, seed=3)
        p2 = build_projection(shifted, base.prior, 300, seed=3)
        np.testing.assert_allclose(p1.phi, p2.phi, atol=1e-12)

    def test_column_norm_matches_analytic_variance(self):
        # 1-D model: the likelihood is a Gaussian quadratic in theta, whose
        # variance under the weighting distribution is closed-form
        x_i, m, s2, obs2 = 1.7, 0.4, 0.8, 1.3
        model = gaussian_mean_model([[x_i]], obs_cov=np.array([[obs2]]))
        pi_hat = GaussianDist([m], [[s2]])
        s_count = 100_000
        proj = build_projection(model, pi_hat, s_count, seed=11)
        col = proj.phi[:, 0]
        norm2 = float(col @ col)
        delta = x_i - m
        analytic = (s2 ** 2 + 2 * delta ** 2 * s2) / (2 * obs2 ** 2)
        centered = col * np.sqrt(s_count)
        m4 = float(np.mean(centered ** 4))
        var = float(np.mean(centered ** 2))
        se = math.sqrt(max(m4 - var ** 2, 0.0) / s_count)
        assert abs(norm2 - analytic) <= 3 * se

    def test_sample_count_validated(self):
        model = gaussian_mean_model([[0.0]])
        with pytest.raises(ValueError):
            build_projection(model, model.prior, 1, seed=0)

    def test_to_problem_target_is_column_sum(self):
        model = gaussian_mean_model(np.random.default_rng(4).standard_normal((5, 2)))
        proj = build_projection(model, model.prior, 300, seed=4)
        assert proj.s_count == 300
        problem = proj.to_problem()
        np.testing.assert_allclose(problem.y, proj.phi.sum(axis=1), atol=1e-12)
        assert problem.n == 5 and problem.s_dim == 300

    def test_monte_carlo_error_shrinks_at_root_s_rate(self):
        # average |finite-S objective - analytic value| over replicates must
        # fit a 1/sqrt(S) power law with R^2 >= 0.9
        weights = np.array([0.3, 1.2, 0.0, 0.7, 1.0])
        xs = np.array([[0.5], [1.0], [-0.3], [2.0], [-1.1]])
        model = gaussian_mean_model(xs)
        pi_hat = GaussianDist([0.3], [[0.6]])
        resid = 1.0 - weights
        quad_a = -0.5 * resid.sum()
        quad_b = float(resid @ xs[:, 0])
        mean, var = 0.3, 0.6
        target = 2 * quad_a ** 2 * var ** 2 + (2 * quad_a * mean + quad_b) ** 2 * var
        s_values = [100, 1_000, 10_000, 100_000]
        devs = []
        for s_count in s_values:
            errs = []
            for rep in range(30):
                proj = build_projection(model, pi_hat, s_count, seed=(5, s_count, rep))
                errs.append(abs(objective(proj.to_problem(), weights) - target))
            devs.append(np.mean(errs))
        log_s = np.log(s_values)
        log_d = np.log(devs)
        slope, intercept = np.polyfit(log_s, log_d, 1)
        pred = slope * log_s + intercept
        r2 = 1.0 - np.sum((log_d - pred) ** 2) / np.sum((log_d - np.mean(log_d)) ** 2)
        assert r2 >= 0.9
        assert -0.75 <= slope <= -0.25


class TestConjugatePosterior:
    def test_zero_weights_return_prior(self):
        rng = np.random.default_rng(3)
        model = gaussian_mean_model(rng.standard_normal((6, 2)))
        post = conjugate_posterior(model, np.zeros(6))
        np.testing.assert_allclose(post.mean, model.prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, model.prior.cov, atol=1e-12)

    def test_all_ones_identity_covariances(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3))
        model = gaussian_mean_model(x)
        post = conjugate_posterior(model, np.ones(8))
        np.testing.assert_allclose(post.cov, np.eye(3) / 9.0, atol=1e-12)
        np.testing.assert_allclose(post.mean, x.sum(axis=0) / 9.0, atol=1e-12)

    def test_bayes_rule_density_ratio_constant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 1)) + 0.7
        model = gaussian_mean_model(x, prior_var=2.0)
        w = rng.uniform(0.0, 2.0, size=5)
        post = conjugate_posterior(model, w)
        consts = []
        for theta in (-1.0, -0.3, 0.2, 0.9, 1.6):
            weighted_lik = sum(w[i] * log_likelihood(model, i, [theta]) for i in range(5))
            consts.append(post.logpdf([theta]) - model.prior.logpdf([theta]) - weighted_lik)
        assert max(consts) - min(consts) <= 1e-8

    def test_linear_regression_conjugacy(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        prior = GaussianDist(np.array([0.3, -0.2]), 1.5 * np.eye(2))
        model = BayesianModel(kind="linear_regression", dataset=Dataset(b, y),
                              prior=prior, noise_var=0.6)
        w = rng.uniform(0.0, 2.0, size=7)
        post = conjugate_posterior(model, w)
        prec = np.linalg.inv(prior.cov) + (b.T * w) @ b / 0.6
        cov = np.linalg.inv(prec)
        mean = cov @ (np.linalg.inv(prior.cov) @ prior.mean + b.T @ (w * y) / 0.6)
        np.testing.assert_allclose(post.cov, cov, atol=1e-10)
        np.testing.assert_allclose(post.mean, mean, atol=1e-10)

    def test_non_conjugate_kind_rejected(self):
        model = synth_glm_dataset("logistic", 5, seed=0)
        with pytest.raises(ValueError):
            conjugate_posterior(model, np.ones(5))


class TestLaplaceApproximation:
    def test_zero_weights_return_prior(self):
        model = synth_glm_dataset("logistic", 8, seed=1)
        lap = laplace_approximation(model, np.zeros(8))
        np.testing.assert_allclose(lap.mean, model.prior.mean, atol=1e-10)
        np.testing.assert_allclose(lap.cov, model.prior.cov, atol=1e-10)

    def test_exact_on_conjugate_models(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            model = gaussian_mean_model(rng.standard_normal((6, 2)) + 0.5)
            w = rng.uniform(0.0, 3.0, size=6)
            lap = laplace_approximation(model, w)
            conj = conjugate_posterior(model, w)
            np.testing.assert_allclose(lap.mean, conj.mean, atol=1e-8)
            np.testing.assert_allclose(lap.cov, conj.cov, atol=1e-8)

    def test_logistic_map_against_multistart_optimizer(self):
        model = synth_glm_dataset("logistic", 20, seed=2)
        w = np.ones(20)
        lap = laplace_approximation(model, w)
        _, grad, _ = model.log_joint(lap.mean, w)
        assert np.max(np.abs(grad)) <= 1e-8
        rng = np.random.default_rng(8)
        for _ in range(5):
            x0 = rng.standard_normal(3)
            res = minimize(lambda t: -model.log_joint(t, w)[0], x0,
                           jac=lambda t: -model.log_joint(t, w)[1], method="BFGS",
                           options={"gtol": 1e-10, "maxiter": 500})
            np.testing.assert_allclose(res.x, lap.mean, atol=1e-6)

    def test_poisson_map_gradient_small(self):
        model = synth_glm_dataset("poisson", 30, seed=3)
        w = np.abs(np.random.default_rng(0).standard_normal(30)) * 2
        lap = laplace_approximation(model, w)
        _, grad, _ = model.log_joint(lap.mean, w)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_posterior_approximation_dispatch(self):
        model = gaussian_mean_model(np.random.default_rng(1).standard_normal((4, 2)))
        w = np.ones(4)
        conj = conjugate_posterior(model, w)
        got = posterior_approximation(model, w)
        np.testing.assert_allclose(got.mean, conj.mean, atol=1e-12)


class TestSynthGaussian:
    def test_no_data_gives_prior(self):
        model, post = synth_gaussian_dataset(3, 0, seed=0)
        np.testing.assert_allclose(post.mean, model.prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, model.prior.cov, atol=1e-12)

    def test_posterior_is_all_ones_conjugate(self):
        model, post = synth_gaussian_dataset(3, 5, seed=1)
        ref = conjugate_posterior(model, np.ones(5))
        np.testing.assert_allclose(post.mean, ref.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, ref.cov, atol=1e-12)

    def test_seed_reproducibility(self):
        m1, _ = synth_gaussian_dataset(3, 5, seed=7)
        m2, _ = synth_gaussian_dataset(3, 5, seed=7)
        assert np.array_equal(m1.dataset.x, m2.dataset.x)


class TestSynthRadialBasis:
    def test_basis_count_and_feature_range(self):
        scales = [0.2, 0.4, 0.8]
        model = synth_radial_basis_model(40, scales, 5, seed=0)
        assert model.dataset.d == len(scales) * 5 + 1
        assert model.basis_scales[-1] == 100.0
        feats = model.dataset.x
        # kernel range is (0, 1]; float underflow maps remote points to 0
        assert np.all(feats >= 0) and np.all(feats <= 1.0)
        assert np.all(feats[:, -1] > 0.9)  # near-constant basis never underflows

    def test_prior_from_response_moments(self):
        model = synth_radial_basis_model(30, [0.5], 4, seed=1)
        y = model.dataset.y
        np.testing.assert_allclose(model.prior.mean, np.full(5, y.mean()), atol=1e-12)
        np.testing.assert_allclose(model.prior.cov, np.mean(y ** 2) * np.eye(5), atol=1e-12)
        assert model.noise_var == pytest.approx(float(np.var(y)))

    def test_seed_reproducibility(self):
        m1 = synth_radial_basis_model(25, [0.3, 0.6], 3, seed=9)
        m2 = synth_radial_basis_model(25, [0.3, 0.6], 3, seed=9)
        assert np.array_equal(m1.dataset.x, m2.dataset.x)
        assert np.array_equal(m1.dataset.y, m2.dataset.y)


class TestSynthGlm:
    def test_logistic_labels(self):
        model = synth_glm_dataset("logistic", 200, seed=0)
        assert set(np.unique(model.dataset.y)) <= {-1.0, 1.0}
        assert model.theta_dim == 3

    def test_poisson_targets(self):
        model = synth_glm_dataset("poisson", 200, seed=1)
        y = model.dataset.y
        assert np.all(y >= 0) and np.all(y == np.floor(y))
        assert model.theta_dim == 2

    def test_logistic_label_balance_matches_monte_carlo(self):
        n = 4000
        model = synth_glm_dataset("logistic", n, seed=2)
        p_hat = float(np.mean(model.dataset.y == 1.0))
        # independent Monte Carlo of the generative model
        rng = np.random.default_rng(999)
        m = 200_000
        x = rng.standard_normal((m, 2))
        p_mc = float(np.mean(rng.random(m) < 1.0 / (1.0 + np.exp(-(3 * x[:, 0] + 3 * x[:, 1])))))
        se = math.sqrt(p_hat * (1 - p_hat) / n + p_mc * (1 - p_mc) / m)
        assert abs(p_hat - p_mc) <= 3 * se

    def test_custom_theta_dimension_checked(self):
        with pytest.raises(ValueError):
            synth_glm_dataset("logistic", 10, d=2, seed=0, true_theta=[1.0, 2.0])


class TestCsvRoundTrip:
    def test_three_row_fixture(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,target\n1.0,2.0,1\n-0.5,0.25,-1\n0.0,1.5,1\n")
        ds = load_csv_dataset(path, "logistic")
        assert ds.n == 3 and ds.d == 2
        assert ds.y.tolist() == [1.0, -1.0, 1.0]

    def test_logistic_label_two_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\n1.0,2\n")
        with pytest.raises(ValueError):
            load_csv_dataset(path, "logistic")

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\n1.0,1\n1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv_dataset(path, "poisson")

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\noops,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(path, "logistic")

    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
        path = tmp_path / "round.csv"
        save_csv_dataset(path, ds)
        back = load_csv_dataset(path, "linear_regression")
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
