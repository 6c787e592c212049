import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import expit, gammaln
from scipy.stats import multivariate_normal, norm

from coreset_iht import (
    BayesianModel,
    Dataset,
    GaussianDist,
    LikelihoodError,
    SparseRegressionProblem,
    build_projection,
    conjugate_posterior,
    full_data_posterior,
    gradient,
    laplace_approximation,
    line_search_step,
    load_csv_dataset,
    momentum_coefficient,
    objective,
    posterior_approximation,
    restrict,
    save_csv_dataset,
    stochastic_gradient,
    synth_gaussian_dataset,
    synth_glm_dataset,
    synth_radial_basis_model,
)
from coreset_iht import models
from coreset_iht.models import CONJUGATE_KINDS, MODEL_KINDS, standard_model
from conftest import radial_basis_prior_and_posterior

EPS = np.finfo(float).eps


def gaussian_mean_model(x, prior_var=1.0):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    return BayesianModel(
        kind="gaussian_mean",
        dataset=Dataset(x, np.zeros(x.shape[0])),
        prior=GaussianDist(np.zeros(d), prior_var * np.eye(d)),
    )


def small_model(kind, seed=0):
    """A 12-point model of each kind with a non-trivial prior and likelihood."""
    rng = np.random.default_rng(seed)
    if kind in ("logistic", "poisson"):
        return synth_glm_dataset(kind, 12, d=2, seed=seed)
    x = rng.standard_normal((12, 3))
    prior = GaussianDist(rng.standard_normal(3), np.diag(rng.uniform(0.5, 2.0, 3)))
    y = np.zeros(12) if kind == "gaussian_mean" else rng.standard_normal(12)
    return BayesianModel(kind=kind, dataset=Dataset(x, y), prior=prior)


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


class TestNumpyStandIns:
    """The numpy expressions that replace scipy or a scalar numpy loop, with
    that as the oracle."""

    def test_expit_matches_scipy_without_warnings(self):
        t = np.concatenate([np.linspace(-1e3, 1e3, 20001),
                            [-745.2, -709.0, -36.5, -1e-300, 0.0, 1e-300, 36.5, 709.0]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = models._expit(t)
        ref = expit(t)
        normal = ref >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], ref[normal], rtol=4 * EPS, atol=0)
        # subnormal and underflowed values agree to the subnormal spacing
        assert np.all(np.abs(got[~normal] - ref[~normal]) <= np.finfo(float).tiny)

    @pytest.mark.parametrize("log_sigmoid", [False, True])
    def test_softplus_matches_logaddexp(self, log_sigmoid):
        # softplus(t) = logaddexp(0, t); log sigmoid(t) = -logaddexp(0, -t).
        rng = np.random.default_rng(6)
        t = np.concatenate([rng.standard_normal(20000) * 10.0 ** rng.integers(-3, 3, 20000),
                            np.linspace(-40.0, 40.0, 8001)])
        with np.errstate(all="raise"):
            got = models._softplus(t.copy(), np.empty_like(t), log_sigmoid=log_sigmoid)
        ref = -np.logaddexp(0.0, -t) if log_sigmoid else np.logaddexp(0.0, t)
        np.testing.assert_allclose(got, ref, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("log_sigmoid", [False, True])
    def test_softplus_special_values_match_logaddexp(self, log_sigmoid):
        t = np.array([np.inf, -np.inf, np.nan, 800.0, -800.0, 0.0, 1e-300, -1e-300])
        got = models._softplus(t.copy(), np.empty_like(t), log_sigmoid=log_sigmoid)
        with np.errstate(invalid="ignore"):
            ref = -np.logaddexp(0.0, -t) if log_sigmoid else np.logaddexp(0.0, t)
        np.testing.assert_array_equal(got, ref)

    def test_log_factorial_matches_gammaln(self):
        y = np.arange(0, 10 ** 6 + 1, dtype=float)
        model = BayesianModel(kind="poisson", dataset=Dataset(np.zeros((y.size, 1)), y),
                              prior=GaussianDist(np.zeros(2), np.eye(2)))
        np.testing.assert_allclose(model.log_factorial_y, gammaln(y + 1.0), rtol=8 * EPS, atol=0)
        assert model.log_factorial_y[0] == model.log_factorial_y[1] == 0.0

    def test_logpdf_matches_triangular_solve(self):
        # cond(chol) <= 122 for both, so 1e-12 is about 100 cond(chol) eps
        for dist in radial_basis_prior_and_posterior():
            rng = np.random.default_rng(4)
            for x in dist.mean + rng.standard_normal((5, dist.dim)):
                u = solve_triangular(dist.chol, x - dist.mean, lower=True)
                ref = -0.5 * (dist.dim * np.log(2 * np.pi)
                              + 2.0 * np.sum(np.log(np.diag(dist.chol))) + u @ u)
                assert dist.logpdf(x) == pytest.approx(ref, rel=1e-12)
            inv_ref = solve_triangular(dist.chol, np.eye(dist.dim), lower=True)
            np.testing.assert_allclose(dist.chol_inv, inv_ref, rtol=0,
                                       atol=1e-12 * np.abs(inv_ref).max())


def all_rows_log_joint(model, theta, w):
    """The log joint with every data row in the sums, zero weights included:
    the per-kind algebra written out, with scipy's expit."""
    x, y = model.dataset.x, model.dataset.y
    prec = model.prior.precision()
    value = model.prior.logpdf(theta) + float(w @ model.log_likelihood_matrix(theta)[0])
    grad = -prec @ (theta - model.prior.mean)
    hess = prec.copy()
    if model.kind == "gaussian_mean":
        grad += x.T @ w - w.sum() * theta
        hess += w.sum() * np.eye(x.shape[1])
    elif model.kind == "linear_regression":
        grad += x.T @ (w * (y - x @ theta)) / model.noise_var
        hess += (x.T * w) @ x / model.noise_var
    else:
        z = np.hstack([x, np.ones((x.shape[0], 1))])
        t = z @ theta
        s = expit(t)
        if model.kind == "logistic":
            grad += z.T @ (w * y * expit(-y * t))
            hess += (z.T * (w * s * (1.0 - s))) @ z
        else:
            lam = np.logaddexp(0.0, t)
            grad += z.T @ (w * (y * s / lam - s))
            hess += (z.T * (w * (s * (1.0 - s) - y * (s * (1.0 - s) * lam - s * s) / lam ** 2))) @ z
    return value, grad, hess


class TestModelValidation:
    def test_logistic_labels_checked(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            BayesianModel(kind="logistic", dataset=Dataset([[0.1]], [2.0]), prior=prior)

    def test_poisson_targets_checked(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            BayesianModel(kind="poisson", dataset=Dataset([[0.1]], [1.5]), prior=prior)

    @pytest.mark.parametrize("y,noise_var", [
        ([0.5, -1.0, 2.0], float(np.var([0.5, -1.0, 2.0]))),
        ([0.5, 0.5, 0.5], 1.0),
    ], ids=["varied", "constant"])
    def test_linear_regression_noise_var_is_the_targets_variance(self, y, noise_var):
        model = standard_model("linear_regression", Dataset([[1.0], [0.0], [2.0]], y))
        assert model.noise_var == noise_var
        assert standard_model("gaussian_mean", Dataset([[1.0]], [0.0])).noise_var is None

    def test_linear_regression_overflowing_variance_refused(self):
        # The squares of +-1e200 overflow, so the targets' variance is inf.
        data = Dataset([[0.5], [-0.5], [1.0], [2.0]], [1e200, -1e200, 1e200, -1e200])
        with pytest.raises(ValueError, match=r"noise variance \(the targets' variance\) "
                                             "is not finite"):
            standard_model("linear_regression", data)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_is_its_kind_data_and_prior(self, kind):
        # Nothing else is an argument: the observation covariance is I and
        # the noise variance is derived from the targets.
        model = standard_model(kind, Dataset([[0.5], [1.0]], [1.0, 1.0]))
        for name, value in (("noise_var", 0.5), ("obs_cov", np.eye(1))):
            with pytest.raises(TypeError, match=name):
                BayesianModel(kind=kind, dataset=model.dataset, prior=model.prior,
                              **{name: value})

    @pytest.mark.parametrize("cov,message", [
        ([[1.0, 0.9], [0.0, 1.0]], "is not symmetric"),
        ([[np.nan, 0.0], [0.0, 1.0]], "contains non-finite entries"),
        ([[1.0, 2.0], [2.0, 1.0]], "is not positive definite"),
    ], ids=["asymmetric", "nan", "indefinite"])
    def test_covariances_checked_by_one_rule(self, cov, message):
        with pytest.raises(ValueError, match=f"^covariance {message}$"):
            GaussianDist(np.zeros(2), cov)

    def test_prior_dim_must_match(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))  # logistic over 1 feature needs dim 2
        BayesianModel(kind="logistic", dataset=Dataset([[0.1]], [1.0]), prior=prior)
        with pytest.raises(ValueError):
            BayesianModel(kind="logistic", dataset=Dataset([[0.1, 0.2]], [1.0]), prior=prior)


class TestLogLikelihood:
    def test_logistic_at_zero_theta(self):
        model = synth_glm_dataset("logistic", 10, seed=0)
        values = model.log_likelihood_matrix(np.zeros(3))
        assert values.shape == (1, 10)
        np.testing.assert_allclose(values, math.log(0.5), rtol=1e-12)

    def test_gaussian_mean_at_data_point(self):
        model = gaussian_mean_model([[0.3, -1.2]])
        value = model.log_likelihood_matrix(np.array([0.3, -1.2]))[0, 0]
        assert value == pytest.approx(-math.log(2 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("kind", CONJUGATE_KINDS)
    def test_conjugate_kinds_match_scipy_densities(self, kind):
        # N(x_i | theta, I) and N(y_i | b_i^T theta, noise_var), with the
        # noise variance the model derives from the targets.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 3))
        model = standard_model(kind, Dataset(x, 2.0 * rng.standard_normal(7)))
        thetas = rng.standard_normal((5, 3))
        got = model.log_likelihood_matrix(thetas)
        for j, theta in enumerate(thetas):
            if kind == "gaussian_mean":
                ref = [multivariate_normal(theta, np.eye(3)).logpdf(xi) for xi in x]
            else:
                ref = norm(x @ theta, math.sqrt(model.noise_var)).logpdf(model.dataset.y)
            np.testing.assert_allclose(got[j], ref, rtol=1e-12, atol=0)

    def test_poisson_matches_direct_evaluation(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        model = BayesianModel(kind="poisson", dataset=Dataset([[0.4], [-1.2]], [2.0, 0.0]),
                              prior=prior)
        theta = np.array([0.7, -0.3])
        for i, (x, y) in enumerate([(0.4, 2.0), (-1.2, 0.0)]):
            rate = math.log1p(math.exp(0.7 * x - 0.3))
            expected = y * math.log(rate) - rate - math.lgamma(y + 1.0)
            assert model.log_likelihood_matrix(theta)[0, i] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    @pytest.mark.parametrize("entries", [1, 100])
    def test_glm_finish_in_row_chunks(self, monkeypatch, kind, entries):
        # The 50 x 23 transposed block in one-row chunks, or in four-row
        # chunks and a short last one, gives the bits of a one-chunk finish.
        model = projection_model(kind, 50)
        thetas = np.random.default_rng(1).standard_normal((23, 3))
        whole = model.log_likelihood_matrix(thetas)
        monkeypatch.setattr(models, "_CHUNK_ENTRIES", entries)
        np.testing.assert_array_equal(model.log_likelihood_matrix(thetas), whole)

    def test_nonfinite_raises_with_index(self):
        # The rate underflows, so the value is -inf without a warning, and a
        # projection at that theta names the data index.
        prior = GaussianDist(np.zeros(2), np.eye(2))
        model = BayesianModel(kind="poisson", dataset=Dataset([[-800.0]], [3.0]), prior=prior)
        assert model.log_likelihood_matrix(np.array([1.0, 0.0]))[0, 0] == -np.inf
        with pytest.raises(LikelihoodError, match="index 0"):
            build_projection(model, GaussianDist([1.0, 0.0], np.eye(2)), 10, seed=0)


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
    def test_support_rows_match_all_rows(self, kind):
        # log_joint sums over the rows with w > 0 only; dropping the zero
        # terms reorders the sums, so agreement is to rounding.
        model = small_model(kind, seed=5)
        rng = np.random.default_rng(6)
        w = rng.uniform(0.5, 3.0, model.dataset.n)
        w[::3] = 0.0
        for theta in 0.5 * rng.standard_normal((3, model.theta_dim)):
            got = model.log_joint(theta, w)
            ref = all_rows_log_joint(model, theta, w)
            for g, r in zip(got, ref):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

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
                              dataset=Dataset([[0.0], [1.0]], [0.5, 0.2]), prior=prior)
        proj = build_projection(model, prior, 200, seed=0)
        assert not proj.phi[:, 0].any()
        assert proj.phi[:, 1].any()

    def test_constant_column_among_many_is_zero(self):
        # The mean of 400 equal values rounds away from them here, so the
        # constant column keeps a residue unless it is snapped exactly, and
        # the projection then fails its centring check.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 3))
        y = rng.standard_normal(300)
        x[17] = 0.0
        model = BayesianModel(kind="linear_regression", dataset=Dataset(x, y),
                              prior=GaussianDist(np.zeros(3), np.eye(3)))
        proj = build_projection(model, full_data_posterior(model), 400, (5, 0, 1))
        assert not proj.phi[:, 17].any()
        assert np.all(np.delete(proj.phi, 17, axis=1).any(axis=0))

    def test_columns_centered(self):
        model = gaussian_mean_model(np.random.default_rng(0).standard_normal((6, 2)))
        proj = build_projection(model, model.prior, 500, seed=1)
        scale = np.max(np.abs(proj.phi), axis=0)
        assert np.all(np.abs(proj.phi.mean(axis=0)) <= 1e-10 * np.maximum(scale, 1e-300))

    def test_constant_shift_leaves_projection_unchanged(self):
        class ShiftedModel(BayesianModel):
            def _log_likelihoods(self, thetas, rows):
                return super()._log_likelihoods(thetas, rows) + 7.3

        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 2))
        base = gaussian_mean_model(x)
        shifted = ShiftedModel(kind="gaussian_mean", dataset=base.dataset, prior=base.prior)
        p1 = build_projection(base, base.prior, 300, seed=3)
        p2 = build_projection(shifted, base.prior, 300, seed=3)
        np.testing.assert_allclose(p1.phi, p2.phi, atol=1e-12)

    def test_column_norm_matches_analytic_variance(self):
        # 1-D model: the likelihood is a Gaussian quadratic in theta, whose
        # variance under the weighting distribution is closed-form
        x_i, m, s2 = 1.7, 0.4, 0.8
        model = gaussian_mean_model([[x_i]])
        pi_hat = GaussianDist([m], [[s2]])
        s_count = 100_000
        proj = build_projection(model, pi_hat, s_count, seed=11)
        col = proj.phi[:, 0]
        norm2 = float(col @ col)
        delta = x_i - m
        analytic = (s2 ** 2 + 2 * delta ** 2 * s2) / 2
        centered = col * np.sqrt(s_count)
        m4 = float(np.mean(centered ** 4))
        var = float(np.mean(centered ** 2))
        se = math.sqrt(max(m4 - var ** 2, 0.0) / s_count)
        assert abs(norm2 - analytic) <= 3 * se

    def test_sample_count_validated(self):
        model = gaussian_mean_model([[0.0]])
        with pytest.raises(ValueError):
            build_projection(model, model.prior, 1, seed=0)

    def test_empty_dataset_rejected(self):
        model = gaussian_mean_model(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="no data points"):
            build_projection(model, model.prior, 10, seed=0)

    def test_to_problem_target_is_column_sum(self):
        model = gaussian_mean_model(np.random.default_rng(4).standard_normal((5, 2)))
        proj = build_projection(model, model.prior, 300, seed=4)
        assert proj.phi.shape == (300, 5)
        problem = proj.to_problem()
        # The Gram factor of a Gaussian phi has rank d + 1.
        assert problem.n == 5 and problem.s_dim == 3
        np.testing.assert_array_equal(problem.y, problem.phi.sum(axis=1))
        target = proj.phi.sum(axis=1)
        assert problem.y @ problem.y == pytest.approx(target @ target, rel=1e-10)

    @pytest.mark.parametrize("shape", [(40, 5), (5, 40)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_projection_refused(self, shape, bad):
        # Centring cannot see these: a NaN column mean compares false, and an
        # infinite one is not above the infinite column scale.
        phi = np.random.default_rng(0).standard_normal(shape)
        phi -= phi.mean(axis=0)
        models.ProjectionSet(phi)
        phi[1, 2] = bad
        with pytest.raises(ValueError, match="phi contains non-finite entries"):
            models.ProjectionSet(phi)

    def test_uncentred_projection_refused(self):
        phi = np.random.default_rng(0).standard_normal((6, 4))
        with pytest.raises(ValueError, match="not centered"):
            models.ProjectionSet(phi)

    def test_centring_overflow_refused(self):
        # Finite log-likelihoods near -5e305 whose column sums overflow: the
        # build refuses them as ProjectionSet(phi) would refuse its phi.
        model = gaussian_mean_model([[1e153], [0.5]])
        with pytest.raises(ValueError, match="phi contains non-finite entries"):
            build_projection(model, GaussianDist([0.0], [[1.0]]), 400, seed=0)

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


def reference_log_likelihoods(model, thetas):
    """The out-of-place likelihood formulas: a new S x N array per operation.

    As the model does, each kind starts from one product of its design with
    thetas.T, which keeps the result column-major and rounds by that layout.
    """
    x, y = model.dataset.x, model.dataset.y
    if model.kind == "gaussian_mean":
        norm_const = -0.5 * x.shape[1] * np.log(2 * np.pi)
        xq = np.einsum("nd,nd->n", x, x)
        tq = np.einsum("sd,sd->s", thetas, thetas)
        cross = (x @ thetas.T).T
        return norm_const - 0.5 * (xq[None, :] - 2.0 * cross + tq[:, None])
    if model.kind == "linear_regression":
        norm_const = -0.5 * np.log(2 * np.pi * model.noise_var)
        return norm_const - (y[None, :] - (x @ thetas.T).T) ** 2 / (2.0 * model.noise_var)
    # The GLMs' softplus as the model writes it, log1p(exp(-|t|)) on numpy's
    # vectorised ufuncs, where np.logaddexp's scalar loop can differ in the
    # last bit.
    t = (np.hstack([x, np.ones((x.shape[0], 1))]) @ thetas.T).T
    if model.kind == "logistic":
        s = y[None, :] * t
        return np.minimum(s, 0.0) - np.log1p(np.exp(-np.abs(s)))
    lam = np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))
    return y[None, :] * np.log(lam) - lam - model.log_factorial_y[None, :]


def reference_projection(model, pi_hat, s_count, seed):
    """``build_projection`` written out of place, with |x| temporaries."""
    thetas = pi_hat.sample(np.random.default_rng(seed), s_count)
    lmat = reference_log_likelihoods(model, thetas)
    centered = lmat - lmat.mean(axis=0, keepdims=True)
    col_scale = np.maximum(1.0, np.max(np.abs(lmat), axis=0))
    constant = np.max(np.abs(centered), axis=0) <= 16 * EPS * col_scale
    centered[:, constant] = 0.0
    return centered / np.sqrt(s_count)


def projection_model(kind, n=300):
    """An n-point model of each kind."""
    if kind in ("logistic", "poisson"):
        return synth_glm_dataset(kind, n, d=2, seed=5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, 3))
    y = np.zeros(n) if kind == "gaussian_mean" else rng.standard_normal(n)
    return BayesianModel(kind=kind, dataset=Dataset(x, y), prior=GaussianDist(np.zeros(3), np.eye(3)))


class TestProjectionInPlace:
    """``build_projection`` fills one S x N array and centres, snaps and
    scales it in place; ``ProjectionSet`` keeps a column-major copy."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_out_of_place_formula_bit_for_bit(self, kind):
        model = projection_model(kind)
        pi_hat = full_data_posterior(model)
        phi = build_projection(model, pi_hat, 400, (5, 0, 1)).phi
        expected = reference_projection(model, pi_hat, 400, (5, 0, 1))
        assert phi.shape == expected.shape
        bits = np.ascontiguousarray(phi).view(np.int64)
        assert np.array_equal(bits, expected.view(np.int64))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_peak_memory_is_two_phi(self, kind):
        # The likelihood matrix and the projection's copy of it; the
        # out-of-place formulas held four S x N arrays at once.
        model = projection_model(kind)
        pi_hat = full_data_posterior(model)
        tracemalloc.start()
        try:
            phi = build_projection(model, pi_hat, 400, (5, 0, 1)).phi
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * phi.nbytes

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_phi_and_problem_are_column_major(self, kind):
        # At S = 50, n = 300 the Gaussian and linear-regression problems are
        # on Gram factors (rank 4 and 9) and the GLM ones on phi itself.
        model = projection_model(kind)
        pi_hat = full_data_posterior(model)
        lmat = model.log_likelihood_matrix(pi_hat.sample(np.random.default_rng(0), 50))
        assert lmat.shape == (50, 300) and lmat.flags.f_contiguous
        proj = build_projection(model, pi_hat, 50, (5, 0, 1))
        assert proj.phi.flags.f_contiguous and not proj.phi.flags.writeable
        problem = proj.to_problem()
        assert problem.phi.flags.f_contiguous and not problem.phi.flags.writeable
        assert problem.n == 300 and problem.s_dim <= 50
        np.testing.assert_array_equal(problem.y, problem.phi.sum(axis=1))
        full = SparseRegressionProblem.from_columns(proj.phi)
        tol = 1e-10 * float(full.y @ full.y)
        rng = np.random.default_rng(2)
        for _ in range(3):
            w = rng.uniform(0.0, 2.0, 300) * (rng.random(300) < 0.2)
            assert abs(objective(problem, w) - objective(full, w)) <= tol

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_problem_shares_the_projection_array(self, kind):
        # At S = 6 every kind's wide phi has rank above S/2, so no factor
        # would halve it and the problem is on phi itself.
        model = projection_model(kind)
        proj = build_projection(model, full_data_posterior(model), 6, (5, 0, 1))
        assert proj.phi.flags.owndata
        assert models._gram_factor(proj.phi) is None
        assert proj.to_problem().phi is proj.phi


class TestBlockedBuild:
    """A build of N > ``PROJECTION_BLOCK`` points evaluates the likelihoods
    block by block into one column-major array."""

    S, N = 100, 5000  # nine full blocks and a short last one

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_peak_memory_is_phi_and_a_few_blocks(self, kind):
        model = projection_model(kind, self.N)
        pi_hat = full_data_posterior(model)
        tracemalloc.start()
        try:
            proj = build_projection(model, pi_hat, self.S, (5, 0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * proj.phi.nbytes
        # Every kind has a Gram factor here. Making it holds the factor, the
        # S x S Gram matrix and one block of the product, not a second
        # S x N array.
        tracemalloc.start()
        try:
            problem = proj.to_problem()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.s_dim <= self.S // 2
        assert peak <= problem.phi.nbytes + 0.1 * proj.phi.nbytes

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_unblocked_formula(self, kind):
        # Blocked and one-call matrix products may round differently, as
        # BLAS splits the columns across threads in another way.
        assert self.N // models.PROJECTION_BLOCK == 9 and self.N % models.PROJECTION_BLOCK
        model = projection_model(kind, self.N)
        pi_hat = full_data_posterior(model)
        phi = build_projection(model, pi_hat, self.S, (5, 0, 1)).phi
        expected = reference_projection(model, pi_hat, self.S, (5, 0, 1))
        assert phi.shape == expected.shape and phi.flags.f_contiguous
        scale = np.max(np.abs(expected), axis=0)
        assert np.all(np.abs(phi - expected) <= 1e-12 * scale)

    # (x, y) of an early and a late data row with non-finite likelihoods. For
    # logistic and poisson only at the thetas whose first entry is large and
    # of one sign, the opposite sign for each row, so the row-major first bad
    # entry lies in the late row's block.
    BAD = {"gaussian_mean": (([1e200, 0.0, 0.0], 0.0), ([1e200, 0.0, 0.0], 0.0)),
           "linear_regression": (([1e200, 0.0, 0.0], 0.0), ([1e200, 0.0, 0.0], 0.0)),
           "logistic": (([-1e308, 0.0], 1.0), ([1e308, 0.0], 1.0)),
           "poisson": (([-800.0, 0.0], 3.0), ([800.0, 0.0], 3.0))}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_nonfinite_entry_named_as_unblocked(self, kind):
        base = projection_model(kind, self.N)
        x, y = np.array(base.dataset.x), np.array(base.dataset.y)
        early, late = 700, 4500  # in blocks 1 and 8
        (x[early], y[early]), (x[late], y[late]) = self.BAD[kind]
        model = BayesianModel(kind=kind, dataset=Dataset(x, y), prior=base.prior)
        pi_hat = GaussianDist(np.zeros(model.theta_dim), 4.0 * np.eye(model.theta_dim))
        thetas = pi_hat.sample(np.random.default_rng((5, 0, 1)), self.S)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bad = ~np.isfinite(reference_log_likelihoods(model, thetas))
        assert set(np.flatnonzero(bad.any(axis=0))) == {early, late}
        theta, index = np.argwhere(bad)[0]
        if kind in ("logistic", "poisson"):
            assert index == late
        with pytest.raises(LikelihoodError,
                           match=f"data index {index} for sampled theta {theta}$"):
            build_projection(model, pi_hat, self.S, (5, 0, 1))


def coreset_projection(kind, dim, n, s_count, seed=7):
    """One sweep trial's projection."""
    if kind == "gaussian":
        model = synth_gaussian_dataset(dim, n, (seed, 0, 0))
    elif kind == "radial_basis":
        model = synth_radial_basis_model(n, [0.5, 1.0], 20, (seed, 0, 0))
    else:
        model = synth_glm_dataset(kind, n, dim, (seed, 0, 0))
    return build_projection(model, full_data_posterior(model), s_count, (seed, 0, 1))


class TestGramFactor:
    """A projection's S-row problem and the one ``to_problem`` returns on its
    factor (``_gram_factor``) agree for every w up to rounding: y = phi @ 1, so
    ||y - phi w||^2 = (1 - w)^T phi^T phi (1 - w), and phi^T phi - B^T B is
    positive semidefinite with trace at most m * max(S, n) * eps * max diag
    of the smaller, m x m, Gram matrix."""

    @pytest.mark.parametrize("kind,dim,n,s_count", [
        ("gaussian", 3, 20, 100), ("gaussian", 20, 100, 2000),
        ("logistic", 2, 20, 100), ("logistic", 2, 100, 2000),
        ("logistic", 2, 5000, 500), ("poisson", 2, 5000, 500)])
    def test_matches_full_problem(self, kind, dim, n, s_count):
        proj = coreset_projection(kind, dim, n, s_count)
        full = SparseRegressionProblem.from_columns(proj.phi)
        small = proj.to_problem()
        assert small.phi.tobytes("F") == models._gram_factor(proj.phi).tobytes("F")
        assert small.phi.flags.f_contiguous and not small.phi.flags.writeable
        if s_count <= n:
            assert small.s_dim <= s_count // 2
        if kind == "gaussian":
            assert small.s_dim == dim + 1  # log N(x_i | theta) is quadratic in theta
        tol = 1e-10 * float(full.y @ full.y)
        rng = np.random.default_rng(11)
        for _ in range(5):
            w, w_prev = np.zeros(n), np.zeros(n)
            w[rng.choice(n, n // 5, replace=False)] = rng.uniform(0.0, 2.0, n // 5)
            w_prev[rng.choice(n, n // 5, replace=False)] = rng.uniform(0.0, 2.0, n // 5)
            assert abs(objective(small, w) - objective(full, w)) <= tol
            grad = gradient(full, w)
            np.testing.assert_allclose(gradient(small, w), grad, rtol=0, atol=tol)
            direction = restrict(grad, np.flatnonzero(w))
            assert abs(line_search_step(small, direction)
                       - line_search_step(full, direction)) <= tol
            assert abs(momentum_coefficient(small, w, w_prev)
                       - momentum_coefficient(full, w, w_prev)) <= tol
            np.testing.assert_allclose(
                stochastic_gradient(small, w, 1.0, np.random.default_rng(3)),
                stochastic_gradient(full, w, 1.0, np.random.default_rng(3)), rtol=0, atol=tol)

    def test_full_rank_wide_problem_is_kept(self):
        proj = coreset_projection("radial_basis", 0, 120, 60)  # rank 59 of 60
        assert models._gram_factor(proj.phi) is None
        assert proj.to_problem().phi is proj.phi


class TestPivotedCholesky:
    @staticmethod
    def planted(m, rank, seed=0):
        a = np.random.default_rng(seed).standard_normal((m, rank))
        return a @ a.T

    @staticmethod
    def tol(g):
        return g.shape[0] * EPS * float(g.diagonal().max())

    @pytest.mark.parametrize("rank", [1, 5, 12])
    def test_planted_rank(self, rank):
        g = self.planted(12, rank)
        rows = models._pivoted_cholesky(g, self.tol(g), 12)
        assert rows.shape == (rank, 12)
        np.testing.assert_allclose(rows.T @ rows, g, rtol=0, atol=1e-12 * np.abs(g).max())

    def test_gives_up_exactly_past_the_limit(self):
        g = self.planted(12, 5)
        assert models._pivoted_cholesky(g, self.tol(g), 5).shape == (5, 12)
        assert models._pivoted_cholesky(g, self.tol(g), 4) is None

    def test_equal_diagonals_pivot_on_the_lowest_index(self):
        g = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        rows = models._pivoted_cholesky(g, self.tol(g), 3)
        np.testing.assert_array_equal(rows[0], g[0] / np.sqrt(2.0))
        assert rows.tobytes() == models._pivoted_cholesky(g, self.tol(g), 3).tobytes()

    def test_zero_matrix_gives_one_zero_row(self):
        rows = models._pivoted_cholesky(np.zeros((4, 4)), 0.0, 4)
        assert rows.shape == (1, 4) and not rows.any()


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
            weighted_lik = float(w @ model.log_likelihood_matrix([theta])[0])
            consts.append(post.logpdf([theta]) - model.prior.logpdf([theta]) - weighted_lik)
        assert max(consts) - min(consts) <= 1e-8

    def test_linear_regression_conjugacy(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        prior = GaussianDist(np.array([0.3, -0.2]), 1.5 * np.eye(2))
        model = BayesianModel(kind="linear_regression", dataset=Dataset(b, y), prior=prior)
        w = rng.uniform(0.0, 2.0, size=7)
        post = conjugate_posterior(model, w)
        noise_var = float(np.var(y))
        prec = np.linalg.inv(prior.cov) + (b.T * w) @ b / noise_var
        cov = np.linalg.inv(prec)
        mean = cov @ (np.linalg.inv(prior.cov) @ prior.mean + b.T @ (w * y) / noise_var)
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

    def test_prior_precision_derived_once_per_model(self, monkeypatch):
        # The prior precision is a Cholesky solve; the model holds it, so the
        # Newton loop's log_joint calls do not recompute it.
        model = synth_glm_dataset("logistic", 20, seed=2)
        calls = []
        precision = GaussianDist.precision
        monkeypatch.setattr(GaussianDist, "precision",
                            lambda self: calls.append(self) or precision(self))
        laplace_approximation(model, np.ones(20))
        assert calls == []

    def test_poisson_map_gradient_small(self):
        model = synth_glm_dataset("poisson", 30, seed=3)
        w = np.abs(np.random.default_rng(0).standard_normal(30)) * 2
        lap = laplace_approximation(model, w)
        _, grad, _ = model.log_joint(lap.mean, w)
        assert np.max(np.abs(grad)) <= 1e-8

    @staticmethod
    def non_finite_steps(monkeypatch, bad_calls):
        """Patch ``log_joint`` so call number i reports -inf when
        ``bad_calls(i)`` holds; returns the list of thetas it is called at."""
        thetas, log_joint = [], BayesianModel.log_joint

        def patched(self, theta, weights):
            thetas.append(np.array(theta))
            value, grad, neg_hess = log_joint(self, theta, weights)
            return (-np.inf if bad_calls(len(thetas) - 1) else value), grad, neg_hess

        monkeypatch.setattr(BayesianModel, "log_joint", patched)
        return thetas

    def test_non_finite_full_step_is_halved(self, monkeypatch):
        # White-box: realistic fits accept every full step, so the first one
        # is made to report -inf. The fit halves it and still reaches the MAP.
        model = synth_glm_dataset("logistic", 20, seed=2)
        w = np.ones(20)
        expected = laplace_approximation(model, w)
        thetas = self.non_finite_steps(monkeypatch, lambda call: call == 1)
        got = laplace_approximation(model, w)
        np.testing.assert_array_equal(thetas[2] - thetas[0], (thetas[1] - thetas[0]) / 2)
        # Both fits stop once the gradient inf-norm is at most NEWTON_TOL =
        # 1e-8, which pins the MAP to about 1e-8 times the posterior scale.
        _, grad, _ = model.log_joint(got.mean, w)
        assert np.max(np.abs(grad)) <= models.NEWTON_TOL
        np.testing.assert_allclose(got.mean, expected.mean, rtol=0, atol=1e-7)
        np.testing.assert_allclose(got.cov, expected.cov, rtol=0, atol=1e-7)

    def test_no_accepted_halving_raises(self, monkeypatch):
        model = synth_glm_dataset("logistic", 20, seed=2)
        w = np.ones(20)
        _, grad, _ = model.log_joint(model.prior.mean, w)
        thetas = self.non_finite_steps(monkeypatch, lambda call: call > 0)
        with pytest.raises(models.NewtonConvergenceError) as err:
            laplace_approximation(model, w)
        assert len(thetas) == 1 + 30  # the start, then 30 halvings of the first step
        assert err.value.grad_norm == float(np.max(np.abs(grad)))

    def test_step_limit_raises_with_the_starting_gradient(self, monkeypatch):
        model = synth_glm_dataset("logistic", 20, seed=2)
        w = np.ones(20)
        _, grad, _ = model.log_joint(model.prior.mean, w)
        monkeypatch.setattr(models, "MAX_NEWTON", 0)
        with pytest.raises(models.NewtonConvergenceError) as err:
            laplace_approximation(model, w)
        assert err.value.grad_norm == float(np.max(np.abs(grad))) > models.NEWTON_TOL

    def test_posterior_approximation_dispatch(self):
        model = gaussian_mean_model(np.random.default_rng(1).standard_normal((4, 2)))
        w = np.ones(4)
        conj = conjugate_posterior(model, w)
        got = posterior_approximation(model, w)
        np.testing.assert_allclose(got.mean, conj.mean, atol=1e-12)


class TestFitFactorisesOnce:
    """A fit's one Cholesky of H is the posterior's factor pair."""

    @staticmethod
    def radial_basis_fits():
        model = synth_radial_basis_model(1000, seed=(0, 0, 0))
        rng = np.random.default_rng(1)
        w = np.zeros(1000)
        w[rng.choice(1000, 60, replace=False)] = rng.uniform(0.0, 20.0, 60)
        return model, {"full_data": np.ones(1000), "coreset_60": w}

    def test_conjugate_fit_calls_cholesky_and_inv_once(self, monkeypatch):
        model = small_model("linear_regression")
        calls = {"cholesky": 0, "inv": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        conjugate_posterior(model, np.linspace(0.0, 2.0, 12))
        assert calls == {"cholesky": 1, "inv": 1}

    @pytest.mark.parametrize("fit", ["full_data", "coreset_60"])
    def test_factor_pair_matches_the_inverse_of_h(self, fit):
        model, weights = self.radial_basis_fits()
        post = conjugate_posterior(model, weights[fit])
        _, grad, neg_hess = model.log_joint(np.zeros(model.theta_dim), weights[fit])
        cov = np.linalg.inv(neg_hess)
        ref = GaussianDist(np.linalg.solve(neg_hess, grad), (cov + cov.T) / 2.0)
        for name in ("mean", "cov", "chol", "chol_inv"):
            got, want = getattr(post, name), getattr(ref, name)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        rng = np.random.default_rng(4)
        for x in post.mean + rng.standard_normal((5, post.dim)):
            u = solve_triangular(post.chol, x - post.mean, lower=True)
            logpdf = -0.5 * (post.dim * np.log(2 * np.pi)
                             + 2.0 * np.sum(np.log(np.diag(post.chol))) + u @ u)
            assert post.logpdf(x) == pytest.approx(logpdf, rel=1e-12)

    def test_non_positive_definite_h_raises_curvature_error(self, monkeypatch):
        with pytest.raises(models.CurvatureError):
            models._covariance_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
        model = small_model("linear_regression")
        monkeypatch.setattr(BayesianModel, "log_joint",
                            lambda self, theta, w: (0.0, np.zeros(3), -np.eye(3)))
        with pytest.raises(models.CurvatureError):
            conjugate_posterior(model, np.ones(12))

    def test_non_finite_h_raises_curvature_error(self):
        # An overflowed Hessian would otherwise reach the fitted mean's
        # untyped finiteness check.
        for bad in (np.inf, np.nan):
            with pytest.raises(models.CurvatureError, match="not finite"):
                models._covariance_factor(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_fit_forms_cov_on_its_first_read(self):
        model, weights = self.radial_basis_fits()
        post = conjugate_posterior(model, weights["coreset_60"])
        assert "cov" not in vars(post)
        assert not any(a.flags.writeable for a in (post.mean, post.chol, post.chol_inv))
        cov = post.cov
        ref = post.chol @ post.chol.T
        ref = (ref + ref.T) / 2.0
        assert np.array_equal(cov.view(np.int64), ref.view(np.int64))
        assert post.cov is cov and not cov.flags.writeable
        with pytest.raises(AttributeError):
            post.precision_matrix

    def test_fitted_constructor_refuses_a_non_finite_mean(self):
        chol, chol_inv = models._covariance_factor(np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            GaussianDist._fitted(np.array([0.0, np.nan]), chol, chol_inv)


class TestSynthGaussian:
    def test_no_data_gives_prior(self):
        model = synth_gaussian_dataset(3, 0, seed=0)
        post = full_data_posterior(model)
        np.testing.assert_allclose(post.mean, model.prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, model.prior.cov, atol=1e-12)

    def test_seed_reproducibility(self):
        m1 = synth_gaussian_dataset(3, 5, seed=7)
        m2 = synth_gaussian_dataset(3, 5, seed=7)
        assert np.array_equal(m1.dataset.x, m2.dataset.x)


class TestSynthRadialBasis:
    def test_basis_count_and_feature_range(self):
        scales = [0.2, 0.4, 0.8]
        model = synth_radial_basis_model(40, scales, 5, seed=0)
        assert model.dataset.d == len(scales) * 5 + 1
        feats = model.dataset.x
        # kernel range is (0, 1]; float underflow maps remote points to 0
        assert np.all(feats >= 0) and np.all(feats <= 1.0)
        # The last basis, of scale 100 at the coordinate mean, is near-constant.
        assert np.all(feats[:, -1] > 0.99)

    def test_default_basis_is_the_experiments(self):
        # Six widths of 50 bases each, plus the near-constant one.
        model = synth_radial_basis_model(40, seed=3)
        given = synth_radial_basis_model(40, [0.2, 0.4, 0.8, 1.2, 1.6, 2.0], 50, 3)
        assert model.dataset.d == 301
        assert np.array_equal(model.dataset.x, given.dataset.x)
        assert np.array_equal(model.dataset.y, given.dataset.y)

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


class TestCsvRoundTrip:
    def test_three_row_fixture(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,target\n1.0,2.0,1\n-0.5,0.25,-1\n0.0,1.5,1\n")
        ds = load_csv_dataset(path)
        assert ds.n == 3 and ds.d == 2
        assert ds.y.tolist() == [1.0, -1.0, 1.0]

    def test_logistic_label_two_rejected(self, tmp_path):
        # The loader reads any numeric target; the model made of the data
        # checks it against the kind's label domain.
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\n1.0,2\n")
        assert load_csv_dataset(path).y.tolist() == [2.0]
        with pytest.raises(ValueError, match=r"^logistic labels must be in \{-1, \+1\}$"):
            standard_model("logistic", load_csv_dataset(path))

    def test_poisson_negative_target_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\n1.0,-1\n")
        with pytest.raises(ValueError, match="^poisson targets must be non-negative integers$"):
            standard_model("poisson", load_csv_dataset(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\n1.0,1\n1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv_dataset(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\noops,1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("row", ["nan,1", "0.5,inf", "-1e999,1"])
    def test_non_finite_reports_line(self, tmp_path, row):
        # float() reads these, so only the loader's own check names the line.
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,target\n1.0,1\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: non-finite field$"):
            load_csv_dataset(path)

    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
        path = tmp_path / "round.csv"
        save_csv_dataset(path, ds)
        back = load_csv_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
