"""Bayesian models, posterior approximations, and the log-likelihood projection.

Four model kinds are supported:

* ``gaussian_mean``      -- x_i ~ N(theta, obs_cov), conjugate Gaussian prior.
* ``linear_regression``  -- y_i ~ N(b_i^T theta, noise_var) with feature rows
  b_i (radial-basis features for the synthetic regression generator).
* ``logistic``           -- y_i in {-1,+1}, P(y=1) = sigmoid(z_i^T theta) with
  z_i = [x_i, 1].
* ``poisson``            -- y_i ~ Poisson(softplus(z_i^T theta)).

``BayesianModel.log_joint`` is the one definition of each kind's posterior
algebra. The conjugate posterior (gaussian_mean, linear_regression) is one
Newton step on it from theta = 0, exact because a conjugate log joint is
quadratic; the Laplace fit (logistic, poisson) runs damped Newton on it to the
MAP. Neither fit has a tolerance to set.

``build_projection`` turns a model plus a weighting distribution into the
finite-dimensional sparse regression problem: column i holds the centered,
1/sqrt(S)-scaled log-likelihood evaluations of data point i at S posterior
samples.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import expit, gammaln

from .problem import SparseRegressionProblem, _as_weights, _frozen_array

MODEL_KINDS = ("gaussian_mean", "linear_regression", "logistic", "poisson")
CONJUGATE_KINDS = ("gaussian_mean", "linear_regression")

COV_SYMMETRY_TOL = 1e-10
NEWTON_TOL = 1e-8       # gradient inf-norm at which the Laplace fit stops
MAX_NEWTON = 200        # Newton steps before NewtonConvergenceError


class LikelihoodError(ValueError):
    """Log-likelihood evaluated to a non-finite value."""


class NewtonConvergenceError(RuntimeError):
    """MAP search failed to reach the gradient tolerance."""

    def __init__(self, grad_norm: float, message: str = ""):
        super().__init__(message or f"Newton did not converge; final gradient inf-norm {grad_norm:.3e}")
        self.grad_norm = grad_norm


class CurvatureError(RuntimeError):
    """Negative Hessian of the log joint is not positive definite."""


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Multivariate Gaussian carrying its (lower) Cholesky factor."""

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError(f"mean must be 1-D, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov has shape {cov.shape}, expected ({d}, {d})")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean/cov contain non-finite entries")
        if np.max(np.abs(cov - cov.T)) > COV_SYMMETRY_TOL:
            raise ValueError("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky((cov + cov.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "cov", _frozen_array(cov))
        object.__setattr__(self, "chol", _frozen_array(chol))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` vectors, shape (size, dim)."""
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self.chol.T

    def logpdf(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        u = solve_triangular(self.chol, x - self.mean, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        return float(-0.5 * (self.dim * np.log(2 * np.pi) + logdet + u @ u))

    def precision(self) -> np.ndarray:
        eye = np.eye(self.dim)
        prec = cho_solve((np.asarray(self.chol), True), eye)
        return (prec + prec.T) / 2.0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix x (N x D) and target vector y (N)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({x.shape[0]},)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "x", _frozen_array(x))
        object.__setattr__(self, "y", _frozen_array(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _validate_labels(kind: str, y: np.ndarray) -> None:
    if kind == "logistic":
        if y.size and not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("logistic labels must be in {-1, +1}")
    elif kind == "poisson":
        if y.size and (np.any(y < 0) or np.any(y != np.floor(y))):
            raise ValueError("poisson targets must be non-negative integers")


@dataclass(frozen=True, eq=False)
class BayesianModel:
    """A model kind, its data, a Gaussian prior, and kind-specific parameters.

    ``basis_means``/``basis_scales`` are metadata for radial-basis regression
    models; the feature matrix in ``dataset.x`` is already expanded.
    """

    kind: str
    dataset: Dataset
    prior: GaussianDist
    noise_var: Optional[float] = None
    obs_cov: Optional[np.ndarray] = None
    basis_means: Optional[np.ndarray] = None
    basis_scales: Optional[np.ndarray] = None
    obs_prec: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        _validate_labels(self.kind, self.dataset.y)
        if self.kind == "gaussian_mean":
            obs_cov = self.obs_cov if self.obs_cov is not None else np.eye(self.dataset.d)
            obs_cov = np.asarray(obs_cov, dtype=np.float64)
            if obs_cov.shape != (self.dataset.d, self.dataset.d):
                raise ValueError("obs_cov shape does not match feature dimension")
            np.linalg.cholesky(obs_cov)  # must be positive definite
            obs_prec = np.linalg.inv(obs_cov)
            object.__setattr__(self, "obs_cov", _frozen_array(obs_cov))
            object.__setattr__(self, "obs_prec", _frozen_array((obs_prec + obs_prec.T) / 2.0))
        elif self.kind == "linear_regression":
            if self.noise_var is None or not self.noise_var > 0:
                raise ValueError("linear_regression requires noise_var > 0")
        if self.prior.dim != self.theta_dim:
            raise ValueError(
                f"prior dimension {self.prior.dim} does not match parameter dimension {self.theta_dim}")
        if self.basis_means is not None:
            object.__setattr__(self, "basis_means", _frozen_array(self.basis_means))
        if self.basis_scales is not None:
            object.__setattr__(self, "basis_scales", _frozen_array(self.basis_scales))

    @property
    def theta_dim(self) -> int:
        if self.kind in ("logistic", "poisson"):
            return self.dataset.d + 1
        return self.dataset.d

    def design(self) -> np.ndarray:
        """GLM design matrix: features with an appended intercept column."""
        return np.hstack([self.dataset.x, np.ones((self.dataset.n, 1))])

    # -- log likelihoods -------------------------------------------------

    def log_likelihood_matrix(self, thetas) -> np.ndarray:
        """L_i(theta_j) for every data point i and parameter row j.

        ``thetas`` has shape (S, theta_dim); the result has shape (S, N).
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        if thetas.shape[1] != self.theta_dim:
            raise ValueError(
                f"theta dimension {thetas.shape[1]} does not match model dimension {self.theta_dim}")
        x, y = self.dataset.x, self.dataset.y
        if self.kind == "gaussian_mean":
            prec = self.obs_prec
            _, logdet = np.linalg.slogdet(self.obs_cov)
            norm_const = -0.5 * (x.shape[1] * np.log(2 * np.pi) + logdet)
            xq = np.einsum("nd,nd->n", x @ prec, x)
            tq = np.einsum("sd,sd->s", thetas @ prec, thetas)
            cross = thetas @ prec @ x.T
            quad = xq[None, :] - 2.0 * cross + tq[:, None]
            return norm_const - 0.5 * quad
        if self.kind == "linear_regression":
            preds = thetas @ x.T
            norm_const = -0.5 * np.log(2 * np.pi * self.noise_var)
            return norm_const - (y[None, :] - preds) ** 2 / (2.0 * self.noise_var)
        z = self.design()
        t = thetas @ z.T
        if self.kind == "logistic":
            return -np.logaddexp(0.0, -y[None, :] * t)
        # poisson: rate softplus(t); an underflowed rate yields a non-finite
        # value that callers turn into LikelihoodError
        lam = np.logaddexp(0.0, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return y[None, :] * np.log(lam) - lam - gammaln(y + 1.0)[None, :]

    def log_likelihood(self, i: int, theta) -> float:
        """L_i(theta) for a single data point; errors on non-finite output."""
        if not 0 <= i < self.dataset.n:
            raise ValueError(f"data index {i} out of range [0, {self.dataset.n})")
        theta = np.asarray(theta, dtype=np.float64)
        value = float(self.log_likelihood_matrix(theta[None, :])[0, i])
        if not np.isfinite(value):
            raise LikelihoodError(f"non-finite log-likelihood at data index {i}, theta={theta}")
        return value

    # -- weighted log joint and derivatives ------------------------------

    def log_joint(self, theta, weights) -> tuple:
        """(value, gradient, negative Hessian) of log prior + sum_i w_i L_i.

        The weights must be non-negative with one entry per data point.
        """
        theta = np.asarray(theta, dtype=np.float64)
        w = _as_weights(weights)
        if w.shape != (self.dataset.n,):
            raise ValueError(f"weights have shape {w.shape}, expected ({self.dataset.n},)")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        prior_prec = self.prior.precision()
        diff = theta - self.prior.mean
        value = self.prior.logpdf(theta) + float(w @ self.log_likelihood_matrix(theta[None, :])[0])
        grad = -prior_prec @ diff
        neg_hess = prior_prec.copy()

        x, y = self.dataset.x, self.dataset.y
        if self.kind == "gaussian_mean":
            w_sum = float(w.sum())
            grad += self.obs_prec @ (x.T @ w - w_sum * theta)
            neg_hess += w_sum * self.obs_prec
        elif self.kind == "linear_regression":
            resid = y - x @ theta
            grad += x.T @ (w * resid) / self.noise_var
            neg_hess += (x.T * w) @ x / self.noise_var
        else:
            z = self.design()
            t = z @ theta
            s = expit(t)
            if self.kind == "logistic":
                grad += z.T @ (w * y * expit(-y * t))
                neg_hess += (z.T * (w * s * (1.0 - s))) @ z
            else:
                lam = np.logaddexp(0.0, t)
                with np.errstate(divide="ignore", invalid="ignore"):
                    grad += z.T @ (w * (y * s / lam - s))
                    # -d2L/dt2 = s(1-s) - y (s(1-s) lam - s^2)/lam^2, >= 0 for y >= 0
                    curv = s * (1.0 - s) - y * (s * (1.0 - s) * lam - s * s) / lam ** 2
                    neg_hess += (z.T * (w * curv)) @ z
        return value, grad, (neg_hess + neg_hess.T) / 2.0


def log_likelihood(model: BayesianModel, i: int, theta) -> float:
    return model.log_likelihood(i, theta)


# -- projection -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Centered, 1/sqrt(S)-scaled log-likelihood evaluations, one column per
    data point, plus the weighting distribution and seed that produced them."""

    phi: np.ndarray
    weighting_dist: GaussianDist
    rng_seed: object

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.ndim != 2 or phi.shape[0] < 2:
            raise ValueError(f"phi must be 2-D with at least 2 rows, got shape {phi.shape}")
        col_scale = np.max(np.abs(phi), axis=0)
        col_mean = np.abs(phi.mean(axis=0))
        if np.any(col_mean > 1e-10 * np.maximum(col_scale, 1e-300)):
            raise ValueError("projection columns are not centered")
        object.__setattr__(self, "phi", _frozen_array(phi))

    @property
    def s_count(self) -> int:
        return self.phi.shape[0]

    def to_problem(self) -> SparseRegressionProblem:
        return SparseRegressionProblem.from_columns(self.phi)


def build_projection(model: BayesianModel, pi_hat: GaussianDist, s_count: int,
                     seed) -> ProjectionSet:
    """Monte Carlo projection of the per-point log-likelihoods.

    Draws theta_1..theta_S i.i.d. from ``pi_hat`` (sequentially, from one
    seeded generator), then centers each data point's evaluation column and
    scales by 1/sqrt(S).
    """
    if s_count < 2:
        raise ValueError(f"s_count must be >= 2, got {s_count}")
    if pi_hat.dim != model.theta_dim:
        raise ValueError("weighting distribution dimension does not match the model")
    rng = np.random.default_rng(seed)
    thetas = pi_hat.sample(rng, s_count)
    lmat = model.log_likelihood_matrix(thetas)
    if not np.all(np.isfinite(lmat)):
        bad = np.argwhere(~np.isfinite(lmat))[0]
        raise LikelihoodError(
            f"non-finite log-likelihood at data index {bad[1]} for sampled theta {bad[0]}")
    centered = lmat - lmat.mean(axis=0, keepdims=True)
    # A column constant in theta centers to zero exactly; the eps-scale
    # residue left by the mean computation is snapped out.
    col_scale = np.maximum(1.0, np.max(np.abs(lmat), axis=0))
    constant = np.max(np.abs(centered), axis=0) <= 16 * np.finfo(float).eps * col_scale
    centered[:, constant] = 0.0
    return ProjectionSet(centered / np.sqrt(s_count), pi_hat, seed)


# -- posteriors -----------------------------------------------------------

def _cholesky(neg_hess: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError as exc:
        raise CurvatureError("negative Hessian of the log joint is not positive definite") from exc


def _gaussian_fit(mean: np.ndarray, chol: np.ndarray) -> GaussianDist:
    """N(mean, H^-1), with ``chol`` the Cholesky factor of the negative Hessian H."""
    cov = cho_solve((chol, True), np.eye(mean.shape[0]))
    return GaussianDist(mean, (cov + cov.T) / 2.0)


def conjugate_posterior(model: BayesianModel, weights) -> GaussianDist:
    """Exact weighted posterior for the two conjugate model kinds.

    One Newton step on the weighted log joint from theta = 0; the step lands
    on the posterior mean because a conjugate log joint is quadratic, and
    its negative Hessian is the posterior precision.
    """
    if model.kind not in CONJUGATE_KINDS:
        raise ValueError(f"no conjugate posterior for kind {model.kind!r}")
    theta = np.zeros(model.theta_dim)
    _, grad, neg_hess = model.log_joint(theta, weights)
    chol = _cholesky(neg_hess)
    return _gaussian_fit(theta + cho_solve((chol, True), grad), chol)


def laplace_approximation(model: BayesianModel, weights) -> GaussianDist:
    """Gaussian fit at the MAP of the weighted log joint.

    Damped Newton from the prior mean: full steps, halved up to 30 times,
    accepting only log-joint increases, until the gradient inf-norm drops to
    ``NEWTON_TOL`` within ``MAX_NEWTON`` steps. Returns N(theta_MAP, H^-1)
    with H the negative Hessian there.
    """
    theta = np.array(model.prior.mean, dtype=np.float64)
    value, grad, neg_hess = model.log_joint(theta, weights)
    for newton_step in range(MAX_NEWTON + 1):
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= NEWTON_TOL:
            return _gaussian_fit(theta, _cholesky(neg_hess))
        if newton_step == MAX_NEWTON:
            break
        direction = cho_solve((_cholesky(neg_hess), True), grad)
        # Near the MAP the true increase of a full Newton step falls below
        # the float resolution of the log joint while the gradient still
        # shrinks quadratically, so a step within evaluation noise is
        # accepted as long as it reduces the gradient norm.
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(value))
        step = 1.0
        for _ in range(30):
            cand = theta + step * direction
            cand_value, cand_grad, cand_hess = model.log_joint(cand, weights)
            if np.isfinite(cand_value) and (
                cand_value > value
                or (cand_value >= value - noise
                    and float(np.max(np.abs(cand_grad))) < grad_norm)
            ):
                theta, value, grad, neg_hess = cand, cand_value, cand_grad, cand_hess
                break
            step /= 2.0
        else:  # no halved step was accepted
            break
    raise NewtonConvergenceError(grad_norm)


def posterior_approximation(model: BayesianModel, weights) -> GaussianDist:
    """Weighted posterior: exact for conjugate kinds, Laplace otherwise."""
    if model.kind in CONJUGATE_KINDS:
        return conjugate_posterior(model, weights)
    return laplace_approximation(model, weights)


def full_data_posterior(model: BayesianModel) -> GaussianDist:
    """All-ones posterior; the default weighting distribution pi-hat."""
    return posterior_approximation(model, np.ones(model.dataset.n))


# -- synthetic data generators --------------------------------------------

def synth_gaussian_dataset(d: int, n: int, seed) -> tuple:
    """Draw theta ~ N(0, I) and x_i ~ N(theta, I); return (model, posterior).

    The returned posterior is the exact (conjugate) full-data posterior.
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    x = theta + rng.standard_normal((n, d))
    model = BayesianModel(
        kind="gaussian_mean",
        dataset=Dataset(x, np.zeros(n)),
        prior=GaussianDist(np.zeros(d), np.eye(d)),
        obs_cov=np.eye(d),
    )
    return model, conjugate_posterior(model, np.ones(n))


def synth_radial_basis_model(n: int, basis_scales, per_scale_count: int, seed,
                             obs_noise: float = 0.5) -> BayesianModel:
    """Synthetic 2-D radial-basis regression model.

    Generates 2-D coordinates, builds ``per_scale_count`` Gaussian bases per
    scale with means sampled uniformly from the coordinates, plus one
    near-constant basis of scale 100 at the coordinate mean. Responses come
    from a random coefficient draw plus observation noise. The likelihood
    noise variance is the empirical response variance; the prior is
    N(mean(y), mean(y^2) I).
    """
    basis_scales = [float(s) for s in basis_scales]
    if n < 1 or per_scale_count < 1 or not basis_scales:
        raise ValueError("need n >= 1, per_scale_count >= 1, and at least one scale")
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n, 2)) * 2.0
    means = []
    scales = []
    for s in basis_scales:
        idx = rng.choice(n, size=per_scale_count, replace=True)
        means.append(coords[idx])
        scales.extend([s] * per_scale_count)
    means.append(coords.mean(axis=0, keepdims=True))
    scales.append(100.0)
    means = np.vstack(means)
    scales = np.asarray(scales)
    sq_dist = ((coords[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    feats = np.exp(-sq_dist / (2.0 * scales[None, :] ** 2))
    d = feats.shape[1]
    alpha = rng.standard_normal(d)
    y = feats @ alpha + obs_noise * rng.standard_normal(n)
    noise_var = float(np.var(y))
    prior = GaussianDist(np.full(d, y.mean()), float(np.mean(y ** 2)) * np.eye(d))
    return BayesianModel(
        kind="linear_regression",
        dataset=Dataset(feats, y),
        prior=prior,
        noise_var=noise_var,
        basis_means=means,
        basis_scales=scales,
    )


def synth_glm_dataset(kind: str, n: int, d: Optional[int] = None, seed=0,
                      true_theta=None) -> BayesianModel:
    """Synthetic logistic (default D=2, theta=[3,3,0]) or Poisson
    (default D=1, theta=[1,0]) regression model with prior N(0, I)."""
    if kind not in ("logistic", "poisson"):
        raise ValueError(f"kind must be 'logistic' or 'poisson', got {kind!r}")
    if d is None:
        d = 2 if kind == "logistic" else 1
    if true_theta is None:
        slope = 3.0 if kind == "logistic" else 1.0
        true_theta = np.concatenate([np.full(d, slope), [0.0]])
    true_theta = np.asarray(true_theta, dtype=np.float64)
    if true_theta.shape != (d + 1,):
        raise ValueError(f"true_theta must have length {d + 1}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = x @ true_theta[:d] + true_theta[d]
    if kind == "logistic":
        y = np.where(rng.random(n) < expit(t), 1.0, -1.0)
    else:
        y = rng.poisson(np.logaddexp(0.0, t)).astype(np.float64)
    prior = GaussianDist(np.zeros(d + 1), np.eye(d + 1))
    return BayesianModel(kind=kind, dataset=Dataset(x, y), prior=prior)


# -- CSV ingestion ---------------------------------------------------------

def load_csv_dataset(path, kind: str) -> Dataset:
    """Parse a dataset CSV: header row, feature columns, target last.

    UTF-8, '.' decimal separator. Raises on malformed rows (with the line
    number) and on targets outside the model kind's label domain.
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"kind must be one of {MODEL_KINDS}, got {kind!r}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        width = len(header)
        if width < 2:
            raise ValueError(f"{path}: need at least one feature column and a target column")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    x, y = data[:, :-1], data[:, -1]
    _validate_labels(kind, y)
    return Dataset(x, y)


def save_csv_dataset(path, dataset: Dataset) -> None:
    """Write a dataset in the format ``load_csv_dataset`` reads back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.d)] + ["target"])
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
