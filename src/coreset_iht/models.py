"""Bayesian models, posterior approximations, and the log-likelihood projection.

Four model kinds are supported:

* ``gaussian_mean``      -- x_i ~ N(theta, I), conjugate Gaussian prior.
* ``linear_regression``  -- y_i ~ N(b_i^T theta, noise_var) with feature rows
  b_i (radial-basis features for the synthetic regression generator) and
  noise_var the targets' variance.
* ``logistic``           -- y_i in {-1,+1}, P(y=1) = sigmoid(z_i^T theta) with
  z_i = [x_i, 1].
* ``poisson``            -- y_i ~ Poisson(softplus(z_i^T theta)).

``BayesianModel.log_joint`` is the one definition of each kind's posterior
algebra. The conjugate posterior (gaussian_mean, linear_regression) is one
Newton step on it from theta = 0, exact because a conjugate log joint is
quadratic; the Laplace fit (logistic, poisson) runs damped Newton on it to the
MAP. Neither fit has a tolerance to set. ``log_joint`` evaluates the likelihood
only on the data rows with a positive weight, so a fit on a k-point coreset
touches k rows, not N.

``build_projection`` turns a model plus a weighting distribution into the
finite-dimensional projection: column i holds the centered, 1/sqrt(S)-scaled
log-likelihood evaluations of data point i at S posterior samples.
``ProjectionSet.to_problem`` makes the sparse regression problem from it, on
the rank-r factor of its Gram matrix unless a wide projection has rank above
S/2.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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

    def __init__(self, grad_norm: float):
        super().__init__(f"Newton did not converge; final gradient inf-norm {grad_norm:.3e}")
        self.grad_norm = grad_norm


class CurvatureError(RuntimeError):
    """Negative Hessian of the log joint is not positive definite."""


def _expit(t):
    """Logistic sigmoid 1 / (1 + e^-t); e^-|t| never overflows."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def _softplus(t: np.ndarray, tmp: np.ndarray, log_sigmoid: bool = False) -> np.ndarray:
    """Overwrite ``t`` with softplus(t) = log(1 + e^t) = max(t, 0) +
    log1p(e^-|t|), or with log sigmoid(t) = -softplus(-t) = min(t, 0) -
    log1p(e^-|t|), and return it; ``tmp`` is scratch of ``t``'s shape.

    This is np.logaddexp(0, t)'s formula, but on numpy's vectorised exp and
    log1p rather than its scalar loop, so an entry may differ from it in the
    last bit. e^-|t| never overflows; +-inf give what logaddexp gives, and a
    NaN stays NaN.
    """
    np.abs(t, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.log1p(tmp, out=tmp)
    if log_sigmoid:
        np.minimum(t, 0.0, out=t)
        return np.subtract(t, tmp, out=t)
    np.maximum(t, 0.0, out=t)
    return np.add(t, tmp, out=t)


_CHUNK_ENTRIES = 8192  # entries per row chunk of an in-place likelihood finish


def _row_chunks(a: np.ndarray):
    """(row slice, rows, scratch) over consecutive row blocks of the 2-D
    ``a``, about ``_CHUNK_ENTRIES`` entries each (at least one row), with one
    scratch array reused for all of them."""
    step = max(1, _CHUNK_ENTRIES // max(1, a.shape[1]))
    scratch = np.empty((min(step, a.shape[0]), a.shape[1]))
    for lo in range(0, a.shape[0], step):
        rows = a[lo:lo + step]
        yield slice(lo, lo + step), rows, scratch[:rows.shape[0]]


def _tril_inv(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix with a positive diagonal; the
    dense inverse leaves rounding residue above the diagonal, cleared here."""
    return np.tril(np.linalg.inv(chol))


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Multivariate Gaussian carrying its (lower) Cholesky factor L of the
    covariance and that factor's inverse, so cov^-1 = L^-T L^-1.

    Made in one of two ways. ``GaussianDist(mean, cov)`` takes a covariance
    from outside a fit (a prior, a config, a test): it checks shape,
    finiteness, symmetry and positive definiteness, then factors and inverts
    it. ``GaussianDist._fitted(mean, chol, chol_inv)`` takes the pair a
    posterior fit already holds from its one factorisation of the precision
    (``_covariance_factor``) and factors nothing; it forms ``cov`` = L Lᵀ
    only when ``cov`` is first read.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    chol_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError(f"mean must be 1-D, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov has shape {cov.shape}, expected ({d}, {d})")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite entries")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance contains non-finite entries")
        if np.max(np.abs(cov - cov.T)) > COV_SYMMETRY_TOL:
            raise ValueError("covariance is not symmetric")
        try:
            chol = np.linalg.cholesky((cov + cov.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        for name, value in (("mean", mean), ("cov", cov), ("chol", chol),
                            ("chol_inv", _tril_inv(chol))):
            object.__setattr__(self, name, _frozen_array(value))

    @classmethod
    def _fitted(cls, mean: np.ndarray, chol: np.ndarray, chol_inv: np.ndarray) -> "GaussianDist":
        """N(mean, chol chol^T) from a fit's factor pair, ``chol_inv`` the
        inverse of ``chol``. The three arrays are the fit's own and are
        frozen in place, not copied; ``cov`` is formed on its first read.
        Only finiteness is checked: it is the last guard against a
        non-finite Newton result."""
        if not all(np.all(np.isfinite(a)) for a in (mean, chol, chol_inv)):
            raise ValueError("mean/cov contain non-finite entries")
        dist = object.__new__(cls)
        for name, value in (("mean", mean), ("chol", chol), ("chol_inv", chol_inv)):
            value.setflags(write=False)
            object.__setattr__(dist, name, value)
        return dist

    def __getattr__(self, name):
        # Called only for a missing attribute: a fitted distribution's cov,
        # which nothing in a sweep reads, is formed here once.
        if name != "cov":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        cov = self.chol @ self.chol.T
        cov = (cov + cov.T) / 2.0
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        return cov

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` vectors, shape (size, dim)."""
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self.chol.T

    def logpdf(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        u = self.chol_inv @ (x - self.mean)
        logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        return float(-0.5 * (self.dim * np.log(2 * np.pi) + logdet + u @ u))

    def precision(self) -> np.ndarray:
        prec = self.chol_inv.T @ self.chol_inv
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
    """A model kind, its data and a Gaussian prior.

    The targets are checked against the kind's label domain. The prior
    precision, a linear_regression model's noise variance (the targets'
    variance, or 1 when the targets are constant; refused when it overflows)
    and a Poisson model's log y_i! are derived once. A gaussian_mean model's
    observation covariance is the identity.
    """

    kind: str
    dataset: Dataset
    prior: GaussianDist
    noise_var: Optional[float] = field(init=False, default=None)
    prior_prec: np.ndarray = field(init=False, repr=False)
    log_factorial_y: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        _validate_labels(self.kind, self.dataset.y)
        if self.kind == "linear_regression":
            with np.errstate(over="ignore", invalid="ignore"):
                noise_var = float(np.var(self.dataset.y)) or 1.0
            if not math.isfinite(noise_var):
                raise ValueError("linear_regression noise variance (the targets' "
                                 "variance) is not finite")
            object.__setattr__(self, "noise_var", noise_var)
        elif self.kind == "poisson":
            log_fact = [math.lgamma(v + 1.0) for v in self.dataset.y]
            object.__setattr__(self, "log_factorial_y", _frozen_array(np.array(log_fact)))
        if self.prior.dim != self.theta_dim:
            raise ValueError(
                f"prior dimension {self.prior.dim} does not match parameter dimension {self.theta_dim}")
        object.__setattr__(self, "prior_prec", _frozen_array(self.prior.precision()))

    @property
    def theta_dim(self) -> int:
        if self.kind in ("logistic", "poisson"):
            return self.dataset.d + 1
        return self.dataset.d

    # -- log likelihoods -------------------------------------------------

    def log_likelihood_matrix(self, thetas) -> np.ndarray:
        """L_i(theta_j) for every data point i and parameter row j.

        ``thetas`` has shape (S, theta_dim); the result has shape (S, N).
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        if thetas.shape[1] != self.theta_dim:
            raise ValueError(
                f"theta dimension {thetas.shape[1]} does not match model dimension {self.theta_dim}")
        return self._log_likelihoods(thetas, slice(None))

    def _log_likelihoods(self, thetas: np.ndarray, rows) -> np.ndarray:
        """``log_likelihood_matrix`` restricted to the data rows ``rows`` (an
        index array or a slice)."""
        # Overflow gives a non-finite entry, not a warning: build_projection
        # finds such entries and raises LikelihoodError naming the data
        # index, and the Laplace fit rejects a trial point whose log joint
        # is not finite.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x, y = self.dataset.x[rows], self.dataset.y[rows]
            # Each kind fills the N x S transpose from one product of its
            # design with thetas.T, so every block is column-major like phi,
            # and finishes it in place (the GLMs a row chunk at a time with
            # one chunk-sized temporary) in the out-of-place formulas' bits.
            if self.kind == "gaussian_mean":
                norm_const = -0.5 * x.shape[1] * np.log(2 * np.pi)
                xq = np.einsum("nd,nd->n", x, x)
                tq = np.einsum("sd,sd->s", thetas, thetas)
                # norm_const - 0.5 * (xq - 2 cross + tq)
                out = x @ thetas.T
                out *= 2.0
                np.subtract(xq[:, None], out, out=out)
                out += tq[None, :]
                out *= 0.5
                np.subtract(norm_const, out, out=out)
            elif self.kind == "linear_regression":
                # norm_const - (y - preds)^2 / (2 noise_var)
                out = x @ thetas.T
                norm_const = -0.5 * np.log(2 * np.pi * self.noise_var)
                np.subtract(y[:, None], out, out=out)
                np.square(out, out=out)
                out /= 2.0 * self.noise_var
                np.subtract(norm_const, out, out=out)
            elif self.kind == "logistic":
                # log sigmoid(y t) = -log(1 + exp(-y t)). As y = +-1, signing
                # the design rows gives y t exactly from one product.
                out = (_with_intercept(x) * y[:, None]) @ thetas.T
                for _, chunk, tmp in _row_chunks(out):
                    _softplus(chunk, tmp, log_sigmoid=True)
            else:
                # poisson: y log(lam) - lam - log y! with rate lam =
                # softplus(t); an underflowed rate gives a non-finite value
                out = _with_intercept(x) @ thetas.T
                log_factorial_y = self.log_factorial_y[rows]
                for i, lam, tmp in _row_chunks(out):
                    _softplus(lam, tmp)
                    np.log(lam, out=tmp)
                    tmp *= y[i, None]
                    tmp -= lam
                    np.subtract(tmp, log_factorial_y[i, None], out=lam)
            return out.T

    # -- weighted log joint and derivatives ------------------------------

    def log_joint(self, theta, weights) -> tuple:
        """(value, gradient, negative Hessian) of log prior + sum_i w_i L_i.

        The weights must be non-negative with one entry per data point; the
        sum runs over the rows with w_i > 0 only.
        """
        theta = np.asarray(theta, dtype=np.float64)
        w = _as_weights(weights)
        if w.shape != (self.dataset.n,):
            raise ValueError(f"weights have shape {w.shape}, expected ({self.dataset.n},)")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        rows = np.flatnonzero(w)
        x, y, w = self.dataset.x[rows], self.dataset.y[rows], w[rows]
        diff = theta - self.prior.mean
        value = self.prior.logpdf(theta) + float(w @ self._log_likelihoods(theta[None, :], rows)[0])
        grad = -self.prior_prec @ diff
        neg_hess = self.prior_prec.copy()

        # As in _log_likelihoods, overflow gives a non-finite value, not a
        # warning, so the fit's own checks end it with a typed error.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.kind == "gaussian_mean":
                w_sum = float(w.sum())
                grad += x.T @ w - w_sum * theta
                neg_hess += w_sum * np.eye(theta.shape[0])
            elif self.kind == "linear_regression":
                resid = y - x @ theta
                grad += x.T @ (w * resid) / self.noise_var
                neg_hess += (x.T * w) @ x / self.noise_var
            else:
                z = _with_intercept(x)
                t = z @ theta
                s = _expit(t)
                if self.kind == "logistic":
                    grad += z.T @ (w * y * _expit(-y * t))
                    neg_hess += (z.T * (w * s * (1.0 - s))) @ z
                else:
                    lam = _softplus(t, np.empty_like(t))  # t is not read again
                    grad += z.T @ (w * (y * s / lam - s))
                    # -d2L/dt2 = s(1-s) - y (s(1-s) lam - s^2)/lam^2, >= 0 for y >= 0
                    curv = s * (1.0 - s) - y * (s * (1.0 - s) * lam - s * s) / lam ** 2
                    neg_hess += (z.T * (w * curv)) @ z
        return value, grad, (neg_hess + neg_hess.T) / 2.0


def _with_intercept(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


# -- projection -----------------------------------------------------------

PROJECTION_BLOCK = 512  # data columns per log-likelihood block of a build


def _max_abs(a: np.ndarray) -> np.ndarray:
    """max |a| down each column, exactly, without an |a| temporary."""
    return np.maximum(a.max(axis=0), -a.min(axis=0))


# A wide phi is solved on its factor only while the factor has at most
# 1/_WIDE_ROW_REDUCTION of phi's rows: the factor must at least halve every
# product to pay for itself. A full-rank phi (radial-basis: r = 499 of 500)
# is kept as it is.
_WIDE_ROW_REDUCTION = 2


def _pivoted_cholesky(g: np.ndarray, tol: float, max_rows: int):
    """The r x m rows Lᵀ of a partial pivoted Cholesky factor G ≈ L Lᵀ of the
    m x m positive semidefinite ``g``, or None when r would exceed
    ``max_rows``.

    Each step pivots on the largest residual diagonal (the lowest index on a
    tie) and stops once that diagonal is at most ``tol``; G - L Lᵀ is then
    positive semidefinite with trace at most m * tol. At least one row is
    made, so a zero ``g`` gives one zero row. Only ``g`` and the rows are
    held: no eigendecomposition workspace (Harbrecht, Peters & Schneider,
    Appl. Numer. Math. 62(4), 2012).
    """
    m = g.shape[0]
    rows = np.zeros((min(max_rows, m), m))
    d = g.diagonal().copy()
    for j in range(m):
        p = int(np.argmax(d))
        if j > 0 and d[p] <= tol:
            return rows[:j]
        if j == max_rows:
            return None
        if d[p] > 0.0:  # else g is zero and row 0 stays zero
            rows[j] = (g[p] - rows[:j, p] @ rows[:j]) / np.sqrt(d[p])
            d -= rows[j] * rows[j]
            d[p] = 0.0
    return rows


def _gram_factor(phi: np.ndarray):
    """An r x n factor B with BᵀB ≈ phiᵀphi, column-major and read-only, or
    None when a wide ``phi`` (S <= n) has more than S / _WIDE_ROW_REDUCTION
    numerical rank and should be solved as it is.

    A partial pivoted Cholesky G ≈ L Lᵀ of the smaller Gram matrix, phiᵀphi
    (tall) or phi phiᵀ (wide), stops at residual diagonals of at most
    max(S, n) * eps * max diag(G). Tall: B = Lᵀ. Wide: B = Qᵀ phi, Q an
    orthonormal basis of range(L). For y = phi @ 1 and every w,
    ||y - phi w||^2 = (1 - w)ᵀ phiᵀphi (1 - w), and ||B 1 - B w||^2 differs
    from it by at most trace(G - L Lᵀ) * ||1 - w||^2. So the problem on B has
    the objective, gradient and line minima of the S-row one up to rounding,
    and each product reads r/S as much. A Gaussian experiment's phi has exact
    rank d + 1, since log N(x_i | theta) is quadratic in theta; a GLM's
    log-likelihoods are smooth in a low-dimensional theta, so their singular
    values decay fast.
    """
    s_dim, n = phi.shape
    tall = s_dim > n
    g = phi.T @ phi if tall else phi @ phi.T
    tol = max(s_dim, n) * np.finfo(np.float64).eps * float(g.diagonal().max())
    rows = _pivoted_cholesky(g, tol, n if tall else s_dim // _WIDE_ROW_REDUCTION)
    del g  # freed before the r x n product below
    if rows is None:
        return None
    if tall:
        factor = np.asfortranarray(rows)
    else:
        q = np.linalg.qr(rows.T)[0]
        # Column-major, as the projection is, so gathered columns are
        # contiguous; filled in column blocks, so no second r x n copy is held.
        factor = np.empty((q.shape[1], n), order="F")
        for start in range(0, n, PROJECTION_BLOCK):
            block = slice(start, start + PROJECTION_BLOCK)
            factor[:, block] = q.T @ phi[:, block]
    factor.setflags(write=False)  # so the problem built on it shares it
    return factor


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Centered, 1/sqrt(S)-scaled log-likelihood evaluations, one column per
    data point.

    ``phi`` is stored column-major and read-only. ``ProjectionSet(phi)``
    checks that every entry is finite and every column centred;
    ``build_projection`` makes its projection with ``_built``, which keeps
    the array it built as it is.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.ndim != 2 or phi.shape[0] < 2:
            raise ValueError(f"phi must be 2-D with at least 2 rows, got shape {phi.shape}")
        col_scale = _max_abs(phi)
        # A NaN makes its column's max-abs NaN, and +-inf makes it infinite.
        if not np.all(np.isfinite(col_scale)):
            raise ValueError("phi contains non-finite entries")
        col_mean = np.abs(phi.mean(axis=0))
        if np.any(col_mean > 1e-10 * np.maximum(col_scale, 1e-300)):
            raise ValueError("projection columns are not centered")
        object.__setattr__(self, "phi", _frozen_array(phi, order="F"))

    @classmethod
    def _built(cls, phi: np.ndarray) -> "ProjectionSet":
        """The projection around ``build_projection``'s own column-major,
        read-only ``phi``, which the build has checked finite and centred as
        it wrote it, so it is neither copied nor scanned again."""
        proj = object.__new__(cls)
        object.__setattr__(proj, "phi", phi)
        return proj

    def to_problem(self) -> SparseRegressionProblem:
        """The coreset problem, target the column sum, on the rank-r Gram
        factor of ``phi`` (``_gram_factor``): the S-row problem's objective
        up to rounding, at r/S of the cost per product. A wide ``phi`` whose
        rank is above S/2 has no factor; its problem shares ``phi``."""
        factor = _gram_factor(self.phi)
        return SparseRegressionProblem.from_columns(self.phi if factor is None else factor)


def build_projection(model: BayesianModel, pi_hat: GaussianDist, s_count: int,
                     seed) -> ProjectionSet:
    """Monte Carlo projection of the per-point log-likelihoods.

    Draws theta_1..theta_S i.i.d. from ``pi_hat`` (sequentially, from one
    seeded generator), then centers each data point's evaluation column and
    scales by 1/sqrt(S).

    The log-likelihoods are evaluated on blocks of ``PROJECTION_BLOCK`` data
    columns. Each block is centred and snapped in place, then divided by
    sqrt(S) straight into its slot of the one column-major S x N array that
    the projection keeps, which is allocated once the first block exists;
    every block is column-major already, so that copy is contiguous. A build
    of N > ``PROJECTION_BLOCK`` points therefore holds that array, at
    most two blocks and a row chunk of scratch at its peak, and a one-block
    build two S x N arrays. The build checks each block as it goes, so the
    ``ProjectionSet`` it returns does not scan ``phi`` again.
    """
    if s_count < 2:
        raise ValueError(f"s_count must be >= 2, got {s_count}")
    if pi_hat.dim != model.theta_dim:
        raise ValueError("weighting distribution dimension does not match the model")
    n = model.dataset.n
    if n < 1:
        raise ValueError("the model has no data points")
    rng = np.random.default_rng(seed)
    thetas = pi_hat.sample(rng, s_count)
    phi = None
    bad = None  # the row-major first non-finite entry: (theta, data index)
    overflow = False  # a finite block whose centred values are not all finite
    for lo in range(0, n, PROJECTION_BLOCK):
        block = model._log_likelihoods(thetas, slice(lo, lo + PROJECTION_BLOCK))
        col_max, col_min = block.max(axis=0), block.min(axis=0)
        # A NaN makes both extremes NaN and an infinity one of them.
        if not (np.all(np.isfinite(col_max)) and np.all(np.isfinite(col_min))):
            theta, col = np.argwhere(~np.isfinite(block))[0]
            first = (int(theta), lo + int(col))
            bad = first if bad is None else min(bad, first)
        if bad is None and not overflow:
            with np.errstate(over="ignore", invalid="ignore"):
                mean = block.mean(axis=0)
                # Rounding is monotone, so every entry centres to a finite
                # value exactly when both extremes do, and dividing by
                # sqrt(S) > 1 keeps it finite.
                overflow = not (np.all(np.isfinite(col_max - mean))
                                and np.all(np.isfinite(col_min - mean)))
                block -= mean
            # A column constant in theta centers to zero exactly; the mean
            # of equal values can round away from them, so its residue is
            # snapped out.
            block[:, col_max == col_min] = 0.0
            if phi is None:
                phi = np.empty((s_count, n), order="F")
            np.divide(block, np.sqrt(s_count), out=phi[:, lo:lo + block.shape[1]])
        # Freed now, or it would stay alive while the next block is evaluated.
        del block
    if bad is not None:
        raise LikelihoodError(
            f"non-finite log-likelihood at data index {bad[1]} for sampled theta {bad[0]}")
    if overflow:
        raise ValueError("phi contains non-finite entries")
    phi.setflags(write=False)
    return ProjectionSet._built(phi)


# -- posteriors -----------------------------------------------------------

def _covariance_factor(neg_hess: np.ndarray) -> tuple:
    """(L, L^-1) for the covariance H^-1 of the negative Hessian H, from one
    Cholesky factorisation of H.

    Factoring H with its indices reversed, J H J = M M^T (J the reversal),
    gives H = U U^T with U = J M J upper triangular. So H^-1 = U^-T U^-1,
    and since a Cholesky factor is unique, L = U^-T and L^-1 = U^T = J M^T J
    (Golub & Van Loan, Matrix Computations, sec. 4.2). Raises
    ``CurvatureError`` when H is not finite or not positive definite.
    """
    if not np.all(np.isfinite(neg_hess)):
        raise CurvatureError("negative Hessian of the log joint is not finite")
    try:
        m = np.linalg.cholesky(neg_hess[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise CurvatureError("negative Hessian of the log joint is not positive definite") from exc
    # Column-major, as a copy of the reversed view always was: the products
    # that read it round by its layout.
    chol_inv = np.asfortranarray(m.T[::-1, ::-1])
    return _tril_inv(chol_inv), chol_inv


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
    chol, chol_inv = _covariance_factor(neg_hess)
    return GaussianDist._fitted(theta + chol @ (chol.T @ grad), chol, chol_inv)


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
            return GaussianDist._fitted(theta, *_covariance_factor(neg_hess))
        # An overflowed curvature gives no Newton step to take.
        if newton_step == MAX_NEWTON or not np.all(np.isfinite(neg_hess)):
            break
        chol, _ = _covariance_factor(neg_hess)
        direction = chol @ (chol.T @ grad)
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

def standard_model(kind: str, dataset: Dataset) -> BayesianModel:
    """The ``kind`` model of ``dataset`` with prior N(0, I) on its parameters,
    the logistic and Poisson intercept included."""
    d = dataset.d + 1 if kind in ("logistic", "poisson") else dataset.d
    return BayesianModel(kind=kind, dataset=dataset, prior=GaussianDist(np.zeros(d), np.eye(d)))


def synth_gaussian_dataset(d: int, n: int, seed) -> BayesianModel:
    """Draw theta ~ N(0, I) and x_i ~ N(theta, I); return the Gaussian-mean
    model with prior N(0, I) and observation covariance I."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    x = theta + rng.standard_normal((n, d))
    return standard_model("gaussian_mean", Dataset(x, np.zeros(n)))


def synth_radial_basis_model(n: int, basis_scales=(0.2, 0.4, 0.8, 1.2, 1.6, 2.0),
                             per_scale_count: int = 50, seed=0) -> BayesianModel:
    """Synthetic 2-D radial-basis regression model.

    Generates 2-D coordinates, builds ``per_scale_count`` Gaussian bases per
    scale with means sampled uniformly from the coordinates, plus one
    near-constant basis of scale 100 at the coordinate mean. Responses come
    from a random coefficient draw plus N(0, 0.5^2) observation noise. The
    prior is N(mean(y), mean(y^2) I); the model derives its noise variance
    from the responses. The default basis, 50 bases at each of six
    widths (301 features), is the ``radial_basis`` experiment's.
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
    # Squared distances one coordinate at a time, with no N x B x 2
    # temporary; the bits are those of the sum over the coordinate axis.
    sq_dist = (coords[:, 0, None] - means[None, :, 0]) ** 2
    sq_dist += (coords[:, 1, None] - means[None, :, 1]) ** 2
    feats = np.exp(-sq_dist / (2.0 * scales[None, :] ** 2))
    d = feats.shape[1]
    alpha = rng.standard_normal(d)
    y = feats @ alpha + 0.5 * rng.standard_normal(n)
    prior = GaussianDist(np.full(d, y.mean()), float(np.mean(y ** 2)) * np.eye(d))
    return BayesianModel(kind="linear_regression", dataset=Dataset(feats, y), prior=prior)


def synth_glm_dataset(kind: str, n: int, d: Optional[int] = None, seed=0) -> BayesianModel:
    """Synthetic logistic (default D=2, every slope 3) or Poisson (default
    D=1, every slope 1) regression model, intercept 0, with prior N(0, I)."""
    if kind not in ("logistic", "poisson"):
        raise ValueError(f"kind must be 'logistic' or 'poisson', got {kind!r}")
    if d is None:
        d = 2 if kind == "logistic" else 1
    slope = 3.0 if kind == "logistic" else 1.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = x @ np.full(d, slope)
    if kind == "logistic":
        y = np.where(rng.random(n) < _expit(t), 1.0, -1.0)
    else:
        y = rng.poisson(np.logaddexp(0.0, t)).astype(np.float64)
    return standard_model(kind, Dataset(x, y))


# -- CSV ingestion ---------------------------------------------------------

def load_csv_dataset(path) -> Dataset:
    """Parse a dataset CSV: header row, feature columns, target last.

    UTF-8, '.' decimal separator. Raises on a malformed row or a
    non-numeric or non-finite field (with the line number). The targets are
    checked against a model kind's label domain when a ``BayesianModel`` is
    made of the dataset.
    """
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
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}: line {lineno}: non-finite field")
            rows.append(values)
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    return Dataset(data[:, :-1], data[:, -1])


def save_csv_dataset(path, dataset: Dataset) -> None:
    """Write a dataset in the format ``load_csv_dataset`` reads back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.d)] + ["target"])
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
