import numpy as np

from coreset_iht import SparseRegressionProblem, conjugate_posterior, synth_radial_basis_model


def random_problem(rng, s_dim, n, y_scale=1.0):
    phi = rng.standard_normal((s_dim, n))
    y = y_scale * rng.standard_normal(s_dim)
    return SparseRegressionProblem(phi, y)


def recovery_problem(rng, s_dim, n, k, value_range=(1.0, 5.0)):
    """Gaussian phi with a planted non-negative k-sparse solution (zero residual)."""
    phi = rng.standard_normal((s_dim, n))
    support = rng.choice(n, size=k, replace=False)
    w = np.zeros(n)
    w[support] = rng.uniform(*value_range, size=k)
    return SparseRegressionProblem(phi, phi @ w), w


def radial_basis_prior_and_posterior():
    """The d = 301 radial-basis model's prior and a 60-point coreset posterior."""
    model = synth_radial_basis_model(1000, seed=(0, 0, 0))
    rng = np.random.default_rng(1)
    w = np.zeros(1000)
    w[rng.choice(1000, 60, replace=False)] = rng.uniform(0.0, 20.0, 60)
    return model.prior, conjugate_posterior(model, w)
