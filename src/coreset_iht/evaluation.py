"""Coreset quality metrics and empirical verification of the convergence theory.

Provides closed-form Gaussian KL divergence, coreset-vs-full posterior
comparisons, MAP distance, exhaustive restricted-isometry constant
estimation, a brute-force global optimum for small instances, and the
per-iteration error-bound check that the accelerated solver is proven to
satisfy when the isometry constants are known.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
import numpy as np

from .models import GaussianDist
from .problem import SparseRegressionProblem, WeightVector, _as_weights
from .solvers import SolverConfig, solve_aiht

KL_DIRECTIONS = ("forward", "reverse", "symmetrized")
# The most supports estimate_rip and brute_force_optimum enumerate unless
# told otherwise.
DEFAULT_ENUMERATION_BUDGET = 10 ** 6


class EnumerationBudgetError(RuntimeError):
    """Support enumeration would exceed the configured budget."""


class NegativeKlError(RuntimeError):
    """A Gaussian KL divergence came out below -1e-9: the inputs are too
    ill-conditioned for the Cholesky-based formula to be trusted."""


def gaussian_kl(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p || q) between Gaussians, via p's Cholesky factor Lp and the
    inverse of q's, Lq^-1.

    0.5 * (tr(Sq^-1 Sp) + (mq-mp)^T Sq^-1 (mq-mp) - d + logdet Sq - logdet Sp),
    with tr(Sq^-1 Sp) = ||Lq^-1 Lp||_F^2.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    m = q.chol_inv @ p.chol
    trace = float(np.sum(m * m))
    u = q.chol_inv @ (q.mean - p.mean)
    maha = float(u @ u)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(q.chol))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(p.chol))))
    kl = 0.5 * (trace + maha - p.dim + logdet_q - logdet_p)
    if kl < 0:
        if kl < -1e-9:
            raise NegativeKlError(f"KL computed strongly negative: {kl}")
        kl = 0.0
    return kl


def coreset_kl(full: GaussianDist, coreset: GaussianDist,
               direction: str = "reverse") -> float:
    """Divergence between the full-data posterior and the coreset posterior.

    Both are fitted posteriors (``full_data_posterior`` and
    ``posterior_approximation`` of the coreset weights). ``forward`` is
    KL(full || coreset), ``reverse`` is KL(coreset || full), ``symmetrized``
    their sum.
    """
    if direction not in KL_DIRECTIONS:
        raise ValueError(f"direction must be one of {KL_DIRECTIONS}")
    if direction == "forward":
        return gaussian_kl(full, coreset)
    if direction == "reverse":
        return gaussian_kl(coreset, full)
    return gaussian_kl(full, coreset) + gaussian_kl(coreset, full)


def map_l2_distance(full: GaussianDist, coreset: GaussianDist) -> float:
    """l2 distance between the full-data MAP and the coreset MAP, the means
    of the two fitted posteriors."""
    return float(np.linalg.norm(full.mean - coreset.mean))


# -- restricted isometry constants -----------------------------------------

@dataclass(frozen=True)
class RipConstants:
    """Per-sparsity-level squared restricted singular-value bounds of phi.

    ``alpha[s]`` is the smallest and ``beta[s]`` the largest eigenvalue of
    any s-column Gram submatrix, at strictly increasing levels; alpha is
    non-increasing and beta non-decreasing in s.
    """

    levels: tuple
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if not (len(self.levels) == len(self.alpha) == len(self.beta)):
            raise ValueError("levels/alpha/beta length mismatch")
        lv, al, be = self.levels, self.alpha, self.beta
        if any(lv[i] >= lv[i + 1] for i in range(len(lv) - 1)):
            raise ValueError(f"levels must be strictly increasing, got {lv}")
        for a, b in zip(al, be):
            if not (0 <= a <= b):
                raise ValueError("need 0 <= alpha_s <= beta_s at every level")
        if any(al[i] < al[i + 1] - 1e-12 for i in range(len(al) - 1)):
            raise ValueError("alpha must be non-increasing in s")
        if any(be[i] > be[i + 1] + 1e-12 for i in range(len(be) - 1)):
            raise ValueError("beta must be non-decreasing in s")

    def _index(self, s: int) -> int:
        if s not in self.levels:
            raise ValueError(f"no isometry constants at level {s}")
        return self.levels.index(s)

    def alpha_at(self, s: int) -> float:
        return self.alpha[self._index(s)]

    def beta_at(self, s: int) -> float:
        return self.beta[self._index(s)]

    def to_dict(self) -> dict:
        return {"levels": list(self.levels), "alpha": list(self.alpha),
                "beta": list(self.beta)}


def isometry_levels(k: int, n: int) -> tuple:
    """The sparsity levels (k, 2k, 3k, 4k) whose isometry constants the
    error bound uses, each clamped at n (an s-sparse set with s >= n is all
    of R^n)."""
    return tuple(min(m * k, n) for m in (1, 2, 3, 4))


def estimate_rip(problem: SparseRegressionProblem, k: int,
                 budget: int = DEFAULT_ENUMERATION_BUDGET) -> RipConstants:
    """Exhaustive restricted-isometry constants at the levels the error bound
    of a k-sparse solve reads, ``isometry_levels(k, n)`` without repeats.

    For each level s, enumerates every support of size s and takes the
    extreme eigenvalues of the corresponding Gram submatrix. Refuses (no
    sampling fallback) when any level would enumerate more than ``budget``
    supports.
    """
    n = problem.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    levels = sorted(set(isometry_levels(k, n)))
    for s in levels:
        count = math.comb(n, s)
        if count > budget:
            raise EnumerationBudgetError(
                f"level {s} needs {count} supports, budget is {budget}")
    gram = problem.phi.T @ problem.phi
    alpha, beta = [], []
    for s in levels:
        lo, hi = np.inf, -np.inf
        for support in itertools.combinations(range(n), s):
            idx = np.asarray(support)
            evs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
            lo = min(lo, evs[0])
            hi = max(hi, evs[-1])
        alpha.append(max(float(lo), 0.0))
        beta.append(float(hi))
    return RipConstants(tuple(levels), tuple(alpha), tuple(beta))


# -- brute-force optimum ----------------------------------------------------

def nnls_on_support(phi_cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact non-negative least squares: argmin ||phi_cols u - y|| over u >= 0.

    Lawson-Hanson active set (Solving Least Squares Problems, 1974, ch. 23)
    on linearly independent passive columns, stopping when no gradient
    exceeds its rounding level, so the KKT conditions hold to rounding, also
    on rank-deficient and wide blocks. Entering candidates are tried largest
    gradient first, the lower index first on a tie. Each outer step lowers
    the objective, so a passive set recurs only if rounding made the method
    cycle; then it raises ``RuntimeError``.

    On a very wide block the rounding level's 10·max(m, k)·eps factor stops
    the method early, as designed, not as a fault: over all 5000 columns of
    the 30 x 5000 Gram factor of a logistic projection (S = 500) it stops at
    f/||y||^2 of 2e-9 to 3e-9 with 19-21 columns, where scipy's NNLS reaches
    1e-29 to 2e-29 with all 30.
    """
    m, k = phi_cols.shape
    # rounding level of phi_cols^T (y - phi_cols u) at the block's size and scale
    tol = 10.0 * max(m, k) * np.finfo(float).eps * np.linalg.norm(phi_cols) * np.linalg.norm(y)

    def fit(cols):  # least squares on the masked columns; full rank at numpy's cutoff?
        sol, _, rank, _ = np.linalg.lstsq(phi_cols[:, cols], y, rcond=None)
        z = np.zeros(k)
        z[cols] = sol
        return z, rank == sol.size

    u, passive, seen = np.zeros(k), np.zeros(k, dtype=bool), set()
    while (key := passive.tobytes()) not in seen:
        seen.add(key)
        grad = phi_cols.T @ (y - phi_cols @ u)
        candidates = np.flatnonzero(~passive & (grad > tol))
        # largest gradient first; the stable sort puts the lower index first on a tie
        for j in candidates[np.argsort(-grad[candidates], kind="stable")]:
            z, independent = fit(passive | (np.arange(k) == j))
            if independent and z[j] > 0:
                break
        else:
            return u
        passive[j] = True
        while np.any(z[passive] <= 0):  # each pass zeroes a coordinate of P
            blocking = np.flatnonzero(passive & (z <= 0))
            ratios = u[blocking] / (u[blocking] - z[blocking])
            u = u + ratios.min() * (z - u)
            u[blocking[np.argmin(ratios)]] = 0.0
            passive &= u > 0
            z, _ = fit(passive)
        u = z
    raise RuntimeError("active-set NNLS revisited a passive set: rounding made it cycle")


def brute_force_optimum(problem: SparseRegressionProblem, k: int,
                        budget: int = DEFAULT_ENUMERATION_BUDGET):
    """Global optimum of the k-sparse non-negative fit by support enumeration.

    Solves the non-negative least-squares subproblem on every size-k support
    and keeps the best; exact ties keep the lexicographically first support.
    Returns (weights, objective value).
    """
    n = problem.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    count = math.comb(n, k)
    if count > budget:
        raise EnumerationBudgetError(f"{count} supports exceed budget {budget}")
    best_f = np.inf
    best_support = None
    best_u = None
    for support in itertools.combinations(range(n), k):
        idx = np.asarray(support)
        u = nnls_on_support(problem.phi[:, idx], problem.y)
        r = problem.y - problem.phi[:, idx] @ u
        f = float(r @ r)
        if f < best_f:
            best_f, best_support, best_u = f, idx, u
    w = np.zeros(n)
    w[best_support] = best_u
    return WeightVector(w), best_f


# -- solver error-bound verification ----------------------------------------

def contraction_factor(rip: RipConstants, k: int, n: int) -> float:
    """Per-iteration contraction constant from the isometry bounds.

    2 max(beta_2k/alpha_3k - 1, 1 - alpha_2k/beta_3k)
      + (beta_4k - alpha_4k)/alpha_3k,
    at the levels of ``isometry_levels(k, n)``.
    """
    _, l2, l3, l4 = isometry_levels(k, n)
    a2, a3, a4 = rip.alpha_at(l2), rip.alpha_at(l3), rip.alpha_at(l4)
    b2, b3, b4 = rip.beta_at(l2), rip.beta_at(l3), rip.beta_at(l4)
    if a3 <= 0 or b3 <= 0:
        raise ValueError("contraction factor needs alpha_3k > 0 and beta_3k > 0")
    return 2.0 * max(b2 / a3 - 1.0, 1.0 - a2 / b3) + (b4 - a4) / a3


def decay_rate(contraction: float, momentum_max: float) -> float:
    """Geometric rate for the two-step error recurrence."""
    r, t = contraction, momentum_max
    return (r * (1.0 + t) + math.sqrt((r * (1.0 + t)) ** 2 + 4.0 * r * t)) / 2.0


def check_iterative_invariant(problem: SparseRegressionProblem, cfg: SolverConfig,
                              w_star: WeightVector, rip: RipConstants) -> dict:
    """Run the accelerated solver and verify its per-iteration error bound.

    With e_t = ||w_t - w*||, each iteration must satisfy

        e_{t+1} <= rho |1 + tau_t| e_t + rho |tau_t| e_{t-1}
                   + 2 beta_3k sqrt(beta_2k) ||y - phi w*||,

    where tau_t is the momentum coefficient that produced the iteration's
    momentum iterate and rho the contraction factor from the isometry
    constants. ``w_star`` must be the global optimum (use the brute-force
    search) and ``rip`` must hold ``isometry_levels(k, n)``, as
    ``estimate_rip(problem, k)`` does.

    Returns the report ``theory_check.json`` stores: ``contraction`` (rho),
    ``rate``, ``momentum_max`` (the largest |tau_t|), ``residual_norm``
    (||y - phi w*||), ``linear_rate``, ``all_satisfied``, the solve's
    ``objectives`` and one entry ``{iteration, error, bound, satisfied}``
    per iteration. ``linear_rate`` flags the regime where the two-step
    recurrence contracts (contraction < 1 / (1 + 2 momentum_max)); in that
    regime (and with zero optimal residual) ``rate``, the ``decay_rate``,
    upper-bounds the geometric objective decay per iteration.
    """
    n = problem.n
    k = cfg.k
    rho = contraction_factor(rip, k, n)
    _, l2, l3, _ = isometry_levels(k, n)
    b2, b3 = rip.beta_at(l2), rip.beta_at(l3)
    ws = _as_weights(w_star)
    resid = problem.y - problem.phi @ ws
    eps_norm = float(np.linalg.norm(resid))
    noise_term = 2.0 * b3 * math.sqrt(b2) * eps_norm

    capture = []
    _, trace = solve_aiht(problem, cfg, capture=capture)

    iterates = [np.zeros(n)] + [c["w_next"] for c in capture]
    taus = [0.0] + [c["tau"] for c in capture]
    errors = [float(np.linalg.norm(it - ws)) for it in iterates]
    entries = []
    for t in range(len(capture)):
        tau_t = taus[t]  # momentum that formed this iteration's z_t
        err_prev2 = errors[t - 1] if t >= 1 else errors[0]
        bound = rho * abs(1.0 + tau_t) * errors[t] + rho * abs(tau_t) * err_prev2 + noise_term
        err = errors[t + 1]
        satisfied = err <= bound * (1.0 + 1e-9) + 1e-12
        entries.append({"iteration": t, "error": err, "bound": bound,
                        "satisfied": satisfied})
    momentum_max = max(abs(t) for t in taus)
    return {
        "contraction": rho,
        "rate": decay_rate(rho, momentum_max),
        "momentum_max": momentum_max,
        "residual_norm": eps_norm,
        "linear_rate": rho < 1.0 / (1.0 + 2.0 * momentum_max),
        "all_satisfied": all(e["satisfied"] for e in entries),
        "objectives": [r.f for r in trace.records],
        "entries": entries,
    }


# -- synthetic instances for the theory machinery ----------------------------

def make_planted_problem(n: int, s_dim: int, k: int, seed,
                         near_orthonormal: bool = False):
    """Random instance with a planted non-negative k-sparse solution.

    Gaussian phi by default; with ``near_orthonormal`` the columns are an
    orthonormal frame plus an N(0, 0.003^2) perturbation, which keeps the
    isometry constants tight enough for the linear-rate regime. Returns
    (problem, planted weights); the target is phi @ w so the optimal residual
    is zero.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    if near_orthonormal:
        if s_dim < n:
            raise ValueError("near-orthonormal instances need s_dim >= n")
        q, _ = np.linalg.qr(rng.standard_normal((s_dim, n)))
        phi = q + 0.003 * rng.standard_normal((s_dim, n))
    else:
        phi = rng.standard_normal((s_dim, n))
    support = rng.choice(n, size=k, replace=False)
    w = np.zeros(n)
    w[support] = rng.uniform(1.0, 5.0, size=k)
    weights = WeightVector(w)
    return SparseRegressionProblem(phi, phi @ w), weights
