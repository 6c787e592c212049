"""Iterative hard-thresholding solvers for the non-negative k-sparse fit.

Four variants are provided:

* ``solve_vanilla_iht``  -- fixed-step projected gradient descent.
* ``solve_aiht``         -- automated variant with exact line search on the
  support-restricted gradient, active subspace expansion, and momentum whose
  coefficient is itself line-searched.
* ``solve_aiht_debias``  -- same, plus a de-bias step per iteration: a second
  line-searched gradient step confined to the current sparse support.
* ``solve_aiht_batched`` -- ``solve_aiht`` with a stochastic gradient.

The three accelerated variants share one iteration kernel. Per iteration it
reads the whole of ``phi`` for one product, ``phi.T @ r`` in the gradient.
Every other product is with a vector of at most 3k nonzeros: the image of
the momentum iterate z (at most 2k nonzeros) inside the gradient, the line
search, the debias step, the momentum coefficient and the objective. Such a
product multiplies only the gathered columns when they are at most 1/8 of
the n columns, O(s_dim * k), and reads the whole of ``phi`` otherwise
(``problem._Columns``); a projection's problem is column-major, so each
gathered column is one contiguous copy. So on a wide problem (n >> 8 * 3k)
an iteration costs about one gradient. ``ProjectionSet.to_problem`` builds
the problem on an r x n factor B with B^T B = phi^T phi up to rounding,
tall or wide, where r is the numerical rank: d + 1 for a Gaussian
experiment, about 30 of 500 rows for the logistic and Poisson ones at
n = 5000. It has the S-row problem's objective for every w up to rounding,
so each product costs O(r * n), not O(s_dim * n). A wide ``phi`` whose rank
is above s_dim / 2 (radial-basis) has no such factor and is solved as it is.

Beyond that product an iteration makes O(n) passes over dense n-vectors and
no more: the two top-k selections (the gradient outside supp(z), and the
projected step), each an O(n) partition, one comparison with the k-th value
and a count, plus a scan for ties only when more than k entries reach the
k-th value; elementwise arithmetic for the projected step, the debias step
and the momentum extrapolation; and the reductions ||d||^2 and the two
norms of the convergence test. Each selection is a boolean n-mask, and an
index set is read from a mask by one scan for nonzeros: the expanded
support is the expansion's mask with supp(z) set in it, and
supp(x) | supp(w) is the mask of x with supp(w) set in it, so no index set
is sorted or merged. The supports of z, w and x are carried as sorted index
arrays, so no other pass scans for nonzeros, and no ``WeightVector`` is
validated until the solve returns. The image of z reuses the columns the
previous iteration gathered for supp(x) and supp(w), which are supp(z)
unless a coordinate of z cancelled, and those columns are gathered again
only when supp(x) and supp(w) join to a new set. The kernel selects from
vectors it made itself, so it skips the NaN check of the public top-k
helpers. So an iteration costs one gradient plus the O(n) passes and the
per-call overhead of the numpy calls; the README quotes measured times.

An accelerated solve ends at the first of four tests: ``converged`` when the
iterate moves by at most ``rel_tol`` of its norm, ``stalled`` after two zero
steps in a row, ``cycled`` after ``CYCLE_PATIENCE`` iterations in a row
whose supp(w) this solve has already visited and whose f is not strictly
below the trace minimum, and ``max_iters`` at the cap. The cycle test comes
after the other two, so a solve that converges or stalls reports that. It
reads the support tuple and f each trace record already holds, plus a set
of the supports visited. Radial-basis solves cycle among 3-4 supports
long before the cap, and neither other test sees it. Every solver, vanilla
included, returns the first iterate with the trace-minimum f, whatever ended
the solve: the momentum step makes f non-monotone, so the last iterate can
be worse. The trace still records every iteration.

``solve_aiht_batched`` swaps the exact gradient for an unbiased two-mask
stochastic estimator so large problems can run on data batches. Along a
stochastic direction the step is the exact minimizer of the objective on
that line (``step_along``), clipped at 0, since ``line_search_step`` is a
minimizer only for the exact restricted gradient. The first stochastic step
that is small (the ``rel_tol`` test) or stalled (step 0) switches the run to
the exact gradient for the rest of the solve, so ``converged``, ``stalled``
and ``cycled`` are only ever reported from exact-gradient steps, and no
stochastic step counts toward a cycle. With ``batch_fraction=1`` the
estimator is the exact gradient and the solve is ``solve_aiht``, bit for
bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional

import numpy as np

from .problem import (
    SparseRegressionProblem,
    WeightVector,
    _as_weights,
    _check_length,
    _Columns,
    _gradient,
    _residual,
    _top_k_mask,
    gradient,
    objective,
)

DEFAULT_MAX_ITERS = 300
DEFAULT_MAX_ITERS_BATCHED = 500
# Exact-gradient iterations in a row that revisit a support without going
# below the trace minimum before an accelerated solve stops as ``cycled``.
CYCLE_PATIENCE = 10


class Termination(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    STALLED = "stalled"
    CYCLED = "cycled"


class DivergenceError(RuntimeError):
    """Objective became non-finite; carries the offending iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"objective became non-finite at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """The settings every solver reads: the sparsity k, the iteration cap and
    the ``rel_tol`` stopping test.

    ``max_iters=None`` selects the solver's own default cap
    (``DEFAULT_MAX_ITERS``, or ``DEFAULT_MAX_ITERS_BATCHED`` for the batched
    solver). A setting only one solver reads is that solver's argument: the
    vanilla step, and the batched solver's batch fraction and seed.
    """

    k: int
    max_iters: Optional[int] = None
    rel_tol: float = 1e-5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


TRACE_FIELDS = ("iter", "f", "mu", "tau", "support", "ns")


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    f: float
    mu: float
    tau: float
    support: tuple
    ns: int


@dataclass
class SolverTrace:
    """Per-iteration history of a solve plus the termination reason.

    ``ns`` is wall-clock nanoseconds per iteration and is the only
    nondeterministic field; everything else is a pure function of
    (problem, config, seed).
    """

    records: list
    termination: Termination

    def __len__(self) -> int:
        return len(self.records)

    def objectives(self) -> np.ndarray:
        return np.array([r.f for r in self.records])

    def with_zeroed_time(self) -> "SolverTrace":
        records = [
            TraceRecord(r.iter, r.f, r.mu, r.tau, r.support, 0) for r in self.records
        ]
        return SolverTrace(records, self.termination)

    def to_dict(self) -> dict:
        """``records`` holds one row per iteration, its values in the order
        of ``fields``. A row's support is None when it equals the previous
        row's, so the first row always carries its support."""
        rows = []
        previous = None
        for r in self.records:
            support = None if r.support == previous else list(r.support)
            previous = r.support
            rows.append([r.iter, r.f, r.mu, r.tau, support, r.ns])
        return {"termination": self.termination.value, "fields": list(TRACE_FIELDS),
                "records": rows}


def line_search_step(problem: SparseRegressionProblem, direction) -> float:
    """Exact minimizer of f(z - mu * d) over mu: ||d||^2 / (2 ||phi d||^2).

    Returns 0 when ``phi @ d`` vanishes (the degenerate contract).
    """
    d = np.asarray(direction, dtype=np.float64)
    _check_length(problem, d)
    return _exact_step(d, _Columns(problem.phi, np.flatnonzero(d)).image(d))


def _exact_step(d: np.ndarray, pd: np.ndarray) -> float:
    """``line_search_step`` from the direction d and its image phi @ d."""
    denom = float(pd @ pd)
    if denom == 0.0:
        return 0.0
    return float(d @ d) / (2.0 * denom)


def _line_minimizer(r: np.ndarray, pd: np.ndarray) -> float:
    """argmin over t of ||r - t * pd||^2, i.e. <r, pd> / ||pd||^2; 0 when
    ``pd`` vanishes."""
    denom = float(pd @ pd)
    if denom == 0.0:
        return 0.0
    return float(r @ pd) / denom


def step_along(problem: SparseRegressionProblem, point, direction) -> float:
    """Exact minimizer of f(z - mu * d) over mu >= 0 for any direction d.

    mu = <phi z - y, phi d> / ||phi d||^2, clipped at 0 when d is not a
    descent direction at z. For the exact gradient restricted to a support S
    this equals ``line_search_step``, since <phi z - y, phi g|S> =
    ||g|S||^2 / 2. Both images come from the columns in supp(z) and supp(d),
    so while those are small shares of n the cost is
    O(s_dim * (|supp z| + |supp d|)). Returns 0 when ``phi @ d`` vanishes.
    """
    z = _as_weights(point)
    d = np.asarray(direction, dtype=np.float64)
    _check_length(problem, z)
    _check_length(problem, d)
    pd = _Columns(problem.phi, np.flatnonzero(d)).image(d)
    return _step_along(_residual(problem, z), pd)


def _step_along(r: np.ndarray, pd: np.ndarray) -> float:
    """``step_along`` from the residual r = y - phi z and the image phi @ d."""
    # f(z - mu d) = ||r - mu (-pd)||^2.
    return max(0.0, _line_minimizer(r, -pd))


def momentum_coefficient(problem: SparseRegressionProblem, w_next, w_prev) -> float:
    """Momentum coefficient for the extrapolation direction d = w_next - w_prev:
    the exact minimizer of f(w_next + tau * d),
    <y - phi w_next, phi d> / ||phi d||^2. Returns 0 when ``phi @ d``
    vanishes.
    """
    wn = _as_weights(w_next)
    wp = _as_weights(w_prev)
    _check_length(problem, wn)
    _check_length(problem, wp)
    d = wn - wp
    pd = _Columns(problem.phi, np.flatnonzero(d)).image(d)
    return _line_minimizer(_residual(problem, wn), pd)


def stochastic_gradient(problem: SparseRegressionProblem, weights,
                        batch_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Unbiased two-mask estimator of the gradient.

    Two independent uniform index subsets of size B = round(batch_fraction*n)
    are drawn; each mask zeroes the unselected coordinates and scales the
    selected ones by n/B, one applied to ``w`` inside the residual and one to
    the output coordinates. Expectation over the draws equals the gradient.
    Only the B output coordinates are computed, so for a batch of at most
    n/8 and a sparse ``w`` the cost is O(s_dim * B) rather than
    O(s_dim * n).
    """
    if not 0 < batch_fraction <= 1:
        raise ValueError(f"batch_fraction must be in (0, 1], got {batch_fraction}")
    w = _as_weights(weights)
    _check_length(problem, w)
    n = problem.n
    b = int(round(batch_fraction * n))
    if b == 0:
        raise ValueError(f"batch size rounds to zero (batch_fraction={batch_fraction}, n={n})")
    scale = n / b
    sel_inner = rng.choice(n, size=b, replace=False)
    sel_outer = rng.choice(n, size=b, replace=False)
    masked_w = np.zeros(n)
    masked_w[sel_inner] = w[sel_inner] * scale
    out = np.zeros(n)
    out[sel_outer] = _Columns(problem.phi, sel_outer).gradient(
        _residual(problem, masked_w)) * scale
    return out


def _converged(w_new: np.ndarray, w_old: np.ndarray, rel_tol: float) -> bool:
    # ||w_new|| = 0 counts as converged only when ||w_old|| = 0 too;
    # the plain inequality already encodes that. sqrt(d @ d) is what
    # np.linalg.norm computes for a 1-D float vector, without its dispatch.
    d = w_new - w_old
    return math.sqrt(d @ d) <= rel_tol * math.sqrt(w_new @ w_new)


def _expanded_support(grad: np.ndarray, k: int, z_support: np.ndarray) -> np.ndarray:
    """supp(z) joined with the k largest-magnitude gradient entries outside
    it, as a sorted index array: ``np.union1d(project_topk_excluding(grad, k,
    z_support), z_support)`` for the kernel's own ``z_support``, read from
    one selection mask."""
    # Magnitudes are >= 0, so -1 ranks every entry of supp(z) below every
    # candidate; an entry of supp(z) that fills a place is in the union anyway.
    magnitude = np.abs(grad)
    magnitude[z_support] = -1.0
    keep = _top_k_mask(magnitude, k)
    keep[z_support] = True
    return keep.nonzero()[0]


def _projected_step(v: np.ndarray, k: int, t: int):
    """(selected, values): the projection of v onto the k-sparse cone as the
    k indices it selects and their entries. A selected zero is not in the
    support. A non-finite selected entry raises ``DivergenceError(t)``."""
    clipped = np.where(v > 0, v, 0.0)
    selected = _top_k_mask(clipped, k).nonzero()[0]
    values = clipped[selected]
    if not np.isfinite(values).all():
        raise DivergenceError(t)
    return selected, values


def solve_vanilla_iht(problem: SparseRegressionProblem, cfg: SolverConfig,
                      step: float):
    """Fixed-step projected gradient descent onto the k-sparse cone.

    Returns the first iterate with the trace-minimum f. Raises
    ``DivergenceError`` when the projected step or the objective turns
    non-finite, which a bad fixed step can cause.
    """
    if not 0 < step < np.inf:
        raise ValueError(f"step must be > 0 and finite, got {step}")
    if cfg.k > problem.n:
        raise ValueError(f"k={cfg.k} exceeds problem size n={problem.n}")
    max_iters = cfg.max_iters or DEFAULT_MAX_ITERS
    w = np.zeros(problem.n)
    best_w, best_f = w, math.inf
    records = []
    termination = Termination.MAX_ITERS
    # Overflow is an expected outcome of a bad fixed step; the isfinite
    # check below turns it into DivergenceError without warning noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(max_iters):
            t0 = time.perf_counter_ns()
            grad = gradient(problem, w)
            selected, values = _projected_step(w - step * grad, cfg.k, t)
            w_next = np.zeros(problem.n)
            w_next[selected] = values
            f = objective(problem, w_next)
            if not math.isfinite(f):
                raise DivergenceError(t)
            ns = time.perf_counter_ns() - t0
            support = selected[values != 0.0]
            records.append(TraceRecord(t, f, step, 0.0, tuple(support.tolist()), ns))
            if f < best_f:
                best_w, best_f = w_next, f
            done = _converged(w_next, w, cfg.rel_tol)
            w = w_next
            if done:
                termination = Termination.CONVERGED
                break
    return WeightVector(best_w), SolverTrace(records, termination)


def _accelerated_iht(problem: SparseRegressionProblem, cfg: SolverConfig, *,
                     debias: bool, max_iters: int,
                     gradient_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                     capture: Optional[list] = None):
    """Shared accelerated-IHT loop of at most ``max_iters`` iterations.

    ``gradient_fn`` is an estimate of the gradient at z that replaces the
    exact one: the step comes from ``step_along``, and the first small or
    stalled step switches the loop to the exact gradient instead of
    terminating it.

    Only the gradient's ``phi.T @ r`` has to read all of ``phi``. Every
    other product is with a vector of at most 3k nonzeros and goes through
    ``_Columns``: the line search over the expanded support, and one shared
    set of columns, supp(x) and supp(w), for the debias step, the momentum
    coefficient and the objective. phi @ (w_next - w) is the image of the
    exact difference; a difference of two images would cancel to a few
    digits as the iterates settle, and that error changes the iterates.

    supp(z), supp(w) and supp(x) are sorted index arrays read from the
    selection mask and the gathered coordinates, not from scans of n-vectors.
    A non-finite projected step raises ``DivergenceError``, as a non-finite
    objective does.
    """
    if cfg.k > problem.n:
        raise ValueError(f"k={cfg.k} exceeds problem size n={problem.n}")

    n = problem.n
    w = np.zeros(n)
    z = np.zeros(n)
    w_support = z_support = np.zeros(0, dtype=np.int64)
    cols = _Columns(problem.phi, z_support)
    best_w, best_f = w, math.inf
    visited = set()
    records = []
    termination = Termination.MAX_ITERS
    stall_run = cycle_run = 0

    for t in range(max_iters):
        t0 = time.perf_counter_ns()
        # supp(z) is the set gathered last iteration unless a coordinate of z
        # cancelled; if it is, those columns are reused.
        z_cols = cols if cols.idx.size == z_support.size else _Columns(problem.phi, z_support)
        if gradient_fn is None:
            grad = _gradient(problem, _residual(problem, z, z_cols))
        else:
            grad = gradient_fn(z)
        # |support| <= 3k. grad_restricted is restrict(grad, support),
        # scattered from the gathered entries; the indices are the kernel's
        # own, so none is checked again.
        support = _expanded_support(grad, cfg.k, z_support)
        grad_support = grad[support]
        grad_restricted = np.zeros(n)
        grad_restricted[support] = grad_support
        pd = _Columns(problem.phi, support[grad_support != 0.0]).image(grad_restricted)
        if gradient_fn is not None:
            mu = _step_along(_residual(problem, z, z_cols), pd)
        else:
            mu = _exact_step(grad_restricted, pd)
        stalled_now = mu == 0.0

        # Projected step uses the full gradient; only mu comes from the
        # restricted one.
        selected, values = _projected_step(z - mu * grad, cfg.k, t)
        x = np.zeros(n)
        x[selected] = values
        x_projected = x
        # Every later product of the iteration is with a vector that is zero
        # outside supp(x) and supp(w), so those columns are gathered once,
        # or not at all when the last iteration gathered the same set.
        xw = x != 0.0
        xw[w_support] = True
        xw_support = xw.nonzero()[0]
        if xw_support.shape != cols.idx.shape or (xw_support != cols.idx).any():
            cols = _Columns(problem.phi, xw_support)

        mu_debias = None
        debias_grad = None
        if debias:
            # The gradient at x restricted to supp(x).
            on_x = x[cols.idx] != 0.0
            debias_grad = np.zeros(n)
            debias_grad[cols.idx[on_x]] = cols.gradient(problem.y - cols.image(x))[on_x]
            if float(debias_grad @ debias_grad) > 0.0:
                mu_debias = _exact_step(debias_grad, cols.image(debias_grad))
                # Support cannot grow: the restricted gradient vanishes off
                # supp(x), so only the non-negativity projection is needed.
                x = np.maximum(x - mu_debias * debias_grad, 0.0)

        w_next = x
        step = w_next - w
        r_next = problem.y - cols.image(w_next)
        tau = _line_minimizer(r_next, cols.image(step))
        z_next = w_next + tau * step
        f = float(r_next @ r_next)
        if not math.isfinite(f):
            raise DivergenceError(t)
        # w_next and z_next are zero outside the gathered columns.
        w_next_support = cols.idx[w_next[cols.idx] != 0.0]
        ns = time.perf_counter_ns() - t0
        record = TraceRecord(t, f, mu, tau, tuple(w_next_support.tolist()), ns)
        records.append(record)
        revisited = record.support in visited and f >= best_f
        visited.add(record.support)
        if f < best_f:
            # w_next is a fresh array every iteration, so it is kept, not copied.
            best_w, best_f = w_next, f
        if capture is not None:
            capture.append({
                "z": z.copy(),
                "grad": grad.copy(),
                "support_expanded": support.copy(),
                "grad_restricted": grad_restricted.copy(),
                "mu": mu,
                "x": x_projected.copy(),
                "debias_grad": debias_grad,
                "mu_debias": mu_debias,
                "w_prev": w.copy(),
                "w_next": w_next.copy(),
                "tau": tau,
            })

        done = _converged(w_next, w, cfg.rel_tol)
        w, w_support = w_next, w_next_support
        z, z_support = z_next, cols.idx[z_next[cols.idx] != 0.0]
        if gradient_fn is not None:
            # A small or zero move along an estimate says nothing about
            # stationarity; finish on the exact gradient. No stochastic step
            # counts toward a stop.
            if done or stalled_now:
                gradient_fn = None
            continue
        if done:
            termination = Termination.CONVERGED
            break
        if stalled_now:
            stall_run += 1
            if stall_run >= 2:
                termination = Termination.STALLED
                break
        else:
            stall_run = 0
        cycle_run = cycle_run + 1 if revisited else 0
        if cycle_run >= CYCLE_PATIENCE:
            termination = Termination.CYCLED
            break

    return WeightVector(best_w), SolverTrace(records, termination)


def solve_aiht(problem: SparseRegressionProblem, cfg: SolverConfig,
               capture: Optional[list] = None):
    """Accelerated IHT: subspace expansion, exact line search, momentum.

    Per iteration: expand the support of the momentum iterate z by the k
    largest-magnitude gradient entries outside it (at most 3k indices), pick
    the step by exact line search on the gradient restricted to that support,
    take a full-gradient projected step, then extrapolate with a momentum
    coefficient that itself minimizes the objective along the iterate
    difference.

    A vanished restricted gradient image (||phi d|| = 0) sets the step to 0
    and counts the iteration as stalled; two consecutive stalls terminate.
    ``CYCLE_PATIENCE`` iterations in a row that revisit a support without
    going below the trace minimum end the solve as ``cycled``. The solve
    returns the first iterate with the trace-minimum f, not the last.
    ``capture``, when given a list, receives per-iteration internals (used by
    the theory checker and the line-search certificates).
    """
    return _accelerated_iht(problem, cfg, debias=False,
                            max_iters=cfg.max_iters or DEFAULT_MAX_ITERS, capture=capture)


def solve_aiht_debias(problem: SparseRegressionProblem, cfg: SolverConfig,
                      capture: Optional[list] = None):
    """Accelerated IHT with a de-bias step.

    After the projected full-gradient step produces a k-sparse candidate x,
    a second line-searched gradient step restricted to supp(x) refines the
    weights without changing the selected set (only the non-negativity
    projection is applied). A zero restricted gradient skips the refinement
    for that iteration.
    """
    return _accelerated_iht(problem, cfg, debias=True,
                            max_iters=cfg.max_iters or DEFAULT_MAX_ITERS, capture=capture)


def solve_aiht_batched(problem: SparseRegressionProblem, cfg: SolverConfig,
                       batch_fraction: float, seed, capture: Optional[list] = None):
    """Accelerated IHT with the stochastic gradient estimator.

    Gradient calls are replaced by ``stochastic_gradient`` on batches of
    ``batch_fraction`` of the n coordinates, with fresh masks every call
    drawn from ``np.random.default_rng(seed)``. ``batch_fraction`` must be
    in (0, 1]. The default iteration cap is ``DEFAULT_MAX_ITERS_BATCHED``.

    A stochastic direction need not be the restricted gradient, so the step
    is the exact minimizer of the objective along it (``step_along``),
    clipped at 0: no step goes uphill or overshoots the line minimum. The
    first stochastic step that passes the ``rel_tol`` test or has step 0
    switches the solve to the exact gradient for all later iterations, so a
    run reports ``converged``, ``stalled`` or ``cycled`` only from
    exact-gradient steps, and ``max_iters`` otherwise. With
    ``batch_fraction=1`` the masks would be the identity, so no estimator is
    drawn: the solve runs on the exact gradient and its trace matches
    ``solve_aiht`` exactly.
    """
    if not 0 < batch_fraction <= 1:
        raise ValueError(f"batch_fraction must be in (0, 1], got {batch_fraction}")
    gradient_fn = None
    if batch_fraction < 1.0:
        gradient_fn = partial(stochastic_gradient, problem, batch_fraction=batch_fraction,
                              rng=np.random.default_rng(seed))
    return _accelerated_iht(problem, cfg, debias=False,
                            max_iters=cfg.max_iters or DEFAULT_MAX_ITERS_BATCHED,
                            gradient_fn=gradient_fn, capture=capture)
