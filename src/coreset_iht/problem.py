"""Sparse non-negative least-squares problem and its projection operators.

The optimization target throughout the package is

    minimize  ||y - phi @ w||^2   over  w >= 0,  ||w||_0 <= k,

where each column of ``phi`` belongs to one data point and ``y`` is the
regression target (for coreset problems, the sum of all columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np


def _frozen_array(values, dtype=np.float64, order="K") -> np.ndarray:
    """A read-only array of ``values`` with layout ``order``.

    An array that is already read-only, of ``dtype``, owns its data and has
    the layout is returned as it is, so immutable objects built from one
    another share one buffer (a projection's ``phi`` and its problem's).
    Anything else is copied: a writable array stays the caller's, and a
    read-only view may still see writes through its writable base.
    """
    if (type(values) is np.ndarray and not values.flags.writeable and values.flags.owndata
            and values.dtype == dtype
            and (order == "K" or values.flags[f"{order}_CONTIGUOUS"])):
        return values
    out = np.array(values, dtype=dtype, order=order)
    out.setflags(write=False)
    return out


def _as_weights(weights) -> np.ndarray:
    """Accept a WeightVector or a plain 1-D array of weights."""
    if isinstance(weights, WeightVector):
        return weights.w
    return np.asarray(weights, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SparseRegressionProblem:
    """Immutable least-squares data for the k-sparse non-negative fit.

    ``phi`` has shape (s_dim, n): one column per data point; its rows are
    posterior samples, or the rows of their Gram factor
    (``ProjectionSet.to_problem``). ``y`` has length s_dim. Both are stored
    read-only: a projection and the problem built on it share one buffer
    (``_frozen_array``), and a caller cannot change a problem under a running
    solve. ``phi`` keeps the memory layout of its input: a column-major
    projection or factor gives a column-major problem, and a C-order array a
    C-order one. A read-only array that owns its data, such as
    ``ProjectionSet.phi`` or a Gram factor, is shared, not copied.
    """

    phi: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if phi.ndim != 2:
            raise ValueError(f"phi must be 2-D, got shape {phi.shape}")
        if phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError(f"phi must have at least one row and column, got {phi.shape}")
        if y.shape != (phi.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({phi.shape[0]},)")
        # A NaN makes the max NaN, +inf the max and -inf the min infinite;
        # no S x n boolean temporary.
        if not (np.isfinite(phi.max()) and np.isfinite(phi.min())):
            raise ValueError("phi contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        object.__setattr__(self, "phi", _frozen_array(phi))
        object.__setattr__(self, "y", _frozen_array(y))

    @classmethod
    def from_columns(cls, phi) -> "SparseRegressionProblem":
        """Build the coreset problem whose target is the column sum of ``phi``."""
        phi = np.asarray(phi, dtype=np.float64)
        if phi.ndim != 2:
            raise ValueError(f"phi must be 2-D, got shape {phi.shape}")
        return cls(phi, phi.sum(axis=1))

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @property
    def s_dim(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Dense non-negative weights over the n data points.

    ``support`` is the sorted array of indices with nonzero weight; it is
    derived from ``w`` at construction time.
    """

    w: np.ndarray
    support: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "w", _frozen_array(w))
        object.__setattr__(self, "support", _frozen_array(np.flatnonzero(w), dtype=np.int64))

    def __len__(self) -> int:
        return self.w.shape[0]

    @property
    def sparsity(self) -> int:
        """Number of nonzero weights."""
        return int(self.support.shape[0])


def _check_length(problem: SparseRegressionProblem, w: np.ndarray) -> None:
    if w.shape != (problem.n,):
        raise ValueError(f"vector has shape {w.shape}, expected ({problem.n},)")


class _Columns:
    """The columns ``idx`` of ``phi``, for products with vectors that are zero
    outside ``idx`` and for the coordinates ``idx`` of transposed products.

    The columns are gathered, once, only while ``idx`` is at most 1/8 of the
    n columns; a product then costs O(s_dim * |idx|). Otherwise every product
    reads the whole of ``phi``, exactly as the dense expression would. The
    crossover is measured on a column-major ``phi``, the layout of the
    problem ``ProjectionSet.to_problem`` returns, a Gram factor or the
    projection itself, where each gathered column is one contiguous copy. On a 2-vCPU machine,
    gathering 625 of 5000 columns (1/8) of a 500-row ``phi`` and multiplying
    took 330 us against 480 us for a dense product; with 1000 columns, 125
    took 23 us against 80 us, and 300 took 89 us (radial-basis still solves
    on such a ``phi``). On the 32 x 5000 logistic-wide factor, 625 columns
    took 18-23 us against 29-31 us dense, and 1250 took 30-38 us, about even;
    on the 21 x 100 gaussian-paper factor, 12 columns took 2.4-4.4 us against
    1.3-1.9 us dense, since a call's overhead outweighs the product there.
    From a C-order ``phi`` the same gathers cost 3-8x more; the products are
    the same.
    """

    __slots__ = ("phi", "idx", "cols")

    def __init__(self, phi: np.ndarray, idx: np.ndarray):
        self.phi = phi
        self.idx = idx
        self.cols = phi[:, idx] if 8 * idx.shape[0] <= phi.shape[1] else None

    def image(self, v: np.ndarray) -> np.ndarray:
        """``phi @ v`` for a ``v`` that is zero outside ``idx``."""
        if self.cols is None:
            return self.phi @ v
        return self.cols @ v[self.idx]

    def gradient(self, r: np.ndarray) -> np.ndarray:
        """Coordinates ``idx`` of the gradient -2 phi^T r at a point whose
        residual y - phi @ w is ``r``."""
        if self.cols is None:
            return -2.0 * (self.phi.T @ r)[self.idx]
        return -2.0 * (self.cols.T @ r)


def _residual(problem: SparseRegressionProblem, w: np.ndarray,
              cols: Optional[_Columns] = None) -> np.ndarray:
    """y - phi @ w. ``cols`` are the columns supp(w) of ``phi`` when the
    caller already holds them; otherwise w is scanned for its support."""
    if cols is None:
        cols = _Columns(problem.phi, np.flatnonzero(w))
    return problem.y - cols.image(w)


def objective(problem: SparseRegressionProblem, weights) -> float:
    """Squared residual norm ||y - phi @ w||^2."""
    w = _as_weights(weights)
    _check_length(problem, w)
    r = _residual(problem, w)
    return float(r @ r)


def gradient(problem: SparseRegressionProblem, weights) -> np.ndarray:
    """Gradient -2 phi^T (y - phi @ w) of the squared residual.

    ``weights`` may be a raw array with negative entries, such as a momentum
    iterate.
    """
    w = _as_weights(weights)
    _check_length(problem, w)
    return _gradient(problem, _residual(problem, w))


def _gradient(problem: SparseRegressionProblem, r: np.ndarray) -> np.ndarray:
    """The gradient -2 phi^T r at a point whose residual y - phi @ w is r."""
    return -2.0 * (problem.phi.T @ r)


def _top_k_mask(a: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k largest entries of ``a``, ties toward the lowest index.

    One O(n) selection finds the k-th largest value and one comparison
    keeps every entry at or above it. Only when more than k entries qualify,
    because several equal the k-th value, are the highest-index entries equal
    to it dropped. That is the first k of a stable descending sort. A NaN is
    never kept, so a vector with NaNs may get fewer than k entries.
    """
    n = a.shape[0]
    if k >= n:
        return np.ones(n, dtype=bool)
    kth = np.partition(a, n - k)[n - k]
    keep = a >= kth
    extra = np.count_nonzero(keep) - k
    if extra > 0:
        keep[(a == kth).nonzero()[0][-extra:]] = False
    return keep


def project_topk_nonneg(v, k: int) -> WeightVector:
    """Euclidean projection onto {w : w >= 0, ||w||_0 <= k}.

    Negative entries are zeroed, then the k largest remaining entries are
    kept. Ties break toward the lowest index so the projection is
    deterministic; zero entries are valid candidates but never beat strictly
    positive ones and never enter the support. A NaN entry raises
    ``ValueError``, as +inf does (a weight must be finite); -inf is clipped
    to 0 like any negative entry.
    """
    v = _ranked_vector(v, k)
    clipped = np.where(v > 0, v, 0.0)
    return WeightVector(np.where(_top_k_mask(clipped, k), clipped, 0.0))


def _ranked_vector(v, k: int) -> np.ndarray:
    """``v`` as a 1-D float64 vector to select k entries from, checked.

    A NaN has no rank: ``_top_k_mask`` never keeps one, so it would leave
    a k-th place empty while a finite candidate is left out.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {v.shape}")
    n = v.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # The max is NaN exactly when an entry is; no n-length boolean temporary.
    if math.isnan(v.max()):
        raise ValueError("input contains NaN")
    return v


def _index_array(indices, name: str) -> np.ndarray:
    """``indices`` as an int64 index array.

    An integer array is used as it is; any other iterable is listed first,
    so sets and ranges work. A boolean mask or a non-integer index is
    refused: casting would read a mask as the indices 0 and 1 and truncate
    a float.
    """
    idx = indices if isinstance(indices, np.ndarray) else np.asarray(list(indices))
    if idx.dtype == np.bool_ or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise TypeError(f"{name} must be integer indices, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def project_topk_excluding(v, k: int, excluded: Iterable[int]) -> np.ndarray:
    """Indices of the k largest-magnitude entries of ``v`` outside ``excluded``.

    Returns a sorted index array; fewer than k indices when fewer candidates
    remain. Ties break toward the lowest index. ``excluded`` holds integer
    indices; a boolean mask or a float raises ``TypeError``. A NaN entry of
    ``v`` raises ``ValueError``.
    """
    v = _ranked_vector(v, k)
    n = v.shape[0]
    excluded = _index_array(excluded, "excluded")
    if excluded.size and (excluded.min() < 0 or excluded.max() >= n):
        raise ValueError("excluded indices out of range")
    # Magnitudes are >= 0, so -1 ranks every excluded entry below every
    # candidate.
    magnitude = np.abs(v)
    magnitude[excluded] = -1.0
    keep = _top_k_mask(magnitude, k)
    keep[excluded] = False
    return keep.nonzero()[0]


def restrict(v, support: Iterable[int]) -> np.ndarray:
    """Zero out every entry of ``v`` whose index is not in ``support``.

    ``support`` holds integer indices; a boolean mask or a float raises
    ``TypeError``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"input must be 1-D, got shape {v.shape}")
    idx = _index_array(support, "support")
    out = np.zeros_like(v)
    if idx.size:
        if idx.min() < 0 or idx.max() >= v.shape[0]:
            raise ValueError("support indices out of range")
        out[idx] = v[idx]
    return out
