"""Fast k-means solvers and exact small-instance oracles.

Three solvers share the SolveResult interface: Lloyd's alternating
minimization (with D^2 seeding), a spectral method for two clusters that
thresholds the leading principal direction, and an exhaustive search over
all partitions for small N.  The spectral threshold step scans all N - 1
split points of the sorted direction in O((m + log N) N) time via prefix
and suffix recursions, and is exact for k = 2 in dimension one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .model import Partition, PointSet, kmeans_objective, partition_from_labels

__all__ = [
    "SolveResult",
    "ThresholdScan",
    "EigenResult",
    "lloyd",
    "leading_eigenvector",
    "spectral_two_means",
    "optimal_threshold_split",
    "exact_kmeans_bruteforce",
    "stirling_partition_count",
]

Operator = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SolveResult:
    """A solver's partition, its objective value, and bookkeeping."""

    partition: Partition
    objective: float
    iterations: int
    solver_tag: str


class EigenResult(NamedTuple):
    vector: np.ndarray
    rayleigh: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ThresholdScan:
    """All split evaluations of a direction-sorted point sequence.

    Attributes:
        order: permutation sorting the scan direction ascending (stable).
        v: v[i-1] = sum of squared distances over all pairs among the
            first i sorted points, i = 1..N-1.
        v_c: same for the last N - i points.
        f: f[i-1] = v_i / i + v_c_i / (N - i); equals twice the k-means
            objective of the split {first i} | {last N - i}.
        argmin: minimizing split size i* (ties broken toward smaller i).
    """

    order: np.ndarray
    v: np.ndarray
    v_c: np.ndarray
    f: np.ndarray
    argmin: int

    def split_labels(self) -> np.ndarray:
        """Labels of the best split: 0 for the low side, 1 for the high side."""
        labels = np.ones(self.order.size, dtype=np.int64)
        labels[self.order[: self.argmin]] = 0
        return labels


def _centroids(cols: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    centers = np.empty((cols.shape[0], k))
    for a in range(k):
        centers[:, a] = cols[:, labels == a].mean(axis=1)
    return centers


def _assign(cols: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # squared distance of every point to every center; argmin breaks ties
    # toward the lower cluster index
    d2 = (centers * centers).sum(axis=0)[:, None] - 2.0 * (centers.T @ cols) + sq_norms[None, :]
    return np.argmin(d2, axis=0).astype(np.int64)


def _repair_empty(
    cols: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int
) -> np.ndarray:
    """Re-seed each empty cluster with the point farthest from its centroid."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    diff = np.empty_like(cols)
    for a in np.flatnonzero(counts == 0):
        np.subtract(cols, centers[:, labels], out=diff)
        dist = np.einsum("ij,ij->j", diff, diff)
        movable = counts[labels] >= 2
        candidates = np.flatnonzero(movable)
        j = int(candidates[np.argmax(dist[candidates])])
        counts[labels[j]] -= 1
        labels[j] = a
        counts[a] = 1
    return labels


def _kmeans_pp_centers(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard D^2 seeding: new centers are drawn with probability
    proportional to the squared distance to the nearest chosen center."""
    n = cols.shape[1]
    chosen = [int(rng.integers(n))]
    diff = np.empty_like(cols)
    np.subtract(cols, cols[:, chosen[0]][:, None], out=diff)
    d2 = np.einsum("ij,ij->j", diff, diff)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(rng.choice(remaining)) if remaining.size else int(rng.integers(n))
        chosen.append(idx)
        np.subtract(cols, cols[:, idx][:, None], out=diff)
        cand = np.einsum("ij,ij->j", diff, diff)
        np.minimum(d2, cand, out=d2)
    return cols[:, chosen].copy()


def lloyd(
    points: PointSet,
    k: int,
    init: Union[str, Partition] = "kmeans++",
    max_iter: int = 100,
    seed: int = 0,
) -> SolveResult:
    """Lloyd's algorithm: alternate nearest-centroid assignment and centroid
    updates until the centroids stop moving (or max_iter).

    ``init`` is either "kmeans++" for D^2 seeding or a Partition whose
    centroids seed the iteration.  Empty clusters are repaired by
    re-seeding with the point farthest from its current centroid, which
    never increases the objective.
    """
    cols = points.columns
    n = points.count
    if n < k:
        raise ValueError(f"cannot split {n} points into {k} nonempty clusters")
    if k < 1:
        raise ValueError("k must be positive")
    sq_norms = np.einsum("ij,ij->j", cols, cols)
    if isinstance(init, Partition):
        if init.count != n or init.k != k:
            raise ValueError("initial partition does not match points/k")
        centers = _centroids(cols, init.labels, k)
    elif init == "kmeans++":
        centers = _kmeans_pp_centers(cols, k, np.random.default_rng(seed))
    else:
        raise ValueError(f"unknown init {init!r}")

    labels = np.zeros(n, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        labels = _assign(cols, sq_norms, centers)
        if (np.bincount(labels, minlength=k) == 0).any():
            labels = _repair_empty(cols, labels, centers, k)
        new_centers = _centroids(cols, labels, k)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    partition = partition_from_labels(labels)
    return SolveResult(partition, kmeans_objective(points, partition), iterations, "lloyd")


def _resolve_operator(op: Operator, n: Optional[int]) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    if callable(op):
        if n is None:
            raise ValueError("dimension n is required for a callable operator")
        return op, int(n)
    mat = np.asarray(op, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator matrix must be square")
    return (lambda x: mat @ x), mat.shape[0]


def leading_eigenvector(
    op: Operator,
    n: Optional[int] = None,
    *,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 0,
) -> EigenResult:
    """Power iteration for the leading (largest-magnitude) eigenpair.

    Stops once the eigenvector residual ||A q - (q^T A q) q|| drops below
    tol * |q^T A q|; at the cap the best iterate seen is returned with
    ``converged`` False.
    """
    matvec, dim = _resolve_operator(op, n)
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    best = (math.inf, q, 0.0, 0)
    for it in range(max_iter + 1):
        aq = matvec(q)
        rayleigh = float(q @ aq)
        residual = float(np.linalg.norm(aq - rayleigh * q))
        if residual <= tol * abs(rayleigh):
            return EigenResult(q, rayleigh, True, it)
        score = residual / abs(rayleigh) if rayleigh != 0.0 else math.inf
        if score < best[0]:
            best = (score, q, rayleigh, it)
        if it == max_iter:
            break
        norm_aq = float(np.linalg.norm(aq))
        if norm_aq <= 1e-300:
            # numerically a null vector: rayleigh 0 with zero residual
            return EigenResult(q, 0.0, True, it)
        q = aq / norm_aq
    _, q, rayleigh, it = best
    return EigenResult(q, rayleigh, False, it)


def optimal_threshold_split(points: PointSet, y: np.ndarray) -> ThresholdScan:
    """Best split of the points along the ordering induced by ``y``.

    Sorts indices by y (stable), then evaluates every split {first i} |
    {last N - i} through the pairwise-sum recursions

        v_{i+1}   = v_i   + 2 s2(i)   - 4 x_{i+1}^T s1(i) + 2 i ||x_{i+1}||^2
        v^c_{i-1} = v^c_i + 2 s2^c(i) - 4 x_i^T s1^c(i)   + 2 (N - i) ||x_i||^2

    where s1/s2 are prefix sums of points and squared norms (s1^c/s2^c the
    suffixes), and minimizes f(i) = v_i / i + v^c_i / (N - i).
    """
    y = np.asarray(y, dtype=float)
    n = points.count
    if y.shape != (n,):
        raise ValueError("y must have one entry per point")
    if n < 2:
        raise ValueError("need at least two points to split")
    order = np.argsort(y, kind="stable")
    cols = points.columns[:, order]
    sq = np.einsum("ij,ij->j", cols, cols)

    prefix1 = np.cumsum(cols, axis=1)
    prefix2 = np.cumsum(sq)
    total1 = prefix1[:, -1]
    total2 = prefix2[-1]

    # v[i-1] = v_i for i = 1..N-1
    if n > 2:
        dots_fwd = np.einsum("ji,ji->i", cols[:, 1 : n - 1], prefix1[:, : n - 2])
        steps = 2.0 * prefix2[: n - 2] - 4.0 * dots_fwd + 2.0 * np.arange(1, n - 1) * sq[1 : n - 1]
        v = np.concatenate(([0.0], np.cumsum(steps)))
    else:
        v = np.zeros(1)

    # suffix aggregates over positions strictly after t (0-based)
    suffix1 = total1[:, None] - prefix1
    suffix2 = total2 - prefix2
    if n > 2:
        dots_bwd = np.einsum("ji,ji->i", cols[:, 1 : n - 1], suffix1[:, 1 : n - 1])
        steps_c = (
            2.0 * suffix2[1 : n - 1]
            - 4.0 * dots_bwd
            + 2.0 * (n - np.arange(2, n)) * sq[1 : n - 1]
        )
        v_c = np.concatenate((np.cumsum(steps_c[::-1])[::-1], [0.0]))
    else:
        v_c = np.zeros(1)

    sizes_low = np.arange(1, n)
    f = v / sizes_low + v_c / (n - sizes_low)
    best = int(np.argmin(f)) + 1
    return ThresholdScan(order=order, v=v, v_c=v_c, f=f, argmin=best)


def spectral_two_means(
    points: PointSet,
    *,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 0,
) -> SolveResult:
    """Two-cluster spectral solver: center, take the leading principal
    direction, and pick the objective-minimizing threshold split along it.

    The leading eigenvector is computed on the smaller Gram matrix
    (m x m when m <= N, else matrix-free products on the N x N side), so
    one matvec costs O(mN).  For one-dimensional data the threshold scan
    makes the result exactly optimal for k = 2.
    """
    n = points.count
    if n < 2:
        raise ValueError("need at least two points")
    cols = points.columns
    centered = cols - cols.mean(axis=1)[:, None]
    if points.dim <= n:
        gram = centered @ centered.T
        eig = leading_eigenvector(gram, tol=tol, max_iter=max_iter, seed=seed)
        y = centered.T @ eig.vector
    else:
        eig = leading_eigenvector(
            lambda x: centered.T @ (centered @ x), n, tol=tol, max_iter=max_iter, seed=seed
        )
        y = eig.vector
    # fix the eigenvector's sign ambiguity so the result is well defined
    lead = int(np.argmax(np.abs(y)))
    if y[lead] < 0.0:
        y = -y
    scan = optimal_threshold_split(points, y)
    partition = partition_from_labels(scan.split_labels())
    return SolveResult(partition, kmeans_objective(points, partition), eig.iterations, "spectral2")


def stirling_partition_count(n: int, k: int) -> int:
    """Number of partitions of n labeled items into k nonempty blocks."""
    if k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative")
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    row = [1] + [0] * k  # S(0, *)
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


@lru_cache(maxsize=32)
def _canonical_labelings(n: int, k: int) -> np.ndarray:
    """All label vectors of n items using exactly k blocks, in canonical
    (first-appearance) order, as an S(n, k) x n int8 array."""
    out: list[np.ndarray] = []
    arr = np.zeros(n, dtype=np.int8)

    def rec(pos: int, used: int) -> None:
        if k - used > n - pos:  # not enough slots left to open the remaining blocks
            return
        if pos == n:
            out.append(arr.copy())
            return
        limit = min(used, k - 1)
        for lab in range(limit + 1):
            arr[pos] = lab
            rec(pos + 1, used + (1 if lab == used else 0))

    rec(1, 1)  # first item is pinned to block 0
    result = np.asarray(out)
    result.setflags(write=False)  # shared through the cache
    return result


def exact_kmeans_bruteforce(points: PointSet, k: int, partition_cap: int = 10_000_000) -> SolveResult:
    """Global optimum by exhaustive enumeration of all k-block partitions.

    Guarded by the partition count S(N, k) <= ``partition_cap`` (about
    N <= 12 for k <= 3).  Objectives are evaluated for all labelings at
    once with vectorized per-cluster statistics.
    """
    n = points.count
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"cannot split {n} points into {k} nonempty clusters")
    count = stirling_partition_count(n, k)
    if count > partition_cap:
        raise ValueError(f"{count} partitions exceed the cap of {partition_cap}")
    labelings = _canonical_labelings(n, k)
    cols = points.columns
    sq = np.einsum("ij,ij->j", cols, cols)
    totals = np.zeros(labelings.shape[0])
    for a in range(k):
        mask = (labelings == a).astype(float)  # S x N
        counts = mask.sum(axis=1)
        sums = cols @ mask.T  # m x S
        totals += mask @ sq - np.einsum("ij,ij->j", sums, sums) / counts
    best_row = int(np.argmin(totals))
    partition = partition_from_labels(labelings[best_row].astype(np.int64))
    return SolveResult(partition, kmeans_objective(points, partition), labelings.shape[0], "bruteforce")
