"""Fast k-means solvers and exact small-instance oracles.

Three solvers share the SolveResult interface: Lloyd's alternating
minimization (with D^2 seeding), a spectral method for two clusters that
thresholds the leading principal direction, and an exhaustive search over
all partitions for small N.  The spectral threshold step scans all N - 1
split points of the sorted direction in O((m + log N) N) time: each side
costs S2 - ||S1||^2 / n, from the prefix and suffix sums S1, S2 of the
centred sorted points and of their squared norms.  It is exact for k = 2
in dimension one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .model import Partition, PointSet, _scatter, kmeans_objective, partition_from_labels

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

# power iteration stops once the residual drops below EIG_TOL * |rayleigh|,
# or after EIG_MAX_ITER updates
EIG_TOL = 1e-8
EIG_MAX_ITER = 10_000
# Lloyd stops once the centroids stop moving, or after LLOYD_MAX_ITER updates
LLOYD_MAX_ITER = 100
# Lloyd keeps a Hamerly gap per point for at least HAMERLY_MIN_POINTS points
# with k * m >= HAMERLY_MIN_WORK; below either, the O(N) gap upkeep per
# update costs more than the distance columns it saves
HAMERLY_MIN_POINTS = 2048
HAMERLY_MIN_WORK = 256
# exhaustive search refuses inputs with more k-block partitions than this
PARTITION_CAP = 10_000_000


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
        f: f[i-1] = 2 [(S2(i) - ||S1(i)||^2 / i) + (S2^c(i) - ||S1^c(i)||^2 / (N - i))],
            twice the k-means objective of the split {first i} | {last N - i},
            from the sums S1, S2 of the first i centred sorted points and of
            their squared norms and the sums S1^c, S2^c of the last N - i.
        argmin: minimizing split size i* (ties broken toward smaller i).
    """

    order: np.ndarray
    f: np.ndarray
    argmin: int

    def split_labels(self) -> np.ndarray:
        """Labels of the best split: 0 for the low side, 1 for the high side."""
        labels = np.ones(self.order.size, dtype=np.int64)
        labels[self.order[: self.argmin]] = 0
        return labels


def _centroids(
    rows: np.ndarray,
    labels: np.ndarray,
    k: int,
    centers: Optional[np.ndarray] = None,
    previous: Optional[np.ndarray] = None,
) -> np.ndarray:
    # rows is the N x m point array; each cluster's contiguous row gather has
    # the memory image of the column gather cols[:, mask] (F-ordered), so the
    # mean sums in the same ascending point order.  Given the centers of the
    # ``previous`` labels, only clusters that a moved point left or joined are
    # recomputed: the others keep the same rows in the same order, so their
    # means are the old columns bit for bit
    if previous is None:
        new_centers = np.empty((rows.shape[1], k))
        changed = range(k)
    else:
        new_centers = centers.copy()
        moved = np.flatnonzero(labels != previous)
        touched = np.zeros(k, dtype=bool)
        touched[labels[moved]] = True
        touched[previous[moved]] = True
        changed = np.flatnonzero(touched)
    for a in changed:
        new_centers[:, a] = rows[labels == a].mean(axis=0)
    return new_centers


def _assign(
    cols: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # labels and the k x n squared distances, built in place as
    # (-2 G + |c|^2) + |x|^2, which is c2 - 2 G + |x|^2 bit for bit; ties go to
    # the lower cluster index, as with argmin, by writing the labels from high
    # to low.  Every column subset of width >= 2 gets the bits of the full
    # product, but a one-column product takes the gemv path and rounds
    # differently, so a single column is computed twice over
    if cols.shape[1] == 1:
        labels, d2 = _assign(np.repeat(cols, 2, axis=1), np.repeat(sq_norms, 2), centers)
        return labels[:1], d2[:, :1]
    d2 = centers.T @ cols
    d2 *= -2.0
    d2 += (centers * centers).sum(axis=0)[:, None]
    d2 += sq_norms
    low = d2.min(axis=0)
    if np.isnan(low).any():
        # no entry equals a NaN minimum; argmin reports its first position
        return np.argmin(d2, axis=0).astype(np.int64), d2
    labels = np.zeros(d2.shape[1], dtype=np.int64)
    for a in range(d2.shape[0] - 1, -1, -1):
        np.copyto(labels, a, where=d2[a] == low)
    return labels, d2


def _allowance_radius(m: int, x2_max: float, centers: np.ndarray) -> float:
    # a computed squared distance (-2 G + |c|^2) + |x|^2 is within
    # (2m + 5) u (|x|^2 + |c|^2) of the exact one, u = 2^-53: gamma_m for each
    # of G, |c|^2 and |x|^2, and one rounding per sum.  The allowance
    # (m + 4) 2^-51 (max |x|^2 + max |c|^2) is about twice that; the spare half
    # covers the rounding of the bounds themselves, O((m + updates) u) relative
    # to distances of at most 3 sqrt(|x|^2 + |c|^2).  Returns its square root,
    # the slack each bound keeps in distance units, or inf near the float64
    # range: below 2^1020, every squared distance (at most 3 scale) and
    # squared centre move (at most 2 scale before + 2 scale after) is finite
    scale = x2_max + float(np.einsum("ij,ij->j", centers, centers).max())
    if not scale < 2.0**1020:
        return math.inf
    return math.sqrt((m + 4) * 2.0**-51 * scale)


def _gap(d2: np.ndarray, labels: np.ndarray, radius: float) -> np.ndarray:
    """A lower bound on how much farther each point's nearest other centre is
    than its own, (sqrt(second) - radius) - (sqrt(own) + radius), from the
    computed squared distances ``d2`` (overwritten)."""
    span = np.arange(labels.size)
    own = d2[labels, span]
    d2[labels, span] = np.inf
    del span  # freed before gap is allocated: one N-vector above _assign's peak
    gap = d2.min(axis=0)
    for dist in (own, gap):
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
    gap -= radius
    own += radius
    gap -= own
    return gap


def _unsettled(gap: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the points whose gap cannot prove that their label stays.

    The computed squared distances are within radius^2 of the exact ones, so
    a point whose nearest other centre is more than 2 radius farther than its
    own has its label as the unique strict minimum of its computed column.
    """
    return np.flatnonzero(gap <= 2.0 * radius)


def _loosen(gap: np.ndarray, labels: np.ndarray, centers: np.ndarray, new_centers: np.ndarray) -> None:
    """Shrink the gaps in place by how far the centres moved: each point's own
    centre may have moved away from it by its move, and every other centre
    towards it by at most the largest move."""
    step = new_centers - centers
    moved = np.sqrt(np.einsum("ij,ij->j", step, step))
    gap -= moved[labels] + moved.max()


def _reassign(
    rows: np.ndarray,
    sq_norms: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    gap: np.ndarray,
    radius: float,
    unsettled: np.ndarray,
) -> np.ndarray:
    """New labels with the unsettled points' columns computed by _assign, and
    their gaps refreshed in place.  The gathers go in chunks whose rows and
    distances take at most half the room of the full k x N distances, so
    memory stays below a full update's."""
    m, k = centers.shape
    chunk = max(64, k * labels.size // (2 * (m + k)))
    labels = labels.copy()
    for lo in range(0, unsettled.size, chunk):
        idx = unsettled[lo : lo + chunk]
        fresh, d2 = _assign(rows[idx].T, sq_norms[idx], centers)
        labels[idx] = fresh
        gap[idx] = _gap(d2, fresh, radius)
    return labels


def _repair_empty(
    cols: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int
) -> np.ndarray:
    """Re-seed each empty cluster with the point farthest from its centroid."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    for a in np.flatnonzero(counts == 0):
        # coordinate by coordinate: the order of einsum("ij,ij->j") in O(N) memory
        dist = np.zeros(labels.size)
        for row, center in zip(cols, centers):
            diff = row - center[labels]
            dist += diff * diff
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


def _check_cluster_count(n: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        raise ValueError(f"cannot split {n} points into {k} nonempty clusters")


def lloyd(
    points: PointSet,
    k: int,
    init: Union[str, Partition] = "kmeans++",
    seed: int = 0,
) -> SolveResult:
    """Lloyd's algorithm: alternate nearest-centroid assignment and centroid
    updates until the centroids stop moving (or LLOYD_MAX_ITER updates).

    ``init`` is either "kmeans++" for D^2 seeding or a Partition whose
    centroids seed the iteration.  Empty clusters are repaired by
    re-seeding with the point farthest from its current centroid, which
    never increases the objective.

    From the second update on, each point keeps one Hamerly gap: a lower
    bound on how much farther its nearest other centre is than its own,
    shrunk after each update by its own centre's move plus the largest move.
    An update then costs O(N) of gap upkeep plus full distance columns only
    for the points whose gap, less a rounding allowance, cannot prove that
    their label stays; those columns are gathered and computed
    as in the full product, with a single column computed twice over
    (a one-column product takes the gemv path and rounds differently).
    The labels are therefore those of computing every column.  Every column
    is computed on the first update, after a repair, when the allowance is
    not finite (data near the float64 range), when over half the points are
    unsettled, and always for k = 1, below HAMERLY_MIN_POINTS points, or with
    k m below HAMERLY_MIN_WORK.
    """
    cols = points.columns
    n = points.count
    _check_cluster_count(n, k)
    sq_norms = np.einsum("ij,ij->j", cols, cols)
    if isinstance(init, Partition):
        if init.count != n or init.k != k:
            raise ValueError("initial partition does not match points/k")
        rows = np.ascontiguousarray(cols.T)
        labels = init.labels
        centers = _centroids(rows, labels, k)
    elif init == "kmeans++":
        centers = _kmeans_pp_centers(cols, k, np.random.default_rng(seed))
        # copied after seeding returns, so its m x N buffer is freed first
        rows = np.ascontiguousarray(cols.T)
        labels = None  # no labels behind the seeds: the first update computes every cluster
    else:
        raise ValueError(f"unknown init {init!r}")

    # a Hamerly gap per point, kept from the second update on
    keep_gap = k > 1 and n >= HAMERLY_MIN_POINTS and k * points.dim >= HAMERLY_MIN_WORK
    x2_max = float(sq_norms.max())
    gap = None
    for iterations in range(1, LLOYD_MAX_ITER + 1):
        previous = labels
        radius = _allowance_radius(points.dim, x2_max, centers) if keep_gap else math.inf
        unsettled = None
        if gap is not None and math.isfinite(radius):
            unsettled = _unsettled(gap, radius)
        # every column on the first update, after a repair, when the allowance
        # is not finite, and past half the points, where the full product
        # costs less than the gather
        if unsettled is None or 2 * unsettled.size > n:
            gap = None  # freed before the k x N distances
            labels, d2 = _assign(cols, sq_norms, centers)
            if math.isfinite(radius):
                gap = _gap(d2, labels, radius)
            del d2
        elif unsettled.size:
            labels = _reassign(rows, sq_norms, centers, labels, gap, radius, unsettled)
        if (np.bincount(labels, minlength=k) == 0).any():
            labels = _repair_empty(cols, labels, centers, k)
            gap = None
        new_centers = _centroids(rows, labels, k, centers, previous)
        if np.array_equal(new_centers, centers):
            break
        if gap is not None:
            _loosen(gap, labels, centers, new_centers)
        centers = new_centers
    del gap, unsettled  # freed before the objective's gathers
    partition = partition_from_labels(labels)
    # kmeans_objective's arithmetic on contiguous row gathers
    objective = 0.0
    for a in range(k):
        objective += _scatter(rows[partition.labels == a].T)
    return SolveResult(partition, objective, iterations, "lloyd")


def leading_eigenvector(matvec: Callable[[np.ndarray], np.ndarray], n: int, *, seed: int = 0) -> EigenResult:
    """Power iteration for the leading (largest-magnitude) eigenpair of the
    symmetric n x n operator ``matvec``.

    Stops once the eigenvector residual ||A q - (q^T A q) q|| drops below
    EIG_TOL * |q^T A q|; at the cap of EIG_MAX_ITER updates the best iterate
    seen is returned with ``converged`` False.
    """
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    best = (math.inf, q, 0.0, 0)
    for it in range(EIG_MAX_ITER + 1):
        aq = matvec(q)
        rayleigh = float(q @ aq)
        residual = float(np.linalg.norm(aq - rayleigh * q))
        if residual <= EIG_TOL * abs(rayleigh):
            return EigenResult(q, rayleigh, True, it)
        score = residual / abs(rayleigh) if rayleigh != 0.0 else math.inf
        if score < best[0]:
            best = (score, q, rayleigh, it)
        if it == EIG_MAX_ITER:
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

    Sorts indices by y (stable) and centres the sorted points on their mean,
    which moves no split's cost.  With S1(i) and S2(i) the sums of the first
    i centred points and of their squared norms, and S1^c(i), S2^c(i) the
    same over the last N - i, the split {first i} | {last N - i} has

        f(i) = 2 [(S2(i) - ||S1(i)||^2 / i) + (S2^c(i) - ||S1^c(i)||^2 / (N - i))],

    twice its k-means objective; the first minimizer of f wins.
    """
    y = np.asarray(y, dtype=float)
    n = points.count
    if y.shape != (n,):
        raise ValueError("y must have one entry per point")
    if n < 2:
        raise ValueError("need at least two points to split")
    # distinct keys have one sorting permutation, so any sort gives the
    # stable order; ties (or NaN) need the stable sort itself
    order = np.argsort(y)
    sorted_y = y[order]
    if not (sorted_y[1:] > sorted_y[:-1]).all():
        order = np.argsort(y, kind="stable")
    del sorted_y

    # one m x N buffer: the sorted points, centred, then their prefix sums
    # S1, then the suffix sums S1^c = S1(N) - S1
    sums = points.columns[:, order]
    sums -= sums.mean(axis=1)[:, None]
    prefix2 = np.cumsum(np.einsum("ij,ij->j", sums, sums))
    np.cumsum(sums, axis=1, out=sums)
    sizes = np.arange(1, n, dtype=float)  # of the low side
    low = np.einsum("ij,ij->j", sums[:, :-1], sums[:, :-1])
    low /= sizes
    np.subtract(sums[:, -1:].copy(), sums, out=sums)
    high = np.einsum("ij,ij->j", sums[:, :-1], sums[:, :-1])
    del sums
    # f = 2 [(prefix2 - low) + ((prefix2[-1] - prefix2) - high)], formed in
    # place in low, high and sizes: the scan ends holding five N-vectors
    high /= np.subtract(n, sizes, out=sizes)
    f = np.subtract(prefix2[:-1], low, out=low)
    tail = np.subtract(prefix2[-1], prefix2[:-1], out=sizes)
    tail -= high
    f += tail
    f *= 2.0
    return ThresholdScan(order=order, f=f, argmin=int(np.argmin(f)) + 1)


def spectral_two_means(points: PointSet, *, seed: int = 0) -> SolveResult:
    """Two-cluster spectral solver: center, take the leading principal
    direction, and pick the objective-minimizing threshold split along it.

    The leading eigenvector is computed on the smaller Gram matrix
    (m x m when m <= N, else matrix-free products on the N x N side), so
    one matvec costs O(mN).  For one-dimensional data the threshold scan
    makes the result exactly optimal for k = 2.
    """
    n = points.count
    cols = points.columns
    centered = cols - cols.mean(axis=1)[:, None]
    if points.dim <= n:
        gram = centered @ centered.T
        eig = leading_eigenvector(gram.__matmul__, points.dim, seed=seed)
        y = centered.T @ eig.vector
    else:
        eig = leading_eigenvector(lambda x: centered.T @ (centered @ x), n, seed=seed)
        y = eig.vector
    del centered  # the scan below needs an m x N buffer of its own
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


def exact_kmeans_bruteforce(points: PointSet, k: int) -> SolveResult:
    """Global optimum by exhaustive enumeration of all k-block partitions.

    Guarded by the partition count S(N, k) <= ``PARTITION_CAP`` (about
    N <= 12 for k <= 3).  Objectives are evaluated for all labelings at
    once with vectorized per-cluster statistics.
    """
    n = points.count
    _check_cluster_count(n, k)
    count = stirling_partition_count(n, k)
    if count > PARTITION_CAP:
        raise ValueError(f"{count} partitions exceed the cap of {PARTITION_CAP}")
    labelings = _canonical_labelings(n, k)
    # centred, so that no cost carries ||x||^2 where a shift dominates the data
    cols = points.columns - points.columns.mean(axis=1)[:, None]
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
