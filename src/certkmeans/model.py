"""Core data types, the planted ball-mixture sampler, and the k-means objective.

Points live in an m x N matrix, column j being point j.  Synthetic data is
drawn from a planted-cluster model: k ball centers, each surrounded by n
i.i.d. draws from a rotation-invariant distribution supported on the unit
ball.  The minimum center separation ``delta`` controls how hard the
planted clustering is to recover.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

UNIFORM_BALL = "uniform_ball"
UNIFORM_SPHERE = "uniform_sphere"
TWO_POINT_SYM = "two_point_sym"
DISTRIBUTIONS = (UNIFORM_BALL, UNIFORM_SPHERE, TWO_POINT_SYM)

__all__ = [
    "UNIFORM_BALL",
    "UNIFORM_SPHERE",
    "TWO_POINT_SYM",
    "DISTRIBUTIONS",
    "PointSet",
    "Partition",
    "BallModelConfig",
    "Dataset",
    "partition_from_labels",
    "partitions_equal",
    "sample_stochastic_ball_model",
    "standard_centers",
    "kmeans_objective",
    "pairwise_sq_distances",
    "write_dataset_csv",
    "read_dataset_csv",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _checked_columns(cols: np.ndarray) -> np.ndarray:
    if cols.ndim != 2:
        raise ValueError(f"columns must be an m x N matrix, got shape {cols.shape}")
    m, n = cols.shape
    if m < 1 or n < 1:
        raise ValueError(f"need dim >= 1 and count >= 1, got {m} x {n}")
    if not np.all(np.isfinite(cols)):
        raise ValueError("point coordinates must be finite")
    return cols


@dataclass(frozen=True)
class PointSet:
    """An m x N real matrix of data points stored column-wise.

    Attributes:
        columns: m x N array; column j is point x_j.
    """

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = _checked_columns(np.asarray(self.columns, dtype=float))
        object.__setattr__(self, "columns", _read_only(cols))

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


def _adopt_columns(cols: np.ndarray) -> PointSet:
    """A PointSet over ``cols`` itself, with the checks of ``PointSet(cols)``
    but without its defensive copy: for a float array built here that no
    caller holds, which is marked read-only in place."""
    points = object.__new__(PointSet)
    object.__setattr__(points, "columns", _checked_columns(cols))
    cols.setflags(write=False)
    return points


@dataclass(frozen=True)
class Partition:
    """An assignment of N point indices to k nonempty clusters.

    ``Partition(labels)`` takes integer (or bool) cluster ids forming
    {0, ..., k-1} with no gaps, and derives ``k`` and ``sizes`` from them;
    a gap means an empty cluster and is rejected.

    Attributes:
        labels: read-only length-N int64 array of cluster ids in {0, ..., k-1}.
        k: number of clusters.
        sizes: read-only length-k array of cluster sizes (each >= 1, summing to N).
    """

    labels: np.ndarray
    k: int = field(init=False)
    sizes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D sequence")
        # casting floats to int64 would truncate 0.9 to cluster 0
        if labels.dtype.kind not in "biu":
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        labels = _read_only(labels.astype(np.int64, copy=False))
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        sizes = np.bincount(labels)
        if (sizes < 1).any():
            missing = int(np.flatnonzero(sizes < 1)[0])
            raise ValueError(f"cluster id {missing} is empty")
        sizes.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", sizes.size)
        object.__setattr__(self, "sizes", sizes)

    @property
    def count(self) -> int:
        return self.labels.size


def partition_from_labels(labels: Sequence[int]) -> Partition:
    """``Partition(labels)``: the validated partition with ids {0, ..., k-1}."""
    return Partition(labels)


def partitions_equal(p: Partition, q: Partition) -> bool:
    """Whether two partitions define the same clustering up to relabeling.

    They do exactly when the map from p-labels to q-labels is a bijection.
    ``image[a]`` takes the q-label of some point of p-cluster a (every
    label of a Partition names a nonempty cluster, so each entry is set);
    the map is a function when every point's q-label equals the image of
    its p-label.  Its image then holds every q-label, since each names a
    point, so with k labels on both sides the function is a bijection.
    O(N + k) time, with no k x k table.
    """
    if p.count != q.count or p.k != q.k:
        return False
    image = np.empty(p.k, dtype=np.int64)
    image[p.labels] = q.labels
    return bool(np.array_equal(image[p.labels], q.labels))


@dataclass(frozen=True)
class BallModelConfig:
    """Generative description of a planted ball-mixture dataset.

    Attributes:
        centers: k x m array of ball centers (k >= 2, distinct rows).
        per_ball: number of points drawn around each center.
        distribution: one of DISTRIBUTIONS. ``two_point_sym`` (uniform on
            {-1, +1}) is only defined for m = 1.
        seed: 64-bit nonnegative seed; each ball gets its own substream.
    """

    centers: np.ndarray
    per_ball: int
    distribution: str = UNIFORM_BALL
    seed: int = 0

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must be a k x m array")
        k, m = centers.shape
        if k < 2:
            raise ValueError("need at least two ball centers")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        if self.per_ball < 1:
            raise ValueError("per_ball must be positive")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == TWO_POINT_SYM and m != 1:
            raise ValueError("two_point_sym is only defined in dimension 1")
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        object.__setattr__(self, "centers", _read_only(centers))
        object.__setattr__(self, "per_ball", int(self.per_ball))
        object.__setattr__(self, "seed", seed)
        if self.delta <= 0.0:
            raise ValueError("ball centers must be pairwise distinct")

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def delta(self) -> float:
        """Minimum pairwise distance between ball centers."""
        c = self.centers
        best = math.inf
        for a in range(c.shape[0]):
            d = np.linalg.norm(c[a + 1 :] - c[a], axis=1)
            if d.size:
                best = min(best, float(d.min()))
        return best


@dataclass(frozen=True)
class Dataset:
    """Points plus, when synthetic, the planted partition and its config."""

    points: PointSet
    planted: Optional[Partition] = None
    config: Optional[BallModelConfig] = None

    def __post_init__(self) -> None:
        if self.planted is not None and self.planted.count != self.points.count:
            raise ValueError("planted partition does not match point count")


def standard_centers(k: int, m: int, delta: float) -> np.ndarray:
    """Canonical center placement with pairwise distance exactly ``delta``.

    k = 2 uses +/- delta/2 along the first axis (works for any m, and for
    m = 1 matches the symmetric two-point layout).  k >= 3 places centers
    at (delta/sqrt(2)) e_a, which requires m >= k.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if m < 1:
        raise ValueError("need m >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if k == 2:
        centers = np.zeros((2, m))
        centers[0, 0] = -delta / 2.0
        centers[1, 0] = delta / 2.0
        return centers
    if m < k:
        raise ValueError("equidistant placement for k >= 3 needs m >= k")
    return (delta / math.sqrt(2.0)) * np.eye(k, m)


def _draw_offsets(distribution: str, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws (columns) from the chosen unit-ball distribution."""
    if distribution == TWO_POINT_SYM:
        return (2.0 * rng.integers(0, 2, size=(1, n)) - 1.0).astype(float)
    g = rng.standard_normal((m, n))
    # np.linalg.norm(g, axis=0)'s arithmetic, without its copy g.conj()
    g /= np.sqrt(np.add.reduce(g * g, axis=0))
    if distribution == UNIFORM_BALL:
        # isotropic direction times radius U^(1/m)
        g *= rng.random(n) ** (1.0 / m)
    return g


def sample_stochastic_ball_model(config: BallModelConfig) -> Dataset:
    """Draw k * per_ball points: each ball center plus unit-ball noise.

    Ball a gets its own RNG substream (spawn key a), so identical configs
    reproduce bit-identical data and balls can be sampled independently.
    """
    k, m, n = config.k, config.dim, config.per_ball
    cols = np.empty((m, k * n))
    for a in range(k):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(a,)))
        # unnamed, so one ball's draws are freed before the next ball's
        np.add(_draw_offsets(config.distribution, m, n, rng), config.centers[a][:, None],
               out=cols[:, a * n : (a + 1) * n])
    planted = partition_from_labels(np.repeat(np.arange(k), n))
    return Dataset(points=_adopt_columns(cols), planted=planted, config=config)


def kmeans_objective(points: PointSet, partition: Partition) -> float:
    """Sum over clusters of squared distances to the cluster centroid."""
    if partition.count != points.count:
        raise ValueError("partition does not match point count")
    cols = points.columns
    total = 0.0
    for a in range(partition.k):
        total += _scatter(cols[:, partition.labels == a])
    return total


def _scatter(block: np.ndarray) -> float:
    """Sum of squared distances of the columns of the fresh m x n_a gather
    ``block`` to their mean, centring it in place.  A row gather
    ``rows[mask].T`` has the memory image of the column gather
    ``cols[:, mask]`` (F-ordered), so it gives the same bits."""
    block -= block.mean(axis=1)[:, None]
    return float(np.einsum("ij,ij->", block, block))


def pairwise_sq_distances(columns: np.ndarray) -> np.ndarray:
    """N x N matrix of squared Euclidean distances between columns."""
    cols = np.asarray(columns, dtype=float)
    gram = cols.T @ cols
    sq = np.diagonal(gram)
    dist = sq[:, None] - 2.0 * gram + sq[None, :]
    np.maximum(dist, 0.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write points (and planted labels, if any) as CSV.

    Layout: one header row ``m,N,k_planted`` (k_planted = 0 when no planted
    partition), then N rows of m coordinates, each followed by the planted
    label when present.  Floats use shortest round-trip formatting.
    """
    points = dataset.points
    k_planted = dataset.planted.k if dataset.planted is not None else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([points.dim, points.count, k_planted])
        for j in range(points.count):
            row = [repr(float(v)) for v in points.columns[:, j]]
            if dataset.planted is not None:
                row.append(int(dataset.planted.labels[j]))
            writer.writerow(row)


def read_dataset_csv(path: str) -> Dataset:
    """Parse a dataset written by :func:`write_dataset_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty dataset file") from None
        if len(header) != 3:
            raise ValueError("expected header row 'm,N,k_planted'")
        m, n, k_planted = (int(v) for v in header)
        for name, value, low in (("m", m, 1), ("N", n, 1), ("k_planted", k_planted, 0)):
            if value < low:
                raise ValueError(f"header field {name} must be at least {low}, got {value}")
        try:
            cols = np.empty((m, n))
            labels = np.empty(n, dtype=np.int64) if k_planted > 0 else None
        except (MemoryError, ValueError):
            # numpy raises MemoryError, or ValueError past its size limit
            raise ValueError(f"cannot allocate the declared {m} x {n} points") from None
        width = m + (1 if k_planted > 0 else 0)
        seen = 0
        for row in reader:
            if seen >= n:
                raise ValueError("more data rows than declared")
            if len(row) != width:
                raise ValueError(f"row {seen + 2}: expected {width} fields, got {len(row)}")
            cols[:, seen] = [float(v) for v in row[:m]]
            if labels is not None:
                labels[seen] = int(row[m])
            seen += 1
        if seen != n:
            raise ValueError("fewer data rows than declared")
    planted = partition_from_labels(labels) if labels is not None else None
    if planted is not None and planted.k != k_planted:
        raise ValueError("label column inconsistent with declared k_planted")
    return Dataset(points=_adopt_columns(cols), planted=planted, config=None)
