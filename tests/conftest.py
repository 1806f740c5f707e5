"""Shared instance generators and dense reference oracles for the tests.

The reference implementations here deliberately avoid the library's
matrix-free code paths: they build dense matrices straight from the
definitions so the fast paths have something independent to match.
"""

import numpy as np

from certkmeans.model import (
    BallModelConfig,
    PointSet,
    UNIFORM_BALL,
    pairwise_sq_distances,
    partition_from_labels,
    sample_stochastic_ball_model,
    standard_centers,
)


def ball_dataset(seed, k=2, m=2, n=10, delta=6.0, distribution=UNIFORM_BALL):
    config = BallModelConfig(
        centers=standard_centers(k, m, delta), per_ball=n, distribution=distribution, seed=seed
    )
    return sample_stochastic_ball_model(config)


def gaussian_instance(seed, sizes, m=2, spread=4.0, noise=0.5):
    """Labeled clusters with arbitrary (possibly unequal) sizes."""
    rng = np.random.default_rng(seed)
    k = len(sizes)
    centers = rng.standard_normal((k, m)) * spread
    cols = []
    labels = []
    for a, n in enumerate(sizes):
        cols.append(centers[a][:, None] + noise * rng.standard_normal((m, n)))
        labels.extend([a] * n)
    return PointSet(np.concatenate(cols, axis=1)), partition_from_labels(labels)


def blocks_of(sizes):
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return [slice(int(offsets[a]), int(offsets[a + 1])) for a in range(len(sizes))]


def reference_M_block(phi, sizes, a, b):
    """Dense M^(a,b) from its definition via the dense distance matrix."""
    dist = pairwise_sq_distances(phi)
    blk = blocks_of(sizes)
    d_aa = dist[blk[a], blk[a]]
    d_bb = dist[blk[b], blk[b]]
    out = dist[blk[a], blk[b]].copy()
    n_a, n_b = int(sizes[a]), int(sizes[b])
    corr_a = 0.5 * (d_aa.sum() / n_a**2 - (2.0 / n_a) * d_aa.sum(axis=1))
    corr_b = 0.5 * (d_bb.sum() / n_b**2 - (2.0 / n_b) * d_bb.sum(axis=1))
    return out + corr_a[:, None] + corr_b[None, :]


def reference_z(phi, sizes):
    """z from dense M blocks: the largest value allowed by every pair."""
    k = len(sizes)
    best = np.inf
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            row_min = reference_M_block(phi, sizes, a, b).sum(axis=1).min()
            best = min(best, 2.0 * sizes[a] / (sizes[a] + sizes[b]) * row_min)
    return float(best)


def pairwise_objective(points, labels):
    """k-means objective via the pairwise-distance identity:
    sum_a (1 / (2 n_a)) sum_{i,j in a} ||x_i - x_j||^2."""
    dist = pairwise_sq_distances(points.columns)
    labels = np.asarray(labels)
    total = 0.0
    for a in np.unique(labels):
        idx = np.flatnonzero(labels == a)
        total += dist[np.ix_(idx, idx)].sum() / (2.0 * idx.size)
    return total


def reference_canonical_labels(labels):
    """Relabel clusters in order of first appearance, one point at a time."""
    labels = np.asarray(labels)
    mapping = -np.ones(int(labels.max()) + 1, dtype=np.int64)
    nxt = 0
    out = np.empty_like(labels)
    for j, lab in enumerate(labels):
        if mapping[lab] < 0:
            mapping[lab] = nxt
            nxt += 1
        out[j] = mapping[lab]
    return out


def reference_partitions_equal(p, q):
    """Same clustering up to relabeling, via first-appearance canonical forms."""
    if p.count != q.count or p.k != q.k:
        return False
    return bool(np.array_equal(reference_canonical_labels(p.labels), reference_canonical_labels(q.labels)))


def reference_kmeans_pp_centers(cols, k, rng):
    """D^2 seeding that forms each difference cols - c twice, inside einsum;
    the library's seeding must return bit-identical centers."""
    n = cols.shape[1]
    chosen = [int(rng.integers(n))]
    d2 = np.einsum("ij,ij->j", cols - cols[:, chosen[0]][:, None], cols - cols[:, chosen[0]][:, None])
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            idx = int(rng.choice(remaining)) if remaining.size else int(rng.integers(n))
        chosen.append(idx)
        cand = np.einsum("ij,ij->j", cols - cols[:, idx][:, None], cols - cols[:, idx][:, None])
        np.minimum(d2, cand, out=d2)
    return cols[:, chosen].copy()


def reference_repair_empty(cols, labels, centers, k):
    """Empty-cluster repair that forms cols - centers[:, labels] twice per
    empty cluster; the library's repair must return identical labels."""
    labels = labels.copy()
    counts = np.bincount(labels, minlength=k)
    for a in np.flatnonzero(counts == 0):
        dist = np.einsum("ij,ij->j", cols - centers[:, labels], cols - centers[:, labels])
        movable = counts[labels] >= 2
        candidates = np.flatnonzero(movable)
        j = int(candidates[np.argmax(dist[candidates])])
        counts[labels[j]] -= 1
        labels[j] = a
        counts[a] = 1
    return labels
