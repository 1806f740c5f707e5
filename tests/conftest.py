"""Shared instance generators and dense reference oracles for the tests.

The reference implementations here deliberately avoid the library's
matrix-free code paths: they build dense matrices straight from the
definitions so the fast paths have something independent to match.
"""

import math
from types import SimpleNamespace

import numpy as np

from certkmeans.certificate import build_certificate_context, dense_B, dense_projection
from certkmeans.model import (
    BallModelConfig,
    Partition,
    PointSet,
    TWO_POINT_SYM,
    UNIFORM_BALL,
    pairwise_sq_distances,
    partition_from_labels,
    sample_stochastic_ball_model,
    standard_centers,
)
from certkmeans.solvers import SolveResult


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


def normalized_partition_matrix(partition):
    """The N x N membership matrix sum_a (1/n_a) 1_a 1_a^T.

    The k-means objective equals one half the trace of D times this
    matrix, D being the squared-distance matrix.
    """
    n = partition.count
    x = np.zeros((n, n))
    for a in range(partition.k):
        idx = np.flatnonzero(partition.labels == a)
        x[np.ix_(idx, idx)] = 1.0 / idx.size
    return x


def counterexample_1d_objectives(delta):
    """Per-point k-means values of two clusterings of the 1-D endpoint model.

    Consider two balls on the line centered at +/- delta/2 whose points sit
    at the ball extremes, a quarter of the mass at each of the four
    locations +/- delta/2 +/- 1.  Clustering by ball gives per-point value 1.
    The competing split that makes the left-most location its own cluster
    gives (2/3)(d^2 - d + 1) with d = delta/2, which is strictly smaller
    exactly when delta < 1 + sqrt(3).

    Returns:
        (planted_per_point, alternative_per_point)
    """
    if delta <= 2.0:
        raise ValueError("balls must be disjoint (delta > 2)")
    d = delta / 2.0
    alternative = 2.0 * (d * d - d + 1.0) / 3.0
    return 1.0, alternative


def pi_epsilon_bound(n, epsilon):
    """Upper bound 3 sqrt(n * epsilon) on the detector's false-rejection
    probability; valid for epsilon >= n^-1 e^-2n, smaller epsilon is rejected."""
    if n < 1:
        raise ValueError("n must be positive")
    if epsilon < math.exp(-2.0 * n) / n:
        raise ValueError("epsilon below the validity floor n^-1 e^-2n")
    return 3.0 * math.sqrt(n * epsilon)


def dense_A(ctx):
    """Materialize A = (z/N) 11^T + P (B - D) P.  The library's dense_projection
    and dense_B keep it to N <= 2000 and raise CertificateUndefinedError for an
    undefined context."""
    n = ctx.n_points
    proj = dense_projection(ctx)
    core = dense_B(ctx) - pairwise_sq_distances(ctx.phi)
    return (ctx.z / n) * np.ones((n, n)) + proj @ core @ proj


def dense_E(ctx):
    """Dense E with blocks (1/2)(1/n_a + 1/n_b) 11^T for a certificate context."""
    inv = np.repeat(1.0 / ctx.sizes, ctx.sizes)
    return 0.5 * (inv[:, None] + inv[None, :])


def corollary_check(points, partition):
    """Explicit sufficient test for certificate validity (acceptance
    criterion 3).

    Computes

        lhs = 2 ||Psi||^2 + sum_{a<b} ||P_1perp u_(a,b)|| ||P_1perp u_(b,a)|| / rho_(a,b)

    where Psi is the cluster-centered m x N point matrix, and compares it
    against z.  ``lhs <= z`` implies the operator condition behind the
    certificate (the converse need not hold).  ||Psi||^2 is the largest
    eigenvalue of the m x m Gram matrix Psi Psi^T, computed exactly.
    Returns (holds, lhs, z).
    """
    ctx = build_certificate_context(points, partition)
    ctx.require_defined()
    centered = np.empty_like(ctx.phi)
    for a in range(ctx.n_clusters):
        blk = ctx.block(a)
        centered[:, blk] = ctx.phi[:, blk] - ctx.phi[:, blk].mean(axis=1)[:, None]
    lhs = 2.0 * max(float(np.linalg.eigvalsh(centered @ centered.T)[-1]), 0.0)
    for a in range(ctx.n_clusters):
        for b in range(a + 1, ctx.n_clusters):
            u_ab = ctx.u[(a, b)]
            u_ba = ctx.u[(b, a)]
            norm_ab = float(np.linalg.norm(u_ab - u_ab.mean()))
            norm_ba = float(np.linalg.norm(u_ba - u_ba.mean()))
            lhs += norm_ab * norm_ba / ctx.rho_of(a, b)
    return lhs <= ctx.z, lhs, ctx.z


def recover_alpha(ctx, labels):
    """The per-point dual coefficients of the context built for ``labels``,
    in the caller's point order.

    alpha_{a,r} = -z/n_a + (1/n_a^2) 1^T D^(a,a) 1 - (2/n_a) e_r^T D^(a,a) 1,
    which equals -z/n_a - 2 ||x_r - c_a||^2 for the centroid c_a of cluster a.
    The context's canonical order is the stable sort of the labels.
    """
    alpha = np.empty(ctx.n_points)
    for a, blk in enumerate(ctx.blocks):
        diff = ctx.phi[:, blk] - ctx.phi[:, blk].mean(axis=1)[:, None]
        alpha[blk] = -ctx.z / float(ctx.sizes[a]) - 2.0 * np.einsum("ij,ij->j", diff, diff)
    out = np.empty_like(alpha)
    out[np.argsort(labels, kind="stable")] = alpha
    return out


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


def reference_centroids(rows, labels, k):
    """Centroids from masked column gathers cols[:, labels == a] of the m x N
    points, rebuilt from the N x m rows; the library's row gathers must
    return bit-identical centers."""
    cols = np.ascontiguousarray(rows.T)
    centers = np.empty((cols.shape[0], k))
    for a in range(k):
        centers[:, a] = cols[:, labels == a].mean(axis=1)
    return centers


def reference_assign(cols, sq_norms, centers):
    """Nearest-center labels by argmin over the same squared distances as
    the library; argmin breaks ties toward the lower cluster index and
    reports the first NaN of a column."""
    d2 = (centers * centers).sum(axis=0)[:, None] - 2.0 * (centers.T @ cols) + sq_norms[None, :]
    return np.argmin(d2, axis=0).astype(np.int64)


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


def reference_lloyd(points, k, init="kmeans++", max_iter=100, seed=0):
    """Lloyd's loop recomputing every centroid on every update, on the
    reference seeding, assignment, repair and centroids; the library's
    incremental Lloyd must return the same labels, objective and iteration
    count bit for bit."""
    cols = points.columns
    sq_norms = np.einsum("ij,ij->j", cols, cols)
    rows = np.ascontiguousarray(cols.T)
    if isinstance(init, Partition):
        centers = reference_centroids(rows, init.labels, k)
    else:
        centers = reference_kmeans_pp_centers(cols, k, np.random.default_rng(seed))
    for iterations in range(1, max_iter + 1):
        labels = reference_assign(cols, sq_norms, centers)
        if (np.bincount(labels, minlength=k) == 0).any():
            labels = reference_repair_empty(cols, labels, centers, k)
        new_centers = reference_centroids(rows, labels, k)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    partition = partition_from_labels(labels)
    return SolveResult(partition, reference_kmeans_objective(points, partition), iterations, "lloyd")


def reference_apply_A(ctx, x, expanded=False):
    """A x with the off-diagonal product formed the dict-based way: every
    dot u_(b,a)^T x_b into a dict first, then one accumulator per block,
    summed in ascending b and copied into the output, and every other step
    as one whole-vector expression.  The distance term is -2 Phi^T (Phi y),
    the only term of D y = nu (1^T y) - 2 Phi^T (Phi y) + (nu^T y) 1 that
    survives the projections.  Same arithmetic as the library's per-block
    plan, so apply_A must match it bit for bit.  ``expanded=True`` keeps
    the two cancelled terms, in the operand order of the earlier operator
    (nu s - 2 Phi^T (Phi y)) + c, which differs from A x by roundoff."""

    def project(v):
        return v - np.repeat(np.add.reduceat(v, ctx.offsets[:-1]) / ctx.sizes, ctx.sizes)

    def distance(v):
        gram = -2.0 * (ctx.phi.T @ (ctx.phi @ v))
        if expanded:
            return ctx.sq_norms * v.sum() + gram + float(ctx.sq_norms @ v)
        return gram

    k = ctx.n_clusters
    blocks = [slice(int(ctx.offsets[a]), int(ctx.offsets[a + 1])) for a in range(k)]
    x = np.asarray(x, dtype=float)
    y = project(x)
    dots = {(b, a): float(ctx.u[(b, a)] @ y[blocks[b]]) for a in range(k) for b in range(k) if a != b}
    off = np.zeros_like(y)
    for a in range(k):
        acc = np.zeros(int(ctx.sizes[a]))
        for b in range(k):
            if b != a:
                acc += ctx.u[(a, b)] * (dots[(b, a)] / ctx.rho[(min(a, b), max(a, b))])
        off[blocks[a]] = acc
    return project(off - distance(y)) + (ctx.z / ctx.n_points) * x.sum()


def reference_certificate_context(points, partition):
    """phi, sq_norms, z, u and rho of the certificate context,
    built with a fresh array per expression; the library's in-place build
    must match every one bit for bit."""
    k = partition.k
    perm = np.argsort(partition.labels, kind="stable")
    phi = points.columns[:, perm] - points.columns.mean(axis=1)[:, None]
    sizes = np.asarray(partition.sizes, dtype=np.int64)
    blocks = blocks_of(sizes)
    sq_norms = np.einsum("ij,ij->j", phi, phi)
    centers = np.stack([phi[:, blk].mean(axis=1) for blk in blocks], axis=1)
    center_sq = np.einsum("ij,ij->j", centers, centers)
    dots = [phi[:, blk].T @ centers for blk in blocks]
    row_sums = {
        (a, b): int(sizes[b]) * (2.0 * (dots[a][:, a] - dots[a][:, b]) + (center_sq[b] - center_sq[a]))
        for a in range(k)
        for b in range(k)
        if a != b
    }
    z = min(2.0 * sizes[a] / (sizes[a] + sizes[b]) * float(row_sums[(a, b)].min()) for (a, b) in row_sums)
    u = {}
    for (a, b), ms in row_sums.items():
        u[(a, b)] = np.maximum(ms - z * (sizes[a] + sizes[b]) / (2.0 * sizes[a]), 0.0)
    rho = {(a, b): 0.5 * (float(u[(a, b)].sum()) + float(u[(b, a)].sum())) for a in range(k) for b in range(a + 1, k)}
    return SimpleNamespace(phi=phi, sq_norms=sq_norms, z=float(z), u=u, rho=rho)


def reference_sample_columns(config):
    """The sampler's m x N columns drawn through np.linalg.norm and a fresh
    array per step; the library's in-place sampler must match bit for bit."""
    k, m, n = config.k, config.dim, config.per_ball
    cols = np.empty((m, k * n))
    for a in range(k):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(a,)))
        if config.distribution == TWO_POINT_SYM:
            r = (2.0 * rng.integers(0, 2, size=(1, n)) - 1.0).astype(float)
        else:
            g = rng.standard_normal((m, n))
            r = g / np.linalg.norm(g, axis=0)
            if config.distribution == UNIFORM_BALL:
                r = r * rng.random(n) ** (1.0 / m)
        cols[:, a * n : (a + 1) * n] = r + config.centers[a][:, None]
    return cols


def reference_kmeans_objective(points, partition):
    """The k-means objective with a centered copy of each cluster block."""
    total = 0.0
    for a in range(partition.k):
        block = points.columns[:, partition.labels == a]
        centered = block - block.mean(axis=1)[:, None]
        total += float(np.einsum("ij,ij->", centered, centered))
    return total
