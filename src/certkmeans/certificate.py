"""Dual-certificate construction and the matrix-free optimality test operator.

For points grouped into k clusters with squared-distance matrix D, the
construction produces a scalar z and nonnegative rank-one off-diagonal
blocks B^(a,b) = u_(a,b) u_(b,a)^T / rho_(a,b) such that the clustering is
a provable global k-means optimum whenever

    P (B - D) P  strictly below  z P   (as quadratic forms),

where P projects onto the orthogonal complement of the span of the cluster
indicator vectors.  Equivalently, the all-ones direction spans the unique
leading eigenspace of

    A = (z / N) 11^T + P (B - D) P,

which the power-iteration detector checks without ever materializing A:
one application x -> Ax costs O(kmN) from the rank-one structure of B and
D = nu 1^T - 2 Phi^T Phi + 1 nu^T, of which only the Gram term survives the
projections (y = P x sums to zero, and P annihilates constants).

Everything here works in a canonical point order that groups clusters into
contiguous blocks: the stable sort of the labels.  The points are centred
on their mean, which changes no distance, and M^(a,b) 1 comes from its
closed form in the cluster centroids (see ``CertificateContext``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detector import DetectorDecision, DetectorOutcome, check_epsilon, default_epsilon, power_iteration_detect
from .model import Partition, PointSet, pairwise_sq_distances

__all__ = [
    "RHO_REL_TOLERANCE",
    "U_CLAMP_REL_TOLERANCE",
    "CertificateUndefinedError",
    "CertificateContext",
    "CertifyDecision",
    "CertifyOutcome",
    "build_certificate_context",
    "apply_A",
    "dense_B",
    "dense_M",
    "dense_projection",
    "dense_certificate_gap",
    "certify_partition",
]

# rho at or below RHO_REL_TOLERANCE * N * scale makes the division in B
# invalid; the context is then flagged undefined.  scale is the mean squared
# distance of the points from their mean, so neither tolerance moves when
# the data are translated.
RHO_REL_TOLERANCE = 1e-10
# u must be nonnegative by construction; dips below
# -U_CLAMP_REL_TOLERANCE * scale indicate a bug.
U_CLAMP_REL_TOLERANCE = 1e-8


class CertificateUndefinedError(ValueError):
    """The rank-one certificate blocks are undefined (some rho is ~ 0)."""


class CertifyDecision(enum.Enum):
    CERTIFIED_OPTIMAL = "certified_optimal"
    NOT_CERTIFIED = "not_certified"
    CERTIFICATE_UNDEFINED = "certificate_undefined"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertificateContext:
    """Precomputed certificate data enabling O(kmN) operator applications.

    Canonical order: points are permuted by the stable sort of the labels,
    so cluster a occupies columns offsets[a]:offsets[a+1] of ``phi``; each
    column is a point minus the mean of all points.  With x_j = phi[:, j]
    and c_a the centroid of cluster a, the quantities are:

        sq_norms[j] = ||x_j||^2
        z           = min over ordered pairs (a, b) of
                      (2 n_a / (n_a + n_b)) min(M^(a,b) 1)
        u[(a, b)]   = M^(a,b) 1 - z (n_a + n_b) / (2 n_a) 1   (>= 0)
        rho[{a, b}] = u_(a,b)^T 1  (= u_(b,a)^T 1; stored symmetrized)
        scale       = mean of sq_norms

    with M^(a,b) = D^(a,b) + g_a 1^T + 1 g_b^T, where g_a holds
    (1/2) ((1/n_a^2) 11^T - (2/n_a) I) D^(a,a) 1 = -||x_i - c_a||^2 for i in
    cluster a, so that M^(a,b) 1 = n_b (||x_i - c_b||^2 - ||x_i - c_a||^2).
    ``blocks[a]`` slices cluster a; ``terms[a]`` holds (u_(a,b), u_(b,a),
    blocks[b], rho_ab) for b != a, ascending.
    """

    phi: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    sq_norms: np.ndarray
    z: float
    u: dict[tuple[int, int], np.ndarray]
    rho: dict[tuple[int, int], float]
    scale: float
    undefined_pairs: tuple[tuple[int, int], ...]
    blocks: tuple[slice, ...]
    terms: tuple[tuple[tuple[np.ndarray, np.ndarray, slice, float], ...], ...]

    @property
    def n_points(self) -> int:
        return self.phi.shape[1]

    @property
    def n_clusters(self) -> int:
        return self.sizes.size

    @property
    def is_undefined(self) -> bool:
        return len(self.undefined_pairs) > 0

    def block(self, a: int) -> slice:
        return self.blocks[a]

    def rho_of(self, a: int, b: int) -> float:
        return self.rho[(a, b) if a < b else (b, a)]

    def require_defined(self) -> None:
        if self.is_undefined:
            raise CertificateUndefinedError(
                f"rank-one blocks undefined for cluster pairs {list(self.undefined_pairs)}"
            )


def build_certificate_context(points: PointSet, partition: Partition) -> CertificateContext:
    """Assemble the certificate quantities in O(kmN) from the centred
    points and the k centroids (no N x N matrix is ever formed)."""
    if partition.count != points.count:
        raise ValueError("partition does not match point count")
    k = partition.k
    if k < 2:
        raise ValueError("certificate needs at least two clusters")
    phi = points.columns[:, np.argsort(partition.labels, kind="stable")]
    phi -= points.columns.mean(axis=1)[:, None]  # exact where a shift dominates
    sizes = np.asarray(partition.sizes, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n_total = points.count
    sq_norms = np.einsum("ij,ij->j", phi, phi)
    scale = float(sq_norms.mean())
    blocks = tuple(slice(int(offsets[a]), int(offsets[a + 1])) for a in range(k))
    centers = np.stack([phi[:, blk].mean(axis=1) for blk in blocks], axis=1)
    center_sq = np.einsum("ij,ij->j", centers, centers)

    row_sums = {}  # (a, b) -> M^(a,b) 1, each built in place
    for a, blk in enumerate(blocks):
        dots = phi[:, blk].T @ centers  # x_i^T c_b for i in cluster a, every b
        for b in range(k):
            if a == b:
                continue
            ms = dots[:, a] - dots[:, b]
            ms *= 2.0
            ms += center_sq[b] - center_sq[a]
            ms *= int(sizes[b])
            row_sums[(a, b)] = ms

    z = min(
        2.0 * sizes[a] / (sizes[a] + sizes[b]) * float(row_sums[(a, b)].min())
        for (a, b) in row_sums
    )

    # u is built inside the row-sum buffers
    u: dict[tuple[int, int], np.ndarray] = {}
    for (a, b), ms in row_sums.items():
        ms -= z * (sizes[a] + sizes[b]) / (2.0 * sizes[a])
        low = float(ms.min())
        if low < -U_CLAMP_REL_TOLERANCE * max(scale, 1e-300):
            raise ArithmeticError(
                f"construction produced u with negative entry {low:.3e} for pair {(a, b)}"
            )
        u[(a, b)] = np.maximum(ms, 0.0, out=ms)

    rho: dict[tuple[int, int], float] = {}
    undefined: list[tuple[int, int]] = []
    for a in range(k):
        for b in range(a + 1, k):
            # equal to u_(b,a)^T 1 in exact arithmetic; averaged so the
            # operator is exactly symmetric in floating point
            val = 0.5 * (float(u[(a, b)].sum()) + float(u[(b, a)].sum()))
            rho[(a, b)] = val
            if val <= RHO_REL_TOLERANCE * n_total * scale:
                undefined.append((a, b))
    terms = tuple(
        tuple((u[(a, b)], u[(b, a)], blocks[b], rho[(min(a, b), max(a, b))]) for b in range(k) if b != a)
        for a in range(k)
    )

    return CertificateContext(
        phi=phi,
        sizes=sizes,
        offsets=offsets,
        sq_norms=sq_norms,
        z=float(z),
        u=u,
        rho=rho,
        scale=scale,
        undefined_pairs=tuple(undefined),
        blocks=blocks,
        terms=terms,
    )


def _project(ctx: CertificateContext, v: np.ndarray) -> np.ndarray:
    """P v in place: subtract each cluster's mean from its block of v."""
    means = np.add.reduceat(v, ctx.offsets[:-1]) / ctx.sizes
    for blk, mean in zip(ctx.blocks, means):
        v[blk] -= mean
    return v


def apply_A(ctx: CertificateContext, x: np.ndarray) -> np.ndarray:
    """One O(kmN) application of A = (z/N) 11^T + P (B - D) P as
    P (B y + 2 Phi^T (Phi y)) + (z/N) (1^T x) 1 with y = P x: nu 1^T y is
    zero and P (nu^T y) 1 = 0.  Besides one product per cluster pair in B y,
    a call allocates y, its output and Phi^T (Phi y).

    Raises CertificateUndefinedError when the context was flagged
    undefined (division by rho would be invalid).
    """
    ctx.require_defined()
    x = np.asarray(x, dtype=float)
    n = ctx.n_points
    if x.shape != (n,):
        raise ValueError(f"expected a length-{n} vector, got shape {x.shape}")
    y = _project(ctx, x.copy())
    # w = B y from the rank-one blocks: (By)_a = sum_b u_(a,b) (u_(b,a)^T y_b) / rho.
    # Each term is added onto zeros, never written with out=: 0.0 + (-0.0) is +0.0.
    w = np.zeros_like(y)
    for blk_a, terms in zip(ctx.blocks, ctx.terms):
        seg = w[blk_a]
        for u_ab, u_ba, blk_b, rho in terms:
            seg += u_ab * (float(u_ba @ y[blk_b]) / rho)
    t = ctx.phi.T @ (ctx.phi @ y)
    t *= 2.0
    w += t
    _project(ctx, w)
    w += (ctx.z / n) * x.sum()
    return w


def _check_dense_size(ctx: CertificateContext, cap: int = 2000) -> None:
    if ctx.n_points > cap:
        raise ValueError(f"dense helper limited to N <= {cap}, got N = {ctx.n_points}")


def dense_M(ctx: CertificateContext) -> np.ndarray:
    """Dense M = D + g 1^T + 1 g^T with g_i = -||x_i - c_a||^2 for x_i in
    cluster a (test helper)."""
    _check_dense_size(ctx)
    g = np.empty(ctx.n_points)
    for blk in ctx.blocks:
        diff = ctx.phi[:, blk] - ctx.phi[:, blk].mean(axis=1)[:, None]
        g[blk] = -np.einsum("ij,ij->j", diff, diff)
    return pairwise_sq_distances(ctx.phi) + g[:, None] + g[None, :]


def dense_B(ctx: CertificateContext) -> np.ndarray:
    """Dense B assembled from the rank-one blocks (test helper)."""
    _check_dense_size(ctx)
    ctx.require_defined()
    n = ctx.n_points
    out = np.zeros((n, n))
    k = ctx.n_clusters
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            out[ctx.block(a), ctx.block(b)] = np.outer(ctx.u[(a, b)], ctx.u[(b, a)]) / ctx.rho_of(a, b)
    return out


def dense_projection(ctx: CertificateContext) -> np.ndarray:
    """Dense P = I - sum_a (1/n_a) 1_a 1_a^T (test helper)."""
    _check_dense_size(ctx)
    n = ctx.n_points
    out = np.eye(n)
    for a in range(ctx.n_clusters):
        blk = ctx.block(a)
        out[blk, blk] -= 1.0 / float(ctx.sizes[a])
    return out


def dense_certificate_gap(ctx: CertificateContext) -> float:
    """Margin z - lambda_max of P (B - M) P restricted to the orthogonal
    complement of the cluster-indicator span (test helper).

    Nonnegative (up to roundoff) exactly when the dense certificate
    condition holds; positive when it holds strictly.
    """
    _check_dense_size(ctx)
    ctx.require_defined()
    n = ctx.n_points
    indicators = np.zeros((ctx.n_clusters, n))
    for a in range(ctx.n_clusters):
        indicators[a, ctx.block(a)] = 1.0
    basis = np.linalg.svd(indicators, full_matrices=True)[2][ctx.n_clusters :].T  # N x (N - k)
    proj = dense_projection(ctx)
    core = proj @ (dense_B(ctx) - dense_M(ctx)) @ proj
    restricted = basis.T @ core @ basis
    return ctx.z - float(np.linalg.eigvalsh(restricted).max())


@dataclass(frozen=True)
class CertifyOutcome:
    """Result of the optimality certification pipeline.

    ``epsilon`` is the detector tolerance used and ``confidence_bound`` is
    3 sqrt(N epsilon), the bound on the probability that a certificate was
    issued for a non-optimal partition.
    """

    decision: CertifyDecision
    z: float
    detector: Optional[DetectorOutcome]
    confidence_bound: float
    epsilon: float

    @property
    def certified(self) -> bool:
        return self.decision is CertifyDecision.CERTIFIED_OPTIMAL


_DETECTOR_TO_CERTIFY = {
    DetectorDecision.REJECT_H0_ACCEPT_H1: CertifyDecision.CERTIFIED_OPTIMAL,
    DetectorDecision.ACCEPT_H0: CertifyDecision.NOT_CERTIFIED,
    DetectorDecision.INCONCLUSIVE: CertifyDecision.INCONCLUSIVE,
}


def certify_partition(
    points: PointSet,
    partition: Partition,
    epsilon: Optional[float] = None,
    seed: int = 0,
) -> CertifyOutcome:
    """Test whether ``partition`` is a certifiably global k-means optimum.

    Builds the certificate context, then runs the power-iteration detector
    on the implicit operator A with the known eigenvector v = 1/sqrt(N) 1
    (eigenvalue z).  A rejection of H0 means v spans the unique leading
    eigenspace, which (for z > 0) forces the certificate condition and
    hence global optimality, up to the reported confidence bound.

    ``epsilon`` defaults to the dimension-calibrated N^-3, and the outcome
    reports the value used.  z <= 0 cannot yield a valid certificate (the
    operator always has k - 1 zero eigenvalues), so such runs return
    NOT_CERTIFIED without iterating.
    """
    n = points.count
    if epsilon is None:
        epsilon = default_epsilon(n)
    check_epsilon(epsilon)
    confidence_bound = 3.0 * math.sqrt(n * epsilon)
    ctx = build_certificate_context(points, partition)
    if ctx.is_undefined:
        return CertifyOutcome(CertifyDecision.CERTIFICATE_UNDEFINED, ctx.z, None, confidence_bound, epsilon)
    if ctx.z <= 0.0:
        return CertifyOutcome(CertifyDecision.NOT_CERTIFIED, ctx.z, None, confidence_bound, epsilon)
    v = np.full(n, 1.0 / math.sqrt(n))
    outcome = power_iteration_detect(lambda x: apply_A(ctx, x), v, epsilon, seed)
    return CertifyOutcome(_DETECTOR_TO_CERTIFY[outcome.decision], ctx.z, outcome, confidence_bound, epsilon)

