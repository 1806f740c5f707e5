"""Exact checks the benchmark applies to the library's outputs.

Everything here uses numpy only and never calls the library's operator, so
a defect in ``apply_A`` or the detector cannot hide itself.

The certificate test matrix has a low-rank form.  P annihilates the all-ones
vector, so P D P = -2 Psi^T Psi with Psi the points centered within each
cluster, and P B P = sum over ordered pairs (a, b) of w_ab w_ba^T / rho_ab,
with w_ab the entries of u_(a,b) centered within cluster a and placed in
block a.  Hence

    P (B - D) P = L S L^T,   L = [Psi^T | w_ab ...]   (N x r, r = m + k(k-1))

with S = diag(2 I_m, C), where C pairs column (a, b) with column (b, a)
at weight 1 / rho_ab.  For a thin QR factorization L = Q R the nonzero
spectrum of L S L^T is that of the r x r matrix R S R^T.  The QR is taken
as a tall-skinny reduction over row chunks of each cluster, so the oracle
never holds more than one chunk of L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# rows of L factored at a time; bounds the oracle's memory at CHUNK_ROWS * (m + k - 1) floats
CHUNK_ROWS = 8192
# a NOT_CERTIFIED verdict is a missed certificate only when the spectrum sits
# inside (-z, z) by at least this share of z
MISSED_MARGIN_REL = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Extreme eigenvalues of P (B - D) P on the complement of the cluster
    indicator span, and the certificate's z."""

    z: float
    lam_max: float
    lam_min: float

    @property
    def gap(self) -> float:
        """z - lam_max: positive exactly when the certificate condition holds."""
        return self.z - self.lam_max

    @property
    def certifiable(self) -> bool:
        """Whether every eigenvalue lies inside (-z, z) with relative margin
        MISSED_MARGIN_REL, so the detector should reject H0."""
        margin = min(self.z - self.lam_max, self.z + self.lam_min)
        return self.z > 0.0 and margin >= MISSED_MARGIN_REL * self.z


def exact_spectrum(ctx) -> Spectrum:
    """Extreme eigenvalues of P (B - D) P restricted to range(P).

    Uses only the context's public arrays (phi, u, rho, sizes, offsets, z).
    The context must be defined (every rho positive).  Rows of cluster a are
    nonzero only in the m columns of Psi^T and the k - 1 columns w_ab, so
    each chunk is factored on those columns alone and its R scattered back.
    """
    m, n = ctx.phi.shape
    k = ctx.sizes.size
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    column = {p: m + i for i, p in enumerate(pairs)}
    r = m + len(pairs)
    coupling = np.zeros((r, r))
    coupling[:m, :m] = 2.0 * np.eye(m)
    for a, b in pairs:
        coupling[column[(a, b)], column[(b, a)]] = 1.0 / ctx.rho[(min(a, b), max(a, b))]

    r_factors = []
    for a in range(k):
        lo, hi = int(ctx.offsets[a]), int(ctx.offsets[a + 1])
        others = [b for b in range(k) if b != a]
        columns = list(range(m)) + [column[(a, b)] for b in others]
        mean = ctx.phi[:, lo:hi].mean(axis=1)
        centered_u = [ctx.u[(a, b)] - ctx.u[(a, b)].mean() for b in others]
        for start in range(lo, hi, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, hi)
            rows = np.empty((stop - start, len(columns)), order="F")
            rows[:, :m] = (ctx.phi[:, start:stop] - mean[:, None]).T
            for j, u in enumerate(centered_u):
                rows[:, m + j] = u[start - lo : stop - lo]
            part = np.linalg.qr(rows, mode="r")
            scattered = np.zeros((part.shape[0], r))
            scattered[:, columns] = part
            r_factors.append(scattered)
    factor = np.linalg.qr(np.vstack(r_factors), mode="r")
    small = factor @ coupling @ factor.T
    eig = np.linalg.eigvalsh(0.5 * (small + small.T))
    lam_max, lam_min = float(eig[-1]), float(eig[0])
    # range(P) has dimension N - k; directions in it outside span(L) carry eigenvalue 0
    if n - k > r:
        lam_max, lam_min = max(lam_max, 0.0), min(lam_min, 0.0)
    return Spectrum(z=float(ctx.z), lam_max=lam_max, lam_min=lam_min)


def kmeans_objective(columns: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to cluster centroids (two-pass, centered)."""
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    means = np.stack([np.bincount(labels, weights=row, minlength=k) for row in columns]) / counts
    centered = columns - means[:, labels]
    return float(np.einsum("ij,ij->", centered, centered))


def same_clustering(p: np.ndarray, q: np.ndarray) -> bool:
    """Whether two label vectors define the same clustering up to relabeling:
    the label pairs (p_i, q_i) must form a bijection."""
    if p.shape != q.shape:
        return False
    kp, kq = np.unique(p).size, np.unique(q).size
    pairs = np.unique(p.astype(np.int64) * (int(q.max()) + 1) + q).size
    return kp == kq == pairs
