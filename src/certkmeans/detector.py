"""Randomized test for whether a known eigenvector spans the unique leading eigenspace.

Given a symmetric operator A and a unit eigenvector v of A, the detector
runs the power iteration from a random start q and watches two statistics:
the Rayleigh quotient q^T A q and the alignment (v^T q)^2.  If the Rayleigh
quotient ever exceeds |v^T A v| in magnitude, some other eigenvalue
dominates and H0 is accepted.  If the alignment reaches 1 - epsilon first,
H0 is rejected in favor of H1 ("span(v) is the unique leading eigenspace").
A false rejection requires the random start to be nearly orthogonal to the
true leading eigenvector, which happens with probability at most
3 sqrt(n * epsilon).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DetectorDecision",
    "DetectorOutcome",
    "EigenvectorMismatchError",
    "power_iteration_detect",
    "default_epsilon",
]

# relative residual allowed when checking that v really is an eigenvector
EIGRES_TOL = 1e-8
# the iteration cap is max(MIN_ITER_CAP, ceil(50 ln(1/epsilon))): the bare
# algorithm need not terminate on degenerate pairs, so the cap turns those
# runs into an explicit INCONCLUSIVE verdict instead of a hang
MIN_ITER_CAP = 10_000


class EigenvectorMismatchError(ValueError):
    """The supplied v is not (numerically) a unit eigenvector of the operator."""


class DetectorDecision(enum.Enum):
    ACCEPT_H0 = "accept_h0"
    REJECT_H0_ACCEPT_H1 = "reject_h0_accept_h1"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DetectorOutcome:
    """Decision plus the statistics at exit.

    ``iterations`` counts power-iteration updates performed before the
    decision (the start vector is iteration 0).  ``lam`` is v^T A v.
    """

    decision: DetectorDecision
    iterations: int
    final_alignment: float
    final_rayleigh: float
    lam: float


def check_epsilon(epsilon: float) -> None:
    """Reject a detector tolerance outside (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def power_iteration_detect(
    matvec: Callable[[np.ndarray], np.ndarray], v: np.ndarray, epsilon: float, seed: int = 0
) -> DetectorOutcome:
    """Decide whether span(v) is the unique leading eigenspace of ``matvec``.

    ``matvec`` applies a symmetric operator (a matrix A is passed as
    ``A.__matmul__``).  Rejection of H0 fires once (v^T q)^2 >= 1 - epsilon,
    for an ``epsilon`` in (0, 1); ``seed`` seeds the random unit-sphere
    start q.  One operator application per loop iteration: the product A q
    is used both for the Rayleigh quotient and for the update.

    Raises:
        EigenvectorMismatchError: v is not unit-norm within 1e-10, or its
            eigenvector residual exceeds ``EIGRES_TOL`` times the largest of
            |lam|, ||A v|| and ||A q|| for the random unit start q.
    """
    check_epsilon(epsilon)
    max_iter = max(MIN_ITER_CAP, math.ceil(50.0 * math.log(1.0 / epsilon)))
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("v must be a vector")
    n = v.size
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise EigenvectorMismatchError("v must have unit norm")
    av = matvec(v)
    lam = float(v @ av)
    residual = float(np.linalg.norm(av - lam * v))

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    aq = matvec(q)
    # roundoff in A v scales with the size of A, not with lam: ||A q|| for
    # the random unit start estimates it when lam is tiny
    if residual > EIGRES_TOL * max(abs(lam), float(np.linalg.norm(av)), float(np.linalg.norm(aq))):
        raise EigenvectorMismatchError(
            f"v is not an eigenvector: residual {residual:.3e} with eigenvalue {lam:.6e}"
        )
    abs_lam = abs(lam)

    align = rayleigh = math.nan
    for j in range(max_iter + 1):
        rayleigh = float(q @ aq)
        align = float(v @ q) ** 2
        if abs(rayleigh) > abs_lam:
            return DetectorOutcome(DetectorDecision.ACCEPT_H0, j, align, rayleigh, lam)
        if align >= 1.0 - epsilon:
            return DetectorOutcome(DetectorDecision.REJECT_H0_ACCEPT_H1, j, align, rayleigh, lam)
        if j == max_iter:
            break
        norm_aq = math.sqrt(aq.dot(aq))
        if norm_aq <= 1e-300:
            # q is a null direction.  If lam == 0 as well, eigenvalue 0 is
            # shared by v and q, so it cannot be uniquely dominant.
            if abs_lam == 0.0:
                return DetectorOutcome(DetectorDecision.ACCEPT_H0, j, align, rayleigh, lam)
            return DetectorOutcome(DetectorDecision.INCONCLUSIVE, j, align, rayleigh, lam)
        q = aq / norm_aq
        aq = matvec(q)
    return DetectorOutcome(DetectorDecision.INCONCLUSIVE, max_iter, align, rayleigh, lam)


def default_epsilon(n: int) -> float:
    """Dimension-calibrated tolerance n^-3.

    It stays above n^-1 e^-2n, the validity floor of the 3 sqrt(n * epsilon)
    false-rejection bound, because e^2n >= n^2 for every n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return float(n) ** -3.0
