"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete)."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import ball_dataset, corollary_check, counterexample_1d_objectives, dense_A, dense_E
from certkmeans.certificate import (
    CertifyDecision,
    apply_A,
    build_certificate_context,
    certify_partition,
)
from certkmeans.detector import DetectorDecision, power_iteration_detect
from certkmeans.model import (
    PointSet,
    kmeans_objective,
    partition_from_labels,
    partitions_equal,
)
from certkmeans.solvers import (
    exact_kmeans_bruteforce,
    lloyd,
    optimal_threshold_split,
    spectral_two_means,
)


def report(num, name, ok, detail):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_certificate_soundness():
    # 200 random small instances; every certificate must point at a true
    # global optimum
    rng = np.random.default_rng(20_240_001)
    certified = 0
    unsound = 0
    for trial in range(200):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5)) if k == 3 else int(rng.integers(2, 7))
        delta = float(rng.uniform(1.5, 6.0))
        m = int(rng.integers(3, 5))
        ds = ball_dataset(seed=50_000 + trial, k=k, m=m, n=n, delta=delta)
        candidates = [ds.planted, lloyd(ds.points, k, seed=trial).partition]
        for part in candidates:
            out = certify_partition(ds.points, part, seed=trial)
            if out.decision is CertifyDecision.CERTIFIED_OPTIMAL:
                certified += 1
                best = exact_kmeans_bruteforce(ds.points, k).objective
                obj = kmeans_objective(ds.points, part)
                if obj > best + 1e-9 * max(1.0, best):
                    unsound += 1
    report(
        1,
        "certificate soundness",
        unsound == 0 and certified > 0,
        f"{certified} certificates over 400 candidate partitions, {unsound} unsound",
    )


def test_criterion_2_figure_regime_certification_rates():
    def rate(per_ball, trials):
        hits = 0
        for t in range(trials):
            ds = ball_dataset(seed=60_000 + per_ball * 101 + t, k=2, m=6, n=per_ball, delta=2.3)
            out = certify_partition(ds.points, ds.planted, seed=t)
            hits += out.decision is CertifyDecision.CERTIFIED_OPTIMAL
        return hits / trials

    rate_big = rate(256, 100)  # N = 512
    rate_small = rate(32, 100)  # N = 64
    report(
        2,
        "planted certification rates at N=512 / N=64",
        rate_big >= 0.97 and rate_small >= 0.90,
        f"N=512 rate {rate_big:.2f} (need >= 0.97), N=64 rate {rate_small:.2f} (need >= 0.90)",
    )


def test_criterion_3_explicit_bound_regime():
    holds = 0
    for t in range(10):
        ds = ball_dataset(seed=70_000 + t, k=2, m=20, n=100, delta=3.0)
        ok, lhs, rhs = corollary_check(ds.points, ds.planted)
        holds += ok
    report(3, "explicit sufficient bound at m=20, delta=3.0", holds >= 9, f"holds in {holds}/10 trials")


def test_criterion_4_endpoint_counterexample():
    planted, alt = counterexample_1d_objectives(2.5)
    values_ok = abs(planted - 1.0) <= 1e-12 and abs(alt - 0.875) <= 1e-12

    # exhaustive 2-means on the exact quarter-mass instance: 10 points at
    # each of the four locations.  The objective only depends on how many
    # points from each location land in each cluster, so scanning all
    # 11^4 count splits is a complete search over the 2^40-ish partitions.
    locations = np.array([-2.25, -0.25, 0.25, 2.25])
    per_location = 10
    planted_counts = np.array([10, 10, 0, 0])

    def split_objective(counts):
        counts = np.asarray(counts, dtype=float)
        comp = per_location - counts
        total = 0.0
        for side in (counts, comp):
            mass = side.sum()
            if mass == 0:
                return math.inf  # empty cluster: infeasible
            mean = (side * locations).sum() / mass
            total += (side * locations**2).sum() - mass * mean**2
        return total

    best_counts = None
    best_val = math.inf
    for c0 in range(11):
        for c1 in range(11):
            for c2 in range(11):
                for c3 in range(11):
                    val = split_objective((c0, c1, c2, c3))
                    if val < best_val - 1e-12:
                        best_val = val
                        best_counts = (c0, c1, c2, c3)

    planted_val = split_objective(planted_counts)
    # cross-check the count-based objective against the library objective
    labels = np.repeat([0, 0, 1, 1], per_location)
    pts = PointSet(np.repeat(locations, per_location)[None, :])
    assert planted_val == pytest.approx(kmeans_objective(pts, partition_from_labels(labels)), rel=1e-12)

    non_planted = best_val < planted_val - 1e-9
    quarter_ok = abs(best_val - 0.875 * 40) <= 1e-9 and abs(planted_val - 40.0) <= 1e-9

    root = brentq(
        lambda d: counterexample_1d_objectives(d)[1] - counterexample_1d_objectives(d)[0],
        2.0 + 1e-9,
        4.0,
        xtol=1e-13,
    )
    crossing_ok = abs(root - (1.0 + math.sqrt(3.0))) <= 1e-9

    report(
        4,
        "one-dimensional endpoint counterexample",
        values_ok and non_planted and quarter_ok and crossing_ok,
        f"values (1, 0.875) ok={values_ok}, best split {best_counts} at {best_val:.6f} "
        f"beats planted {planted_val:.1f}, crossing |err|={abs(root - 1 - math.sqrt(3.0)):.1e}",
    )


def test_criterion_5_spectral_recovery_rate():
    hits = 0
    for t in range(100):
        ds = ball_dataset(seed=80_000 + t, k=2, m=6, n=500, delta=2.3)
        res = spectral_two_means(ds.points, seed=t)
        hits += partitions_equal(res.partition, ds.planted)
    report(5, "spectral recovery at n=500, delta=2.3", hits >= 95, f"recovered {hits}/100")


def test_criterion_6_one_dimensional_exactness():
    rng = np.random.default_rng(20_240_006)
    failures = 0
    for trial in range(500):
        n = int(rng.integers(2, 13))
        pts = PointSet(rng.standard_normal((1, n)) * rng.uniform(0.2, 5.0) + rng.uniform(-3, 3))
        spec = spectral_two_means(pts)
        brute = exact_kmeans_bruteforce(pts, 2)
        if abs(spec.objective - brute.objective) > 1e-12 * max(1.0, brute.objective):
            failures += 1
    report(6, "spectral equals brute force in 1-D", failures == 0, f"{failures} mismatches in 500")


def test_criterion_7_detector_statistics():
    # (a) initialization failure probability against its analytic bound
    n, eps = 100, 1e-6
    rng = np.random.default_rng(20_240_007)
    draws = rng.standard_normal((100_000, n))
    frac = float(np.mean(draws[:, 0] ** 2 / (draws * draws).sum(axis=1) < eps))
    bound = 3.0 * math.sqrt(n * eps)
    part_a = frac <= bound

    # (b) iteration bound at eigenvalue ratio 1/2
    limit = math.ceil(3.0 * math.log(1.0 / eps) / (2.0 * math.log(2.0))) + 1  # 31
    diag = np.concatenate(([2.0, 1.0], np.linspace(0.9, -0.9, n - 2)))
    mat = np.diag(diag)
    v = np.zeros(n)
    v[0] = 1.0
    good = 0
    for seed in range(1000):
        out = power_iteration_detect(mat.__matmul__, v, eps, seed)
        good += out.decision is DetectorDecision.REJECT_H0_ACCEPT_H1 and out.iterations <= limit
    part_b = good >= math.floor(1000 * (1.0 - bound))

    report(
        7,
        "detector statistics",
        part_a and part_b,
        f"init-failure {frac:.4f} <= {bound:.2f}; {good}/1000 within {limit} iterations",
    )


def test_criterion_8_quasilinear_certification():
    def best_time(per_ball, seed):
        ds = ball_dataset(seed=seed, k=2, m=6, n=per_ball, delta=2.3)
        best = math.inf
        decision = None
        for _ in range(3):
            # CPU time of this process, so another process on the same cores
            # does not inflate the ratio
            start = time.process_time()
            out = certify_partition(ds.points, ds.planted, seed=seed)
            best = min(best, time.process_time() - start)
            decision = out.decision
        assert decision is CertifyDecision.CERTIFIED_OPTIMAL
        return best

    t_small = best_time(2**10, 90_001)  # N = 2^11
    t_big = best_time(2**13, 90_002)  # N = 2^14
    ratio = t_big / t_small
    report(
        8,
        "8x data within 12x time",
        ratio <= 12.0,
        f"N=2^11: {t_small * 1e3:.1f} ms, N=2^14: {t_big * 1e3:.1f} ms, ratio {ratio:.1f}",
    )


def test_criterion_9_oracle_equivalence_suites():
    rng = np.random.default_rng(20_240_009)

    # (a) implicit operator vs densely materialized operator
    operator_ok = 0
    for trial in range(50):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(2, (30 // k) + 1))
        ds = ball_dataset(seed=91_000 + trial, k=k, m=int(rng.integers(k, 5)), n=n,
                          delta=float(rng.uniform(2.2, 5.0)))
        ctx = build_certificate_context(ds.points, ds.planted)
        if ctx.is_undefined:
            continue
        mat = dense_A(ctx)
        x = rng.standard_normal(ctx.n_points)
        ref = mat @ x
        if np.abs(apply_A(ctx, x) - ref).max() <= 1e-8 * max(1.0, float(np.abs(ref).max())):
            operator_ok += 1
        else:
            operator_ok -= 10_000
    part_a = operator_ok >= 45  # a few undefined draws are fine, failures are not

    # (b) threshold scan's closed form (prefix sums of centred points) vs quadratic double sums
    scan_failures = 0
    for trial in range(50):
        n = int(rng.integers(2, 41))
        pts = PointSet(rng.standard_normal((3, n)) * rng.uniform(0.2, 4.0))
        y = rng.standard_normal(n)
        scan = optimal_threshold_split(pts, y)
        cols = pts.columns[:, scan.order]
        gram = cols.T @ cols
        sq = np.diag(gram)
        dist = sq[:, None] - 2.0 * gram + sq[None, :]
        for i in range(1, n):
            f_direct = dist[:i, :i].sum() / i + dist[i:, i:].sum() / (n - i)
            if abs(scan.f[i - 1] - f_direct) > 1e-8 * max(1.0, abs(f_direct)):
                scan_failures += 1
    part_b = scan_failures == 0

    # (c) structural facts about the dense E matrix
    e_failures = 0
    for trial in range(50):
        k = int(rng.integers(2, 5))
        sizes = rng.integers(1, 8, size=k)
        labels = np.repeat(np.arange(k), sizes)
        pts = PointSet(rng.standard_normal((2, int(sizes.sum()))))
        ctx = build_certificate_context(pts, partition_from_labels(labels))
        eigvals, eigvecs = np.linalg.eigh(dense_E(ctx))
        nz = np.flatnonzero(np.abs(eigvals) > 1e-9)
        lead = nz[np.argmax(np.abs(eigvals[nz]))]
        ok = (
            nz.size in (1, 2)
            and eigvals[lead] >= k - 1e-9
            and all(eigvals[i] < 0 for i in nz if i != lead)
        )
        # nonzero eigenvectors stay inside the indicator span
        for idx in nz:
            vec = eigvecs[:, idx]
            for a in range(k):
                blk = ctx.block(a)
                ok = ok and float(np.abs(vec[blk] - vec[blk].mean()).max()) <= 1e-8
        e_failures += not ok
    part_c = e_failures == 0

    report(
        9,
        "oracle equivalence suites",
        part_a and part_b and part_c,
        f"operator {operator_ok}/50 ok, scan failures {scan_failures}, E failures {e_failures}",
    )
