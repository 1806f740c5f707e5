import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ball_dataset,
    reference_assign,
    reference_centroids,
    reference_kmeans_pp_centers,
    reference_lloyd,
    reference_repair_empty,
)
from certkmeans import solvers
from certkmeans.certificate import certify_partition
from certkmeans.model import (
    BallModelConfig,
    PointSet,
    kmeans_objective,
    pairwise_sq_distances,
    partition_from_labels,
    partitions_equal,
    sample_stochastic_ball_model,
    standard_centers,
)
from certkmeans.solvers import (
    exact_kmeans_bruteforce,
    leading_eigenvector,
    lloyd,
    optimal_threshold_split,
    spectral_two_means,
    stirling_partition_count,
)

LINE = PointSet(np.array([[0.0, 1.0, 10.0, 11.0]]))


class TestLloyd:
    def test_k_equals_n(self):
        pts = PointSet(np.array([[0.0, 2.0, 5.0], [1.0, -1.0, 0.5]]))
        res = lloyd(pts, 3, seed=0)
        assert res.objective == 0.0
        assert res.iterations == 1

    def test_given_init_line(self):
        res = lloyd(LINE, 2, init=partition_from_labels([0, 1, 0, 1]))
        assert res.objective == 1.0
        assert partitions_equal(res.partition, partition_from_labels([0, 0, 1, 1]))
        assert res.iterations == 2

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lloyd(PointSet(np.zeros((2, 3))), 4)

    def test_monotone_descent(self, monkeypatch):
        # the objective after t rounds never increases in t
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(8, 30))
            k = int(rng.integers(2, 5))
            pts = PointSet(rng.standard_normal((2, n)) * rng.uniform(0.5, 5.0))
            seed = int(rng.integers(2**32))
            prev = math.inf
            for t in range(1, 8):
                monkeypatch.setattr(solvers, "LLOYD_MAX_ITER", t)
                res = lloyd(pts, k, seed=seed)
                assert res.objective <= prev * (1.0 + 1e-9) + 1e-12
                prev = res.objective

    def test_determinism(self):
        ds = ball_dataset(seed=4, k=2, m=3, n=20, delta=2.0)
        a = lloyd(ds.points, 2, seed=77)
        b = lloyd(ds.points, 2, seed=77)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.objective == b.objective

    def test_seeding_bit_identical_to_reference(self):
        rng = np.random.default_rng(31)
        instances = []
        for k in range(2, 12):
            for _ in range(6):
                m, n = int(rng.integers(1, 8)), int(rng.integers(k, 120))
                cols = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0)
                if rng.random() < 0.5:
                    cols = cols + 1e4
                if rng.random() < 0.5:
                    cols[:, rng.integers(n, size=n // 2)] = cols[:, :1]
                instances.append((cols, k))
        instances.append((np.ones((3, 9)), 4))  # all points equal: d2 sums to zero
        mid_rng = np.random.default_rng(34)
        for cols, k in instances:
            seed = int(rng.integers(2**32))
            got = solvers._kmeans_pp_centers(cols, k, np.random.default_rng(seed))
            want = reference_kmeans_pp_centers(cols, k, np.random.default_rng(seed))
            assert np.array_equal(got, want)
            # one Lloyd step on the same points, block-sorted and shuffled labels
            n = cols.shape[1]
            rows = np.ascontiguousarray(cols.T)
            sq_norms = np.einsum("ij,ij->j", cols, cols)
            for labels in (np.sort(np.arange(n) % k), rng.permutation(np.arange(n) % k)):
                centers = solvers._centroids(rows, labels, k)
                assert np.array_equal(centers, reference_centroids(rows, labels, k))
                got, _ = solvers._assign(cols, sq_norms, centers)
                assert np.array_equal(got, reference_assign(cols, sq_norms, centers))
                # midpoints of center pairs: near-ties that the rounding decides
                pairs = mid_rng.integers(k, size=(2, 200))
                mid = 0.5 * (centers[:, pairs[0]] + centers[:, pairs[1]])
                mid_sq = np.einsum("ij,ij->j", mid, mid)
                got, _ = solvers._assign(mid, mid_sq, centers)
                assert np.array_equal(got, reference_assign(mid, mid_sq, centers))
        # whole Lloyd runs; 3 distinct points and k = 5 force empty-cluster repair
        ds = ball_dataset(seed=9, k=3, m=4, n=40, delta=2.0)
        dup = PointSet(np.repeat(ds.points.columns[:, :3], 8, axis=1) + 1e4)
        line = PointSet((3.0 * rng.integers(4, size=120) + rng.random(120))[None, :])
        shuffled = PointSet(ds.points.columns[:, rng.permutation(ds.points.count)])
        grid = PointSet(np.round(rng.standard_normal((2, 90)) * 2.0))  # many exact ties
        # far cluster: |c|^2 and x^T c overflow, so its distances are inf - inf = NaN
        huge = PointSet(np.concatenate((rng.standard_normal((3, 20)), 1e200 * (1.0 + rng.random((3, 20)))), axis=1))
        runs = [
            (pts, k, {"seed": s})
            for pts, k in ((ds.points, 3), (ds.points, 7), (dup, 5), (line, 4), (shuffled, 3), (grid, 6))
            for s in range(4)
        ]
        runs += [(line, k, {"seed": 0}) for k in range(1, 12)]
        runs += [
            (grid, 4, {"init": partition_from_labels(rng.permutation(np.arange(90) % 4))}),
            (huge, 2, {"init": partition_from_labels(np.repeat([0, 1], 20))}),
            (huge, 3, {"init": partition_from_labels(np.arange(40) % 3)}),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for pts, k, kw in runs:
                got = lloyd(pts, k, **kw)
                want = reference_lloyd(pts, k, **kw)
                assert np.array_equal(got.partition.labels, want.partition.labels)
                assert got.objective == want.objective
                assert got.iterations == want.iterations

    def test_incremental_centroids_match_full_recomputation(self):
        # only clusters a moved point left or joined are recomputed; every
        # label change must still give the full recomputation bit for bit
        rng = np.random.default_rng(33)
        k, n = 5, 61
        for m, shift in ((1, 0.0), (1, 1e4), (4, 0.0), (4, 1e4)):
            cols = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0) + shift
            rows = np.ascontiguousarray(cols.T)
            for previous in (np.sort(np.arange(n) % k), rng.permutation(np.arange(n) % k)):
                centers = reference_centroids(rows, previous, k)
                i, j = (int(rng.choice(np.flatnonzero(previous == a))) for a in (1, 3))
                moved = previous.copy()
                moved[i] = 2
                swapped = previous.copy()
                swapped[[i, j]] = previous[[j, i]]
                for labels in (moved, swapped):
                    got = solvers._centroids(rows, labels, k, centers, previous)
                    assert np.array_equal(got, reference_centroids(rows, labels, k))
                # nothing moved: a new array equal to the old centers
                got = solvers._centroids(rows, previous.copy(), k, centers, previous)
                assert got is not centers
                assert np.array_equal(got, centers)
                # the only point of cluster k - 1 leaves it; repair re-seeds it
                single = previous.copy()
                single[single == k - 1] = 0
                single[i] = k - 1
                single_centers = reference_centroids(rows, single, k)
                labels = single.copy()
                labels[i] = 0
                labels = solvers._repair_empty(cols, labels, single_centers, k)
                assert np.bincount(labels, minlength=k).all()
                got = solvers._centroids(rows, labels, k, single_centers, single)
                assert np.array_equal(got, reference_centroids(rows, labels, k))

    def test_repair_memory_below_one_copy_of_points(self):
        # re-seeding an empty cluster needs O(N) scratch, not an m x N array
        rng = np.random.default_rng(32)
        m, n, k = 50, 20480, 10
        cols = rng.standard_normal((m, n))
        labels = np.arange(n) % (k - 1)  # cluster k - 1 is empty
        centers = rng.standard_normal((m, k))
        tracemalloc.start()
        try:
            repaired = solvers._repair_empty(cols, labels, centers, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.bincount(repaired, minlength=k).all()
        assert peak < cols.nbytes

    def test_identical_points_empty_repair(self):
        pts = PointSet(np.ones((2, 6)))
        res = lloyd(pts, 2, seed=1)
        assert res.objective == 0.0
        assert res.partition.k == 2  # repair kept both clusters nonempty

    def test_recovers_well_separated(self):
        ds = ball_dataset(seed=8, k=2, m=2, n=30, delta=6.0)
        res = lloyd(ds.points, 2, seed=5)
        assert partitions_equal(res.partition, ds.planted)


def assert_lloyd_matches_reference(pts, k, **kw):
    got = lloyd(pts, k, **kw)
    want = reference_lloyd(pts, k, **kw)
    assert np.array_equal(got.partition.labels, want.partition.labels)
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    return got


def ball_points(k, m, per_ball, delta, seed):
    config = BallModelConfig(centers=standard_centers(k, m, delta), per_ball=per_ball, seed=seed)
    return sample_stochastic_ball_model(config).points


def line_groups(m, groups):
    """Points (x, +-4, 0, ...) in pairs, one group per (x, count)."""
    cols = []
    for x, count in groups:
        block = np.zeros((m, count))
        block[0] = x
        block[1] = np.tile([4.0, -4.0], count // 2)
        cols.append(block)
    return np.concatenate(cols, axis=1)


@pytest.fixture
def bound_steps(monkeypatch):
    """The index arrays _unsettled returns and "repair" for each repair, in
    call order."""
    steps = []
    unsettled, repair = solvers._unsettled, solvers._repair_empty

    def counting_unsettled(*args):
        idx = unsettled(*args)
        steps.append(idx)
        return idx

    def counting_repair(*args):
        steps.append("repair")
        return repair(*args)

    monkeypatch.setattr(solvers, "_unsettled", counting_unsettled)
    monkeypatch.setattr(solvers, "_repair_empty", counting_repair)
    return steps


class TestHamerlyBounds:
    """From the second update on, Lloyd recomputes only the columns its
    bounds cannot settle; every run must match reference_lloyd, which
    computes every column on every update, bit for bit."""

    def test_assign_on_column_subsets_matches_full_columns(self):
        # a one-column product takes the gemv path and rounds differently,
        # so _assign computes a single column twice over
        rng = np.random.default_rng(50)
        for m in (3, 6, 20, 50):
            for k in (2, 5, 10):
                n = 600
                cols = rng.standard_normal((m, n)) * rng.uniform(0.5, 5.0) + rng.choice([0.0, 1e3])
                rows = np.ascontiguousarray(cols.T)
                sq_norms = np.einsum("ij,ij->j", cols, cols)
                centers = cols[:, rng.choice(n, k, replace=False)] + 0.1 * rng.standard_normal((m, k))
                labels, d2 = solvers._assign(cols, sq_norms, centers)
                for width in (1, 2, 3, 4, 7):
                    idx = np.sort(rng.choice(n, width, replace=False))
                    for sub in (rows[idx].T, cols[:, idx]):
                        got_labels, got_d2 = solvers._assign(sub, sq_norms[idx], centers)
                        assert got_d2.tobytes() == d2[:, idx].tobytes()
                        assert np.array_equal(got_labels, labels[idx])

    def test_loosened_gap_is_sound(self):
        # centres 0 and 1 sit 10 apart on e_0 and both move by delta along
        # -e_0: centre 0 away from the points between them, centre 1 towards
        # them; centre 2 stays.  The "tight" points of cluster 0 start with
        # gaps in (2r + delta, 2r + 2 delta], so leaving out either term of
        # the loosening settles points that the move hands to cluster 1
        rng = np.random.default_rng(57)
        m, delta = 3, 0.01
        centers = np.zeros((m, 3))
        centers[0, 1] = 10.0
        centers[1, 2] = 20.0
        tight = np.zeros((m, 40))
        tight[0] = 5.0 - 0.5 * delta * np.linspace(1.1, 1.9, 40)  # distance difference about 10 - 2 x_0
        tight[1:] = 1e-3 * rng.standard_normal((m - 1, 40))
        easy = centers[:, np.arange(60) % 3] + rng.uniform(-1.0, 1.0, (m, 60))
        cols = np.concatenate((tight, easy), axis=1)
        sq_norms = np.einsum("ij,ij->j", cols, cols)
        x2_max = float(sq_norms.max())
        radius = solvers._allowance_radius(m, x2_max, centers)
        labels, d2 = solvers._assign(cols, sq_norms, centers)
        gap = solvers._gap(d2, labels, radius)
        assert (labels[:40] == 0).all()
        assert ((gap[:40] > 2 * radius + delta) & (gap[:40] <= 2 * radius + 2 * delta)).all()

        new_centers = centers.copy()
        new_centers[0, :2] -= delta
        solvers._loosen(gap, labels, centers, new_centers)
        # exact distances at the new centres, by direct differences
        dist = np.linalg.norm(cols[:, None, :] - new_centers[:, :, None], axis=0)
        own = dist[labels, np.arange(labels.size)]
        dist[labels, np.arange(labels.size)] = np.inf
        assert (gap <= dist.min(axis=0) - own).all()
        new_radius = solvers._allowance_radius(m, x2_max, new_centers)
        settled = np.setdiff1d(np.arange(labels.size), solvers._unsettled(gap, new_radius))
        new_labels, _ = solvers._assign(cols, sq_norms, new_centers)
        assert np.array_equal(new_labels[settled], labels[settled])
        assert settled.size >= 50
        assert (new_labels[:40] == 1).all()  # the move hands every tight point over

    @pytest.mark.parametrize("seed", [5, 24])
    def test_stuck_runs(self, seed, bound_steps):
        # the many-clusters shape (k = 10, m = 50, delta = 5) at N = 5000
        res = assert_lloyd_matches_reference(ball_points(10, 50, 500, 5.0, seed), 10, seed=seed)
        assert res.iterations >= 20
        assert len(bound_steps) == res.iterations - 1
        assert min(idx.size for idx in bound_steps) < 500  # most points settled

    def test_points_on_a_bisector(self, bound_steps):
        # k = 8 clusters in m = 32 of pairs c_a +- y with dyadic entries, so
        # every centroid and squared distance is exact.  Centres 2j and 2j + 1
        # are 8 apart along e_0; each point (c_2j + c_2j+1) / 2 + w with
        # w_0 = 0 is equidistant from them, so the tie puts it in cluster 2j
        # beside its mirror image 2 c_2j - p.  One pair of cluster 7 starts in
        # cluster 6, pulling centre 6 towards centre 7; the pair returns in the
        # first update, and the second, bounded, update sees the exact ties
        rng = np.random.default_rng(51)
        k, m = 8, 32
        centers = np.zeros((m, k))
        for a in range(k):
            centers[0, a] = 8.0 * (a % 2)
            centers[1 + a // 2, a] = 40.0
        blocks = []
        for a in range(k):
            y = rng.integers(-2, 3, size=(m, 130)) / 2.0
            blocks += [centers[:, [a]] + y, centers[:, [a]] - y]
        for a in range(0, k, 2):
            w = rng.integers(-2, 3, size=(m, 10)) / 2.0
            w[0] = 0.0
            p = 0.5 * (centers[:, [a]] + centers[:, [a + 1]]) + w
            blocks += [p, 2.0 * centers[:, [a]] - p]
        cols = np.concatenate(blocks, axis=1)
        labels = np.concatenate([np.full(260, a) for a in range(k)] + [np.full(20, a) for a in range(0, k, 2)])
        init = labels.copy()
        init[[7 * 260, 7 * 260 + 130]] = 6
        res = assert_lloyd_matches_reference(PointSet(cols), k, init=partition_from_labels(init))
        assert res.iterations == 2 and len(bound_steps) == 1
        assert np.array_equal(res.partition.labels, labels)
        # the bounds leave every bisector point to the computed columns
        bisector = 260 * k + np.arange(80).reshape(4, 20)[:, :10].ravel()
        assert np.isin(bisector, bound_steps[0]).all()
        # the bisector points tie exactly at the final centres
        on_bisector = cols[:, 260 * k :].reshape(m, 4, 20)[:, :, :10]
        for j in range(4):
            d2 = ((on_bisector[:, j, :, None] - centers[:, None, 2 * j : 2 * j + 2]) ** 2).sum(axis=0)
            assert np.array_equal(d2[:, 0], d2[:, 1])

    def test_repair_after_a_bounded_update(self, bound_steps):
        # cluster 0 starts as {(-8, 0), (8, 0)}; clusters 1 and 2 start pulled
        # out to x = -+20 by the groups at -+28, which the first update hands
        # to clusters 3 and 4.  In the second, bounded, update both points of
        # cluster 0 join the groups at -+12, and the repair re-seeds it
        m = 64
        pair = np.zeros((m, 2))
        pair[0] = [-8.0, 8.0]
        groups = [(-12.0, 384), (12.0, 384), (-28.0, 384), (28.0, 384), (-32.0, 1024), (32.0, 1024)]
        cols = np.concatenate((pair, line_groups(m, groups)), axis=1)
        init = np.concatenate(([0, 0], np.repeat([1, 2, 1, 2, 3, 4], [384, 384, 384, 384, 1024, 1024])))
        assert_lloyd_matches_reference(PointSet(cols), 5, init=partition_from_labels(init))
        assert isinstance(bound_steps[0], np.ndarray) and bound_steps[1] == "repair"
        # 3 distinct points and k = 5: a repair on every update, so the bounds
        # are dropped each time and never used
        bound_steps.clear()
        rng = np.random.default_rng(52)
        dup = PointSet(np.repeat(rng.standard_normal((64, 3)), 700, axis=1) + 1e4)
        assert_lloyd_matches_reference(dup, 5, seed=1)
        assert set(bound_steps) == {"repair"}

    def test_grid_with_exact_ties(self, bound_steps):
        rng = np.random.default_rng(53)
        grid = PointSet(np.round(rng.standard_normal((2, 4096)) * 2.0))
        for seed in range(4):
            assert_lloyd_matches_reference(grid, 128, seed=seed)
        assert bound_steps

    @pytest.mark.parametrize("shift", [1e6, 1e8])
    def test_shifted_data_turns_pruning_off(self, shift, bound_steps):
        # the rounding of the expanded distances outgrows the gaps between
        # them, so the allowance settles no point
        cols = ball_points(10, 50, 500, 5.0, 5).columns + shift
        assert_lloyd_matches_reference(PointSet(cols), 10, seed=5)
        sizes = [idx.size for idx in bound_steps if not isinstance(idx, str)]
        assert sizes and all(size == 5000 for size in sizes)

    @pytest.mark.parametrize("scale, bounded", [(1e150, True), (1e153, False)])
    def test_data_near_the_float64_range(self, scale, bound_steps, bounded):
        # at 1e150 the squared norms stay below 2^1020 and the bounds are
        # kept; at 1e153 a squared distance could overflow, so every update
        # is full (D^2 seeding overflows there, so the runs start from
        # a partition)
        cols = ball_points(10, 50, 300, 5.0, 24).columns * scale
        init = partition_from_labels(np.random.default_rng(56).permutation(np.arange(3000) % 10))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_lloyd_matches_reference(PointSet(cols), 10, init=init)
        assert any(isinstance(idx, np.ndarray) for idx in bound_steps) == bounded

    def test_non_finite_distances_drop_the_bounds(self, bound_steps):
        # |c|^2 overflows, so the allowance is infinite and every update is
        # full; one cluster empties on the way
        rng = np.random.default_rng(54)
        huge = PointSet(np.concatenate((rng.standard_normal((32, 1500)), 1e200 * (1.0 + rng.random((32, 1500)))), axis=1))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_lloyd_matches_reference(huge, 8, init=partition_from_labels(np.arange(3000) % 8))
        assert bound_steps == ["repair"]

    @pytest.mark.parametrize(
        "n, k, m, bounded",
        [
            (solvers.HAMERLY_MIN_POINTS - 1, 8, 32, False),
            (solvers.HAMERLY_MIN_POINTS, 8, 32, True),
            (solvers.HAMERLY_MIN_POINTS + 1, 8, 32, True),
            (solvers.HAMERLY_MIN_POINTS + 1, 5, 51, False),  # k m = 255
            (solvers.HAMERLY_MIN_POINTS + 1, 4, 64, True),  # k m = 256
        ],
    )
    def test_cutoff(self, n, k, m, bounded, bound_steps):
        assert solvers.HAMERLY_MIN_WORK == 256
        cols = ball_points(k, m, n // k + 1, 2.0, 55).columns[:, :n]
        for seed in range(3):
            res = assert_lloyd_matches_reference(PointSet(cols), k, seed=seed)
        assert bool(bound_steps) == bounded
        if bounded:
            assert res.iterations >= 2


class TestLeadingEigenvector:
    def test_diag(self):
        res = leading_eigenvector(np.diag([5.0, 1.0]).__matmul__, 2, seed=0)
        assert res.converged
        assert res.rayleigh == pytest.approx(5.0, rel=1e-7)
        assert abs(res.vector[0]) == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_single_iteration(self):
        w = np.array([1.0, -2.0, 0.5, 3.0])
        res = leading_eigenvector(np.outer(w, w).__matmul__, 4, seed=3)
        assert res.converged
        assert res.iterations == 1
        assert res.rayleigh == pytest.approx(float(w @ w), rel=1e-12)

    def test_negative_leading(self):
        res = leading_eigenvector(np.diag([-4.0, 1.0]).__matmul__, 2, seed=2)
        assert res.converged
        assert res.rayleigh == pytest.approx(-4.0, rel=1e-7)

    def test_geometric_rate_bound(self):
        # alignment error obeys the (lambda_2 / lambda_1)^(2j) envelope
        n = 10
        mat = np.diag(np.concatenate(([2.0, 1.0], np.linspace(0.8, -0.8, n - 2))))
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = rng.standard_normal(n)
            q /= np.linalg.norm(q)
            c0 = q[0] ** 2
            for j in range(1, 30):
                q = mat @ q
                q /= np.linalg.norm(q)
                lower = 1.0 - (1.0 / c0 - 1.0) * 0.25**j
                assert q[0] ** 2 >= lower - 1e-12


class TestThresholdScan:
    def test_line_frozen_values(self):
        scan = optimal_threshold_split(LINE, np.array([0.0, 1.0, 2.0, 3.0]))
        assert scan.f == pytest.approx([364.0 / 3.0, 2.0, 364.0 / 3.0], rel=1e-12)
        assert scan.argmin == 2
        assert scan.f[1] == pytest.approx(2.0 * 1.0, rel=1e-12)  # twice the split objective

    def test_identical_points_tie_break(self):
        pts = PointSet(np.zeros((2, 5)))
        scan = optimal_threshold_split(pts, np.zeros(5))
        assert np.allclose(scan.f, 0.0)
        assert scan.argmin == 1

    def test_order_is_the_stable_sort(self):
        # distinct keys take a faster sort; tied keys must still come out in
        # the stable order
        rng = np.random.default_rng(17)
        base = rng.standard_normal((2, 150))
        dup = PointSet(np.concatenate((base, base), axis=1))
        steps = PointSet(np.round(rng.standard_normal((1, 300)) * 3.0))
        cases = [
            (dup, dup.columns.T @ np.array([0.6, -0.8])),  # duplicated points
            (steps, steps.columns[0]),  # repeated 1-D values
            (dup, rng.standard_normal(300)),  # distinct keys
        ]
        for pts, y in cases:
            scan = optimal_threshold_split(pts, y)
            assert np.array_equal(scan.order, np.argsort(y, kind="stable"))

    def test_recursion_vs_quadratic_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            n = int(rng.integers(2, 51))
            pts = PointSet(rng.standard_normal((3, n)) * rng.uniform(0.2, 4.0))
            y = rng.standard_normal(n)
            scan = optimal_threshold_split(pts, y)
            dist = pairwise_sq_distances(pts.columns[:, scan.order])
            for i in range(1, n):
                f_direct = dist[:i, :i].sum() / i + dist[i:, i:].sum() / (n - i)
                assert abs(scan.f[i - 1] - f_direct) <= 1e-8 * max(1.0, f_direct)

    def test_f_is_twice_split_objective(self):
        rng = np.random.default_rng(15)
        pts = PointSet(rng.standard_normal((2, 12)))
        y = rng.standard_normal(12)
        scan = optimal_threshold_split(pts, y)
        for i in range(1, 12):
            labels = np.ones(12, dtype=np.int64)
            labels[scan.order[:i]] = 0
            obj = kmeans_objective(pts, partition_from_labels(labels))
            assert scan.f[i - 1] == pytest.approx(2.0 * obj, rel=1e-8, abs=1e-10)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            n = int(rng.integers(3, 20))
            pts = PointSet(rng.standard_normal((2, n)))
            y = rng.standard_normal(n)
            a = optimal_threshold_split(pts, y)
            b = optimal_threshold_split(pts, -y)
            pa = partition_from_labels(a.split_labels())
            pb = partition_from_labels(b.split_labels())
            assert partitions_equal(pa, pb)


    def test_closed_form_on_edge_cases(self):
        # order is the stable sort, argmin the first minimizer, and each f[i-1]
        # twice the objective of split i, on distinct, tied and NaN keys,
        # duplicated points and data far from the origin
        rng = np.random.default_rng(18)
        cases = []
        for n in (2, 3, 4, 5, 37, 400):
            for m in (1, 2, 6):
                cols = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0)
                cases.append((cols, rng.standard_normal(n)))  # distinct keys
                cases.append((cols + 1e6, rng.standard_normal(n)))  # far from the origin
                cases.append((cols + 1e8, rng.standard_normal(n)))
                cases.append((cols, np.round(rng.standard_normal(n))))  # tied keys
                nan_keys = rng.standard_normal(n)
                nan_keys[rng.integers(n, size=max(1, n // 4))] = np.nan
                cases.append((cols, nan_keys))
                dup = cols[:, rng.integers(max(1, n // 3), size=n)]  # duplicated points
                cases.append((dup, dup.T @ rng.standard_normal(m)))
        u = 2.0**-53
        for cols, y in cases:
            m, n = cols.shape
            pts = PointSet(cols)
            scan = optimal_threshold_split(pts, y)
            assert np.array_equal(scan.order, np.argsort(y, kind="stable"))
            assert scan.argmin == int(np.flatnonzero(scan.f == scan.f.min())[0]) + 1
            # Rounding bound, u = 2^-53.  A computed mean, the scan's or a
            # cluster's, is off by at most N u max|x| per coordinate, which
            # adds at most offset = N m (N u max|x|)^2 to a scatter.  Each sum
            # the scan forms then rounds by at most (m + N) u times the scatter
            # about its mean, and the suffix norms by a further sqrt(N)
            # (Cauchy-Schwarz); under 16 such terms in f / 2, plus
            # kmeans_objective's own rounding, give the bound below
            offset = n * m * (n * u * float(np.abs(cols).max())) ** 2
            scatter = float(((cols - cols.mean(axis=1)[:, None]) ** 2).sum()) + offset
            tol = 32.0 * (m + n) * u * math.sqrt(n) * scatter + 2.0 * offset
            for i in range(1, n):
                labels = np.ones(n, dtype=np.int64)
                labels[scan.order[:i]] = 0
                obj = kmeans_objective(pts, partition_from_labels(labels))
                assert abs(scan.f[i - 1] - 2.0 * obj) <= tol, (m, n, i)


class TestSpectralTwoMeans:
    def test_one_dimensional_exactness(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(2, 13))
            pts = PointSet(rng.standard_normal((1, n)) * rng.uniform(0.3, 5.0))
            spec = spectral_two_means(pts)
            brute = exact_kmeans_bruteforce(pts, 2)
            assert abs(spec.objective - brute.objective) <= 1e-12 * max(1.0, brute.objective)

    def test_recovers_planted_balls(self):
        ds = ball_dataset(seed=21, k=2, m=6, n=500, delta=2.3)
        res = spectral_two_means(ds.points, seed=2)
        assert partitions_equal(res.partition, ds.planted)

    def test_sign_ambiguity_fixed(self):
        ds = ball_dataset(seed=22, k=2, m=4, n=25, delta=2.5)
        a = spectral_two_means(ds.points, seed=0)
        b = spectral_two_means(ds.points, seed=123)
        assert partitions_equal(a.partition, b.partition)

    def test_approximation_ratio(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(4, 11))
            pts = PointSet(rng.standard_normal((2, n)) * rng.uniform(0.3, 3.0))
            spec = spectral_two_means(pts)
            brute = exact_kmeans_bruteforce(pts, 2)
            assert spec.objective <= (2.0 + 1e-6) * brute.objective + 1e-9

    def test_identical_points(self):
        res = spectral_two_means(PointSet(np.ones((3, 6))))
        assert res.objective == 0.0
        assert res.partition.k == 2

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            spectral_two_means(PointSet(np.zeros((2, 1))))

    def test_tall_data_matrix_free_path(self):
        # m > N exercises the matrix-free branch
        rng = np.random.default_rng(24)
        pts = PointSet(rng.standard_normal((30, 8)))
        res = spectral_two_means(pts)
        brute = exact_kmeans_bruteforce(pts, 2)
        assert res.objective <= (2.0 + 1e-6) * brute.objective


    def test_bit_identical_with_reference_scan(self):
        # both eigenvector paths (m <= N and m > N) and 1-D data far from the
        # origin keep their pinned labels and objective
        rng = np.random.default_rng(25)
        instances = [PointSet(rng.standard_normal((30, 8))), ball_dataset(seed=26, k=2, m=6, n=200, delta=2.3).points,
                     PointSet(rng.standard_normal((1, 50)) + 1e6)]
        pinned = [
            ("a9edc6a813b4157c34dfe63cdac250badfd140296fa038ac037c47da231e7508", "149.4103977594919"),
            ("0404fdba6375eb3aadc22a56903bfecb89066b080163aabd465409e0d3ec34be", "300.602289398107"),
            ("4abab03b6694a4eeed37878e17e74f3b527efc7938fbfd0bc29113a3b6466e64", "22.88908414092787"),
        ]
        for pts, (labels_sha256, objective) in zip(instances, pinned):
            got = spectral_two_means(pts, seed=3)
            assert hashlib.sha256(got.partition.labels.astype(np.int64).tobytes()).hexdigest() == labels_sha256
            assert repr(got.objective) == objective

    def test_translation_end_to_end(self):
        # the centred scan and the centred certificate keep the labels and
        # the decision of the unshifted data
        for per_ball, seed in ((4096, 3), (512, 8)):
            config = BallModelConfig(standard_centers(2, 6, 2.3), per_ball, seed=seed)
            points = sample_stochastic_ball_model(config).points
            base = spectral_two_means(points, seed=5)
            decision = certify_partition(points, base.partition, seed=9).decision
            for shift in (1e2, 1e6, 1e8):
                shifted = PointSet(points.columns + shift)
                got = spectral_two_means(shifted, seed=5)
                assert np.array_equal(got.partition.labels, base.partition.labels), (per_ball, shift)
                assert certify_partition(shifted, got.partition, seed=9).decision is decision, (per_ball, shift)

    def test_memory_below_budget(self):
        # centered is freed before the scan, and the scan holds one m x N
        # buffer and five N-vectors: the peak stays under 2.25 copies of the points
        points = ball_dataset(seed=27, k=2, m=6, n=2**14, delta=2.3).points
        tracemalloc.start()
        try:
            spectral_two_means(points, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * points.columns.nbytes


class TestBruteforce:
    def test_line_example(self):
        res = exact_kmeans_bruteforce(LINE, 2)
        assert res.objective == 1.0
        assert partitions_equal(res.partition, partition_from_labels([0, 0, 1, 1]))

    def test_k_equals_n(self):
        pts = PointSet(np.array([[0.0, 1.0, 2.0]]))
        assert exact_kmeans_bruteforce(pts, 3).objective == 0.0

    def test_guard(self):
        pts = PointSet(np.zeros((1, 40)))
        with pytest.raises(ValueError, match="cap"):
            exact_kmeans_bruteforce(pts, 2)

    def test_stirling_values(self):
        assert stirling_partition_count(4, 2) == 7
        assert stirling_partition_count(12, 3) == 86526
        assert stirling_partition_count(40, 2) == 2**39 - 1

    def test_matches_interval_enumeration_1d(self):
        # optimal 1-D 2-means is an interval split of the sorted points
        rng = np.random.default_rng(25)
        for trial in range(25):
            n = int(rng.integers(2, 13))
            pts = PointSet(rng.standard_normal((1, n)) * rng.uniform(0.3, 4.0))
            order = np.argsort(pts.columns[0], kind="stable")
            best = math.inf
            for i in range(1, n):
                labels = np.ones(n, dtype=np.int64)
                labels[order[:i]] = 0
                best = min(best, kmeans_objective(pts, partition_from_labels(labels)))
            brute = exact_kmeans_bruteforce(pts, 2)
            assert brute.objective == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_beats_or_ties_lloyd(self):
        rng = np.random.default_rng(26)
        for trial in range(10):
            n = int(rng.integers(6, 12))
            pts = PointSet(rng.standard_normal((2, n)))
            brute = exact_kmeans_bruteforce(pts, 3)
            heur = lloyd(pts, 3, seed=trial)
            assert brute.objective <= heur.objective + 1e-9

    def test_translation_invariance(self):
        # the enumeration runs on centred points: shifted data keep the
        # unshifted optimum, and the objective is that of the caller's points
        rng = np.random.default_rng(28)
        for trial in range(40):
            k = 2 + trial % 2
            cols = rng.standard_normal((2, 10))
            base = exact_kmeans_bruteforce(PointSet(cols), k)
            for shift in (1e4, 1e6, 1e8):
                shifted = PointSet(cols + shift)
                got = exact_kmeans_bruteforce(shifted, k)
                assert np.array_equal(got.partition.labels, base.partition.labels), (trial, shift)
                assert got.objective == kmeans_objective(shifted, got.partition)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lloyd(LINE, 2, init=partition_from_labels([0, 1, 1])), "initial partition does not match points/k"),
        (lambda: lloyd(LINE, 3, init=partition_from_labels([0, 0, 1, 1])), "initial partition does not match points/k"),
        (lambda: lloyd(LINE, 2, init="random"), "unknown init 'random'"),
        (lambda: lloyd(LINE, 0), "k must be positive"),
        (lambda: lloyd(LINE, 5), "cannot split 4 points into 5 nonempty clusters"),
        (lambda: exact_kmeans_bruteforce(LINE, 0), "k must be positive"),
        (lambda: exact_kmeans_bruteforce(LINE, 5), "cannot split 4 points into 5 nonempty clusters"),
        (lambda: optimal_threshold_split(LINE, np.zeros(3)), "y must have one entry per point"),
        (lambda: optimal_threshold_split(PointSet(np.zeros((2, 1))), np.zeros(1)), "need at least two points to split"),
        (lambda: spectral_two_means(PointSet(np.zeros((2, 1)))), "need at least two points to split"),
    ],
    ids=["lloyd-init-count", "lloyd-init-k", "lloyd-init-name", "lloyd-k", "lloyd-n", "brute-k", "brute-n",
         "scan-shape", "scan-n", "spectral-n"],
)
def test_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
