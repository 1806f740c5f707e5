import math

import numpy as np
import pytest

from conftest import ball_dataset, reference_kmeans_pp_centers, reference_repair_empty
from certkmeans import solvers
from certkmeans.model import (
    PointSet,
    kmeans_objective,
    pairwise_sq_distances,
    partition_from_labels,
    partitions_equal,
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

    def test_monotone_descent(self):
        # the objective after t rounds never increases in t
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(8, 30))
            k = int(rng.integers(2, 5))
            pts = PointSet(rng.standard_normal((2, n)) * rng.uniform(0.5, 5.0))
            seed = int(rng.integers(2**32))
            prev = math.inf
            for t in range(1, 8):
                res = lloyd(pts, k, max_iter=t, seed=seed)
                assert res.objective <= prev * (1.0 + 1e-9) + 1e-12
                prev = res.objective

    def test_determinism(self):
        ds = ball_dataset(seed=4, k=2, m=3, n=20, delta=2.0)
        a = lloyd(ds.points, 2, seed=77)
        b = lloyd(ds.points, 2, seed=77)
        assert np.array_equal(a.partition.labels, b.partition.labels)
        assert a.objective == b.objective

    def test_seeding_bit_identical_to_reference(self, monkeypatch):
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
        for cols, k in instances:
            seed = int(rng.integers(2**32))
            got = solvers._kmeans_pp_centers(cols, k, np.random.default_rng(seed))
            want = reference_kmeans_pp_centers(cols, k, np.random.default_rng(seed))
            assert np.array_equal(got, want)
        # whole Lloyd runs; 3 distinct points and k = 5 force empty-cluster repair
        ds = ball_dataset(seed=9, k=3, m=4, n=40, delta=2.0)
        dup = PointSet(np.repeat(ds.points.columns[:, :3], 8, axis=1) + 1e4)
        runs = [(pts, k, s) for pts, k in ((ds.points, 3), (ds.points, 7), (dup, 5)) for s in range(4)]
        fast = [lloyd(pts, k, seed=s) for pts, k, s in runs]
        monkeypatch.setattr(solvers, "_kmeans_pp_centers", reference_kmeans_pp_centers)
        monkeypatch.setattr(solvers, "_repair_empty", reference_repair_empty)
        for (pts, k, s), got in zip(runs, fast):
            want = lloyd(pts, k, seed=s)
            assert np.array_equal(got.partition.labels, want.partition.labels)
            assert got.objective == want.objective
            assert got.iterations == want.iterations

    def test_identical_points_empty_repair(self):
        pts = PointSet(np.ones((2, 6)))
        res = lloyd(pts, 2, seed=1)
        assert res.objective == 0.0
        assert res.partition.k == 2  # repair kept both clusters nonempty

    def test_recovers_well_separated(self):
        ds = ball_dataset(seed=8, k=2, m=2, n=30, delta=6.0)
        res = lloyd(ds.points, 2, seed=5)
        assert partitions_equal(res.partition, ds.planted)


class TestLeadingEigenvector:
    def test_diag(self):
        res = leading_eigenvector(np.diag([5.0, 1.0]), seed=0)
        assert res.converged
        assert res.rayleigh == pytest.approx(5.0, rel=1e-7)
        assert abs(res.vector[0]) == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_single_iteration(self):
        w = np.array([1.0, -2.0, 0.5, 3.0])
        res = leading_eigenvector(np.outer(w, w), seed=3)
        assert res.converged
        assert res.iterations == 1
        assert res.rayleigh == pytest.approx(float(w @ w), rel=1e-12)

    def test_negative_leading(self):
        res = leading_eigenvector(np.diag([-4.0, 1.0]), seed=2)
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

    def test_callable_requires_dimension(self):
        with pytest.raises(ValueError):
            leading_eigenvector(lambda x: x)


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

    def test_recursion_vs_quadratic_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            n = int(rng.integers(2, 51))
            pts = PointSet(rng.standard_normal((3, n)) * rng.uniform(0.2, 4.0))
            y = rng.standard_normal(n)
            scan = optimal_threshold_split(pts, y)
            dist = pairwise_sq_distances(pts.columns[:, scan.order])
            for i in range(1, n):
                v_direct = dist[:i, :i].sum()
                vc_direct = dist[i:, i:].sum()
                f_direct = v_direct / i + vc_direct / (n - i)
                assert abs(scan.v[i - 1] - v_direct) <= 1e-8 * max(1.0, v_direct)
                assert abs(scan.v_c[i - 1] - vc_direct) <= 1e-8 * max(1.0, vc_direct)
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
