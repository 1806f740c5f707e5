import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import ball_dataset, pairwise_objective, reference_partitions_equal
from certkmeans.model import (
    BallModelConfig,
    Dataset,
    PointSet,
    TWO_POINT_SYM,
    UNIFORM_BALL,
    UNIFORM_SPHERE,
    counterexample_1d_objectives,
    kmeans_objective,
    normalized_partition_matrix,
    pairwise_sq_distances,
    partition_from_labels,
    partitions_equal,
    read_dataset_csv,
    sample_stochastic_ball_model,
    standard_centers,
    write_dataset_csv,
)


class TestTypes:
    def test_pointset_validation(self):
        with pytest.raises(ValueError):
            PointSet(np.array([1.0, 2.0]))  # not 2-D
        with pytest.raises(ValueError):
            PointSet(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            PointSet(np.empty((2, 0)))
        pts = PointSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert (pts.dim, pts.count) == (2, 2)
        with pytest.raises(ValueError):
            pts.columns[0, 0] = 5.0  # read-only

    def test_partition_from_labels(self):
        p = partition_from_labels([0, 0, 1, 1])
        assert p.k == 2 and list(p.sizes) == [2, 2]
        p = partition_from_labels([0, 1, 0, 2, 1])
        assert p.k == 3 and list(p.sizes) == [2, 2, 1]

    def test_partition_gap_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            partition_from_labels([0, 2])

    def test_partition_empty_input_rejected(self):
        with pytest.raises(ValueError):
            partition_from_labels([])

    def test_partitions_equal_up_to_relabeling(self):
        p = partition_from_labels([0, 0, 1, 2])
        q = partition_from_labels([2, 2, 0, 1])
        r = partition_from_labels([0, 1, 1, 2])
        assert partitions_equal(p, q)
        assert not partitions_equal(p, r)
        # random cases against the first-appearance loop, for k = 1..11
        rng = np.random.default_rng(5)

        def compact(labels):
            return partition_from_labels(np.unique(labels, return_inverse=True)[1])

        cases = []
        for k in range(1, 12):
            for _ in range(25):
                n = int(rng.integers(k, 4 * k + 8))
                labels = np.concatenate((np.arange(k), rng.integers(0, k, n - k)))
                rng.shuffle(labels)
                p = partition_from_labels(labels)
                cases.append((p, partition_from_labels(rng.permutation(k)[labels])))
                moved = labels.copy()
                moved[rng.integers(n)] = rng.integers(k)
                cases.append((p, compact(moved)))
                swapped = labels.copy()
                a, b = rng.integers(k, size=2)
                i, j = rng.choice(np.flatnonzero(labels == a)), rng.choice(np.flatnonzero(labels == b))
                swapped[i], swapped[j] = b, a
                cases.append((p, partition_from_labels(swapped)))
                sizes = np.bincount(labels)
                same = np.flatnonzero(sizes == sizes[labels[0]])
                if same.size >= 2:
                    a, b = rng.choice(same, size=2, replace=False)
                    exchanged = labels.copy()
                    exchanged[labels == a], exchanged[labels == b] = b, a
                    cases.append((p, partition_from_labels(exchanged)))
                cases.append((p, compact(rng.integers(0, k, n))))
                cases.append((p, compact(rng.integers(0, k + 1, n))))
                cases.append((p, partition_from_labels(np.append(labels, 0))))
        n = 3000
        singletons = partition_from_labels(rng.permutation(n))
        cases.append((singletons, partition_from_labels(np.arange(n))))
        cases.append((singletons, compact(np.minimum(np.arange(n), n - 2))))
        cases.append((singletons, partition_from_labels(rng.permutation(n + 1))))
        outcomes = []
        for p, q in cases:
            expected = reference_partitions_equal(p, q)
            assert partitions_equal(p, q) == expected
            assert partitions_equal(q, p) == expected
            outcomes.append(expected)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BallModelConfig(centers=np.zeros((1, 2)), per_ball=3)  # k < 2
        with pytest.raises(ValueError):
            BallModelConfig(centers=np.zeros((2, 2)), per_ball=3)  # coincident centers
        with pytest.raises(ValueError):
            BallModelConfig(centers=standard_centers(2, 2, 3.0), per_ball=3, distribution=TWO_POINT_SYM)
        with pytest.raises(ValueError):
            # ragged center list: inconsistent dimensions
            BallModelConfig(centers=np.array([[0.0, 0.0], [1.0]], dtype=object), per_ball=3)

    def test_standard_centers(self):
        c = standard_centers(2, 5, 3.0)
        assert np.linalg.norm(c[0] - c[1]) == pytest.approx(3.0, rel=1e-15)
        c = standard_centers(4, 6, 2.5)
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(c[a] - c[b]) == pytest.approx(2.5, rel=1e-12)
        with pytest.raises(ValueError):
            standard_centers(3, 2, 2.5)


class TestSampler:
    def test_support_and_planted_sizes(self):
        config = BallModelConfig(
            centers=np.array([[0.0, 0.0], [3.0, 0.0]]), per_ball=3, seed=1
        )
        ds = sample_stochastic_ball_model(config)
        assert ds.points.count == 6
        assert list(ds.planted.sizes) == [3, 3]
        for a in range(2):
            block = ds.points.columns[:, ds.planted.labels == a]
            radii = np.linalg.norm(block - config.centers[a][:, None], axis=0)
            assert (radii <= 1.0 + 1e-12).all()

    @pytest.mark.parametrize("distribution", [UNIFORM_BALL, UNIFORM_SPHERE])
    def test_support_constraint_many(self, distribution):
        ds = ball_dataset(seed=7, k=3, m=4, n=200, delta=3.0, distribution=distribution)
        centers = ds.config.centers
        for a in range(3):
            block = ds.points.columns[:, ds.planted.labels == a]
            radii = np.linalg.norm(block - centers[a][:, None], axis=0)
            assert (radii <= 1.0 + 1e-12).all()
            if distribution == UNIFORM_SPHERE:
                assert radii == pytest.approx(np.ones_like(radii), abs=1e-12)

    def test_two_point_positions(self):
        delta = 2.5
        config = BallModelConfig(
            centers=np.array([[-delta / 2], [delta / 2]]),
            per_ball=4,
            distribution=TWO_POINT_SYM,
            seed=3,
        )
        ds = sample_stochastic_ball_model(config)
        assert ds.points.count == 8
        allowed = {-2.25, -0.25, 0.25, 2.25}
        assert set(np.round(ds.points.columns[0], 12)) <= allowed

    def test_determinism(self):
        a = sample_stochastic_ball_model(ball_dataset(seed=5).config)
        b = sample_stochastic_ball_model(ball_dataset(seed=5).config)
        assert np.array_equal(a.points.columns, b.points.columns)
        assert np.array_equal(a.planted.labels, b.planted.labels)

    def test_different_seeds_differ(self):
        a = ball_dataset(seed=5)
        b = ball_dataset(seed=6)
        assert not np.array_equal(a.points.columns, b.points.columns)

    @pytest.mark.parametrize(
        "m,distribution", [(10, UNIFORM_BALL), (7, UNIFORM_SPHERE), (1, UNIFORM_BALL)]
    )
    def test_rotation_invariance_statistical(self, m, distribution):
        # empirical mean of the radial offsets should be tiny
        n = 50_000
        ds = ball_dataset(seed=11, k=2, m=m, n=n, delta=4.0, distribution=distribution)
        centers = ds.config.centers
        offsets = ds.points.columns - centers[ds.planted.labels].T
        assert np.linalg.norm(offsets.mean(axis=1)) <= 0.02


class TestObjective:
    def test_identical_points_zero(self):
        pts = PointSet(np.ones((3, 5)))
        part = partition_from_labels([0, 0, 1, 1, 1])
        assert kmeans_objective(pts, part) == 0.0

    def test_line_example(self):
        pts = PointSet(np.array([[0.0, 1.0, 10.0, 11.0]]))
        part = partition_from_labels([0, 0, 1, 1])
        assert kmeans_objective(pts, part) == 1.0

    def test_trace_identity(self):
        # centroid form agrees with (1/2) Tr(D X)
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(4, 16))
            k = int(rng.integers(2, 4))
            pts = PointSet(rng.standard_normal((3, n)) * rng.uniform(0.1, 10.0))
            labels = rng.integers(0, k, n)
            labels[:k] = np.arange(k)  # ensure nonempty
            part = partition_from_labels(labels)
            direct = kmeans_objective(pts, part)
            trace = 0.5 * np.trace(pairwise_sq_distances(pts.columns) @ normalized_partition_matrix(part))
            assert abs(direct - trace) <= 1e-9 * max(1.0, abs(direct))

    def test_pairwise_identity(self):
        ds = ball_dataset(seed=2, k=3, m=3, n=5, delta=3.0)
        direct = kmeans_objective(ds.points, ds.planted)
        assert direct == pytest.approx(pairwise_objective(ds.points, ds.planted.labels), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        ds = ball_dataset(seed=3, k=3, m=3, n=4, delta=2.0)
        base = kmeans_objective(ds.points, ds.planted)
        # relabel the clusters
        relabel = np.array([2, 0, 1])
        part2 = partition_from_labels(relabel[ds.planted.labels])
        assert kmeans_objective(ds.points, part2) == pytest.approx(base, rel=1e-12)
        # reorder the points
        perm = rng.permutation(ds.points.count)
        pts3 = PointSet(ds.points.columns[:, perm])
        part3 = partition_from_labels(ds.planted.labels[perm])
        assert kmeans_objective(pts3, part3) == pytest.approx(base, rel=1e-12)


class TestCounterexample1D:
    def test_frozen_values(self):
        planted, alt = counterexample_1d_objectives(2.5)
        assert planted == pytest.approx(1.0, abs=1e-12)
        assert alt == pytest.approx(0.875, abs=1e-12)

    def test_threshold_equality(self):
        planted, alt = counterexample_1d_objectives(1.0 + math.sqrt(3.0))
        assert alt == pytest.approx(planted, abs=1e-12)

    def test_wide_separation(self):
        planted, alt = counterexample_1d_objectives(4.0)
        assert alt == pytest.approx(2.0, abs=1e-12)
        assert planted < alt

    def test_disjointness_required(self):
        with pytest.raises(ValueError):
            counterexample_1d_objectives(2.0)

    def test_crossing_point(self):
        root = brentq(
            lambda d: counterexample_1d_objectives(d)[1] - counterexample_1d_objectives(d)[0],
            2.0 + 1e-9,
            4.0,
            xtol=1e-13,
        )
        assert abs(root - (1.0 + math.sqrt(3.0))) <= 1e-9


class TestDatasetCsv:
    def test_round_trip_with_planted(self, tmp_path):
        ds = ball_dataset(seed=9, k=2, m=3, n=7, delta=2.7)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, str(path))
        back = read_dataset_csv(str(path))
        assert np.array_equal(back.points.columns, ds.points.columns)  # bit-faithful
        assert np.array_equal(back.planted.labels, ds.planted.labels)
        assert back.config is None

    def test_round_trip_without_planted(self, tmp_path):
        pts = PointSet(np.random.default_rng(0).standard_normal((2, 5)))
        path = tmp_path / "plain.csv"
        write_dataset_csv(Dataset(points=pts), str(path))
        back = read_dataset_csv(str(path))
        assert np.array_equal(back.points.columns, pts.columns)
        assert back.planted is None

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,3,0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_dataset_csv(str(path))
