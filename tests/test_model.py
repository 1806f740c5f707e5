import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    ball_dataset,
    counterexample_1d_objectives,
    normalized_partition_matrix,
    pairwise_objective,
    reference_kmeans_objective,
    reference_partitions_equal,
    reference_sample_columns,
)
from certkmeans.model import (
    BallModelConfig,
    Dataset,
    Partition,
    PointSet,
    TWO_POINT_SYM,
    UNIFORM_BALL,
    UNIFORM_SPHERE,
    _scatter,
    kmeans_objective,
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

    def test_pointset_copies_caller_array(self):
        arr = np.array([[0.0, 1.0], [2.0, 3.0]])
        pts = PointSet(arr)
        assert not np.shares_memory(pts.columns, arr)
        arr[0, 0] = 5.0  # the caller's array stays writable
        assert pts.columns[0, 0] == 0.0

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

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([[0, 1], [1, 0]], "nonempty 1-D"),
            ([-1, 0], "nonnegative"),
            # casting would truncate these to [0, 0, 1] and [0, 1, 2]
            ([0.0, 0.9, 1.5], "integers"),
            (np.array([0.2, 1.7, 2.9]), "integers"),
        ],
        ids=["2d", "negative", "float-list", "float-array"],
    )
    def test_partition_invalid_labels_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            partition_from_labels(labels)

    def test_partition_derives_k_and_sizes(self):
        p = Partition(np.array([True, False, True]))
        assert p.k == 2 and list(p.sizes) == [1, 2] and p.labels.dtype == np.int64
        with pytest.raises(ValueError):
            p.labels[0] = 1  # read-only copy
        with pytest.raises(ValueError):
            p.sizes[0] = 3
        with pytest.raises(TypeError):
            Partition([0, 1], k=2, sizes=[1, 1])
        arr = np.array([0, 1, 1])
        q = Partition(arr)
        arr[0] = 1  # the caller's array stays writable and apart
        assert q.labels[0] == 0

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


    @pytest.mark.parametrize("distribution", [UNIFORM_BALL, UNIFORM_SPHERE, TWO_POINT_SYM])
    def test_bit_identical_to_reference(self, distribution):
        # the in-place sampler returns the bits of the sampler built on
        # np.linalg.norm and a fresh array per step
        rng = np.random.default_rng(42)
        for trial in range(12):
            k = int(rng.integers(2, 6))
            m = 1 if distribution == TWO_POINT_SYM else int(rng.integers(1, 9))
            centers = rng.standard_normal((k, m)) * 5.0 + (1e6 if trial % 3 == 0 else 0.0)
            config = BallModelConfig(centers=centers, per_ball=int(rng.integers(1, 300)),
                                     distribution=distribution, seed=int(rng.integers(2**63)))
            got = sample_stochastic_ball_model(config).points.columns
            want = reference_sample_columns(config)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_memory_below_budget(self):
        # each ball is drawn, normalised, scaled and shifted in place: at
        # k = 2 the peak is the output plus one ball's draws and their
        # squares, under 2.5 copies
        config = BallModelConfig(centers=standard_centers(2, 6, 2.3), per_ball=2**14, seed=3)
        tracemalloc.start()
        try:
            ds = sample_stochastic_ball_model(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ds.points.columns.nbytes


    def test_memory_one_copy_many_clusters(self):
        # the sampler hands its own buffer to the PointSet, marked read-only,
        # so at k = 10 the peak is the output plus one ball's draws
        config = BallModelConfig(centers=standard_centers(10, 50, 5.0), per_ball=2048, seed=3)
        tracemalloc.start()
        try:
            ds = sample_stochastic_ball_model(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.points.columns.nbytes
        with pytest.raises(ValueError):
            ds.points.columns[0, 0] = 5.0  # read-only


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


    def test_bit_identical_to_reference(self):
        # centering each gathered block in place keeps the objective's bits
        rng = np.random.default_rng(43)
        for trial in range(30):
            k = int(rng.integers(1, 8))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(k, 200))
            cols = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0) + (1e6 if trial % 3 == 0 else 0.0)
            if trial % 4 == 1:
                cols = cols[:, rng.integers(max(1, n // 4), size=n)]  # duplicated points
            labels = rng.permutation(np.concatenate((np.arange(k), rng.integers(k, size=n - k))))
            pts, part = PointSet(cols), partition_from_labels(labels)
            assert repr(kmeans_objective(pts, part)) == repr(reference_kmeans_objective(pts, part))


    def test_row_gathers_bit_identical_to_reference(self):
        # Lloyd sums the objective over contiguous row gathers rows[mask].T,
        # the memory image of the column gathers: same bits, singletons and
        # data shifted by 1e6 included
        rng = np.random.default_rng(44)
        for trial in range(30):
            k = int(rng.integers(1, 12))
            m = int(rng.integers(1, 60))
            n = int(rng.integers(k, 400))
            cols = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0) + (1e6 if trial % 2 else 0.0)
            labels = rng.integers(k, size=n)
            labels[: k] = np.arange(k)
            single = min(3, k - 1)
            labels[k:][labels[k:] < single] = k - 1  # clusters below ``single`` are singletons
            labels = labels[rng.permutation(n)]
            pts, part = PointSet(cols), partition_from_labels(labels)
            rows = np.ascontiguousarray(cols.T)
            got = 0.0
            for a in range(part.k):
                got += _scatter(rows[part.labels == a].T)
            assert repr(got) == repr(reference_kmeans_objective(pts, part))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="partition does not match point count"):
            kmeans_objective(PointSet(np.zeros((1, 3))), partition_from_labels([0, 1]))


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty dataset file"),
            ("2,3\n", "expected header row 'm,N,k_planted'"),
            ("1,1,0\n1.0\n2.0\n", "more data rows than declared"),
            ("2,1,0\n1.0\n", "row 2: expected 2 fields, got 1"),
            ("1,2,0\n1.0\n", "fewer data rows than declared"),
            ("1,2,2\n1.0,0\n2.0,0\n", "label column inconsistent with declared k_planted"),
            ("0,3,0\n", "header field m must be at least 1, got 0"),
            ("2,-3,0\n", "header field N must be at least 1, got -3"),
            ("1,2,-1\n1.0\n2.0\n", "header field k_planted must be at least 0, got -1"),
            # past numpy's size limit, so nothing is allocated
            ("6,1000000000000000000,2\n", "cannot allocate the declared 6 x 1000000000000000000 points"),
        ],
        ids=["empty", "header-width", "extra-row", "row-width", "missing-row", "label-k", "m", "N",
             "k_planted", "huge"],
    )
    def test_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_dataset_csv(str(path))

    def test_read_points_checked_and_read_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,0\n1.0\n2.5\n")
        back = read_dataset_csv(str(path))
        assert back.points.columns.tolist() == [[1.0, 2.5]]
        with pytest.raises(ValueError):
            back.points.columns[0, 0] = 5.0  # read-only
        path.write_text("1,2,0\n1.0\nnan\n")
        with pytest.raises(ValueError, match="finite"):
            read_dataset_csv(str(path))
