import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ball_dataset,
    corollary_check,
    dense_A,
    dense_E,
    gaussian_instance,
    recover_alpha,
    reference_apply_A,
    reference_certificate_context,
    reference_M_block,
    reference_z,
)
from certkmeans import certificate
from certkmeans.certificate import (
    CertificateUndefinedError,
    CertifyDecision,
    apply_A,
    build_certificate_context,
    certify_partition,
    dense_B,
    dense_M,
    dense_certificate_gap,
    dense_projection,
)
from certkmeans.cli import derive_streams, run_trial
from certkmeans.detector import DetectorOutcome, default_epsilon, power_iteration_detect
from certkmeans.model import (
    BallModelConfig,
    Partition,
    PointSet,
    kmeans_objective,
    pairwise_sq_distances,
    partition_from_labels,
    sample_stochastic_ball_model,
    standard_centers,
)
from certkmeans.solvers import exact_kmeans_bruteforce


def small_instances():
    """A mix of equal- and unequal-size instances with N <= 30."""
    out = []
    for seed in range(6):
        ds = ball_dataset(seed=seed, k=2, m=2, n=5 + seed, delta=2.0 + 0.7 * seed)
        out.append((ds.points, ds.planted))
    for seed in range(6):
        sizes = [(3, 7), (4, 4, 6), (2, 5, 9), (6, 3), (8, 8, 8), (5, 12)][seed]
        out.append(gaussian_instance(100 + seed, sizes, m=3, spread=3.0))
    return out


class TestConstruction:
    def test_singleton_pair_undefined(self):
        pts = PointSet(np.array([[0.0, 3.0], [0.0, 4.0]]))
        part = partition_from_labels([0, 1])
        ctx = build_certificate_context(pts, part)
        # M^(1,2) 1 is the scalar squared distance, z equals it, u collapses
        assert ctx.z == pytest.approx(25.0, rel=1e-12)
        assert np.allclose(ctx.u[(0, 1)], 0.0)
        assert np.allclose(ctx.u[(1, 0)], 0.0)
        assert ctx.rho_of(0, 1) == 0.0
        assert ctx.is_undefined
        with pytest.raises(CertificateUndefinedError):
            apply_A(ctx, np.ones(2))
        with pytest.raises(CertificateUndefinedError):
            dense_A(ctx)
        with pytest.raises(CertificateUndefinedError):
            corollary_check(pts, part)
        out = certify_partition(pts, part, epsilon=1e-3)
        assert out.decision is CertifyDecision.CERTIFICATE_UNDEFINED
        assert out.detector is None

    def test_well_separated_nonnegative(self):
        ds = ball_dataset(seed=1, k=2, m=2, n=20, delta=6.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        assert ctx.z > 0.0
        assert not ctx.is_undefined
        for vec in ctx.u.values():
            assert (vec >= 0.0).all()

    def test_negative_u_raises(self, monkeypatch):
        # u >= 0 holds by construction, so the guard is reached only through
        # a tolerance below zero, which turns u's exact zeros into violations
        ds = ball_dataset(seed=1, k=3, m=3, n=6, delta=6.0)
        monkeypatch.setattr(certificate, "U_CLAMP_REL_TOLERANCE", -1.0)
        with pytest.raises(ArithmeticError, match=r"negative entry .* for pair \(\d, \d\)"):
            build_certificate_context(ds.points, ds.planted)

    def test_row_sums_match_dense_definition(self):
        for points, part in small_instances():
            ctx = build_certificate_context(points, part)
            for (a, b), u_vec in ctx.u.items():
                ref = reference_M_block(ctx.phi, ctx.sizes, a, b).sum(axis=1)
                mine = u_vec + ctx.z * (ctx.sizes[a] + ctx.sizes[b]) / (2.0 * ctx.sizes[a])
                denom = max(1.0, float(np.abs(ref).max()))
                assert float(np.abs(ref - mine).max()) <= 1e-8 * denom

    def test_mu_matches_dense_definition(self):
        # dense_M's diagonal blocks D^(a,a) + mu_a 1^T + 1 mu_a^T, with mu_a
        # from its definition (1/2) ((1/n_a^2) 11^T - (2/n_a) I) D^(a,a) 1
        for points, part in small_instances()[:6]:
            ctx = build_certificate_context(points, part)
            dist = pairwise_sq_distances(ctx.phi)
            dense = dense_M(ctx)
            for a in range(ctx.n_clusters):
                blk = ctx.block(a)
                n_a = int(ctx.sizes[a])
                d_self = dist[blk, blk] @ np.ones(n_a)
                mu = 0.5 * (d_self.sum() / n_a**2 - (2.0 / n_a) * d_self)
                ref = dist[blk, blk] + mu[:, None] + mu[None, :]
                assert np.allclose(dense[blk, blk], ref, rtol=1e-9, atol=1e-9 * ctx.scale)

    def test_z_attains_the_pairwise_minimum(self):
        for points, part in small_instances()[:8]:
            ctx = build_certificate_context(points, part)
            assert ctx.z == pytest.approx(reference_z(ctx.phi, ctx.sizes), rel=1e-10)

    def test_rho_symmetry(self):
        for points, part in small_instances():
            ctx = build_certificate_context(points, part)
            for a in range(ctx.n_clusters):
                for b in range(a + 1, ctx.n_clusters):
                    sa = float(ctx.u[(a, b)].sum())
                    sb = float(ctx.u[(b, a)].sum())
                    assert abs(sa - sb) <= 1e-9 * max(1.0, abs(sa))

    def test_needs_two_clusters(self):
        pts = PointSet(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            build_certificate_context(pts, partition_from_labels([0, 0, 0, 0]))


    def test_bit_identical_to_reference(self):
        # the in-place build returns the bits of the build from fresh
        # temporaries, for k = 2 .. 10, m = 1, far data and duplicated points
        rng = np.random.default_rng(41)
        cases = []
        for k in range(2, 11):
            for m in (1, 3, 12):
                sizes = rng.integers(1, 30, size=k)
                pts, part = gaussian_instance(int(rng.integers(2**32)), sizes, m=m, spread=3.0 * k)
                cols = pts.columns
                labels = rng.permutation(part.labels)  # clusters interleaved in point order
                cases.append((cols, labels))
                cases.append((cols + 1e6, labels))
                cases.append((cols[:, rng.integers(k, size=cols.shape[1])], labels))
        for cols, labels in cases:
            pts, part = PointSet(cols), partition_from_labels(labels)
            got = build_certificate_context(pts, part)
            want = reference_certificate_context(pts, part)
            # tobytes() reads C order; the gemv bits also depend on phi's layout
            assert got.phi.flags.f_contiguous
            arrays = [("phi", got.phi, want.phi), ("sq_norms", got.sq_norms, want.sq_norms)]
            assert got.u.keys() == want.u.keys()
            arrays += [(f"u{key}", got.u[key], want.u[key]) for key in want.u]
            for name, x, y in arrays:
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
            assert repr(got.z) == repr(want.z)
            assert repr(got.rho) == repr(want.rho)


class TestOperator:
    def test_ones_is_eigenvector(self):
        ds = ball_dataset(seed=2, k=3, m=3, n=8, delta=4.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        n = ds.points.count
        out = apply_A(ctx, np.ones(n))
        assert np.abs(out - ctx.z).max() <= 1e-10 * max(1.0, abs(ctx.z))

    def test_indicator_span_annihilated(self):
        ds = ball_dataset(seed=3, k=2, m=2, n=6, delta=3.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        n = ds.points.count
        x = np.zeros(n)
        x[ctx.block(0)] = 1.0 / float(ctx.sizes[0])
        x[ctx.block(1)] = -1.0 / float(ctx.sizes[1])
        out = apply_A(ctx, x)
        assert np.abs(out).max() <= 1e-10 * max(1.0, abs(ctx.z))

    def test_matches_dense_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for points, part in small_instances():
            ctx = build_certificate_context(points, part)
            if ctx.is_undefined:
                continue
            mat = dense_A(ctx)
            assert np.abs(mat - mat.T).max() <= 1e-10 * max(1.0, abs(mat).max())
            for _ in range(3):
                x = rng.standard_normal(ctx.n_points)
                ref = mat @ x
                got = apply_A(ctx, x)
                assert np.abs(got - ref).max() <= 1e-8 * max(1.0, float(np.abs(ref).max()))

    def test_matches_dense_on_basis_vectors(self):
        ds = ball_dataset(seed=4, k=2, m=2, n=7, delta=3.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        mat = dense_A(ctx)
        n = ctx.n_points
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = 1.0
            assert np.allclose(apply_A(ctx, ej), mat[:, j], rtol=0, atol=1e-10 * max(1.0, abs(ctx.z)))

    def test_operator_symmetry_probes(self):
        ds = ball_dataset(seed=5, k=2, m=4, n=40, delta=2.5)
        ctx = build_certificate_context(ds.points, ds.planted)
        rng = np.random.default_rng(1)
        scale = abs(ctx.z) + ctx.scale * ctx.n_points
        for _ in range(5):
            x = rng.standard_normal(ds.points.count)
            y = rng.standard_normal(ds.points.count)
            lhs = float(x @ apply_A(ctx, y))
            rhs = float(y @ apply_A(ctx, x))
            assert abs(lhs - rhs) <= 1e-10 * scale * np.linalg.norm(x) * np.linalg.norm(y)

    def test_dimension_mismatch(self):
        ds = ball_dataset(seed=6)
        ctx = build_certificate_context(ds.points, ds.planted)
        with pytest.raises(ValueError):
            apply_A(ctx, np.ones(3))

    def test_dense_size_guard(self):
        ds = ball_dataset(seed=7, k=2, m=1, n=1024, delta=4.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        with pytest.raises(ValueError, match="dense"):
            dense_A(ctx)


PLAN_SIZES = {"sizes1-6-9": (1, 6, 9), "sizes1-2-13": (1, 2, 13), "sizes5-1-2-11": (5, 1, 2, 11),
              "sizes3-17": (3, 17), "sizes1-40": (1, 40),
              # N in the thousands: a singleton, k = 10 with unequal sizes
              "n8193-singleton": (1, 8192), "n8209-k10": (1, 300, 2000, 777, 1500, 95, 1234, 900, 2, 1400)}
PLAN_CASES = [f"k{k}" for k in range(2, 11)] + sorted(PLAN_SIZES) + ["duplicated", "shift1e4"]


def plan_instance(name):
    """A defined context for the bit-identity checks: k = 2..10, unequal
    sizes with singletons, duplicated points or data shifted by 1e4."""
    if name in PLAN_SIZES:
        points, part = gaussian_instance(300, PLAN_SIZES[name], m=3)
    elif name == "duplicated":
        points, part = gaussian_instance(310, (4, 7, 5), m=2)
        points = PointSet(np.repeat(points.columns, 2, axis=1))
        part = partition_from_labels(np.repeat(part.labels, 2))
    elif name == "shift1e4":
        ds = ball_dataset(seed=311, k=3, m=4, n=20, delta=3.0)
        points, part = PointSet(ds.points.columns + 1e4), ds.planted
    else:
        k = int(name[1:])
        ds = ball_dataset(seed=k, k=k, m=max(k, 3), n=6 + k, delta=3.0)
        points, part = ds.points, ds.planted
    ctx = build_certificate_context(points, part)
    assert not ctx.is_undefined
    return ctx


class TestOperatorPlan:
    @pytest.mark.parametrize("name", PLAN_CASES)
    def test_apply_A_bit_identical_to_dict_reference(self, name):
        ctx = plan_instance(name)
        rng = np.random.default_rng(len(name))
        n = ctx.n_points

        def same_bytes(x):
            got = apply_A(ctx, x)
            ref = reference_apply_A(ctx, x)
            assert np.array_equal(got, ref)
            assert got.tobytes() == ref.tobytes()
            return ref

        for x in [np.ones(n), np.arange(n), np.full(n, 1.0 / math.sqrt(n))]:
            same_bytes(x)
        for scale in (1.0, 1e6, 1e-8, 1e8):
            same_bytes(rng.standard_normal(n) * scale)
        # 20 steps along a power iteration
        x = rng.standard_normal(n)
        for _ in range(20):
            x = same_bytes(x)
            x /= np.linalg.norm(x)

    @pytest.mark.parametrize(
        "k, m, per_ball, delta, seed, n_keep, decision",
        [
            # N points drawn at random from the sample, so sizes differ:
            # N = 16387 (235 and 18 iterations), then k = 10 and N = 8500
            (2, 6, 8194, 2.2, 1, 16387, CertifyDecision.CERTIFIED_OPTIMAL),
            (2, 6, 8194, 2.2, 2, 16387, CertifyDecision.NOT_CERTIFIED),
            (10, 10, 1000, 3.0, 0, 8500, CertifyDecision.CERTIFIED_OPTIMAL),
        ],
        ids=["k2-certified", "k2-not-certified", "k10-certified"],
    )
    def test_detector_path_bit_identical_to_dict_reference(self, k, m, per_ball, delta, seed, n_keep, decision):
        ds = ball_dataset(seed=seed, k=k, m=m, n=per_ball, delta=delta)
        keep = np.sort(np.random.default_rng(seed).choice(ds.points.count, n_keep, replace=False))
        points, part = PointSet(ds.points.columns[:, keep]), Partition(ds.planted.labels[keep])
        got = certify_partition(points, part, seed=seed)
        assert got.decision is decision
        ctx = build_certificate_context(points, part)
        v = np.full(n_keep, 1.0 / math.sqrt(n_keep))
        ref = power_iteration_detect(lambda x: reference_apply_A(ctx, x), v, default_epsilon(n_keep), seed)
        for field in dataclasses.fields(DetectorOutcome):
            assert repr(getattr(got.detector, field.name)) == repr(getattr(ref, field.name)), field.name

    @pytest.mark.parametrize("name", PLAN_CASES)
    def test_cancelled_distance_terms_are_roundoff(self, name):
        # Against the expanded D y = nu s - 2 Phi^T (Phi y) + c 1 (s = 1^T y,
        # c = nu^T y): c 1 leaves only the rounding of the projection's sums,
        # and nu s leaves s (nu - block means of nu), where s is the rounding
        # residue of 1^T P x.  So, with u = 2^-53 and R the size of every
        # term before the projection,
        #   |s| <= 2 (N + 2) u (|x|_1 + |y|_1)
        #   |apply_A - expanded|_inf <= 2 |nu|_inf |s| + 4 (n_max + 4) u R + 3 u |out|_inf.
        # Measured at up to 0.47 of the second bound.
        ctx = plan_instance(name)
        u = 2.0**-53
        n, n_max = ctx.n_points, int(ctx.sizes.max())
        nu = float(ctx.sq_norms.max())
        x = np.random.default_rng(len(name)).standard_normal(n)
        for _ in range(20):
            got = apply_A(ctx, x)
            old = reference_apply_A(ctx, x, expanded=True)
            y = x - np.repeat(np.add.reduceat(x, ctx.offsets[:-1]) / ctx.sizes, ctx.sizes)
            s, c = float(y.sum()), float(ctx.sq_norms @ y)
            by = np.zeros(n)
            for blk_a, terms in zip(ctx.blocks, ctx.terms):
                for u_ab, u_ba, blk_b, rho in terms:
                    by[blk_a] += u_ab * (float(u_ba @ y[blk_b]) / rho)
            gram = 2.0 * float(np.abs(ctx.phi.T @ (ctx.phi @ y)).max())
            big = abs(c) + nu * abs(s) + float(np.abs(by).max()) + gram
            out = max(float(np.abs(got).max()), float(np.abs(old).max()))
            assert abs(s) <= 2 * (n + 2) * u * (np.abs(x).sum() + np.abs(y).sum())
            assert np.abs(got - old).max() <= 2 * nu * abs(s) + 4 * (n_max + 4) * u * big + 3 * u * out
            x = got / np.linalg.norm(got)

    @pytest.mark.parametrize("name", PLAN_CASES)
    def test_plan_matches_offsets_and_shares_u(self, name):
        ctx = plan_instance(name)
        k = ctx.n_clusters
        for a in range(k):
            assert ctx.block(a) == slice(int(ctx.offsets[a]), int(ctx.offsets[a + 1]))
            others = [b for b in range(k) if b != a]
            assert len(ctx.terms[a]) == len(others)
            for b, (u_ab, u_ba, blk_b, rho) in zip(others, ctx.terms[a]):
                assert u_ab is ctx.u[(a, b)] and u_ba is ctx.u[(b, a)]
                assert blk_b == ctx.block(b)
                assert rho == ctx.rho_of(a, b)


class TestSpectrumStructure:
    def test_eigenstructure_of_dense_A(self):
        for points, part in small_instances()[:8]:
            ctx = build_certificate_context(points, part)
            if ctx.is_undefined:
                continue
            n, k = ctx.n_points, ctx.n_clusters
            mat = dense_A(ctx)
            eigvals = np.linalg.eigvalsh(mat)
            tol = 1e-8 * max(1.0, abs(ctx.z), float(np.abs(eigvals).max()))
            # eigenvalue z carried by the normalized all-ones vector
            ones = np.full(n, 1.0 / math.sqrt(n))
            assert np.abs(mat @ ones - ctx.z * ones).max() <= tol
            # a zero eigenvalue of multiplicity k - 1 carried by the
            # indicator span intersected with the all-ones complement
            for a in range(1, k):
                x = np.zeros(n)
                x[ctx.block(0)] = 1.0 / float(ctx.sizes[0])
                x[ctx.block(a)] = -1.0 / float(ctx.sizes[a])
                assert np.abs(mat @ x).max() <= tol * np.linalg.norm(x)
            # full spectrum = {z} + {0}^(k-1) + spectrum of the projected
            # core restricted to the complement of the indicator span
            indicators = np.zeros((k, n))
            for a in range(k):
                indicators[a, ctx.block(a)] = 1.0
            basis = np.linalg.svd(indicators, full_matrices=True)[2][k:].T
            proj = dense_projection(ctx)
            core = proj @ (dense_B(ctx) - dense_M(ctx)) @ proj
            restricted = np.linalg.eigvalsh(basis.T @ core @ basis)
            expected = np.sort(np.concatenate((restricted, [ctx.z], np.zeros(k - 1))))
            assert np.allclose(np.sort(eigvals), expected, atol=tol)

    def test_zero_multiplicity_exactly_k_minus_one(self):
        # with enough ambient dimension the projected core has no zero
        # eigenvalues, so the only zeros are the k - 1 from the indicator
        # span; N - k <= m + k(k-1) makes that the generic situation
        ds = ball_dataset(seed=30, k=2, m=6, n=4, delta=4.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        eigvals = np.linalg.eigvalsh(dense_A(ctx))
        tol = 1e-8 * max(1.0, abs(ctx.z))
        assert np.sum(np.abs(eigvals) <= tol) == ctx.n_clusters - 1

    def test_E_matrix_properties(self):
        for points, part in small_instances():
            ctx = build_certificate_context(points, part)
            mat = dense_E(ctx)
            k, n = ctx.n_clusters, ctx.n_points
            eigvals, eigvecs = np.linalg.eigh(mat)
            nz = np.flatnonzero(np.abs(eigvals) > 1e-9)
            assert nz.size in (1, 2)
            lead = nz[np.argmax(np.abs(eigvals[nz]))]
            assert eigvals[lead] >= k - 1e-9
            if nz.size == 2:
                other = [i for i in nz if i != lead][0]
                assert eigvals[other] < 0.0
            # nonzero eigenvectors live in the indicator span
            proj = dense_projection(ctx)
            for idx in nz:
                assert np.abs(proj @ eigvecs[:, idx]).max() <= 1e-8

    def test_E_rank_one_for_equal_sizes(self):
        ds = ball_dataset(seed=8, k=3, m=3, n=6, delta=3.0)
        ctx = build_certificate_context(ds.points, ds.planted)
        eigvals = np.linalg.eigvalsh(dense_E(ctx))
        assert np.sum(np.abs(eigvals) > 1e-9) == 1

    def test_E_rank_two_for_unequal_sizes(self):
        points, part = gaussian_instance(9, (3, 8), m=2)
        ctx = build_certificate_context(points, part)
        eigvals = np.linalg.eigvalsh(dense_E(ctx))
        assert np.sum(np.abs(eigvals) > 1e-9) == 2

    def test_B_matrix_properties(self):
        for points, part in small_instances():
            ctx = build_certificate_context(points, part)
            if ctx.is_undefined:
                continue
            mat = dense_B(ctx)
            assert np.array_equal(mat, mat.T)
            assert (mat >= 0.0).all()
            for a in range(ctx.n_clusters):
                blk = ctx.block(a)
                assert not mat[blk, blk].any()


class TestCorollary:
    def test_holds_in_separated_regime(self):
        ds = ball_dataset(seed=10, k=2, m=20, n=100, delta=3.0)
        holds, lhs, rhs = corollary_check(ds.points, ds.planted)
        assert holds
        assert lhs <= rhs
        assert rhs == pytest.approx(build_certificate_context(ds.points, ds.planted).z)

    def test_implies_dense_condition(self):
        # whenever the explicit bound holds, the operator condition holds
        checked = 0
        for points, part in small_instances():
            ctx = build_certificate_context(points, part)
            if ctx.is_undefined:
                continue
            holds, lhs, rhs = corollary_check(points, part)
            gap = dense_certificate_gap(ctx)
            # lhs always dominates the restricted top eigenvalue
            assert lhs >= (ctx.z - gap) - 1e-8 * max(1.0, abs(lhs))
            if holds:
                checked += 1
                assert gap >= -1e-8 * max(1.0, abs(ctx.z))
        assert checked >= 1

    def test_undefined_raises(self):
        pts = PointSet(np.array([[0.0, 2.0]]))
        with pytest.raises(CertificateUndefinedError):
            corollary_check(pts, partition_from_labels([0, 1]))


class TestAlpha:
    def test_identical_cluster_points(self):
        cols = np.array([[0.0, 0.0, 5.0, 5.0, 5.0]])
        pts = PointSet(cols)
        part = partition_from_labels([0, 0, 1, 1, 1])
        ctx = build_certificate_context(pts, part)
        alpha = recover_alpha(ctx, part.labels)
        assert np.allclose(alpha[:2], -ctx.z / 2.0, rtol=1e-12)
        assert np.allclose(alpha[2:], -ctx.z / 3.0, rtol=1e-12)

    def test_singleton_cluster(self):
        points, part = gaussian_instance(11, (1, 6), m=2)
        ctx = build_certificate_context(points, part)
        alpha = recover_alpha(ctx, part.labels)
        singleton_index = int(np.flatnonzero(part.labels == 0)[0])
        assert alpha[singleton_index] == pytest.approx(-ctx.z, rel=1e-12)

    def test_matches_dense_formula(self):
        for points, part in small_instances()[:6]:
            ctx = build_certificate_context(points, part)
            dist = pairwise_sq_distances(ctx.phi)
            expected_sorted = np.empty(ctx.n_points)
            for a in range(ctx.n_clusters):
                blk = ctx.block(a)
                n_a = int(ctx.sizes[a])
                d_self = dist[blk, blk] @ np.ones(n_a)
                expected_sorted[blk] = -ctx.z / n_a + d_self.sum() / n_a**2 - (2.0 / n_a) * d_self
            got = recover_alpha(ctx, part.labels)[np.argsort(part.labels, kind="stable")]  # canonical order
            assert np.allclose(got, expected_sorted, rtol=1e-9, atol=1e-9 * max(1.0, ctx.scale))


class TestCertify:
    def test_planted_partition_certified(self):
        ds = ball_dataset(seed=12, k=2, m=6, n=256, delta=2.3)
        out = certify_partition(ds.points, ds.planted, seed=3)
        assert out.decision is CertifyDecision.CERTIFIED_OPTIMAL
        assert out.certified
        assert out.detector is not None
        assert out.confidence_bound == pytest.approx(3.0 * math.sqrt(512 * 512.0**-3))
        assert out.epsilon == default_epsilon(512)
        given = certify_partition(ds.points, ds.planted, epsilon=1e-6, seed=3)
        assert given.epsilon == 1e-6
        assert given.confidence_bound == 3.0 * math.sqrt(512 * 1e-6)

    def test_swapped_partition_never_certified(self):
        ds = ball_dataset(seed=13, k=2, m=2, n=4, delta=6.0)
        labels = ds.planted.labels.copy()
        labels[0] = 1 - labels[0]  # move one point across the gap
        swapped = partition_from_labels(labels)
        brute = exact_kmeans_bruteforce(ds.points, 2)
        assert kmeans_objective(ds.points, swapped) > brute.objective + 1e-9
        for seed in range(20):
            out = certify_partition(ds.points, swapped, seed=seed)
            assert out.decision is not CertifyDecision.CERTIFIED_OPTIMAL

    def test_epsilon_validation(self):
        ds = ball_dataset(seed=14)
        for bad in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                certify_partition(ds.points, ds.planted, epsilon=bad)

    def test_memory_below_budget(self):
        # the context keeps phi, its squared norms and u, and no per-point
        # permutation or mu: the peak stays under 2.67 copies of the points
        ds = ball_dataset(seed=27, k=2, m=6, n=2**14, delta=2.3)
        tracemalloc.start()
        try:
            certify_partition(ds.points, ds.planted, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.67 * ds.points.columns.nbytes

    def test_scaling_covariance(self):
        ds = ball_dataset(seed=15, k=2, m=3, n=10, delta=2.8)
        ctx = build_certificate_context(ds.points, ds.planted)
        holds, lhs, rhs = corollary_check(ds.points, ds.planted)
        gap = dense_certificate_gap(ctx)
        c = 3.0
        scaled_points = PointSet(c * ds.points.columns)
        ctx_s = build_certificate_context(scaled_points, ds.planted)
        holds_s, lhs_s, rhs_s = corollary_check(scaled_points, ds.planted)
        assert ctx_s.z == pytest.approx(c**2 * ctx.z, rel=1e-8)
        assert lhs_s == pytest.approx(c**2 * lhs, rel=1e-6)
        assert holds_s == holds
        assert dense_certificate_gap(ctx_s) == pytest.approx(c**2 * gap, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize(
        "config",
        [
            BallModelConfig(standard_centers(2, 6, 2.3), 1024, seed=3),
            BallModelConfig(standard_centers(10, 50, 5.0), 100),
        ],
        ids=["k2-m6", "k10-m50"],
    )
    def test_translation_invariance(self, config):
        # Shifting every coordinate by s rounds it by at most eta = ulp/2 of
        # the shifted value, which moves each point and centroid by at most
        # sqrt(m) eta.  z is the least w_ab f_i over pairs and points, with
        # w_ab = 2 n_a n_b / (n_a + n_b) and f_i = 2 (x_i - m_ab)^T (c_a - c_b),
        # m_ab the midpoint of the centroids, so to first order
        #   |z(shifted) - z| <= 4 sqrt(m) eta max_ab w_ab (|c_a - c_b| + max_i |x_i - m_ab|).
        # The build's own rounding, which centring keeps independent of the
        # shift, is left out; it measured under a tenth of the bound at 1e2.
        ds = sample_stochastic_ball_model(config)
        cols, labels, sizes = ds.points.columns, ds.planted.labels, ds.planted.sizes
        k, m = config.centers.shape
        centers = [cols[:, labels == a].mean(axis=1) for a in range(k)]
        reach = 0.0
        for a in range(k):
            for b in range(k):
                if a != b:
                    mid = 0.5 * (centers[a] + centers[b])
                    offset = np.linalg.norm(cols[:, labels == a] - mid[:, None], axis=0).max()
                    w_ab = 2.0 * sizes[a] * sizes[b] / (sizes[a] + sizes[b])
                    reach = max(reach, w_ab * (np.linalg.norm(centers[a] - centers[b]) + offset))
        base = certify_partition(ds.points, ds.planted)
        assert base.decision is CertifyDecision.CERTIFIED_OPTIMAL
        for shift in (1e2, 1e6, 1e8):
            shifted = cols + shift
            eta = 0.5 * float(np.spacing(np.abs(shifted)).max())
            out = certify_partition(PointSet(shifted), ds.planted)
            assert out.decision is base.decision, shift
            assert abs(out.z - base.z) <= 4.0 * math.sqrt(m) * eta * reach, shift


class TestSoundnessSmoke:
    def test_certified_is_globally_optimal_small(self):
        rng = np.random.default_rng(42)
        certified = 0
        for trial in range(40):
            k = int(rng.integers(2, 4))
            m = 3
            n = int(rng.integers(2, 5 if k == 3 else 7))
            delta = float(rng.uniform(1.5, 6.0))
            ds = ball_dataset(seed=1000 + trial, k=k, m=m, n=n, delta=delta)
            out = certify_partition(ds.points, ds.planted, seed=trial)
            if out.decision is CertifyDecision.CERTIFIED_OPTIMAL:
                certified += 1
                brute = exact_kmeans_bruteforce(ds.points, k)
                obj = kmeans_objective(ds.points, ds.planted)
                assert obj <= brute.objective + 1e-9 * max(1.0, brute.objective)
        assert certified >= 5  # sanity: the regime does produce certificates


class TestKnownFalseCertificate:
    # A sweep-small cell (delta = 2.1, k = 3, m = 6, 64 points a ball):
    # Lloyd recovers the planted partition, whose dense gap is -0.93% of z,
    # yet the detector certifies it after 61 iterations, inside the
    # paper's 3 sqrt(N eps) = 1.6% allowance at N = 192.
    SEED = 2967136457537620088
    CONFIG = BallModelConfig(standard_centers(3, 6, 2.1), 64)

    def test_dense_gap_is_negative(self):
        assert run_trial(self.CONFIG, solver="lloyd", seed=self.SEED).recovered_planted
        dataset = sample_stochastic_ball_model(dataclasses.replace(self.CONFIG, seed=derive_streams(self.SEED).sample))
        ctx = build_certificate_context(dataset.points, dataset.planted)
        assert ctx.n_points == 192
        assert dense_certificate_gap(ctx) < 0

    @pytest.mark.xfail(
        strict=True, reason="the detector's eps = N^-3 test certifies it; ROADMAP item 1a's exact test would not"
    )
    def test_not_certified(self):
        record = run_trial(self.CONFIG, solver="lloyd", certify=True, seed=self.SEED)
        assert record.cert_decision != CertifyDecision.CERTIFIED_OPTIMAL.value


TWO_BALLS = ball_dataset(seed=15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_certificate_context(TWO_BALLS.points, partition_from_labels([0, 1])),
         "partition does not match point count"),
        (lambda: build_certificate_context(TWO_BALLS.points, Partition(np.zeros(20, dtype=np.int64))),
         "certificate needs at least two clusters"),
        (lambda: apply_A(build_certificate_context(TWO_BALLS.points, TWO_BALLS.planted), np.ones(3)),
         "expected a length-20 vector, got shape (3,)"),
        (lambda: certify_partition(TWO_BALLS.points, TWO_BALLS.planted, epsilon=1.0), "epsilon must lie in (0, 1)"),
    ],
    ids=["count", "one-cluster", "vector-length", "epsilon"],
)
def test_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
