import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ball_dataset, pi_epsilon_bound
from certkmeans import detector
from certkmeans.certificate import CertifyDecision, build_certificate_context, certify_partition
from certkmeans.detector import (
    DetectorDecision,
    EigenvectorMismatchError,
    default_epsilon,
    power_iteration_detect,
)
from certkmeans.model import BallModelConfig, sample_stochastic_ball_model, standard_centers
from certkmeans.solvers import lloyd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def e(i, n):
    out = np.zeros(n)
    out[i] = 1.0
    return out


class TestDecisions:
    def test_unique_leading_rejects_h0(self):
        out = power_iteration_detect(np.diag([3.0, 1.0, 1.0]).__matmul__, e(0, 3), 1e-4, seed=0)
        assert out.decision is DetectorDecision.REJECT_H0_ACCEPT_H1
        assert out.final_alignment >= 1.0 - 1e-4
        assert out.lam == pytest.approx(3.0)

    def test_dominated_eigenvector_accepts_h0(self):
        out = power_iteration_detect(np.diag([1.0, 3.0]).__matmul__, e(0, 2), 1e-4, seed=1)
        assert out.decision is DetectorDecision.ACCEPT_H0
        assert abs(out.final_rayleigh) > abs(out.lam)

    def test_degenerate_negative_pair_inconclusive(self, monkeypatch):
        # -lambda_1 in the spectrum: the iteration cannot settle
        monkeypatch.setattr(detector, "MIN_ITER_CAP", 3000)
        out = power_iteration_detect(np.diag([3.0, -3.0, 1.0]).__matmul__, e(0, 3), 1e-4, seed=2)
        assert out.decision is DetectorDecision.INCONCLUSIVE
        assert out.iterations == 3000

    def test_iteration_cap_grows_with_log_inverse_epsilon(self):
        # the cap is max(MIN_ITER_CAP, ceil(50 ln(1/epsilon))): 11513 at 1e-100
        out = power_iteration_detect(np.diag([3.0, -3.0, 1.0]).__matmul__, e(0, 3), 1e-100, seed=2)
        assert out.decision is DetectorDecision.INCONCLUSIVE
        assert out.iterations == math.ceil(50.0 * math.log(1e100)) == 11513
        out = power_iteration_detect(np.diag([3.0, -3.0, 1.0]).__matmul__, e(0, 3), 1e-4, seed=2)
        assert out.iterations == detector.MIN_ITER_CAP

    def test_zero_operator_accepts_h0(self):
        out = power_iteration_detect(np.zeros((5, 5)).__matmul__, e(0, 5), 1e-6, seed=3)
        assert out.decision is DetectorDecision.ACCEPT_H0
        assert out.lam == 0.0

    def test_callable_operator(self):
        mat = np.diag([4.0, 1.0])
        out = power_iteration_detect(lambda x: mat @ x, e(0, 2), 1e-6, seed=4)
        assert out.decision is DetectorDecision.REJECT_H0_ACCEPT_H1


class TestPreconditions:
    def test_non_unit_v(self):
        with pytest.raises(EigenvectorMismatchError):
            power_iteration_detect(np.eye(3).__matmul__, np.array([1.0, 1.0, 0.0]), 1e-4)

    def test_non_eigenvector_v(self):
        with pytest.raises(EigenvectorMismatchError):
            power_iteration_detect(np.diag([1.0, 2.0]).__matmul__, unit([1.0, 1.0]), 1e-4)

    def test_tiny_eigenvalue_of_a_large_operator(self):
        # op 77 of the many-clusters benchmark at seed 914: Lloyd sticks at a
        # partition with z = 5.9e-5 while ||A q|| is about 51 for the random
        # start; the residual 2.3e-12 of v is roundoff on the scale of A
        s_data, s_solve, s_detect = (
            int(s) for s in np.random.SeedSequence([914, 77]).generate_state(3, np.uint64)
        )
        config = BallModelConfig(centers=standard_centers(10, 50, 5.0), per_ball=2048, seed=s_data)
        points = sample_stochastic_ball_model(config).points
        partition = lloyd(points, 10, seed=s_solve).partition
        out = certify_partition(points, partition, seed=s_detect)
        assert 0.0 < out.z < 1e-4
        assert out.decision is CertifyDecision.NOT_CERTIFIED
        assert out.detector.decision is DetectorDecision.ACCEPT_H0
        assert out.detector.iterations == 0
        # the exact spectrum agrees: another eigenvalue dominates z
        assert oracle.exact_spectrum(build_certificate_context(points, partition)).lam_max > out.z

    def test_one_product_per_iteration(self):
        # the product of the random start serves both the residual check and
        # iteration 0, so a run costs one product for v plus one per iteration
        mat = np.diag([3.0, 1.0, -0.5, 0.2])
        for v, expected in ((e(0, 4), DetectorDecision.REJECT_H0_ACCEPT_H1), (e(1, 4), DetectorDecision.ACCEPT_H0)):
            calls = []
            out = power_iteration_detect(lambda x: calls.append(1) or mat @ x, v, 1e-8, seed=6)
            assert out.decision is expected
            assert len(calls) == out.iterations + 2

    def test_epsilon_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="epsilon"):
                power_iteration_detect(np.diag([2.0, 1.0]).__matmul__, e(0, 2), bad)


class TestDeterminism:
    def test_fixed_seed_repeats(self):
        mat = np.diag([2.0, 1.0, 0.5, -0.3])
        a = power_iteration_detect(mat.__matmul__, e(0, 4), 1e-8, seed=11)
        b = power_iteration_detect(mat.__matmul__, e(0, 4), 1e-8, seed=11)
        assert a == b


class TestProperties:
    def test_alignment_monotone_toward_leading(self):
        # with a unique leading eigenvalue, the leading component of the
        # iterate can never shrink
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 8
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            eigs = np.concatenate(([2.0], rng.uniform(-1.5, 1.5, n - 1)))
            mat = basis @ np.diag(eigs) @ basis.T
            v1 = basis[:, 0]
            q = unit(rng.standard_normal(n))
            prev = float(v1 @ q) ** 2
            for _ in range(40):
                q = unit(mat @ q)
                cur = float(v1 @ q) ** 2
                assert cur >= prev - 1e-12
                prev = cur

    def test_iteration_bound_ratio_half(self):
        # |lambda_2 / lambda_1| = 0.5 and epsilon = 1e-6: alignment must hit
        # 1 - eps within ceil(3 ln(1e6) / (2 ln 2)) + 1 = 31 updates unless
        # the start was pathological
        n = 50
        eps = 1e-6
        bound = math.ceil(3.0 * math.log(1.0 / eps) / (2.0 * math.log(2.0))) + 1
        assert bound == 31
        diag = np.concatenate(([2.0, 1.0], np.linspace(0.9, -0.9, n - 2)))
        mat = np.diag(diag)
        failures = 0
        for seed in range(100):
            out = power_iteration_detect(mat.__matmul__, e(0, n), eps, seed=seed)
            if out.decision is not DetectorDecision.REJECT_H0_ACCEPT_H1 or out.iterations > bound:
                failures += 1
        assert failures <= math.ceil(100 * 3.0 * math.sqrt(n * eps))

    def test_never_accepts_h0_under_h1(self):
        # false negatives require an exactly orthogonal start: measure zero
        n = 20
        diag = np.concatenate(([3.0], np.linspace(1.2, -1.2, n - 1)))
        mat = np.diag(diag)
        for seed in range(1000):
            out = power_iteration_detect(mat.__matmul__, e(0, n), 1e-6, seed=seed)
            assert out.decision is DetectorDecision.REJECT_H0_ACCEPT_H1

    def test_outcome_invariants(self, monkeypatch):
        monkeypatch.setattr(detector, "MIN_ITER_CAP", 2000)
        rng = np.random.default_rng(8)
        for seed in range(50):
            n = 6
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            eigs = rng.uniform(-2.0, 2.0, n)
            mat = basis @ np.diag(eigs) @ basis.T
            p = int(rng.integers(n))
            out = power_iteration_detect(mat.__matmul__, basis[:, p], 1e-5, seed=seed)
            if out.decision is DetectorDecision.REJECT_H0_ACCEPT_H1:
                assert out.final_alignment >= 1.0 - 1e-5
            elif out.decision is DetectorDecision.ACCEPT_H0:
                assert abs(out.final_rayleigh) > abs(out.lam)


class TestEpsilonHelpers:
    def test_default_epsilon_values(self):
        assert default_epsilon(100) == pytest.approx(1e-6, rel=1e-15)
        assert default_epsilon(10) == pytest.approx(1e-3, rel=1e-15)
        assert default_epsilon(512) == float(512) ** -3.0
        with pytest.raises(ValueError):
            default_epsilon(1)

    def test_default_epsilon_clamp(self):
        # n^-3 never falls below the validity floor n^-1 e^-2n, so no clamp is needed
        for n in (2, 3, 10, 372, 10**6):
            assert default_epsilon(n) >= math.exp(-2.0 * n) / n

    def test_pi_epsilon_bound(self):
        assert pi_epsilon_bound(100, 1e-6) == pytest.approx(0.03, rel=1e-12)
        assert pi_epsilon_bound(64, 1e-8) == pytest.approx(3.0 * math.sqrt(6.4e-7), rel=1e-12)
        # certify_partition reports the same bound for the epsilon it used
        ds = ball_dataset(seed=1, n=16)
        for epsilon in (None, 1e-4):
            out = certify_partition(ds.points, ds.planted, epsilon, seed=0)
            assert out.confidence_bound == pi_epsilon_bound(32, out.epsilon)

    def test_pi_epsilon_domain(self):
        n = 4
        with pytest.raises(ValueError):
            pi_epsilon_bound(n, math.exp(-2.0 * n) / n * 0.5)
