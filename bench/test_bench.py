"""Self-tests of the benchmark: the exact-margin oracle, metric naming and
output, and the exit codes.

Run from the root of the repository:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import certificate, model, solvers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _instances():
    """Small defined certificate contexts: planted and Lloyd partitions,
    unequal cluster sizes and duplicated points."""
    out = []
    for seed, (k, m, n, delta) in enumerate(
        [(2, 1, 40, 2.5), (2, 6, 300, 2.3), (3, 4, 150, 3.0), (4, 7, 90, 2.2), (3, 3, 600, 4.0)]
    ):
        config = model.BallModelConfig(centers=model.standard_centers(k, m, delta), per_ball=n, seed=seed)
        data = model.sample_stochastic_ball_model(config)
        out.append((data.points, data.planted))
        out.append((data.points, solvers.lloyd(data.points, k, seed=seed).partition))
        keep = np.flatnonzero(np.arange(data.points.count) % (seed + 3) != 1)[: data.points.count - n // 2]
        out.append((model.PointSet(data.points.columns[:, keep]), model.partition_from_labels(data.planted.labels[keep])))
    cols = out[1][0].columns
    doubled = model.PointSet(np.hstack([cols, cols[:, :50]]))
    labels = np.concatenate([out[1][1].labels, out[1][1].labels[:50]])
    out.append((doubled, model.partition_from_labels(labels)))
    return out


def _dense_extremes(ctx):
    """Extreme eigenvalues of P (B - M) P on the indicator complement, dense."""
    n, k = ctx.n_points, ctx.n_clusters
    indicators = np.zeros((k, n))
    for a in range(k):
        indicators[a, ctx.block(a)] = 1.0
    basis = np.linalg.svd(indicators, full_matrices=True)[2][k:].T
    proj = certificate.dense_projection(ctx)
    core = proj @ (certificate.dense_B(ctx) - certificate.dense_M(ctx)) @ proj
    eig = np.linalg.eigvalsh(basis.T @ core @ basis)
    return eig[-1], eig[0]


@pytest.mark.parametrize("chunk_rows", [oracle.CHUNK_ROWS, 37])
def test_oracle_matches_dense_certificate_gap(monkeypatch, chunk_rows):
    monkeypatch.setattr(oracle, "CHUNK_ROWS", chunk_rows)
    for points, partition in _instances():
        assert points.count <= 2000
        ctx = certificate.build_certificate_context(points, partition)
        assert not ctx.is_undefined
        spectrum = oracle.exact_spectrum(ctx)
        tol = 1e-10 * abs(ctx.z)
        assert abs(spectrum.gap - certificate.dense_certificate_gap(ctx)) <= tol
        lam_max, lam_min = _dense_extremes(ctx)
        assert abs(spectrum.lam_max - lam_max) <= tol
        assert abs(spectrum.lam_min - lam_min) <= tol


def test_objective_and_clustering_match_library():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        points = model.PointSet(rng.normal(size=(3, 50)) * 10.0 + 1e3)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, 50 - k)])
        part = model.partition_from_labels(labels)
        own = oracle.kmeans_objective(points.columns, part.labels)
        assert own == pytest.approx(model.kmeans_objective(points, part), rel=1e-12)
        relabeled = model.partition_from_labels(rng.permutation(k)[labels])
        other = model.partition_from_labels(rng.integers(0, k, 50))
        for q in (relabeled, other):
            assert oracle.same_clustering(part.labels, q.labels) == model.partitions_equal(part, q)


def test_metric_names_and_units_agree_with_benchmark_json():
    listed_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    listed_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed_e2e == run.END_TO_END
    assert listed_layers == run.PER_LAYER
    names = [*run.END_TO_END, *run.REPORTED, *run.PER_LAYER, *run.EXTRA_LAYERS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(x) for x in range(100)])
    assert (value, n) == (89.0, 100)
    assert sum(x > value for x in range(100)) == 10
    assert pct == pytest.approx(100.0 * 89 / 99)


def _bench(args, cwd=ROOT):
    cmd = SPEC["command"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_output_lists_every_metric_with_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    report = json.loads(report_line)["report"]
    named = dict(run.PER_LAYER, **run.EXTRA_LAYERS) if trace else dict(run.END_TO_END, **run.REPORTED)
    section = report["per_layer" if trace else "end_to_end"]
    for name, unit in named.items():
        assert section[name]["unit"] == unit
    assert report["end_to_end"]["false_cert"]["value"] == 0
    assert {"cores", "numpy", "python", "blas", "blas_version", "blas_threads", "l3_bytes"} <= set(report["machine"])


def test_false_certificate_exits_nonzero(monkeypatch, capsys):
    def refuting(ctx):
        return oracle.Spectrum(z=float(ctx.z), lam_max=float(ctx.z), lam_min=0.0)

    monkeypatch.setattr(oracle, "exact_spectrum", refuting)
    code = run.main(["--workload", "sweep-small", "--seed", "0", "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
