"""The benchmark's three workloads, driving certkmeans through its public functions.

The library is imported from the ``src`` directory of the checkout that
holds this file, never from an installed copy.  Every call into the library
goes through a module attribute (``solvers.lloyd``, ``cli.run_sweep``, ...)
so that the tracer's wrappers at those names see it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import certkmeans  # noqa: E402

if not Path(certkmeans.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"certkmeans was imported from {certkmeans.__file__}, not from {SRC}")

from certkmeans import certificate, cli, model, solvers  # noqa: E402

import oracle  # noqa: E402
from tracing import Site  # noqa: E402

CERTIFIED = certificate.CertifyDecision.CERTIFIED_OPTIMAL
MISSABLE = (certificate.CertifyDecision.NOT_CERTIFIED, certificate.CertifyDecision.INCONCLUSIVE)
OBJECTIVE_REL_TOL = 1e-9
Z_REL_TOL = 1e-9


def _apply_a_bytes(args: tuple, _out) -> float:
    """Compulsory traffic of one apply_A call, computed from array sizes:
    phi, squared norms and every u read once, x read and Ax written once."""
    ctx = args[0]
    vectors = 2 * ctx.n_points * 8
    return float(ctx.phi.nbytes + ctx.sq_norms.nbytes + sum(u.nbytes for u in ctx.u.values()) + vectors)


def _iterations(_args: tuple, out) -> float:
    return float(out.iterations)


# every place the library looks up a traced function
SITES = (
    Site("model.sample", model, "sample_stochastic_ball_model"),
    Site("model.sample", cli, "sample_stochastic_ball_model"),
    Site("model.partitions_equal", model, "partitions_equal"),
    Site("model.partitions_equal", cli, "partitions_equal"),
    Site("solvers.spectral2", solvers, "spectral_two_means", _iterations),
    Site("solvers.spectral2", cli, "spectral_two_means", _iterations),
    Site("solvers.leading_eigenvector", solvers, "leading_eigenvector", _iterations),
    Site("solvers.threshold_split", solvers, "optimal_threshold_split"),
    Site("solvers.lloyd", solvers, "lloyd", _iterations),
    Site("solvers.lloyd", cli, "lloyd", _iterations),
    Site("certificate.certify", certificate, "certify_partition"),
    Site("certificate.certify", cli, "certify_partition"),
    Site("certificate.build_context", certificate, "build_certificate_context"),
    Site("certificate.apply_A", certificate, "apply_A", _apply_a_bytes),
    Site("detector.detect", certificate, "power_iteration_detect", _iterations),
    Site("cli.run_trial", cli, "run_trial"),
    Site("cli.records_to_csv", cli, "records_to_csv"),
)


def op_seeds(seed: int, op: int, count: int) -> list[int]:
    """Independent 64-bit seeds for op ``op`` of a run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, op]).generate_state(count, np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class Trial:
    """One solved-and-certified partition, with what the library reported."""

    points: model.PointSet
    planted_labels: np.ndarray
    partition: model.Partition
    objective: float
    recovered: bool
    outcome: certificate.CertifyOutcome


@dataclass(frozen=True)
class OpResult:
    seconds: float
    certify_seconds: list
    points: int
    trials: list
    problems: list  # output defects found without the oracle


@dataclass(frozen=True)
class Check:
    """Oracle findings for one trial."""

    certified: bool
    recovered: bool
    false_cert: bool
    missed_cert: bool
    problems: list


def check_trial(trial: Trial) -> Check:
    """Compare a trial's reported outputs against exact recomputation."""
    problems = []
    cols = trial.points.columns
    labels = trial.partition.labels
    own_objective = oracle.kmeans_objective(cols, labels)
    if abs(trial.objective - own_objective) > OBJECTIVE_REL_TOL * max(abs(own_objective), 1e-300):
        problems.append(f"objective {trial.objective!r} != recomputed {own_objective!r}")
    recovered = oracle.same_clustering(trial.planted_labels, labels)
    if trial.recovered != recovered:
        problems.append(f"recovered_planted {trial.recovered} != recomputed {recovered}")
    decision = trial.outcome.decision
    ctx = certificate.build_certificate_context(trial.points, trial.partition)
    if abs(trial.outcome.z - ctx.z) > Z_REL_TOL * abs(ctx.z):
        problems.append(f"reported z {trial.outcome.z!r} != context z {ctx.z!r}")
    false_cert = missed = False
    if not ctx.is_undefined:
        spectrum = oracle.exact_spectrum(ctx)
        false_cert = decision is CERTIFIED and spectrum.lam_max >= spectrum.z
        missed = decision in MISSABLE and spectrum.certifiable
    elif decision is CERTIFIED:
        false_cert = True
    if false_cert:
        problems.append("false certificate")
    return Check(decision is CERTIFIED, recovered, false_cert, missed, problems)


@dataclass(frozen=True)
class PlantedOp:
    """Sample one planted dataset (set-up), then solve, check recovery and
    certify (the timed op, the sequence run_trial reports as wall_ms)."""

    k: int
    dim: int
    delta: float
    per_ball: int
    solve: Callable[[model.PointSet, int, int], solvers.SolveResult]

    def prepare(self, seed: int, op: int):
        s_data, s_solve, s_detect = op_seeds(seed, op, 3)
        config = model.BallModelConfig(
            centers=model.standard_centers(self.k, self.dim, self.delta),
            per_ball=self.per_ball,
            seed=s_data,
        )
        return model.sample_stochastic_ball_model(config), s_solve, s_detect

    def run(self, inputs) -> OpResult:
        dataset, s_solve, s_detect = inputs
        start = perf_counter()
        result = self.solve(dataset.points, self.k, s_solve)
        recovered = model.partitions_equal(dataset.planted, result.partition)
        cert_start = perf_counter()
        outcome = certificate.certify_partition(dataset.points, result.partition, seed=s_detect)
        end = perf_counter()
        trial = Trial(dataset.points, dataset.planted.labels, result.partition,
                      result.objective, recovered, outcome)
        return OpResult(end - start, [end - cert_start], dataset.points.count, [trial], [])


@contextmanager
def _captured_certify():
    """Record the inputs, outcome and duration of each certify call made by
    run_trial; costs two clock reads per trial."""
    calls = []
    original = cli.certify_partition

    def probe(points, partition, *args, **kwargs):
        start = perf_counter()
        outcome = original(points, partition, *args, **kwargs)
        calls.append((points, partition, outcome, perf_counter() - start))
        return outcome

    cli.certify_partition = probe
    try:
        yield calls
    finally:
        cli.certify_partition = original


@dataclass(frozen=True)
class SweepOp:
    """One grid cell per op: run_sweep with Lloyd and certification, then
    records_to_csv of its rows.  Cells cycle delta-major, then k."""

    deltas: tuple
    ks: tuple
    dim: int
    per_ball: int
    trials: int

    @property
    def cells(self) -> list:
        return [(d, k) for d in self.deltas for k in self.ks]

    def prepare(self, seed: int, op: int):
        delta, k = self.cells[op % len(self.cells)]
        return delta, k, op_seeds(seed, op, 1)[0]

    def run(self, inputs) -> OpResult:
        delta, k, base_seed = inputs
        with _captured_certify() as calls:
            start = perf_counter()
            records, _ = cli.run_sweep(
                [delta], [k], [self.dim], [self.per_ball], self.trials,
                base_seed=base_seed, solver="lloyd", certify=True,
            )
            text = cli.records_to_csv(records)
            end = perf_counter()
        problems = []
        lines = text.splitlines()
        if lines[0] != cli.TRIAL_CSV_HEADER or len(lines) != len(records) + 1:
            problems.append("records_to_csv output does not match the records")
        errors = [r.error for r in records if r.cert_decision == "error"]
        problems += [f"trial error: {e}" for e in errors]
        if len(calls) != len(records):
            problems.append(f"{len(calls)} certify calls for {len(records)} records")
        planted = np.repeat(np.arange(k), self.per_ball)
        trials = []
        for rec, (points, partition, outcome, _) in zip(records, calls):
            if rec.cert_decision != outcome.decision.value:
                problems.append(f"record decision {rec.cert_decision} != outcome {outcome.decision.value}")
            trials.append(Trial(points, planted, partition, rec.objective, rec.recovered_planted, outcome))
        points = sum(r.k * r.n for r in records)
        return OpResult(end - start, [c[3] for c in calls], points, trials, problems)


# looked up at call time, so the tracer's wrappers at solvers.* see the calls
def _spectral(points, _k: int, seed: int):
    return solvers.spectral_two_means(points, seed=seed)


def _lloyd(points, k: int, seed: int):
    return solvers.lloyd(points, k, seed=seed)


WORKLOADS = {
    # N = 2^17: apply_A x detector iterations and partitions_equal dominate,
    # and certification sits in the false NOT_CERTIFIED regime
    "certify-large": PlantedOp(k=2, dim=6, delta=2.3, per_ball=2**16, solve=_spectral),
    # 90 cluster pairs in the certificate; Lloyd's loops, sometimes stuck for 40+ iterations
    "many-clusters": PlantedOp(k=10, dim=50, delta=5.0, per_ball=2048, solve=_lloyd),
    # N <= 192: per-call Python overhead in run_trial, apply_A and the CSV dominates
    "sweep-small": SweepOp(deltas=tuple(2.0 + 0.1 * i for i in range(11)), ks=(2, 3),
                           dim=6, per_ball=64, trials=10),
}
