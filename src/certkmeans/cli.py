"""Experiment harness and command line interface.

Subcommands: ``generate`` (sample a dataset to CSV), ``solve`` (run one
solver on a dataset), ``certify`` (test a partition for certified
optimality), ``sweep`` (grids over delta/k/m/n with per-trial CSV rows and
per-cell aggregates), and ``bench`` (certification wall-time across sizes).

Every trial draws its randomness from a single 64-bit trial seed.  Within
a sweep, trial seeds follow base_seed + (trial_index + 1) * GAMMA mod 2^64
with the odd constant GAMMA below, which is injective in the trial index;
each trial seed is then split into independent sampler / solver / detector
streams.  Reruns with the same base seed reproduce everything except wall
times.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .certificate import CertifyDecision, certify_partition
from .detector import default_epsilon
from .model import (
    BallModelConfig,
    DISTRIBUTIONS,
    Dataset,
    UNIFORM_BALL,
    kmeans_objective,
    partitions_equal,
    read_dataset_csv,
    sample_stochastic_ball_model,
    standard_centers,
    write_dataset_csv,
)
from .solvers import SolveResult, exact_kmeans_bruteforce, leading_eigenvector, lloyd, spectral_two_means

__all__ = [
    "GAMMA",
    "SOLVERS",
    "PARTITION_SOURCES",
    "TRIAL_CSV_HEADER",
    "TrialRecord",
    "CellSummary",
    "TrialStreams",
    "derive_trial_seed",
    "derive_streams",
    "run_trial",
    "run_sweep",
    "records_to_csv",
    "parse_records_csv",
    "summarize_records",
    "build_parser",
    "main",
]

GAMMA = 0x9E3779B97F4A7C15
SOLVERS = ("lloyd", "spectral2", "bruteforce")
# "planted" short-circuits the solve step and certifies the generative
# labels themselves, which is how phase-transition curves are measured
PARTITION_SOURCES = SOLVERS + ("planted",)
TRIAL_CSV_HEADER = (
    "trial_id,seed,m,k,n,delta,solver,objective,recovered,"
    "cert_decision,detector_iters,epsilon,confidence_bound,wall_ms"
)


class TrialStreams(NamedTuple):
    sample: int
    solver: int
    detector: int


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Injective per-trial seed: base_seed + (trial_index + 1) * GAMMA mod 2^64."""
    return (int(base_seed) + (int(trial_index) + 1) * GAMMA) % 2**64


def derive_streams(seed: int) -> TrialStreams:
    """Split one trial seed into independent sampler/solver/detector seeds."""
    children = np.random.SeedSequence(int(seed)).spawn(3)
    return TrialStreams(*(int(c.generate_state(1, np.uint64)[0]) for c in children))


@dataclass(frozen=True)
class TrialRecord:
    """One experiment trial, matching one CSV row."""

    trial_id: int
    seed: int
    m: int
    k: int
    n: int
    delta: float
    solver_tag: str
    objective: Optional[float]
    recovered_planted: Optional[bool]
    cert_decision: Optional[str]
    detector_iters: Optional[int]
    epsilon: Optional[float]
    confidence_bound: Optional[float]
    wall_ms: float
    alignment_ok: Optional[bool] = None  # only populated by --check-alignment
    error: Optional[str] = None  # not serialized; cert_decision carries "error"


def _fmt_opt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_row(rec: TrialRecord, check_alignment: bool) -> list[str]:
    row = [
        str(rec.trial_id),
        str(rec.seed),
        str(rec.m),
        str(rec.k),
        str(rec.n),
        repr(float(rec.delta)),
        rec.solver_tag,
        _fmt_opt(rec.objective),
        _fmt_opt(rec.recovered_planted),
        _fmt_opt(rec.cert_decision),
        _fmt_opt(rec.detector_iters),
        _fmt_opt(rec.epsilon),
        _fmt_opt(rec.confidence_bound),
        repr(float(rec.wall_ms)),
    ]
    if check_alignment:
        row.append(_fmt_opt(rec.alignment_ok))
    return row


def records_to_csv(records: Sequence[TrialRecord], check_alignment: bool = False) -> str:
    """Serialize trial records; the header is schema-stable.

    ``check_alignment`` appends the optional alignment_ok column.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = TRIAL_CSV_HEADER.split(",")
    if check_alignment:
        header.append("alignment_ok")
    writer.writerow(header)
    for rec in records:
        writer.writerow(_record_row(rec, check_alignment))
    return buf.getvalue()


def _parse_opt(text: str, conv):
    if text == "":
        return None
    if conv is bool:
        return text == "true"
    return conv(text)


def parse_records_csv(text: str) -> list[TrialRecord]:
    """Round-trip parser for :func:`records_to_csv` output."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    base = TRIAL_CSV_HEADER.split(",")
    if header[: len(base)] != base:
        raise ValueError("unexpected CSV header")
    has_alignment = len(header) > len(base)
    records = []
    for row in reader:
        rec = TrialRecord(
            trial_id=int(row[0]),
            seed=int(row[1]),
            m=int(row[2]),
            k=int(row[3]),
            n=int(row[4]),
            delta=float(row[5]),
            solver_tag=row[6],
            objective=_parse_opt(row[7], float),
            recovered_planted=_parse_opt(row[8], bool),
            cert_decision=_parse_opt(row[9], str),
            detector_iters=_parse_opt(row[10], int),
            epsilon=_parse_opt(row[11], float),
            confidence_bound=_parse_opt(row[12], float),
            wall_ms=float(row[13]),
            alignment_ok=_parse_opt(row[14], bool) if has_alignment else None,
        )
        records.append(rec)
    return records


def _solve(dataset: Dataset, solver: str, k: int, seed: int, max_iter: int = 100) -> SolveResult:
    if solver == "lloyd":
        return lloyd(dataset.points, k, max_iter=max_iter, seed=seed)
    if solver == "spectral2":
        if k != 2:
            raise ValueError("spectral2 solves two clusters only")
        return spectral_two_means(dataset.points, seed=seed)
    if solver == "bruteforce":
        return exact_kmeans_bruteforce(dataset.points, k)
    if solver == "planted":
        if dataset.planted is None:
            raise ValueError("no planted partition to certify")
        objective = kmeans_objective(dataset.points, dataset.planted)
        return SolveResult(dataset.planted, objective, 0, "planted")
    raise ValueError(f"unknown solver {solver!r}")


def _alignment_diagnostic(dataset: Dataset) -> Optional[bool]:
    """For k = 2 with known centers: whether the leading principal direction
    separates the balls, i.e. |gamma^T w| > 1 for the unit direction w and
    gamma = (center_0 - center_1) / 2."""
    config = dataset.config
    if config is None or config.k != 2:
        return None
    cols = dataset.points.columns
    centered = cols - cols.mean(axis=1)[:, None]
    eig = leading_eigenvector(centered @ centered.T, tol=1e-8, max_iter=10_000, seed=0)
    gamma = 0.5 * (config.centers[0] - config.centers[1])
    return bool(abs(float(gamma @ eig.vector)) > 1.0)


def run_trial(
    config: BallModelConfig,
    solver: str = "lloyd",
    certify: bool = False,
    epsilon: Optional[float] = None,
    seed: int = 0,
    trial_id: int = 0,
    check_alignment: bool = False,
) -> TrialRecord:
    """Sample, solve, optionally certify; deterministic given ``seed``
    (wall time excluded).  ``config.seed`` is ignored in favor of the
    sampler stream derived from ``seed``."""
    if solver not in PARTITION_SOURCES:
        raise ValueError(f"unknown solver {solver!r}")
    streams = derive_streams(seed)
    dataset = sample_stochastic_ball_model(replace(config, seed=streams.sample))
    n_points = dataset.points.count
    eps = None
    if certify:
        eps = epsilon if epsilon is not None else default_epsilon(n_points, 1.0)

    start = time.perf_counter()
    result = _solve(dataset, solver, config.k, streams.solver)
    recovered = partitions_equal(dataset.planted, result.partition)
    cert_decision = None
    detector_iters = None
    confidence_bound = None
    if certify:
        outcome = certify_partition(dataset.points, result.partition, eps, seed=streams.detector)
        cert_decision = outcome.decision.value
        detector_iters = outcome.detector.iterations if outcome.detector is not None else 0
        confidence_bound = outcome.confidence_bound
    wall_ms = (time.perf_counter() - start) * 1000.0

    alignment = _alignment_diagnostic(dataset) if check_alignment else None
    return TrialRecord(
        trial_id=trial_id,
        seed=int(seed),
        m=config.dim,
        k=config.k,
        n=config.per_ball,
        delta=config.delta,
        solver_tag=result.solver_tag,
        objective=float(result.objective),
        recovered_planted=recovered,
        cert_decision=cert_decision,
        detector_iters=detector_iters,
        epsilon=eps,
        confidence_bound=confidence_bound,
        wall_ms=wall_ms,
        alignment_ok=alignment,
    )


@dataclass(frozen=True)
class CellSummary:
    """Aggregate over the trials of one (delta, k, m, n) grid cell."""

    delta: float
    k: int
    m: int
    n: int
    trials: int
    errors: int
    certified: int
    recovered: int

    @property
    def certified_rate(self) -> float:
        return self.certified / self.trials if self.trials else math.nan

    @property
    def recovered_rate(self) -> float:
        return self.recovered / self.trials if self.trials else math.nan


SUMMARY_CSV_HEADER = "delta,k,m,n,trials,errors,certified_rate,recovered_rate"


def summarize_records(records: Sequence[TrialRecord]) -> list[CellSummary]:
    """Per-cell aggregates recomputed from raw rows (cells in row order)."""
    order: list[tuple] = []
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = (rec.delta, rec.k, rec.m, rec.n)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)
    out = []
    for key in order:
        recs = groups[key]
        out.append(
            CellSummary(
                delta=key[0],
                k=key[1],
                m=key[2],
                n=key[3],
                trials=len(recs),
                errors=sum(1 for r in recs if r.cert_decision == "error"),
                certified=sum(
                    1 for r in recs if r.cert_decision == CertifyDecision.CERTIFIED_OPTIMAL.value
                ),
                recovered=sum(1 for r in recs if r.recovered_planted is True),
            )
        )
    return out


def summaries_to_csv(summaries: Sequence[CellSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_CSV_HEADER.split(","))
    for s in summaries:
        writer.writerow(
            [
                repr(float(s.delta)),
                s.k,
                s.m,
                s.n,
                s.trials,
                s.errors,
                repr(s.certified_rate),
                repr(s.recovered_rate),
            ]
        )
    return buf.getvalue()


def run_sweep(
    deltas: Sequence[float],
    ks: Sequence[int],
    ms: Sequence[int],
    ns: Sequence[int],
    trials: int,
    base_seed: int = 0,
    solver: str = "lloyd",
    certify: bool = False,
    epsilon: Optional[float] = None,
    distribution: str = UNIFORM_BALL,
    check_alignment: bool = False,
) -> tuple[list[TrialRecord], list[CellSummary]]:
    """Run ``trials`` per grid cell over the Cartesian product of the lists.

    Cells iterate delta-major (then k, m, n) and trials are numbered by a
    global trial_id, whose derived seed makes every trial independent and
    the whole sweep reproducible.  Per-trial errors become rows with
    cert_decision = "error" instead of aborting the sweep.
    """
    if not (len(deltas) and len(ks) and len(ms) and len(ns)):
        raise ValueError("grid must be nonempty")
    if trials < 1:
        raise ValueError("need at least one trial per cell")
    records: list[TrialRecord] = []
    trial_id = 0
    for delta, k, m, n in itertools.product(deltas, ks, ms, ns):
        for _ in range(trials):
            seed = derive_trial_seed(base_seed, trial_id)
            try:
                config = BallModelConfig(
                    centers=standard_centers(k, m, delta),
                    per_ball=n,
                    distribution=distribution,
                    seed=0,
                )
                rec = run_trial(
                    config,
                    solver=solver,
                    certify=certify,
                    epsilon=epsilon,
                    seed=seed,
                    trial_id=trial_id,
                    check_alignment=check_alignment,
                )
            except ValueError as exc:
                rec = TrialRecord(
                    trial_id=trial_id,
                    seed=seed,
                    m=m,
                    k=k,
                    n=n,
                    delta=float(delta),
                    solver_tag=solver,
                    objective=None,
                    recovered_planted=None,
                    cert_decision="error",
                    detector_iters=None,
                    epsilon=None,
                    confidence_bound=None,
                    wall_ms=0.0,
                    error=str(exc),
                )
            records.append(rec)
            trial_id += 1
    return records, summarize_records(records)


# ---------------------------------------------------------------------------
# command line interface


def _parse_float_list(text: str) -> list[float]:
    """Either comma-separated values or an inclusive start:stop:step range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range syntax is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(max(count, 0))]
    return [float(p) for p in text.split(",") if p]


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _pick(args_value, config: dict, key: str, default=None):
    """Explicit flags override config-file values, which override defaults."""
    if args_value is not None:
        return args_value
    if key in config:
        return config[key]
    return default


def _require(value, flag: str):
    if value is None:
        raise SystemExit(f"error: missing required option {flag}")
    return value


def _build_ball_config(m, k, per_ball, delta, distribution, seed) -> BallModelConfig:
    return BallModelConfig(
        centers=standard_centers(k, m, delta),
        per_ball=per_ball,
        distribution=distribution,
        seed=seed,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    m = int(_pick(args.dim, cfg, "dim", 2))
    k = int(_pick(args.clusters, cfg, "clusters", 2))
    per_ball = int(_pick(args.per_ball, cfg, "per_ball", 100))
    delta = float(_pick(args.delta, cfg, "delta", 3.0))
    distribution = _pick(args.distribution, cfg, "distribution", UNIFORM_BALL)
    seed = int(_pick(args.seed, cfg, "seed", 0))
    out = _require(_pick(args.out, cfg, "out"), "--out")
    dataset = sample_stochastic_ball_model(_build_ball_config(m, k, per_ball, delta, distribution, seed))
    write_dataset_csv(dataset, out)
    print(f"wrote {dataset.points.count} points (m={m}, k={k}, delta={delta}) to {out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    path = _require(_pick(args.input, cfg, "in"), "--in")
    dataset = read_dataset_csv(path)
    k = _pick(args.clusters, cfg, "clusters")
    if k is None:
        if dataset.planted is None:
            raise SystemExit("error: --clusters required when the dataset has no planted labels")
        k = dataset.planted.k
    solver = _pick(args.solver, cfg, "solver", "lloyd")
    seed = int(_pick(args.seed, cfg, "seed", 0))
    result = _solve(dataset, solver, int(k), seed)
    print(f"solver: {result.solver_tag}")
    print(f"objective: {result.objective!r}")
    print(f"iterations: {result.iterations}")
    if dataset.planted is not None:
        print(f"recovered_planted: {partitions_equal(dataset.planted, result.partition)}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    path = _require(_pick(args.input, cfg, "in"), "--in")
    dataset = read_dataset_csv(path)
    seed = int(_pick(args.seed, cfg, "seed", 0))
    use_planted = bool(args.use_planted or cfg.get("use_planted", False))
    if use_planted:
        if dataset.planted is None:
            raise SystemExit("error: dataset has no planted labels")
        partition = dataset.planted
        tag = "planted"
    else:
        solver = _pick(args.solver, cfg, "solver", "lloyd")
        k = _pick(args.clusters, cfg, "clusters")
        if k is None:
            if dataset.planted is None:
                raise SystemExit("error: --clusters required when the dataset has no planted labels")
            k = dataset.planted.k
        result = _solve(dataset, solver, int(k), seed)
        partition = result.partition
        tag = result.solver_tag
    epsilon = _pick(args.epsilon, cfg, "epsilon")
    epsilon = float(epsilon) if epsilon is not None else default_epsilon(dataset.points.count, 1.0)
    outcome = certify_partition(dataset.points, partition, epsilon, seed=seed)
    print(f"partition: {tag}")
    print(f"decision: {outcome.decision.value}")
    print(f"z: {outcome.z!r}")
    print(f"epsilon: {epsilon!r}")
    print(f"confidence_bound: {outcome.confidence_bound!r}")
    if outcome.detector is not None:
        print(f"detector_iterations: {outcome.detector.iterations}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    deltas = _pick(args.delta, cfg, "delta")
    deltas = deltas if isinstance(deltas, list) else _parse_float_list(str(_require(deltas, "--delta")))
    ks = _pick(args.clusters, cfg, "clusters", [2])
    ks = ks if isinstance(ks, list) else _parse_int_list(str(ks))
    ms = _pick(args.dim, cfg, "dim", [2])
    ms = ms if isinstance(ms, list) else _parse_int_list(str(ms))
    ns = _pick(args.per_ball, cfg, "per_ball", [100])
    ns = ns if isinstance(ns, list) else _parse_int_list(str(ns))
    trials = int(_pick(args.trials, cfg, "trials", 10))
    base_seed = int(_pick(args.seed, cfg, "seed", 0))
    solver = _pick(args.solver, cfg, "solver", "lloyd")
    certify = bool(args.certify or cfg.get("certify", False))
    epsilon = _pick(args.epsilon, cfg, "epsilon")
    epsilon = float(epsilon) if epsilon is not None else None
    distribution = _pick(args.distribution, cfg, "distribution", UNIFORM_BALL)
    check_alignment = bool(args.check_alignment or cfg.get("check_alignment", False))
    summary_out = _pick(args.summary_out, cfg, "summary_out")
    strict = bool(args.strict or cfg.get("strict", False))

    records, summaries = run_sweep(
        deltas,
        ks,
        ms,
        ns,
        trials,
        base_seed=base_seed,
        solver=solver,
        certify=certify,
        epsilon=epsilon,
        distribution=distribution,
        check_alignment=check_alignment,
    )
    text = records_to_csv(records, check_alignment=check_alignment)
    out = _pick(args.out, cfg, "out")
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    summary_text = summaries_to_csv(summaries)
    if summary_out is not None:
        with open(summary_out, "w") as fh:
            fh.write(summary_text)
    for s in summaries:
        print(
            f"cell delta={s.delta:g} k={s.k} m={s.m} n={s.n}: "
            f"certified {s.certified}/{s.trials}, recovered {s.recovered}/{s.trials}, errors {s.errors}"
        )
    failures = sum(1 for r in records if r.cert_decision == "error")
    if failures and strict:
        print(f"{failures} trial(s) failed", file=sys.stderr)
        return 3
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _load_config_file(args.config)
    sizes = _pick(args.sizes, cfg, "sizes")
    sizes = sizes if isinstance(sizes, list) else _parse_int_list(str(_require(sizes, "--sizes")))
    m = int(_pick(args.dim, cfg, "dim", 6))
    k = int(_pick(args.clusters, cfg, "clusters", 2))
    delta = float(_pick(args.delta, cfg, "delta", 2.3))
    seed = int(_pick(args.seed, cfg, "seed", 0))
    repeats = int(_pick(args.repeats, cfg, "repeats", 3))
    print("n_points,wall_ms,decision")
    for total in sizes:
        if total % k:
            raise SystemExit(f"error: size {total} not divisible by k={k}")
        config = _build_ball_config(m, k, total // k, delta, UNIFORM_BALL, seed)
        streams = derive_streams(seed)
        dataset = sample_stochastic_ball_model(replace(config, seed=streams.sample))
        best = math.inf
        decision = ""
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            outcome = certify_partition(dataset.points, dataset.planted, seed=streams.detector)
            best = min(best, (time.perf_counter() - start) * 1000.0)
            decision = outcome.decision.value
        print(f"{total},{best!r},{decision}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certkmeans",
        description="k-means solvers with certified-optimality testing on planted ball data",
    )
    sub = parser.add_subparsers(required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with the same field names as the long flags")
        p.add_argument("--seed", type=int, help="64-bit seed")

    p = sub.add_parser("generate", help="sample a planted dataset and write it as CSV")
    common(p)
    p.add_argument("--dim", type=int, help="ambient dimension m")
    p.add_argument("--clusters", type=int, help="number of balls k")
    p.add_argument("--per-ball", dest="per_ball", type=int, help="points per ball n")
    p.add_argument("--delta", type=float, help="center separation")
    p.add_argument("--distribution", choices=DISTRIBUTIONS)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run a solver on a dataset CSV")
    common(p)
    p.add_argument("--in", dest="input", help="dataset CSV path")
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--clusters", type=int)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="certify a partition of a dataset CSV")
    common(p)
    p.add_argument("--in", dest="input", help="dataset CSV path")
    p.add_argument("--use-planted", action="store_true", help="certify the planted partition")
    p.add_argument("--solver", choices=SOLVERS, help="solve first, then certify the result")
    p.add_argument("--clusters", type=int)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="grid of trials with CSV rows and per-cell aggregates")
    common(p)
    p.add_argument("--delta", help="comma list or start:stop:step range")
    p.add_argument("--clusters", help="comma list")
    p.add_argument("--dim", help="comma list")
    p.add_argument("--per-ball", dest="per_ball", help="comma list")
    p.add_argument("--trials", type=int)
    p.add_argument("--solver", choices=PARTITION_SOURCES)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--distribution", choices=DISTRIBUTIONS)
    p.add_argument("--check-alignment", action="store_true", help="append the alignment_ok column")
    p.add_argument("--out", help="per-trial CSV path (default: stdout)")
    p.add_argument("--summary-out", help="per-cell aggregate CSV path")
    p.add_argument("--strict", action="store_true", help="exit 3 if any trial fails")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="certification wall time across dataset sizes")
    common(p)
    p.add_argument("--sizes", help="comma list of total point counts")
    p.add_argument("--dim", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--repeats", type=int, help="take the best of this many runs")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
