"""Experiment harness and command line interface.

Subcommands: ``generate`` (sample a dataset to CSV), ``solve`` (run one
solver on a dataset), ``certify`` (test a partition for certified
optimality) and ``sweep`` (grids over delta/k/m/n with per-trial CSV rows
and per-cell aggregates; ``--solver planted --certify`` times certification
across a ``--per-ball`` list).  An argument ``@path`` stands for the
arguments in that file, one per line (``certkmeans sweep @grid.args
--trials 3``), so a flag that comes after it wins.

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
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .certificate import CertifyDecision, certify_partition
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
from .solvers import SolveResult, exact_kmeans_bruteforce, lloyd, spectral_two_means

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

# The per-trial CSV schema: (column, TrialRecord field, type) in column
# order, then the column that --check-alignment appends.
_TRIAL_COLUMNS = (
    ("trial_id", "trial_id", int),
    ("seed", "seed", int),
    ("m", "m", int),
    ("k", "k", int),
    ("n", "n", int),
    ("delta", "delta", float),
    ("solver", "solver_tag", str),
    ("objective", "objective", float),
    ("recovered", "recovered_planted", bool),
    ("cert_decision", "cert_decision", str),
    ("detector_iters", "detector_iters", int),
    ("epsilon", "epsilon", float),
    ("confidence_bound", "confidence_bound", float),
    ("wall_ms", "wall_ms", float),
)
_ALIGNMENT_COLUMN = ("alignment_ok", "alignment_ok", bool)
TRIAL_CSV_HEADER = ",".join(name for name, _, _ in _TRIAL_COLUMNS)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected 'true' or 'false', got {text!r}")
    return text == "true"


# per column type: (format a value that is not None, parse a nonblank cell)
_CELL_CODECS = {
    int: (str, int),
    str: (str, str),
    float: (lambda v: repr(float(v)), float),  # np.float64's own repr is "np.float64(...)"
    bool: (lambda v: "true" if v else "false", _parse_bool),
}


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
    """One experiment trial, matching one CSV row.  The result fields
    default to None, which is what an error row holds."""

    trial_id: int
    seed: int
    m: int
    k: int
    n: int
    delta: float
    solver_tag: str
    objective: Optional[float] = None
    recovered_planted: Optional[bool] = None
    cert_decision: Optional[str] = None
    detector_iters: Optional[int] = None
    epsilon: Optional[float] = None
    confidence_bound: Optional[float] = None
    wall_ms: float = 0.0
    alignment_ok: Optional[bool] = None  # only populated by --check-alignment
    error: Optional[str] = None  # not serialized; cert_decision carries "error"


def _to_csv(columns, items) -> str:
    """One header line of column names, then one row per item; a None
    attribute is a blank cell."""
    values = attrgetter(*(attr for _, attr, _ in columns))
    formats = [_CELL_CODECS[kind][0] for _, _, kind in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([name for name, _, _ in columns])
    for item in items:
        writer.writerow(["" if value is None else fmt(value) for fmt, value in zip(formats, values(item))])
    return buf.getvalue()


def records_to_csv(records: Sequence[TrialRecord], check_alignment: bool = False) -> str:
    """Serialize trial records; the header is schema-stable.

    ``check_alignment`` appends the optional alignment_ok column.
    """
    return _to_csv(_TRIAL_COLUMNS + ((_ALIGNMENT_COLUMN,) if check_alignment else ()), records)


def parse_records_csv(text: str) -> list[TrialRecord]:
    """Round-trip parser for :func:`records_to_csv` output.  A blank cell
    reads as None in the fields that default to None and is an error in
    the others."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty trial CSV")
    columns = (_TRIAL_COLUMNS + (_ALIGNMENT_COLUMN,))[: len(header)]
    if len(header) < len(_TRIAL_COLUMNS) or header != [name for name, _, _ in columns]:
        raise ValueError("unexpected CSV header")
    optional = {f.name for f in fields(TrialRecord) if f.default is None}
    parsers = [(attr, _CELL_CODECS[kind][1], attr in optional) for _, attr, kind in columns]
    records = []
    for row in reader:
        if len(row) != len(parsers):
            raise ValueError(f"row {reader.line_num}: expected {len(parsers)} fields, got {len(row)}")
        values = {attr: None if cell == "" and nullable else parse(cell)
                  for (attr, parse, nullable), cell in zip(parsers, row)}
        records.append(TrialRecord(**values))
    return records


def _solve(dataset: Dataset, solver: str, k: int, seed: int) -> SolveResult:
    if solver == "lloyd":
        return lloyd(dataset.points, k, seed=seed)
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
    direction = np.linalg.eigh(centered @ centered.T)[1][:, -1]
    gamma = 0.5 * (config.centers[0] - config.centers[1])
    return bool(abs(float(gamma @ direction)) > 1.0)


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
    streams = derive_streams(seed)
    dataset = sample_stochastic_ball_model(replace(config, seed=streams.sample))

    start = time.perf_counter()
    result = _solve(dataset, solver, config.k, streams.solver)
    recovered = partitions_equal(dataset.planted, result.partition)
    cert_decision = None
    detector_iters = None
    confidence_bound = None
    eps = None
    if certify:
        outcome = certify_partition(dataset.points, result.partition, epsilon, seed=streams.detector)
        cert_decision = outcome.decision.value
        detector_iters = outcome.detector.iterations if outcome.detector is not None else 0
        confidence_bound = outcome.confidence_bound
        eps = outcome.epsilon
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


_SUMMARY_COLUMNS = (
    ("delta", "delta", float),
    *((name, name, int) for name in ("k", "m", "n", "trials", "errors")),
    ("certified_rate", "certified_rate", float),
    ("recovered_rate", "recovered_rate", float),
)


def summarize_records(records: Sequence[TrialRecord]) -> list[CellSummary]:
    """Per-cell aggregates recomputed from raw rows (cells in row order)."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.delta, rec.k, rec.m, rec.n), []).append(rec)
    out = []
    for key, recs in groups.items():
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
    return _to_csv(_SUMMARY_COLUMNS, summaries)


def _build_ball_config(m, k, per_ball, delta, distribution, seed) -> BallModelConfig:
    return BallModelConfig(
        centers=standard_centers(k, m, delta),
        per_ball=per_ball,
        distribution=distribution,
        seed=seed,
    )


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
    the whole sweep reproducible.  Every row records the grid's delta, not
    the center separation recomputed from the placement.  Per-trial errors
    become rows with cert_decision = "error" instead of aborting the sweep.
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
                config = _build_ball_config(m, k, n, delta, distribution, seed=0)
                rec = run_trial(
                    config,
                    solver=solver,
                    certify=certify,
                    epsilon=epsilon,
                    seed=seed,
                    trial_id=trial_id,
                    check_alignment=check_alignment,
                )
                rec = replace(rec, delta=float(delta))
            except ValueError as exc:
                rec = TrialRecord(trial_id, seed, m, k, n, float(delta), solver, cert_decision="error", error=str(exc))
            records.append(rec)
            trial_id += 1
    return records, summarize_records(records)


# ---------------------------------------------------------------------------
# command line interface


def _parse_float_list(text: str) -> list[float]:
    """Either comma-separated values or an inclusive start:stop:step range."""
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",") if p]
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers or start:stop:step, got {text!r}"
        ) from None
    if step <= 0:
        raise argparse.ArgumentTypeError("step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(max(count, 0))]


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _solve_dataset(dataset: Dataset, args: argparse.Namespace) -> SolveResult:
    """Run ``--solver`` for ``--clusters`` clusters, by default the planted count."""
    k = args.clusters
    if k is None and args.solver != "planted":
        if dataset.planted is None:
            raise ValueError("--clusters required when the dataset has no planted labels")
        k = dataset.planted.k
    return _solve(dataset, args.solver, k, args.seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _build_ball_config(args.dim, args.clusters, args.per_ball, args.delta, args.distribution, args.seed)
    dataset = sample_stochastic_ball_model(config)
    write_dataset_csv(dataset, args.out)
    print(f"wrote {dataset.points.count} points (m={args.dim}, k={args.clusters}, delta={args.delta}) to {args.out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    dataset = read_dataset_csv(args.input)
    result = _solve_dataset(dataset, args)
    print(f"solver: {result.solver_tag}")
    print(f"objective: {result.objective!r}")
    print(f"iterations: {result.iterations}")
    if dataset.planted is not None:
        print(f"recovered_planted: {partitions_equal(dataset.planted, result.partition)}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    dataset = read_dataset_csv(args.input)
    result = _solve_dataset(dataset, args)
    outcome = certify_partition(dataset.points, result.partition, args.epsilon, seed=args.seed)
    print(f"partition: {result.solver_tag}")
    print(f"decision: {outcome.decision.value}")
    print(f"z: {outcome.z!r}")
    print(f"epsilon: {outcome.epsilon!r}")
    print(f"confidence_bound: {outcome.confidence_bound!r}")
    if outcome.detector is not None:
        print(f"detector_iterations: {outcome.detector.iterations}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    records, summaries = run_sweep(
        args.delta,
        args.clusters,
        args.dim,
        args.per_ball,
        args.trials,
        base_seed=args.seed,
        solver=args.solver,
        certify=args.certify,
        epsilon=args.epsilon,
        distribution=args.distribution,
        check_alignment=args.check_alignment,
    )
    text = records_to_csv(records, check_alignment=args.check_alignment)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.summary_out is not None:
        with open(args.summary_out, "w") as fh:
            fh.write(summaries_to_csv(summaries))
    for s in summaries:
        print(
            f"cell delta={s.delta:g} k={s.k} m={s.m} n={s.n}: "
            f"certified {s.certified}/{s.trials}, recovered {s.recovered}/{s.trials}, errors {s.errors}",
            file=sys.stderr,
        )
    failures = sum(1 for r in records if r.cert_decision == "error")
    if failures and args.strict:
        print(f"{failures} trial(s) failed", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``certkmeans`` parser; built-in defaults live in ``add_argument``."""
    parser = argparse.ArgumentParser(
        prog="certkmeans",
        description="k-means solvers with certified-optimality testing on planted ball data",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=0, help="64-bit seed")
        return p

    p = command("generate", _cmd_generate, "sample a planted dataset and write it as CSV")
    p.add_argument("--dim", type=int, default=2, help="ambient dimension m")
    p.add_argument("--clusters", type=int, default=2, help="number of balls k")
    p.add_argument("--per-ball", dest="per_ball", type=int, default=100, help="points per ball n")
    p.add_argument("--delta", type=float, default=3.0, help="center separation")
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default=UNIFORM_BALL)
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("solve", _cmd_solve, "run a solver on a dataset CSV")
    p.add_argument("--in", dest="input", required=True, help="dataset CSV path")
    p.add_argument("--solver", choices=SOLVERS, default="lloyd")
    p.add_argument("--clusters", type=int)

    p = command("certify", _cmd_certify, "certify a partition of a dataset CSV")
    p.add_argument("--in", dest="input", required=True, help="dataset CSV path")
    p.add_argument("--solver", choices=PARTITION_SOURCES, default="lloyd", help="the partition to certify")
    p.add_argument("--clusters", type=int)
    p.add_argument("--epsilon", type=float)

    p = command("sweep", _cmd_sweep, "grid of trials with CSV rows and per-cell aggregates")
    p.add_argument("--delta", type=_parse_float_list, required=True, help="comma list or start:stop:step range")
    p.add_argument("--clusters", type=_parse_int_list, default=[2], help="comma list")
    p.add_argument("--dim", type=_parse_int_list, default=[2], help="comma list")
    p.add_argument("--per-ball", dest="per_ball", type=_parse_int_list, default=[100], help="comma list")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--solver", choices=PARTITION_SOURCES, default="lloyd")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--distribution", choices=DISTRIBUTIONS, default=UNIFORM_BALL)
    p.add_argument("--check-alignment", action="store_true", help="append the alignment_ok column")
    p.add_argument("--out", help="per-trial CSV path (default: stdout)")
    p.add_argument("--summary-out", help="per-cell aggregate CSV path")
    p.add_argument("--strict", action="store_true", help="exit 3 if any trial fails")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # an argument combination the library rejects, or a path it cannot open
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
