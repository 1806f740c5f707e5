"""Per-trial fingerprints of the benchmark workloads, for bit-identity checks.

Usage, from the root of a checkout:

    python3 tools/fingerprint.py --out after.jsonl
    python3 tools/fingerprint.py --diff before.jsonl after.jsonl

The first form runs ``op.run(op.prepare(seed, i))`` for ops 0 .. OPS-1 at
each of SEEDS on every workload in ``bench/workloads.py`` (imported, never
modified) and writes one JSON line per trial: the sha256 of its int64 labels,
the solver's iteration count, and the ``repr`` of its objective, recovery
flag, z, decision, detector iterations, final Rayleigh quotient, final
alignment, lambda and confidence bound.  After the trials of each op it
writes one line per threshold scan the op made (the spectral solver's, on
certify-large): its split and the sha256 of its order and f, so a changed
bit in f shows even where the split does not move.  After
the trials of each op of a sweep workload it writes one more line for the
harness CSVs: ``cli.run_sweep`` of that op's cell and base seed with
``check_alignment=True``, and the sha256 of its ``records_to_csv`` text (with
the wall_ms column blanked) and of its ``summaries_to_csv`` text.  The
library comes from the ``src`` directory of the same checkout, so running
the script from two checkouts fingerprints two versions of the code.  BLAS
runs on one thread, so both runs round alike.

``--diff A B`` compares two such files line by line.  If they differ it
prints the first differing line, then how many lines differ and, for each
JSON key, on how many of those lines its value differs (most first), then
one line per trial whose decision differs, and exits 1; otherwise it prints
the line count and exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (7, 11)
OPS = 12


def trial_record(workload: str, seed: int, op: int, index: int, trial, solve) -> dict:
    """The fingerprint of one trial and the SolveResult behind its partition;
    floats as repr so any changed bit shows."""
    outcome = trial.outcome
    det = outcome.detector
    labels = trial.partition.labels.astype("int64").tobytes()
    return {
        "workload": workload,
        "seed": seed,
        "op": op,
        "trial": index,
        "labels_sha256": hashlib.sha256(labels).hexdigest(),
        "objective": repr(trial.objective),
        "solve_iterations": solve.iterations,
        "recovered": repr(trial.recovered),
        "z": repr(outcome.z),
        "decision": outcome.decision.value,
        "iterations": repr(det.iterations if det else None),
        "rayleigh": repr(det.final_rayleigh if det else None),
        "alignment": repr(det.final_alignment if det else None),
        "lam": repr(det.lam if det else None),
        "confidence_bound": repr(outcome.confidence_bound),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scan_record(workload: str, seed: int, op: int, scan) -> dict:
    """The sha256 of each array of one threshold scan, and its split."""
    record = {"workload": workload, "seed": seed, "op": op, "argmin": scan.argmin}
    for name in ("order", "f"):
        record[f"{name}_sha256"] = hashlib.sha256(getattr(scan, name).tobytes()).hexdigest()
    return record


@contextmanager
def _captured(sites):
    """Record every value returned through the ``(module, name)`` function
    attributes in ``sites`` while the context is open, in call order."""
    results = []
    originals = [(module, name, getattr(module, name)) for module, name in sites]

    def probe(function):
        def wrapper(*args, **kwargs):
            results.append(function(*args, **kwargs))
            return results[-1]

        return wrapper

    for module, name, function in originals:
        setattr(module, name, probe(function))
    try:
        yield results
    finally:
        for module, name, function in originals:
            setattr(module, name, function)


def captured_scans(solvers):
    """Record every scan ``solvers.optimal_threshold_split`` returns while
    the context is open."""
    return _captured([(solvers, "optimal_threshold_split")])


def captured_solves(solvers, cli):
    """Record every SolveResult of Lloyd and the spectral solver, at the
    names the workloads call them through, while the context is open."""
    names = ("lloyd", "spectral_two_means")
    return _captured([(module, name) for module in (solvers, cli) for name in names])


def _blank_column(text: str, name: str) -> str:
    """CSV ``text`` (no quoted cells) with every cell of column ``name`` emptied."""
    rows = [line.split(",") for line in text.splitlines()]
    col = rows[0].index(name)
    for row in rows[1:]:
        row[col] = ""
    return "".join(",".join(row) + "\n" for row in rows)


def sweep_csv_record(cli, workload: str, seed: int, op: int, sweep, inputs) -> dict:
    """The sha256 of the trial and summary CSVs of one sweep op's cell."""
    delta, k, base_seed = inputs
    records, summaries = cli.run_sweep(
        [delta], [k], [sweep.dim], [sweep.per_ball], sweep.trials,
        base_seed=base_seed, solver="lloyd", certify=True, check_alignment=True,
    )
    rows = _blank_column(cli.records_to_csv(records, check_alignment=True), "wall_ms")
    return {
        "workload": workload,
        "seed": seed,
        "op": op,
        "records_csv_sha256": _sha256(rows),
        "summary_csv_sha256": _sha256(cli.summaries_to_csv(summaries)),
    }


def fingerprint():
    """Yield the record of every trial, workload by workload, seed by seed,
    then of each op's threshold scans, and after each sweep op the record of
    its CSVs."""
    sys.path.insert(0, str(BENCH))
    import workloads

    for name, op in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for i in range(OPS):
                inputs = op.prepare(seed, i)
                with captured_scans(workloads.solvers) as scans, \
                        captured_solves(workloads.solvers, workloads.cli) as solves:
                    result = op.run(inputs)
                if len(solves) != len(result.trials):
                    raise RuntimeError(f"{name} op {i}: {len(solves)} solves for {len(result.trials)} trials")
                for index, (trial, solve) in enumerate(zip(result.trials, solves)):
                    yield trial_record(name, seed, i, index, trial, solve)
                for scan in scans:
                    yield scan_record(name, seed, i, scan)
                if isinstance(op, workloads.SweepOp):
                    yield sweep_csv_record(workloads.cli, name, seed, i, op, inputs)


def first_difference(lines_a, lines_b):
    """The (position, line of A, line of B) of the first mismatch, or None;
    a missing line counts as None."""
    for pos in range(max(len(lines_a), len(lines_b))):
        a = lines_a[pos] if pos < len(lines_a) else None
        b = lines_b[pos] if pos < len(lines_b) else None
        if a != b:
            return pos, a, b
    return None


def key_differences(lines_a, lines_b):
    """The number of differing lines and the ``(key, lines)`` counts of the
    JSON keys whose values differ on them, most first; a missing line
    differs in every key of the other file's line."""
    counts = Counter()
    lines = 0
    for a, b in zip_longest(lines_a, lines_b):
        if a == b:
            continue
        lines += 1
        ra, rb = (json.loads(line) if line is not None else {} for line in (a, b))
        counts.update(key for key in {**ra, **rb} if key not in ra or key not in rb or ra[key] != rb[key])
    return lines, counts.most_common()


def decision_changes(lines_a, lines_b):
    """One line per pair of trial records whose decision differs:
    workload, seed, op, trial and the old and new decision."""
    changes = []
    for a, b in zip(lines_a, lines_b):
        if a == b:
            continue
        ra, rb = json.loads(a), json.loads(b)
        if "decision" in ra and "decision" in rb and ra["decision"] != rb["decision"]:
            changes.append(
                f"decision {ra['workload']} seed {ra['seed']} op {ra['op']} trial {ra['trial']}: "
                f"{ra['decision']} -> {rb['decision']}"
            )
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="output JSONL file (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two fingerprint files")
    args = parser.parse_args(argv)

    if args.diff:
        lines = [Path(p).read_text().splitlines() for p in args.diff]
        found = first_difference(*lines)
        if found is None:
            print(f"identical: {len(lines[0])} lines")
            return 0
        pos, a, b = found
        print(f"first difference at line {pos + 1}:\n  A: {a}\n  B: {b}")
        count, keys = key_differences(*lines)
        print(f"{count} lines differ: " + ", ".join(f"{key} {n}" for key, n in keys))
        for line in decision_changes(*lines):
            print(line)
        return 1

    # BLAS reads these when numpy loads; a threaded gemv rounds differently from a serial one
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for record in fingerprint():
            out.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
