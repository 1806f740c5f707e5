"""Layered benchmark for certkmeans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify-large --seed 1 --seconds 35 --trace 0

Workloads: certify-large, many-clusters, sweep-small (see workloads.py).
The run repeats ops for ``--seconds`` of wall time, op i drawing its inputs
from (seed, i).  Every op's outputs are checked outside the timed region
against exact recomputation (oracle.py).

Each op's times are also divided by the duration of a fixed reference kernel
(``Gauge``) run just before and after it.  These "ref" units cancel the
machine's own speed drift; BENCHMARK.json bounds them, and the raw seconds
are reported alongside.

``--trace 0`` measures end-to-end metrics with nothing wrapped.  ``--trace 1``
runs each op twice on identical inputs, first untraced and then with spans
around the library's public functions; it requires both runs to reach the
same verdicts and z values, and reports the per-layer metrics and the
tracing overhead.

Output: one JSON line ``{"report": ...}`` with every metric, its unit and
the machine record, then as the last line
``{"correct", "attempted", "failed", "metrics"}`` with the metrics listed in
BENCHMARK.json for the chosen trace mode.  The exit code is 1 when any
certificate was false, 2 when the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 5
# a set-up sample: import the library in a fresh interpreter and build op 0's inputs
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.WORKLOADS[sys.argv[2]].prepare(int(sys.argv[3]), 0)
print(repr(time.perf_counter() - start))
"""

# Bounded in BENCHMARK.json.  Times are in ref units (see Gauge): on a shared
# 2-vCPU machine the speed of the same code drifts by 20-50% over tens of
# seconds, which moves raw times from run to run more than the workloads do.
END_TO_END = {
    "op_ref.tmean": "ref",
    "certify_ref.tmean": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Reported only.  The raw times follow the machine's drift.  The medians sit
# between two modes on many-clusters (stuck Lloyd runs, whose partitions
# certify exits at iteration 0), the tail is the 11th slowest of ~700 ops on
# sweep-small, and the outcome counts can be 0 and move in steps of one op.
REPORTED = {
    "points_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "op_s.tail_percentile": "percentile",
    "op_s.samples": "count",
    "certify_s.p50": "s",
    "certify_s.mean": "s",
    "ref_s.p50": "s",
    "certified_frac": "ratio",
    "recovered_frac": "ratio",
    "missed_cert_frac": "ratio",
    "false_cert": "count",
    "failed_frac": "ratio",
}
PER_LAYER = {
    "model.sample_s": "s",
    "model.partitions_equal_s": "s",
    "solvers.solve_s": "s",
    "solvers.solve_iters": "count",
    "certificate.build_context_s": "s",
    "certificate.apply_A_s": "s",
    "certificate.apply_A_calls": "count",
    "certificate.apply_A_bytes": "B",
    "detector.detect_s": "s",
    "detector.iters": "count",
    "detector.overhead_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
# reported only: layers that some workloads do not exercise (null there), and derived rates
EXTRA_LAYERS = {
    "solvers.spectral2_s": "s",
    "solvers.leading_eigenvector_iters": "count",
    "solvers.threshold_split_s": "s",
    "solvers.lloyd_s": "s",
    "solvers.lloyd_iters": "count",
    "cli.trial_overhead_s": "s",
    "cli.records_to_csv_s": "s",
    "certificate.apply_A_bytes_per_s": "B/s",
}


def single_blas_thread() -> None:
    """Run BLAS on the calling thread; BLAS reads this when numpy loads.

    On a shared 2-vCPU machine a second BLAS thread makes every large
    matrix-vector product wait on the other, separately contended vCPU, and
    the Gauge on the calling thread cannot see that wait.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _l3_bytes() -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            return None
    return None


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "l3_bytes": _l3_bytes(),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times, each from a fresh interpreter (import + op 0 inputs)."""
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count).  Falls back to the median below 21 samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50.0, n
    i = n - 11
    return xs[i], 100.0 * i / (n - 1), n


class Gauge:
    """A fixed kernel of interpreter, small-numpy and cache-bound numpy work
    (no library code) whose duration tracks the machine's current speed."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._norm = np.linalg.norm
        self._phi = rng.normal(size=(6, 8192))
        self._x = rng.normal(size=8192)
        self._big = rng.normal(size=2**17)

    def seconds(self) -> float:
        start = perf_counter()
        counts = {}
        for i in range(2000):
            counts[i & 63] = counts.get(i & 63, 0) + i
        x = self._x
        for _ in range(20):
            x = self._phi.T @ (self._phi @ x)
            x /= self._norm(x)
        big = self._big
        for _ in range(3):
            big = big * 0.5 + big[::-1]
        return perf_counter() - start


def trimmed_mean(values, share: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``share`` of the values."""
    xs = sorted(values)
    cut = int(share * len(xs))
    return statistics.fmean(xs[cut : len(xs) - cut])


def verdicts(result) -> list:
    return [(t.outcome.decision, t.outcome.z) for t in result.trials]


def measure(workloads, op, seed: int, seconds: float, tracer) -> dict:
    """Run ops until ``seconds`` of wall time have passed; check each one."""
    gauge = Gauge()
    run = {"op_s": [], "traced_op_s": [], "certify_s": [], "points": 0, "attempted": 0,
           "failed": 0, "trials": 0, "certified": 0, "recovered": 0, "missed": 0, "false_cert": 0,
           "ref_s": [], "op_ref": [], "certify_ref": []}
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        run["attempted"] += 1
        try:
            inputs = op.prepare(seed, i)
            ref = gauge.seconds()
            result = op.run(inputs)
            ref = 0.5 * (ref + gauge.seconds())
            problems = list(result.problems)
            if tracer is not None:
                with tracer.installed(workloads.SITES, i):
                    traced = op.run(op.prepare(seed, i))
                run["traced_op_s"].append(traced.seconds)
                if verdicts(traced) != verdicts(result):
                    problems.append("traced run reached different verdicts or z")
            checks = [workloads.check_trial(t) for t in result.trials]
        except Exception:
            traceback.print_exc()
            run["failed"] += 1
            i += 1
            continue
        for c in checks:
            problems += c.problems
            run["certified"] += c.certified
            run["recovered"] += c.recovered
            run["missed"] += c.missed_cert
            run["false_cert"] += c.false_cert
        run["trials"] += len(checks)
        if problems:
            print(f"op {i}: " + "; ".join(problems), file=sys.stderr)
            run["failed"] += 1
        run["op_s"].append(result.seconds)
        run["certify_s"].extend(result.certify_seconds)
        run["points"] += result.points
        run["ref_s"].append(ref)
        run["op_ref"].append(result.seconds / ref)
        run["certify_ref"].extend(c / ref for c in result.certify_seconds)
        i += 1
    return run


def end_to_end(run: dict) -> dict:
    trials = max(run["trials"], 1)
    metrics = {
        "certified_frac": run["certified"] / trials,
        "recovered_frac": run["recovered"] / trials,
        "missed_cert_frac": run["missed"] / trials,
        "false_cert": run["false_cert"],
        "failed_frac": run["failed"] / run["attempted"],
    }
    if run["op_s"]:
        value, pct, n = tail(run["op_s"])
        metrics.update({
            "op_s.p50": statistics.median(run["op_s"]),
            "op_s.tail": value,
            "op_s.tail_percentile": pct,
            "op_s.samples": n,
            "points_per_s": run["points"] / sum(run["op_s"]),
        })
    if run["certify_s"]:
        metrics["certify_s.p50"] = statistics.median(run["certify_s"])
        metrics["certify_s.mean"] = statistics.fmean(run["certify_s"])
    if run["op_ref"]:
        metrics["ref_s.p50"] = statistics.median(run["ref_s"])
        metrics["op_ref.tmean"] = trimmed_mean(run["op_ref"])
        metrics["certify_ref.tmean"] = trimmed_mean(run["certify_ref"])
    return metrics


def layer_metrics(tracer, run: dict) -> dict:
    def med(values):
        return statistics.median(values) if values else None

    def secs(*layers):
        return med([s.seconds for s in tracer.of(*layers)])

    def counts(*layers):
        return med([s.count for s in tracer.of(*layers)])

    detect = tracer.of("detector.detect")
    apply_a = ["certificate.apply_A"]
    moved = [s.count / s.seconds for s in tracer.of(*apply_a)]
    return {
        "model.sample_s": secs("model.sample"),
        "model.partitions_equal_s": secs("model.partitions_equal"),
        "solvers.solve_s": secs("solvers.spectral2", "solvers.lloyd"),
        "solvers.solve_iters": counts("solvers.spectral2", "solvers.lloyd"),
        "certificate.build_context_s": secs("certificate.build_context"),
        "certificate.apply_A_s": secs("certificate.apply_A"),
        "certificate.apply_A_calls": med([sum(c.layer in apply_a for c in d.children) for d in detect]),
        "certificate.apply_A_bytes": counts("certificate.apply_A"),
        "detector.detect_s": secs("detector.detect"),
        "detector.iters": counts("detector.detect"),
        "detector.overhead_frac": med([1.0 - d.child_seconds(apply_a) / d.seconds for d in detect]),
        "trace.overhead_frac": sum(run["traced_op_s"]) / sum(run["op_s"]) - 1.0 if run["op_s"] else None,
        "solvers.spectral2_s": secs("solvers.spectral2"),
        "solvers.leading_eigenvector_iters": counts("solvers.leading_eigenvector"),
        "solvers.threshold_split_s": secs("solvers.threshold_split"),
        "solvers.lloyd_s": secs("solvers.lloyd"),
        "solvers.lloyd_iters": counts("solvers.lloyd"),
        "cli.trial_overhead_s": med([t.seconds - t.child_seconds() for t in tracer.of("cli.run_trial")]),
        "cli.records_to_csv_s": secs("cli.records_to_csv"),
        "certificate.apply_A_bytes_per_s": med(moved),
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify-large", "many-clusters", "sweep-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    single_blas_thread()
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load certkmeans from this checkout: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    run = measure(workloads, workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer)

    values = end_to_end(run)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = dict(END_TO_END, **REPORTED)
    if setup:
        values["setup_s"] = statistics.median(setup)
    else:
        del units["setup_s"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "end_to_end": with_units(values, units),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, run)
        report["per_layer"] = with_units(layers, dict(PER_LAYER, **EXTRA_LAYERS))
        l3 = report["machine"]["l3_bytes"]
        working_set = layers["certificate.apply_A_bytes"]
        report["per_layer_note"] = (
            "certificate.apply_A_bytes (and its rate) is computed from array sizes, not measured; "
            + (f"the {working_set / 2**20:.1f} MiB it touches fits in the {l3 / 2**20:.0f} MiB L3, "
               "so apply_A bandwidth is cache bandwidth"
               if l3 and working_set and working_set <= l3 else "")
        )
        listed, chosen = layers, PER_LAYER
    else:
        listed, chosen = values, END_TO_END
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": listed[n], "unit": u} for n, u in chosen.items() if listed.get(n) is not None},
    }))
    return 1 if run["false_cert"] else 0


if __name__ == "__main__":
    sys.exit(main())
