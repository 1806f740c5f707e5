"""Pinned outputs: a tripwire for changes in what the library computes.

The literals below were recorded from the library and must match bit for
bit.  A change that alters them on purpose updates the pins and states the
reason in CHANGES.md; any other mismatch means a floating-point expression,
a seed stream or a solver path changed by accident.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from certkmeans.certificate import build_certificate_context, certify_partition
from certkmeans.cli import main, records_to_csv, run_sweep, summaries_to_csv
from certkmeans.model import BallModelConfig, sample_stochastic_ball_model, standard_centers
from certkmeans.solvers import lloyd, spectral_two_means

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402

HEADER = (
    "trial_id,seed,m,k,n,delta,solver,objective,recovered,"
    "cert_decision,detector_iters,epsilon,confidence_bound"
)

SWEEP_CELLS = [
    (
        (2.3, 2, 6, 64, 4, 11),
        [
            "0,11400714819323198496,6,2,64,2.3,lloyd,93.29279457226049,true,certified_optimal,9,4.76837158203125e-07,0.0234375",
            "1,4354685564936845365,6,2,64,2.3,lloyd,92.1454047378141,true,certified_optimal,7,4.76837158203125e-07,0.0234375",
            "2,15755400384260043850,6,2,64,2.3,lloyd,98.32870188030972,true,certified_optimal,14,4.76837158203125e-07,0.0234375",
            "3,8709371129873690719,6,2,64,2.3,lloyd,94.08672526403092,true,certified_optimal,11,4.76837158203125e-07,0.0234375",
        ],
    ),
    (
        (2.0, 3, 6, 64, 4, 12),
        [
            "0,11400714819323198497,6,3,64,2.0,lloyd,143.87400191475945,true,not_certified,2,1.4128508391203703e-07,0.015625",
            "1,4354685564936845366,6,3,64,2.0,lloyd,146.6988612936083,true,not_certified,1,1.4128508391203703e-07,0.015625",
            "2,15755400384260043851,6,3,64,2.0,lloyd,144.20013811399667,true,not_certified,1,1.4128508391203703e-07,0.015625",
            "3,8709371129873690720,6,3,64,2.0,lloyd,139.1764413209157,true,not_certified,3,1.4128508391203703e-07,0.015625",
        ],
    ),
]

# summaries_to_csv of run_sweep([2.0, 2.6], [3], [6], [16], 4, base_seed=23, certify=True)
SUMMARY_CSV = (
    "delta,k,m,n,trials,errors,certified_rate,recovered_rate\n"
    "2.0,3,6,16,4,0,0.25,0.75\n"
    "2.6,3,6,16,4,0,1.0,1.0\n"
)

# seed -> (sha256 of the int64 labels, repr(objective), repr(z), decision, detector iterations)
K3_TRIALS = {
    1: ("27fb00e505913f04dd8e8f3b592b7474260c139566855e7140dcead9bace03ec",
        "80.3104583102185", "49.58895465872725", "certified_optimal", 56),
    2: ("4202f55065ab47fbb5ed052b7fb0ab873db173f38f779b5eccd686956611c864",
        "83.95445873301902", "31.00500560849192", "not_certified", 1),
    3: ("e960ce93fb8282383e520afb764e57c44e60c0a6974b3310f19008fe0850f190",
        "85.47784737483695", "26.953371383306756", "not_certified", 1),
}

# stdout of `certkmeans certify --solver planted --seed 2` on the generated
# dataset below, with the default epsilon and with --epsilon 1e-6
CERTIFY_STDOUT = {
    (): (
        "partition: planted\n"
        "decision: certified_optimal\n"
        "z: 90.94936873628488\n"
        "epsilon: 4.76837158203125e-07\n"
        "confidence_bound: 0.0234375\n"
        "detector_iterations: 17\n"
    ),
    ("--epsilon", "1e-6"): (
        "partition: planted\n"
        "decision: certified_optimal\n"
        "z: 90.94936873628488\n"
        "epsilon: 1e-06\n"
        "confidence_bound: 0.03394112549695428\n"
        "detector_iterations: 16\n"
    ),
}


@pytest.mark.parametrize("cell, rows", SWEEP_CELLS)
def test_sweep_cell_csv(cell, rows):
    delta, k, m, n, trials, seed = cell
    records, _ = run_sweep([delta], [k], [m], [n], trials, base_seed=seed, solver="lloyd", certify=True)
    lines = [line.rsplit(",", 1)[0] for line in records_to_csv(records).splitlines()]  # drop wall_ms
    assert lines == [HEADER] + rows


def test_summary_csv():
    _, summaries = run_sweep([2.0, 2.6], [3], [6], [16], 4, base_seed=23, certify=True)
    assert summaries_to_csv(summaries) == SUMMARY_CSV


@pytest.mark.parametrize("seed", sorted(K3_TRIALS))
def test_sample_lloyd_certify(seed):
    config = BallModelConfig(centers=standard_centers(3, 5, 2.1), per_ball=40, seed=seed)
    dataset = sample_stochastic_ball_model(config)
    result = lloyd(dataset.points, 3, seed=seed + 100)
    outcome = certify_partition(dataset.points, result.partition, seed=seed + 200)
    labels = np.asarray(result.partition.labels, dtype=np.int64).tobytes()
    got = (
        hashlib.sha256(labels).hexdigest(),
        repr(result.objective),
        repr(outcome.z),
        outcome.decision.value,
        outcome.detector.iterations,
    )
    assert got == K3_TRIALS[seed]


@pytest.mark.parametrize("extra", sorted(CERTIFY_STDOUT))
def test_certify_stdout(tmp_path, capsys, extra):
    data = str(tmp_path / "data.csv")
    generate = ["generate", "--dim", "6", "--clusters", "2", "--per-ball", "64", "--delta", "2.3", "--seed", "7"]
    assert main(generate + ["--out", data]) == 0
    capsys.readouterr()
    assert main(["certify", "--in", data, "--solver", "planted", "--seed", "2", *extra]) == 0
    assert capsys.readouterr().out == CERTIFY_STDOUT[extra]

# (solver, k, m, delta, N, seed) -> (sha256 of the int64 labels, repr(z),
# decision, detector iterations, oracle.exact_spectrum(...).certifiable).
# A row whose decision is not_certified while the oracle flag is True is a
# known false NOT_CERTIFIED: the detector misses a valid certificate there.
VERDICT_TABLE = {
    ("spectral2", 2, 6, 2.3, 2**14, 0): (
        "a8a8bace783f0b0ef3b5693572de975e0be5e695a7b19bc620b68ad460d7cf73",
        "7553.695061288987", "certified_optimal", 27, True),
    ("spectral2", 2, 6, 2.3, 2**14, 1): (
        "bc70a833973c13e02c4f2b950805f70e2a1945c1bec2ab39e2480775cc3b33c4",
        "8451.018941531569", "certified_optimal", 30, True),
    ("spectral2", 2, 6, 2.3, 2**14, 2): (
        "bc70a833973c13e02c4f2b950805f70e2a1945c1bec2ab39e2480775cc3b33c4",
        "7800.990903697889", "certified_optimal", 32, True),
    ("spectral2", 2, 6, 2.3, 2**14, 3): (
        "a8a8bace783f0b0ef3b5693572de975e0be5e695a7b19bc620b68ad460d7cf73",
        "7020.826033948104", "certified_optimal", 37, True),
    ("spectral2", 2, 6, 2.3, 2**16, 0): (
        "b478c99d9e805f24c4c4f6af5b3813bb2de926a39f5d4810b81248f94d3a3429",
        "26773.082381583263", "certified_optimal", 64, True),
    ("spectral2", 2, 6, 2.3, 2**16, 1): (
        "b478c99d9e805f24c4c4f6af5b3813bb2de926a39f5d4810b81248f94d3a3429",
        "28491.88108483808", "not_certified", 41, True),
    ("spectral2", 2, 6, 2.3, 2**16, 2): (
        "1b3160a4d1aedb090046134e213782f1cf06356b8dbb05b9c3314e10b5ee78cb",
        "24424.08286660888", "certified_optimal", 68, True),
    ("spectral2", 2, 6, 2.3, 2**16, 3): (
        "b478c99d9e805f24c4c4f6af5b3813bb2de926a39f5d4810b81248f94d3a3429",
        "30539.862652127274", "not_certified", 38, True),
    ("lloyd", 10, 50, 5.0, 20480, 0): (
        "a1de9f2b6ee9bd71260bf1a8f898628ee8b73da89cf806213a3c6bfbc216ac13",
        "0.37691912971277636", "not_certified", 0, False),
    ("lloyd", 10, 50, 5.0, 20480, 1): (
        "0decb8edd1efc45c4ef7fd55e4b77b27b26a1c14780b37f6174b91d1e20aafec",
        "40101.83998443443", "not_certified", 8, True),
    ("lloyd", 10, 50, 5.0, 20480, 2): (
        "96f5d81b5bc2b646157a925ab9f9e0fa69a8f88965abda2b998c1a7c2fb2291e",
        "38868.64153660518", "certified_optimal", 7, True),
}


def verdict_row(solver, k, m, delta, n, seed):
    """Sample, solve and certify one planted instance: data seed ``seed``,
    solver seed + 100, detector seed + 200.  Returns the labels' sha256,
    repr(z), the decision, the detector iterations and the exact oracle's
    certifiable flag."""
    config = BallModelConfig(centers=standard_centers(k, m, delta), per_ball=n // k, seed=seed)
    points = sample_stochastic_ball_model(config).points
    if solver == "spectral2":
        result = spectral_two_means(points, seed=seed + 100)
    else:
        result = lloyd(points, k, seed=seed + 100)
    outcome = certify_partition(points, result.partition, seed=seed + 200)
    ctx = build_certificate_context(points, result.partition)
    certifiable = not ctx.is_undefined and oracle.exact_spectrum(ctx).certifiable
    labels = np.asarray(result.partition.labels, dtype=np.int64).tobytes()
    iterations = outcome.detector.iterations if outcome.detector else None
    return (hashlib.sha256(labels).hexdigest(), repr(outcome.z), outcome.decision.value, iterations, certifiable)


@pytest.mark.parametrize("row", sorted(VERDICT_TABLE), ids=lambda r: f"{r[0]}-k{r[1]}-N{r[4]}-seed{r[5]}")
def test_verdict_table(row):
    assert verdict_row(*row) == VERDICT_TABLE[row]
