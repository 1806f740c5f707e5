"""Pinned outputs: a tripwire for changes in what the library computes.

The literals below were recorded from the library and must match bit for
bit.  A change that alters them on purpose updates the pins and states the
reason in CHANGES.md; any other mismatch means a floating-point expression,
a seed stream or a solver path changed by accident.
"""

import hashlib

import numpy as np
import pytest

from certkmeans.certificate import certify_partition
from certkmeans.cli import main, records_to_csv, run_sweep
from certkmeans.model import BallModelConfig, sample_stochastic_ball_model, standard_centers
from certkmeans.solvers import lloyd

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

# seed -> (sha256 of the int64 labels, repr(objective), repr(z), decision, detector iterations)
K3_TRIALS = {
    1: ("27fb00e505913f04dd8e8f3b592b7474260c139566855e7140dcead9bace03ec",
        "80.3104583102185", "49.58895465872723", "certified_optimal", 56),
    2: ("4202f55065ab47fbb5ed052b7fb0ab873db173f38f779b5eccd686956611c864",
        "83.95445873301902", "31.005005608491906", "not_certified", 1),
    3: ("e960ce93fb8282383e520afb764e57c44e60c0a6974b3310f19008fe0850f190",
        "85.47784737483695", "26.95337138330675", "not_certified", 1),
}

# stdout of `certkmeans certify --use-planted --seed 2` on the generated
# dataset below, with the default epsilon and with --epsilon 1e-6
CERTIFY_STDOUT = {
    (): (
        "partition: planted\n"
        "decision: certified_optimal\n"
        "z: 90.94936873628492\n"
        "epsilon: 4.76837158203125e-07\n"
        "confidence_bound: 0.0234375\n"
        "detector_iterations: 17\n"
    ),
    ("--epsilon", "1e-6"): (
        "partition: planted\n"
        "decision: certified_optimal\n"
        "z: 90.94936873628492\n"
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
    assert main(["certify", "--in", data, "--use-planted", "--seed", "2", *extra]) == 0
    assert capsys.readouterr().out == CERTIFY_STDOUT[extra]
