import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def test_diff_reports_first_difference(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    a.write_text('{"op": 0}\n{"op": 1}\n')
    b.write_text('{"op": 0}\n{"op": 1}\n')
    c.write_text('{"op": 0}\n{"op": 2}\n{"op": 3}\n')
    assert fingerprint.main(["--diff", str(a), str(b)]) == 0
    assert "identical: 2 lines" in capsys.readouterr().out
    assert fingerprint.main(["--diff", str(a), str(c)]) == 1
    out = capsys.readouterr().out
    assert out == 'first difference at line 2:\n  A: {"op": 1}\n  B: {"op": 2}\n2 lines differ: op 2\n'
    d, e = tmp_path / "d.jsonl", tmp_path / "e.jsonl"
    d.write_text('{"lam": "1.0", "iterations": 3}\n{"lam": "2.0", "iterations": 4}\n{"lam": "3.0"}\n')
    e.write_text('{"lam": "1.5", "iterations": 3}\n{"lam": "2.5", "iterations": 5}\n{"lam": "3.0"}\n')
    assert fingerprint.main(["--diff", str(d), str(e)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 lines differ: lam 2, iterations 1"
    f, g = tmp_path / "f.jsonl", tmp_path / "g.jsonl"
    trial = '{{"workload": "w", "seed": 7, "op": {}, "trial": 1, "decision": "{}", "z": "{}"}}\n'.format
    f.write_text(trial(3, "not_certified", 1.0) + trial(4, "certified_optimal", 2.0) + '{"op": 5}\n')
    g.write_text(trial(3, "certified_optimal", 1.5) + trial(4, "certified_optimal", 2.5) + '{"op": 6}\n')
    assert fingerprint.main(["--diff", str(f), str(g)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "3 lines differ: z 2, decision 1, op 1",
        "decision w seed 7 op 3 trial 1: not_certified -> certified_optimal",
    ]


def test_missing_line_counts_as_difference():
    assert fingerprint.first_difference(["x"], ["x", "y"]) == (1, None, "y")
    assert fingerprint.first_difference(["x"], ["x"]) is None


def test_sweep_csv_record_ignores_wall_time():
    from types import SimpleNamespace

    from certkmeans import cli

    assert fingerprint._blank_column("a,wall_ms,b\n1,2.5,3\n", "wall_ms") == "a,wall_ms,b\n1,,3\n"
    sweep = SimpleNamespace(dim=4, per_ball=8, trials=2)
    first, second = (fingerprint.sweep_csv_record(cli, "sweep", 7, 0, sweep, (2.5, 2, 7)) for _ in range(2))
    assert first == second
    _, summaries = cli.run_sweep([2.5], [2], [4], [8], 2, base_seed=7, certify=True)
    assert first["summary_csv_sha256"] == fingerprint._sha256(cli.summaries_to_csv(summaries))


def test_scan_record_hashes_every_scan_array():
    import numpy as np

    from certkmeans import solvers
    from certkmeans.model import PointSet

    points = PointSet(np.array([[0.0, 1.0, 10.0, 11.0]]))
    with fingerprint.captured_scans(solvers) as scans:
        solvers.spectral_two_means(points)
    assert solvers.optimal_threshold_split.__name__ == "optimal_threshold_split"
    assert len(scans) == 1
    record = fingerprint.scan_record("w", 7, 0, scans[0])
    assert record["argmin"] == 2
    assert record["f_sha256"] == fingerprint.hashlib.sha256(scans[0].f.tobytes()).hexdigest()
    assert {key for key in record if key.endswith("_sha256")} == {"order_sha256", "f_sha256"}


def test_captured_solves_records_each_solve_and_restores_names():
    import numpy as np

    from certkmeans import cli, solvers
    from certkmeans.model import PointSet

    points = PointSet(np.array([[0.0, 1.0, 10.0, 11.0]]))
    with fingerprint.captured_solves(solvers, cli) as solves:
        solvers.lloyd(points, 2)
        cli.lloyd(points, 2, seed=1)
        solvers.spectral_two_means(points)
    assert [s.solver_tag for s in solves] == ["lloyd", "lloyd", "spectral2"]
    assert cli.lloyd is solvers.lloyd
    assert solvers.lloyd.__name__ == "lloyd"
    assert cli.spectral_two_means is solvers.spectral_two_means
