import dataclasses
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import certkmeans
from certkmeans import cli
from certkmeans.cli import (
    GAMMA,
    TRIAL_CSV_HEADER,
    derive_streams,
    derive_trial_seed,
    main,
    parse_records_csv,
    records_to_csv,
    run_sweep,
    run_trial,
    summaries_to_csv,
    summarize_records,
)
from certkmeans.model import BallModelConfig, TWO_POINT_SYM, read_dataset_csv


def figure_config(m=6, k=2, n=256, delta=2.3):
    from certkmeans.model import standard_centers

    return BallModelConfig(centers=standard_centers(k, m, delta), per_ball=n)


class TestSeeding:
    def test_trial_seed_injective(self):
        seeds = {derive_trial_seed(12345, i) for i in range(2000)}
        assert len(seeds) == 2000

    def test_gamma_is_odd(self):
        assert GAMMA % 2 == 1

    def test_streams_deterministic_and_distinct(self):
        s = derive_streams(99)
        assert s == derive_streams(99)
        assert len({s.sample, s.solver, s.detector}) == 3


class TestRunTrial:
    def test_figure_regime(self):
        rec = run_trial(figure_config(), solver="spectral2", certify=True, seed=123)
        assert rec.recovered_planted is True
        assert rec.cert_decision == "certified_optimal"
        assert rec.detector_iters is not None and rec.detector_iters >= 0
        assert rec.epsilon == pytest.approx(512.0**-3)
        assert rec.wall_ms >= 0.0

    def test_solver_guard(self):
        cfg = figure_config(m=6, k=3, n=8, delta=3.0)
        with pytest.raises(ValueError):
            run_trial(cfg, solver="spectral2")

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver 'annealing'"):
            run_trial(figure_config(n=4), solver="annealing")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: run_sweep([], [2], [2], [4], trials=1), "grid must be nonempty"),
            (lambda: run_sweep([3.0], [2], [2], [4], trials=0), "need at least one trial per cell"),
        ],
        ids=["grid", "trials"],
    )
    def test_sweep_rejected(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_deterministic_given_seed(self):
        cfg = figure_config(n=16)
        a = run_trial(cfg, solver="lloyd", certify=True, seed=5)
        b = run_trial(cfg, solver="lloyd", certify=True, seed=5)
        assert dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)

    def test_two_point_quarter_mass_not_recovered(self):
        # find a trial seed whose sampler stream lands exactly n/2 draws on
        # each endpoint of both balls, then the best split makes one
        # extreme location its own cluster and planted recovery fails
        from certkmeans.model import sample_stochastic_ball_model, standard_centers

        delta = 2.5
        cfg = BallModelConfig(
            centers=standard_centers(2, 1, delta), per_ball=4, distribution=TWO_POINT_SYM
        )
        found = None
        for seed in range(500):
            streams = derive_streams(seed)
            ds = sample_stochastic_ball_model(dataclasses.replace(cfg, seed=streams.sample))
            values = np.round(ds.points.columns[0], 12)
            counts = [np.sum(values == v) for v in (-2.25, -0.25, 0.25, 2.25)]
            if counts == [2, 2, 2, 2]:
                found = seed
                break
        assert found is not None
        rec = run_trial(cfg, solver="bruteforce", seed=found)
        assert rec.recovered_planted is False

    def test_alignment_column(self):
        rec = run_trial(figure_config(n=32), solver="lloyd", seed=1, check_alignment=True)
        assert rec.alignment_ok is True


class TestSweep:
    def test_single_cell_matches_run_trial(self):
        records, summaries = run_sweep([2.5], [2], [4], [16], trials=3, base_seed=7, solver="lloyd", certify=True)
        assert len(records) == 3
        cfg = figure_config(m=4, k=2, n=16, delta=2.5)
        for i, rec in enumerate(records):
            seed = derive_trial_seed(7, i)
            solo = run_trial(cfg, solver="lloyd", certify=True, seed=seed, trial_id=i)
            assert dataclasses.replace(rec, wall_ms=0.0) == dataclasses.replace(solo, wall_ms=0.0)
        assert summaries[0].trials == 3

    def test_rerun_identical_except_wall(self):
        args = dict(trials=2, base_seed=3, solver="spectral2", certify=True)
        rec1, _ = run_sweep([2.2, 2.8], [2], [6], [16], **args)
        rec2, _ = run_sweep([2.2, 2.8], [2], [6], [16], **args)
        for a, b in zip(rec1, rec2):
            assert dataclasses.replace(a, wall_ms=0.0) == dataclasses.replace(b, wall_ms=0.0)

    def test_seeds_unique_within_sweep(self):
        records, _ = run_sweep([2.0, 2.5], [2], [2, 4], [8], trials=4, base_seed=11)
        seeds = [r.seed for r in records]
        assert len(set(seeds)) == len(seeds)

    def test_error_rows_recorded(self):
        records, summaries = run_sweep([3.0], [3], [6], [6], trials=2, base_seed=1, solver="spectral2")
        assert all(r.cert_decision == "error" for r in records)
        assert all(r.objective is None for r in records)
        assert summaries[0].errors == 2

    def test_grid_delta_recorded_for_every_row(self, monkeypatch):
        # at k = 3 the placement's own separation for 2.8 is 2.7999999999999994;
        # success and error rows of one cell must all read the grid value
        calls = []
        real_lloyd = cli.lloyd

        def flaky_lloyd(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("injected solver failure")
            return real_lloyd(*args, **kwargs)

        monkeypatch.setattr(cli, "lloyd", flaky_lloyd)
        records, summaries = run_sweep([2.8], [3], [6], [8], trials=3, base_seed=4, certify=True)
        assert [r.cert_decision == "error" for r in records] == [False, True, False]
        assert [repr(r.delta) for r in records] == ["2.8"] * 3
        assert [(s.delta, s.trials, s.errors) for s in summaries] == [(2.8, 3, 1)]

    def test_aggregates_equal_recomputation(self):
        records, summaries = run_sweep([2.4, 3.0], [2], [4], [12], trials=3, base_seed=2, certify=True)
        assert summaries == summarize_records(records)
        assert summaries == summarize_records(parse_records_csv(records_to_csv(records)))

    def test_planted_certification_curve_increases_with_delta(self):
        # certification of the generative labels never degrades as the
        # balls separate; at k=2, m=20 the whole window is certifiable
        deltas = [2.0 + 0.1 * i for i in range(11)]
        records, summaries = run_sweep(
            deltas, [2], [20], [100], trials=10, base_seed=31, solver="planted", certify=True
        )
        assert all(r.recovered_planted for r in records)  # planted source is trivially recovered
        rates = [s.certified_rate for s in summaries]
        assert rates[-1] >= 0.9
        assert sum(rates[-3:]) / 3.0 >= sum(rates[:3]) / 3.0

    def test_certification_transition_at_larger_k(self):
        # more clusters push the certifiable region to larger separations,
        # so a genuine 0-to-1 transition appears inside the window
        _, summaries = run_sweep(
            [2.0, 2.5, 3.0], [10], [20], [100], trials=5, base_seed=31, solver="planted", certify=True
        )
        rates = [s.certified_rate for s in summaries]
        assert rates[0] <= 0.2
        assert rates[-1] >= 0.8
        assert all(s.errors == 0 for s in summaries)


class TestCsvSchema:
    def test_header_exact(self):
        assert TRIAL_CSV_HEADER == (
            "trial_id,seed,m,k,n,delta,solver,objective,recovered,"
            "cert_decision,detector_iters,epsilon,confidence_bound,wall_ms"
        )
        records, _ = run_sweep([2.5], [2], [2], [4], trials=1, base_seed=0)
        assert records_to_csv(records).splitlines()[0] == TRIAL_CSV_HEADER

    def test_round_trip(self):
        # np.float64 is a float subclass whose own repr, "np.float64(1e-05)",
        # parse_records_csv cannot read; spectral2 fails at k = 3, and its error
        # rows hold None in every optional field, alignment_ok included
        seen = []
        for solver, epsilon, check_alignment in (
            ("lloyd", None, False),
            ("lloyd", np.float64(1e-5), False),
            ("lloyd", None, True),
            ("spectral2", None, True),
        ):
            records, _ = run_sweep([2.5, 3.1], [2, 3], [3], [8], trials=2, base_seed=9, solver=solver,
                                   certify=True, epsilon=epsilon, check_alignment=check_alignment)
            back = parse_records_csv(records_to_csv(records, check_alignment=check_alignment))
            assert [dataclasses.replace(r, error=None) for r in records] == back
            seen.append(back)
        errors = [r for r in seen[3] if r.cert_decision == "error"]
        assert len(errors) == 4
        results = [(r.objective, r.recovered_planted, r.detector_iters, r.epsilon, r.confidence_bound, r.alignment_ok)
                   for r in errors]
        assert results == [(None,) * 6] * 4
        assert {r.alignment_ok for r in seen[2]} == {True, None}

    @pytest.mark.parametrize("column", ["trial_id", "seed", "m", "k", "n", "delta", "wall_ms"])
    def test_blank_required_cell_rejected(self, column):
        records, _ = run_sweep([2.5], [2], [2], [4], trials=1, base_seed=0)
        header, row = records_to_csv(records).splitlines()
        cells = row.split(",")
        cells[header.split(",").index(column)] = ""
        with pytest.raises(ValueError):
            parse_records_csv(header + "\n" + ",".join(cells) + "\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "trial_id,seed\n",
            TRIAL_CSV_HEADER + ",alignment_ok,extra\n",
            TRIAL_CSV_HEADER + "\n0,1,2,2,4,2.5,lloyd,,,error,,,\n",  # one cell short
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_records_csv(text)

    @pytest.mark.parametrize("cell", ["True", "yes", "1", "FALSE"])
    def test_bool_cell_other_than_true_false_rejected(self, cell):
        # a misspelt flag must not read as False
        records, _ = run_sweep([2.5], [2], [2], [4], trials=1, base_seed=0, check_alignment=True)
        header, row = records_to_csv(records, check_alignment=True).splitlines()
        for column in ("recovered", "alignment_ok"):
            cells = row.split(",")
            cells[header.split(",").index(column)] = cell
            with pytest.raises(ValueError):
                parse_records_csv(header + "\n" + ",".join(cells) + "\n")

    def test_alignment_column_appended(self):
        records, _ = run_sweep([2.5], [2], [4], [8], trials=1, base_seed=4, check_alignment=True)
        text = records_to_csv(records, check_alignment=True)
        assert text.splitlines()[0] == TRIAL_CSV_HEADER + ",alignment_ok"
        back = parse_records_csv(text)
        assert back[0].alignment_ok is not None

    def test_summary_csv(self):
        records, summaries = run_sweep([2.5], [2], [4], [8], trials=2, base_seed=4)
        text = summaries_to_csv(summaries)
        assert text.splitlines()[0] == "delta,k,m,n,trials,errors,certified_rate,recovered_rate"


class TestCommandLine:
    def test_generate_solve_certify(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rc = main(
            [
                "generate",
                "--dim", "6",
                "--clusters", "2",
                "--per-ball", "64",
                "--delta", "2.6",
                "--seed", "5",
                "--out", str(data),
            ]
        )
        assert rc == 0
        ds = read_dataset_csv(str(data))
        assert ds.points.count == 128
        assert ds.planted is not None

        rc = main(["solve", "--in", str(data), "--solver", "spectral2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective:" in out and "recovered_planted: True" in out

        rc = main(["certify", "--in", str(data), "--solver", "planted", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decision: certified_optimal" in out

    def test_sweep_files_and_config(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        cells = tmp_path / "cells.csv"
        config = tmp_path / "sweep.args"
        config.write_text("--trials=2\n--per-ball=8\n--dim\n4\n")
        rc = main(
            [
                "sweep",
                f"@{config}",
                "--delta", "2.5,3.0",
                "--clusters", "2",
                "--seed", "3",
                "--certify",
                "--out", str(rows),
                "--summary-out", str(cells),
            ]
        )
        assert rc == 0
        records = parse_records_csv(rows.read_text())
        assert len(records) == 4  # 2 deltas x 2 trials
        assert cells.read_text().splitlines()[0].startswith("delta,")
        # the summary path can come from the argument file as well
        file_cells = tmp_path / "file_cells.csv"
        config.write_text(f"--trials=2\n--per-ball=8\n--dim=4\n--summary-out={file_cells}\n")
        rc = main(["sweep", f"@{config}", "--delta", "2.5,3.0", "--clusters", "2", "--seed", "3",
                   "--certify", "--out", str(rows)])
        assert rc == 0
        assert file_cells.read_text() == cells.read_text()

    def test_sweep_stdout_is_the_trial_csv(self, capsys):
        # without --out, stdout holds the per-trial CSV alone; the per-cell
        # lines go to stderr, so `certkmeans sweep > rows.csv` parses back
        argv = ["sweep", "--delta", "2.5,3.0", "--clusters", "2,3", "--dim", "6", "--per-ball", "8",
                "--trials", "2", "--seed", "3", "--certify", "--check-alignment"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        records, summaries = run_sweep([2.5, 3.0], [2, 3], [6], [8], 2, base_seed=3, certify=True, check_alignment=True)
        back = parse_records_csv(captured.out)
        assert [dataclasses.replace(r, wall_ms=0.0) for r in back] == [
            dataclasses.replace(r, wall_ms=0.0, error=None) for r in records
        ]
        assert [line.split(":")[0] for line in captured.err.splitlines()] == [
            f"cell delta={s.delta:g} k={s.k} m={s.m} n={s.n}" for s in summaries
        ]

    def test_sweep_strict_exit_code(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--delta", "3.0",
                "--clusters", "3",
                "--dim", "6",
                "--per-ball", "6",
                "--trials", "1",
                "--solver", "spectral2",
                "--strict",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 3
        config = tmp_path / "strict.args"
        config.write_text("--strict\n")
        rc = main(
            [
                "sweep",
                f"@{config}",
                "--delta", "3.0",
                "--clusters", "3",
                "--dim", "6",
                "--per-ball", "6",
                "--trials", "1",
                "--solver", "spectral2",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 3
        # a dimension the sampler rejects gives one error row per trial, not a traceback
        rc = main(["sweep", "--delta", "2.5", "--dim", "0", "--per-ball", "3", "--trials", "2", "--strict",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        records, _ = run_sweep([2.5], [2], [0], [3], trials=2)
        assert [(r.cert_decision, r.error) for r in records] == [("error", "need m >= 1")] * 2

    def test_sweep_times_planted_certification(self, capsys):
        # certification wall time across sizes: one row per trial, n is points per ball
        rc = main(["sweep", "--delta", "2.6", "--clusters", "2", "--dim", "4", "--per-ball", "32,64",
                   "--trials", "2", "--seed", "1", "--solver", "planted", "--certify"])
        assert rc == 0
        records = parse_records_csv(capsys.readouterr().out)
        assert [r.n for r in records] == [32, 32, 64, 64]
        for r in records:
            assert r.solver_tag == "planted" and r.recovered_planted
            assert r.cert_decision in {"certified_optimal", "not_certified", "inconclusive"}
            assert r.wall_ms > 0.0

    def test_invalid_arguments_exit_2(self, tmp_path, capsys):
        for argv in (
            ["solve", "--nonsense"],
            ["sweep", "--delta", "1:2"],
            ["sweep", "--delta", "1:2:0"],
            ["sweep", "--delta", "2.5", "--clusters", "a"],
            ["sweep", "--delta", "2.5", "--per-ball", "64,x"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err.splitlines()[-1].startswith("certkmeans"), argv
        # values argparse accepts but the library or the command rejects: one error line, no traceback
        for argv, message in (
            (["generate", "--dim", "0", "--out", str(tmp_path / "x.csv")], "need m >= 1"),
            (["sweep", "--delta", "3:2:0.5"], "grid must be nonempty"),
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: ") and message in captured.err and captured.err.count("\n") == 1, argv

    @pytest.mark.parametrize(
        "text, values",
        [
            # the range form the README documents; equal, bit for bit, to the
            # delta grid of the benchmark's sweep-small workload
            ("2.0:3.0:0.1", [2.0 + 0.1 * i for i in range(11)]),
            ("2:3:0.5", [2.0, 2.5, 3.0]),
        ],
    )
    def test_delta_range(self, text, values):
        assert cli.build_parser().parse_args(["sweep", "--delta", text]).delta == values

    def test_missing_required_returns_2(self, tmp_path, capsys, three_ball_csv):
        # argparse exits 2 for a missing required flag or an unreadable @file
        missing = tmp_path / "missing.args"
        for argv, message in (
            (["generate", "--dim", "2"], "the following arguments are required: --out"),
            (["solve", "--solver", "lloyd"], "the following arguments are required: --in"),
            (["certify", "--solver", "planted"], "the following arguments are required: --in"),
            (["sweep", "--trials", "1"], "the following arguments are required: --delta"),
            (["generate", f"@{missing}"], f"No such file or directory: '{missing}'"),
            (["sweep", f"@{tmp_path}", "--delta", "2.5"], f"Is a directory: '{tmp_path}'"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.splitlines()[-1].endswith(message), (argv, captured.err)
        # the command returns 2 with one error line for values the library rejects
        # and for dataset paths it cannot read or write
        data = tmp_path / "data.csv"
        for argv, data_text, message in (
            # three balls need m >= 3, spectral2 needs k = 2
            (["generate", "--clusters", "3", "--out", str(tmp_path / "x.csv")], None, "needs m >= k"),
            (["solve", "--in", three_ball_csv, "--solver", "spectral2"], None, "two clusters only"),
            (["certify", "--in", str(data), "--solver", "planted"], "2,2,0\n0.0,1.0\n1.0,0.0\n",
             "no planted partition to certify"),
            (["solve", "--in", str(data)], None, "--clusters required when the dataset has no planted labels"),
            (["certify", "--in", str(data)], "2,-3,0\n", "header field N must be at least 1, got -3"),
            (["certify", "--in", str(data)], "6,1000000000000000000,2\n", "cannot allocate the declared"),
            (["solve", "--in", str(tmp_path / "missing.csv")], None, "No such file or directory"),
            (["generate", "--out", str(tmp_path / "nodir" / "x.csv")], None, "No such file or directory"),
        ):
            if data_text is not None:
                data.write_text(data_text)
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, (argv, err)

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "generate.args"
        config.write_text(f"--delta=9.0\n--per-ball=4\n--dim=2\n--clusters=2\n--out={tmp_path / 'a.csv'}\n")
        rc = main(["generate", f"@{config}", "--delta", "2.5", "--out", str(tmp_path / "b.csv")])
        assert rc == 0
        ds = read_dataset_csv(str(tmp_path / "b.csv"))
        spread = ds.points.columns[0].max() - ds.points.columns[0].min()
        assert spread < 9.0  # delta 2.5 took precedence
        assert not (tmp_path / "a.csv").exists()  # and so did the later --out


def _output(capsys, argv) -> list[str]:
    """Stdout then stderr lines of a successful run, with the wall-time column blanked."""
    assert main(argv) == 0
    lines, col = [], None
    captured = capsys.readouterr()
    for line in captured.out.splitlines() + captured.err.splitlines():
        cells = line.split(",")
        if "wall_ms" in cells:
            col, width = cells.index("wall_ms"), len(cells)
        elif col is not None and len(cells) == width:
            cells[col] = ""
        lines.append(",".join(cells))
    return lines


def _flags(values: dict) -> list[str]:
    """The command-line form of option values, keyed by long flag name with underscores."""
    argv = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    return argv


@pytest.fixture
def three_ball_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _output(capsys, ["generate", "--dim", "4", "--clusters", "3", "--per-ball", "16", "--delta", "3.0",
                     "--seed", "5", "--out", str(path)])
    return str(path)


def _args_file(path, argv: list[str]) -> str:
    """Write ``argv`` to ``path``, one argument per line, and return its ``@`` reference."""
    path.write_text("".join(arg + "\n" for arg in argv))
    return f"@{path}"


class TestConfigFile:
    """Each option read from an ``@file`` acts as its flag would, and later flags win."""

    @pytest.mark.parametrize(
        "command, values, expect",
        [
            ("solve", {"solver": "spectral2", "clusters": 2, "seed": 4}, "solver: spectral2"),
            ("certify", {"solver": "spectral2", "clusters": 2, "epsilon": 1e-6, "seed": 4}, "partition: spectral2"),
            ("certify", {"solver": "planted", "epsilon": "1e-6"}, "partition: planted"),
        ],
    )
    def test_solve_and_certify_read_config(self, tmp_path, capsys, three_ball_csv, command, values, expect):
        flags = _flags({"in": three_ball_csv, **values})
        from_file = _output(capsys, [command, _args_file(tmp_path / "cmd.args", flags)])
        assert expect in from_file
        assert from_file == _output(capsys, [command] + flags)

    def test_file_numbers_feed_int_options(self, tmp_path, capsys):
        flags = _flags({"dim": 3, "clusters": 3, "per_ball": 5, "delta": 3, "seed": 7, "out": tmp_path / "data.csv"})
        from_file = _output(capsys, ["generate", _args_file(tmp_path / "generate.args", flags)])
        data = (tmp_path / "data.csv").read_text()
        assert data.splitlines()[0] == "3,15,3"
        assert from_file == _output(capsys, ["generate"] + flags)
        assert (tmp_path / "data.csv").read_text() == data

    def test_sweep_list_forms_agree(self, tmp_path, capsys):
        # "--flag=value" on one line or flag and value on two; a comma list or a range
        outputs = []
        for delta, per_ball in ((["--delta=2.5,3.0"], ["--per-ball=8"]),
                                (["--delta", "2.5,3.0"], ["--per-ball", "8"]),
                                (["--delta=2.5:3.0:0.5"], ["--per-ball=8,"])):
            argv = delta + per_ball + ["--clusters=2", "--dim=4", "--trials=2", "--seed=3", "--certify"]
            outputs.append(_output(capsys, ["sweep", _args_file(tmp_path / "sweep.args", argv)]))
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) == 1 + 4 + 2  # header, 2 deltas x 2 trials, 2 cell lines
        assert outputs[0] == _output(capsys, ["sweep", "--delta", "2.5,3.0", "--clusters", "2", "--dim", "4",
                                              "--per-ball", "8", "--trials", "2", "--seed", "3", "--certify"])

    @pytest.mark.parametrize(
        "command, file_values, flag_values",
        [
            ("solve", {"solver": "spectral2", "clusters": 2, "seed": 9}, {"solver": "lloyd", "clusters": 3, "seed": 1}),
            ("certify", {"solver": "spectral2", "clusters": 2, "epsilon": 0.5, "seed": 9},
             {"solver": "planted", "epsilon": 1e-6, "seed": 2}),
            ("sweep", {"delta": "3.0", "clusters": "3", "per_ball": "16", "trials": 3, "solver": "spectral2"},
             {"delta": "2.5", "clusters": "2", "per_ball": "8", "trials": 1, "solver": "lloyd"}),
        ],
    )
    def test_flag_beats_file(self, tmp_path, capsys, three_ball_csv, command, file_values, flag_values):
        base = {"in": three_ball_csv} if command in ("solve", "certify") else {}
        args_file = _args_file(tmp_path / "cmd.args", _flags({**base, **file_values}))
        both = _output(capsys, [command, args_file] + _flags(flag_values))
        assert both == _output(capsys, [command] + _flags({**base, **flag_values}))
        assert both != _output(capsys, [command, args_file])


class TestImportBoundary:
    """The library does not load the command line interface or argparse."""

    @staticmethod
    def _python(*args: str) -> subprocess.CompletedProcess:
        src = str(Path(certkmeans.__file__).resolve().parent.parent)
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": src, "PATH": ""})

    def test_import_leaves_cli_and_argparse_unloaded(self):
        run = self._python("-c", "import sys, certkmeans; print(sorted({'argparse', 'certkmeans.cli'} & set(sys.modules)))")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_all_names_are_attributes_not_modules(self):
        for name in certkmeans.__all__:
            assert hasattr(certkmeans, name), name
            assert not isinstance(getattr(certkmeans, name), types.ModuleType), name
        assert not {"DetectorConfig", "dense_A"} & set(certkmeans.__all__)

    def test_removed_surface_stays_removed(self, capsys):
        for name in ("diagnostics_csv", "recover_alpha", "corollary_check"):
            assert name not in certkmeans.__all__, name
            assert not hasattr(certkmeans.certificate, name), name
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "64"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_module_entry_point_without_runpy_warning(self):
        run = self._python("-W", "error::RuntimeWarning", "-m", "certkmeans.cli", "--help")
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: certkmeans")
