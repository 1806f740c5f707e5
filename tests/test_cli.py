import dataclasses
import json

import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            run_trial(figure_config(n=4), solver="annealing")

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
        records, _ = run_sweep([2.5, 3.1], [2], [3], [8], trials=2, base_seed=9, certify=True)
        back = parse_records_csv(records_to_csv(records))
        assert [dataclasses.replace(r, error=None) for r in records] == back

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

        rc = main(["certify", "--in", str(data), "--use-planted", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decision: certified_optimal" in out

    def test_sweep_files_and_config(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        cells = tmp_path / "cells.csv"
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"trials": 2, "per_ball": "8", "dim": "4"}))
        rc = main(
            [
                "sweep",
                "--config", str(config),
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
        # the summary path can come from the config file as well
        file_cells = tmp_path / "file_cells.csv"
        config.write_text(json.dumps({"trials": 2, "per_ball": "8", "dim": "4", "summary_out": str(file_cells)}))
        rc = main(["sweep", "--config", str(config), "--delta", "2.5,3.0", "--clusters", "2", "--seed", "3",
                   "--certify", "--out", str(rows)])
        assert rc == 0
        assert file_cells.read_text() == cells.read_text()

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
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"strict": True}))
        rc = main(
            [
                "sweep",
                "--config", str(config),
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

    def test_bench_runs(self, capsys):
        rc = main(["bench", "--sizes", "64,128", "--dim", "4", "--clusters", "2", "--delta", "2.6", "--repeats", "1", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_points,wall_ms,decision"
        assert len(lines) == 3

    def test_invalid_arguments_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--nonsense"])
        assert exc.value.code == 2

    def test_missing_required_returns_2(self, capsys):
        assert main(["generate", "--dim", "2"]) == 2
        assert "missing required option" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"delta": 9.0, "per_ball": 4, "dim": 2, "clusters": 2, "out": str(tmp_path / "a.csv")}))
        rc = main(["generate", "--config", str(config), "--delta", "2.5", "--out", str(tmp_path / "b.csv")])
        assert rc == 0
        ds = read_dataset_csv(str(tmp_path / "b.csv"))
        spread = ds.points.columns[0].max() - ds.points.columns[0].min()
        assert spread < 9.0  # delta 2.5 took precedence
