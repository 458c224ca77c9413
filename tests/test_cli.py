"""CLI subcommands driven through main() with temp files."""

import json

import pytest

from linksched.cli import main
from linksched.experiment import run_experiment, run_seeds
from linksched.feasibility import Schedule
from linksched.scenario import (
    ScenarioConfig,
    generate_scenario,
    read_instance,
    read_schedule,
    write_instance,
    write_schedule,
)

from util import accumulation_grid

SCHEDULE_ALGOS = ("app", "pm", "pg", "pcg", "opt")


def run(args):
    return main([str(a) for a in args])


class TestGen:
    def test_writes_parseable_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert run(["gen", "--n", 3, "--seed", 5, "--out", out]) == 0
        inst = read_instance(str(out))
        assert len(inst.links) == 3
        assert "3 links" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["gen", "--n", 4, "--seed", 9, "--out", a])
        run(["gen", "--n", 4, "--seed", 9, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair_count": 2, "area": 20.0}))
        out = tmp_path / "inst.txt"
        assert run(["gen", "--config", cfg, "--n", 5, "--seed", 0, "--out", out]) == 0
        assert len(read_instance(str(out)).links) == 5

    def test_missing_pair_count_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["gen", "--seed", 0, "--out", tmp_path / "x.txt"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["gen", "experiment"])
    @pytest.mark.parametrize(
        "body, message",
        [
            ({"pair_count": 2, "aera": 20}, "unknown config fields: ['aera']"),
            ([2, 20], "config must be a JSON object, got list"),
        ],
    )
    def test_bad_config_file_exits_one(self, tmp_path, capsys, command, body, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestScheduleAndCheck:
    def test_app_schedule_passes_check(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        sched_path = tmp_path / "sched.txt"
        run(["gen", "--n", 3, "--seed", 2, "--out", inst_path])
        assert (
            run(
                [
                    "schedule", "--algo", "app", "--scenario", inst_path,
                    "--frame", 4, "--seed", 2, "--out", sched_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "lp_bound=" in out and "throughput=" in out
        assert run(["check", "--scenario", inst_path, "--schedule", sched_path]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_check_flags_infeasible_schedule(self, tmp_path, capsys):
        inst = accumulation_grid()
        inst_path = tmp_path / "grid.txt"
        write_instance(inst, str(inst_path))
        bad = Schedule.from_lists(1, [list(range(9))])
        sched_path = tmp_path / "bad.txt"
        write_schedule(bad, str(sched_path))
        assert run(["check", "--scenario", inst_path, "--schedule", sched_path]) == 1
        assert "sinr" in capsys.readouterr().out

    def test_every_algorithm_runs(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        run(["gen", "--n", 2, "--seed", 7, "--out", inst_path])
        for algo in SCHEDULE_ALGOS:
            code = run(
                ["schedule", "--algo", algo, "--scenario", inst_path, "--frame", 3]
            )
            assert code == 0, algo

    def test_opt_guard_is_diagnosed(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        run(["gen", "--n", 2, "--seed", 7, "--out", inst_path])
        code = run(
            ["schedule", "--algo", "opt", "--scenario", inst_path, "--frame", 50]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_schedule_file_round_trip(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        sched_path = tmp_path / "s.txt"
        run(["gen", "--n", 2, "--seed", 1, "--out", inst_path])
        run(
            [
                "schedule", "--algo", "pg", "--scenario", inst_path,
                "--frame", 2, "--out", sched_path,
            ]
        )
        sched = read_schedule(str(sched_path))
        assert sched.frame_length == 2


class TestScheduleMatchesExperiment:
    def test_printed_metrics_equal_result_rows(self, tmp_path, capsys):
        config = ScenarioConfig(
            pair_count=4, frame_length=3, area=4.0, run_count=1, master_seed=0
        )
        rows = {row.algorithm: row for row in run_experiment(config, SCHEDULE_ALGOS)}
        (seed,) = run_seeds(config)
        cfg_path, inst_path = tmp_path / "cfg.json", tmp_path / "inst.txt"
        cfg_path.write_text(config.to_json())
        assert run(["gen", "--config", cfg_path, "--seed", seed, "--out", inst_path]) == 0
        capsys.readouterr()
        for algo in SCHEDULE_ALGOS:
            args = [
                "schedule", "--algo", algo, "--scenario", inst_path,
                "--frame", config.frame_length, "--seed", seed,
                "--range", config.interference_range,
            ]
            assert run(args) == 0, algo
            printed = dict(
                line.split("=", 1) for line in capsys.readouterr().out.splitlines()
            )
            row = rows[algo]
            value = row.opt if algo == "opt" else row.throughput
            assert value is not None, algo
            assert float(printed["throughput"]) == value, algo
            assert int(printed["uncovered"]) == row.uncovered, algo
            if algo == "app":
                assert float(printed["lp_bound"]) == row.lp_bound
                assert float(printed["delta_ratio"]) == row.delta_ratio


class TestSimulate:
    def test_complete_run(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        trace_path = tmp_path / "trace.txt"
        run(["gen", "--n", 3, "--seed", 4, "--out", inst_path])
        code = run(
            [
                "simulate", "--scenario", inst_path, "--seed", 4,
                "--out", trace_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "complete=1" in out
        assert trace_path.read_text().startswith("# distributed scheduler trace")

    def test_truncated_run_exits_nonzero(self, tmp_path, capsys):
        # two mutually audible senders need two slots; one is not enough
        inst = generate_scenario(
            ScenarioConfig(pair_count=2, area=2.0), seed=0
        )
        inst_path = tmp_path / "inst.txt"
        write_instance(inst, str(inst_path))
        code = run(
            ["simulate", "--scenario", inst_path, "--seed", 0, "--max-slots", 1]
        )
        assert code == 1
        assert "incomplete" in capsys.readouterr().err


class TestBound:
    def test_tail_value(self, capsys):
        assert run(["bound", "--kind", "tail", "--theta", 0.5, "--a-hat", 20]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            0.9179150013761012, rel=1e-12
        )

    def test_frame_value_from_formula(self, capsys):
        code = run(
            [
                "bound", "--kind", "frame", "--d-max", 2,
                "--alpha", 4, "--beta", 10,
            ]
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            70011.82134562911, rel=1e-12
        )

    def test_frame_value_from_scenario(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        run(["gen", "--n", 3, "--seed", 8, "--out", inst_path])
        capsys.readouterr()
        assert run(["bound", "--kind", "frame", "--scenario", inst_path]) == 0
        assert float(capsys.readouterr().out) > 0.0

    def test_missing_args_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["bound", "--kind", "tail"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            run(["bound", "--kind", "frame"])
        assert err.value.code == 2

    def test_domain_error_exits_one(self, capsys):
        code = run(["bound", "--kind", "tail", "--theta", 1.5, "--a-hat", 20])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperiment:
    def test_writes_results_and_summary(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = run(
            [
                "experiment", "--n", 2, "--frame", 3, "--runs", 3,
                "--master-seed", 5, "--algos", "app,pg", "--out", out,
            ]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "res.summary.csv").exists()
        assert "app n=2" in capsys.readouterr().out

    def test_unknown_algorithm_exits_one(self, tmp_path, capsys):
        code = run(
            [
                "experiment", "--n", 2, "--frame", 3, "--runs", 1,
                "--algos", "nonsense", "--out", tmp_path / "r.csv",
            ]
        )
        assert code == 1
        assert "unknown algorithm" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unknown_algo_choice(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["schedule", "--algo", "bogus", "--scenario", tmp_path / "x"])
        assert err.value.code == 2

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = run(["bound", "--kind", "frame", "--scenario", tmp_path / "nope.txt"])
        assert code == 1
        assert "error" in capsys.readouterr().err
