import math

import pytest
import yaml

from platoonflow import SimParams, TrajectoryRecord
from platoonflow.cli import (
    ConfigError,
    _parse_window,
    events_csv_text,
    main,
    params_from_dict,
    params_to_dict,
    trajectory_csv_text,
)
from platoonflow.verify import CheckResult


class TestConfigParsing:
    def test_defaults_round_trip(self):
        params = SimParams()
        assert params_from_dict(params_to_dict(params)) == params

    def test_custom_values_round_trip(self):
        raw = {
            "run": {"seed": 9, "duration": 30.0, "dt": 0.05},
            "vehicle": {"v_min": 15.0, "v_max": 30.0},
            "control": {"gamma": 0.5, "worst_case_pred_accel": True},
            "formation": {"gap_tol": 0.2, "speed_tol": 0.1},
            "drag": {"c0": 5e-4},
            "road": {"length": 900.0, "on_ramps": [100.0],
                     "off_ramps": [500.0]},
        }
        params = params_from_dict(raw)
        assert params.seed == 9
        assert params.eps_platoon_gap == 0.2
        assert params.worst_case_pred_accel is True
        assert params.drag.c0 == 5e-4
        assert params.road.on_ramps == (100.0,)
        assert params_from_dict(params_to_dict(params)) == params

    def test_empty_config_gives_defaults(self):
        assert params_from_dict(None) == SimParams()
        assert params_from_dict({"run": None}) == SimParams()

    def test_unknown_section_is_named(self):
        with pytest.raises(ConfigError, match="unknown config section: runn"):
            params_from_dict({"runn": {}})

    def test_unknown_key_is_named_with_its_section(self):
        with pytest.raises(ConfigError, match="unknown config key: run.sed"):
            params_from_dict({"run": {"sed": 1}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="vehicle.v_min"):
            params_from_dict({"vehicle": {"v_min": True}})

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="run.seed"):
            params_from_dict({"run": {"seed": 1.5}})

    def test_ramp_lists_must_be_numeric(self):
        with pytest.raises(ConfigError, match="road.on_ramps"):
            params_from_dict({"road": {"on_ramps": [100.0, "x"]}})

    def test_scalar_section_is_rejected(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            params_from_dict({"run": 3})

    def test_semantic_validation_still_applies(self):
        with pytest.raises(ConfigError, match="speed bounds"):
            params_from_dict({"vehicle": {"v_min": 40.0}})


class TestCsvWriters:
    def test_trajectory_header_is_stable(self):
        text = trajectory_csv_text([])
        assert text == ("t,id,platoon_id,p,v,a,u,drag,"
                        "gs_margin,deadline_margin,mode\n")

    def test_rows_sort_by_time_then_vehicle(self):
        def row(time, vid):
            return TrajectoryRecord(time=time, vehicle_id=vid, platoon_id=1,
                                    p=0.0, v=20.0, accel=0.0, u=0.0,
                                    drag=0.0, gs_margin=math.nan,
                                    deadline_margin=-1.0, mode="leader")
        text = trajectory_csv_text([row(0.2, 1), row(0.1, 2), row(0.1, 1)])
        ids = [line.split(",")[:2] for line in text.splitlines()[1:]]
        assert ids == [["0.1", "1"], ["0.1", "2"], ["0.2", "1"]]

    def test_values_use_six_significant_digits(self):
        rec = TrajectoryRecord(time=0.30000000000000004, vehicle_id=1,
                               platoon_id=1, p=123.456789, v=20.0,
                               accel=0.0, u=0.0, drag=0.0,
                               gs_margin=math.nan, deadline_margin=-1.0,
                               mode="leader")
        line = trajectory_csv_text([rec]).splitlines()[1]
        assert line.startswith("0.3,1,1,123.457,20,")
        assert "nan" in line

    def test_events_header_is_stable(self):
        assert events_csv_text([]) == "t,kind,id,detail\n"


class TestWindowParsing:
    def test_accepts_colon_separated_times(self):
        assert _parse_window("10:20.5") == (10.0, 20.5)

    def test_rejects_missing_colon(self):
        with pytest.raises(ConfigError, match="T_A:T_B"):
            _parse_window("1020")

    def test_rejects_non_numbers(self):
        with pytest.raises(ConfigError, match="numbers"):
            _parse_window("a:b")


@pytest.fixture()
def config_file(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(
        {"run": {"duration": 8.0, "seed": 2}}))
    return cfg


class TestRunCommand:
    def test_writes_all_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--out", str(out),
                   "--plot", "0:8"])
        assert rc == 0
        assert (out / "trajectory.csv").read_text().startswith("t,id,")
        assert (out / "events.csv").exists()
        assert "vehicles_spawned = " in (out / "metrics.txt").read_text()
        assert (out / "timespace.svg").read_text().lstrip().startswith("<svg")
        echo = yaml.safe_load((out / "config.echo").read_text())
        assert echo["run"]["seed"] == 2
        assert "wrote" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--out", str(a)])
        main(["run", "--config", str(config_file), "--out", str(b)])
        assert (a / "trajectory.csv").read_bytes() \
            == (b / "trajectory.csv").read_bytes()
        assert (a / "events.csv").read_bytes() \
            == (b / "events.csv").read_bytes()

    def test_seed_override_lands_in_the_echo(self, config_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--out", str(out),
                   "--seed", "5"])
        assert rc == 0
        echo = yaml.safe_load((out / "config.echo").read_text())
        assert echo["run"]["seed"] == 5

    def test_bad_plot_window_is_a_config_error(self, config_file, tmp_path,
                                               capsys):
        rc = main(["run", "--config", str(config_file),
                   "--out", str(tmp_path / "out"), "--plot", "5:99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("control:\n  delta: .nan\n", "delta must be finite"),
        ("run:\n  duration: .inf\n", "duration must be finite"),
    ])
    def test_non_finite_values_exit_with_a_config_error(
            self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_override_is_a_config_error(self, config_file,
                                                   tmp_path, capsys):
        rc = main(["run", "--config", str(config_file),
                   "--out", str(tmp_path / "out"), "--dt", "nan"])
        assert rc == 2
        assert "dt must be finite" in capsys.readouterr().err

    def test_oversized_seed_runs(self, tmp_path):
        # An int seed is finite at any size; it never passes through float.
        seed = 10 ** 400
        cfg = tmp_path / "big.yaml"
        cfg.write_text(f"run:\n  seed: {seed}\n  duration: 2.0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        echo = yaml.safe_load((out / "config.echo").read_text())
        assert echo["run"]["seed"] == seed

    def test_oversized_float_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(f"road:\n  length: {10 ** 400}\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "road.length" in capsys.readouterr().err

    @pytest.mark.parametrize("ramps", ["on_ramps", "off_ramps"])
    def test_oversized_ramp_is_a_config_error(self, tmp_path, capsys, ramps):
        cfg = tmp_path / "big.yaml"
        cfg.write_text(f"road:\n  {ramps}: [{10 ** 400}]\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"road.{ramps}" in capsys.readouterr().err

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err


class TestVerifyCommand:
    def test_reports_and_aggregates_failures(self, monkeypatch, capsys):
        import platoonflow.verify as verify

        def fake_run_all(params):
            yield CheckResult("alpha", True, "fine")
            yield CheckResult("beta", False, "broken")

        monkeypatch.setattr(verify, "run_all", fake_run_all)
        rc = main(["verify"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "PASS  alpha: fine" in captured.out
        assert "FAIL  beta: broken" in captured.out
        assert "failing checks: beta" in captured.err

    def test_reports_each_checks_wall_time_on_stderr(self, monkeypatch,
                                                       capsys):
        import platoonflow.cli as cli
        import platoonflow.verify as verify

        ticks = iter([10.0, 11.5, 14.0])
        monkeypatch.setattr(cli, "perf_counter", lambda: next(ticks))
        monkeypatch.setattr(
            verify, "run_all",
            lambda params: iter([CheckResult("alpha", True, "fine"),
                                 CheckResult("beta", True, "also fine")]))
        assert main(["verify"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ("PASS  alpha: fine\n"
                                "PASS  beta: also fine\n"
                                "all acceptance checks passed\n")
        assert captured.err == "time  alpha: 1.50 s\ntime  beta: 2.50 s\n"

    def test_all_green_returns_zero(self, monkeypatch, capsys):
        import platoonflow.verify as verify

        monkeypatch.setattr(
            verify, "run_all",
            lambda params: iter([CheckResult("alpha", True, "fine")]))
        rc = main(["verify"])
        assert rc == 0
        assert "all acceptance checks passed" in capsys.readouterr().out
