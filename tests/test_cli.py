import math
import re
import tracemalloc
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, strategies as st

import platoonflow.cli as cli
from platoonflow import Event, SimParams, Trajectory, run, trajectory
from platoonflow.cli import (
    ConfigError,
    _parse_window,
    emit_outputs,
    events_csv_text,
    main,
    params_from_dict,
    params_to_dict,
)
from platoonflow.core import (_DECLARED, _POSITIVE, _RAMPS, _fault,
                              _longest_duration)
from platoonflow.trajectory import (_CSV_ROW, trajectory_csv_blocks,
                                    trajectory_csv_text)
from platoonflow.verify import CheckResult, check_determinism

from conftest import hand_built
from test_core import with_setting
from test_golden import CONFIGS, DURATION

CSV_HEADER = "t,id,platoon_id,p,v,a,u,drag,gs_margin,deadline_margin,mode\n"


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

    def test_an_int_is_read_as_a_float_and_a_list_as_a_ramp_tuple(self):
        params = params_from_dict({"run": {"duration": 140},
                                   "road": {"on_ramps": [100, 600]}})
        assert type(params.duration) is float
        assert params.road.on_ramps == (100.0, 600.0)
        assert [type(r) for r in params.road.on_ramps] == [float, float]
        echo = yaml.safe_dump(params_to_dict(params), sort_keys=False)
        assert "\n  duration: 140.0\n" in echo

    def test_semantic_validation_still_applies(self):
        with pytest.raises(ConfigError, match="speed bounds"):
            params_from_dict({"vehicle": {"v_min": 40.0}})


class TestCsvWriters:
    def test_trajectory_header_is_stable(self):
        text = trajectory_csv_text(Trajectory(SimParams()))
        assert text == ("t,id,platoon_id,p,v,a,u,drag,"
                        "gs_margin,deadline_margin,mode\n")

    def test_rows_sort_by_time_then_vehicle(self):
        tr, _ = hand_built([(0.1, [(2, 10.0, 20.0), (1, 0.0, 20.0)]),
                            (0.2, [(1, 2.0, 20.0)])], SimParams())
        text = trajectory_csv_text(tr)
        ids = [line.split(",")[:2] for line in text.splitlines()[1:]]
        assert ids == [["0.1", "1"], ["0.1", "2"], ["0.2", "1"]]

    def test_values_use_six_significant_digits(self):
        tr, _ = hand_built([(0.30000000000000004,
                             [(1, 123.456789, 20.0, 0.0, 1, 1)])],
                           SimParams())
        line = trajectory_csv_text(tr).splitlines()[1]
        assert line.startswith("0.3,1,1,123.457,20,")
        assert "nan" in line

    def test_extreme_values_format_like_six_digit_f_strings(self):
        values = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300)
        for k, x in enumerate(values):
            t = 0.1 * (k + 1)
            fields = (f"{t:.6g}", k, -k) + (x,) * 7 + ("follower",)
            assert _CSV_ROW % fields == (
                f"{t:.6g},{k},{-k},{x:.6g},{x:.6g},{x:.6g},{x:.6g},"
                f"{x:.6g},{x:.6g},{x:.6g},follower\n")
        # A trajectory's rows go through that format, its nan included.
        tr, _ = hand_built([(0.1, [(3, 123.456789, 20.0, -0.0, -3, 0)])],
                           SimParams())
        u, drag, gs, dm = (column[0] for column in tr.physics())
        assert trajectory_csv_text(tr).splitlines()[1:] == [
            f"{0.1:.6g},3,-3,{tr.p[0]:.6g},{tr.v[0]:.6g},"
            f"{tr.accel[0]:.6g},{u:.6g},{drag:.6g},"
            f"{gs:.6g},{dm:.6g},follower"]

    def test_events_header_is_stable(self):
        assert events_csv_text([]) == "t,kind,id,detail\n"

    def test_each_event_kind_formats_its_facts(self):
        events = [
            Event(0.1, "spawn", 0, (0.0, 1750.0, 27.12345)),
            Event(0.2, "discard", -1, (1e6, 20.0)),
            Event(0.30000000000000004, "exit", 0, (1750.0,)),
            Event(0.4, "split", 3, (0, 7)),
            Event(0.5, "merge", 3, (7, 0)),
            Event(0.6, "deadline_relax", 4, (-0.0004,)),
            Event(0.7, "deadline_recover", 4, (-2.5,)),
        ]
        assert events_csv_text(events).splitlines()[1:] == [
            "0.1,spawn,0,entry=0 exit=1750 v=27.123",
            "0.2,discard,-1,entry=1e+06 v=20.000",
            "0.3,exit,0,at 1750",
            "0.4,split,3,platoon 0 -> 7",
            "0.5,merge,3,platoon 7 -> 0",
            "0.6,deadline_relax,4,margin -0.000",
            "0.7,deadline_recover,4,margin -2.500",
        ]


class TestCsvBlocks:
    """``trajectory_csv_blocks`` cuts ``trajectory.csv`` into one
    ``trajectory_csv_text`` call per block of ``Trajectory.blocks``."""

    @pytest.mark.parametrize("rows", [None, 333])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_blocks_join_into_the_whole_text(self, monkeypatch, name, rows):
        if rows is not None:
            monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", rows)
        params = replace(params_from_dict(yaml.safe_load(CONFIGS[name])),
                         duration=DURATION)
        tr = run(params).trajectory
        whole = trajectory_csv_text(tr)
        blocks = list(trajectory_csv_blocks(tr))
        assert [block[:2] for block in blocks] == list(tr.blocks())
        if rows is not None:
            assert len(blocks) > 1
        assert "".join(text for _, _, text in blocks) == whole
        assert whole.startswith(CSV_HEADER)
        assert whole.count(CSV_HEADER) == 1

    def test_any_two_step_ranges_join(self, short_run):
        tr = short_run.trajectory
        whole = trajectory_csv_text(tr)
        for k in (1, len(tr.times) // 3, len(tr.times)):
            assert (trajectory_csv_text(tr, 0, k)
                    + trajectory_csv_text(tr, k)) == whole

    def test_an_empty_trajectory_is_its_header(self):
        tr = Trajectory(SimParams())
        assert list(trajectory_csv_blocks(tr)) == [(0, 0, CSV_HEADER)]

    def test_a_one_step_trajectory_is_one_block(self):
        tr, _ = hand_built([(0.1, [(vid, 100.0 - 10.0 * vid, 20.0)
                                   for vid in (0, 1, 2)])], SimParams())
        assert list(tr.blocks()) == [(0, 1)]
        blocks = list(trajectory_csv_blocks(tr))
        assert blocks == [(0, 1, trajectory_csv_text(tr))]
        text = blocks[0][2]
        assert text.startswith(CSV_HEADER)
        assert text.count("\n") == 4
        assert trajectory_csv_text(tr, 0, 0) == CSV_HEADER
        assert trajectory_csv_text(tr, 1) == ""

    def test_a_block_that_raises_leaves_no_short_file(self, tmp_path):
        # Vehicle 0 was never registered, so its physics cannot be read.
        tr = Trajectory(SimParams())
        tr.append_step(0.1, [0], [0], [100.0], [20.0], [0.0], [1])
        path = tmp_path / "trajectory.csv"
        path.write_text("an earlier run\n")
        with pytest.raises(KeyError):
            cli._replace(path, (text for _, _, text
                                in trajectory_csv_blocks(tr)))
        assert not path.exists()

    def test_the_writer_holds_a_block_not_the_file(self, tmp_path,
                                                   monkeypatch):
        # The whole text, and then its encoding, would peak at about
        # twice the file's size.
        result = run(SimParams())
        peaks = []
        replace_file = cli._replace

        def traced(path, chunks):
            replace_file(path, chunks)
            if path.name == "trajectory.csv":
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_replace", traced)
        tracemalloc.start()
        try:
            emit_outputs(result, tmp_path)
        finally:
            tracemalloc.stop()
        written = (tmp_path / "trajectory.csv").read_text()
        assert written == trajectory_csv_text(result.trajectory)
        assert peaks[0] < len(written) / 4


class TestWindowParsing:
    def test_accepts_colon_separated_times(self):
        assert _parse_window("10:20.5") == (10.0, 20.5)

    def test_rejects_missing_colon(self):
        with pytest.raises(ConfigError, match="T_A:T_B"):
            _parse_window("1020")

    def test_rejects_non_numbers(self):
        with pytest.raises(ConfigError, match="numbers"):
            _parse_window("a:b")


# YAML values of the wrong type for a config key, by the type of its
# default: a number key takes no text, bool, null, list or number too
# large for a float or not finite, the seed no fraction, text or bool, a
# flag only true or false, and a ramp key only a list of numbers.
WRONG_YAML = {
    float: ["fast", "true", "null", "[1.0]", str(10 ** 400), ".nan", ".inf"],
    int: ["1.5", "'3'", "true"],
    bool: ["'no'", "0", "null"],
    list: ["100.0", "[100.0, x]", "{a: 1}"],
}


ARTIFACTS = ("trajectory.csv", "events.csv", "metrics.txt", "config.echo",
             "timespace.svg")

# A step and the longest run whose step times the CSV files tell apart.
LIMITS = [(0.1, 1e5), (0.001, 1e3)]


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

    def test_verify_counts_the_bytes_run_writes(self, config_file, tmp_path,
                                                monkeypatch):
        # Several blocks, so the header and every cut are counted.
        monkeypatch.setattr(trajectory, "DERIVE_BLOCK_ROWS", 333)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)]) == 0
        params = cli.parse_config(config_file)
        assert len(list(run(params).trajectory.blocks())) > 1
        size = (out / "trajectory.csv").stat().st_size
        assert check_determinism(params) == CheckResult(
            "determinism_bytes", True,
            f"two seeded runs, {size} CSV bytes identical")

    def test_reruns_are_byte_identical(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_file), "--out", str(a)])
        main(["run", "--config", str(config_file), "--out", str(b)])
        assert (a / "trajectory.csv").read_bytes() \
            == (b / "trajectory.csv").read_bytes()
        assert (a / "events.csv").read_bytes() \
            == (b / "events.csv").read_bytes()

    def test_a_rerun_into_one_out_leaves_no_stale_tail(self, config_file,
                                                        tmp_path):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        base = ["run", "--config", str(config_file)]
        assert main(base + ["--out", str(shared), "--duration", "30",
                            "--plot", "0:30"]) == 0
        for out in (shared, fresh):
            assert main(base + ["--out", str(out), "--duration", "20",
                                "--seed", "3", "--plot", "0:20"]) == 0
        for name in ARTIFACTS:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()

    def test_a_symlinked_artifact_is_replaced_not_written_through(
            self, config_file, tmp_path):
        out, target = tmp_path / "out", tmp_path / "keep.csv"
        target.write_bytes(b"keep me\n")
        out.mkdir()
        (out / "trajectory.csv").symlink_to(target)
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)]) == 0
        assert not (out / "trajectory.csv").is_symlink()
        assert (out / "trajectory.csv").read_text().startswith("t,id,")
        assert target.read_bytes() == b"keep me\n"

    def test_a_run_without_plot_removes_a_stale_svg(self, config_file,
                                                    tmp_path):
        out = tmp_path / "out"
        base = ["run", "--config", str(config_file), "--out", str(out)]
        assert main(base + ["--seed", "1", "--plot", "0:8"]) == 0
        assert (out / "timespace.svg").exists()
        assert main(base + ["--seed", "2"]) == 0
        assert not (out / "timespace.svg").exists()
        assert yaml.safe_load(
            (out / "config.echo").read_text())["run"]["seed"] == 2

    @pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file",
                                      "artifact_is_a_directory"])
    def test_an_unwritable_out_is_a_config_error(
            self, config_file, tmp_path, capsys, monkeypatch, case):
        import platoonflow.cli as cli

        runs = []
        monkeypatch.setattr(
            cli, "run", lambda params: runs.append(params) or run(params))
        a_file = tmp_path / "a_file"
        a_file.write_text("not a directory\n")
        out = {"out_is_a_file": a_file,
               "out_under_a_file": a_file / "out",
               "artifact_is_a_directory": tmp_path / "out"}[case]
        bad = out
        if case == "artifact_is_a_directory":
            bad = out / "trajectory.csv"
            bad.mkdir(parents=True)
        rc = main(["run", "--config", str(config_file), "--out", str(out)])
        assert rc == 2
        assert f"error: cannot write {bad}: " in capsys.readouterr().err
        # The directory is made, and earlier artifacts removed, before
        # the simulation starts.
        assert runs == []
        assert a_file.read_text() == "not a directory\n"

    def test_bad_plot_window_is_a_config_error(self, config_file, tmp_path,
                                               capsys):
        rc = main(["run", "--config", str(config_file),
                   "--out", str(tmp_path / "out"), "--plot", "5:99"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("control:\n  delta: .nan\n", "control.delta must be finite, got nan"),
        ("run:\n  duration: .inf\n", "run.duration must be finite, got inf"),
        # Each finite alone, these overflow the step count.
        ("run:\n  duration: 1.0e+308\n",
         "run.duration / run.dt must be finite, got inf"),
        ("run:\n  dt: 1.0e-310\n",
         "run.duration / run.dt must be finite, got inf"),
    ])
    def test_non_finite_values_exit_with_a_config_error(
            self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_more_steps_than_the_clock_counts_is_a_config_error(
            self, tmp_path, capsys):
        # 1e300 steps is finite, but past 2**53 steps t + dt == t.
        cfg = tmp_path / "tiny_dt.yaml"
        cfg.write_text("run:\n  dt: 1.0e-300\n  duration: 1\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: run.duration / run.dt must be at most 2**53, "
            "got 9.999999999999999e+299\n")
        assert not out.exists()

    def test_backward_braking_a_min_is_a_config_error(self, tmp_path,
                                                      capsys):
        # Past the bound, the engine's ordering audit would stop the run.
        cfg = tmp_path / "brake.yaml"
        cfg.write_text("vehicle:\n  a_min: -1.0e+300\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: vehicle.a_min * run.dt must be at least -2 * "
            "vehicle.v_min, or one step of braking moves a vehicle "
            "backwards\n")
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("vehicle:\n  v_min: 40.0\n",
         "speed bounds must satisfy 0 < vehicle.v_min < vehicle.v_max"),
        ("vehicle:\n  a_min: 1.0\n",
         "acceleration bounds must satisfy vehicle.a_min < 0 < "
         "vehicle.a_max"),
    ])
    def test_a_rule_joining_keys_names_each_key(self, tmp_path, capsys, text,
                                                message):
        cfg = tmp_path / "bounds.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", _POSITIVE)
    def test_a_positive_setting_at_zero_exits_2(self, tmp_path, capsys,
                                                 name):
        cfg = tmp_path / "zero.yaml"
        cfg.write_text(yaml.safe_dump(params_to_dict(with_setting(name, 0.0))))
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        # A road of length 0 also holds no ramp strictly inside it.
        also = ("; road.on_ramps must lie strictly inside the road"
                "; road.off_ramps must lie strictly inside the road"
                if name == "road.length" else "")
        assert capsys.readouterr().err == (
            f"error: {cli._KEY_OF[name]} must be positive{also}\n")
        assert not out.exists()

    def test_every_override_lands_in_the_echo(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--seed", "5", "--duration", "3", "--dt", "0.05"]) == 0
        echo = yaml.safe_load((out / "config.echo").read_text())
        assert echo["run"] == {"seed": 5, "duration": 3.0, "dt": 0.05}

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

    def test_a_closing_pair_parked_at_the_floor_runs(self, tmp_path):
        # In a box this narrow a head parks within the edge tolerance of
        # v_min by t=7 s, and a vehicle spawned ahead of it runs at exactly
        # v_min: the pair closes with its ego at the floor.
        cfg = tmp_path / "narrow.yaml"
        cfg.write_text("run:\n  duration: 10.0\nvehicle:\n  v_min: 20.0\n"
                       "  v_max: 20.00000002\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").stat().st_size > 0

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

    @pytest.mark.parametrize("ramps", ["on_ramps", "off_ramps"])
    def test_repeated_ramp_is_a_config_error(self, tmp_path, capsys, ramps):
        cfg = tmp_path / "twice.yaml"
        cfg.write_text(f"road:\n  {ramps}: [100, 100, 400]\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: road.{ramps} must be strictly ascending; "
            "100 is repeated\n")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("text, section, key, echoed", [
        ("run:\n  duration: 2.0\n  dt: 1e-3\n", "run", "dt", 0.001),
        ("run:\n  duration: 1E2\n", "run", "duration", 100.0),
        ("run:\n  duration: 2.0\nroad:\n  on_ramps: [100, 2.0e2]\n",
         "road", "on_ramps", [100.0, 200.0]),
    ], ids=["dt", "duration", "on_ramps"])
    def test_a_number_with_an_exponent_runs(self, tmp_path, text, section,
                                            key, echoed):
        cfg = tmp_path / "exponent.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        echo = yaml.safe_load((out / "config.echo").read_text())
        assert repr(echo[section][key]) == repr(echoed)

    @pytest.mark.parametrize("text, shown", [
        ("run:\n  dt: '0.1'\n", "'0.1'"),
        ("run:\n  dt: fast\n", "'fast'"),
    ], ids=["quoted_number", "word"])
    def test_text_is_not_a_number(self, tmp_path, capsys, text, shown):
        cfg = tmp_path / "text.yaml"
        cfg.write_text(text)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: run.dt must be a number, got {shown}\n")

    @given(x=st.floats(min_value=0.0, max_value=1e300))
    def test_a_number_reads_as_python_reads_it(self, tmp_path_factory, x):
        # control.gamma takes any finite x >= 0, as no rule joins it with
        # another key; run.duration / run.dt is bounded by 2**53.
        cfg = tmp_path_factory.getbasetemp() / "number.yaml"
        for text in (repr(x), f"{x:e}", f"{x:E}"):
            cfg.write_text(f"control:\n  gamma: {text}\n")
            assert cli.parse_config(cfg).gamma.hex() == float(text).hex()
            negative = yaml.load(f"-{text}", cli._Loader)
            assert negative.hex() == float(f"-{text}").hex()

    @pytest.mark.parametrize("text", ["1e-3", "1E3", "-2e+2", "1.0e3",
                                      "+1e0", " 5e-1 "])
    def test_the_hinted_spelling_reads_as_the_same_number(self, text):
        # Spellings YAML 1.1 reads as text; the config loader reads the
        # number float() reads, so none needs rewriting.
        assert isinstance(yaml.safe_load(text), str)
        assert yaml.load(text, cli._Loader).hex() == float(text).hex()

    def test_the_stock_safe_loader_still_reads_yaml_1_1(self):
        assert yaml.safe_load("1e-3") == "1e-3"
        assert yaml.load("1e-3", cli._Loader) == 0.001

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,text", [
        (section, key, text)
        for section, fields in params_to_dict(SimParams()).items()
        for key, default in fields.items()
        for text in WRONG_YAML[type(default)]])
    def test_a_value_of_the_wrong_type_names_its_key(self, tmp_path, capsys,
                                                     section, key, text):
        cfg = tmp_path / "wrong.yaml"
        cfg.write_text(f"{section}:\n  {key}: {text}\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        kind = _DECLARED[cli._SETTING_OF[f"{section}.{key}"]]
        value = yaml.load(text, cli._Loader)
        if kind != _RAMPS:
            fault = _fault(kind, value)
        elif isinstance(value, list):
            fault = _fault(kind, tuple(value))
        else:
            fault = f"must be a list, got {value!r}"
        assert capsys.readouterr().err == f"error: {section}.{key} {fault}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, shown", [
        ("100.0", "100.0"), ("{a: 1}", "{'a': 1}")])
    def test_a_ramp_key_takes_only_a_list(self, tmp_path, capsys, text,
                                          shown):
        cfg = tmp_path / "ramps.yaml"
        cfg.write_text(f"road:\n  on_ramps: {text}\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: road.on_ramps must be a list, got {shown}\n")

    def test_a_number_too_long_to_read_is_a_config_error(self, tmp_path,
                                                        capsys):
        # Python reads no int of more than 4300 digits from text.
        cfg = tmp_path / "long.yaml"
        cfg.write_text(f"run:\n  seed: {'1' * 5000}\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")


class TestStampLimit:
    """``trajectory.csv`` and ``events.csv`` write times to six
    significant digits, so a run may last only as long as they tell one
    step's time from the next."""

    class Ran(Exception):
        """Raised in place of the simulation."""

    @pytest.fixture()
    def ran(self, monkeypatch):
        runs = []

        def fake_run(params):
            runs.append(params)
            raise self.Ran
        monkeypatch.setattr(cli, "run", fake_run)
        return runs

    @pytest.mark.parametrize("dt,limit", LIMITS)
    def test_the_limit_is_where_step_times_start_to_collide(self, dt, limit):
        assert _longest_duration(dt) == limit
        times = [k * dt for k in range(round(limit / dt) - 3,
                                       round(limit / dt) + 3)]
        shown = [cli._sig(t) for t in times]
        # Up to the limit every step shows its own time; past it, not.
        assert len(set(shown[:4])) == 4
        assert shown[4] == shown[5]

    @pytest.mark.parametrize("dt,limit", LIMITS)
    def test_a_run_past_the_limit_is_refused_before_out_is_made(
            self, tmp_path, capsys, ran, dt, limit):
        cfg = tmp_path / "long.yaml"
        cfg.write_text(f"run:\n  dt: {dt}\n  duration: {2 * limit}\n")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: run.duration must be at most {limit:g} at "
            f"run.dt={dt:g}, or later steps share their time in "
            f"trajectory.csv and events.csv, got {2 * limit:g}\n")
        assert not out.exists()
        assert ran == []

    @pytest.mark.parametrize("dt,limit", LIMITS)
    def test_a_run_to_the_limit_starts(self, tmp_path, ran, dt, limit):
        cfg = tmp_path / "long.yaml"
        cfg.write_text(f"run:\n  dt: {dt}\n  duration: {limit}\n")
        with pytest.raises(self.Ran):
            main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert [(p.dt, p.duration) for p in ran] == [(dt, limit)]


class TestEngineFailure:
    """A run whose engine audit trips (a 5 s step lets vehicles overtake)
    ends in one error line, never a traceback."""

    @pytest.fixture()
    def coarse_config(self, tmp_path):
        cfg = tmp_path / "coarse.yaml"
        cfg.write_text(yaml.safe_dump({"run": {"dt": 5.0}}))
        return cfg

    def test_run_prints_the_audits_message_and_exits_1(
            self, coarse_config, tmp_path, capsys):
        rc = main(["run", "--config", str(coarse_config),
                   "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert re.fullmatch(r"error: t=\S+: vehicle \d+ at p=\S+ reached "
                            r"vehicle \d+ at p=\S+; no artifacts written "
                            r"to \S+\n", captured.err)

    def test_a_stopped_run_leaves_no_earlier_runs_artifacts(
            self, coarse_config, tmp_path, capsys):
        short = tmp_path / "short.yaml"
        short.write_text(yaml.safe_dump({"run": {"duration": 10}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(short), "--out", str(out),
                     "--plot", "0:10"]) == 0
        assert len(list(out.iterdir())) == 5
        assert main(["run", "--config", str(coarse_config),
                     "--out", str(out)]) == 1
        assert list(out.iterdir()) == []

    def test_verify_reports_all_ten_checks_and_exits_1(self, coarse_config,
                                                       capsys):
        rc = main(["verify", "--config", str(coarse_config)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert len(lines) == 10
        assert all(line.startswith(("PASS  ", "FAIL  ")) for line in lines)
        assert "FAIL  pursuit_convergence: engine audit tripped" in \
            "\n".join(lines)


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
