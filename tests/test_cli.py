import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leechsim.cli import RunConfig, load_run_config, main
from leechsim.locomotion import MotionParams, read_trajectory_csv, run_trial
from leechsim.montecarlo import derive_trial_seed, ensemble_stats, run_ensemble
from leechsim.trackio import frame_filename, read_ppm, render_frames, write_ppm


def _write_config(path, **overrides):
    doc = RunConfig().to_dict()
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def _small_config(tmp_path, out_name="run", **extra):
    overrides = {
        "n_trials": 3,
        "duration_ticks": 40,
        "base_seed": 9,
        "out_dir": str(tmp_path / out_name),
    }
    overrides.update(extra)
    return _write_config(tmp_path / "config.json", **overrides)


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_simulate_writes_csvs_and_manifest(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "trial_0000.csv", "trial_0001.csv", "trial_0002.csv"]
    assert len((out / "trial_0000.csv").read_text().splitlines()) == 41
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_trials"] == 3
    assert len(manifest["trial_seeds"]) == 3
    assert manifest["seed_derivation"].startswith("splitmix64")


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = _small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    first = _dir_bytes(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert _dir_bytes(tmp_path / "run") == first


def test_simulate_from_manifest_reproduces(tmp_path):
    cfg = _small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    original = _dir_bytes(tmp_path / "run")
    manifest = tmp_path / "run" / "manifest.json"
    assert main(["simulate", "--config", str(manifest),
                 "--out", str(tmp_path / "replay")]) == 0
    replay = _dir_bytes(tmp_path / "replay")
    for name, data in original.items():
        if name.startswith("trial_"):
            assert replay[name] == data


def test_simulate_worker_count_invariant(tmp_path):
    cfg = _small_config(tmp_path, n_trials=6)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "w2"), "--workers", "2"]) == 0
    a = _dir_bytes(tmp_path / "w1")
    b = _dir_bytes(tmp_path / "w2")
    assert {k: v for k, v in a.items() if k.startswith("trial_")} == \
        {k: v for k, v in b.items() if k.startswith("trial_")}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_failed_write_names_path(tmp_path, capfd, workers):
    cfg = _small_config(tmp_path, n_trials=4)
    out = tmp_path / "run"
    (out / "trial_0001.csv").mkdir(parents=True)
    (out / "manifest.json").write_text("{}")  # an earlier run's
    assert main(["simulate", "--config", str(cfg), "--workers", workers]) == 3
    err = capfd.readouterr().err
    assert "trial_0001.csv" in err and "Is a directory" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_is_config_error(tmp_path, capsys, command, workers):
    cfg = _small_config(tmp_path)
    assert main([command, "--config", str(cfg), "--workers", workers]) == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_contact_radius_above_wall_is_config_error(tmp_path, capsys):
    motion = {**MotionParams().to_config(), "contact_radius_mm": 3.0}
    cfg = _small_config(tmp_path, motion=motion)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "contact_radius_mm" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_zero_duration_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", duration_ticks=0)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "duration" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    doc = RunConfig().to_dict()
    doc["speling_mistake"] = 1
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "speling_mistake" in capsys.readouterr().err


def test_unknown_nested_key_is_config_error(tmp_path, capsys):
    doc = RunConfig().to_dict()
    doc["motion"]["warp_speed"] = 9
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "warp_speed" in capsys.readouterr().err


def test_stats_matches_library(tmp_path, env, auto, motion):
    cfg = _small_config(tmp_path, n_trials=4, duration_ticks=300,
                        motion={**MotionParams().to_config(), "q_scale": 0.5})
    assert main(["simulate", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    assert main(["stats", str(run_dir)]) == 0

    loaded = load_run_config(run_dir / "manifest.json")
    trajs = run_ensemble(loaded.environment.build(), loaded.motion, loaded.automaton,
                         loaded.n_trials, loaded.base_seed, loaded.duration_ticks)
    counts = ensemble_stats(trajs)
    visit_freq, time_fraction = counts.visit_frequencies(), counts.time_fractions()
    lines = (run_dir / "visits.csv").read_text().splitlines()
    assert lines[0] == "room,distance_x,visit_freq,time_fraction"
    for line in lines[1:]:
        room, x, freq, frac = line.split(",")
        assert int(x) == min(int(room), 9 - int(room))
        assert float(freq) == pytest.approx(visit_freq[int(room)], abs=1e-6)
        assert float(frac) == pytest.approx(time_fraction[int(room)], abs=1e-6)
    assert (run_dir / "dwell.csv").read_text().startswith("mode,duration_ticks,count")


def test_stats_on_malformed_csv_names_file_and_line(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=1, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    victim = tmp_path / "run" / "trial_0000.csv"
    lines = victim.read_text().splitlines()
    lines[3] = "0,2,not_a_number,1.0,CRAWL,C"
    victim.write_text("\n".join(lines) + "\n")
    assert main(["stats", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "trial_0000.csv:4" in err


def test_stats_names_the_line_of_an_undecodable_byte(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=2, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    victim = tmp_path / "run" / "trial_0001.csv"
    victim.write_bytes(victim.read_bytes() + b"\xff")
    assert main(["stats", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "trial_0001.csv:12: byte 0xff is not UTF-8 (invalid start byte)" in err
    assert "Traceback" not in err


def test_config_with_an_undecodable_byte_is_config_error(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b'"n_trials"', b'"n_tri\xe9ls"'))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "config.json:1: byte 0xe9 is not UTF-8" in capsys.readouterr().err


def test_stats_rejects_room_the_template_lacks(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=1, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    victim = tmp_path / "run" / "trial_0000.csv"
    lines = victim.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",R9"
    victim.write_text("\n".join(lines) + "\n")
    assert main(["stats", str(tmp_path / "run")]) == 3
    assert "trial_0000.csv:5: region 'R9'" in capsys.readouterr().err
    assert not (tmp_path / "run" / "visits.csv").exists()


@pytest.mark.parametrize("command", ["stats", "simulate"])
@pytest.mark.parametrize("damage", ["edit_seed", "drop_seeds", "derivation"])
def test_manifest_seeds_must_match_config(tmp_path, capsys, command, damage):
    cfg = _small_config(tmp_path, n_trials=3, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "run" / "manifest.json"
    doc = json.loads(manifest.read_text())
    if damage == "edit_seed":
        doc["trial_seeds"][1] += 1
    elif damage == "drop_seeds":
        del doc["trial_seeds"]
    else:
        doc["seed_derivation"] = "splitmix64(trial_index, base_seed)"
    manifest.write_text(json.dumps(doc))
    argv = (["stats", str(tmp_path / "run")] if command == "stats" else
            ["simulate", "--config", str(manifest), "--out", str(tmp_path / "replay")])
    assert main(argv) == 2
    assert str(manifest) in capsys.readouterr().err
    assert not (tmp_path / "run" / "visits.csv").exists()
    assert not (tmp_path / "replay").exists()


def test_stats_rejects_stale_trial_files(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=5, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["simulate", "--config", str(cfg), "--trials", "3"]) == 0
    run_dir = tmp_path / "run"
    assert len(list(run_dir.glob("trial_*.csv"))) == 5
    assert main(["stats", str(run_dir)]) == 3
    assert str(run_dir / "trial_0003.csv") in capsys.readouterr().err
    assert not (run_dir / "visits.csv").exists()


def test_stats_rejects_missing_trial_file(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=3, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    victim = tmp_path / "run" / "trial_0001.csv"
    victim.unlink()
    assert main(["stats", str(tmp_path / "run")]) == 3
    assert str(victim) in capsys.readouterr().err


@pytest.mark.parametrize("damage,where", [
    ("cut", "trial_0001.csv: 6 ticks, but"),
    ("extended", "trial_0001.csv:12: 11 ticks, but"),
    ("renumbered", "trial_0001.csv:2: trial id 9, but the file name gives trial 1"),
    ("unknown-mode", "trial_0001.csv:2: mode UNKNOWN, but simulated trials are "
                     "STILL, CRAWL or EXPLORE"),
], ids=["cut", "extended", "renumbered", "unknown-mode"])
def test_stats_rejects_trial_files_that_disagree_with_the_manifest(
        tmp_path, capsys, damage, where):
    cfg = _small_config(tmp_path, n_trials=3, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    victim = tmp_path / "run" / "trial_0001.csv"
    lines = victim.read_text().splitlines()
    if damage == "cut":
        lines = lines[:7]
    elif damage == "extended":
        lines.append(lines[-1].replace(",9,", ",10,", 1))
    elif damage == "renumbered":
        lines[1:] = ["9" + line[1:] for line in lines[1:]]
    else:
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            fields[4] = "UNKNOWN"
            lines[i] = ",".join(fields)
    victim.write_text("\n".join(lines) + "\n")
    assert main(["stats", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert where in err
    if damage in ("cut", "extended"):
        assert "gives duration_ticks 10" in err
    assert not (tmp_path / "run" / "visits.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("n_trials", True),
    ("duration_ticks", 10.9),
    ("base_seed", "3"),
    ("out_dir", 7),
    ("environment.rooms", "3"),
    ("environment.room_size_mm", True),
    ("automaton.tau_s_ticks", 600.5),
    ("automaton.p3_a", "0.35"),
    ("motion.q_scale", False),
    ("motion.v_crawl_mm_s", float("nan")),
])
def test_config_values_are_not_coerced(tmp_path, capsys, key, value):
    doc = RunConfig().to_dict()
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert repr(name) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_integer_values_for_float_keys_are_written_as_floats(tmp_path):
    doc = RunConfig().to_dict()
    doc.update(n_trials=2, duration_ticks=20, out_dir=str(tmp_path / "run"))
    doc["environment"]["room_size_mm"] = 15
    doc["automaton"].update(p3_a=1, tick_seconds=1)
    doc["motion"]["v_crawl_mm_s"] = 3
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "run" / "manifest.json"
    written = json.loads(manifest.read_text())["config"]
    for section, key, value in (("environment", "room_size_mm", 15.0),
                                ("automaton", "p3_a", 1.0),
                                ("automaton", "tick_seconds", 1.0),
                                ("motion", "v_crawl_mm_s", 3.0)):
        assert type(written[section][key]) is float and written[section][key] == value
    assert load_run_config(manifest) == RunConfig.from_dict(doc)


def test_config_section_must_be_object(tmp_path, capsys):
    doc = RunConfig().to_dict()
    doc["motion"] = 5
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "'motion'" in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    ('{"n_trials": ' + "1" * 5000 + "}", "invalid JSON: Exceeds the limit"),
    ('{"n_trials": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON: nested too deeply"),
    (json.dumps({"environment": {"room_size_mm": 1e308, "opening_mm": 1.0}}),
     "interior inf x 1e+308 mm is not finite"),
], ids=["5000-digit-int", "100000-deep", "infinite-interior"])
@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_config_the_program_cannot_use_is_config_error(tmp_path, capsys, command, text,
                                                        error):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run" / "o")]) == 2
    assert f"config error: {cfg}: {error}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("damage", ["5000-digit-int", "100000-deep"])
def test_manifest_the_program_cannot_read_is_config_error(tmp_path, capsys, damage):
    cfg = _small_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "run" / "manifest.json"
    doc = json.loads(manifest.read_text())
    seeds = json.dumps(doc.pop("trial_seeds"))
    seeds = "1" * 5000 if damage == "5000-digit-int" else "[" * 100_000 + seeds + "]" * 100_000
    manifest.write_text(json.dumps(doc)[:-1] + f', "trial_seeds": {seeds}}}')
    capsys.readouterr()
    assert main(["stats", str(tmp_path / "run")]) == 2
    assert f"config error: {manifest}: invalid JSON: " in capsys.readouterr().err
    assert not (tmp_path / "run" / "visits.csv").exists()


def test_render_rejects_non_finite_coordinates(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=1, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    csv = tmp_path / "run" / "trial_0000.csv"
    lines = csv.read_text().splitlines()
    lines[5] = "0,4,nan,22.000,CRAWL,C"
    csv.write_text("\n".join(lines) + "\n")
    assert main(["render", str(csv), "--out", str(tmp_path / "o.ppm")]) == 3
    assert "trial_0000.csv:6" in capsys.readouterr().err


def test_fit_on_visit_law_sample(tmp_path, capsys):
    stats_csv = tmp_path / "visits.csv"
    rows = ["room,distance_x,visit_freq,time_fraction"]
    for room, x in ((1, 1), (2, 2), (3, 3), (4, 4)):
        rows.append(f"{room},{x},{0.35 * x ** -0.82:.6f},0.0")
    stats_csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(stats_csv), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["a"] == pytest.approx(0.35, abs=1e-3)
    assert doc["b"] == pytest.approx(-0.82, abs=1e-2)
    assert len(doc["points"]) == 4


def test_fit_drops_zero_rows(tmp_path, capsys):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text(
        "room,distance_x,visit_freq,time_fraction\n"
        "1,1,0.35,0.0\n2,2,0.198,0.0\n3,3,0.142,0.0\n4,4,0.000000,0.0\n"
    )
    assert main(["fit", str(stats_csv)]) == 0
    captured = capsys.readouterr()
    assert "dropped 1" in captured.err
    assert json.loads(captured.out)["b"] == pytest.approx(-0.82, abs=0.02)


@pytest.mark.parametrize("column", [2, 3])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_fit_rejects_non_finite_stats(tmp_path, capsys, column, value):
    rows = [["1", "1", "0.35", "0.1"], ["2", "2", "0.198", "0.05"],
            ["3", "3", "0.142", "0.02"]]
    rows[1][column] = value
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text("room,distance_x,visit_freq,time_fraction\n"
                         + "".join(",".join(row) + "\n" for row in rows))
    assert main(["fit", str(stats_csv)]) == 3
    captured = capsys.readouterr()
    assert "visits.csv:3: non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rows, error", [
    # both frequencies lie in [0, 1], but the fitted coefficient overflows
    (["1,2,1.0,0.1", "2,3,1e-300,0.1"], "overflows a float"),
    (["1,1,0.35,0.1", "1,2,0.198,0.05", "3,3,0.142,0.02"], "visits.csv:3: room 1 listed twice"),
    (["1,1,0.35,0.1", "2,2,1.7,0.05", "3,3,0.142,0.02"], "visits.csv:3: value outside [0, 1]"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "3,3,0.142,-0.2"], "visits.csv:4: value outside [0, 1]"),
])
def test_fit_rejects_stats_the_writer_cannot_write(tmp_path, capsys, rows, error):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text("room,distance_x,visit_freq,time_fraction\n"
                         + "".join(row + "\n" for row in rows))
    assert main(["fit", str(stats_csv)]) == 3
    captured = capsys.readouterr()
    assert error in captured.err
    assert captured.out == ""


def test_fit_names_the_line_of_an_undecodable_byte(tmp_path, capsys):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_bytes(b"room,distance_x,visit_freq,time_fraction\r\n"
                          b"1,1,0.35,0.1\r\n2,2,0.19\xe9,0.05\r\n")
    assert main(["fit", str(stats_csv)]) == 3
    captured = capsys.readouterr()
    assert "visits.csv:3: byte 0xe9 is not UTF-8 (invalid continuation byte)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rows, error", [
    (["1,1,0.000000,0.1", "2,2,0.000000,0.05"], "need at least 2 points, got 0"),
    (["1,2,0.35,0.1", "2,2,0.198,0.05"], "all x equal: log-log system is singular"),
], ids=["all-zero", "one-distance"])
def test_fit_it_cannot_make_names_the_stats_file(tmp_path, capsys, rows, error):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text("room,distance_x,visit_freq,time_fraction\n"
                         + "".join(row + "\n" for row in rows))
    assert main(["fit", str(stats_csv)]) == 3
    captured = capsys.readouterr()
    assert f"error: {stats_csv}: {error}" in captured.err
    assert captured.out == ""


# a visits.csv as stats writes it, for the hostile-input property
_VISITS = "room,distance_x,visit_freq,time_fraction\n" + "".join(
    f"{room},{min(room, 9 - room)},{0.35 * min(room, 9 - room) ** -0.82:.6f},"
    f"{0.01 * room:.6f}\n" for room in range(1, 9))
_DRAW_STATS_KINDS = st.lists(st.sampled_from(["truncate", "flip", "duplicate", "huge"]),
                             max_size=3)
_DRAW_INDEX = st.integers(0, 2**16)
_DRAW_BYTE = st.integers(0, 255)
_DRAW_HUGE = st.sampled_from(["9" * 20, "9" * 400, "1" + "0" * 4299, "9" * 4301,
                              "-" + "9" * 30, "1" * 400 + ".5", "1e400", "0." + "0" * 400 + "1"])


@st.composite
def _hostile_stats(draw):
    """``_VISITS`` cut short, with bytes flipped to any value (UTF-8 or
    not), rows duplicated, or a field replaced by a huge number; the header
    line stays as it is."""
    data = _VISITS.encode()
    start = data.index(b"\n") + 1
    for kind in draw(_DRAW_STATS_KINDS):
        at = start + draw(_DRAW_INDEX) % max(len(data) - start, 1)
        if kind == "truncate":
            data = data[:at]
        elif kind == "flip" and data:
            data = data[:at] + bytes([draw(_DRAW_BYTE)]) + data[at + 1:]
        else:
            lines = data.split(b"\n")
            row = 1 + draw(_DRAW_INDEX) % max(len(lines) - 1, 1)
            if row >= len(lines):
                continue
            if kind == "duplicate":
                lines.insert(row, lines[row])
            else:
                fields = lines[row].split(b",")
                fields[at % len(fields)] = draw(_DRAW_HUGE).encode()
                lines[row] = b",".join(fields)
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def hostile_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "visits.csv"


@settings(max_examples=120, deadline=None)
@given(data=_hostile_stats())
def test_fit_on_hostile_stats_ends_in_exit_0_2_or_3(hostile_csv, data):
    """No input raises out of ``main``; a refused one prints no report."""
    hostile_csv.write_bytes(data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["fit", str(hostile_csv)])
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
    else:
        assert len(json.loads(out.getvalue())["points"]) >= 2


@pytest.mark.parametrize("row, error", [
    ("1,0,0.35,0.1", "visits.csv:2: distance_x 0 outside [1, 32767]"),
    ("1,-3,0.35,0.1", "visits.csv:2: distance_x -3 outside [1, 32767]"),
    (f"1,{10**400},0.35,0.1", f"visits.csv:2: distance_x {10**400} outside"),
    ("0,1,0.35,0.1", "visits.csv:2: room 0 outside [1, 32767]"),
], ids=["distance-0", "distance-negative", "distance-huge", "room-0"])
def test_fit_rejects_rooms_and_distances_outside_the_room_codes(
        tmp_path, capsys, row, error):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text("room,distance_x,visit_freq,time_fraction\n"
                         f"{row}\n2,2,0.198,0.05\n")
    assert main(["fit", str(stats_csv)]) == 3
    captured = capsys.readouterr()
    assert error in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
def test_calibrate_rejects_bad_tol(tmp_path, capsys, tol):
    cfg = _small_config(tmp_path, n_trials=2, duration_ticks=20)
    out = tmp_path / "calib.json"
    assert main(["calibrate", "--config", str(cfg), f"--tol={tol}",
                 "--out", str(out)]) == 2
    assert "--tol must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_smoke(tmp_path, capsys):
    cfg = _small_config(tmp_path, n_trials=30, duration_ticks=300, base_seed=3)
    out = tmp_path / "calib.json"
    code = main(["calibrate", "--config", str(cfg), "--target-a", "0.35",
                 "--target-b", "-0.82", "--tol", "0.25", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"q_scale", "score", "feasible", "converged",
                        "ensemble_seed", "target", "achieved", "evaluations"}
    assert doc["ensemble_seed"] == derive_trial_seed(3, 0)
    assert doc["feasible"] is True
    assert 0.0 <= doc["q_scale"] <= 1.0
    assert len(doc["achieved"]) == 8
    # one progress line per evaluation, naming its q, score and seed
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(doc["evaluations"])
    for i, (line, e) in enumerate(zip(lines, doc["evaluations"])):
        assert line.startswith(f"evaluation {i}: q_scale={e['q_scale']:.6f} "
                               f"mean_freq={e['mean_freq']:.4f} "
                               f"score={e['score']:.6f} "
                               f"ensemble_seed={doc['ensemble_seed']} ("), line
        assert line.endswith(" s)"), line


@pytest.mark.parametrize("workers", [1, 2])
def test_calibrate_writes_the_stats_of_the_ensemble_it_reports(tmp_path, workers):
    """``calibrate --out A/calibration.json`` creates the missing A before
    its first ensemble and writes that ensemble's visits.csv and dwell.csv
    beside the report: the bytes ``simulate`` at the reported q_scale and
    ensemble_seed, then ``stats``, write."""
    cfg = _small_config(tmp_path, n_trials=40, duration_ticks=600, base_seed=5)
    report = tmp_path / "new" / "A" / "calibration.json"
    assert main(["calibrate", "--config", str(cfg), "--workers", str(workers),
                 "--out", str(report)]) == 0
    calibrated = report.parent
    assert sorted(p.name for p in calibrated.iterdir()) == [
        "calibration.json", "dwell.csv", "visits.csv"]
    doc = json.loads(report.read_text())
    rerun = _write_config(tmp_path / "rerun.json", n_trials=40, duration_ticks=600,
                          base_seed=doc["ensemble_seed"],
                          motion={**MotionParams().to_config(), "q_scale": doc["q_scale"]},
                          out_dir=str(tmp_path / "run"))
    assert main(["simulate", "--config", str(rerun), "--workers", str(workers)]) == 0
    assert main(["stats", str(tmp_path / "run"), "--out", str(tmp_path / "stats")]) == 0
    assert _dir_bytes(tmp_path / "stats") == {
        name: (calibrated / name).read_bytes() for name in ("dwell.csv", "visits.csv")}


@pytest.mark.parametrize("name", ["visits.csv", "dwell.csv"])
def test_calibrate_refuses_a_report_path_its_stats_would_overwrite(tmp_path, capsys,
                                                                   name):
    cfg = _small_config(tmp_path, n_trials=2, duration_ticks=20)
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 2
    assert f"calibrate writes its own {name} there" in capsys.readouterr().err
    assert not (tmp_path / name).exists()


def test_calibrate_without_window_passes_exits_3(tmp_path, capsys):
    """Too short for any window pass: q = 1 is tried, reported, exit 3."""
    cfg = _small_config(tmp_path, n_trials=4, duration_ticks=1)
    out = tmp_path / "calib.json"
    assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["feasible"] is False and doc["converged"] is False
    assert doc["q_scale"] == 1.0
    assert [e["q_scale"] for e in doc["evaluations"]] == [0.0, 1.0]
    assert all(a["freq"] == 0.0 for a in doc["achieved"])
    assert "Traceback" not in capsys.readouterr().err


def test_render_overlay_and_activity(tmp_path):
    cfg = _small_config(tmp_path, n_trials=1, duration_ticks=30)
    assert main(["simulate", "--config", str(cfg)]) == 0
    csv = tmp_path / "run" / "trial_0000.csv"
    overlay = tmp_path / "overlay.ppm"
    assert main(["render", str(csv), "--mode", "overlay", "--px-per-mm", "2",
                 "--out", str(overlay)]) == 0
    frame = read_ppm(overlay)
    assert np.all(frame.pixels == (0, 0, 255), axis=2).any()
    assert np.all(frame.pixels == (255, 0, 0), axis=2).any()

    activity = tmp_path / "activity.pgm"
    assert main(["render", str(csv), "--mode", "activity", "--px-per-mm", "2",
                 "--out", str(activity)]) == 0
    assert activity.read_bytes().startswith(b"P5\n")


def test_render_without_manifest_is_config_error(tmp_path, capsys):
    csv = tmp_path / "lonely.csv"
    csv.write_text("trial_id,tick,x_mm,y_mm,mode,region\n0,0,1.0,22.0,CRAWL,C\n")
    assert main(["render", str(csv)]) == 2


def test_track_round_trip(tmp_path, env, auto):
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=6, duration=25)
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i, frame in enumerate(render_frames(traj, env, px_per_mm=2.0)):
        write_ppm(frame_dir / frame_filename(i), frame)
    out = tmp_path / "tracked.csv"
    assert main(["track", str(frame_dir), "--threshold", "40",
                 "--px-per-mm", "2", "--out", str(out)]) == 0
    tracked = read_trajectory_csv(out)
    assert tracked.n_ticks == 25
    err_px = np.hypot(tracked.xs - traj.xs, tracked.ys - traj.ys) * 2.0
    assert math.sqrt(float(np.mean(err_px ** 2))) <= 1.0


@pytest.mark.parametrize("px_per_mm", ["0", "-1", "nan", "inf"])
def test_render_rejects_bad_scale_before_reading_input(tmp_path, capsys, px_per_mm):
    cfg = _small_config(tmp_path, n_trials=1, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "o.ppm"
    assert main(["render", str(tmp_path / "run" / "trial_0000.csv"),
                 "--px-per-mm", px_per_mm, "--out", str(out)]) == 2
    assert "--px-per-mm must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("px_per_mm", ["0", "-4", "nan", "inf"])
def test_track_rejects_bad_scale_before_reading_frames(tmp_path, capsys, px_per_mm):
    # an empty frame directory would be a runtime error (exit 3) once read
    empty = tmp_path / "frames"
    empty.mkdir()
    out = tmp_path / "tracked.csv"
    assert main(["track", str(empty), "--px-per-mm", px_per_mm,
                 "--out", str(out)]) == 2
    assert "--px-per-mm must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["0", "256"])
def test_track_rejects_bad_threshold_before_reading_frames(tmp_path, capsys, threshold):
    empty = tmp_path / "frames"
    empty.mkdir()
    out = tmp_path / "tracked.csv"
    assert main(["track", str(empty), "--threshold", threshold,
                 "--out", str(out)]) == 2
    assert "--threshold must lie in [1, 255]" in capsys.readouterr().err
    assert not out.exists()


def test_track_empty_dir_is_runtime_error(tmp_path, capsys):
    empty = tmp_path / "frames"
    empty.mkdir()
    assert main(["track", str(empty)]) == 3
