import contextlib
import errno
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leechsim.cli as cli
from leechsim.automaton import AutomatonParams, config_doc, parse_config
from leechsim.cli import EnvironmentConfig, RunConfig, load_run_config, main
from leechsim.geometry import MAX_ROOM
from leechsim.locomotion import MotionParams, read_trajectory_csv, run_trial
from leechsim.montecarlo import derive_trial_seed, ensemble_stats, run_ensemble
from leechsim.trackio import frame_filename, read_ppm, render_frames, write_ppm

from conftest import count_reads, fresh_env, main_peak_bytes, pin_cpus


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


def test_simulate_fails_the_same_at_any_worker_count(tmp_path, capfd):
    """A forked slice's error is raised again in-process, so two workers
    print the very bytes one worker prints."""
    out = tmp_path / "run"
    (out / "trial_0001.csv").mkdir(parents=True)
    errs = []
    for workers in ("1", "2"):
        assert main(["simulate", "--trials", "3", "--duration", "50", "--out", str(out),
                     "--workers", workers]) == 3
        errs.append(capfd.readouterr().err)
        assert not (out / "manifest.json").exists()
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ") and "Is a directory" in errs[0]


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_is_config_error(tmp_path, capsys, command, workers):
    cfg = _small_config(tmp_path)
    assert main([command, "--config", str(cfg), "--workers", workers]) == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# runs the CLI on its arguments in about 3 GB of address space
_LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
from leechsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["simulate", "calibrate"])
def test_trial_count_too_large_to_hold_fails_at_once(tmp_path, command):
    """The output is allocated before the per-trial seeds are derived, so
    10**11 trials fail at the allocation (exit 3) instead of first deriving
    seeds for minutes."""
    env = fresh_env(OPENBLAS_NUM_THREADS="1")
    argv = [command, "--trials", str(10**11), "--duration", "10"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: [Errno {errno.ENOMEM}] "), proc.stderr


def test_importing_the_cli_loads_neither_multiprocessing_nor_numpy_random():
    """Every command pays for what ``import leechsim.cli`` loads: the fork
    path needs no ``multiprocessing``, and only the kernel's ensembles load
    ``numpy.random``, before they fork."""
    code = ("import sys, leechsim.cli; "
            "print(sorted({'multiprocessing', 'numpy.random'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# stats, then track, on two slices each, in one process
_STATS_THEN_TRACK = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from leechsim.cli import main
run, frames, out = sys.argv[1:]
assert main(["stats", run, "--out", out]) == 0
assert main(["track", frames, "--threshold", "40", "--px-per-mm", "2",
             "--out", os.path.join(out, "tracked.csv")]) == 0
"""


def test_forked_slices_do_not_repeat_the_parent_s_pending_output(tmp_path, env, auto):
    """With stdout a file, and so block-buffered, stats's line is still in
    the buffer when track forks its slices; each slice inherits the buffer,
    so the parent must flush it first.  ``PYTHONUNBUFFERED`` would write
    every line at once and hide a repeat, so it is unset."""
    cfg = _small_config(tmp_path, n_trials=4, duration_ticks=30)
    assert main(["simulate", "--config", str(cfg)]) == 0
    frames = tmp_path / "frames"
    frames.mkdir()
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=6, duration=25)
    for i, frame in enumerate(render_frames(traj, env, px_per_mm=2.0)):
        write_ppm(frames / frame_filename(i), frame)
    out = tmp_path / "out"
    stdout = tmp_path / "stdout.txt"
    argv = [sys.executable, "-c", _STATS_THEN_TRACK, str(tmp_path / "run"), str(frames),
            str(out)]
    with open(stdout, "w") as file:
        proc = subprocess.run(argv, env=fresh_env(PYTHONUNBUFFERED=None), stdout=file,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert stdout.read_text().splitlines() == [f"wrote visits.csv and dwell.csv to {out}",
                                               f"wrote {out / 'tracked.csv'}"]


# a value other than the default for every field of every config class
_NON_DEFAULT = {
    EnvironmentConfig: dict(kind="other", rooms=5, room_size_mm=14.5, wall_mm=2.5,
                            corridor_width_mm=11.0, opening_mm=2.2),
    AutomatonParams: dict(tau_s=500, tau_a=800, a=0.3, b=-0.7, tick=0.5),
    MotionParams: dict(v_crawl=2.5, v_explore=1.2, contact_radius=0.9, q_scale=0.2),
}
_NON_DEFAULT[RunConfig] = dict(
    environment=EnvironmentConfig(**_NON_DEFAULT[EnvironmentConfig]),
    automaton=AutomatonParams(**_NON_DEFAULT[AutomatonParams]),
    motion=MotionParams(**_NON_DEFAULT[MotionParams]),
    n_trials=7, duration_ticks=99, base_seed=3, out_dir="elsewhere")


@pytest.mark.parametrize("cls", list(_NON_DEFAULT), ids=lambda cls: cls.__name__)
def test_every_config_field_round_trips(cls):
    values = _NON_DEFAULT[cls]
    assert set(values) == {f.name for f in fields(cls)}
    obj, default = cls(**values), cls()
    for f in fields(cls):
        assert getattr(obj, f.name) != getattr(default, f.name), f.name
    assert parse_config(cls, json.loads(json.dumps(config_doc(obj)))) == obj


def test_run_config_keys_are_the_manifest_keys():
    def keys(doc, prefix=""):
        return {prefix + key for key in doc} | {
            name for key, value in doc.items() if isinstance(value, dict)
            for name in keys(value, f"{prefix}{key}.")}

    assert keys(RunConfig().to_dict()) == {
        "environment", "environment.kind", "environment.rooms",
        "environment.room_size_mm", "environment.wall_mm",
        "environment.corridor_width_mm", "environment.opening_mm",
        "automaton", "automaton.tau_s_ticks", "automaton.tau_a_ticks",
        "automaton.p3_a", "automaton.p3_b", "automaton.tick_seconds",
        "motion", "motion.v_crawl_mm_s", "motion.v_explore_mm_s",
        "motion.contact_radius_mm", "motion.q_scale",
        "n_trials", "duration_ticks", "base_seed", "out_dir"}


def test_contact_radius_above_wall_is_config_error(tmp_path, capsys):
    motion = {**config_doc(MotionParams()), "contact_radius_mm": 3.0}
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
                        motion={**config_doc(MotionParams()), "q_scale": 0.5})
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


def _raise_timeout(signum, frame):
    raise TimeoutError("the run took longer than its alarm")


def test_simulate_and_stats_on_the_largest_template(tmp_path):
    """Per-room lookups on the template read by index, so a run on 32,767
    rooms costs time linear in its rooms and ends well inside the alarm."""
    environment = {**RunConfig().to_dict()["environment"], "rooms": MAX_ROOM}
    cfg = _small_config(tmp_path, n_trials=2, duration_ticks=10, environment=environment)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(60)
    try:
        assert main(["simulate", "--config", str(cfg), "--workers", "1"]) == 0
        assert main(["stats", str(tmp_path / "run")]) == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    lines = (tmp_path / "run" / "visits.csv").read_text().splitlines()
    assert len(lines) == 1 + MAX_ROOM
    assert lines[-1].startswith(f"{MAX_ROOM},1,")


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


@pytest.mark.parametrize("line,field", [(2, 0), (3, 0), (3, 1), (3, 2), (3, 4), (3, 5)],
                         ids=["first-id", "id", "tick", "x", "mode", "region"])
def test_stats_echoes_a_hostile_field_short(tmp_path, capsys, line, field):
    cfg = _small_config(tmp_path, n_trials=2, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    victim = tmp_path / "run" / "trial_0001.csv"
    lines = victim.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[field] = "Z" * 5000
    lines[line - 1] = ",".join(fields)
    victim.write_text("\n".join(lines) + "\n")
    assert main(["stats", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {victim}:{line}: ")
    assert "'ZZZZ" in err and len(err) < len(str(victim)) + 100, err


@pytest.mark.parametrize("command", ["stats", "simulate", "calibrate"])
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
            [command, "--config", str(manifest), "--out", str(tmp_path / "replay")])
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


def test_stats_reports_the_first_fault_in_file_order(tmp_path, capsys):
    """Each file is read, checked and counted before the next is read, so
    trial 1's wrong id wins over trial 2's unreadable last row."""
    cfg = _small_config(tmp_path, n_trials=3, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    renumbered = run_dir / "trial_0001.csv"
    text = renumbered.read_text()
    lines = text.splitlines()
    renumbered.write_text("\n".join(lines[:1] + ["9" + line[1:] for line in lines[1:]]))
    cut = run_dir / "trial_0002.csv"
    cut.write_bytes(cut.read_bytes()[:-9])
    assert main(["stats", str(run_dir)]) == 3
    err = capsys.readouterr().err
    assert f"{renumbered}:2: trial id 9, but the file name gives trial 1" in err
    assert "trial_0002" not in err
    assert not (run_dir / "visits.csv").exists()
    assert not (run_dir / "dwell.csv").exists()
    renumbered.write_text(text)  # now trial 2's fault shows
    assert main(["stats", str(run_dir)]) == 3
    assert f"{cut}:11: expected 6 fields" in capsys.readouterr().err


def _stats_outputs(run_dir, out):
    assert main(["stats", str(run_dir), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ("visits.csv", "dwell.csv")}


@pytest.mark.parametrize("trials,cpus,slices", [(5, 2, 2), (5, 3, 3), (2, 5, 2)],
                         ids=["2-slices", "3-slices", "more-cpus-than-trials"])
def test_stats_bytes_do_not_depend_on_the_slice_count(tmp_path, monkeypatch, trials,
                                                      cpus, slices):
    cfg = _small_config(tmp_path, n_trials=trials, duration_ticks=400,
                        motion={**config_doc(MotionParams()), "q_scale": 0.5})
    assert main(["simulate", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    with monkeypatch.context() as patch:
        serial = pin_cpus(patch, 1)
        one = _stats_outputs(run_dir, tmp_path / "one")
    assert serial == [1]  # one slice, in-process
    sliced = pin_cpus(monkeypatch, cpus)
    assert _stats_outputs(run_dir, tmp_path / "many") == one
    assert sliced == [slices]


def _fault_in_two_slices(tmp_path):
    """A 4-trial run whose trials 1 and 3 are bad, so that each of 2 or 3
    slices of it holds at most one of them; and trial 1's good text."""
    cfg = _small_config(tmp_path, n_trials=4, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    renumbered = run_dir / "trial_0001.csv"
    text = renumbered.read_text()
    lines = text.splitlines()
    renumbered.write_text("\n".join(lines[:1] + ["9" + line[1:] for line in lines[1:]]))
    cut = run_dir / "trial_0003.csv"
    cut.write_bytes(cut.read_bytes()[:-9])
    return run_dir, text


def _stats_failure(run_dir, monkeypatch, cpus, capsys):
    with monkeypatch.context() as patch:
        slices = pin_cpus(patch, cpus)
        code = main(["stats", str(run_dir)])
    assert slices == [cpus]
    return code, capsys.readouterr().err


@pytest.mark.parametrize("cpus", [2, 3])
def test_stats_in_slices_reports_the_first_fault_in_file_order(tmp_path, monkeypatch,
                                                               capsys, cpus):
    run_dir, text = _fault_in_two_slices(tmp_path)
    serial = _stats_failure(run_dir, monkeypatch, 1, capsys)
    assert serial == (3, f"error: {run_dir / 'trial_0001.csv'}:2: trial id 9, but the "
                         "file name gives trial 1\n")
    assert _stats_failure(run_dir, monkeypatch, cpus, capsys) == serial
    assert not (run_dir / "visits.csv").exists()
    (run_dir / "trial_0001.csv").write_text(text)  # now trial 3's fault shows
    serial = _stats_failure(run_dir, monkeypatch, 1, capsys)
    assert serial == (3, f"error: {run_dir / 'trial_0003.csv'}:11: expected 6 fields\n")
    assert _stats_failure(run_dir, monkeypatch, cpus, capsys) == serial
    assert not (run_dir / "dwell.csv").exists()


def test_stats_in_slices_reports_a_long_error_whole(tmp_path, monkeypatch, capsys):
    """An error longer than 1 KB, here for a run directory's path alone,
    arrives whole from two slices, as one process reports it."""
    deep = tmp_path.joinpath(*["d" * 200] * 6)
    deep.mkdir(parents=True)
    run_dir, _ = _fault_in_two_slices(deep)
    serial = _stats_failure(run_dir, monkeypatch, 1, capsys)
    assert serial[0] == 3 and len(serial[1]) > 1024
    assert _stats_failure(run_dir, monkeypatch, 2, capsys) == serial


def test_stats_without_fork_runs_in_process(tmp_path, monkeypatch):
    cfg = _small_config(tmp_path, n_trials=4, duration_ticks=200)
    assert main(["simulate", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    expected = _stats_outputs(run_dir, tmp_path / "forked")

    slices = pin_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert _stats_outputs(run_dir, tmp_path / "in-process") == expected
    assert slices == [1]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stats_reads_each_trial_file_once_and_none_to_allocate(tmp_path, monkeypatch,
                                                                cpus):
    """Every file is read by the slice that counts it, and by no other
    process: the parent reads none before the slices start."""
    cfg = _small_config(tmp_path, n_trials=7, duration_ticks=30)
    assert main(["simulate", "--config", str(cfg)]) == 0
    slices = pin_cpus(monkeypatch, cpus)
    reads, before = count_reads(monkeypatch, cli, "read_trajectory_csv", 7)
    assert main(["stats", str(tmp_path / "run")]) == 0
    assert list(reads) == [1] * 7
    assert before == [0] and slices == [cpus]


def test_ensemble_stats_refuses_an_unsized_lazy_sequence_before_any_read(tmp_path,
                                                                          monkeypatch):
    """Only a list is sized from its trajectories: a run directory's lazy
    trials without ``env`` or ``duration`` are refused before any file is
    read, and with both each file is read once."""
    cfg = _small_config(tmp_path, n_trials=7, duration_ticks=30)
    assert main(["simulate", "--config", str(cfg)]) == 0
    loaded, env, trajs = cli._load_run_dir(tmp_path / "run")
    reads, _ = count_reads(monkeypatch, cli, "read_trajectory_csv", 7)
    for kwargs, missing in (({"env": env}, "duration"), ({"duration": 30}, "env"),
                            ({}, "env")):
        with pytest.raises(ValueError, match=f"^{missing} must be given with a "
                                             "_LazySequence; only a list is sized"):
            ensemble_stats(trajs, 2, **kwargs)
        assert list(reads) == [0] * 7
    ensemble_stats(trajs, 2, env=env, duration=loaded.duration_ticks)
    assert list(reads) == [1] * 7


def test_stats_memory_does_not_grow_with_the_file_count(tmp_path, monkeypatch):
    """``stats`` holds one trajectory at a time: 56 more files of 1800
    ticks (36 KB of arrays each) may add their names and count rows, but
    not a few trajectories.  One slice, since tracemalloc does not see
    forked workers."""
    pin_cpus(monkeypatch, 1)
    runs = {}
    for n in (8, 64):
        cfg = _small_config(tmp_path, f"run{n}", n_trials=n, duration_ticks=1800)
        assert main(["simulate", "--config", str(cfg)]) == 0
        runs[n] = tmp_path / f"run{n}"
    traj = read_trajectory_csv(runs[8] / "trial_0000.csv")
    traj_bytes = sum(a.nbytes for a in (traj.xs, traj.ys, traj.modes, traj.regions, traj.ms))
    main_peak_bytes(["stats", str(runs[8]), "--out", str(tmp_path / "warm-up")])  # fill caches
    grown = (main_peak_bytes(["stats", str(runs[64]), "--out", str(tmp_path / "out64")])
             - main_peak_bytes(["stats", str(runs[8]), "--out", str(tmp_path / "out8")]))
    assert grown < 3 * traj_bytes, (grown, traj_bytes)


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


def test_timer_cap_past_int64_is_a_config_error(tmp_path, capsys):
    doc = RunConfig().to_dict()
    doc["automaton"]["tau_s_ticks"] = 10**30
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {cfg}: timer cap tau_s must be an integer in [1, 2**63 - 2] "
        f"ticks, got {10**30}\n")
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
    # spellings int() and float() take, and the writer never writes
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "3,1_0,0.2,0.1"],
     "visits.csv:4: int not spelt as the stats writer spells it: '1_0'"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "4, 4,0.1_5,0.1"],
     "visits.csv:4: int not spelt as the stats writer spells it: ' 4'"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "5,\u0665,0.1,0.1"],
     "visits.csv:4: int not spelt as the stats writer spells it: '\u0665'"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "03,3,0.142,0.02"],
     "visits.csv:4: int not spelt as the stats writer spells it: '03'"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "4,4,0.1_5,0.1"],
     "visits.csv:4: float not spelt as the stats writer spells it: '0.1_5'"),
    (["1,1,0.35,0.1", "2,2, 0.198,0.05", "3,3,0.142,0.02"],
     "visits.csv:3: float not spelt as the stats writer spells it: ' 0.198'"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05\t", "3,3,0.142,0.02"],
     "visits.csv:3: float not spelt as the stats writer spells it: '0.05\\t'"),
    (["1,1,0.35,0.1", "2,2,0.198,0.05", "3,3,0.142,\u0660.\u0660\u0662"],
     "visits.csv:4: float not spelt as the stats writer spells it: '\u0660.\u0660\u0662'"),
])
def test_fit_rejects_stats_the_writer_cannot_write(tmp_path, capsys, rows, error):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text("room,distance_x,visit_freq,time_fraction\n"
                         + "".join(row + "\n" for row in rows), encoding="utf-8")
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


# a scalar ``"key": value`` pair, and a number, in a JSON document's text
_JSON_PAIR = re.compile(rb'"\w+": [^,{}\[\]\n]+')
_JSON_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
_DRAW_JSON_KINDS = st.lists(
    st.sampled_from(["truncate", "flip", "duplicate", "huge", "nest"]), max_size=3)
_DRAW_VALUE = st.sampled_from(["true", "null", '"3"', "-1", "0", "2.5", "9" * 30,
                               "1" + "0" * 4299, "-" + "9" * 4299, '"' + "k" * 5000 + '"'])
_DRAW_DEPTH = st.sampled_from([1, 40, 900, 100_000])


@st.composite
def _hostile_json(draw, text):
    """``text`` cut short, with bytes flipped to any value (UTF-8 or not),
    a key repeated with another value, or a number replaced by a huge one
    or by arrays or objects nested up to 100,000 deep."""
    data = text.encode()
    for kind in draw(_DRAW_JSON_KINDS):
        at = draw(_DRAW_INDEX)
        if kind == "truncate":
            data = data[:at % max(len(data), 1)]
        elif kind == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([draw(_DRAW_BYTE)]) + data[at + 1:]
        elif kind == "duplicate":
            pairs = list(_JSON_PAIR.finditer(data))
            if pairs:
                pair = pairs[at % len(pairs)]
                key = pair[0].split(b":")[0]
                data = (data[:pair.end()] + b", " + key + b": "
                        + draw(_DRAW_VALUE).encode() + data[pair.end():])
        else:
            numbers = list(_JSON_NUMBER.finditer(data))
            if numbers:
                number = numbers[at % len(numbers)]
                if kind == "huge":
                    value = draw(_DRAW_HUGE).encode()
                else:
                    depth = draw(_DRAW_DEPTH)
                    value = (b"[" * depth + b"1" + b"]" * depth if at % 2 else
                             b'{"a": ' * depth + b"1" + b"}" * depth)
                data = data[:number.start()] + value + data[number.end():]
    return data


def _main_on_hostile(argv):
    """Exit code and stderr of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def hostile_run(tmp_path_factory):
    """A config of 2 trials of 10 ticks, and the run directory it makes."""
    tmp = tmp_path_factory.mktemp("hostile-json")
    config = _small_config(tmp, n_trials=2, duration_ticks=10)
    assert main(["simulate", "--config", str(config)]) == 0
    return config, tmp / "run"


_CONFIG_TEXT = json.dumps({**RunConfig().to_dict(), "n_trials": 2, "duration_ticks": 10})


@settings(max_examples=100, deadline=None)
@given(data=_hostile_json(_CONFIG_TEXT))
def test_simulate_on_hostile_config_ends_in_exit_0_2_or_3(hostile_run, data):
    """No config raises out of ``main``, and its error is one short line;
    a refused one writes no manifest.  The size flags keep every run small
    and the output in place, whatever the config says."""
    config, run_dir = hostile_run
    hostile = config.with_name("hostile.json")
    hostile.write_bytes(data)
    out = run_dir.with_name("hostile-run")
    shutil.rmtree(out, ignore_errors=True)
    code, err = _main_on_hostile(["simulate", "--config", str(hostile), "--out", str(out),
                                  "--trials", "2", "--duration", "10"])
    assert code in (0, 2, 3)
    assert (out / "manifest.json").exists() == (code == 0)
    assert err.count("\n") == (code != 0) and len(err) < 600 + len(str(hostile)), err


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stats_on_hostile_manifest_ends_in_exit_0_2_or_3(hostile_run, data):
    """No manifest raises out of ``main``, and its error is one short
    line; a refused one writes no stats."""
    _, run_dir = hostile_run
    manifest = run_dir / "manifest.json"
    text = manifest.read_text()
    try:
        manifest.write_bytes(data.draw(_hostile_json(text)))
        out = run_dir.with_name("hostile-stats")
        shutil.rmtree(out, ignore_errors=True)
        code, err = _main_on_hostile(["stats", str(run_dir), "--out", str(out)])
    finally:
        manifest.write_text(text)
    assert code in (0, 2, 3)
    assert (out / "visits.csv").exists() == (code == 0)
    assert err.count("\n") == (code != 0) and len(err) < 600 + len(str(manifest)), err


@pytest.mark.parametrize("row, error", [
    ("1,0,0.35,0.1", "visits.csv:2: distance_x 0 outside [1, 32767]"),
    ("1,-3,0.35,0.1", "visits.csv:2: distance_x -3 outside [1, 32767]"),
    (f"1,{10**400},0.35,0.1",
     "visits.csv:2: distance_x 100000000000000000...0000000000000000000 outside"),
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


@pytest.mark.parametrize("row", [f"1,1,{'9' * 5000},0.1", f"1,1,{' ' * 5000}nan,0.1",
                                 f"1,1,x{'y' * 5000},0.1", f"1,{'9' * 4300},0.35,0.1"],
                         ids=["huge", "padded-nan", "not-a-number", "distance-4300-digits"])
def test_fit_echoes_a_hostile_field_short(tmp_path, capsys, row):
    stats_csv = tmp_path / "visits.csv"
    stats_csv.write_text("room,distance_x,visit_freq,time_fraction\n"
                         f"{row}\n2,2,0.198,0.05\n")
    assert main(["fit", str(stats_csv)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300
    assert "visits.csv:2: " in captured.err
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
                          motion={**config_doc(MotionParams()), "q_scale": doc["q_scale"]},
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


def test_track_missing_dir_is_runtime_error_naming_it(tmp_path, capsys):
    missing = tmp_path / "frames"
    assert main(["track", str(missing)]) == 3
    assert str(missing) in capsys.readouterr().err


def test_track_refuses_a_gap_in_the_frame_numbering(tmp_path, capsys, env, auto):
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=6, duration=10)
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    frames = list(render_frames(traj, env, px_per_mm=2.0))
    for i in (0, 1, 3, 9):
        write_ppm(frame_dir / frame_filename(i), frames[i])
    out = tmp_path / "tracked.csv"
    assert main(["track", str(frame_dir), "--threshold", "40",
                 "--px-per-mm", "2", "--out", str(out)]) == 3
    assert f"{frame_dir / frame_filename(2)}: missing frame" in capsys.readouterr().err
    assert not out.exists()


def test_track_refuses_coordinates_no_trajectory_csv_holds(tmp_path, capsys, env, auto):
    """At 1e-10 px per mm every position lies past 10**12 mm, which has no
    text in the file format: exit 3 naming the coordinate, and no file."""
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=6, duration=10)
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i, frame in enumerate(render_frames(traj, env, px_per_mm=2.0)):
        write_ppm(frame_dir / frame_filename(i), frame)
    out = tmp_path / "tracked.csv"
    assert main(["track", str(frame_dir), "--px-per-mm", "1e-10", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: trial 0, tick 0: coordinate x = [0-9]{13,}\.[0-9]+ does "
                        r"not fit 1 to 12 digits, '\.' and 3 digits\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["overlay", "activity"])
def test_render_canvas_too_large_to_allocate_is_exit_3(tmp_path, capsys, mode):
    # 1e6 px/mm makes the template a 134,000,001 x 27,000,001 px canvas, 9.64 PiB
    # as RGB: past any address space, so its allocation fails at once
    cfg = _small_config(tmp_path, n_trials=1, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "image"
    assert main(["render", str(tmp_path / "run" / "trial_0000.csv"), "--mode", mode,
                 "--px-per-mm", "1e6", "--out", str(out)]) == 3
    assert "134000001x27000001 px canvas" in capsys.readouterr().err
    assert not out.exists()


def test_config_value_of_wrong_type_is_echoed_short(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    nested = "[" * 900 + "]" * 900
    cfg.write_text(json.dumps(RunConfig().to_dict())[:-1] + f', "n_trials": {nested}}}')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config key 'n_trials' must be of type int, got [[[[[[[...]]]]]]]" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_unknown_config_keys_are_counted_and_echoed_short(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    doc = RunConfig().to_dict()
    doc.update({f"{i:02d}" + "k" * 298: 1 for i in range(50)})
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: unknown config keys (50): "
                          "['00kkkkkkkkkk...kkkkkkkkkkkkk', '01kkkk")
    assert err.endswith("', ...]\n")
    assert err.count("\n") == 1 and len(err) < 400
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key,value", [
    (None, "n_trials", -10**4000), (None, "duration_ticks", -10**4000),
    (None, "base_seed", -10**4000), ("environment", "rooms", 10**4000),
    ("environment", "kind", "k" * 5000), ("automaton", "p3_a", 10**400),
], ids=["n_trials", "duration_ticks", "base_seed", "rooms", "kind", "float-past-max"])
def test_huge_config_values_are_refused_and_echoed_short(tmp_path, capsys, section,
                                                         key, value):
    """A value as long as JSON allows is refused in one short line, and an
    integer past the largest float is no float value (not an OverflowError)."""
    doc = RunConfig().to_dict()
    (doc[section] if section else doc)[key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ")
    assert err.count("\n") == 1 and len(err) < 200 + len(str(cfg)), err
    assert not (tmp_path / "run").exists()


def test_manifest_of_a_huge_trial_count_derives_no_seeds(tmp_path, capsys):
    """The seed list's length is checked before any seed is derived, so a
    manifest claiming 10**18 trials is refused at once."""
    cfg = _small_config(tmp_path, n_trials=2, duration_ticks=10)
    assert main(["simulate", "--config", str(cfg)]) == 0
    manifest = tmp_path / "run" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["config"]["n_trials"] = 10**18
    manifest.write_text(json.dumps(doc))
    assert main(["stats", str(tmp_path / "run")]) == 2
    assert (f"{manifest}: trial_seeds are not splitmix64(base_seed, trial_index) for "
            f"base_seed 9 and trial_index 0..999999999999999999") in capsys.readouterr().err
