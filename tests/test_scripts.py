"""Smoke runs of the scripts under ``scripts/``, which import library API."""

import json
import os
import subprocess
import sys
from pathlib import Path

from leechsim.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_reproduce_room_stats(tmp_path):
    out = tmp_path / "repro"
    run = _run_script("reproduce_room_stats.py", "--trials", "60", "--duration",
                      "600", "--workers", "2", "--out", str(out), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "activity.pgm", "calibration.json", "dwell.csv", "fit.json",
        "overlay.ppm", "trial_0000.csv", "visits.csv", "visits_40.csv"]
    # the script's fit is the CLI's fit of its own visits.csv
    refit = tmp_path / "refit.json"
    assert main(["fit", str(out / "visits.csv"), "--out", str(refit)]) == 0
    assert (out / "fit.json").read_bytes() == refit.read_bytes()
    # the rerun ensemble is the one whose frequencies calibration reported
    report = json.loads((out / "calibration.json").read_text())
    rows = (out / "visits.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == [
        f"{a['freq']:.6f}" for a in report["achieved"]]


def test_reproduce_room_stats_bad_workers_is_config_error(tmp_path):
    run = _run_script("reproduce_room_stats.py", "--workers", "0",
                      "--out", str(tmp_path / "repro"), cwd=tmp_path)
    assert run.returncode == 2
    assert "--workers must be >= 1" in run.stderr
    assert "Traceback" not in run.stderr


def test_trigger_sweep(tmp_path):
    run = _run_script("trigger_sweep.py", "--q", "0.1", "0.3", "--trials", "30",
                      "--duration", "400", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["q_scale", "mean_f", "f(x=1)", "f(x=2)", "f(x=3)",
                                "f(x=4)", "exponent", "t_ratio"]
    assert [line.split()[0] for line in lines[1:]] == ["0.100", "0.300"]
