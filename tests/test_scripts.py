"""Smoke runs of the scripts under ``scripts/``, which import library API."""

import hashlib
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


# sha256 of the script's outputs at 60 x 600 (seed 7), recorded when it still
# simulated all 60 trials again and ran ``stats`` on their files
REPRODUCE_60x600 = {
    "activity.pgm": "17ea9efd40fbf5ccf98938662a528489d3bc4d9971c3b4385732f2ff5d5289d7",
    "calibration.json": "94824b541c91fe89955adb56a2a8eebfb086050db621825d4d389d5149fd049b",
    "dwell.csv": "b6ace926dc38d69510609dbecbc890d160fec893a89e440607c3b4a10f6e35b6",
    "fit.json": "09d9fad35bd25865ddbdb8232e7e03698fbe57a9081cccbecc6ef0e4892891c5",
    "overlay.ppm": "cd256f6ead62fa5fcf5009deac0f5945635e9de46055e9d1b2ad4dece4afb157",
    "trial_0000.csv": "571fbb8289e05026589be078ac5ef9331ff938c6bd025f273a537ff4775c1df0",
    "visits.csv": "610813e131ead9dc3503c25ff72bc958d1803f8a7a8c417f8de6558f49ee9183",
    "visits_40.csv": "8c8e5a69df8ad1ad47dc5db7431c0c3a66f58da14151e2132accc480e48cff6c",
}


def test_reproduce_room_stats(tmp_path):
    out = tmp_path / "repro"
    run = _run_script("reproduce_room_stats.py", "--trials", "60", "--duration",
                      "600", "--workers", "2", "--out", str(out), cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()} == REPRODUCE_60x600
    # the script's fit is the CLI's fit of its own visits.csv
    refit = tmp_path / "refit.json"
    assert main(["fit", str(out / "visits.csv"), "--out", str(refit)]) == 0
    assert (out / "fit.json").read_bytes() == refit.read_bytes()
    # visits.csv holds the frequencies calibration reported
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


# the sweep's table for these arguments, recorded when it grouped the rooms
# and refit the exponent itself; at q = 0.1 a room is never visited, so the
# exponent reads nan
TRIGGER_SWEEP_30x400 = """\
q_scale  mean_f  f(x=1)  f(x=2)  f(x=3)  f(x=4)  exponent  t_ratio
  0.100   0.142   0.250   0.133   0.050   0.133       nan     3.50
  0.300   0.358   0.583   0.300   0.283   0.267    -0.577     2.97
"""


def test_trigger_sweep(tmp_path):
    run = _run_script("trigger_sweep.py", "--q", "0.1", "0.3", "--trials", "30",
                      "--duration", "400", cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["q_scale", "mean_f", "f(x=1)", "f(x=2)", "f(x=3)",
                                "f(x=4)", "exponent", "t_ratio"]
    assert [line.split()[0] for line in lines[1:]] == ["0.100", "0.300"]
    assert run.stdout == TRIGGER_SWEEP_30x400
