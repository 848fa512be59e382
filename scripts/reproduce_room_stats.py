#!/usr/bin/env python3
"""Reproduce the room-visit statistics end to end through the leechsim CLI.

Calibrates the entry-trigger scale against the automaton's visit law
0.35 * x^-0.82, which also writes the calibrated ensemble's visit and dwell
stats, refits the power law to its frequencies, simulates trial 0 of that
ensemble again (a trial's seed does not depend on the number of trials) and
renders a time overlay plus an activity map of it.  Also runs a 40-trial
batch at the calibrated scale for a like-for-like comparison with a
40-experiment dataset.  The trial CSVs of both runs go to a temporary
directory that is removed at the end.

Outputs land in --out (default runs/reproduction): calibration.json,
visits.csv, dwell.csv, fit.json, trial_0000.csv, overlay.ppm, activity.pgm,
visits_40.csv.  The exit code is the first non-zero one of a CLI step.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from leechsim.cli import main as leechsim
from leechsim.montecarlo import derive_trial_seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--duration", type=int, default=1800)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="runs/reproduction")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_opts = ["--duration", str(args.duration), "--workers", str(args.workers)]

    code = leechsim(["calibrate", "--trials", str(args.trials), "--seed", str(args.seed),
                     *run_opts, "--out", str(out / "calibration.json")])
    if code:
        return code
    report = json.loads((out / "calibration.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        config, run, batch = Path(tmp, "config.json"), Path(tmp, "run"), Path(tmp, "batch")
        config.write_text(json.dumps({"motion": {"q_scale": report["q_scale"]}}))
        trial = str(run / "trial_0000.csv")
        steps = [
            ["fit", str(out / "visits.csv"), "--out", str(out / "fit.json")],
            ["simulate", "--config", str(config), "--trials", "1",
             "--seed", str(report["ensemble_seed"]), *run_opts, "--out", str(run)],
            ["render", trial, "--mode", "overlay", "--out", str(out / "overlay.ppm")],
            ["render", trial, "--mode", "activity", "--out", str(out / "activity.pgm")],
            ["simulate", "--config", str(config), "--trials", "40",
             "--seed", str(derive_trial_seed(args.seed, 10_000)), *run_opts,
             "--out", str(batch)],
            ["stats", str(batch)],
        ]
        for step in steps:
            code = leechsim(step)
            if code:
                return code
        shutil.copyfile(trial, out / "trial_0000.csv")
        shutil.copyfile(batch / "visits.csv", out / "visits_40.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
