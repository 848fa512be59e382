#!/usr/bin/env python3
"""Reproduce the room-visit statistics end to end.

Calibrates the entry-trigger scale against the target visit law
0.35 * x^-0.82, reruns the calibrated ensemble, refits the power law to the
simulated frequencies, and renders a time overlay plus an activity map of a
sample trial.  Also emits a 40-trial batch at the calibrated scale for a
like-for-like comparison with a 40-experiment dataset.

Outputs land in --out (default runs/reproduction): visits.csv, dwell.csv,
fit.json, calibration.json, trial_0000.csv, overlay.ppm, activity.pgm,
visits_40.csv.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from leechsim.automaton import AutomatonParams
from leechsim.fitstats import PowerLawFit, calibrate_entry_prob, fit_power_law
from leechsim.geometry import build_corridor_template, room_distance_to_end
from leechsim.locomotion import MotionParams, write_trajectory_csv
from leechsim.montecarlo import (
    derive_trial_seed,
    ensemble_stats,
    run_ensemble,
    write_dwell_csv,
    write_stats_csv,
)
from leechsim.trackio import render_activity_map, render_time_overlay, write_pgm, write_ppm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--duration", type=int, default=1800)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="runs/reproduction")
    args = parser.parse_args(argv)

    env = build_corridor_template()
    auto = AutomatonParams()
    motion = MotionParams()
    target = PowerLawFit(auto.a, auto.b)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"calibrating q_scale against {target.a}*x^{target.b} "
          f"({args.trials} trials x {args.duration} ticks)...")
    result = calibrate_entry_prob(env, motion, auto, target,
                                  n_trials=args.trials, base_seed=args.seed,
                                  tol=1 / 64, duration=args.duration,
                                  workers=args.workers)
    report = {
        "q_scale": result.q_scale,
        "score": result.score,
        "feasible": result.feasible,
        "evaluations": [
            {"q_scale": q, "mean_freq": m, "score": s}
            for q, m, s in result.evaluations
        ],
    }
    (out / "calibration.json").write_text(json.dumps(report, sort_keys=True,
                                                     indent=2) + "\n")
    if not result.feasible:
        print("calibration infeasible; see calibration.json")
        return 1
    print(f"  q_scale = {result.q_scale:.4f} (score {result.score:.5f})")

    calibrated = replace(motion, q_scale=result.q_scale)
    seed = derive_trial_seed(args.seed, result.best_eval_index)
    trajs = run_ensemble(env, calibrated, auto, args.trials, seed,
                         args.duration, workers=args.workers)
    stats = ensemble_stats(trajs)
    write_stats_csv(env, stats, out / "visits.csv")
    write_dwell_csv(stats, out / "dwell.csv")

    points = [(room_distance_to_end(env, r), f)
              for r, f in stats.visit_freq.items() if f > 0]
    fit = fit_power_law(points)
    (out / "fit.json").write_text(json.dumps(
        {"a": fit.a, "b": fit.b, "rss": fit.rss,
         "points": [{"x": x, "y": y} for x, y in points]},
        sort_keys=True, indent=2) + "\n")
    print(f"  refit on simulated frequencies: a={fit.a:.3f} b={fit.b:.3f} "
          f"(target {target.a}, {target.b})")

    batch = run_ensemble(env, calibrated, auto, 40,
                         derive_trial_seed(args.seed, 10_000), args.duration)
    write_stats_csv(env, ensemble_stats(batch), out / "visits_40.csv")

    sample = trajs[0]
    write_trajectory_csv(sample, out / "trial_0000.csv")
    write_ppm(out / "overlay.ppm", render_time_overlay(sample, env, 4.0))
    write_pgm(out / "activity.pgm", render_activity_map(sample, env, 4.0))
    print(f"wrote statistics, fit and renders to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
