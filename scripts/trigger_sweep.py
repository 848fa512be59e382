#!/usr/bin/env python3
"""Sweep the entry-trigger scale and table the resulting visit statistics.

For each q_scale, runs an ensemble and prints, from its ``room_summary``, the
mean visit frequency, the distance-grouped frequencies, the log-log exponent
refit on the per-room frequencies (nan when a room was never visited), and
the end/innermost time-fraction ratio.  Handy for seeing how the exploration
statistics respond to the single calibrated knob.
"""

import argparse
import math
import sys

from leechsim.automaton import AutomatonParams
from leechsim.fitstats import room_summary
from leechsim.geometry import build_corridor_template, room_distance_to_end
from leechsim.locomotion import MotionParams
from leechsim.montecarlo import visit_counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=float, nargs="+",
                        default=[0.02, 0.04, 0.06, 0.1, 0.2])
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--duration", type=int, default=1800)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    env = build_corridor_template()
    auto = AutomatonParams()
    distances = sorted({room_distance_to_end(env, r) for r in range(1, env.n_rooms + 1)})
    print("q_scale  mean_f  " + "".join(f"f(x={x})  " for x in distances) +
          "exponent  t_ratio")
    for q in args.q:
        motion = MotionParams(q_scale=q)
        counts = visit_counts(env, motion, auto, args.trials, args.seed,
                              args.duration, workers=args.workers)
        summary = room_summary(counts, env)
        mean = sum(summary.frequency.values()) / len(summary.frequency)
        b = math.nan if summary.exponent is None else summary.exponent
        print(f"{q:7.3f} {mean:7.3f} " +
              " ".join(f"{g:7.3f}" for g in summary.frequency_by_distance) +
              f" {b:9.3f} {summary.end_inner_ratio:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
