#!/usr/bin/env python3
"""Sweep the entry-trigger scale and table the resulting visit statistics.

For each q_scale, runs an ensemble and prints the mean visit frequency, the
distance-grouped frequencies, the log-log exponent refit on the per-room
frequencies, and the end/innermost time-fraction ratio.  Handy for seeing how
the exploration statistics respond to the single calibrated knob.
"""

import argparse
import sys

from leechsim.automaton import AutomatonParams
from leechsim.fitstats import fit_power_law
from leechsim.geometry import build_corridor_template, room_distance_to_end
from leechsim.locomotion import MotionParams
from leechsim.montecarlo import visit_counts


def mean_by_distance(env, per_room: dict[int, float]) -> list[float]:
    """Mean of the per-room values at each distance to the end, nearest first."""
    groups: dict[int, list[float]] = {}
    for room, value in sorted(per_room.items()):
        groups.setdefault(room_distance_to_end(env, room), []).append(value)
    return [sum(values) / len(values) for _, values in sorted(groups.items())]


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
    rooms = range(1, env.n_rooms + 1)
    distances = sorted({room_distance_to_end(env, r) for r in rooms})
    print("q_scale  mean_f  " + "".join(f"f(x={x})  " for x in distances) +
          "exponent  t_ratio")
    for q in args.q:
        motion = MotionParams(q_scale=q)
        counts = visit_counts(env, motion, auto, args.trials, args.seed,
                              args.duration, workers=args.workers)
        f = counts.visit_frequencies()
        grouped = mean_by_distance(env, f)
        mean = sum(f.values()) / len(f)
        b = float("nan")
        if all(v > 0 for v in f.values()):
            b = fit_power_law([(room_distance_to_end(env, r), f[r]) for r in rooms]).b
        tf = mean_by_distance(env, counts.time_fractions())
        ratio = tf[0] / tf[-1] if tf[-1] > 0 else float("inf")
        print(f"{q:7.3f} {mean:7.3f} " +
              " ".join(f"{g:7.3f}" for g in grouped) +
              f" {b:9.3f} {ratio:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
