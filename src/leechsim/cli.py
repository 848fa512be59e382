"""Command line front end: simulate | stats | fit | calibrate | render | track.

All randomness flows from the single --seed; there are no wall-clock or
entropy sources, so identical inputs give byte-identical outputs.  Exit codes:
0 ok, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .automaton import AutomatonParams, Mode, config_doc, parse_config
from .fitstats import PowerLawFit, calibrate_entry_prob, fit_power_law
from .geometry import EnvironmentTemplate, GeometryError, build_corridor_template
from .locomotion import (
    MODE_UNKNOWN,
    MotionParams,
    Trajectory,
    read_trajectory_csv,
    utf8_text,
    write_trajectory_csv,
)
from .montecarlo import (
    SEED_DERIVATION,
    _LazySequence,
    derive_trial_seed,
    ensemble_stats,
    read_stats_csv,
    run_ensemble,
    write_dwell_csv,
    write_stats_csv,
)
from .trackio import (
    frames_to_trajectory,
    read_frame_dir,
    render_activity_map,
    render_time_overlay,
    write_pgm,
    write_ppm,
)


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class EnvironmentConfig:
    """Template kind plus dimensions, all lengths in mm."""

    kind: str = "corridor"
    rooms: int = 8
    room_size_mm: float = 15.0
    wall_mm: float = 2.0
    corridor_width_mm: float = 10.0
    opening_mm: float = 2.0

    def build(self) -> EnvironmentTemplate:
        if self.kind != "corridor":
            raise ConfigError("simulation supports only the corridor template, "
                              f"got {reprlib.repr(self.kind)}")
        try:
            return build_corridor_template(
                rooms=self.rooms,
                room_size=self.room_size_mm,
                wall=self.wall_mm,
                corridor_width=self.corridor_width_mm,
                opening=self.opening_mm,
            )
        except GeometryError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; validates every sub-config at load."""

    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    automaton: AutomatonParams = field(default_factory=AutomatonParams)
    motion: MotionParams = field(default_factory=MotionParams)
    n_trials: int = 40
    duration_ticks: int = 1800
    base_seed: int = 1
    out_dir: str = "runs/run"

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {reprlib.repr(self.n_trials)}")
        if self.duration_ticks < 1:
            raise ConfigError(f"duration_ticks must be >= 1, "
                              f"got {reprlib.repr(self.duration_ticks)}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {reprlib.repr(self.base_seed)}")
        # the kernel checks this too, but only once a run has begun
        if self.motion.contact_radius > self.environment.wall_mm:
            raise ConfigError(
                f"motion.contact_radius_mm ({self.motion.contact_radius}) must "
                f"not exceed environment.wall_mm ({self.environment.wall_mm})"
            )

    def to_dict(self) -> dict:
        return config_doc(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            return parse_config(cls, doc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _trial_seeds(cfg: RunConfig) -> list[int]:
    return [derive_trial_seed(cfg.base_seed, i) for i in range(cfg.n_trials)]


def load_run_config(path) -> RunConfig:
    """Load a RunConfig from a config file or from a run manifest.

    A manifest must carry the seed_derivation and trial_seeds simulate writes.
    """
    try:
        text = utf8_text(Path(path).read_bytes(), path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # also an integer longer than int() reads
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    manifest = "config" in doc
    if manifest and not isinstance(doc["config"], dict):
        raise ConfigError(f"{path}: manifest config must be a JSON object")
    try:
        cfg = RunConfig.from_dict(doc["config"] if manifest else doc)
        cfg.environment.build()  # so that a bad template names the file too
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not manifest:
        return cfg
    if doc.get("seed_derivation") != SEED_DERIVATION:
        raise ConfigError(f"{path}: seed_derivation must be {SEED_DERIVATION!r}")
    seeds = doc.get("trial_seeds")
    # compare lengths first, so that a huge n_trials derives no seeds
    if (not isinstance(seeds, list) or len(seeds) != cfg.n_trials
            or seeds != _trial_seeds(cfg)):
        raise ConfigError(
            f"{path}: trial_seeds are not {SEED_DERIVATION} for base_seed "
            f"{reprlib.repr(cfg.base_seed)} and trial_index "
            f"0..{reprlib.repr(cfg.n_trials - 1)}")
    return cfg


def _json_text(doc: dict) -> str:
    # NaN and Infinity are not JSON: refuse to write them rather than emit them
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(_json_text(doc) + "\n", newline="\n")


def _report(doc: dict, out, what: str) -> None:
    """Write ``doc`` to the ``out`` path, or print it when there is none."""
    if out:
        _write_json(doc, out)
        print(f"wrote {what} to {out}")
    else:
        print(_json_text(doc))


def _trial_csv_name(index: int) -> str:
    return f"trial_{index:04d}.csv"


def _check_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be finite and > 0, got {value}")


def _checked_run(args, out_dir=None, tol=None) -> tuple[RunConfig, EnvironmentTemplate]:
    """``simulate``'s or ``calibrate``'s run config and template, checked in
    this order: ``--workers``, calibrate's ``--tol``, then ``--config`` (or
    the defaults) with the flags and ``out_dir`` applied, then the template."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if tol is not None:
        _check_positive("--tol", tol)
    cfg = load_run_config(args.config) if args.config else RunConfig()
    flags = {"n_trials": args.trials, "base_seed": args.seed,
             "duration_ticks": args.duration, "out_dir": out_dir}
    cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})
    return cfg, cfg.environment.build()


def cmd_simulate(args) -> int:
    cfg, env = _checked_run(args, out_dir=args.out)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a failed run must not leave an earlier run's manifest vouching for it
    (out / "manifest.json").unlink(missing_ok=True)
    # the workers write the trial CSVs; the manifest follows once all succeeded
    run_ensemble(env, cfg.motion, cfg.automaton, cfg.n_trials, cfg.base_seed,
                 cfg.duration_ticks, workers=args.workers,
                 sink=lambda t: write_trajectory_csv(
                     t, out / _trial_csv_name(t.trial_id)))
    manifest = {
        "config": cfg.to_dict(),
        "seed_derivation": SEED_DERIVATION,
        "trial_seeds": _trial_seeds(cfg),
    }
    _write_json(manifest, out / "manifest.json")
    print(f"wrote {cfg.n_trials} trajectories to {out}")
    return 0


def _read_trial(manifest: Path, env: EnvironmentTemplate, duration: int,
                index: int) -> Trajectory:
    """Trial ``index`` of the run that ``manifest`` describes, read from its
    CSV and checked: the file must carry its own index as trial id, hold
    ``duration`` rows and no mode the automaton lacks (tracked data's
    UNKNOWN)."""
    path = manifest.parent / _trial_csv_name(index)
    traj = read_trajectory_csv(path, env)
    if traj.trial_id != index:
        raise RuntimeError(f"{path}:2: trial id {traj.trial_id}, but the file "
                           f"name gives trial {index}")
    if traj.n_ticks != duration:
        # name the first row past duration_ticks; a cut file has none
        line = f":{duration + 2}" if traj.n_ticks > duration else ""
        raise RuntimeError(f"{path}{line}: {traj.n_ticks} ticks, but "
                           f"{manifest} gives duration_ticks {duration}")
    unknown = traj.modes == MODE_UNKNOWN
    if unknown.any():
        names = [mode.name for mode in Mode]
        raise RuntimeError(f"{path}:{unknown.argmax() + 2}: mode UNKNOWN, but "
                           f"simulated trials are {', '.join(names[:-1])} or "
                           f"{names[-1]}")
    return traj


def _load_run_dir(run_dir: Path) -> tuple[RunConfig, EnvironmentTemplate, _LazySequence]:
    """The manifest's config and template, and its trials, each read and
    checked by :func:`_read_trial` only when it is reached, so that one
    file's arrays are held at a time.

    Every trial file must be present, and no other ``trial_*.csv`` may be
    there; the files themselves are read as the trials are reached.
    """
    manifest = run_dir / "manifest.json"
    if not manifest.is_file():
        raise ConfigError(f"no manifest.json in {run_dir}")
    cfg = load_run_config(manifest)
    env = cfg.environment.build()
    files = [run_dir / _trial_csv_name(i) for i in range(cfg.n_trials)]
    for path in files:
        if not path.is_file():
            raise RuntimeError(f"{path}: missing; {manifest} lists "
                               f"{cfg.n_trials} trials")
    extra = sorted(set(run_dir.glob("trial_*.csv")) - set(files))
    if extra:
        raise RuntimeError(f"{extra[0]}: not one of the {cfg.n_trials} trials "
                           f"{manifest} lists (stale file from another run?)")
    return cfg, env, _LazySequence(partial(_read_trial, manifest, env, cfg.duration_ticks),
                                   range(cfg.n_trials))


def _write_stats(env: EnvironmentTemplate, counts, out: Path) -> None:
    write_stats_csv(env, counts, out / "visits.csv")
    write_dwell_csv(counts, out / "dwell.csv")
    print(f"wrote visits.csv and dwell.csv to {out}")


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where fork is missing, so that
    ``stats`` and ``track`` then read their files in-process."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_stats(args) -> int:
    run_dir = Path(args.run_dir)
    cfg, env, trajs = _load_run_dir(run_dir)
    # one slice of the files per CPU; the counts are the same for any split
    counts = ensemble_stats(trajs, workers=_cpus(), env=env, duration=cfg.duration_ticks)
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_stats(env, counts, out)
    return 0


def cmd_fit(args) -> int:
    rows = read_stats_csv(args.stats_csv)
    points = [(x, freq) for _, x, freq, _ in rows if freq > 0]
    dropped = len(rows) - len(points)
    if dropped:
        print(f"dropped {dropped} zero-frequency rows", file=sys.stderr)
    try:
        fit = fit_power_law(points)
    except ValueError as exc:
        raise ValueError(f"{args.stats_csv}: {exc}") from None
    doc = {
        "a": fit.a,
        "b": fit.b,
        "rss": fit.rss,
        "points": [{"x": x, "y": y} for x, y in points],
    }
    _report(doc, args.out, "fit")
    return 0


def _print_evaluation(index, q, mean, score, seed, seconds) -> None:
    print(f"evaluation {index}: q_scale={q:.6f} mean_freq={mean:.4f} "
          f"score={score:.6f} ensemble_seed={seed} ({seconds:.2f} s)",
          file=sys.stderr)


def cmd_calibrate(args) -> int:
    cfg, env = _checked_run(args, tol=args.tol)
    if args.out:
        out = Path(args.out)
        if out.name in ("visits.csv", "dwell.csv"):
            raise ConfigError(f"--out {out}: calibrate writes its own {out.name} there")
        out.parent.mkdir(parents=True, exist_ok=True)
    target = PowerLawFit(
        a=cfg.automaton.a if args.target_a is None else args.target_a,
        b=cfg.automaton.b if args.target_b is None else args.target_b,
    )
    result = calibrate_entry_prob(
        env, cfg.motion, cfg.automaton, target,
        n_trials=cfg.n_trials, base_seed=cfg.base_seed, tol=args.tol,
        duration=cfg.duration_ticks, workers=args.workers,
        progress=_print_evaluation,
    )
    doc = {
        "q_scale": result.q_scale,
        "score": result.score,
        "feasible": result.feasible,
        "converged": result.converged,
        "ensemble_seed": result.ensemble_seed,
        "target": {"a": target.a, "b": target.b},
        "achieved": [
            {"room": room, "freq": freq, "target": result.target_values[room]}
            for room, freq in sorted(result.achieved.items())
        ],
        "evaluations": [
            {"q_scale": q, "mean_freq": mean, "score": score}
            for q, mean, score in result.evaluations
        ],
    }
    _report(doc, args.out, "calibration report")
    if args.out:
        _write_stats(env, result.counts, out.parent)
    return 0 if result.feasible else 3


def _env_for_trajectory(args, traj_path: Path) -> EnvironmentTemplate:
    manifest = Path(args.manifest) if args.manifest else traj_path.parent / "manifest.json"
    if not manifest.is_file():
        raise ConfigError(
            f"no manifest at {manifest}; pass --manifest to locate the template"
        )
    return load_run_config(manifest).environment.build()


def cmd_render(args) -> int:
    _check_positive("--px-per-mm", args.px_per_mm)
    traj_path = Path(args.trajectory_csv)
    env = _env_for_trajectory(args, traj_path)
    traj = read_trajectory_csv(traj_path, env)
    if args.mode == "overlay":
        frame = render_time_overlay(traj, env, args.px_per_mm)
        out = Path(args.out) if args.out else \
            traj_path.with_name(traj_path.stem + "_overlay.ppm")
        write_ppm(out, frame)
    else:
        gray = render_activity_map(traj, env, args.px_per_mm)
        out = Path(args.out) if args.out else \
            traj_path.with_name(traj_path.stem + "_activity.pgm")
        write_pgm(out, gray)
    print(f"wrote {out}")
    return 0


def cmd_track(args) -> int:
    _check_positive("--px-per-mm", args.px_per_mm)
    if not 1 <= args.threshold <= 255:
        raise ConfigError(f"--threshold must lie in [1, 255], got {args.threshold}")
    env = None
    if args.manifest:
        env = load_run_config(args.manifest).environment.build()
    frames = read_frame_dir(args.frame_dir)
    traj = frames_to_trajectory(
        frames,
        threshold=args.threshold,
        mm_per_px=1.0 / args.px_per_mm,
        env=env,
        workers=_cpus(),  # the positions are the same for any split
    )
    out = Path(args.out) if args.out else Path(args.frame_dir) / "trajectory.csv"
    write_trajectory_csv(traj, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leechsim",
        description="Corridor-exploration simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # simulate's and calibrate's
    run.add_argument("--config", help="run config or manifest JSON")
    run.add_argument("--trials", type=int, help="override n_trials")
    run.add_argument("--seed", type=int, help="override base_seed")
    run.add_argument("--duration", type=int, help="override duration_ticks")
    run.add_argument("--workers", type=int, default=1, help="parallel trial workers")

    p = sub.add_parser("simulate", parents=[run], help="run a trial ensemble to trajectory CSVs")
    p.add_argument("--out", help="override output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="aggregate a run directory into stats CSVs")
    p.add_argument("run_dir", help="directory holding manifest.json and trial CSVs")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fit", help="fit a power law to a visit-stats CSV")
    p.add_argument("stats_csv", help="CSV with room,distance_x,visit_freq,time_fraction")
    p.add_argument("--out", help="write the fit report JSON here instead of stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("calibrate", parents=[run], help="fit q_scale against a target visit law")
    p.add_argument("--target-a", type=float, dest="target_a",
                   help="target coefficient (default: automaton p3_a)")
    p.add_argument("--target-b", type=float, dest="target_b",
                   help="target exponent (default: automaton p3_b)")
    p.add_argument("--tol", type=float, default=1.0 / 64.0,
                   help="smallest q_scale move worth another ensemble")
    p.add_argument("--out", help="write the calibration report JSON here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("render", help="render a trajectory CSV to an image")
    p.add_argument("trajectory_csv")
    p.add_argument("--mode", choices=("overlay", "activity"), default="overlay")
    p.add_argument("--px-per-mm", type=float, dest="px_per_mm", default=4.0)
    p.add_argument("--manifest", help="manifest JSON describing the template "
                                      "(default: sibling manifest.json)")
    p.add_argument("--out", help="output image path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("track", help="centroid-track a PPM frame directory")
    p.add_argument("frame_dir", help="directory of frame_%%06d.ppm files")
    p.add_argument("--threshold", type=int, default=40,
                   help="RGB darkness threshold; a pixel is dark when all "
                        "channels fall below it (useful range 30-50)")
    p.add_argument("--px-per-mm", type=float, dest="px_per_mm", default=4.0)
    p.add_argument("--manifest", help="manifest JSON used to derive regions")
    p.add_argument("--out", help="output trajectory CSV path")
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
