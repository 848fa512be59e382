"""Trial ensembles with reproducible seeding and the room-visit statistics.

Per-trial seeds derive from (base_seed, trial_index) through a splitmix64
finalizer, so results are independent of execution order and of how many
workers run the trials.  Aggregations are plain counts and therefore
order-independent.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .automaton import AutomatonParams, Mode
from .geometry import MAX_ROOM, EnvironmentTemplate, room_distance_to_end
from .locomotion import (
    MotionParams,
    TrialArrays,
    Trajectory,
    VisitCounts,
    _SimContext,
    _simulate,
    run_trial,  # noqa: F401  (perfbench's tracer wraps montecarlo.run_trial)
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
SEED_DERIVATION = "splitmix64(base_seed, trial_index)"  # manifests name it


def derive_trial_seed(base_seed: int, index: int) -> int:
    """splitmix64 finalizer of base_seed advanced by (index + 1) gammas.

    The finalizer is a bijection on 64-bit words and the gamma is odd, so
    distinct indices under the same base seed never collide.
    """
    z = (base_seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class EnsembleStats:
    """Visit frequencies, time fractions and mode dwell lists for one ensemble."""

    visit_freq: dict[int, float]
    time_fraction: dict[int, float]
    mode_dwell: dict[Mode, list[int]]


_ERROR_BYTES = 1024  # room for a failed worker's exception message


def _fill_and_sink(ctx: _SimContext, env: EnvironmentTemplate, seeds, trial_ids,
                   out: TrialArrays | VisitCounts, sink) -> None:
    """Fill ``out`` with one trial per seed, then pass each trajectory to ``sink``."""
    _simulate(ctx, seeds, out)
    if sink is not None:
        for traj in out.trajectories(env, seeds, trial_ids):
            sink(traj)


def _run_slice(ctx: _SimContext, env: EnvironmentTemplate, seeds, trial_ids,
               out: TrialArrays | VisitCounts, sink, error) -> None:
    """Forked worker body: :func:`_fill_and_sink` one slice of the ensemble.

    A failure is written to the shared ``error`` buffer as ``Type: message``
    and ends the process with exit code 1, so the parent can name the cause
    and no traceback is printed.
    """
    try:
        _fill_and_sink(ctx, env, seeds, trial_ids, out, sink)
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".encode(errors="replace")
        error.value = message[:len(error) - 1]
        sys.exit(1)


def _ensemble_setup(env, motion, auto, n_trials, base_seed, workers):
    """Checked arguments: the simulation context and the per-trial seeds."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ctx = _SimContext(env, motion, auto)  # validate before any worker starts
    return ctx, [derive_trial_seed(base_seed, i) for i in range(n_trials)]


def _fill(ctx: _SimContext, env: EnvironmentTemplate, seeds,
          out: TrialArrays | VisitCounts, workers: int, sink=None) -> None:
    """Fill the shared ``out`` with one trial per seed on ``min(workers, trials)``
    processes, each stepping one contiguous slice of the trials in lockstep.

    The workers fork after ``out`` is allocated and fill their rows in place,
    so nothing is pickled back.  A failing worker raises ``RuntimeError``
    here, carrying its exception's message.
    """
    n_trials = len(seeds)
    n_workers = min(workers, n_trials)
    if n_workers == 1:  # in-process, which also runs where fork is missing
        _fill_and_sink(ctx, env, seeds, range(n_trials), out, sink)
        return
    # fork, so that the workers inherit the shared mapping and the sink
    fork = multiprocessing.get_context("fork")
    bounds = [n_trials * w // n_workers for w in range(n_workers + 1)]
    errors = [fork.RawArray("c", _ERROR_BYTES) for _ in range(n_workers)]
    procs = [fork.Process(target=_run_slice,
                          args=(ctx, env, seeds[lo:hi], range(lo, hi),
                                out.rows(lo, hi), sink, error))
             for lo, hi, error in zip(bounds, bounds[1:], errors)]
    try:
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
    failed = [(proc.exitcode, error.value.decode(errors="replace"))
              for proc, error in zip(procs, errors) if proc.exitcode != 0]
    if failed:
        causes = "; ".join(message or f"exit code {code}" for code, message in failed)
        raise RuntimeError(f"{len(failed)} of {n_workers} trial workers failed: "
                           f"{causes}")


def run_ensemble(
    env: EnvironmentTemplate,
    motion: MotionParams,
    auto: AutomatonParams,
    n_trials: int,
    base_seed: int,
    duration: int = 1800,
    workers: int = 1,
    sink: Callable[[Trajectory], None] | None = None,
) -> list[Trajectory]:
    """Run ``n_trials`` independent trials; identical output for any worker count.

    The ensemble's field arrays live in an anonymous shared mapping that
    :func:`_fill`'s workers fill in place; the returned trajectories are
    row views of those arrays.

    ``sink``, when given, is called once per trajectory by the process that
    simulated it, right after its slice is done (in this process when one
    worker runs).  Forked workers inherit it, so it need not pickle.
    """
    ctx, seeds = _ensemble_setup(env, motion, auto, n_trials, base_seed, workers)
    out = TrialArrays.allocate(n_trials, duration)
    _fill(ctx, env, seeds, out, workers, sink)
    return out.trajectories(env, seeds, range(n_trials))


def visit_counts(
    env: EnvironmentTemplate,
    motion: MotionParams,
    auto: AutomatonParams,
    n_trials: int,
    base_seed: int,
    duration: int = 1800,
    workers: int = 1,
) -> VisitCounts:
    """The trials of :func:`run_ensemble`, reduced to per-trial room counts.

    Same seeds, same kernel and same worker split, but the kernel counts
    each tick into a :class:`~leechsim.locomotion.VisitCounts` instead of
    storing it, so memory is O(trials x rooms) and no trajectory is built.
    Its visit frequencies and time fractions equal those of
    :func:`visit_frequencies` and :func:`time_fractions` on the ensemble.
    """
    ctx, seeds = _ensemble_setup(env, motion, auto, n_trials, base_seed, workers)
    out = VisitCounts.allocate(n_trials, env.n_rooms, duration)
    _fill(ctx, env, seeds, out, workers)
    return out


def _checked_env(trajs: list[Trajectory]) -> EnvironmentTemplate:
    if not trajs:
        raise ValueError("empty ensemble")
    env = trajs[0].env
    if env is None:
        raise ValueError("trajectories carry no environment")
    for t in trajs[1:]:
        if t.env != env:
            raise ValueError("mixed environments in ensemble")
    return env


def _room_ticks(trajs: list[Trajectory]) -> np.ndarray:
    """(trajectories, rooms + 1) int64 table of each trajectory's ticks per room.

    Column c >= 1 counts the ticks in room c; column 0 counts the rest (the
    corridor, WALL and UNKNOWN).  One ``bincount`` per trajectory.
    """
    env = _checked_env(trajs)
    width = env.n_rooms + 1
    ticks = np.zeros((len(trajs), width), dtype=np.int64)
    for row, traj in zip(ticks, trajs):
        counts = np.bincount(np.maximum(traj.regions, 0), minlength=width)
        if counts.size > width:
            raise ValueError(f"trial {traj.trial_id} is in room {counts.size - 1}, "
                             f"but the template has {env.n_rooms} rooms")
        row[:] = counts
    return ticks


def _visit_freq(ticks: np.ndarray) -> dict[int, float]:
    visits = (ticks[:, 1:] > 0).sum(axis=0).tolist()
    return {room: c / ticks.shape[0] for room, c in enumerate(visits, start=1)}


def _time_fraction(ticks: np.ndarray) -> dict[int, float]:
    total = int(ticks.sum())  # each tick of each trajectory is in one column
    room_ticks = ticks[:, 1:].sum(axis=0).tolist()
    return {room: c / total for room, c in enumerate(room_ticks, start=1)}


def visit_frequencies(trajs: list[Trajectory]) -> dict[int, float]:
    """Fraction of trials in which each room shows up for at least one tick."""
    return _visit_freq(_room_ticks(trajs))


def time_fractions(trajs: list[Trajectory]) -> dict[int, float]:
    """Per-room share of all ticks across the ensemble."""
    return _time_fraction(_room_ticks(trajs))


def mode_dwell_histograms(trajs: list[Trajectory]) -> dict[Mode, list[int]]:
    """Lengths of maximal constant-mode runs, pooled per mode.

    Each mode's list holds its runs in trajectory order, then in time order;
    a run never continues across trajectories.
    """
    dwell: dict[Mode, list[int]] = {m: [] for m in Mode}
    for traj in trajs:
        modes = traj.modes
        if modes.size == 0:
            continue
        cuts = np.flatnonzero(np.diff(modes)) + 1
        run_modes = modes[np.concatenate(([0], cuts))]
        run_lengths = np.diff(cuts, prepend=0, append=modes.size)
        unknown = run_modes[run_modes > max(Mode)]
        if unknown.size:
            raise ValueError(f"{unknown[0]} is not a valid Mode")
        for mode, runs in dwell.items():
            runs.extend(run_lengths[run_modes == mode].tolist())
    return dwell


def ensemble_stats(trajs: list[Trajectory]) -> EnsembleStats:
    ticks = _room_ticks(trajs)
    return EnsembleStats(
        visit_freq=_visit_freq(ticks),
        time_fraction=_time_fraction(ticks),
        mode_dwell=mode_dwell_histograms(trajs),
    )


def write_stats_csv(env: EnvironmentTemplate, stats: EnsembleStats, path) -> None:
    """Write ``room,distance_x,visit_freq,time_fraction`` rows."""
    lines = ["room,distance_x,visit_freq,time_fraction"]
    for room in sorted(stats.visit_freq):
        lines.append(
            f"{room},{room_distance_to_end(env, room)},"
            f"{stats.visit_freq[room]:.6f},{stats.time_fraction[room]:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_dwell_csv(stats: EnsembleStats, path) -> None:
    """Write ``mode,duration_ticks,count`` histogram rows."""
    lines = ["mode,duration_ticks,count"]
    for mode in Mode:
        hist = Counter(stats.mode_dwell[mode])
        for duration in sorted(hist):
            lines.append(f"{mode.name},{duration},{hist[duration]}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_stats_csv(path) -> list[tuple[int, int, float, float]]:
    """Read rows written by :func:`write_stats_csv`: one per room, room and
    distance_x in [1, MAX_ROOM], frequencies and fractions in [0, 1]."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "room,distance_x,visit_freq,time_fraction":
        raise ValueError(f"{path}:1: bad or missing stats header")
    rows, rooms = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields")
        try:
            row = (int(parts[0]), int(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        for name, value in zip(("room", "distance_x"), row):
            if not 1 <= value <= MAX_ROOM:
                raise ValueError(
                    f"{path}:{lineno}: {name} {value} outside [1, {MAX_ROOM}]")
        if not (math.isfinite(row[2]) and math.isfinite(row[3])):
            raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
        if not (0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0):
            raise ValueError(f"{path}:{lineno}: value outside [0, 1] in {line!r}")
        if row[0] in rooms:
            raise ValueError(f"{path}:{lineno}: room {row[0]} listed twice")
        rooms.add(row[0])
        rows.append(row)
    return rows
