"""Trial ensembles with reproducible seeding and the room-visit statistics.

Per-trial seeds derive from (base_seed, trial_index) through a splitmix64
finalizer, so results are independent of execution order and of how many
workers run the trials.  Aggregations are plain counts and therefore
order-independent; one reducer, :class:`~leechsim.locomotion.VisitCounts`,
makes them, whether the kernel hands it an ensemble's ticks
(:func:`visit_counts`) or trajectories read from files do
(:func:`ensemble_stats`).
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from collections.abc import Callable, Iterable
from dataclasses import replace
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
    utf8_text,
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
    processes, each running the event-driven kernel on one contiguous slice
    of the trials.

    The workers fork after ``out`` is allocated and fill their ``part`` of
    it in place, so nothing is pickled back.  A failing worker raises
    ``RuntimeError`` here, carrying its exception's message.
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
                                out.part(s, lo, hi), sink, error))
             for s, (lo, hi, error) in enumerate(zip(bounds, bounds[1:], errors))]
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
    """The trials of :func:`run_ensemble`, reduced to per-trial room counts
    and pooled mode runs.

    Same seeds, same kernel and same worker split, but the kernel counts
    each tick into a :class:`~leechsim.locomotion.VisitCounts` instead of
    storing it, so memory is O(trials x rooms + workers x duration) and no
    trajectory is built.  It equals :func:`ensemble_stats` of the
    ensemble's trajectories, except that only the kernel counts window
    passes.
    """
    ctx, seeds = _ensemble_setup(env, motion, auto, n_trials, base_seed, workers)
    out = VisitCounts.allocate(n_trials, env.n_rooms, duration, min(workers, n_trials))
    _fill(ctx, env, seeds, out, workers)
    return out


def ensemble_stats(trajs: Iterable[Trajectory]) -> VisitCounts:
    """The trajectories' room counts and mode runs, made by the kernel's
    reducer: each trajectory is one record of its ticks.

    ``trajs`` is any sized iterable, such as a list or a run directory's
    files read one at a time, and is reduced in one pass: the counts are
    allocated from ``len(trajs)`` and the first trajectory, and each later
    one is recorded as it arrives.  A longer one widens the mode-run table.
    WALL and UNKNOWN ticks count as corridor ticks.  Window passes are not
    known from a trajectory, so every tick counts in ``passes`` column 0.
    """
    if not len(trajs):
        raise ValueError("empty ensemble")
    counts = env = None
    for row, traj in enumerate(trajs):
        if counts is None:
            env = traj.env
            if env is None:
                raise ValueError("trajectories carry no environment")
            counts = VisitCounts.allocate(len(trajs), env.n_rooms, traj.n_ticks, 1)
        if traj.env != env:
            raise ValueError("mixed environments in ensemble")
        if traj.regions.max(initial=0) > env.n_rooms:
            raise ValueError(f"trial {traj.trial_id} is in room {traj.regions.max()}, "
                             f"but the template has {env.n_rooms} rooms")
        if traj.modes.max(initial=0) > max(Mode):
            raise ValueError(f"{traj.modes[traj.modes > max(Mode)][0]} is not a valid Mode")
        if traj.n_ticks > counts.duration:
            wider = ((0, 0), (0, 0), (0, traj.n_ticks - counts.duration))
            counts = replace(counts, duration=traj.n_ticks, runs=np.pad(counts.runs, wider))
        ticks = np.arange(traj.n_ticks)
        counts.record(np.full_like(ticks, row), ticks, traj.xs, traj.ys, traj.modes,
                      np.maximum(traj.regions, 0), traj.ms, np.zeros_like(ticks))
    return counts


def visit_frequencies(trajs: list[Trajectory]) -> dict[int, float]:
    """Fraction of trials in which each room shows up for at least one tick."""
    return ensemble_stats(trajs).visit_frequencies()


def write_stats_csv(env: EnvironmentTemplate, counts: VisitCounts, path) -> None:
    """Write ``room,distance_x,visit_freq,time_fraction`` rows."""
    freq, frac = counts.visit_frequencies(), counts.time_fractions()
    lines = ["room,distance_x,visit_freq,time_fraction"]
    for room in sorted(freq):
        lines.append(f"{room},{room_distance_to_end(env, room)},"
                     f"{freq[room]:.6f},{frac[room]:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_dwell_csv(counts: VisitCounts, path) -> None:
    """Write ``mode,duration_ticks,count`` histogram rows."""
    lines = ["mode,duration_ticks,count"]
    table = counts.mode_runs()
    for mode in Mode:
        for duration in np.flatnonzero(table[mode]).tolist():
            lines.append(f"{mode.name},{duration},{table[mode, duration]}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_stats_csv(path) -> list[tuple[int, int, float, float]]:
    """Read rows written by :func:`write_stats_csv`: one per room, room and
    distance_x in [1, MAX_ROOM], frequencies and fractions in [0, 1]."""
    lines = utf8_text(Path(path).read_bytes(), path).splitlines()
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
