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
import reprlib
import sys
from collections.abc import Callable, Sequence
from functools import partial
from pathlib import Path

import numpy as np

from .automaton import AutomatonParams, Mode
from .geometry import MAX_ROOM, UNKNOWN, EnvironmentTemplate, room_distance_to_end
from .locomotion import (
    MotionParams,
    TrialArrays,
    Trajectory,
    VisitCounts,
    _SimContext,
    _number,
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


def _run_trials(ctx: _SimContext, env: EnvironmentTemplate, seeds, sink,
                out: TrialArrays | VisitCounts, s: int, lo: int, hi: int) -> None:
    """:func:`_fill`'s body for an ensemble: run trials lo..hi into slice
    s's part of ``out``, then pass each trajectory to ``sink``."""
    part = out.part(s, lo, hi)
    _simulate(ctx, seeds[lo:hi], part)
    if sink is not None:
        for traj in part.trajectories(env, seeds[lo:hi], range(lo, hi)):
            sink(traj)


def _ensemble_setup(env, motion, auto, n_trials, base_seed, workers):
    """Checked arguments: the simulation context and the per-trial seeds."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ctx = _SimContext(env, motion, auto)  # validate before any worker starts
    return ctx, [derive_trial_seed(base_seed, i) for i in range(n_trials)]


def _claim_chunks(body, out, n: int, chunk: int, claimed, failed, s: int) -> None:
    """Forked slice s of :func:`_fill`: run ``body(out, s, lo, hi)`` on each
    next ``chunk`` rows lo..hi until none is left.  A chunk that raises is
    marked in ``failed`` and exits 1, printing no traceback."""
    while True:
        with claimed.get_lock():
            lo = claimed.value
            claimed.value = lo + chunk
        if lo >= n:
            return
        try:
            body(out, s, lo, min(lo + chunk, n))
        except Exception:
            failed[lo // chunk] = True
            sys.exit(1)


def _fill(out: TrialArrays | VisitCounts, n: int, workers: int, per_slice: int,
          body: Callable[[TrialArrays | VisitCounts, int, int, int], None]) -> None:
    """Fill rows 0..n of the shared ``out`` on ``slices = min(workers, n)``
    slices, slice s filling rows lo..hi by ``body(out, s, lo, hi)``.

    One slice runs ``body(out, 0, 0, n)`` in-process, which also runs where
    fork is missing.  More slices fork after ``out`` is allocated, so they
    fill it in place and nothing is pickled back.  Each claims the next
    chunk of ``ceil(n / (per_slice x slices))`` rows from one shared counter
    until none is left (self-scheduling), so a slice the host runs slowly
    hands its rows to the others; ``per_slice=1`` gives each slice one
    contiguous chunk.

    A forked slice that raises marks its chunk and exits.  Chunks are
    claimed in row order, so the first marked chunk holds the first row
    that fails; it is run again here, so that the error raised is the one a
    single process raises.  Only a failure that does not happen again, such
    as a killed slice, raises ``RuntimeError`` naming the exit codes.
    """
    slices = min(workers, n)
    if slices == 1:
        body(out, 0, 0, n)
        return
    chunk = -(-n // (per_slice * slices))
    # fork, so that the slices inherit the shared mapping and the body
    fork = multiprocessing.get_context("fork")
    claimed, failed = fork.Value("q", 0), fork.RawArray("b", -(-n // chunk))
    procs = [fork.Process(target=_claim_chunks,
                          args=(body, out, n, chunk, claimed, failed, s))
             for s in range(slices)]
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
    codes = [proc.exitcode for proc in procs if proc.exitcode]
    if codes:
        for lo in [k * chunk for k, mark in enumerate(failed) if mark][:1]:
            body(out, 0, lo, min(lo + chunk, n))
        raise RuntimeError(f"{len(codes)} of {slices} slices failed with exit codes {codes}")


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
    _fill(out, n_trials, workers, 1, partial(_run_trials, ctx, env, seeds, sink))
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
    _fill(out, n_trials, workers, 1, partial(_run_trials, ctx, env, seeds, None))
    return out


def _each_row(items: Sequence, each, out, s: int, lo: int, hi: int) -> None:
    """:func:`_fill_rows`' body: ``each(out.part(s, row, row + 1), row,
    item)`` for every row lo..hi and its item."""
    for row, item in enumerate(items[lo:hi], lo):
        each(out.part(s, row, row + 1), row, item)


def _fill_rows(out, items: Sequence, workers: int,
               each: Callable[[object, int, object], None]) -> None:
    """Call ``each(out.part(s, i, i + 1), i, items[i])`` once for every row i
    of ``items``, where s is the :func:`_fill` slice that runs row i, in
    chunks of about ``len(items) / (8 x slices)`` rows; ``out`` is shared
    as there.  ``items[lo:hi]`` is iterated once per chunk lo..hi, so a
    sequence that reads its items as it is iterated holds one at a time."""
    if len(items):
        _fill(out, len(items), workers, 8, partial(_each_row, items, each))


def _count_trajectory(env: EnvironmentTemplate, ticks: np.ndarray, zeros: np.ndarray,
                      counts: VisitCounts, row: int, traj: Trajectory) -> None:
    """:func:`_fill_rows`' ``each`` for :func:`ensemble_stats`: check
    ``traj`` and record its ticks in ``counts``, the one row of trial
    ``row``; ``ticks`` and ``zeros`` are a tick index and zeros at least as
    long.  Counting into that row alone keeps each trajectory's cost
    independent of the trial count."""
    if traj.env != env:
        raise ValueError("mixed environments in ensemble")
    regions, modes = traj.regions, traj.modes
    if regions.min(initial=UNKNOWN) < UNKNOWN or regions.max(initial=0) > env.n_rooms:
        code = regions[(regions < UNKNOWN) | (regions > env.n_rooms)][0]
        raise ValueError(f"trial {traj.trial_id}: no region code {code} in a template "
                         f"of {env.n_rooms} rooms")
    if modes.min(initial=0) < 0 or modes.max(initial=0) > max(Mode):
        raise ValueError(f"{modes[(modes < 0) | (modes > max(Mode))][0]} is not a valid Mode")
    n = traj.n_ticks
    counts.record(zeros[:n], ticks[:n], traj.xs, traj.ys, modes,
                  np.maximum(regions, 0), traj.ms, zeros[:n])


def ensemble_stats(trajs: Sequence[Trajectory], workers: int = 1) -> VisitCounts:
    """The trajectories' room counts and mode runs, made by the kernel's
    reducer: each trajectory is one record of its ticks.  WALL and UNKNOWN
    ticks count as corridor ticks.  Window passes are not known from a
    trajectory, so every tick counts in ``passes`` column 0.

    ``trajs`` supports ``len`` and ``trajs[lo:hi]``, the trajectories
    lo..hi: a list, or a run directory's files read one at a time.  The
    counts are sized before any trajectory is reduced, from the ``env`` and
    ``duration`` of ``trajs`` where it carries them, as a run directory
    does, or else from the first trajectory's template and the longest
    trajectory's ticks.  :func:`_fill_rows` then reduces the trajectories on
    ``min(workers, len(trajs))`` processes into the shared counts, which are
    sums, so they do not depend on the split, and raises the first fault in
    ``trajs`` order.
    """
    n = len(trajs)
    if not n:
        raise ValueError("empty ensemble")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if hasattr(trajs, "duration"):  # a run's trials, not read yet
        env, duration = trajs.env, trajs.duration
    else:  # trajectories in memory
        env, duration = trajs[0].env, max(traj.n_ticks for traj in trajs)
    if env is None:
        raise ValueError("trajectories carry no environment")
    counts = VisitCounts.allocate(n, env.n_rooms, duration, min(workers, n))
    ticks = np.arange(duration)
    _fill_rows(counts, trajs, workers,
               partial(_count_trajectory, env, ticks, np.zeros_like(ticks)))
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
            row = (_number(parts[0], int), _number(parts[1], int),
                   _number(parts[2], float), _number(parts[3], float))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        for name, value in zip(("room", "distance_x"), row):
            if not 1 <= value <= MAX_ROOM:
                raise ValueError(
                    f"{path}:{lineno}: {name} {reprlib.repr(value)} outside "
                    f"[1, {MAX_ROOM}]")
        if not (math.isfinite(row[2]) and math.isfinite(row[3])):
            raise ValueError(f"{path}:{lineno}: non-finite value in {reprlib.repr(line)}")
        if not (0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0):
            raise ValueError(f"{path}:{lineno}: value outside [0, 1] in {reprlib.repr(line)}")
        if row[0] in rooms:
            raise ValueError(f"{path}:{lineno}: room {row[0]} listed twice")
        rooms.add(row[0])
        rows.append(row)
    return rows
