"""Kinematics closing the loop between geometry and the automaton.

One tick of one trial: move according to the current mode, sense wall
contact, compute the room-entry trigger, advance the automaton, then apply
room entry/exit teleports.  Crawling in the corridor is straight-line motion
along the heading with reflection at the ends; exploration (and crawling
inside a room) is a random waypoint walk clipped to the containing region.
Room entry is trigger-then-teleport through the opening rather than
continuous steering.

The kernel, :func:`_simulate`, advances a batch of trials by events, not
by ticks (next-event time advance); :func:`run_trials` is its batch
entry.  Each trial keeps its own clock, and each lockstep iteration
advances every unfinished trial by one event: a whole Still run, a whole
corridor Crawl run, or any other single tick.  Both kinds of run are
sampled tick by tick from a look-ahead, and each iteration hands the
ticks that happened to an output object in one call:
:class:`TrialArrays` writes tick k of trial i to column k of row i, and
:class:`VisitCounts` only counts ticks and trigger-window passes per
room (ensembles put either in memory shared with their worker processes,
see :mod:`leechsim.montecarlo`).  :func:`run_trial` is a batch of one.

Randomness: trial i owns ``default_rng(seed_i)`` and reads it, in stream
order, through its own row of a draw buffer and a cursor.  A centered
release first draws the heading coin; then each tick draws the waypoint
angle (only when the mode moves randomly), one automaton uniform, and the
exit-heading coin (only when leaving a room), in that order, whether the
tick is computed alone or inside a run.  Rows are refilled in blocks; a
block draw yields exactly the values of as many single draws, so refill
points change no output.  A trial's record therefore depends on its seed
alone, not on which trials share its batch, which is why splitting an
ensemble over any number of workers gives identical bytes.

The floats are the ones a scalar evaluation with Python's ``math`` gives:
angles go through ``math.cos``/``math.sin`` and corner distances through
``math.hypot`` on just the elements that need them; a crawl run's positions
are ``np.add.accumulate``'s left-to-right sums, the same adds one step at a
time makes; the automaton's thresholds are those of
:func:`~leechsim.automaton.transition_thresholds`; everything else is IEEE
add, multiply, min and max, which numpy rounds identically.
"""

from __future__ import annotations

import functools
import math
import mmap
import reprlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .automaton import (AutomatonParams, Mode, next_modes, next_timers, p_visit,
                        transition_thresholds)
from .geometry import (
    CORRIDOR,
    MAX_ROOM,
    UNKNOWN,
    EnvironmentTemplate,
    GeometryError,
    locate,
    region_code,
    region_label,
    room_distance_to_end,
)

_TWO_PI = 2.0 * math.pi

MODE_UNKNOWN = 255  # mode code for tracked trajectories without mode labels


class TrajectoryFormatError(ValueError):
    """Raised for malformed trajectory CSV files; message names file and line."""


def entry_trigger_probability(x: float, auto: AutomatonParams,
                              q_scale: float | np.ndarray) -> float | np.ndarray:
    """Per-tick room-entry trigger while crawling over an opening.

    The shape is the hazard equivalent of the visit law, ln(1/(1-p_visit(x))),
    scaled by ``q_scale``, so that each pass over an opening adds entry rate
    in proportion to that hazard rather than to a saturation-flattened copy
    of the law.  Entries per trial are over-dispersed, not Poisson: 400
    default trials (base seed 1, ``q_scale`` 0.25) make 10.7 entries on
    average with variance 14.7, a variance/mean of 1.38 (1.28 to 1.38 over
    base seeds 1, 2, 3 and 7).  The calibration assumes no entry law; it
    predicts from each trial's own window passes.  A certain visit
    (p_visit = 1) is an infinite hazard, so it triggers on every pass unless
    ``q_scale`` is 0.

    ``q_scale`` may be an array, giving the trigger at each of its values;
    a scalar gives a float.
    """
    p = p_visit(x, auto)
    q = np.asarray(q_scale, dtype=float)
    trigger = np.where(q > 0, 1.0, 0.0) if p == 1.0 else np.minimum(1.0, q * -math.log1p(-p))
    return trigger if trigger.ndim else float(trigger)


@dataclass(frozen=True)
class MotionParams:
    """Kinematic constants; speeds are mm/s and translate via the tick length.

    The default crawl speed makes the per-tick step equal the trigger window
    width (opening + contact_radius), so a corridor pass samples every
    opening exactly once regardless of phase; it also puts the release-to-far-
    end crawl at about 43 ticks, matching the observed traversal time.

    ``q_scale`` scales the per-opening entry trigger, see
    :func:`entry_trigger_probability`.
    """

    v_crawl: float = field(default=3.0, metadata={"key": "v_crawl_mm_s"})
    v_explore: float = field(default=1.5, metadata={"key": "v_explore_mm_s"})
    contact_radius: float = field(default=1.0, metadata={"key": "contact_radius_mm"})
    q_scale: float = 0.25

    def __post_init__(self) -> None:
        for name in ("v_crawl", "v_explore"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0 <= self.contact_radius < math.inf:
            raise ValueError(f"contact_radius must be finite and >= 0, got {self.contact_radius}")
        if not 0.0 <= self.q_scale <= 1.0:
            raise ValueError(f"q_scale must lie in [0, 1], got {self.q_scale}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-tick record of one trial, stored as parallel arrays.

    ``regions`` holds :mod:`leechsim.geometry` region codes; simulation never
    produces WALL, and UNKNOWN marks tracked data.
    ``ms`` carries the mechanoreceptor bit so the closed loop can be audited
    offline; it is not part of the CSV format.
    """

    env: EnvironmentTemplate | None
    trial_id: int
    xs: np.ndarray
    ys: np.ndarray
    modes: np.ndarray
    regions: np.ndarray
    ms: np.ndarray

    @property
    def n_ticks(self) -> int:
        return int(self.xs.shape[0])


def mode_label(code: int) -> str:
    return "UNKNOWN" if code == MODE_UNKNOWN else Mode(code).name


# mode label -> code, in the order of the writer's mode words
_MODE_CODES = {mode_label(code): code for code in (*range(len(Mode)), MODE_UNKNOWN)}


class _SimContext:
    """Validated constants and lookup tables of one (env, motion, auto) triple.

    Tables indexed by region code (0 corridor, i room i) give each region's
    clamp box; tables over the openings, sorted along x, give the gap spans,
    and the trigger windows with each one's room and trigger value.
    """

    def __init__(self, env: EnvironmentTemplate, motion: MotionParams,
                 auto: AutomatonParams):
        if motion.contact_radius > env.wall_thickness:
            raise ValueError(
                "contact_radius must not exceed the wall thickness "
                f"({motion.contact_radius} > {env.wall_thickness})"
            )
        if locate(env, env.start_point) != CORRIDOR:
            raise GeometryError("start point must lie in the corridor")

        n = env.n_rooms
        self.L = env.interior_width
        self.H = env.interior_height
        self.room_y1 = env.regions[1][3]
        self.band_y1 = self.room_y1 + env.wall_thickness
        self.cor_mid = 0.5 * (self.band_y1 + self.H)
        self.r = motion.contact_radius
        self.v_c = motion.v_crawl * auto.tick
        self.v_e = motion.v_explore * auto.tick
        self.tau_s = auto.tau_s
        self.tau_a = auto.tau_a
        self.any_q = motion.q_scale > 0.0
        self.start = env.start_point

        self.xlo, self.ylo, self.xhi, self.yhi = np.array(env.regions).T.copy()
        self.cx = np.array([math.nan] + [0.5 * (lo + hi) for lo, hi in env.openings])

        # Gap spans along x.  has_l/has_r tell whether a wall corner bounds
        # the gap on that side: row 0 as seen from the corridor, row 1 from
        # the gap's own room.
        spans = sorted(zip(env.openings, env.regions[1:]))
        self.gap_lo = np.array([lo for (lo, _), _ in spans])
        self.gap_hi = np.array([hi for (_, hi), _ in spans])
        self.gap_has_l = ([lo > 0.0 for (lo, _), _ in spans],
                          [lo > rect[0] for (lo, _), rect in spans])
        self.gap_has_r = ([hi < self.L for (_, hi), _ in spans],
                          [hi < rect[2] for (_, hi), rect in spans])

        half = 0.5 * self.r
        self.windows = tuple(sorted(
            (lo - half, hi + half,
             entry_trigger_probability(room_distance_to_end(env, i), auto,
                                       motion.q_scale), i)
            for i, (lo, hi) in enumerate(env.openings, start=1)
        ))
        win_lo, self.win_hi, win_q, win_room = (
            np.array(column) for column in zip(*self.windows))
        # x lies in window w = searchsorted(win_hi, x) iff win_start[w] <= x;
        # code w + 1 (0 for none) indexes the room passed and its trigger q.
        self.win_start = np.append(win_lo, np.inf)
        self.code_room = np.concatenate(([0], win_room))
        self.code_q = np.concatenate(([0.0], win_q))

        # contact bits at the teleport landing points, indexed by room
        cx = self.cx[1:]
        self.entry_y = self.room_y1 - min(2.0, 0.5 * self.room_y1)
        entry_m = _contact(self, cx, np.full(n, self.entry_y), np.arange(1, n + 1))
        exit_m = _contact(self, cx, np.full(n, self.cor_mid), np.zeros(n, np.intp))
        self.entry_m = np.concatenate(([0], entry_m))
        self.exit_m = np.concatenate(([0], exit_m))


def _contact(ctx: _SimContext, x: np.ndarray, y: np.ndarray,
             region: np.ndarray) -> np.ndarray:
    """Mechanoreceptor bits (uint8) at positions in the given regions.

    Exact for radius <= wall thickness: the bit is 1 when a wall of the
    region's box lies within the radius, or, next to the opening band, when
    the point is off the gap or within the radius of a corner bounding it.
    Corner distances use ``math.hypot`` and are evaluated only for points
    within the radius of the corner on both axes; since hypot(a, b) >=
    max(|a|, |b|), no other point can be in reach of a corner.
    """
    r = ctx.r
    corridor = region == 0
    far = np.where(corridor, ctx.H - y, y)
    near = np.where(corridor, y - ctx.band_y1, ctx.room_y1 - y)
    d = np.minimum(np.minimum(x - ctx.xlo[region], ctx.xhi[region] - x), far)
    m = (d <= r).view(np.uint8)
    edge = np.flatnonzero((near <= r) & (d > r))
    if edge.size:
        xe = x[edge]
        gap = np.searchsorted(ctx.gap_hi, xe, side="right")
        inside = gap < ctx.gap_lo.size
        inside[inside] = xe[inside] > ctx.gap_lo[gap[inside]]
        m[edge[~inside]] = 1
        for b, j in zip(edge[inside].tolist(), gap[inside].tolist()):
            side = 0 if region[b] == 0 else 1
            xb, dy = x[b], near[b]
            lo, hi = ctx.gap_lo[j], ctx.gap_hi[j]
            if ((ctx.gap_has_l[side][j] and xb - lo <= r
                 and math.hypot(xb - lo, dy) <= r)
                    or (ctx.gap_has_r[side][j] and hi - xb <= r
                        and math.hypot(hi - xb, dy) <= r)):
                m[b] = 1
    return m


_BLOCK = 256  # ticks a run looks ahead; each draw row holds 3 look-aheads


def _shared_arrays(fields: dict) -> dict[str, np.ndarray]:
    """Zeroed arrays, one per ``name: (shape, dtype)`` entry of ``fields``,
    in one anonymous shared memory mapping.

    Processes forked after the allocation write through to the same pages,
    so an ensemble's workers can fill their rows in place.  List the widest
    dtype first, so every array stays aligned inside the one buffer.
    """
    nbytes = sum(math.prod(shape) * np.dtype(dtype).itemsize
                 for shape, dtype in fields.values())
    buffer = mmap.mmap(-1, max(nbytes, 1))  # mmap refuses length 0
    arrays, offset = {}, 0
    for name, (shape, dtype) in fields.items():
        arrays[name] = np.frombuffer(buffer, dtype, math.prod(shape), offset).reshape(shape)
        offset += arrays[name].nbytes
    return arrays


@dataclass(frozen=True)
class TrialArrays:
    """Per-tick fields of a batch of trials, one (n_trials, duration) array each.

    Trial i's record is row i of every field; :meth:`trajectories` hands the
    rows out as views, so nothing is copied.
    """

    xs: np.ndarray
    ys: np.ndarray
    regions: np.ndarray
    modes: np.ndarray
    ms: np.ndarray

    _DTYPES = {"xs": np.float64, "ys": np.float64, "regions": np.int16,
               "modes": np.uint8, "ms": np.uint8}

    @classmethod
    def allocate(cls, n_trials: int, duration: int) -> "TrialArrays":
        """Fields in shared memory, see :func:`_shared_arrays`."""
        if duration < 1:
            raise ValueError(f"duration must be >= 1 tick, got {duration}")
        return cls(**_shared_arrays({name: ((n_trials, duration), dtype)
                                     for name, dtype in cls._DTYPES.items()}))

    @property
    def duration(self) -> int:
        return self.xs.shape[1]

    def part(self, s: int, lo: int, hi: int) -> "TrialArrays":
        """Rows lo..hi, which worker slice s fills."""
        return replace(self, **{k: getattr(self, k)[lo:hi] for k in self._DTYPES})

    def record(self, rows, k, x, y, mode, region, m, passed) -> None:
        """Write tick ``k[i]`` of trial ``rows[i]``, one scatter per field at
        its row-major index; see :func:`_simulate`.  The fields are whole
        rows of C-ordered arrays, so ``reshape(-1)`` is a view."""
        at = rows * self.duration + k
        for field, value in ((self.xs, x), (self.ys, y), (self.modes, mode),
                             (self.regions, region), (self.ms, m)):
            field.reshape(-1)[at] = value

    def trajectories(self, env, trial_ids) -> list[Trajectory]:
        return [Trajectory(env, tid, self.xs[i], self.ys[i], self.modes[i], self.regions[i],
                           self.ms[i])
                for i, tid in enumerate(trial_ids)]


@dataclass(frozen=True)
class VisitCounts:
    """Per-trial room counts and pooled mode runs of a batch of trials,
    O(trials x rooms + slices x duration) in all.

    Column c of ``ticks`` counts the ticks trial i spent in region code c
    (column 0 the corridor), so room c was visited iff ``ticks[i, c] > 0``.
    Column c >= 1 of ``passes`` counts the ticks trial i crawled over room
    c's trigger window (the kernel's own test for a possible entry, made
    whatever ``q_scale`` is); column 0 counts the other ticks.

    Mode runs, the maximal runs of ticks in one mode, are counted as they
    close: trial i's open run began at tick ``run_start[i]`` in mode
    ``run_mode[i]``, and ``runs[s, mode, d]`` counts the closed runs of d
    ticks of worker slice s (:meth:`part`).  A trial's open run starts as a
    STILL run at tick 0, so a first tick in another mode closes a run of 0
    ticks, which :meth:`mode_runs` drops.
    """

    duration: int
    ticks: np.ndarray
    passes: np.ndarray
    run_start: np.ndarray
    run_mode: np.ndarray
    runs: np.ndarray

    @classmethod
    def allocate(cls, n_trials: int, n_rooms: int, duration: int,
                 slices: int) -> "VisitCounts":
        """Zeroed counts in shared memory (see :func:`_shared_arrays`), with a
        run table for each of ``slices`` worker slices."""
        if duration < 1:
            raise ValueError(f"duration must be >= 1 tick, got {duration}")
        rooms, trials = (n_trials, n_rooms + 1), (n_trials,)
        return cls(duration, **_shared_arrays({
            "runs": ((slices, len(Mode), duration + 1), np.int64),
            "run_start": (trials, np.intp), "run_mode": (trials, np.intp),
            "ticks": (rooms, np.int32), "passes": (rooms, np.int32)}))

    def part(self, s: int, lo: int, hi: int) -> "VisitCounts":
        """Rows lo..hi, which count their closed runs in slice s's table."""
        return replace(self, ticks=self.ticks[lo:hi], passes=self.passes[lo:hi],
                       run_start=self.run_start[lo:hi], run_mode=self.run_mode[lo:hi],
                       runs=self.runs[s:s + 1])

    def record(self, rows, k, x, y, mode, region, m, passed) -> None:
        """Count tick ``k[i]`` of trial ``rows[i]`` in the trial's columns of
        its region and of its window passed, adding only the ticks given,
        and count the mode runs that close; see :func:`_simulate`.

        A trial's ticks within one call must be consecutive and in tick
        order.
        """
        row_start = rows * self.ticks.shape[1]
        for counts, codes in ((self.ticks, region), (self.passes, passed)):
            # a Python 1 would send np.add.at down its slow path for this dtype
            np.add.at(counts.reshape(-1), row_start + codes, counts.dtype.type(1))
        # a run closes where a trial's mode differs from its previous tick's
        same = rows[1:] == rows[:-1]  # tick j + 1 goes on with tick j's trial
        before = self.run_mode[rows]
        np.copyto(before[1:], mode[:-1], where=same)
        change = (mode != before).nonzero()[0]
        if change.size == 0:
            return
        rows, k, before = rows[change], k[change], before[change]
        began = self.run_start[rows]
        same = rows[1:] == rows[:-1]
        np.copyto(began[1:], k[:-1], where=same)
        np.add.at(self.runs[0], (before, k - began), 1)
        last = np.append(~same, True)  # a trial's last change here
        self.run_start[rows[last]] = k[last]
        self.run_mode[rows[last]] = mode[change[last]]

    def visit_frequencies(self) -> dict[int, float]:
        """Fraction of trials in which each room shows up for at least one tick."""
        visits = (self.ticks[:, 1:] > 0).sum(axis=0).tolist()
        n = self.ticks.shape[0]
        return {room: c / n for room, c in enumerate(visits, start=1)}

    def time_fractions(self) -> dict[int, float]:
        """Per-room share of all ticks across the batch."""
        total = int(self.ticks.sum())  # each tick of each trial is in one column
        ticks = self.ticks[:, 1:].sum(axis=0).tolist()
        return {room: c / total for room, c in enumerate(ticks, start=1)}

    def mode_runs(self) -> np.ndarray:
        """(len(Mode), duration + 1) table whose [mode, d] counts the mode's
        runs of d >= 1 ticks, pooled over all slices, each trial's open run
        closed at its last tick; column 0 is 0."""
        table = self.runs.sum(axis=0)
        ends = self.ticks.sum(axis=1)  # each trial's ticks
        np.add.at(table, (self.run_mode, ends - self.run_start), 1)
        table[:, 0] = 0
        return table


def _thresholds(ctx: _SimContext, duration: int) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`transition_thresholds` at trigger 0 of every step a run of
    ``duration`` ticks can sample, at flat index ``row * stride + t``; and
    ``stride``.  Rows: Still, Crawl, Explore, then Crawl and Explore in contact.
    A timer never exceeds the ticks elapsed or its cap, so t < stride suffices."""
    stride = min(max(ctx.tau_s, ctx.tau_a), duration) + 1
    still, active = (np.minimum(np.arange(stride), cap) for cap in (ctx.tau_s, ctx.tau_a))
    steps = [(0, still, 0), (1, active, 0), (2, active, 0), (1, active, 1), (2, active, 1)]
    rows = [transition_thresholds(np.full(stride, mode), t, m, 0.0, ctx.tau_s, ctx.tau_a)
            for mode, t, m in steps]
    first, second = (np.concatenate(column) for column in zip(*rows))
    return first, second, stride


def _simulate(ctx: _SimContext, seeds, out: TrialArrays | VisitCounts) -> None:
    """Run one trial per seed, advancing every trial by one event per step.

    Each trial keeps its own clock ``k``, the next tick it computes, and
    each lockstep iteration advances every trial whose clock is short of
    ``out.duration`` by one event (next-event time advance):

    * a Still run: position, region and contact stay fixed, so each tick
      reads one uniform and the run ends at the first tick whose sampled
      mode is not Still;
    * a corridor Crawl run: x moves by one fixed step a tick, so positions
      come from ``np.add.accumulate``, contact and the window trigger from
      those positions, and the run ends at the first tick whose sampled mode
      is not Crawl; a step that reflects at an end puts x at 0 or L, in
      contact, so a run reflects on its last tick at most, which is checked;
    * any other tick (Explore, or Crawl inside a room), one at a time.

    A run looks at most ``_BLOCK`` ticks ahead, and a longer run goes on as
    the next event, which changes no output.  The single ticks and Crawl
    look-aheads of one iteration hold at most ``budget`` ticks, and its
    Still look-aheads at most ``budget`` more.  The sampled ticks of all
    events sit in one flat array, event i's from ``starts[i]`` on, in the
    order single ticks, Crawl runs, Still runs.  Contact is computed for the
    ticks that moved, and every tick compares its uniform with its
    thresholds (:func:`next_modes`): those of :func:`_thresholds`, with the
    window's trigger applied over a window without contact.  Each event
    advances its trial's timer by :func:`next_timers`.

    ``out.record(rows, k, x, y, mode, region, m, passed)`` gets the ticks
    that happened, in one call per iteration and one for the release: trial
    ``rows[i]`` ends tick ``k[i]`` with the i-th value of each field, and
    each trial's ticks are consecutive and in tick order.  ``passed`` is
    the room whose trigger window the trial crawled over during the tick
    (0 for none).

    Trial b reads its uniforms from row b of ``draws`` at cursor ``cur[b]``,
    in the order a tick-by-tick run reads them.  An event reads at most
    ``look`` uniforms, so a row is refilled (unread tail shifted to the
    front, the rest drawn anew from the trial's own generator) whenever its
    cursor is within ``look`` of the row end.
    """
    n, duration = len(seeds), out.duration
    if n == 0:
        return
    rngs = [np.random.default_rng(seed) for seed in seeds]
    first, second, stride = _thresholds(ctx, duration)
    look = max(_BLOCK, 3)  # a run reads one uniform a tick, any other tick 3
    width = 3 * look
    draws = np.empty((n, width))
    for rng, row in zip(rngs, draws):
        rng.random(out=row)
    # look-ahead ticks one iteration's single ticks and Crawl runs may hold,
    # and its Still runs too; only the release, when every trial starts a
    # Crawl run, comes near it in a default run
    budget = max(8 * n, _BLOCK)
    span = np.arange(_BLOCK)
    cur = np.zeros(n, dtype=np.intp)
    trials = np.arange(n)

    # release: crawling from the start point toward the far end
    x = np.full(n, ctx.start[0])
    y = np.full(n, ctx.start[1])
    if ctx.start[0] > 0.5 * ctx.L:
        hx = np.full(n, -1.0)
    elif ctx.start[0] < 0.5 * ctx.L:
        hx = np.full(n, 1.0)
    else:
        hx = np.where(draws[:, 0] < 0.5, -1.0, 1.0)
        cur += 1
    mode = np.ones(n, dtype=np.intp)
    t = np.zeros(n, dtype=np.intp)
    region = np.zeros(n, dtype=np.intp)
    m = _contact(ctx, x, y, region)
    k = np.ones(n, dtype=np.intp)
    out.record(trials, k - 1, x, y, mode, region, m, region)

    live = trials[k < duration]
    while live.size:
        for b in live[cur[live] > width - look].tolist():
            used = cur[b]
            draws[b, :width - used] = draws[b, used:]
            rngs[b].random(out=draws[b, width - used:])
            cur[b] = 0

        # events: single ticks (0), then corridor Crawl runs (1), Still runs (2)
        kind = mode[live]
        kind = np.where(kind == 0, 2, (kind == 1) & (region[live] == 0))
        g = live[np.argsort(kind, kind="stable")]
        n_other, n_crawl, n_still = np.bincount(kind, minlength=3).tolist()
        runs = slice(n_other, n_other + n_crawl)
        crawlers = g[runs]

        # a run looks ahead to its timer's cap at most, and a corridor Crawl
        # run to an end of the corridor; the Crawl runs share what the budget
        # leaves after a tick per other event, the Still runs all of it
        crawl_cap = max(1, min(_BLOCK, (budget - n_other - n_still) // max(n_crawl, 1)))
        reach = np.repeat([1, crawl_cap, max(1, min(_BLOCK, budget // max(n_still, 1)))],
                          [n_other, n_crawl, n_still])
        h, x0 = hx[crawlers], x[crawlers]
        reach[runs] = np.minimum(np.where(h < 0.0, x0, ctx.L - x0) // ctx.v_c + 2, crawl_cap)
        limit = np.minimum(np.minimum(duration - k[g], reach),
                           np.where(mode[g] == 0, ctx.tau_s, ctx.tau_a) - t[g] + 1)
        starts = np.cumsum(limit) - limit
        b = np.repeat(g, limit)
        tick = np.arange(b.size)  # tick i of event e is tick i - starts[e] of its trial
        xs, ys, regions, modes, ms = x[b], y[b], region[b], mode[b], m[b]
        u = g * width + cur[g] - starts  # flat index into draws, less tick
        u[:n_other] += 1  # after the waypoint angle

        # (1) move: a waypoint step clipped to the region's box, or crawl
        # steps along the heading, accumulated; Still stays put
        walkers, box = g[:n_other], regions[:n_other]
        if n_other:
            ang = (draws[walkers, cur[walkers]] * _TWO_PI).tolist()
            nx = xs[:n_other] + ctx.v_e * np.fromiter(map(math.cos, ang), float, n_other)
            ny = ys[:n_other] + ctx.v_e * np.fromiter(map(math.sin, ang), float, n_other)
            xs[:n_other] = np.minimum(np.maximum(nx, ctx.xlo[box]), ctx.xhi[box])
            ys[:n_other] = np.minimum(np.maximum(ny, ctx.ylo[box]), ctx.yhi[box])
        crawling = slice(n_other, starts[runs.stop] if n_still else b.size)
        if n_crawl:
            steps = np.empty((n_crawl, limit[runs].max() + 1))
            steps[:, 0] = x0
            steps[:, 1:] = (ctx.v_c * h)[:, None]
            xc = np.add.accumulate(steps, axis=1)[:, 1:][span[:steps.shape[1] - 1]
                                                         < limit[runs, None]]
            xs[crawling] = np.minimum(np.maximum(xc, 0.0), ctx.L)

        # (2) sense, for the ticks that moved
        moved = slice(0, crawling.stop)
        ms[moved] = _contact(ctx, xs[moved], ys[moved], regions[moved])

        # (3) entry trigger while crawling over an opening window; at
        # q_scale = 0 every trigger is 0.0, so the window passes are still
        # counted and nothing else changes
        code = np.zeros(b.size, dtype=np.intp)
        xa = xs[crawling]
        w = np.searchsorted(ctx.win_hi, xa)
        inside = ctx.win_start[w] <= xa
        code[crawling] = np.where(inside, w + 1, 0)
        passed = ctx.code_room[code]

        # (4) one automaton transition a tick, at row mode (+ 2 for a tick that
        # moved, in contact), and over a window without contact at the window's
        # trigger q (first is p_exit); a run ends at its first change of mode
        at = np.repeat(mode[g] * stride + t[g] - starts, limit) + tick
        at[moved] += np.where(ms[moved], 2 * stride, 0)
        low, high = first[at], second[at]
        over = n_other + np.flatnonzero(inside > ms[crawling])  # in a window, out of contact
        high[over] = low[over] + (1.0 - low[over]) * (1.0 - ctx.code_q[code[over]])
        new_mode = next_modes(draws.ravel()[np.repeat(u, limit) + tick], low, high)
        last = np.minimum(np.minimum.reduceat(np.where(new_mode != modes, tick, b.size),
                                              starts), starts + limit - 1)
        ticks = last - starts + 1

        # (5) heading after a reflection, and teleports through the opening
        used = ticks.copy()  # uniforms read
        if n_crawl:
            # a reflecting step ends in contact, so it samples another mode
            # and can only be the run's last tick
            if (new_mode[crawling][(xc <= 0.0) | (xc >= ctx.L)] == 1).any():
                raise AssertionError("a corridor Crawl run reflected before its last tick")
            ends = last[runs]
            xl = xc[ends - n_other]
            hx[crawlers] = np.where(xl <= 0.0, 1.0, np.where(xl >= ctx.L, -1.0, h))
            if ctx.any_q:
                enter = ends[(passed[ends] != 0) & (new_mode[ends] == 2)]
                room = passed[enter]
                regions[enter] = room
                xs[enter] = ctx.cx[room]
                ys[enter] = ctx.entry_y
                ms[enter] = ctx.entry_m[room]
        if n_other:
            used[:n_other] += 1  # the waypoint angle
            leave = np.flatnonzero((box != 0) & (modes[:n_other] == 2)
                                   & (new_mode[:n_other] == 1))
            if leave.size:
                room = box[leave]
                xs[leave] = ctx.cx[room]
                ys[leave] = ctx.cor_mid
                ms[leave] = ctx.exit_m[room]
                regions[leave] = 0
                hx[g[leave]] = np.where(draws[g[leave], cur[g[leave]] + 2] < 0.5, -1.0, 1.0)
                used[leave] += 1
        keep = tick <= np.repeat(last, limit)  # the ticks that happened
        out.record(b[keep], (np.repeat(k[g] - starts, limit) + tick)[keep], xs[keep],
                   ys[keep], new_mode[keep], regions[keep], ms[keep], passed[keep])
        x[g], y[g], region[g], m[g] = xs[last], ys[last], regions[last], ms[last]
        t[g] = next_timers(mode[g], t[g] + ticks - 1, new_mode[last])
        mode[g] = new_mode[last]
        cur[g] += used
        k[g] += ticks
        live = live[k[live] < duration]


def run_trials(env: EnvironmentTemplate, motion: MotionParams,
               auto: AutomatonParams, seeds, duration: int = 1800,
               trial_ids=None) -> list[Trajectory]:
    """Simulate one trial per seed in lockstep; each is bit-reproducible per seed.

    The first record (tick 0) is the release state at the start point, mode
    Crawl, heading toward the far corridor end; each later record is the
    state after one more tick.  ``trial_ids`` default to 0, 1, ...  The
    trajectories are row views of one :class:`TrialArrays`.
    """
    seeds = list(seeds)
    ctx = _SimContext(env, motion, auto)
    out = TrialArrays.allocate(len(seeds), duration)
    _simulate(ctx, seeds, out)
    ids = range(len(seeds)) if trial_ids is None else trial_ids
    return out.trajectories(env, ids)


def run_trial(env: EnvironmentTemplate, motion: MotionParams,
              auto: AutomatonParams, seed: int, duration: int = 1800,
              trial_id: int = 0) -> Trajectory:
    """One trial: a batch of one for :func:`run_trials`."""
    return run_trials(env, motion, auto, [seed], duration, [trial_id])[0]


_CSV_HEADER = "trial_id,tick,x_mm,y_mm,mode,region"


def _words(texts: list[str], align, width: int = 0) -> np.ndarray:
    """Column i holds ``texts[i]`` as ASCII cells, four to a uint32 word,
    placed by ``str.rjust`` or ``str.ljust`` in the fewest words that hold
    every text, and at least ``width``, with NUL in the other cells;
    read-only."""
    width = max(width, -(-max(map(len, texts), default=0) // 4))
    data = "".join(align(text, 4 * width, "\0") for text in texts).encode()
    return np.frombuffer(data, np.uint32).reshape(len(texts), width).T


def _table(texts: list[bytes]) -> np.ndarray:
    """Word i holds the 4 cells of ``texts[i]``, a space standing for NUL."""
    return np.frombuffer(b"".join(texts).replace(b" ", b"\0"), np.uint32)


# 3-digit groups of an integer part: word g is "%03d" of g, word 1000 + g the
# lowest group when it leads ("%3d", so 0 is "  0"), word 2000 + g a higher
# group when it leads (so 0 is blank); the first cell stays NUL
_GROUPS = _table([b" %03d" % g for g in range(1000)]
                 + [b" %3d" % g for g in range(1000)]
                 + [b"    "] + [b" %3d" % g for g in range(1, 1000)])
_FRACTIONS = _table([b".%03d" % g for g in range(1000)])
_COMMA = _table([b",   "])[0]  # OR-ed into a number's free first cell


def _number_words(values: np.ndarray, trial_id: int) -> np.ndarray:
    """``',%.3f' % v`` of each value, right-aligned in a column of words;
    ``values`` holds x and y of each tick in turn.

    With s = 1000 v and r = rint(s), r is the correctly rounded milli-value
    that ``'%.3f'`` prints when v has no sign bit, s < 2**32 (so 0 <= s, and
    s is not nan) and |s - r| < 0.5 - 1e-6: the product s is then within
    2.4e-7 of the exact 1000 v, which is therefore nearer to r than to any
    other integer.  Every other value is formatted by ``'%.3f'`` itself,
    which leaves near-ties and 2**32/1000 <= v < 10**12 to it.  The first
    value whose text is not 1 to 12 digits, ".", 3 digits (nan, inf, a sign
    bit, -0.0, or 10**12 and up) raises ``ValueError`` naming ``trial_id``,
    its tick and the value.
    """
    v = np.asarray(values, dtype=np.float64)  # float32 prints as tolist() does
    with np.errstate(over="ignore", invalid="ignore"):
        s = v * 1000.0
        r = np.rint(s)
        exact = ~np.signbit(v) & (s < 2.0**32) & (np.abs(s - r) < 0.5 - 1e-6)
    rest, frac = np.divmod(np.where(exact, r, 0.0).astype(np.int64), 1000)
    words = [_FRACTIONS[frac]]  # lowest first
    for k in range((len(str(int(rest.max(initial=0)))) + 2) // 3):
        rest, g = np.divmod(rest, 1000)
        words.append(_GROUPS[g + (1000 if k == 0 else 2000) * (rest == 0)])
    words[-1] |= _COMMA
    words = np.stack(words[::-1])
    bad = np.flatnonzero(~exact)
    if bad.size:
        texts = ["%.3f" % x for x in v[bad].tolist()]
        for i, text in zip(bad.tolist(), texts):
            if not (text[0].isdigit() and len(text) <= 16):
                raise ValueError(f"trial {trial_id}, tick {i // 2}: coordinate "
                                 f"{'xy'[i % 2]} = {v[i].item()!r} does not fit 1 to 12 "
                                 "digits, '.' and 3 digits")
        slow = _words(["," + text for text in texts], str.rjust, len(words))
        words = np.pad(words, ((len(slow) - len(words), 0), (0, 0)))
        words[:, bad] = slow
    return words


@functools.lru_cache(maxsize=1)
def _tick_words(n: int) -> np.ndarray:
    """The tick column of an ``n``-row file; a run's files share their length."""
    return _words(list(map(str, range(n))), str.rjust)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``trial_id,tick,x_mm,y_mm,mode,region`` rows, floats as ``'%.3f'``.

    The bytes are those of one ``%`` format per row.  A trajectory without
    ticks, whose file the reader would refuse, raises ``ValueError``; a code
    without a label raises what ``mode_label`` or ``region_label`` raises for
    it, and then a coordinate the reader's grammar has no text for raises
    ``ValueError`` (see :func:`_number_words`), before anything is written.
    The file is built as one (words, rows) matrix of 4-cell words, see
    :func:`_words`: each field sits right-aligned (numbers) or left-aligned
    (labels) in whole words, and NUL fills the cells it leaves unused.
    Transposed to rows and stripped of NUL, the matrix is the file.  Label
    words are taken by code from the one listing of labels,
    :func:`_label_table`, over the template's rooms and any higher room the
    file holds.
    """
    if not traj.n_ticks:
        raise ValueError(f"trial {traj.trial_id}: no ticks to write")
    modes, regions = traj.modes, traj.regions
    top = int(regions.max(initial=0))
    for codes, label, ok in (
            (modes, mode_label, (modes == MODE_UNKNOWN) | (0 <= modes) & (modes < len(Mode))),
            (regions, region_label, (UNKNOWN <= regions) & (regions <= MAX_ROOM))):
        if not ok.all():
            # the per-row writer's error: label each distinct code in ``set`` order
            for code in set(codes.tolist()):
                label(code)
    rooms = max(0 if traj.env is None else traj.env.n_rooms, top)
    mode_words, region_words = _label_table(rooms)[2:]
    n = traj.n_ticks
    prefix = _words([f"{traj.trial_id},"], str.rjust)
    numbers = _number_words(np.column_stack([traj.xs, traj.ys]).ravel(), traj.trial_id)
    matrix = np.concatenate(
        [np.broadcast_to(prefix, (len(prefix), n)), _tick_words(n),
         numbers[:, 0::2], numbers[:, 1::2],
         mode_words.take(np.minimum(modes, len(Mode)), axis=1),
         region_words.take(np.subtract(regions, UNKNOWN, dtype=np.intp), axis=1)])
    Path(path).write_bytes(f"{_CSV_HEADER}\n".encode()
                           + matrix.T.tobytes().translate(None, b"\0"))


def utf8_text(data: bytes, path, error: type[Exception] = ValueError) -> str:
    """``data`` decoded as UTF-8; at an undecodable byte, ``error`` naming
    ``path`` and the line that holds the byte, counting lines at ``"\n"``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 "
                    f"({exc.reason})") from None


_WORD = np.dtype("<u8")  # 8 bytes of a file, the first one lowest


def _windows(data: bytes, width: int, offset: int = 0) -> np.ndarray:
    """Element p holds the ``width`` bytes of ``data`` from byte p + ``offset`` on."""
    return np.ndarray((len(data) - width - offset + 1,), f"V{width}", data, offset, (1,))


def _word_pairs(texts: list[bytes]) -> np.ndarray:
    """Row i holds the 16 bytes of ``texts[i]`` as two words."""
    return np.frombuffer(b"".join(texts), _WORD).reshape(len(texts), 2)


# A number "d...d.ddd" of 5 <= w <= 16 bytes lies right-aligned in the 16
# bytes before its comma.  XOR-ed with _NUMBER_XOR and masked with
# _NUMBER_MASKS[w - 5], its digits become their values and its "." a 0, and
# the bytes before it become 0.  A field of w < 5 bytes takes w = 5's mask,
# which keeps the separator before it on a digit's or the "."'s byte; one of
# w > 16 bytes, of which the mask keeps the last 16, is refused by its width.
_NUMBER_XOR = _word_pairs([b"0" * 12 + b".000"])[0]
_NUMBER_MASKS = _word_pairs([b"\0" * (16 - w) + b"\xff" * w for w in range(5, 17)])
# b | (b & 0x7F) + limit has its top bit set exactly when byte b exceeds
# 0x7F - limit: 9 in a digit's byte, 0 in the "."'s
_LIMITS = _word_pairs([b"\x76" * 12 + b"\x7f" + b"\x76" * 3])[0]
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_HIGH = np.uint64(0x8080808080808080)
# the place value, in thousandths, of the number in each 4 of the 16 bytes
_GROUP_PLACES = np.array([1e11, 1e7, 1e3, 1.0])
_EVEN_BYTES = np.uint64(0x00FF00FF00FF00FF)
# The key of a tick (two words) or a label (one word) is its bytes, the
# separator after them, and 0 past that.  _KEY_MASKS[w + 1], indexed by the
# distance between the separators around a field of w bytes, keeps the
# first w + 1 bytes from the field on; a field too long for its key keeps
# no separator, so the key of one field is no other field's.
_KEY_MASKS = _word_pairs([b"\xff" * d + b"\0" * (16 - d) for d in range(17)])


@functools.lru_cache(maxsize=2)
def _label_table(rooms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one listing of the mode and region labels the writer writes for
    a template of ``rooms`` rooms.  For the reader, the keys of each
    ``<mode>,`` and ``<region>\\n`` in ascending order, and each key's mode
    or region code.  For the writer, the :func:`_words` of ``,<mode>,`` for
    each code of ``_MODE_CODES`` in order, and of ``<region>\\n`` for each
    region code from UNKNOWN up.  The reader lists MAX_ROOM rooms for a file
    without a template, once per process."""
    regions = {f"{region_label(code)}\n": code for code in range(UNKNOWN, rooms + 1)}
    keyed = {**{f"{label},": code for label, code in _MODE_CODES.items()}, **regions}
    keys = np.array([int.from_bytes(text.encode(), "little") for text in keyed], np.uint64)
    order = np.argsort(keys)
    keys, codes = keys[order], np.array(list(keyed.values()), np.int16)[order]
    keys.flags.writeable = codes.flags.writeable = False  # every caller shares them
    return (keys, codes, _words([f",{label}," for label in _MODE_CODES], str.ljust),
            _words(list(regions), str.ljust))


@functools.lru_cache(maxsize=1)
def _tick_keys(n: int) -> np.ndarray:
    """The key of ``str(i) + ","`` for each row i of an ``n``-row file, as
    two words; read-only."""
    return _word_pairs([(b"%d," % i).ljust(16, b"\0") for i in range(n)])


def _written_int(text: bytes) -> bool:
    """Whether ``text`` is ``str`` of an int, as the writer writes a trial id."""
    try:
        return str(int(text)).encode() == text
    except ValueError:
        return False


def _grammar_rows(data: bytes, first_id: bytes, rooms: int) -> tuple:
    """The data rows of a file that starts with the header, parsed by column
    in the writer's grammar (see :func:`read_trajectory_csv`): the position
    of each line's "\\n", whether each row is in the grammar, whether it
    passes each check of the grammar, in the order field count, trial id
    (line 2's must be ``str`` of an int, and the others line 2's), tick, x,
    y, mode and region, and x and y, mode and region code of the rows that
    are.  ``data`` ends in a "\\n" and 16 bytes more."""
    buf = np.frombuffer(data, np.uint8)
    # every "," and "\n" from the header's "\n" on; the header has 5 commas
    sep = np.flatnonzero((buf == 44) | (buf == 10))[5:]
    ends = np.flatnonzero(buf.take(sep) == 10)
    n = len(ends) - 1
    # the 7 separators from the "\n" before each row to its own: the row
    # has 6 fields exactly when the 7th is its "\n"
    seps = sep.take(ends[:-1] + np.arange(7)[:, None], mode="clip")
    fields = np.diff(ends) == 6
    ends = sep.take(ends)

    # trial id: line 2's, which must be str of an int, compared whole with
    # each id of its width, so that the windows copied hold no more bytes
    # than the file
    id_text = first_id + b","
    same = seps[1] - seps[0] == len(id_text)
    same[same] = _windows(data, len(id_text), 1)[seps[0][same]] == np.void(id_text)
    same[0] &= _written_int(first_id)
    # tick, mode and region: the masked bytes after each one's separator
    words = _windows(data, 16, 1)[seps[[1, 4, 5]]].view(_WORD).reshape(3, n, 2)
    ticks = ((words[0] & _KEY_MASKS.take(seps[2] - seps[1], axis=0, mode="clip"))
             ^ _tick_keys(n))
    tick = (ticks[:, 0] | ticks[:, 1]) == 0
    keys = words[1:, :, 0] & _KEY_MASKS[:, 0].take(seps[5:] - seps[4:6], mode="clip")
    table_keys, table_codes = _label_table(rooms)[:2]
    at = table_keys.searchsorted(keys)
    found = table_keys.take(at, mode="clip") == keys
    modes, regions = table_codes.take(at, mode="clip")

    # x and y: the 16 bytes before each one's comma
    after = seps[3:5].ravel()
    widths = after - seps[2:4].ravel() - 1
    digits = ((_windows(data, 16)[after - 16].view(_WORD).reshape(2 * n, 2) ^ _NUMBER_XOR)
              & _NUMBER_MASKS.take(widths - 5, axis=0, mode="clip"))
    over = (digits | (digits & _LOW7) + _LIMITS) & _HIGH
    over[widths > 16] = _HIGH
    x, y = (over[:, 0] | over[:, 1]).reshape(2, n) == 0
    checks = (fields, same, tick, x, y, *found)
    # 10 b + b' of neighbouring digits b, b' is at most 99, and 100 p + p' of
    # neighbouring pairs at most 9999: so each 4 bytes' digits become one
    # number in 16 bits, the "." giving the fraction's leading 0
    pairs = (digits * np.uint64(10) + (digits >> np.uint64(8))) & _EVEN_BYTES
    groups = (pairs * np.uint64(100) + (pairs >> np.uint64(16))).astype(_WORD, copy=False)
    groups = groups.view("<u2")[:, ::2]
    xy = (groups @ _GROUP_PLACES).reshape(2, n) / 1000.0
    return ends, np.logical_and.reduce(checks), checks, xy, modes.astype(np.uint8), regions


def read_trajectory_csv(path, env: EnvironmentTemplate | None = None) -> Trajectory:
    """Load a trajectory CSV; contact bits are not serialized and read as 0.

    A file must be one the writer writes: the header, then rows of line 2's
    trial id (``str`` of an int), ``str`` of the row index as the tick, x
    and y as 1 to 12 digits, ".", 3 digits, and a mode and a region label
    the writer writes, with a template given for rooms it has, each row
    ending in "\\n" (the last one may end the file instead).  The rows are
    parsed by column from the file's bytes (:func:`_grammar_rows`), and a
    number reads as its integer thousandths over 1000.0, which is
    ``float()`` of its text: both are the correctly rounded quotient, as the
    thousandths stay below 2**53.  Any other file is refused at its earliest
    bad line, with a byte that is not UTF-8 named first, and then the first
    of the byte lane's checks the row fails, echoing the field it checks; a
    region label the writer writes is refused only for a room past the
    template.  Lines are counted at "\\n" alone, and every byte of a row is
    checked, so a "\\r" or a non-ASCII byte fails the row that holds it.
    """
    data = Path(path).read_bytes()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    header = _CSV_HEADER.encode() + b"\n"
    if not data.startswith(header):
        raise TrajectoryFormatError(f"{path}:1: bad or missing header")
    if len(data) == len(header):
        raise TrajectoryFormatError(f"{path}:1: no data rows")
    first_id = data[len(header):data.index(b"\n", len(header))].split(b",", 1)[0]
    rooms = env.n_rooms if env is not None else MAX_ROOM
    ends, ok, checks, (xs, ys), modes, regions = _grammar_rows(data + bytes(16), first_id,
                                                               rooms)
    if not ok.all():
        row = int(np.argmin(ok))
        line = data[ends[row] + 1:ends[row + 1]]
        try:
            fields = line.decode().split(",")
        except UnicodeDecodeError as exc:
            raise TrajectoryFormatError(f"{path}:{row + 2}: byte {line[exc.start]:#04x} "
                                        f"is not UTF-8 ({exc.reason})") from None
        # the first check the row fails; check c > 0 is of field c - 1
        check = next(c for c, passed in enumerate(checks) if not passed[row])
        text = reprlib.repr(fields[check - 1])
        if check == 6:
            try:
                region_code(fields[5])
                text = f"region {text}, but the template has {rooms} rooms"
            except GeometryError:
                text = f"bad region {text}"
        fault = ("expected 6 fields",
                 f"trial id {text} differs from line 2's {reprlib.repr(first_id.decode())}"
                 if row else f"bad trial id {text}",
                 f"tick {text}, expected {row}", f"bad coordinate {text}",
                 f"bad coordinate {text}", f"bad mode {text}", text)[check]
        raise TrajectoryFormatError(f"{path}:{row + 2}: {fault}")
    return Trajectory(env=env, trial_id=int(first_id), xs=xs, ys=ys, modes=modes,
                      regions=regions, ms=np.zeros(len(xs), dtype=np.uint8))
