"""Kinematics closing the loop between geometry and the automaton.

One tick of one trial: move according to the current mode, sense wall
contact, compute the room-entry trigger, advance the automaton, then apply
room entry/exit teleports.  Crawling in the corridor is straight-line motion
along the heading with reflection at the ends; exploration (and crawling
inside a room) is a random waypoint walk clipped to the containing region.
Room entry is trigger-then-teleport through the opening rather than
continuous steering.

The kernel, :func:`run_trials`, advances a batch of trials by events, not
by ticks (next-event time advance).  Each trial keeps its own clock, and
each lockstep iteration advances every unfinished trial by one event: a
whole Still run, a whole corridor Crawl run, or any other single tick (see
:func:`_simulate`).  Both kinds of run are sampled tick by tick from a
look-ahead, and each iteration hands the ticks that happened to an output
object in one call: :class:`TrialArrays` writes tick k of trial i to
column k of row i, and :class:`VisitCounts` only counts ticks and
trigger-window passes per room (ensembles put either in memory shared with
their worker processes, see :mod:`leechsim.montecarlo`).  :func:`run_trial`
is a batch of one.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .automaton import (AutomatonParams, Mode, config_doc, p_visit, parse_config,
                        next_modes, next_timers, transition_thresholds)
from .geometry import (
    CORRIDOR,
    MAX_ROOM,
    UNKNOWN,
    WALL,
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
                              q_scale: float) -> float:
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
    """
    p = p_visit(x, auto)
    if p == 1.0:
        return 1.0 if q_scale > 0 else 0.0
    return min(1.0, q_scale * -math.log1p(-p))


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

    v_crawl: float = 3.0
    v_explore: float = 1.5
    contact_radius: float = 1.0
    q_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.v_crawl <= 0 or self.v_explore <= 0:
            raise ValueError("speeds must be > 0")
        if self.contact_radius < 0:
            raise ValueError("contact_radius must be >= 0")
        if not 0.0 <= self.q_scale <= 1.0:
            raise ValueError("q_scale must lie in [0, 1]")

    _CONFIG = (("v_crawl", "v_crawl_mm_s", float),
               ("v_explore", "v_explore_mm_s", float),
               ("contact_radius", "contact_radius_mm", float),
               ("q_scale", "q_scale", float))

    def to_config(self) -> dict:
        return config_doc(self)

    @classmethod
    def from_config(cls, doc: dict) -> "MotionParams":
        return parse_config(cls, doc, "motion")


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
    seed: int
    xs: np.ndarray
    ys: np.ndarray
    modes: np.ndarray
    regions: np.ndarray
    ms: np.ndarray

    @property
    def n_ticks(self) -> int:
        return int(self.xs.shape[0])


def mode_label(code: int) -> str:
    if code == MODE_UNKNOWN:
        return "UNKNOWN"
    return Mode(code).name


class _SimContext:
    """Validated constants and lookup tables of one (env, motion, auto) triple.

    Tables indexed by region code (0 corridor, i room i) give each region's
    clamp box; tables over the openings, sorted along x, give the gap spans
    and trigger windows.
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
        self.room_y1 = env.room_rect(1)[3]
        self.band_y1 = self.room_y1 + env.wall_thickness
        self.cor_mid = 0.5 * (self.band_y1 + self.H)
        self.r = motion.contact_radius
        self.v_c = motion.v_crawl * auto.tick
        self.v_e = motion.v_explore * auto.tick
        self.tau_s = auto.tau_s
        self.tau_a = auto.tau_a
        self.any_q = motion.q_scale > 0.0
        self.start = env.start_point

        rects = [env.room_rect(i) for i in range(1, n + 1)]
        self.xlo = np.array([0.0] + [rect[0] for rect in rects])
        self.xhi = np.array([self.L] + [rect[2] for rect in rects])
        self.ylo = np.array([self.band_y1] + [0.0] * n)
        self.yhi = np.array([self.H] + [self.room_y1] * n)
        openings = [env.opening_for_room(i) for i in range(1, n + 1)]
        self.cx = np.array([math.nan] + [o.center for o in openings])

        # Gap spans along x.  has_l/has_r tell whether a wall corner bounds
        # the gap on that side: row 0 as seen from the corridor, row 1 from
        # the gap's own room.
        spans = sorted((o.span, rect) for o, rect in zip(openings, rects))
        self.gap_lo = np.array([lo for (lo, _), _ in spans])
        self.gap_hi = np.array([hi for (_, hi), _ in spans])
        self.gap_has_l = ([lo > 0.0 for (lo, _), _ in spans],
                          [lo > rect[0] for (lo, _), rect in spans])
        self.gap_has_r = ([hi < self.L for (_, hi), _ in spans],
                          [hi < rect[2] for (_, hi), rect in spans])

        half = 0.5 * self.r
        self.windows = tuple(sorted(
            (o.span[0] - half, o.span[1] + half,
             entry_trigger_probability(room_distance_to_end(env, i), auto,
                                       motion.q_scale), i)
            for i, o in enumerate(openings, start=1)
        ))
        win_lo, self.win_hi, win_q, win_room = (
            np.array(column) for column in zip(*self.windows))
        # x lies in window w = searchsorted(win_hi, x) iff win_start[w] <= x;
        # code w + 1 names that window and code 0 none.  A code indexes the
        # room passed and the window's trigger, as an index into the
        # distinct trigger values q_levels (q_levels[0] = 0.0).
        self.win_start = np.append(win_lo, np.inf)
        self.q_levels = np.array(sorted({0.0, *win_q.tolist()}))
        self.code_room = np.concatenate(([0], win_room))
        self.code_q = np.concatenate(([0], np.searchsorted(self.q_levels, win_q)))

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

    def trajectories(self, env, seeds, trial_ids) -> list[Trajectory]:
        return [
            Trajectory(env, tid, seed, self.xs[i], self.ys[i], self.modes[i],
                       self.regions[i], self.ms[i])
            for i, (tid, seed) in enumerate(zip(trial_ids, seeds))
        ]


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
        its region and of its window passed, one ``bincount`` per table, and
        count the mode runs that close; see :func:`_simulate`.

        A trial's ticks within one call must be consecutive and in tick
        order.
        """
        row_start = rows * self.ticks.shape[1]
        for counts, codes in ((self.ticks, region), (self.passes, passed)):
            added = np.bincount(row_start + codes, minlength=counts.size)
            counts += added.reshape(counts.shape).astype(counts.dtype)
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
    """:func:`transition_thresholds` of every step a ``duration``-tick run
    can sample, at flat index ``((mode * 2 + m) * n_q + q) * stride + t``,
    where q indexes ``ctx.q_levels``; and ``stride``.  A timer never exceeds
    the ticks elapsed or its phase's cap, so t < stride covers every step."""
    stride = min(max(ctx.tau_s, ctx.tau_a), duration) + 1
    t = np.arange(stride)
    rows = [transition_thresholds(np.full(stride, mode), np.minimum(t, cap), m, q,
                                  ctx.tau_s, ctx.tau_a)
            for mode, cap in ((0, ctx.tau_s), (1, ctx.tau_a), (2, ctx.tau_a))
            for m in (0, 1) for q in ctx.q_levels.tolist()]
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
    ticks that moved, and every tick compares its uniform with the
    thresholds of :func:`_thresholds` (:func:`next_modes`), which are those
    of :func:`~leechsim.automaton.sample_transitions`.

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
    n_q = np.intp(ctx.q_levels.size)  # an intp, so that m * n_q cannot wrap
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
        if n_crawl:
            xa = xs[crawling]
            w = np.searchsorted(ctx.win_hi, xa)
            code[crawling] = np.where(ctx.win_start[w] <= xa, w + 1, 0)
        passed = ctx.code_room[code]

        # (4) one automaton transition a tick, at the tabulated thresholds;
        # a run ends at its first change of mode
        at = (np.repeat(mode[g] * 2 * n_q * stride + t[g] - starts, limit) + tick
              + (ms * n_q + ctx.code_q[code]) * stride)
        new_mode = next_modes(draws.ravel()[np.repeat(u, limit) + tick], first[at], second[at])
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
    return out.trajectories(env, seeds, ids)


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


def _number_words(values: np.ndarray) -> np.ndarray:
    """``',%.3f' % v`` of each value, right-aligned in a column of words.

    With s = 1000 v and r = rint(s), r is the correctly rounded milli-value
    that ``'%.3f'`` prints when v has no sign bit, s < 2**32 (so 0 <= s, and
    s is not nan) and |s - r| < 0.5 - 1e-6: the product s is then within
    2.4e-7 of the exact 1000 v, which is therefore nearer to r than to any
    other integer.  Every other value (nan, inf, negative, -0.0, huge, or
    near a tie) is formatted by ``'%.3f'`` itself.
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
        slow = _words([",%.3f" % x for x in v[bad].tolist()], str.rjust, len(words))
        words = np.pad(words, ((len(slow) - len(words), 0), (0, 0)))
        words[:, bad] = slow
    return words


@functools.lru_cache(maxsize=1)
def _tick_words(n: int) -> np.ndarray:
    """The tick column of an ``n``-row file; a run's files share their length."""
    return _words(list(map(str, range(n))), str.rjust)


def _code_index(codes: np.ndarray, label) -> tuple[list[str], np.ndarray]:
    """``label`` of each distinct code, ascending, and the position of each
    element's code among them; ``label`` is called once per distinct code."""
    lo = int(codes.min(initial=0))
    shifted = codes.astype(np.intp) - lo
    counts = np.bincount(shifted)
    try:
        labels = [label(code) for code in (np.flatnonzero(counts) + lo).tolist()]
    except ValueError:
        # raise for the bad code that ``set`` order reaches first, the one
        # labelling the column through a set of its elements names
        for code in set(codes.tolist()):
            label(code)
        raise
    return labels, (np.cumsum(counts > 0) - 1)[shifted]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``trial_id,tick,x_mm,y_mm,mode,region`` rows, floats as ``'%.3f'``.

    The bytes are those of one ``%`` format per row.  The file is built as
    one (words, rows) matrix of 4-cell words, see :func:`_words`: each field
    sits right-aligned (numbers) or left-aligned (labels) in whole words,
    and NUL fills the cells it leaves unused.  Transposed to rows and
    stripped of NUL, the matrix is the file.
    """
    modes, mode_at = _code_index(traj.modes, mode_label)
    regions, region_at = _code_index(traj.regions, region_label)
    tails = _words([f",{mode},{region}\n" for mode in modes for region in regions],
                   str.ljust)
    n = traj.n_ticks
    prefix = _words([f"{traj.trial_id},"], str.rjust)
    matrix = np.concatenate(
        [np.broadcast_to(prefix, (len(prefix), n)), _tick_words(n),
         _number_words(traj.xs), _number_words(traj.ys),
         tails.take(mode_at * len(regions) + region_at, axis=1)])
    Path(path).write_bytes(f"{_CSV_HEADER}\n".encode()
                           + matrix.T.tobytes().translate(None, b"\0"))


_MODE_CODES = {"STILL": 0, "CRAWL": 1, "EXPLORE": 2, "UNKNOWN": MODE_UNKNOWN}


def _region(label: str, rooms: int | None) -> int:
    """The code of a region label; ``ValueError`` if the writer could not
    have written it for a template of ``rooms`` rooms (any, for None)."""
    try:
        code = region_code(label)
    except GeometryError:
        raise ValueError(f"bad region {label!r}") from None
    if rooms is not None and code > rooms:
        raise ValueError(f"region {label!r}, but the template has {rooms} rooms")
    return code


def utf8_text(data: bytes, path, error: type[Exception] = ValueError) -> str:
    """``data`` decoded as UTF-8; at an undecodable byte, ``error`` naming
    ``path`` and the line that holds the byte, counted as ``str.splitlines``
    counts lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise error(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 "
                    f"({exc.reason})") from None


# ASCII bytes that str.splitlines (and universal newlines) break lines at,
# besides "\n"
_LINE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_WORD = np.dtype("<u8")  # 8 bytes of a file, the first one lowest


def _windows(data: bytes, width: int, offset: int = 0) -> np.ndarray:
    """Element p holds the ``width`` bytes of ``data`` from byte p + ``offset`` on."""
    return np.ndarray((len(data) - width - offset + 1,), f"V{width}", data, offset, (1,))


def _word_pairs(texts: list[bytes]) -> np.ndarray:
    """Row i holds the 16 bytes of ``texts[i]`` as two words."""
    return np.frombuffer(b"".join(texts), _WORD).reshape(len(texts), 2)


# Tables indexed by a field's width w plus 1, the distance between the
# separators around it; ``take(mode="clip")`` maps any larger distance to a
# table's last entry.
#
# A number "d...d.ddd" of 5 <= w <= 16 bytes lies right-aligned in the 16
# bytes before its comma.  XOR-ed with _NUMBER_XOR[w + 1] and masked with
# _NUMBER_MASKS[w + 1], its digits become their values and its "." a 0, and
# the bytes before it become 0.  For any other w the XOR is 0xFF throughout,
# which takes every byte of UTF-8 text, all below 0xF5, above 9.
_NUMBER_XOR = _word_pairs([b"0" * 12 + b".000" if 6 <= d <= 17 else b"\xff" * 16
                           for d in range(19)])
_NUMBER_MASKS = _word_pairs([b"\0" * (17 - d) + b"\xff" * (d - 1) if 6 <= d <= 17
                             else b"\xff" * 16 for d in range(19)])
# b | (b & 0x7F) + limit has its top bit set exactly when byte b exceeds
# 0x7F - limit: 9 in a digit's byte, 0 in the "."'s
_LIMITS = _word_pairs([b"\x76" * 12 + b"\x7f" + b"\x76" * 3])[0]
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_HIGH = np.uint64(0x8080808080808080)
# the place value, in thousandths, of the number in each 4 of the 16 bytes
_GROUP_PLACES = np.array([1e11, 1e7, 1e3, 1.0])
_EVEN_BYTES = np.uint64(0x00FF00FF00FF00FF)
# A label's key is the word of its first 8 bytes with bytes w to 7 set to
# 0xFF, which no UTF-8 text holds: so the key of a label of w <= 7 bytes is
# no other field's.
_LABEL_FILLS = np.array([(1 << 64) - (1 << 8 * min(max(d - 1, 0), 8)) for d in range(10)],
                        np.uint64)
_SLOT_SHIFT = np.uint64(54)  # a slot is the top 10 bits of key * multiplier


def _label_key(label: str) -> int:
    return int.from_bytes(label.encode().ljust(8, b"\xff"), "little")


@functools.lru_cache(maxsize=2)
def _label_table(rooms: int | None) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """The mode and region labels the writer writes for a template of
    ``rooms`` rooms (any number for None), by slot: the key of each, its
    mode and region code (-1 for no mode, -32768 for no region), and the
    multiplier that gives a key its slot.

    The multiplier is the first of (t + 1) * 0x9E3779B97F4A7C15 | 1, for
    t < 256, that gives each label a slot of its own; the labels of 150
    rooms need t = 113.  Failing that it is the first, and a label whose
    slot an earlier one took reads through :func:`_parse_row`.
    """
    rooms_listed = min(MAX_ROOM if rooms is None else rooms, 1024)
    regions = (CORRIDOR, WALL, UNKNOWN, *range(1, rooms_listed + 1))
    labels = list(dict.fromkeys([*_MODE_CODES, *map(region_label, regions)]))
    label_keys = np.array(list(map(_label_key, labels)), np.uint64)
    multipliers = [np.uint64((t + 1) * 0x9E3779B97F4A7C15 % 2**64 | 1) for t in range(256)]
    multiplier = next((m for m in multipliers
                       if len(np.unique(label_keys * m >> _SLOT_SHIFT)) == len(labels)),
                      multipliers[0])
    keys = np.zeros(1024, np.uint64)
    codes = np.array([[-1], [-32768]], np.int16).repeat(1024, axis=1)
    for label, key, slot in zip(labels, label_keys,
                                (label_keys * multiplier >> _SLOT_SHIFT).tolist()):
        if keys[slot]:
            continue
        keys[slot] = key
        codes[0, slot] = _MODE_CODES.get(label, -1)
        try:
            codes[1, slot] = _region(label, rooms)
        except ValueError:
            pass
    keys.flags.writeable = codes.flags.writeable = False  # every caller shares them
    return keys, codes, multiplier


@functools.lru_cache(maxsize=1)
def _tick_keys(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``str(i) + ","`` of each row i of an ``n``-row file as a word, and the
    mask of its bytes."""
    texts = [b"%d," % i for i in range(n)]
    # a tick too long for a word gets the mask 0, which no nonzero word matches
    words = [int.from_bytes(t, "little") if len(t) <= 8 else 1 for t in texts]
    masks = [(1 << 8 * len(t)) - 1 if len(t) <= 8 else 0 for t in texts]
    words, masks = np.array(words, np.uint64), np.array(masks, np.uint64)
    words.flags.writeable = masks.flags.writeable = False  # every caller shares them
    return words, masks


def _parse_row(line: str, tick: int, first_id: str,
               rooms: int | None) -> tuple[float, float, int, int]:
    """x, y, mode and region code of one data row, checked field by field;
    ``ValueError`` with the message of the first check that fails."""
    fields = line.split(",")
    if len(fields) != 6:
        raise ValueError("expected 6 fields")
    if fields[0] != first_id:
        raise ValueError(f"trial id {fields[0]!r} differs from line 2's {first_id!r}")
    if fields[1] != str(tick):
        raise ValueError(f"tick {fields[1]!r}, expected {tick}")
    x, y = float(fields[2]), float(fields[3])
    if fields[4] not in _MODE_CODES:
        raise ValueError(f"bad mode {fields[4]!r}")
    return x, y, _MODE_CODES[fields[4]], _region(fields[5], rooms)


def _grammar_rows(data: bytes, first_id: str, rooms: int | None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The data rows of a file that starts with the header, parsed by column
    in the writer's grammar (see :func:`read_trajectory_csv`): the position
    of each line's "\\n", whether each row is in the grammar, and x and y,
    mode and region code of the rows that are.  ``data`` ends in a "\\n"
    and 16 bytes more."""
    buf = np.frombuffer(data, np.uint8)
    # every "," and "\n" from the header's "\n" on; the header has 5 commas
    sep = np.flatnonzero((buf == 44) | (buf == 10))[5:]
    ends = np.flatnonzero(buf.take(sep) == 10)
    n = len(ends) - 1
    # the 7 separators from the "\n" before each row to its own: the row
    # has 6 fields exactly when the 7th is its "\n"
    seps = sep.take(ends[:-1] + np.arange(7)[:, None], mode="clip")
    ok = np.diff(ends) == 6
    ends = sep.take(ends)

    # trial id, tick, mode and region: the word after each one's separator
    words = _windows(data, 8, 1)[seps[[0, 1, 4, 5]]].view(_WORD)
    id_text = first_id.encode() + b","
    if len(id_text) <= 8:
        ok &= (words[0] & np.uint64((1 << 8 * len(id_text)) - 1)
               == int.from_bytes(id_text, "little"))
    else:
        ok[:] = False
    tick_words, tick_masks = _tick_keys(n)
    ok &= (words[1] & tick_masks) == tick_words
    keys = words[2:] | _LABEL_FILLS.take(seps[5:] - seps[4:6], mode="clip")
    table_keys, table_codes, multiplier = _label_table(rooms)
    slots = keys * multiplier >> _SLOT_SHIFT
    found = table_keys.take(slots) == keys
    modes, regions = table_codes[0].take(slots[0]), table_codes[1].take(slots[1])
    ok &= found[0] & found[1] & (modes >= 0) & (regions != -32768)

    # x and y: the 16 bytes before each one's comma
    after = seps[3:5].ravel()
    widths = after - seps[2:4].ravel()
    digits = ((_windows(data, 16)[after - 16].view(_WORD).reshape(2 * n, 2)
               ^ _NUMBER_XOR.take(widths, axis=0, mode="clip"))
              & _NUMBER_MASKS.take(widths, axis=0, mode="clip"))
    over = (digits | (digits & _LOW7) + _LIMITS) & _HIGH
    ok &= (over[:n, 0] | over[:n, 1] | over[n:, 0] | over[n:, 1]) == 0
    # 10 b + b' of neighbouring digits b, b' is at most 99, and 100 p + p' of
    # neighbouring pairs at most 9999: so each 4 bytes' digits become one
    # number in 16 bits, the "." giving the fraction's leading 0
    pairs = (digits * np.uint64(10) + (digits >> np.uint64(8))) & _EVEN_BYTES
    groups = (pairs * np.uint64(100) + (pairs >> np.uint64(16))).astype(_WORD, copy=False)
    groups = groups.view("<u2")[:, ::2]
    xy = (groups @ _GROUP_PLACES).reshape(2, n) / 1000.0
    return ends, ok, xy, modes.astype(np.uint8), regions


def read_trajectory_csv(path, env: EnvironmentTemplate | None = None) -> Trajectory:
    """Load a trajectory CSV; contact bits are not serialized and read as 0.

    Ticks must run 0, 1, 2, ... and every row must carry line 2's trial id.
    Regions must be labels :func:`~leechsim.geometry.region_label` writes,
    and with a template given, rooms it has.  A bad file is reported at its
    earliest bad line, with the first failing check of that line in the
    order field count, trial id, tick, x/y, mode, region; a non-finite
    coordinate is checked last, over the whole file.  An undecodable byte
    is reported at its line.

    Lines are split at "\\n".  An ASCII file without the other line breaks
    of ``str.splitlines`` is split as it is; any other file is decoded and
    split as text first.  Rows in the writer's grammar are parsed from their
    bytes, by column (:func:`_grammar_rows`): line 2's trial id, ``str`` of
    the row index, x and y as 1 to 12 digits, ".", 3 digits, and mode and
    region labels the template allows.  Such
    a number reads as its integer thousandths over 1000.0, which is
    ``float()`` of its text: both are the correctly rounded quotient, as the
    thousandths stay below 2**53.  Every other row goes through
    :func:`_parse_row`, which checks it field by field.
    """
    data = Path(path).read_bytes()
    if not data.isascii() or any(b in data for b in _LINE_BREAKS):
        data = "".join(line + "\n" for line in
                       utf8_text(data, path, TrajectoryFormatError).splitlines()).encode()
    elif data and not data.endswith(b"\n"):
        data += b"\n"
    header = _CSV_HEADER.encode() + b"\n"
    if not data.startswith(header):
        raise TrajectoryFormatError(f"{path}:1: bad or missing header")
    if len(data) == len(header):
        raise TrajectoryFormatError(f"{path}:1: no data rows")
    first_id = data[len(header):data.index(b"\n", len(header))].split(b",", 1)[0].decode()
    try:
        trial_id = int(first_id)
    except ValueError as exc:
        raise TrajectoryFormatError(f"{path}:2: {exc}") from None

    rooms = env.n_rooms if env is not None else None
    ends, ok, (xs, ys), modes, regions = _grammar_rows(data + bytes(16), first_id, rooms)
    for row in np.flatnonzero(~ok).tolist():
        line = data[ends[row] + 1:ends[row + 1]].decode()
        try:
            xs[row], ys[row], modes[row], regions[row] = _parse_row(line, row, first_id, rooms)
        except ValueError as exc:
            raise TrajectoryFormatError(f"{path}:{row + 2}: {exc}") from None
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        row = int(np.argmin(finite))
        raise TrajectoryFormatError(
            f"{path}:{row + 2}: non-finite coordinate ({xs[row]}, {ys[row]})")
    return Trajectory(env=env, trial_id=trial_id, seed=0, xs=xs, ys=ys, modes=modes,
                      regions=regions, ms=np.zeros(len(xs), dtype=np.uint8))
