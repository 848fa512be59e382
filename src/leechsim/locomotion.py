"""Per-tick kinematics closing the loop between geometry and the automaton.

One tick of one trial: move according to the current mode, sense wall
contact, compute the room-entry trigger, advance the automaton, then apply
room entry/exit teleports.  Crawling in the corridor is straight-line motion
along the heading with reflection at the ends; exploration (and crawling
inside a room) is a random waypoint walk clipped to the containing region.
Room entry is trigger-then-teleport through the opening rather than
continuous steering.

The kernel, :func:`run_trials`, steps a whole batch of trials in lockstep:
each tick is computed for every trial at once with masked numpy operations
over per-trial state arrays and handed to an output object: :class:`TrialArrays`
writes tick k of trial i to column k of row i, :class:`VisitCounts` only
counts ticks and trigger-window passes per room (ensembles put either in
memory shared with their worker processes, see :mod:`leechsim.montecarlo`).
:func:`run_trial` is a batch of one.

Randomness: trial i owns ``default_rng(seed_i)`` and reads it, in stream
order, through its own row of a draw buffer and a cursor.  A centered
release first draws the heading coin; then each tick draws the waypoint
angle (only when the mode moves randomly), one automaton uniform, and the
exit-heading coin (only when leaving a room), in that order.  Buffers are
refilled in blocks; a block draw yields exactly the values of as many single
draws, so the block width changes no output.  A trial's record therefore
depends on its seed alone, not on which trials share its batch, which is why
splitting an ensemble over any number of workers gives identical bytes.

The floats are the ones a scalar evaluation with Python's ``math`` gives:
angles go through ``math.cos``/``math.sin`` and corner distances through
``math.hypot`` on just the elements that need them, and everything else is
IEEE add, multiply, min and max, which numpy rounds identically.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .automaton import (AutomatonParams, Mode, config_doc, p_visit, parse_config,
                        sample_transitions)
from .geometry import (
    CORRIDOR,
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
    scaled by ``q_scale``: entries per trial are then near-Poisson with a rate
    proportional to that hazard, so the calibrated at-least-once frequencies
    1 - exp(-rate) reproduce the visit law's distance profile rather than a
    saturation-flattened copy of it.  A certain visit (p_visit = 1) is an
    infinite hazard, so it triggers on every pass unless ``q_scale`` is 0.
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
        self.win_lo, self.win_hi, self.win_q, self.win_room = (
            np.array(column) for column in zip(*self.windows))

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


_BLOCK = 256  # ticks between refills of the per-trial draw buffers


def _shared_arrays(n_trials: int, width: int, dtypes: dict) -> dict[str, np.ndarray]:
    """Zeroed (n_trials, width) arrays, one per ``dtypes`` entry, in one
    anonymous shared memory mapping.

    Processes forked after the allocation write through to the same pages,
    so an ensemble's workers can fill their rows in place.  List the widest
    dtype first, so every array stays aligned inside the one buffer.
    """
    size = n_trials * width
    itemsizes = sum(np.dtype(d).itemsize for d in dtypes.values())
    buffer = mmap.mmap(-1, max(size * itemsizes, 1))  # mmap refuses length 0
    arrays, offset = {}, 0
    for name, dtype in dtypes.items():
        arrays[name] = np.frombuffer(buffer, dtype, size, offset).reshape(
            n_trials, width)
        offset += arrays[name].nbytes
    return arrays


class _TrialRows:
    """Kernel output whose ``_DTYPES`` fields hold one row per trial."""

    _DTYPES: dict

    def rows(self, lo: int, hi: int):
        return replace(self, **{k: getattr(self, k)[lo:hi] for k in self._DTYPES})


@dataclass(frozen=True)
class TrialArrays(_TrialRows):
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
        return cls(**_shared_arrays(n_trials, duration, cls._DTYPES))

    @property
    def duration(self) -> int:
        return self.xs.shape[1]

    def record(self, k, x, y, mode, region, m, passed) -> None:
        """Store tick ``k`` of every trial in column ``k``."""
        for field, value in ((self.xs, x), (self.ys, y), (self.modes, mode),
                             (self.regions, region), (self.ms, m)):
            field[:, k] = value

    def trajectories(self, env, seeds, trial_ids) -> list[Trajectory]:
        return [
            Trajectory(env, tid, seed, self.xs[i], self.ys[i], self.modes[i],
                       self.regions[i], self.ms[i])
            for i, (tid, seed) in enumerate(zip(trial_ids, seeds))
        ]


@dataclass(frozen=True)
class VisitCounts(_TrialRows):
    """Per-trial room counts of a batch of trials, O(trials x rooms) in all.

    Column c of ``ticks`` counts the ticks trial i spent in region code c
    (column 0 the corridor), so room c was visited iff ``ticks[i, c] > 0``.
    Column c >= 1 of ``passes`` counts the ticks trial i crawled over room
    c's trigger window (the kernel's own test for a possible entry, made
    whatever ``q_scale`` is); column 0 counts the other ticks.
    """

    duration: int
    ticks: np.ndarray
    passes: np.ndarray

    _DTYPES = {"ticks": np.int32, "passes": np.int32}

    @classmethod
    def allocate(cls, n_trials: int, n_rooms: int, duration: int) -> "VisitCounts":
        """Zeroed counts in shared memory, see :func:`_shared_arrays`."""
        if duration < 1:
            raise ValueError(f"duration must be >= 1 tick, got {duration}")
        return cls(duration, **_shared_arrays(n_trials, n_rooms + 1, cls._DTYPES))

    def record(self, k, x, y, mode, region, m, passed) -> None:
        """Count tick ``k``: one tick in ``region`` and one in ``passed``."""
        trials = np.arange(region.size)
        self.ticks[trials, region] += 1
        self.passes[trials, passed] += 1

    def visit_frequencies(self) -> dict[int, float]:
        """Fraction of trials in which each room shows up for at least one tick."""
        visits = (self.ticks[:, 1:] > 0).sum(axis=0).tolist()
        n = self.ticks.shape[0]
        return {room: c / n for room, c in enumerate(visits, start=1)}

    def time_fractions(self) -> dict[int, float]:
        """Per-room share of all ticks across the batch."""
        total = self.ticks.shape[0] * self.duration
        ticks = self.ticks[:, 1:].sum(axis=0).tolist()
        return {room: c / total for room, c in enumerate(ticks, start=1)}


def _simulate(ctx: _SimContext, seeds, out: TrialArrays | VisitCounts) -> None:
    """Run one trial per seed in lockstep, handing each tick to ``out.record``.

    ``record(k, x, y, mode, region, m, passed)`` gets the state of every
    trial after tick k, plus the room whose trigger window each trial
    crawled over during the tick (0 for none).

    Trial b reads its uniforms from row b of ``draws`` at cursor ``cur[b]``;
    a tick consumes at most 3 of them, so refilling every ``_BLOCK`` ticks
    (unread tail shifted to the front, the rest drawn anew from the trial's
    own generator) never lets a cursor run off its row.
    """
    n, duration = len(seeds), out.duration
    if n == 0:
        return
    rngs = [np.random.default_rng(seed) for seed in seeds]
    width = 3 * _BLOCK + 1  # + the release heading coin
    draws = np.empty((n, width))
    for rng, row in zip(rngs, draws):
        rng.random(out=row)
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
    out.record(0, x, y, mode, region, m, np.zeros(n, dtype=np.intp))

    for k in range(1, duration):
        if k > 1 and (k - 1) % _BLOCK == 0:
            for rng, row, used in zip(rngs, draws, cur.tolist()):
                row[:width - used] = row[used:]
                rng.random(out=row[width - used:])
            cur[:] = 0

        # (1) move: corridor crawl reflects at the ends; other moving
        # modes take a waypoint step clipped to their region's box
        corridor = region == 0
        crawl = (mode == 1) & corridor
        xc = x + ctx.v_c * hx
        hx = np.where(crawl & (xc <= 0.0), 1.0,
                      np.where(crawl & (xc >= ctx.L), -1.0, hx))
        x = np.where(crawl, np.minimum(np.maximum(xc, 0.0), ctx.L), x)
        walk = np.flatnonzero((mode != 0) & ~crawl)
        if walk.size:
            ang = (draws[walk, cur[walk]] * _TWO_PI).tolist()
            cur[walk] += 1
            box = region[walk]
            nx = x[walk] + ctx.v_e * np.fromiter(map(math.cos, ang), float, walk.size)
            ny = y[walk] + ctx.v_e * np.fromiter(map(math.sin, ang), float, walk.size)
            x[walk] = np.minimum(np.maximum(nx, ctx.xlo[box]), ctx.xhi[box])
            y[walk] = np.minimum(np.maximum(ny, ctx.ylo[box]), ctx.yhi[box])

        # (2) sense
        m = _contact(ctx, x, y, region)

        # (3) entry trigger while crawling over an opening window; at
        # q_scale = 0 every trigger is 0.0, so the window passes are still
        # counted and nothing else changes
        w = np.minimum(np.searchsorted(ctx.win_hi, x), ctx.win_hi.size - 1)
        over = crawl & (ctx.win_lo[w] <= x) & (x <= ctx.win_hi[w])
        q = np.where(over, ctx.win_q[w], 0.0)
        passed = np.where(over, ctx.win_room[w], 0)

        # (4) one automaton transition
        new_mode, t = sample_transitions(mode, t, m, q, ctx.tau_s, ctx.tau_a,
                                         draws[trials, cur])
        cur += 1

        # (5) teleports through the opening
        if ctx.any_q:
            enter = np.flatnonzero(over & (new_mode == 2))
            if enter.size:
                room = passed[enter]
                region[enter] = room
                x[enter] = ctx.cx[room]
                y[enter] = ctx.entry_y
                m[enter] = ctx.entry_m[room]
        leave = np.flatnonzero(~corridor & (mode == 2) & (new_mode == 1))
        if leave.size:
            room = region[leave]
            x[leave] = ctx.cx[room]
            y[leave] = ctx.cor_mid
            m[leave] = ctx.exit_m[room]
            region[leave] = 0
            hx[leave] = np.where(draws[leave, cur[leave]] < 0.5, -1.0, 1.0)
            cur[leave] += 1
        mode = new_mode
        out.record(k, x, y, mode, region, m, passed)


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


def _labels(codes: np.ndarray, label) -> list[str]:
    """``label(code)`` per element, calling ``label`` once per distinct code."""
    codes = codes.tolist()
    table = {code: label(code) for code in set(codes)}
    return [table[code] for code in codes]


_CSV_HEADER = "trial_id,tick,x_mm,y_mm,mode,region"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``trial_id,tick,x_mm,y_mm,mode,region`` rows, floats at 3 decimals.

    The whole file is one ``%`` format over the columns as Python lists,
    which gives the same bytes as formatting each numpy element on its own.
    """
    n = traj.n_ticks
    fields = [None] * (5 * n)
    fields[0::5] = range(n)
    fields[1::5] = traj.xs.tolist()
    fields[2::5] = traj.ys.tolist()
    fields[3::5] = _labels(traj.modes, mode_label)
    fields[4::5] = _labels(traj.regions, region_label)
    row = f"{traj.trial_id},%d,%.3f,%.3f,%s,%s\n"
    Path(path).write_text(f"{_CSV_HEADER}\n" + (row * n) % tuple(fields),
                          newline="\n")


_MODE_CODES = {"STILL": 0, "CRAWL": 1, "EXPLORE": 2, "UNKNOWN": MODE_UNKNOWN}


def _region(label: str, env: EnvironmentTemplate | None) -> int:
    """The code of a region label; ``ValueError`` if the writer could not
    have written it for ``env``."""
    try:
        code = region_code(label)
    except GeometryError:
        raise ValueError(f"bad region {label!r}") from None
    if env is not None and code > env.n_rooms:
        raise ValueError(f"region {label!r}, but the template has {env.n_rooms} rooms")
    return code


def _first_mismatch(values, expected) -> int | None:
    """Index of the first position where two lists (or two tuples) differ, or
    None if they are equal.  When one is a prefix of the other, the first
    missing element counts.
    """
    if values == expected:
        return None
    return next((i for i, (a, b) in enumerate(zip(values, expected)) if a != b),
                min(len(values), len(expected)))


@functools.lru_cache(maxsize=1)
def _tick_labels(n: int) -> tuple[str, ...]:
    """The tick column of an ``n``-row file; a run's files share their length."""
    return tuple(map(str, range(n)))


def _floats(column: list[str]) -> tuple[list[float], ValueError | None]:
    """``float()`` of each string; at a bad one, the values before it and its error.

    ``extend`` keeps what it appended before the conversion raised, so the
    bad string's index is the length of the values returned with its error.
    """
    values: list[float] = []
    try:
        values.extend(map(float, column))
    except ValueError as exc:
        return values, exc
    return values, None


def read_trajectory_csv(path, env: EnvironmentTemplate | None = None) -> Trajectory:
    """Load a trajectory CSV; contact bits are not serialized and read as 0.

    Ticks must run 0, 1, 2, ... and every row must carry line 2's trial id.
    Regions must be labels :func:`~leechsim.geometry.region_label` writes,
    and with a template given, rooms it has.

    The data lines are parsed by column.  A bad file is reported at its
    earliest bad line, with the first failing check of that line in the
    order field count, trial id, tick, x/y, mode, region; a non-finite
    coordinate is checked last, over the whole file.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise TrajectoryFormatError(f"{path}:1: bad or missing header")
    if len(lines) < 2:
        raise TrajectoryFormatError(f"{path}:1: no data rows")
    first_id = lines[1].split(",", 1)[0]
    try:
        trial_id = int(first_id)
    except ValueError as exc:
        raise TrajectoryFormatError(f"{path}:2: {exc}") from None
    # Every line ends in a "\n" field, which no line from splitlines holds, so
    # field 7k + 6 is that separator exactly when lines 0..k have 6 fields each.
    n = len(lines) - 1
    fields = (",\n,".join(lines[1:]) + ",\n").split(",")
    del lines  # free the line strings before the columns are converted
    # each check reads only the rows before the earliest bad row found so far
    rows, error = n, None
    bad = _first_mismatch(fields[6::7], ["\n"] * n)
    if bad is not None:
        rows, error = bad, "expected 6 fields"
    ids = fields[0:7 * rows:7]
    bad = _first_mismatch(ids, [first_id] * rows)
    if bad is not None:
        rows, error = bad, f"trial id {ids[bad]!r} differs from line 2's {first_id!r}"
    ticks = tuple(fields[1:7 * rows:7])
    bad = _first_mismatch(ticks, _tick_labels(rows))
    if bad is not None:
        rows, error = bad, f"tick {ticks[bad]!r}, expected {bad}"
    xs, exc = _floats(fields[2:7 * rows:7])
    if exc is not None:
        rows, error = len(xs), str(exc)
    ys, exc = _floats(fields[3:7 * rows:7])
    if exc is not None:
        rows, error = len(ys), str(exc)
    modes = fields[4:7 * rows:7]
    mode_codes = list(map(_MODE_CODES.get, modes))
    if None in mode_codes:
        bad = mode_codes.index(None)
        rows, error = bad, f"bad mode {modes[bad]!r}"
    labels = fields[5:7 * rows:7]
    region_codes = {}
    # the last per-line check, over rows before any earlier failure: its
    # first bad label, in first-seen order, is the earliest bad line
    for label in dict.fromkeys(labels):
        try:
            region_codes[label] = _region(label, env)
        except ValueError as exc:
            raise TrajectoryFormatError(
                f"{path}:{labels.index(label) + 2}: {exc}") from None
    if error is not None:
        raise TrajectoryFormatError(f"{path}:{rows + 2}: {error}")
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        row = int(np.argmin(finite))
        raise TrajectoryFormatError(
            f"{path}:{row + 2}: non-finite coordinate ({xs[row]}, {ys[row]})")
    return Trajectory(
        env=env,
        trial_id=trial_id,
        seed=0,
        xs=xs,
        ys=ys,
        modes=np.array(mode_codes, dtype=np.uint8),
        regions=np.array(list(map(region_codes.__getitem__, labels)), dtype=np.int16),
        ms=np.zeros(n, dtype=np.uint8),
    )
