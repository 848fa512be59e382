import contextlib
import io
import math
import os
import reprlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import leechsim.montecarlo as montecarlo
from leechsim.automaton import (AutomatonParams, Mode, next_modes, next_timers,
                                transition_thresholds)
from leechsim.cli import main
from leechsim.geometry import (GeometryError, build_corridor_template, region_code,
                               region_label)
from leechsim.locomotion import (
    _CSV_HEADER,
    _MODE_CODES,
    MotionParams,
    Trajectory,
    TrajectoryFormatError,
    mode_label,
)
from leechsim.trackio import _LEECH_COLOR, _WALL_GRAY, Frame, TrackError, _Projection

# Each property draws the same examples on every run, seeded from the test,
# so whether a rare failing example turns up does not depend on the run.
# Properties still choose their own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def env():
    return build_corridor_template()


@pytest.fixture(scope="session")
def auto():
    return AutomatonParams()


@pytest.fixture(scope="session")
def motion():
    return MotionParams()


def make_trajectory(env, regions, modes=None, trial_id=0):
    """Synthetic trajectory with the given per-tick region codes."""
    n = len(regions)
    regions = np.asarray(regions, dtype=np.int16)
    if modes is None:
        modes = np.ones(n, dtype=np.uint8)
    return Trajectory(
        env=env,
        trial_id=trial_id,
        seed=0,
        xs=np.zeros(n),
        ys=np.zeros(n),
        modes=np.asarray(modes, dtype=np.uint8),
        regions=regions,
        ms=np.zeros(n, dtype=np.uint8),
    )


# --- the scalar automaton spec: the oracle for the kernel's array sampler ----


def pin_cpus(monkeypatch, n):
    """Make the CLI see ``n`` CPUs; returns the slice counts it then runs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    slices, fill = [], montecarlo._fill

    def counted_fill(out, rows, workers, per_slice, body):
        slices.append(min(workers, rows))
        return fill(out, rows, workers, per_slice, body)

    monkeypatch.setattr(montecarlo, "_fill", counted_fill)
    return slices


def main_peak_bytes(argv):
    """tracemalloc's peak over one ``main(argv)`` call."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def p_still_exit(t: int, params: AutomatonParams) -> float:
    """Per-tick hazard of leaving Still: 1/(tau_s - t + 1), reaching 1 at the cap."""
    if not 0 <= t <= params.tau_s:
        raise ValueError(f"still timer {t} outside [0, {params.tau_s}]")
    return 1.0 / (params.tau_s - t + 1)


def p_active_exit(t: int, params: AutomatonParams) -> float:
    """Per-tick hazard of leaving the active (crawl/explore) phase."""
    if not 0 <= t <= params.tau_a:
        raise ValueError(f"active timer {t} outside [0, {params.tau_a}]")
    return 1.0 / (params.tau_a - t + 1)


def transition_kernel(mode: Mode, t: int, m: int, params: AutomatonParams,
                      q_enter: float) -> tuple[float, float, float]:
    """Probability vector over (Still, Crawl, Explore) for the next tick,
    one row at a time: the scalar form of ``transition_thresholds``.

    ``t`` is the timer of the current phase, the ticks since the last
    still/active boundary crossing.  Rows (each sums to 1):

    * Still:   stay with 1-p1, otherwise split evenly between Crawl and Explore.
    * Crawl:   exit to Still with p2; conditional on staying active, contact
      (m=1) forces Explore, otherwise Explore fires with probability q_enter
      and Crawl continues with 1-q_enter.
    * Explore: exit to Still with p2; conditional on staying active, Explore
      persists while in contact and reverts to Crawl when contact is lost.
    """
    if m not in (0, 1):
        raise ValueError(f"mechanoreceptor bit must be 0 or 1, got {m}")
    if not 0.0 <= q_enter <= 1.0:
        raise ValueError(f"q_enter {q_enter} outside [0, 1]")
    if mode == Mode.STILL:
        p1 = p_still_exit(t, params)
        return (1.0 - p1, 0.5 * p1, 0.5 * p1)
    p2 = p_active_exit(t, params)
    if mode == Mode.CRAWL:
        p_explore = (1.0 - p2) * (m + (1 - m) * q_enter)
        p_crawl = (1.0 - p2) * (1 - m) * (1.0 - q_enter)
        return (p2, p_crawl, p_explore)
    return (p2, (1.0 - p2) * (1 - m), (1.0 - p2) * m)


def sample_transitions(mode, t, m, q_enter, tau_s: int, tau_a: int, u):
    """One automaton step per element given uniform draws ``u``: the
    kernel's ``next_modes`` and ``next_timers`` over its
    ``transition_thresholds``, which take the arguments of the same names.
    Returns the new (mode, t) arrays.
    """
    new_mode = next_modes(u, *transition_thresholds(mode, t, m, q_enter, tau_s, tau_a))
    return new_mode, next_timers(mode, t, new_mode)


def chi_square(observed, expected) -> float:
    """Pearson statistic sum (O_i - N p_i)^2 / (N p_i) for count data."""
    obs = [float(o) for o in observed]
    exp = [float(p) for p in expected]
    if len(obs) != len(exp):
        raise ValueError("observed and expected lengths differ")
    n = sum(obs)
    if n <= 0:
        raise ValueError("observed counts sum to zero")
    for p in exp:
        if p <= 0:
            raise ValueError("expected probabilities must be > 0")
    if abs(sum(exp) - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities sum to {sum(exp)}, not 1")
    return sum((o - n * p) ** 2 / (n * p) for o, p in zip(obs, exp))


def wall_distance(env, p):
    """Distance from an interior point to the nearest wall surface.

    The independent oracle for the kernel's contact model: a scan over the
    outer boundary and every wall block of the template, with no knowledge
    of the corridor layout.
    """
    x, y = p
    d = min(x, env.interior_width - x, y, env.interior_height - y)
    for x0, y0, x1, y1 in env.wall_rects:
        dx = max(x0 - x, 0.0, x - x1)
        dy = max(y0 - y, 0.0, y - y1)
        d = min(d, math.hypot(dx, dy))
    return d


def wall_contact(env, p, radius=1.0):
    """1 iff any wall surface lies within ``radius`` of ``p``; opening gaps
    are not wall surface."""
    x, y = p
    if not (0.0 <= x <= env.interior_width and 0.0 <= y <= env.interior_height):
        raise GeometryError(f"point {p} outside interior")
    return 1 if wall_distance(env, p) <= radius else 0


def recount_passes(env, motion, trajs):
    """Window passes per (trial, room) recounted offline from trajectories.

    The independent oracle for the kernel's pass counter: tick k passes
    room r's trigger window (its opening widened by half the contact radius
    on each side) when the trial crawled in the corridor at tick k - 1 and
    its x after tick k lies in that window.  A trial that entered room r at
    tick k sits at the opening's center, which is inside r's window too.
    Column 0 is left 0.
    """
    half = 0.5 * motion.contact_radius
    passes = np.zeros((len(trajs), env.n_rooms + 1), dtype=int)
    for i, traj in enumerate(trajs):
        crawled = (traj.modes[:-1] == 1) & (traj.regions[:-1] == 0)
        x = traj.xs[1:]
        for room in range(1, env.n_rooms + 1):
            lo, hi = env.opening_for_room(room).span
            passes[i, room] = int((crawled & (lo - half <= x) & (x <= hi + half)).sum())
    return passes


def _short_error(exc, text):
    """A conversion error of ``text``: its cause, then ``text`` echoed short."""
    return f"{str(exc).split(': ', 1)[0]}: {reprlib.repr(text)}"


def _region_per_line(label, env, path, lineno):
    try:
        code = region_code(label)
    except GeometryError:
        raise TrajectoryFormatError(
            f"{path}:{lineno}: bad region {reprlib.repr(label)}") from None
    if env is not None and code > env.n_rooms:
        raise TrajectoryFormatError(
            f"{path}:{lineno}: region {reprlib.repr(label)}, but the template has "
            f"{env.n_rooms} rooms")
    return code


def _text_per_line(path):
    """The file decoded as UTF-8, or the error naming the line of its first
    undecodable byte: the first line that holds an escaped byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = data.decode("utf-8", "surrogateescape").splitlines()
        lineno, byte = next((lineno, ord(char) - 0xDC00)
                            for lineno, line in enumerate(lines, start=1)
                            for char in line if "\udc80" <= char <= "\udcff")
        raise TrajectoryFormatError(f"{path}:{lineno}: byte {byte:#04x} is not UTF-8 "
                                    f"({exc.reason})") from None


def read_trajectory_csv_per_line(path, env=None):
    """The trajectory CSV reader as a loop over lines, one row at a time.

    The oracle for ``read_trajectory_csv`` and its byte lane: same arrays
    for every file it accepts, same message for every file it rejects.
    """
    lines = _text_per_line(path).splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise TrajectoryFormatError(f"{path}:1: bad or missing header")
    if len(lines) < 2:
        raise TrajectoryFormatError(f"{path}:1: no data rows")
    first_id = lines[1].split(",", 1)[0]
    try:
        trial_id = int(first_id)
    except ValueError as exc:
        raise TrajectoryFormatError(f"{path}:2: {_short_error(exc, first_id)}") from None
    xs, ys, modes, regions = [], [], [], []
    region_codes = {}  # label -> code, checked once per distinct label
    for tick, line in enumerate(lines[1:]):
        lineno = tick + 2
        parts = line.split(",")
        if len(parts) != 6:
            raise TrajectoryFormatError(f"{path}:{lineno}: expected 6 fields")
        if parts[0] != first_id:
            raise TrajectoryFormatError(
                f"{path}:{lineno}: trial id {reprlib.repr(parts[0])} differs from line 2's "
                f"{reprlib.repr(first_id)}")
        if parts[1] != str(tick):
            raise TrajectoryFormatError(
                f"{path}:{lineno}: tick {reprlib.repr(parts[1])}, expected {tick}")
        for text, column in ((parts[2], xs), (parts[3], ys)):
            try:
                column.append(float(text))
            except ValueError as exc:
                raise TrajectoryFormatError(
                    f"{path}:{lineno}: {_short_error(exc, text)}") from None
        if parts[4] not in _MODE_CODES:
            raise TrajectoryFormatError(
                f"{path}:{lineno}: bad mode {reprlib.repr(parts[4])}")
        modes.append(_MODE_CODES[parts[4]])
        code = region_codes.get(parts[5])
        if code is None:
            code = region_codes[parts[5]] = _region_per_line(parts[5], env, path, lineno)
        regions.append(code)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
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
        modes=np.asarray(modes, dtype=np.uint8),
        regions=np.asarray(regions, dtype=np.int16),
        ms=np.zeros(len(xs), dtype=np.uint8),
    )


def write_trajectory_csv_per_row(traj, path):
    """The trajectory CSV writer as one ``%`` format over Python lists.

    The oracle for the byte-matrix ``write_trajectory_csv``: same bytes for
    every trajectory it writes, same exception for every one it rejects.
    """
    def labels(codes, label):  # label(code) per element, called once per code
        codes = codes.tolist()
        table = {code: label(code) for code in set(codes)}
        return [table[code] for code in codes]

    n = traj.n_ticks
    fields = [None] * (5 * n)
    fields[0::5] = range(n)
    fields[1::5] = traj.xs.tolist()
    fields[2::5] = traj.ys.tolist()
    fields[3::5] = labels(traj.modes, mode_label)
    fields[4::5] = labels(traj.regions, region_label)
    row = f"{traj.trial_id},%d,%.3f,%.3f,%s,%s\n"
    Path(path).write_text(f"{_CSV_HEADER}\n" + (row * n) % tuple(fields),
                          newline="\n")


def parse_pnm_header_per_byte(data, magic, path):
    """The PNM header parser as a loop over bytes.

    The oracle for the regex ``_parse_pnm_header``: same result and same
    message for every header, except that the oracle also reads a magic
    followed directly by a non-space byte (``P61 1 255``).
    """
    if not data.startswith(magic):
        raise TrackError(f"{path}: expected {magic.decode()} file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise TrackError(f"{path}: bad header token {token!r}")
        try:
            fields.append(int(token))
        except ValueError:
            raise TrackError(f"{path}: header token of {len(token)} digits "
                             "is too long") from None
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise TrackError(f"{path}: only maxval 255 is supported")
    return width, height, pos


def time_color_per_sample(u):
    """The scalar time color: the oracle for ``time_color`` on arrays."""
    u = min(max(u, 0.0), 1.0)
    if u <= 0.5:
        w = u / 0.5
        return (0, round(255 * w), round(255 * (1.0 - w)))
    w = (u - 0.5) / 0.5
    return (round(255 * w), round(255 * (1.0 - w)), 0)


_DISC_PER_PIXEL = [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
                   if dx * dx + dy * dy <= 4]


def _px_per_sample(proj, x, y):
    return int(round(x * proj.scale)), proj.height - 1 - int(round(y * proj.scale))


def _stamp_per_pixel(pixels, px, py, color):
    h, w = pixels.shape[:2]
    for dx, dy in _DISC_PER_PIXEL:
        x, y = px + dx, py + dy
        if 0 <= x < w and 0 <= y < h:
            pixels[y, x] = color


def _canvas(env, px_per_mm, color, fill):
    """The renderers' white canvas with its border and wall blocks in
    ``color``, filled or outlined 1 px wide."""
    proj = _Projection(env, px_per_mm)
    pixels = np.full((proj.height, proj.width, 3), 255, dtype=np.uint8)
    pixels[0, :] = pixels[-1, :] = pixels[:, 0] = pixels[:, -1] = color
    for left, bottom, right, top in env.wall_rects:
        x0, y0 = _px_per_sample(proj, left, top)
        x1, y1 = _px_per_sample(proj, right, bottom)
        if fill:
            pixels[y0:y1 + 1, x0:x1 + 1] = color
        else:
            pixels[y0, x0:x1 + 1] = pixels[y1, x0:x1 + 1] = color
            pixels[y0:y1 + 1, x0] = pixels[y0:y1 + 1, x1] = color
    return proj, Frame(proj.width, proj.height, pixels)


def render_time_overlay_per_sample(traj, env, px_per_mm):
    """The overlay renderer as a loop over samples and disc pixels: the
    oracle for ``render_time_overlay``."""
    proj, frame = _canvas(env, px_per_mm, (0, 0, 0), fill=False)
    last = traj.n_ticks - 1
    for k in range(traj.n_ticks):
        u = k / last if last else 0.0
        _stamp_per_pixel(frame.pixels, *_px_per_sample(proj, traj.xs[k], traj.ys[k]),
                         time_color_per_sample(u))
    return frame


def render_activity_map_per_sample(traj, env, px_per_mm):
    """The activity renderer as a loop over samples: the oracle for
    ``render_activity_map``."""
    proj = _Projection(env, px_per_mm)
    counts = np.zeros((proj.height, proj.width), dtype=np.int64)
    for k in range(traj.n_ticks):
        px, py = _px_per_sample(proj, traj.xs[k], traj.ys[k])
        if 0 <= px < proj.width and 0 <= py < proj.height:
            counts[py, px] += 1
    peak = counts.max()
    if peak == 0:
        return np.zeros_like(counts, dtype=np.uint8)
    return np.rint(counts * (255.0 / peak)).astype(np.uint8)


def render_frames_per_sample(traj, env, px_per_mm):
    """One frame per sample, its disc stamped pixel by pixel: the oracle for
    ``render_frames``."""
    proj, background = _canvas(env, px_per_mm, _WALL_GRAY, fill=True)
    for k in range(traj.n_ticks):
        pixels = background.pixels.copy()
        _stamp_per_pixel(pixels, *_px_per_sample(proj, traj.xs[k], traj.ys[k]),
                         _LEECH_COLOR)
        yield Frame(proj.width, proj.height, pixels)
