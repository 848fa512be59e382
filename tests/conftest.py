import math
from pathlib import Path

import numpy as np
import pytest

from leechsim.automaton import AutomatonParams
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


def _region_per_line(label, env, path, lineno):
    try:
        code = region_code(label)
    except GeometryError:
        raise TrajectoryFormatError(f"{path}:{lineno}: bad region {label!r}") from None
    if env is not None and code > env.n_rooms:
        raise TrajectoryFormatError(
            f"{path}:{lineno}: region {label!r}, but the template has "
            f"{env.n_rooms} rooms")
    return code


def read_trajectory_csv_per_line(path, env=None):
    """The trajectory CSV reader as a loop over lines, one row at a time.

    The oracle for the columnar ``read_trajectory_csv``: same arrays for
    every file it accepts, same message for every file it rejects.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise TrajectoryFormatError(f"{path}:1: bad or missing header")
    if len(lines) < 2:
        raise TrajectoryFormatError(f"{path}:1: no data rows")
    first_id = lines[1].split(",", 1)[0]
    try:
        trial_id = int(first_id)
    except ValueError as exc:
        raise TrajectoryFormatError(f"{path}:2: {exc}") from None
    xs, ys, modes, regions = [], [], [], []
    region_codes = {}  # label -> code, checked once per distinct label
    for tick, line in enumerate(lines[1:]):
        lineno = tick + 2
        parts = line.split(",")
        if len(parts) != 6:
            raise TrajectoryFormatError(f"{path}:{lineno}: expected 6 fields")
        if parts[0] != first_id:
            raise TrajectoryFormatError(
                f"{path}:{lineno}: trial id {parts[0]!r} differs from line 2's "
                f"{first_id!r}")
        if parts[1] != str(tick):
            raise TrajectoryFormatError(
                f"{path}:{lineno}: tick {parts[1]!r}, expected {tick}")
        try:
            xs.append(float(parts[2]))
            ys.append(float(parts[3]))
        except ValueError as exc:
            raise TrajectoryFormatError(f"{path}:{lineno}: {exc}") from None
        if parts[4] not in _MODE_CODES:
            raise TrajectoryFormatError(f"{path}:{lineno}: bad mode {parts[4]!r}")
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
