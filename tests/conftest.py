import math

import numpy as np
import pytest

from leechsim.automaton import AutomatonParams
from leechsim.geometry import GeometryError, build_corridor_template
from leechsim.locomotion import MotionParams, Trajectory


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
