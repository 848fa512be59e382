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
