"""Offline frame analysis and trajectory rendering.

Mirrors the video pipeline the simulator is checked against: dark-pixel
extraction at an RGB threshold, centroid tracking frame by frame, overlay
images colored by normalized time (blue through green to red) and grayscale
dwell-time activity maps.  Images move through binary PPM (P6) and PGM (P5)
files so byte-exact round trips need no image library.

Pixel row 0 is the top of the image; template coordinates have y up, so the
projection flips y.  Trackers undo the flip using the frame height.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .geometry import UNKNOWN, EnvironmentTemplate, GeometryError, locate
from .locomotion import MODE_UNKNOWN, Trajectory, _shared_arrays
from .montecarlo import _LazySequence, _fill_rows


class TrackError(ValueError):
    """Raised for unusable frame input."""


@dataclass(frozen=True, eq=False)
class Frame:
    """RGB raster, shape (height, width, 3) uint8 row-major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.shape != (self.height, self.width, 3):
            raise TrackError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )
        if self.pixels.dtype != np.uint8:
            raise TrackError(f"pixels must be uint8, got {self.pixels.dtype}")


def blank_frame(width: int, height: int, color=(255, 255, 255)) -> Frame:
    return Frame(width, height, np.full((height, width, 3), color, dtype=np.uint8))


def _dark_centroid(frame: Frame, threshold: int) -> tuple[float, float] | None:
    """Mean (x, y) of the dark pixels, or None when there are none.

    A pixel is dark only when max(R, G, B) < threshold, the strictest
    reading of an RGB darkness cut.  The frame is scanned once for its dark
    channel bytes; in that sorted index list, pixel p is dark exactly when
    byte 3p is followed two entries later by byte 3p + 2.  The coordinate
    sums are exact integers, so the result equals the mean of the coordinate
    list bit for bit.
    """
    if not 1 <= threshold <= 255:
        raise TrackError(f"threshold {threshold} outside [1, 255]")
    idx = np.flatnonzero(frame.pixels.reshape(-1) < threshold)
    head = idx[:-2]
    p = head[(head % 3 == 0) & (idx[2:] - head == 2)] // 3
    n = p.size
    if n == 0:
        return None
    y, x = np.divmod(p, frame.width)
    return int(x.sum()) / n, int(y.sum()) / n


def time_color(u):
    """Normalized time to RGB: blue at 0, green at 0.5, red at 1; u is clamped.

    A number gives an int tuple; an array of them gives a (..., 3) uint8
    array.  Channels round half to even, as ``round`` does.
    """
    u = np.clip(u, 0.0, 1.0)
    late = u > 0.5
    w = np.where(late, u - 0.5, u) / 0.5
    rise, fall = np.rint(255 * w), np.rint(255 * (1.0 - w))
    rgb = np.stack([np.where(late, rise, 0), np.where(late, fall, rise),
                    np.where(late, 0, fall)], axis=-1).astype(np.uint8)
    return rgb if rgb.ndim > 1 else tuple(rgb.tolist())


class _Projection:
    """mm-to-pixel mapping shared by the renderers and trackers."""

    def __init__(self, env: EnvironmentTemplate, px_per_mm: float):
        if not (math.isfinite(px_per_mm) and px_per_mm > 0):
            raise TrackError(f"px_per_mm must be finite and > 0, got {px_per_mm}")
        self.scale = px_per_mm
        self.width = int(round(env.interior_width * px_per_mm)) + 1
        self.height = int(round(env.interior_height * px_per_mm)) + 1

    def to_px(self, x, y):
        """Pixel columns and rows of template points, rounded half to even.

        Points far off the canvas clip to 3 px outside it, past the reach of
        a disc, so that any finite coordinate casts to an off-canvas pixel.
        """
        with np.errstate(over="ignore"):  # a product past the float range clips too
            col = np.clip(np.rint(x * self.scale), -3, self.width + 2)
            row = np.clip(np.rint(y * self.scale), -3, self.height + 2)
        return col.astype(np.int64), self.height - 1 - row.astype(np.int64)

    @contextmanager
    def allocating(self):
        """Turn a failed canvas allocation into a TrackError naming the canvas."""
        try:
            yield
        except MemoryError:
            raise TrackError(f"a {self.width}x{self.height} px canvas "
                             f"({self.scale:g} px/mm) is too large to allocate") from None

    def stamps(self, traj: Trajectory, disc: np.ndarray):
        """Flat canvas index of every on-canvas pixel of every sample's disc,
        in sample order, and the sample each pixel belongs to."""
        px, py = self.to_px(traj.xs, traj.ys)
        x = px[:, None] + disc[:, 0]
        y = py[:, None] + disc[:, 1]
        on = (0 <= x) & (x < self.width) & (0 <= y) & (y < self.height)
        return y[on] * self.width + x[on], np.nonzero(on)[0]


_DISC = np.argwhere((np.mgrid[-2:3, -2:3] ** 2).sum(axis=0) <= 4) - 2  # radius 2 px


def _draw_walls(pixels: np.ndarray, env: EnvironmentTemplate, proj: _Projection,
                color, fill: bool) -> None:
    pixels[[0, -1], :] = color
    pixels[:, [0, -1]] = color
    for rect in env.wall_rects:
        x0, y0 = proj.to_px(rect[0], rect[3])
        x1, y1 = proj.to_px(rect[2], rect[1])
        if fill:
            pixels[y0:y1 + 1, x0:x1 + 1] = color
        else:
            pixels[[y0, y1], x0:x1 + 1] = color
            pixels[y0:y1 + 1, [x0, x1]] = color


def render_time_overlay(traj: Trajectory, env: EnvironmentTemplate,
                        px_per_mm: float = 4.0) -> Frame:
    """All samples on one white canvas, colored by normalized time.

    Walls are drawn as 1 px black outlines; each sample is a filled disc of
    radius 2 px and later samples overdraw earlier ones: each pixel takes
    the color of the latest sample whose disc covers it.
    """
    if traj.n_ticks == 0:
        raise TrackError("empty trajectory")
    proj = _Projection(env, px_per_mm)
    with proj.allocating():
        frame = blank_frame(proj.width, proj.height)
        _draw_walls(frame.pixels, env, proj, (0, 0, 0), fill=False)
        index, sample = proj.stamps(traj, _DISC)
        latest = np.full(proj.width * proj.height, -1)
        np.maximum.at(latest, index, sample)  # assignment to repeated indices has no order
        hit = np.flatnonzero(latest >= 0)
        frame.pixels.reshape(-1, 3)[hit] = time_color(latest[hit] / max(traj.n_ticks - 1, 1))
    return frame


def render_activity_map(traj: Trajectory, env: EnvironmentTemplate,
                        px_per_mm: float = 4.0) -> np.ndarray:
    """Grayscale dwell map: 0 where never visited, 255 at the maximum dwell.

    Each sample increments the count of its center pixel; counts map linearly
    to intensity, so the histogram is recoverable up to the quantization.
    """
    if traj.n_ticks == 0:
        raise TrackError("empty trajectory")
    proj = _Projection(env, px_per_mm)
    with proj.allocating():
        index, _ = proj.stamps(traj, np.zeros((1, 2), dtype=np.int64))
        counts = np.bincount(index, minlength=proj.width * proj.height)
        gray = np.rint(counts * (255.0 / max(counts.max(), 1))).astype(np.uint8)
    return gray.reshape(proj.height, proj.width)


_LEECH_COLOR = (20, 20, 20)
_WALL_GRAY = (200, 200, 200)  # visible but above any sane darkness threshold


def render_frames(traj: Trajectory, env: EnvironmentTemplate,
                  px_per_mm: float = 4.0) -> _LazySequence:
    """One synthetic frame per sample, rendered when it is accessed: gray
    template, dark leech blob.

    Walls are drawn light gray so dark-pixel extraction sees only the leech;
    this is the forward model for the tracking round trip.
    """
    proj = _Projection(env, px_per_mm)
    background = blank_frame(proj.width, proj.height)
    _draw_walls(background.pixels, env, proj, _WALL_GRAY, fill=True)
    index, sample = proj.stamps(traj, _DISC)
    ends = np.searchsorted(sample, np.arange(traj.n_ticks + 1))

    def frame(k: int) -> Frame:
        pixels = background.pixels.copy()
        pixels.reshape(-1, 3)[index[ends[k]:ends[k + 1]]] = _LEECH_COLOR
        return Frame(proj.width, proj.height, pixels)

    return _LazySequence(frame, range(traj.n_ticks))


def _position(frame: Frame, threshold: int, mm_per_px: float) -> tuple[float, float] | None:
    """The dark-pixel centroid in template mm, y flipped, rounded to 3
    decimals; None when the frame has no dark pixels."""
    centroid = _dark_centroid(frame, threshold)
    if centroid is None:
        return None
    cx, cy = centroid
    return round(cx * mm_per_px, 3), round((frame.height - 1 - cy) * mm_per_px, 3)


def _track_frame(size: tuple[int, int], threshold: int, mm_per_px: float,
                 out: dict[str, np.ndarray], s: int, row: int, frame: Frame) -> None:
    """:func:`_fill_rows`' ``each`` for the frames after the first: row i
    is frame i + 1, whose position goes in row i + 1 of ``out``'s arrays."""
    if (frame.width, frame.height) != size:
        raise TrackError(
            f"frame {row + 1} is {frame.width}x{frame.height}, "
            f"expected {size[0]}x{size[1]}"
        )
    position = _position(frame, threshold, mm_per_px)
    if position is not None:
        out["xy"][row + 1], out["found"][row + 1] = position, True


def frames_to_trajectory(
    frames: Sequence[Frame],
    threshold: int = 40,
    mm_per_px: float = 0.25,
    env: EnvironmentTemplate | None = None,
    workers: int = 1,
) -> Trajectory:
    """Centroid-track a frame sequence into a trajectory.

    ``frames`` supports ``len``, ``frames[i]`` and ``frames[lo:hi]``: a
    list, or what :func:`read_frame_dir` and :func:`render_frames` return,
    which make one frame at a time.  Per frame, the dark-pixel centroid
    (scaled by ``mm_per_px``, y flipped to template coordinates, rounded to
    3 decimals) becomes that tick's position.  Frames with no dark pixels
    carry the previous position forward; an empty first frame is an error.
    Mode is UNKNOWN throughout; the region column is filled via locate when
    an environment is given.

    The first frame, which fixes the frame size, is read here; the others
    are centroided by :func:`_fill_rows` on ``min(workers, len(frames) - 1)``
    processes, and the first fault in frame order is raised.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = len(frames)
    if not n:
        raise TrackError("no frames supplied")
    # per frame, its position and whether it had dark pixels, filled in place
    # by forked slices
    out = _shared_arrays({"xy": ((n, 2), np.float64), "found": ((n,), np.bool_)})
    first = frames[0]
    size, position = (first.width, first.height), _position(first, threshold, mm_per_px)
    del first  # so that a process holds one frame at a time
    if position is None:
        raise TrackError("no dark pixels in the first frame")
    out["xy"][0], out["found"][0] = position, True
    _fill_rows(out, frames[1:], workers,
               partial(_track_frame, size, threshold, mm_per_px))
    # each frame takes the position of the last frame up to it that had one
    last = np.maximum.accumulate(np.where(out["found"], np.arange(n), 0))
    xs, ys = out["xy"][last, 0], out["xy"][last, 1]
    regions = [_located_region(env, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    return Trajectory(
        env=env,
        trial_id=0,
        xs=xs,
        ys=ys,
        modes=np.full(n, MODE_UNKNOWN, dtype=np.uint8),
        regions=np.asarray(regions, dtype=np.int16),
        ms=np.zeros(n, dtype=np.uint8),
    )


def _located_region(env, x: float, y: float) -> int:
    if env is None:
        return UNKNOWN
    try:
        return locate(env, (x, y))
    except GeometryError:
        return UNKNOWN


def write_ppm(path, frame: Frame) -> None:
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise TrackError("grayscale image must be a 2-D uint8 array")
    h, w = gray.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + gray.tobytes())


# The magic, which whitespace or a comment must follow, then width, height
# and maxval: each a run of non-space bytes after any whitespace and
# comments.  A comment runs from '#' to the end of its line.
_PNM_HEADER = re.compile(rb"(P\d)(?![^\s#])" + rb"(?:\s|#[^\n]*)*(\S*)" * 3)


def _parse_pnm_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    """Width, height and the offset of the pixel data: one whitespace byte
    past maxval, which must be 255."""
    match = _PNM_HEADER.match(data)
    if match is None or match[1] != magic:
        raise TrackError(f"{path}: expected {magic.decode()} file")
    fields = []
    for token in match.groups()[1:]:
        if not token.isdigit():
            raise TrackError(f"{path}: bad header token {token!r}")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts
            raise TrackError(f"{path}: header token of {len(token)} digits "
                             "is too long") from None
    width, height, maxval = fields
    if maxval != 255:
        raise TrackError(f"{path}: only maxval 255 is supported")
    return width, height, match.end() + 1


def read_ppm(path) -> Frame:
    """The frame of a binary PPM (P6) file, as a read-only view of its bytes."""
    data = Path(path).read_bytes()
    width, height, pos = _parse_pnm_header(data, b"P6", path)
    expected = width * height * 3
    if len(data) - pos < expected:
        raise TrackError(f"{path}: truncated pixel data")
    try:
        pixels = np.frombuffer(data, np.uint8, expected, pos).reshape(height, width, 3)
    except ValueError as exc:  # a dimension past numpy's, in an empty image
        raise TrackError(f"{path}: {exc}") from None
    return Frame(width, height, pixels)


_FRAME_NAME = re.compile(r"frame_[0-9]{6}\.ppm")


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.ppm"


def read_frame_dir(path) -> _LazySequence:
    """The frames of the ``frame_%06d.ppm`` files (six ASCII digits) in
    index order, each read when it is accessed.  The files must be numbered
    0, 1, 2, ... without a gap, which is checked here."""
    directory = Path(path)
    names = sorted(filter(_FRAME_NAME.fullmatch, os.listdir(directory)))
    if not names:
        raise TrackError(f"no frame_%06d.ppm files in {directory}")
    # n distinct fixed-width names, sorted, end at frame n - 1 only without a gap
    if names[-1] != frame_filename(len(names) - 1):
        i = next(i for i, name in enumerate(names) if name != frame_filename(i))
        raise TrackError(f"{directory / frame_filename(i)}: missing frame; "
                         "frames are numbered from 0 without a gap")
    return _LazySequence(lambda name: read_ppm(directory / name), names)
