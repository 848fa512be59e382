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
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import UNKNOWN, EnvironmentTemplate, GeometryError, locate
from .locomotion import MODE_UNKNOWN, Trajectory


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
    pixels = np.empty((height, width, 3), dtype=np.uint8)
    pixels[:, :] = color
    return Frame(width, height, pixels)


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


def time_color(u: float) -> tuple[int, int, int]:
    """Normalized time to RGB: blue at 0, green at 0.5, red at 1; u is clamped."""
    u = min(max(u, 0.0), 1.0)
    if u <= 0.5:
        w = u / 0.5
        return (0, round(255 * w), round(255 * (1.0 - w)))
    w = (u - 0.5) / 0.5
    return (round(255 * w), round(255 * (1.0 - w)), 0)


class _Projection:
    """mm-to-pixel mapping shared by the renderers and trackers."""

    def __init__(self, env: EnvironmentTemplate, px_per_mm: float):
        if not (math.isfinite(px_per_mm) and px_per_mm > 0):
            raise TrackError(f"px_per_mm must be finite and > 0, got {px_per_mm}")
        self.scale = px_per_mm
        self.width = int(round(env.interior_width * px_per_mm)) + 1
        self.height = int(round(env.interior_height * px_per_mm)) + 1

    def to_px(self, x: float, y: float) -> tuple[int, int]:
        return (int(round(x * self.scale)),
                self.height - 1 - int(round(y * self.scale)))

    def rect_to_px(self, rect) -> tuple[int, int, int, int]:
        x0, y0 = self.to_px(rect[0], rect[3])
        x1, y1 = self.to_px(rect[2], rect[1])
        return x0, y0, x1, y1


def _disc_offsets(radius: int) -> list[tuple[int, int]]:
    return [
        (dx, dy)
        for dx in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        if dx * dx + dy * dy <= radius * radius
    ]


def _stamp_disc(pixels: np.ndarray, px: int, py: int, offsets, color) -> None:
    h, w = pixels.shape[:2]
    for dx, dy in offsets:
        x, y = px + dx, py + dy
        if 0 <= x < w and 0 <= y < h:
            pixels[y, x] = color


def _draw_walls(pixels: np.ndarray, env: EnvironmentTemplate, proj: _Projection,
                color, fill: bool) -> None:
    h, w = pixels.shape[:2]
    pixels[0, :] = color
    pixels[h - 1, :] = color
    pixels[:, 0] = color
    pixels[:, w - 1] = color
    for rect in env.wall_rects:
        x0, y0, x1, y1 = proj.rect_to_px(rect)
        if fill:
            pixels[y0:y1 + 1, x0:x1 + 1] = color
        else:
            pixels[y0, x0:x1 + 1] = color
            pixels[y1, x0:x1 + 1] = color
            pixels[y0:y1 + 1, x0] = color
            pixels[y0:y1 + 1, x1] = color


def render_time_overlay(traj: Trajectory, env: EnvironmentTemplate,
                        px_per_mm: float = 4.0) -> Frame:
    """All samples on one white canvas, colored by normalized time.

    Walls are drawn as 1 px black outlines; each sample is a filled disc of
    radius 2 px and later samples overdraw earlier ones.
    """
    if traj.n_ticks == 0:
        raise TrackError("empty trajectory")
    proj = _Projection(env, px_per_mm)
    frame = blank_frame(proj.width, proj.height)
    _draw_walls(frame.pixels, env, proj, (0, 0, 0), fill=False)
    offsets = _disc_offsets(2)
    last = traj.n_ticks - 1
    for k in range(traj.n_ticks):
        u = k / last if last else 0.0
        px, py = proj.to_px(traj.xs[k], traj.ys[k])
        _stamp_disc(frame.pixels, px, py, offsets, time_color(u))
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
    counts = np.zeros((proj.height, proj.width), dtype=np.int64)
    for k in range(traj.n_ticks):
        px, py = proj.to_px(traj.xs[k], traj.ys[k])
        if 0 <= px < proj.width and 0 <= py < proj.height:
            counts[py, px] += 1
    peak = counts.max()
    if peak == 0:
        return np.zeros_like(counts, dtype=np.uint8)
    return np.rint(counts * (255.0 / peak)).astype(np.uint8)


_LEECH_COLOR = (20, 20, 20)
_LEECH_RADIUS_PX = 2
_WALL_GRAY = (200, 200, 200)  # visible but above any sane darkness threshold


def render_frames(traj: Trajectory, env: EnvironmentTemplate,
                  px_per_mm: float = 4.0):
    """Yield one synthetic frame per sample: gray template, dark leech blob.

    Walls are drawn light gray so dark-pixel extraction sees only the leech;
    this is the forward model for the tracking round trip.
    """
    proj = _Projection(env, px_per_mm)
    offsets = _disc_offsets(_LEECH_RADIUS_PX)
    background = blank_frame(proj.width, proj.height)
    _draw_walls(background.pixels, env, proj, _WALL_GRAY, fill=True)
    for k in range(traj.n_ticks):
        pixels = background.pixels.copy()
        px, py = proj.to_px(traj.xs[k], traj.ys[k])
        _stamp_disc(pixels, px, py, offsets, _LEECH_COLOR)
        yield Frame(proj.width, proj.height, pixels)


def frames_to_trajectory(
    frames,
    threshold: int = 40,
    mm_per_px: float = 0.25,
    env: EnvironmentTemplate | None = None,
) -> Trajectory:
    """Centroid-track a frame sequence into a trajectory.

    Per frame, the dark-pixel centroid (scaled by ``mm_per_px``, y flipped to
    template coordinates, rounded to 3 decimals) becomes that tick's
    position.  Frames with no dark pixels carry the previous position
    forward; an empty first frame is an error.  Mode is UNKNOWN throughout;
    the region column is filled via locate when an environment is given.
    """
    xs: list[float] = []
    ys: list[float] = []
    regions: list[int] = []
    size: tuple[int, int] | None = None
    prev: tuple[float, float] | None = None
    for index, frame in enumerate(frames):
        if size is None:
            size = (frame.width, frame.height)
        elif (frame.width, frame.height) != size:
            raise TrackError(
                f"frame {index} is {frame.width}x{frame.height}, "
                f"expected {size[0]}x{size[1]}"
            )
        centroid = _dark_centroid(frame, threshold)
        if centroid is None:
            if prev is None:
                raise TrackError("no dark pixels in the first frame")
            x_mm, y_mm = prev
        else:
            cx, cy = centroid
            x_mm = round(cx * mm_per_px, 3)
            y_mm = round((frame.height - 1 - cy) * mm_per_px, 3)
        prev = (x_mm, y_mm)
        xs.append(x_mm)
        ys.append(y_mm)
        regions.append(_located_region(env, x_mm, y_mm))
    if size is None:
        raise TrackError("no frames supplied")
    n = len(xs)
    return Trajectory(
        env=env,
        trial_id=0,
        seed=0,
        xs=np.asarray(xs, dtype=float),
        ys=np.asarray(ys, dtype=float),
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


def _parse_pnm_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    if not data.startswith(magic):
        raise TrackError(f"{path}: expected {magic.decode()} file")
    fields: list[int] = []
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
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise TrackError(f"{path}: only maxval 255 is supported")
    return width, height, pos


def read_ppm(path) -> Frame:
    data = Path(path).read_bytes()
    width, height, pos = _parse_pnm_header(data, b"P6", path)
    expected = width * height * 3
    raw = data[pos:pos + expected]
    if len(raw) != expected:
        raise TrackError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3).copy()
    return Frame(width, height, pixels)


_FRAME_NAME = re.compile(r"frame_(\d{6})\.ppm$")


def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.ppm"


def read_frame_dir(path):
    """Yield frames from ``frame_%06d.ppm`` files in index order."""
    directory = Path(path)
    named = []
    for p in directory.iterdir():
        match = _FRAME_NAME.match(p.name)
        if match:
            named.append((int(match.group(1)), p))
    if not named:
        raise TrackError(f"no frame_%06d.ppm files in {directory}")
    for _, p in sorted(named):
        yield read_ppm(p)
