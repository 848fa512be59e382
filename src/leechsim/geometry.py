"""Planar environment template: a corridor with a row of rooms.

Coordinates are millimetres in the template *interior* frame: origin at the
interior lower-left corner, x to the right, y up.  The template puts the
rooms along the bottom edge (y = 0), a dividing wall band above them and
the corridor band on top.  Regions are closed axis-aligned rectangles; any
interior point not covered by a region is wall material.

Regions are integer codes: CORRIDOR (0), room i as i, WALL (-1) and UNKNOWN
(-2); :func:`region_label` and :func:`region_code` map them to and from the
file labels ``C``, ``R<i>``, ``W`` and ``UNKNOWN``.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field


class GeometryError(ValueError):
    """Raised for invalid template dimensions or out-of-bounds queries."""


Rect = tuple[float, float, float, float]  # x0, y0, x1, y1
Point = tuple[float, float]

CORRIDOR = 0
WALL = -1
UNKNOWN = -2
MAX_ROOM = 32767  # trajectories store region codes as int16

_LABELS = {CORRIDOR: "C", WALL: "W", UNKNOWN: "UNKNOWN"}
_CODES = {label: code for code, label in _LABELS.items()}


def region_label(code: int) -> str:
    """The file label of a region code: C, R<i>, W or UNKNOWN."""
    if 0 < code <= MAX_ROOM:
        return f"R{code}"
    try:
        return _LABELS[code]
    except KeyError:
        raise GeometryError(f"no region code {code}") from None


def region_code(label: str) -> int:
    """The region code that :func:`region_label` writes as ``label``.

    Any other label, such as ``R0``, ``R08``, ``R+8`` or a room above
    MAX_ROOM, raises GeometryError instead of reading as some region.
    """
    code = _CODES.get(label)
    digits = label[1:]
    if code is None and digits.isdecimal() and len(digits) <= len(str(MAX_ROOM)):
        code = int(digits)
    if code is None or code > MAX_ROOM or region_label(code) != label:
        raise GeometryError(f"unknown region label {label!r}")
    return code


@dataclass(frozen=True)
class EnvironmentTemplate:
    """Immutable wall/region layout; safe to share across trial workers.

    A room is its index: ``regions[c]`` is the rect of region code c (the
    corridor, then rooms 1..n) and ``openings[i - 1]`` the x-span
    ``(lo, hi)`` of the gap joining room i to the corridor.
    """

    interior_width: float
    interior_height: float
    regions: tuple[Rect, ...]
    openings: tuple[tuple[float, float], ...]
    start_point: Point
    wall_rects: tuple[Rect, ...] = field(repr=False)
    wall_thickness: float = 2.0

    def __post_init__(self) -> None:
        if len(self.openings) != len(self.regions) - 1:
            raise GeometryError("regions must be corridor, rooms 1..n, and openings rooms 1..n")

    @property
    def n_rooms(self) -> int:
        return len(self.openings)


def build_corridor_template(
    rooms: int = 8,
    room_size: float = 15.0,
    wall: float = 2.0,
    corridor_width: float = 10.0,
    opening: float = 2.0,
) -> EnvironmentTemplate:
    """Build the corridor-with-rooms template.

    The interior is ``rooms * room_size + (rooms - 1) * wall`` long and
    ``room_size + wall + corridor_width`` high.  Room i occupies
    x in [(i-1)(room_size+wall), (i-1)(room_size+wall)+room_size], y in
    [0, room_size]; the corridor is the top band.  Each room connects to the
    corridor through an opening centered on the room's x-extent.  The start
    point sits 4 mm from the right interior wall at corridor mid-height.
    """
    if isinstance(rooms, bool) or not isinstance(rooms, int) or not 1 <= rooms <= MAX_ROOM:
        raise GeometryError(f"rooms must be an int in [1, {MAX_ROOM}], got {reprlib.repr(rooms)}")
    for name, v in (("room_size", room_size), ("wall", wall),
                    ("corridor_width", corridor_width), ("opening", opening)):
        if not (v > 0 and math.isfinite(v)):
            raise GeometryError(f"{name} must be finite and > 0, got {v}")
    if opening > room_size:
        raise GeometryError(f"opening {opening} wider than room {room_size}")

    length = rooms * room_size + (rooms - 1) * wall
    height = room_size + wall + corridor_width
    if not (math.isfinite(length) and math.isfinite(height)):
        raise GeometryError(f"interior {length} x {height} mm is not finite")

    band_y0, band_y1 = room_size, room_size + wall
    regions = [(0.0, band_y1, length, height)]
    openings = []
    pitch = room_size + wall
    for i in range(1, rooms + 1):
        x0 = (i - 1) * pitch
        regions.append((x0, 0.0, x0 + room_size, room_size))
        cx = x0 + room_size / 2.0
        openings.append((cx - opening / 2.0, cx + opening / 2.0))

    wall_rects: list[Rect] = []
    for i in range(1, rooms):  # blocks between adjacent rooms
        x0 = (i - 1) * pitch + room_size
        wall_rects.append((x0, 0.0, x0 + wall, room_size))
    edge = 0.0  # dividing band split at the opening gaps
    for lo, hi in openings:
        if lo > edge:
            wall_rects.append((edge, band_y0, lo, band_y1))
        edge = hi
    if edge < length:
        wall_rects.append((edge, band_y0, length, band_y1))

    start = (length - min(4.0, length / 2.0), band_y1 + corridor_width / 2.0)
    return EnvironmentTemplate(
        interior_width=length,
        interior_height=height,
        regions=tuple(regions),
        openings=tuple(openings),
        start_point=start,
        wall_rects=tuple(wall_rects),
        wall_thickness=wall,
    )


def locate(env: EnvironmentTemplate, p: Point) -> int:
    """Map an interior point to its region code; ties go to the scan order.

    Regions are scanned corridor first, then rooms by index, with closed
    rectangles, so a point on a shared boundary resolves to the corridor
    before any room, and to the lower room before a higher one; a point no
    region covers is WALL.  Points outside the interior raise GeometryError.
    """
    x, y = p
    if not (0.0 <= x <= env.interior_width and 0.0 <= y <= env.interior_height):
        raise GeometryError(f"point {p} outside interior")
    for code, (x0, y0, x1, y1) in enumerate(env.regions):
        if x0 <= x <= x1 and y0 <= y <= y1:
            return code
    return WALL


def room_distance_to_end(env: EnvironmentTemplate, room: int) -> int:
    """Distance from a room to the closest corridor end, in room-index units.

    For room i of R rooms this is min(i, R+1-i): 1 for the end rooms, rising
    toward the middle.
    """
    n = env.n_rooms
    if not 1 <= room <= n:
        raise GeometryError(f"room {room} out of range 1..{n}")
    return min(room, n + 1 - room)

