import pytest
from hypothesis import given
from hypothesis import strategies as st

from leechsim.geometry import (
    CORRIDOR,
    MAX_ROOM,
    UNKNOWN,
    WALL,
    GeometryError,
    build_corridor_template,
    locate,
    region_code,
    region_label,
    room_distance_to_end,
)

from conftest import wall_contact, wall_distance


def test_default_interior_dimensions(env):
    assert env.interior_width == 134.0  # 8*15 + 7*2, equals 138 - 2*2
    assert env.interior_height == 27.0  # 15 + 2 + 10


def test_default_room_rects(env):
    assert env.room_rect(1) == (0.0, 0.0, 15.0, 15.0)
    assert env.room_rect(8) == (119.0, 0.0, 134.0, 15.0)
    for i in range(1, 9):
        x0, y0, x1, y1 = env.room_rect(i)
        assert (x0, x1) == ((i - 1) * 17.0, (i - 1) * 17.0 + 15.0)
        assert (y0, y1) == (0.0, 15.0)


def test_room_widths_fill_interior(env):
    total = 8 * 15.0 + 7 * 2.0
    assert total == env.interior_width


def test_openings_centered_with_default_width(env):
    for opening in env.openings:
        lo, hi = opening.span
        assert hi - lo == pytest.approx(2.0)
        x0, _, x1, _ = env.room_rect(opening.room)
        assert (lo + hi) / 2 == pytest.approx((x0 + x1) / 2)
        assert x0 <= lo < hi <= x1


def test_single_room_template():
    env = build_corridor_template(rooms=1)
    assert env.interior_width == 15.0
    assert len(env.openings) == 1
    assert env.n_rooms == 1


def test_start_point_in_corridor(env):
    assert env.start_point == (130.0, 22.0)
    assert locate(env, env.start_point) == CORRIDOR


@pytest.mark.parametrize("kwargs", [
    {"rooms": 0},
    {"rooms": MAX_ROOM + 1},  # room codes would overflow int16
    {"room_size": -1.0},
    {"wall": 0.0},
    {"corridor_width": -5.0},
    {"opening": 0.0},
    {"opening": 16.0},  # wider than the room
    {"room_size": 1e308, "opening": 1.0},  # an infinite interior width
    {"rooms": 1, "room_size": 1e308, "corridor_width": 1e308},  # and height
])
def test_bad_dimensions_raise(kwargs):
    with pytest.raises(GeometryError):
        build_corridor_template(**kwargs)


def test_locate_examples(env):
    assert locate(env, (7.5, 7.5)) == 1
    assert locate(env, (67.0, 22.0)) == CORRIDOR
    assert locate(env, (16.0, 10.0)) == WALL


def test_locate_outside_raises(env):
    for p in ((-0.1, 5.0), (134.1, 5.0), (5.0, -0.1), (5.0, 27.1)):
        with pytest.raises(GeometryError):
            locate(env, p)


def test_locate_boundary_tiebreak(env):
    # shared boundary resolves to the lowest region id
    assert locate(env, (15.0, 10.0)) == 1         # room edge against wall
    assert locate(env, (5.0, 17.0)) == CORRIDOR   # corridor floor against wall
    assert locate(env, (0.0, 0.0)) == 1


def test_locate_partition_grid(env):
    """Grid scan at 0.5 mm: every interior point maps to exactly one region."""
    step = 0.5
    nx = int(env.interior_width / step) + 1
    ny = int(env.interior_height / step) + 1
    for ix in range(nx):
        for iy in range(ny):
            p = (ix * step, iy * step)
            rid = locate(env, p)
            covering = [
                r.id for r in env.regions
                if r.rect[0] <= p[0] <= r.rect[2] and r.rect[1] <= p[1] <= r.rect[3]
            ]
            if covering:
                assert rid == min(covering)
            else:
                assert rid == WALL


def test_regions_disjoint_interiors(env):
    step = 0.5
    nx = int(env.interior_width / step)
    ny = int(env.interior_height / step)
    for ix in range(nx):
        for iy in range(ny):
            x, y = ix * step, iy * step
            strict = sum(
                1 for r in env.regions
                if r.rect[0] < x < r.rect[2] and r.rect[1] < y < r.rect[3]
            )
            assert strict <= 1


def test_room_distance_examples(env):
    assert room_distance_to_end(env, 1) == 1
    assert room_distance_to_end(env, 4) == 4
    assert room_distance_to_end(env, 5) == 4
    assert room_distance_to_end(env, 8) == 1


@given(rooms=st.integers(min_value=1, max_value=20), data=st.data())
def test_room_distance_symmetric(rooms, data):
    env = build_corridor_template(rooms=rooms)
    i = data.draw(st.integers(min_value=1, max_value=rooms))
    assert room_distance_to_end(env, i) == room_distance_to_end(env, rooms + 1 - i)


def test_room_distance_invalid(env):
    with pytest.raises(GeometryError):
        room_distance_to_end(env, 0)
    with pytest.raises(GeometryError):
        room_distance_to_end(env, 9)


def test_wall_contact_examples(env):
    assert wall_contact(env, (0.5, 22.0), 1.0) == 1
    assert wall_contact(env, (67.0, 22.0), 1.0) == 0
    assert wall_contact(env, (7.5, 7.5), 0.0) == 0


def test_wall_contact_room_interior(env):
    assert wall_contact(env, (7.5, 7.5), 1.0) == 0
    assert wall_contact(env, (0.5, 7.5), 1.0) == 1    # against the left wall
    assert wall_contact(env, (7.5, 14.5), 1.0) == 0   # under the opening gap
    assert wall_contact(env, (5.0, 14.5), 1.0) == 1   # under the wall band


def test_wall_distance_inside_wall_is_zero(env):
    assert wall_distance(env, (16.0, 10.0)) == 0.0


def test_region_labels_round_trip():
    codes = [UNKNOWN, WALL, CORRIDOR, 1, 8, 10, MAX_ROOM]
    labels = [region_label(code) for code in codes]
    assert labels == ["UNKNOWN", "W", "C", "R1", "R8", "R10", f"R{MAX_ROOM}"]
    assert [region_code(label) for label in labels] == codes


@pytest.mark.parametrize("label", ["R0", "R08", "R-1", "R 1", "R1_0", "R\u0661",
                                   f"R{MAX_ROOM + 1}", "R", "c", "Wall"])
def test_labels_never_written_are_rejected(label):
    with pytest.raises(GeometryError):
        region_code(label)


@pytest.mark.parametrize("code", [UNKNOWN - 1, MAX_ROOM + 1])
def test_unknown_codes_have_no_label(code):
    with pytest.raises(GeometryError):
        region_label(code)
