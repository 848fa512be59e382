import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leechsim.locomotion as locomotion
from leechsim.automaton import AutomatonParams, Mode
from leechsim.geometry import (
    WALL,
    build_corridor_template,
    locate,
    region_label,
    room_distance_to_end,
)
from leechsim.locomotion import (
    MODE_UNKNOWN,
    MotionParams,
    Trajectory,
    TrajectoryFormatError,
    _SimContext,
    entry_trigger_probability,
    mode_label,
    read_trajectory_csv,
    run_trial,
    run_trials,
    write_trajectory_csv,
)

from conftest import (read_trajectory_csv_per_line, wall_contact,
                      write_trajectory_csv_per_row)

# crawl that never stops on its own within a test's duration
NO_SWITCHING = AutomatonParams(tau_s=10**6, tau_a=10**6)


def test_still_leech_does_not_move(env, auto, motion):
    trajs = run_trials(env, motion, auto, range(8), duration=1800)
    still_ticks = 0
    for traj in trajs:
        was_still = np.flatnonzero(traj.modes[:-1] == Mode.STILL) + 1
        still_ticks += was_still.size
        assert np.array_equal(traj.xs[was_still], traj.xs[was_still - 1])
        assert np.array_equal(traj.ys[was_still], traj.ys[was_still - 1])
    assert still_ticks > 0


def test_reflection_at_right_end(env, motion):
    # crawling right from 5.5 mm, tick 42 ends at 131.5 (out of contact) and
    # tick 43's 3 mm step overshoots the right end at 134
    left_start = replace(env, start_point=(5.5, 22.0))
    traj = run_trial(left_start, replace(motion, q_scale=0.0), NO_SWITCHING,
                     seed=0, duration=200)
    k = int(np.argmax(traj.xs == 134.0))
    assert k == 43
    assert traj.xs[k - 1] == 131.5 and traj.modes[k - 1] == Mode.CRAWL
    assert traj.ms[k] == 1
    # the heading flipped: the next corridor crawl step moves left
    crawls = [j for j in range(k + 1, traj.n_ticks)
              if traj.modes[j - 1] == Mode.CRAWL and traj.regions[j - 1] == 0]
    assert crawls
    assert traj.xs[crawls[0]] < traj.xs[crawls[0] - 1]


def test_csv_rejects_ticks_out_of_sequence(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,tick,x_mm,y_mm,mode,region\n0,0,1.0,2.0,CRAWL,C\n"
                    "0,1,1.0,2.0,CRAWL,C\n0,3,1.0,2.0,CRAWL,C\n")
    with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:4: tick '3'"):
        read_trajectory_csv(path)


def test_csv_rejects_mixed_trial_ids(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,tick,x_mm,y_mm,mode,region\n5,0,1.0,2.0,CRAWL,C\n"
                    "5,1,1.0,2.0,CRAWL,C\n6,2,1.0,2.0,CRAWL,C\n")
    with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:4: trial id '6'"):
        read_trajectory_csv(path)


@pytest.mark.parametrize("label", ["R0", "R08", "R\u00b2", "R99999", "X", "R+1"])
def test_csv_rejects_region_labels_the_writer_never_writes(tmp_path, label):
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,tick,x_mm,y_mm,mode,region\n0,0,1.0,2.0,CRAWL,C\n"
                    f"0,1,1.0,2.0,CRAWL,{label}\n", encoding="utf-8")
    with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:3: bad region"):
        read_trajectory_csv(path)


def test_csv_rejects_rooms_the_template_lacks(tmp_path, env):
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,tick,x_mm,y_mm,mode,region\n0,0,1.0,2.0,CRAWL,R8\n"
                    "0,1,1.0,2.0,CRAWL,W\n0,2,1.0,2.0,CRAWL,R9\n")
    assert read_trajectory_csv(path).regions.tolist() == [8, -1, 9]
    with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:4: region 'R9'"):
        read_trajectory_csv(path, env)


def test_csv_writer_matches_per_row_format(tmp_path):
    """The bulk writer gives the bytes of one f-string per row over numpy scalars."""
    xs = np.array([-0.0, 0.0005, 2.675, 1e9 + 0.0625, -123456.7895, 0.0015,
                   -0.0004, 1.0005, 7.5, 60.125, 3.14159])
    ys = np.array([2.675, -0.0, 1e12 / 3, 0.0005, 0.0025, -2.675, 99.9995,
                   -1e-9, 44.4445, 0.0, 15.0])
    modes = np.array([0, 1, 2, MODE_UNKNOWN, 1, 0, 2, 1, MODE_UNKNOWN, 0, 1], np.uint8)
    regions = np.array([-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8], np.int16)
    traj = Trajectory(None, 12, 0, xs, ys, modes, regions, np.zeros(11, np.uint8))
    path = tmp_path / "trial.csv"
    write_trajectory_csv(traj, path)
    expected = ["trial_id,tick,x_mm,y_mm,mode,region"] + [
        f"12,{k},{xs[k]:.3f},{ys[k]:.3f},"
        f"{mode_label(int(modes[k]))},{region_label(int(regions[k]))}"
        for k in range(11)
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_mid_corridor_has_no_trigger_window(env, auto):
    ctx = _SimContext(env, MotionParams(q_scale=1.0), auto)
    for w_lo, w_hi, _, _ in ctx.windows:
        assert not (w_lo <= 67.0 <= w_hi)


def test_trigger_windows_follow_visit_law(env, auto):
    motion = MotionParams(q_scale=0.5)
    ctx = _SimContext(env, motion, auto)
    by_room = {ridx: q for _, _, q, ridx in ctx.windows}
    for room in range(1, 9):
        x = room_distance_to_end(env, room)
        assert by_room[room] == entry_trigger_probability(x, auto, 0.5)
    assert by_room[1] == by_room[8] > by_room[2] > by_room[3] > by_room[4]


def test_certain_visit_triggers_on_every_pass():
    auto = AutomatonParams(a=1.0)  # p_visit(1) = 1, an infinite hazard
    assert entry_trigger_probability(1, auto, 0.25) == 1.0
    assert entry_trigger_probability(1, auto, 0.0) == 0.0
    assert entry_trigger_probability(2, auto, 0.25) < 1.0


def test_run_trial_duration_one(env, auto, motion):
    traj = run_trial(env, motion, auto, seed=1, duration=1)
    assert traj.n_ticks == 1
    assert traj.regions[0] == 0
    assert (traj.xs[0], traj.ys[0]) == env.start_point


def test_run_trial_rejects_zero_duration(env, auto, motion):
    with pytest.raises(ValueError):
        run_trial(env, motion, auto, seed=1, duration=0)


def test_run_trial_deterministic(env, auto, motion):
    a = run_trial(env, motion, auto, seed=99, duration=500)
    b = run_trial(env, motion, auto, seed=99, duration=500)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert np.array_equal(a.modes, b.modes) and np.array_equal(a.regions, b.regions)


def test_traversal_reaches_far_end_in_42_ticks(env):
    # straight corridor run at 3.2 mm/s with switching disabled
    auto = AutomatonParams(tau_s=10**6, tau_a=10**6)
    motion = MotionParams(v_crawl=3.2, q_scale=0.0)
    traj = run_trial(env, motion, auto, seed=5, duration=60)
    arrival = int(np.argmax(traj.xs == 0.0))
    assert traj.xs[0] == 130.0
    assert arrival in (41, 42)


def test_positions_never_in_wall(env, auto):
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=23, duration=1500)
    for k in range(traj.n_ticks):
        code = locate(env, (traj.xs[k], traj.ys[k]))
        assert code != WALL, f"tick {k} in wall at {(traj.xs[k], traj.ys[k])}"
        assert code == traj.regions[k]


def test_recorded_m_matches_offline_wall_contact(env, auto, motion):
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=31, duration=1500)
    for k in range(traj.n_ticks):
        expected = wall_contact(env, (traj.xs[k], traj.ys[k]), motion.contact_radius)
        assert traj.ms[k] == expected, f"tick {k}"


@pytest.mark.parametrize("radius,spacing", [(0.0, 0.5), (1.0, 0.5), (2.0, 0.5),
                                            (1.25, 0.25)])
def test_contact_model_matches_wall_distance_oracle(env, auto, radius, spacing):
    """The kernel's contact bit equals the wall-distance scan on a grid, which
    puts points exactly on walls, gap corners and radius boundaries (at 1.25
    also diagonally, as hypot(0.75, 1) = 1.25), plus seeded random points;
    all in the corridor or a room."""
    nx, ny = int(env.interior_width / spacing), int(env.interior_height / spacing)
    grid = [(spacing * i, spacing * j) for i in range(nx + 1) for j in range(ny + 1)]
    rng = np.random.default_rng(5)
    points = grid + list(zip(rng.uniform(0.0, env.interior_width, 2000).tolist(),
                             rng.uniform(0.0, env.interior_height, 2000).tolist()))
    points = [p for p in points if locate(env, p) != WALL]
    xs, ys = (np.array(column) for column in zip(*points))
    regions = np.array([locate(env, p) for p in points])
    ctx = _SimContext(env, MotionParams(contact_radius=radius), auto)
    got = locomotion._contact(ctx, xs, ys, regions).tolist()
    assert got == [wall_contact(env, p, radius) for p in points]


def test_zero_trigger_scale_never_enters_rooms(env, auto):
    motion = MotionParams(q_scale=0.0)
    for traj in run_trials(env, motion, auto, range(20), duration=1800):
        assert (traj.regions <= 0).all()


def test_every_room_reachable(env, auto):
    """Ergodicity smoke test: 200 trials x 10^4 ticks cover all rooms."""
    motion = MotionParams(q_scale=0.25)
    seen = set()
    for traj in run_trials(env, motion, auto, range(200), duration=10_000):
        seen.update(int(r) for r in np.unique(traj.regions) if r > 0)
    assert seen == set(range(1, 9))


def test_entry_lands_2mm_inside_and_exit_on_centerline(env, auto):
    motion = MotionParams(q_scale=1.0)
    traj = run_trial(env, motion, auto, seed=3, duration=1200)
    regions = traj.regions
    entries = np.flatnonzero((regions[1:] > 0) & (regions[:-1] == 0)) + 1
    exits = np.flatnonzero((regions[1:] == 0) & (regions[:-1] > 0)) + 1
    assert entries.size and exits.size
    for k in entries:
        room = int(regions[k])
        opening = env.opening_for_room(room)
        assert traj.xs[k] == pytest.approx(opening.center)
        assert traj.ys[k] == pytest.approx(13.0)  # 2 mm inside the room
        assert traj.modes[k] == int(Mode.EXPLORE)
    for k in exits:
        room = int(regions[k - 1])
        opening = env.opening_for_room(room)
        assert traj.xs[k] == pytest.approx(opening.center)
        assert traj.ys[k] == pytest.approx(22.0)  # corridor centerline
        assert traj.modes[k] == int(Mode.CRAWL)


def test_initial_heading_points_to_far_end(env, auto, motion):
    traj = run_trial(env, motion, auto, seed=0, duration=2)
    assert traj.xs[1] < traj.xs[0]  # released at the right end
    left_start = replace(build_corridor_template(), start_point=(4.0, 22.0))
    traj = run_trial(left_start, motion, auto, seed=0, duration=2)
    assert traj.xs[1] > traj.xs[0]


def test_draw_buffer_width_changes_no_output(env, auto, monkeypatch):
    """Refilling the per-trial draw buffers at any block length is invisible."""
    motion = MotionParams(q_scale=1.0)
    center = replace(env, start_point=(env.interior_width / 2, 22.0))
    reference = run_trials(center, motion, auto, range(6), duration=700)
    for block in (1, 7):
        monkeypatch.setattr(locomotion, "_BLOCK", block)
        for a, b in zip(reference, run_trials(center, motion, auto, range(6),
                                              duration=700)):
            for name in ("xs", "ys", "modes", "regions", "ms"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (block, name)


def test_batch_rows_equal_single_trials(env, auto):
    """A trial's record depends only on its seed, not on its batch mates."""
    motion = MotionParams(q_scale=0.5)
    batch = run_trials(env, motion, auto, [31, 5, 77], duration=900,
                       trial_ids=[4, 5, 6])
    for traj, seed, tid in zip(batch, [31, 5, 77], [4, 5, 6]):
        single = run_trial(env, motion, auto, seed, duration=900, trial_id=tid)
        assert (traj.seed, traj.trial_id) == (seed, tid) == (single.seed, single.trial_id)
        for name in ("xs", "ys", "modes", "regions", "ms"):
            assert np.array_equal(getattr(traj, name), getattr(single, name)), name


def test_contact_radius_above_wall_thickness_rejected(env, auto):
    with pytest.raises(ValueError):
        run_trial(env, MotionParams(contact_radius=2.5), auto, seed=0, duration=10)


def test_motion_params_validation():
    with pytest.raises(ValueError):
        MotionParams(v_crawl=0.0)
    with pytest.raises(ValueError):
        MotionParams(q_scale=1.5)
    with pytest.raises(ValueError):
        MotionParams(contact_radius=-1.0)


def test_csv_round_trip(tmp_path, env, auto, motion):
    traj = run_trial(env, motion, auto, seed=11, duration=50, trial_id=4)
    path = tmp_path / "trial.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial_id,tick,x_mm,y_mm,mode,region"
    assert len(lines) == 51
    back = read_trajectory_csv(path, env)
    assert back.trial_id == 4
    assert np.allclose(back.xs, np.round(traj.xs, 3))
    assert np.allclose(back.ys, np.round(traj.ys, 3))
    assert np.array_equal(back.modes, traj.modes)
    assert np.array_equal(back.regions, traj.regions)


def test_csv_malformed_names_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,tick,x_mm,y_mm,mode,region\n0,0,1.0,2.0,CRAWL,C\n0,1,oops,2.0,CRAWL,C\n")
    with pytest.raises(TrajectoryFormatError) as err:
        read_trajectory_csv(path)
    assert "bad.csv:3" in str(err.value)

    path.write_text("wrong,header\n")
    with pytest.raises(TrajectoryFormatError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("x,y", [("nan", "22.0"), ("1.0", "inf"), ("-inf", "2.0")])
def test_csv_rejects_non_finite_coordinates(tmp_path, x, y):
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,tick,x_mm,y_mm,mode,region\n0,0,1.0,2.0,CRAWL,C\n"
                    f"0,1,{x},{y},CRAWL,C\n0,2,1.0,2.0,CRAWL,C\n")
    with pytest.raises(TrajectoryFormatError) as err:
        read_trajectory_csv(path)
    assert "bad.csv:3" in str(err.value)


# --- the columnar reader against the per-line oracle ---------------------------

_FUZZ_BASE = ("trial_id,tick,x_mm,y_mm,mode,region\n"
              "3,0,130.000,22.000,CRAWL,C\n"
              "3,1,127.000,22.000,CRAWL,C\n"
              "3,2,67.000,13.000,EXPLORE,R4\n"
              "3,3,67.000,13.000,STILL,R4\n"
              "3,4,1.500,2.250,UNKNOWN,W\n"
              "3,5,-0.000,0.000,STILL,UNKNOWN\n")

# single characters, and per column whole fields, that a damaged or hostile
# file may hold; int() and float() accept the Arabic-Indic digits
_CHARS = [",", "\n", "\r", "\x1c", " ", "0", "9", "-", ".", "e", "R", "\u00e9"]
_FIELDS = [
    ["", "4", "03", "+3", " 3", "\u0663"],
    ["", "01", "+1", "9", "1_0", "\u0661"],
    ["", "nan", "inf", "-inf", "1e999", "0x1", "1_0", " 2", "4", "\u0664"],
    ["", "NaN", "+inf", "-Infinity", "1e-999", "2.", ".5", "4", "\u0664.5"],
    ["", "crawl", "CRAWL\u00e9", "STILL", "EXPLORE", "UNKNOWN"],
    ["", "R\u00b2", "R\u00e9", "R0", "R08", "R9", "R8", "W", "UNKNOWN", "C"],
]
_TOKENS = sorted({token for column in _FIELDS for token in column})
_MUTATIONS = ["truncate", "flip", "duplicate", "drop", "extra_field",
              "missing_field", "crlf", "header"] + ["field"] * 6


@st.composite
def _damaged_csv(draw):
    """The valid ``_FUZZ_BASE`` after up to three random mutations.

    Only the "header" mutation edits line 1, so most files get past the
    header check and fail (or pass) on their data rows.
    """
    text = _FUZZ_BASE
    start = _FUZZ_BASE.index("\n") + 1  # first character of line 2
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        if kind == "truncate":
            text = text[:draw(st.integers(min(start, len(text)), len(text)))]
            continue
        if kind == "flip":
            if len(text) > start:
                at = draw(st.integers(start, len(text) - 1))
                text = text[:at] + draw(st.sampled_from(_CHARS)) + text[at + 1:]
            continue
        if kind == "crlf":
            text = text.replace("\n", "\r\n")
            continue
        lines = text.split("\n")
        row = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
        if kind == "duplicate":
            lines.insert(row, lines[row])
        elif kind == "drop":
            del lines[row]
        elif kind == "extra_field":
            lines[row] += "," + draw(st.sampled_from(_TOKENS))
        elif kind == "missing_field":
            lines[row] = lines[row].rpartition(",")[0]
        elif kind == "field":
            fields = lines[row].split(",")
            col = draw(st.integers(0, len(fields) - 1))
            tokens = _FIELDS[col] if col < len(_FIELDS) else _TOKENS
            fields[col] = draw(st.sampled_from(tokens))
            lines[row] = ",".join(fields)
        elif kind == "header":
            lines[0] = draw(st.sampled_from(["", "trial_id,tick,x_mm,y_mm,mode",
                                             "TRIAL_ID,tick,x_mm,y_mm,mode,region",
                                             "trial_id,tick,x_mm,y_mm,mode,region,"]))
        text = "\n".join(lines)
    return text


def _read_outcome(reader, path, env):
    """Every array of the read trajectory with its dtype, or the error raised."""
    try:
        traj = reader(path, env)
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)
    arrays = (traj.xs, traj.ys, traj.modes, traj.regions, traj.ms)
    return (traj.trial_id, traj.seed, traj.env is env,
            [(a.dtype.str, a.tobytes()) for a in arrays])


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trial.csv"


@settings(max_examples=150, deadline=None)
@given(text=_damaged_csv(), with_env=st.booleans())
def test_csv_reader_matches_the_per_line_oracle(fuzz_csv, env, text, with_env):
    fuzz_csv.write_text(text, encoding="utf-8", newline="")
    template = env if with_env else None
    expected = _read_outcome(read_trajectory_csv_per_line, fuzz_csv, template)
    assert _read_outcome(read_trajectory_csv, fuzz_csv, template) == expected
    if isinstance(expected[0], type):
        assert expected[0] is TrajectoryFormatError


def test_csv_reader_matches_the_oracle_on_the_undamaged_file(fuzz_csv, env):
    fuzz_csv.write_text(_FUZZ_BASE)
    traj = read_trajectory_csv(fuzz_csv, env)
    assert traj.regions.tolist() == [0, 0, 4, 4, -1, -2]
    assert traj.modes.tolist() == [1, 1, 2, 0, MODE_UNKNOWN, 0]
    assert (_read_outcome(read_trajectory_csv, fuzz_csv, env)
            == _read_outcome(read_trajectory_csv_per_line, fuzz_csv, env))


# --- the byte-matrix writer against the per-row oracle ------------------------

# values the integer digit path must hand to '%.3f', or must round exactly:
# ties k/1000 + 0.0005 and the dyadic ties n/16, near-ties such as 2.675, -0.0,
# negatives that print as -0.000, subnormals, nan, inf, and 2**32/1000 with
# its neighbours (1000 v at and above 2**32)
_EDGE = 2.0**32 / 1000
_VALUES = [0.0, -0.0, 0.0005, 1.0005, 99.9995, 0.0625, 0.1875, 4.5625, 2.675,
           -2.675, -0.0004, -123456.7895, 5e-324, 2.2250738585072014e-308,
           1e-310, math.nan, -math.nan, math.inf, -math.inf, _EDGE,
           math.nextafter(_EDGE, 0.0), math.nextafter(_EDGE, math.inf),
           _EDGE - 0.0005, 999.9995, 1e6 - 0.0004, 1e15, 1e300]
_MODES = [0, 1, 2, MODE_UNKNOWN]
_BAD_MODES = [3, 32, 254]
_REGIONS = [-2, -1, 0, 1, 2, 8, 9, 99, 32767]
_BAD_REGIONS = [-3, -7, -8, -32768]


def _column(rng, pool, n, spread):
    """``n`` values: each drawn from ``pool`` or, with even odds, from
    [0, spread)."""
    return np.where(rng.random(n) < 0.5, rng.choice(np.array(pool), n),
                    rng.uniform(0.0, spread, n))


@st.composite
def _trajectories(draw):
    n = draw(st.sampled_from([1000, 10, 0, 1, 10001]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = st.one_of(st.sampled_from(_VALUES), st.floats(),
                       st.integers(0, 10**6).map(lambda k: k / 1000 + 0.0005))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    # spreads with 1, 2 and 3 integer digit groups, the last past 2**32/1000
    spreads = st.sampled_from([140.0, 1e4, 5e6])
    with np.errstate(over="ignore"):  # float32 turns huge values into inf
        xs, ys = (_column(rng, draw(st.lists(values, min_size=1, max_size=6)),
                          n, draw(spreads)).astype(dtype) for _ in "xy")
    codes = []
    for good, bad in ((_MODES, _BAD_MODES),
                      (_REGIONS, _BAD_REGIONS)):
        codes.append(draw(st.lists(st.sampled_from(good), min_size=1, max_size=5)))
        if draw(st.integers(0, 4)) == 0:  # one column in five holds bad codes
            codes[-1] += draw(st.lists(st.sampled_from(bad), min_size=1, max_size=3))
    modes, regions = codes
    return Trajectory(None, draw(st.integers(0, 2**40)), 0, xs, ys,
                      rng.choice(np.array(modes, np.uint8), n),
                      rng.choice(np.array(regions, np.int16), n),
                      np.zeros(n, np.uint8))


def _write_outcome(writer, traj, path):
    """The bytes written, or the error raised."""
    try:
        writer(traj, path)
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)
    return path.read_bytes()


def _coded(modes, regions):
    n = len(modes)
    return Trajectory(None, 0, 0, np.zeros(n), np.zeros(n), np.array(modes, np.uint8),
                      np.array(regions, np.int16), np.zeros(n, np.uint8))


@settings(max_examples=50, deadline=None)
@given(traj=_trajectories())
# two bad codes that a set orders by insertion, not by value: the error
# names the one that came first
@example(traj=_coded([0, 32, 3], [0, 0, 0]))
@example(traj=_coded([0, 0, 0], [0, -7, -8]))
def test_csv_writer_matches_the_per_row_oracle(fuzz_csv, traj):
    expected = _write_outcome(write_trajectory_csv_per_row, traj, fuzz_csv)
    assert _write_outcome(write_trajectory_csv, traj, fuzz_csv) == expected
