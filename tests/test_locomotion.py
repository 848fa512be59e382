import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leechsim.locomotion as locomotion
from leechsim.automaton import AutomatonParams, Mode, next_modes
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
from leechsim.montecarlo import run_ensemble

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


def _kernel_outputs(ctx, n_rooms, seeds, duration):
    """The arrays and the counts of one kernel run, each from its own pass."""
    arrays = locomotion.TrialArrays.allocate(len(seeds), duration)
    counts = locomotion.VisitCounts.allocate(len(seeds), n_rooms, duration, 1)
    locomotion._simulate(ctx, seeds, arrays)
    locomotion._simulate(ctx, seeds, counts)
    return arrays, counts


def _longest_run(modes, mode):
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate(([0], modes == mode, [0])))))
    return int(runs[::2].max(initial=0))


def test_draw_buffer_width_changes_no_output(env, auto, monkeypatch):
    """Refilling the per-trial draw buffers at any block length is invisible,
    also to Still runs many look-aheads long and to Crawl runs split across
    events, in the arrays and in the counts."""
    center = replace(env, start_point=(env.interior_width / 2, 22.0))
    for q in (1.0, 0.0):
        monkeypatch.setattr(locomotion, "_BLOCK", 256)
        ctx = _SimContext(center, MotionParams(q_scale=q), auto)
        arrays, counts = _kernel_outputs(ctx, env.n_rooms, range(6), 700)
        assert max(_longest_run(row, Mode.STILL) for row in arrays.modes) > 7
        assert max(_longest_run(row, Mode.CRAWL) for row in arrays.modes) > 7
        for block in (1, 7):
            monkeypatch.setattr(locomotion, "_BLOCK", block)
            got_arrays, got_counts = _kernel_outputs(ctx, env.n_rooms, range(6), 700)
            for name in ("xs", "ys", "modes", "regions", "ms"):
                assert np.array_equal(getattr(got_arrays, name), getattr(arrays, name)), \
                    (q, block, name)
            assert np.array_equal(got_counts.ticks, counts.ticks), (q, block)
            assert np.array_equal(got_counts.passes, counts.passes), (q, block)
            assert np.array_equal(got_counts.mode_runs(), counts.mode_runs()), (q, block)


class _CallLog:
    """An output that logs the trials and ticks of each ``record`` call."""

    def __init__(self, duration):
        self.duration = duration
        self.calls = []

    def record(self, rows, k, x, y, mode, region, m, passed):
        assert len({len(a) for a in (rows, k, x, y, mode, region, m, passed)}) == 1
        self.calls.append((np.array(rows), np.array(k)))


@pytest.mark.parametrize("block", [256, 5])
@pytest.mark.parametrize("q", [0.25, 0.0])
def test_record_gets_each_tick_once_in_one_call_per_iteration(env, auto, monkeypatch,
                                                              q, block):
    """Every (trial, tick) is recorded exactly once; within a call each
    trial's ticks are consecutive and increasing; and the kernel makes one
    call for the release and one per lockstep iteration, each of which
    samples its ticks in one ``next_modes`` call."""
    iterations = []

    def counted(*args):
        iterations.append(1)
        return next_modes(*args)

    monkeypatch.setattr(locomotion, "_BLOCK", block)
    monkeypatch.setattr(locomotion, "next_modes", counted)
    n, duration = 64, 1800
    out = _CallLog(duration)
    locomotion._simulate(_SimContext(env, MotionParams(q_scale=q), auto), range(n), out)
    assert len(out.calls) == len(iterations) + 1
    assert out.calls[0][0].tolist() == list(range(n)) and not out.calls[0][1].any()
    rows, k = (np.concatenate(column) for column in zip(*out.calls))
    assert np.array_equal(np.sort(rows * duration + k), np.arange(n * duration))
    for rows, k in out.calls:
        same = rows[1:] == rows[:-1]
        assert (np.diff(k)[same] == 1).all()
        assert np.count_nonzero(~same) + 1 == np.unique(rows).size  # one block a trial


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_crawl_runs_reflect_on_their_last_tick_only(env, auto, q):
    """Trials released next to either corridor end crawl to the far end,
    where a step reflects into contact.  The kernel checks every such step
    of a Crawl run, and the check passes: the reflecting tick samples
    another mode, so it ends its run."""
    L = env.interior_width
    reflected = 0
    for x0 in (0.5, L - 0.5):
        start = replace(env, start_point=(x0, env.start_point[1]))
        for traj in run_trials(start, MotionParams(q_scale=q), auto, range(30), 600):
            crawled = (traj.modes[:-1] == Mode.CRAWL) & (traj.regions[:-1] == 0)
            steps = np.flatnonzero(crawled & ((traj.xs[1:] == 0.0) | (traj.xs[1:] == L))) + 1
            assert (traj.modes[steps] != Mode.CRAWL).all()
            assert (traj.ms[steps] == 1).all()
            reflected += steps.size
    assert reflected > 30


def test_crawl_run_through_a_reflection_is_refused(env, auto, monkeypatch):
    """Without end contact a Crawl run would go on past a reflection, where
    its accumulated positions keep the old heading; the kernel raises."""
    monkeypatch.setattr(locomotion, "_contact",
                        lambda ctx, x, y, region: np.zeros(np.shape(x), np.uint8))
    with pytest.raises(AssertionError, match="reflected before its last tick"):
        run_trials(env, MotionParams(q_scale=0.0), auto, range(8), duration=300)


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
# file may hold; int() and float() accept the Arabic-Indic digits.  The
# numbers lie at or just past an edge of the writer's grammar (1 to 12
# digits, ".", 3 digits), and float() reads most of them; some labels run
# past 7 bytes, or end in NUL.
_CHARS = [",", "\n", "\r", "\x0b", "\x0c", "\x1c", " ", "0", "9", "-", ".", "e", "R",
          "\u00e9"]
_NEAR_MISSES = ["1.", ".5", "1.5", "1.2345", "01.500", "+2.000", "-0.000", " 1.000",
                "1e3", "1/500", "123456789012.000", "1234567890123.000",
                "1234567890123456.000"]
_FIELDS = [
    ["", "4", "00", "03", "+3", " 3", "\u0663"],
    ["", "01", "+1", "9", "1_0", "\u0661"],
    ["", "nan", "inf", "-inf", "1e999", "0x1", "1_0", " 2", "4", "\u0664", *_NEAR_MISSES],
    ["", "NaN", "+inf", "-Infinity", "1e-999", "2.", ".5", "4", "\u0664.5", *_NEAR_MISSES],
    ["", "crawl", "CRAWL\u00e9", "STILL", "EXPLORE", "UNKNOWN", "EXPLORER", "CRAWL\0",
     "C", "R4"],
    ["", "R\u00b2", "R\u00e9", "R0", "R08", "R9", "R8", "W", "UNKNOWN", "C", "R32767",
     "UNKNOWNS", "C\0"],
]
_TOKENS = sorted({token for column in _FIELDS for token in column})
_MUTATIONS = ["truncate", "flip", "insert", "duplicate", "drop", "extra_field",
              "missing_field", "crlf", "crlf_row", "header"] + ["field"] * 6
# byte sequences no UTF-8 decoder accepts: a stray continuation byte, bytes
# UTF-8 never uses, and lead bytes cut short or followed by ASCII
_UNDECODABLE = [b"\x80", b"\xff", b"\xc3(", b"\xe2\x82", b"\xf5"]


# strategies built once: hypothesis validates each new strategy object
_DRAW_KINDS = st.lists(st.sampled_from(_MUTATIONS), max_size=3)
_DRAW_CHAR = st.sampled_from(_CHARS)
_DRAW_FIELD = [st.sampled_from(column) for column in _FIELDS] + [st.sampled_from(_TOKENS)]
_DRAW_HEADER = st.sampled_from(["", "trial_id,tick,x_mm,y_mm,mode",
                                "TRIAL_ID,tick,x_mm,y_mm,mode,region",
                                "trial_id,tick,x_mm,y_mm,mode,region,"])
_DRAW_UNDECODABLE = st.sampled_from([None] * 10 + _UNDECODABLE)
_DRAW_INDEX = st.integers(0, 2**16)


@st.composite
def _damaged_csv(draw):
    """The bytes of the valid ``_FUZZ_BASE`` after up to three random
    mutations, about one file in three with an undecodable byte sequence
    added.

    Only the "header" mutation edits line 1, so most files get past the
    header check and fail (or pass) on their data rows.
    """
    def index(lo, hi):  # in [lo, hi], or lo for an empty range
        return lo + draw(_DRAW_INDEX) % max(hi - lo + 1, 1)

    text = _FUZZ_BASE
    start = _FUZZ_BASE.index("\n") + 1  # first character of line 2
    for kind in draw(_DRAW_KINDS):
        if kind == "truncate":
            text = text[:index(min(start, len(text)), len(text))]
            continue
        if kind in ("flip", "insert"):
            if len(text) > start:
                at = index(start, len(text) - 1)
                text = text[:at] + draw(_DRAW_CHAR) + text[at + (kind == "flip"):]
            continue
        if kind == "crlf":
            text = text.replace("\n", "\r\n")
            continue
        lines = text.split("\n")
        row = index(min(1, len(lines) - 1), len(lines) - 1)
        if kind == "duplicate":
            lines.insert(row, lines[row])
        elif kind == "drop":
            del lines[row]
        elif kind == "crlf_row":
            lines[row] += "\r"
        elif kind == "extra_field":
            lines[row] += "," + draw(_DRAW_FIELD[-1])
        elif kind == "missing_field":
            lines[row] = lines[row].rpartition(",")[0]
        elif kind == "field":
            fields = lines[row].split(",")
            col = index(0, len(fields) - 1)
            fields[col] = draw(_DRAW_FIELD[min(col, len(_FIELDS))])
            lines[row] = ",".join(fields)
        elif kind == "header":
            lines[0] = draw(_DRAW_HEADER)
        text = "\n".join(lines)
    data = text.encode()
    bad = draw(_DRAW_UNDECODABLE)
    if bad is not None:
        at = index(min(start, len(data)), len(data))
        data = data[:at] + bad + data[at:]
    return data


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


@settings(max_examples=250, deadline=None)
@given(data=_damaged_csv(), with_env=st.booleans())
def test_csv_reader_matches_the_per_line_oracle(fuzz_csv, env, data, with_env):
    fuzz_csv.write_bytes(data)
    template = env if with_env else None
    expected = _read_outcome(read_trajectory_csv_per_line, fuzz_csv, template)
    assert _read_outcome(read_trajectory_csv, fuzz_csv, template) == expected
    if isinstance(expected[0], type):
        assert expected[0] is TrajectoryFormatError


def test_csv_reader_matches_the_oracle_on_every_token_in_every_column(fuzz_csv, env):
    lines = _FUZZ_BASE.split("\n")
    for col in range(6):
        for token in _TOKENS:
            fields = lines[3].split(",")
            fields[col] = token
            fuzz_csv.write_text("\n".join([*lines[:3], ",".join(fields), *lines[4:]]),
                                encoding="utf-8", newline="")
            assert (_read_outcome(read_trajectory_csv, fuzz_csv, env)
                    == _read_outcome(read_trajectory_csv_per_line, fuzz_csv, env)), (col, token)


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


# built once, as _damaged_csv's are
_DRAW_LENGTH = st.sampled_from([1000, 10, 0, 1, 10001])
_DRAW_SEED = st.integers(0, 2**32 - 1)
_DRAW_VALUES = st.lists(st.one_of(st.sampled_from(_VALUES), st.floats(),
                                  st.integers(0, 10**6).map(lambda k: k / 1000 + 0.0005)),
                        min_size=1, max_size=6)
_DRAW_DTYPE = st.sampled_from([np.float64, np.float32])
# spreads with 1, 2 and 3 integer digit groups, the last past 2**32/1000
_DRAW_SPREAD = st.sampled_from([140.0, 1e4, 5e6])
_DRAW_CODES = [(st.lists(st.sampled_from(good), min_size=1, max_size=5),
                st.lists(st.sampled_from(bad), min_size=1, max_size=3))
               for good, bad in ((_MODES, _BAD_MODES), (_REGIONS, _BAD_REGIONS))]
_DRAW_ONE_IN_FIVE = st.integers(0, 4)
# ids of up to 7 digits fit the byte lane's word, longer ones do not
_DRAW_TRIAL_ID = st.one_of(st.integers(0, 9999), st.integers(0, 2**40))


@st.composite
def _trajectories(draw, bad_codes=True):
    """Trajectories of the writer's edge values; with ``bad_codes``, one
    column in five also holds codes it refuses."""
    n = draw(_DRAW_LENGTH)
    rng = np.random.default_rng(draw(_DRAW_SEED))
    dtype = draw(_DRAW_DTYPE)
    with np.errstate(over="ignore"):  # float32 turns huge values into inf
        xs, ys = (_column(rng, draw(_DRAW_VALUES), n, draw(_DRAW_SPREAD)).astype(dtype)
                  for _ in "xy")
    codes = []
    for good, bad in _DRAW_CODES:
        codes.append(draw(good))
        if bad_codes and draw(_DRAW_ONE_IN_FIVE) == 0:
            codes[-1] += draw(bad)
    modes, regions = codes
    trial_id = draw(_DRAW_TRIAL_ID)
    return Trajectory(None, trial_id, 0, xs, ys,
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


# --- written files read back --------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(traj=_trajectories(bad_codes=False))
def test_written_files_read_back_as_through_the_per_line_oracle(fuzz_csv, traj):
    """The writer's fast digits take the byte lane, its '%.3f' fallback
    (negatives, -0.0, 1e15, nan, inf) the per-row lane: either way the
    outcome is the oracle's."""
    write_trajectory_csv(traj, fuzz_csv)
    assert (_read_outcome(read_trajectory_csv, fuzz_csv, None)
            == _read_outcome(read_trajectory_csv_per_line, fuzz_csv, None))


def test_writer_files_take_the_byte_lane(tmp_path, env, auto, motion, monkeypatch):
    """Every row of a 64-trial default run parses from its bytes; the
    per-row lane, made to fail here, is never called."""
    def refuse(*args):
        raise AssertionError("a written row left the byte lane")

    paths = []
    for traj in run_ensemble(env, motion, auto, 64, base_seed=1, duration=1800):
        paths.append(tmp_path / f"trial_{traj.trial_id:04d}.csv")
        write_trajectory_csv(traj, paths[-1])
    expected = [_read_outcome(read_trajectory_csv_per_line, path, env) for path in paths]
    monkeypatch.setattr(locomotion, "_parse_row", refuse)
    assert [_read_outcome(read_trajectory_csv, path, env) for path in paths] == expected
