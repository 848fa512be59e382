import contextlib
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leechsim.cli import main
from leechsim.locomotion import MODE_UNKNOWN, MotionParams, run_trial
from leechsim.trackio import (
    Frame,
    TrackError,
    _parse_pnm_header,
    blank_frame,
    frame_filename,
    frames_to_trajectory,
    read_frame_dir,
    read_ppm,
    render_activity_map,
    render_frames,
    render_time_overlay,
    time_color,
    write_pgm,
    write_ppm,
)

from conftest import main_peak_bytes, pin_cpus


def _dark_mask(frame, threshold):
    """(height, width) bool mask of the pixels dark in every channel.

    A pixel counts as dark only when max(R, G, B) < threshold; the mask grows
    monotonically with the threshold.
    """
    if not 1 <= threshold <= 255:
        raise TrackError(f"threshold {threshold} outside [1, 255]")
    p = frame.pixels
    return np.maximum(np.maximum(p[..., 0], p[..., 1]), p[..., 2]) < threshold


def extract_dark_pixels(frame, threshold=40):
    """(N, 2) array of (x, y) coordinates of the tracker's dark pixels."""
    ys, xs = np.nonzero(_dark_mask(frame, threshold))
    return np.stack((xs, ys), axis=1)


def read_pgm(path):
    """The grayscale image of a binary PGM (P5) file."""
    data = path.read_bytes()
    width, height, pos = _parse_pnm_header(data, b"P5", path)
    return np.frombuffer(data, np.uint8, width * height, pos).reshape(height, width)


def _frame_with(pixels_and_colors, width=30, height=20):
    frame = blank_frame(width, height)
    for (x, y), color in pixels_and_colors:
        frame.pixels[y, x] = color
    return frame


def test_extract_dark_requires_all_channels_below():
    frame = _frame_with([((3, 4), (20, 20, 20)), ((5, 6), (20, 20, 60))])
    dark = extract_dark_pixels(frame, threshold=40)
    assert [tuple(p) for p in dark] == [(3, 4)]


def test_extract_dark_empty_on_white():
    assert extract_dark_pixels(blank_frame(10, 10), 40).shape == (0, 2)


def test_extract_dark_threshold_bounds():
    with pytest.raises(TrackError):
        extract_dark_pixels(blank_frame(4, 4), 0)
    with pytest.raises(TrackError):
        extract_dark_pixels(blank_frame(4, 4), 256)


@given(data=st.data())
def test_extract_dark_monotone_in_threshold(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    frame = Frame(8, 8, pixels)
    t1 = data.draw(st.integers(1, 254))
    t2 = data.draw(st.integers(t1, 255))
    set1 = {tuple(p) for p in extract_dark_pixels(frame, t1)}
    set2 = {tuple(p) for p in extract_dark_pixels(frame, t2)}
    assert set1 <= set2


def test_centroid_of_two_pixels():
    frame = _frame_with([((10, 10), (0, 0, 0)), ((12, 10), (0, 0, 0))])
    traj = frames_to_trajectory([frame], threshold=40, mm_per_px=0.5)
    assert traj.xs[0] == pytest.approx(11 * 0.5)
    assert traj.ys[0] == pytest.approx((20 - 1 - 10) * 0.5)
    assert traj.modes[0] == MODE_UNKNOWN


def test_empty_middle_frame_carries_forward():
    f1 = _frame_with([((4, 4), (0, 0, 0))])
    f2 = blank_frame(30, 20)
    f3 = _frame_with([((8, 4), (0, 0, 0))])
    traj = frames_to_trajectory([f1, f2, f3], threshold=40, mm_per_px=1.0)
    assert traj.xs[1] == traj.xs[0]
    assert traj.ys[1] == traj.ys[0]
    assert traj.xs[2] == 8.0


def test_empty_first_frame_raises():
    with pytest.raises(TrackError):
        frames_to_trajectory([blank_frame(10, 10)], threshold=40, mm_per_px=1.0)


def test_size_mismatch_raises():
    frames = [blank_frame(10, 10), blank_frame(11, 10)]
    frames[0].pixels[5, 5] = (0, 0, 0)
    with pytest.raises(TrackError):
        frames_to_trajectory(frames, threshold=40, mm_per_px=1.0)


def test_time_color_endpoints():
    assert time_color(0.0) == (0, 0, 255)
    assert time_color(0.5) == (0, 255, 0)
    assert time_color(1.0) == (255, 0, 0)


def test_time_color_clamps():
    assert time_color(-0.5) == (0, 0, 255)
    assert time_color(1.5) == (255, 0, 0)


def test_time_color_monotone_hue():
    us = [k / 200 for k in range(201)]
    colors = [time_color(u) for u in us]
    for (r1, g1, b1), (r2, g2, b2), u in zip(colors, colors[1:], us[1:]):
        if u <= 0.5:
            assert b2 <= b1 and g2 >= g1
        if u > 0.5:
            assert g2 <= g1 and r2 >= r1


def test_time_color_on_arrays_matches_the_scalar_oracle():
    # 255 * w is an even integer plus one half at u = 1 / 1020
    from conftest import time_color_per_sample

    for last in (1, 2, 1020, 1799):
        u = np.append(np.arange(last + 1) / last, [-0.5, 1.5])
        assert list(map(tuple, time_color(u).tolist())) == \
            [time_color_per_sample(x) for x in u.tolist()]


def test_overlay_single_sample_is_blue(env, auto, motion):
    traj = run_trial(env, motion, auto, seed=1, duration=1)
    frame = render_time_overlay(traj, env, px_per_mm=2.0)
    blue = np.all(frame.pixels == (0, 0, 255), axis=2)
    assert blue.sum() == 13  # one radius-2 disc
    assert frame.pixels[0, 0].tolist() == [0, 0, 0]  # wall border


def test_overlay_two_samples_blue_and_red(env, auto):
    traj = run_trial(env, MotionParams(q_scale=0.0), auto, seed=1, duration=2)
    frame = render_time_overlay(traj, env, px_per_mm=2.0)
    assert np.all(frame.pixels == (0, 0, 255), axis=2).any()
    assert np.all(frame.pixels == (255, 0, 0), axis=2).any()


def test_overlay_later_sample_overdraws(env):
    # same position at u=0 and u=1 renders red
    from conftest import make_trajectory

    traj = make_trajectory(env, [0, 0])
    traj.xs[:] = 67.0
    traj.ys[:] = 22.0
    frame = render_time_overlay(traj, env, px_per_mm=2.0)
    assert not np.all(frame.pixels == (0, 0, 255), axis=2).any()
    assert np.all(frame.pixels == (255, 0, 0), axis=2).any()


def test_activity_stationary_blob(env):
    from conftest import make_trajectory

    traj = make_trajectory(env, [0] * 10)
    traj.xs[:] = 67.0
    traj.ys[:] = 22.0
    gray = render_activity_map(traj, env, px_per_mm=2.0)
    assert gray.max() == 255
    assert (gray == 255).sum() == 1
    assert (gray > 0).sum() == 1


def test_activity_uniform_path(env):
    from conftest import make_trajectory

    traj = make_trajectory(env, [0] * 20)
    traj.xs[:] = 20.0 + np.arange(20) * 2.0  # distinct pixels each tick
    traj.ys[:] = 22.0
    gray = render_activity_map(traj, env, px_per_mm=1.0)
    assert (gray == 255).sum() == 20
    assert (gray > 0).sum() == 20


def test_activity_inverse_map_recovers_histogram(env, auto):
    traj = run_trial(env, MotionParams(q_scale=0.3), auto, seed=9, duration=400)
    scale = 2.0
    gray = render_activity_map(traj, env, px_per_mm=scale)
    # rebuild the per-pixel histogram independently
    h, w = gray.shape
    counts = np.zeros((h, w), dtype=int)
    for k in range(traj.n_ticks):
        px = int(round(traj.xs[k] * scale))
        py = h - 1 - int(round(traj.ys[k] * scale))
        counts[py, px] += 1
    peak = counts.max()
    recovered = gray.astype(float) * peak / 255.0
    assert np.all(np.abs(recovered - counts) <= 0.5 * peak / 255.0 + 1e-9)


def test_ppm_round_trip(tmp_path):
    frame = _frame_with([((1, 2), (10, 200, 30))], width=5, height=4)
    path = tmp_path / "f.ppm"
    write_ppm(path, frame)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n5 4\n255\n")
    back = read_ppm(path)
    assert back.width == 5 and back.height == 4
    assert np.array_equal(back.pixels, frame.pixels)


def test_pgm_round_trip(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "g.pgm"
    write_pgm(path, gray)
    assert path.read_bytes().startswith(b"P5\n4 3\n255\n")
    assert np.array_equal(read_pgm(path), gray)


def test_ppm_header_with_comment(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# comment line\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255]))
    frame = read_ppm(path)
    assert frame.width == 2 and frame.height == 1


def test_frame_dir_round_trip(tmp_path, env, auto):
    traj = run_trial(env, MotionParams(q_scale=0.5), auto, seed=2, duration=30)
    for i, frame in enumerate(render_frames(traj, env, px_per_mm=2.0)):
        write_ppm(tmp_path / frame_filename(i), frame)
    frames = list(read_frame_dir(tmp_path))
    assert len(frames) == 30
    tracked = frames_to_trajectory(frames, threshold=40, mm_per_px=0.5, env=env)
    err_px = np.hypot(tracked.xs - traj.xs, tracked.ys - traj.ys) * 2.0
    rms = float(np.sqrt(np.mean(err_px ** 2)))
    assert rms <= 1.0


def test_render_frames_walls_not_dark(env, auto, motion):
    traj = run_trial(env, motion, auto, seed=4, duration=1)
    frame = next(iter(render_frames(traj, env, px_per_mm=2.0)))
    dark = extract_dark_pixels(frame, threshold=40)
    assert 0 < dark.shape[0] <= 13  # only the leech disc


def test_read_frame_dir_requires_frames(tmp_path):
    with pytest.raises(TrackError):
        list(read_frame_dir(tmp_path))


# --- tracker output pinned against the coordinate-list centroid ---------------


def _reference_dark_pixels(frame, threshold):
    """The tracker's original (x, y) dark-pixel list: every channel below."""
    ys, xs = np.nonzero((frame.pixels < threshold).all(axis=2))
    return np.stack((xs, ys), axis=1)


def _reference_centroid(frame, threshold):
    """The tracker's original centroid: mean of the dark-pixel list."""
    dark = _reference_dark_pixels(frame, threshold)
    if dark.shape[0] == 0:
        return None
    return float(dark[:, 0].mean()), float(dark[:, 1].mean())


def _reference_track(frames, threshold, mm_per_px):
    """(x_mm, y_mm) per frame by the original formula, carrying empty frames."""
    out, prev = [], None
    for frame in frames:
        c = _reference_centroid(frame, threshold)
        if c is not None:
            prev = (round(c[0] * mm_per_px, 3),
                    round((frame.height - 1 - c[1]) * mm_per_px, 3))
        out.append(prev)
    return out


@st.composite
def _frames(draw, width=None, height=None):
    """A frame whose dark set is random, a single pixel, the border, all or none."""
    width = width or draw(st.integers(1, 24))
    height = height or draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["random", "single", "border", "full", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    else:
        pixels = np.full((height, width, 3), 255, dtype=np.uint8)
        dark = rng.integers(0, 40, size=3, dtype=np.uint8)
        if kind == "single":
            y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
            pixels[y, x] = dark
        elif kind == "border":
            pixels[[0, -1], :] = dark
            pixels[:, [0, -1]] = dark
        elif kind == "full":
            pixels[:] = dark
    return Frame(width, height, pixels)


_THRESHOLDS = st.one_of(st.sampled_from([1, 255]), st.integers(1, 255))


@given(frame=_frames(), threshold=_THRESHOLDS)
def test_dark_centroid_is_the_coordinate_list_mean(frame, threshold):
    from leechsim.trackio import _dark_centroid

    assert _dark_centroid(frame, threshold) == _reference_centroid(frame, threshold)


@given(data=st.data(), threshold=_THRESHOLDS, mm_per_px=st.floats(0.01, 10.0))
def test_tracker_matches_reference(data, threshold, mm_per_px):
    width, height = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 16))
    frames = data.draw(st.lists(_frames(width, height), min_size=1, max_size=6))
    for frame in frames:
        assert np.array_equal(extract_dark_pixels(frame, threshold),
                              _reference_dark_pixels(frame, threshold))
    expected = _reference_track(frames, threshold, mm_per_px)
    if expected[0] is None:
        with pytest.raises(TrackError):
            frames_to_trajectory(frames, threshold=threshold, mm_per_px=mm_per_px)
        return
    traj = frames_to_trajectory(frames, threshold=threshold, mm_per_px=mm_per_px)
    assert list(zip(traj.xs.tolist(), traj.ys.tolist())) == expected


def test_dark_centroid_pairs_channel_bytes_across_row_ends():
    """Partly dark pixels end rows 0-2 right before fully dark pixels start
    rows 1-3; the frame's last pixel is fully dark."""
    from leechsim.trackio import _dark_centroid

    frame = _frame_with([((3, 0), (0, 0, 255)), ((0, 1), (5, 5, 5)),
                         ((3, 1), (0, 255, 0)), ((0, 2), (5, 5, 5)),
                         ((3, 2), (255, 0, 0)), ((0, 3), (5, 5, 5)),
                         ((3, 3), (39, 39, 39))], width=4, height=4)
    assert [tuple(p) for p in extract_dark_pixels(frame)] == [(0, 1), (0, 2),
                                                             (0, 3), (3, 3)]
    assert _dark_centroid(frame, 40) == (3 / 4, 9 / 4) == _reference_centroid(frame, 40)
    assert _dark_centroid(frame, 39) == (0.0, 2.0)


def _pinned_frames(env):
    """60 frames of a leech blob sweeping the arena plus dark speckles.

    The speckles make the centroids fractional; some are dark in only one or
    two channels, which must not count.  Frame 7 is blank, so it carries
    frame 6's position forward.
    """
    from conftest import make_trajectory

    n = 60
    traj = make_trajectory(env, [0] * n)
    traj.xs[:] = np.linspace(1.0, env.interior_width - 1.0, n)
    traj.ys[:] = 13.5 + 12.0 * np.sin(np.arange(n) * 0.7)
    rng = np.random.default_rng(2015)
    frames = list(render_frames(traj, env, px_per_mm=2.0))
    for frame in frames:
        h, w = frame.pixels.shape[:2]
        for _ in range(int(rng.integers(0, 12))):
            frame.pixels[rng.integers(0, h), rng.integers(0, w)] = \
                rng.integers(0, 80, size=3, dtype=np.uint8)
    frames[7].pixels[:] = 255
    return frames


# sha256 of `leechsim track` on _pinned_frames, written by the tracker that
# took the mean of the dark-pixel coordinate list
PINNED_TRACK_SHA256 = "7aab90a1159e2813f6f2e3264f517534038d0b0a206af2f3939c281ebde55001"


def test_track_cli_output_is_pinned(tmp_path, env):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i, frame in enumerate(_pinned_frames(env)):
        write_ppm(frame_dir / frame_filename(i), frame)
    config = tmp_path / "config.json"
    config.write_text("{}")
    out = tmp_path / "tracked.csv"
    assert main(["track", str(frame_dir), "--threshold", "40", "--px-per-mm", "2",
                 "--manifest", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TRACK_SHA256


def test_tracked_csv_is_the_same_bytes_on_one_two_and_three_cpus(tmp_path, env,
                                                                 monkeypatch):
    """The 59 frames after the first go in chunks of 2 to 8 frames to as
    many slices as CPUs; the CSV is the serial tracker's at every count."""
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i, frame in enumerate(_pinned_frames(env)):
        write_ppm(frame_dir / frame_filename(i), frame)
    config = tmp_path / "config.json"
    config.write_text("{}")
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            slices = pin_cpus(patch, cpus)
            out = tmp_path / f"tracked-{cpus}.csv"
            assert main(["track", str(frame_dir), "--threshold", "40", "--px-per-mm", "2",
                         "--manifest", str(config), "--out", str(out)]) == 0
        assert slices == [cpus]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_TRACK_SHA256


def _moving_dot_frames(n):
    """n 12x6 frames, each with one dark pixel that moves along row 2."""
    frames = [blank_frame(12, 6) for _ in range(n)]
    for i, frame in enumerate(frames):
        frame.pixels[2, i % 12] = (0, 0, 0)
    return frames


def _chunk(rows, slices):
    """The rows a slice claims at a time (see ``montecarlo._fill``)."""
    return -(-rows // (8 * slices))


def test_empty_frame_opening_a_chunk_carries_the_previous_chunks_position():
    """33 frames: the 32 after the first go in chunks of 2 at 2 and 3 slices.
    Frame 3 opens the second chunk and frames 5 and 6 are a whole chunk,
    all blank, so their positions come from chunks another slice tracked."""
    frames = _moving_dot_frames(33)
    assert _chunk(32, 2) == _chunk(32, 3) == 2
    for i in (3, 5, 6):
        frames[i].pixels[:] = 255
    expected = _reference_track(frames, 40, 1.0)
    assert expected[3] == expected[2] and expected[5] == expected[6] == expected[4]
    for workers in (1, 2, 3):
        traj = frames_to_trajectory(frames, threshold=40, mm_per_px=1.0, workers=workers)
        assert list(zip(traj.xs.tolist(), traj.ys.tolist())) == expected


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-5])


def _bad_header(path):
    path.write_bytes(b"P6\nx 6\n255\n" + bytes(12 * 6 * 3))


def _wider(path):
    frame = blank_frame(13, 6)
    frame.pixels[2, 3] = (0, 0, 0)
    write_ppm(path, frame)


@pytest.mark.parametrize("first, second, error", [
    (_truncate, _bad_header, "{path}: truncated pixel data"),
    (_bad_header, _wider, "{path}: bad header token b'x'"),
    (_wider, _truncate, "frame 20 is 13x6, expected 12x6"),
], ids=["truncated", "bad-header", "size-mismatch"])
def test_tracking_in_chunks_raises_the_first_fault_in_frame_order(tmp_path, first,
                                                                   second, error):
    """Frame 20 opens a later chunk than frame 0's at 2 and 3 slices, and
    frame 27 holds a second fault, which no process may report instead."""
    for i, frame in enumerate(_moving_dot_frames(33)):
        write_ppm(tmp_path / frame_filename(i), frame)
    first(tmp_path / frame_filename(20))
    second(tmp_path / frame_filename(27))
    expected = error.format(path=tmp_path / frame_filename(20))
    for workers in (1, 2, 3):
        with pytest.raises(TrackError) as raised:
            frames_to_trajectory(read_frame_dir(tmp_path), threshold=40, mm_per_px=1.0,
                                 workers=workers)
        assert str(raised.value) == expected


def test_track_memory_does_not_grow_with_the_frame_count(tmp_path, env, auto, monkeypatch):
    """``track`` holds one frame at a time: 350 more frames of about 175 KB
    may add their file names and positions, but not a few frames.  One CPU,
    since tracemalloc does not see forked workers."""
    pin_cpus(monkeypatch, 1)
    frames = render_frames(run_trial(env, MotionParams(q_scale=0.5), auto, seed=2,
                                     duration=400), env, px_per_mm=4.0)
    dirs = {n: tmp_path / f"frames{n}" for n in (50, 400)}
    for n, frame_dir in dirs.items():
        frame_dir.mkdir()
        for i in range(n):
            write_ppm(frame_dir / frame_filename(i), frames[i])
    frame_bytes = frames[0].pixels.nbytes
    def peak(n):
        return main_peak_bytes(["track", str(dirs[n]), "--px-per-mm", "4",
                                "--out", str(tmp_path / f"t{n}.csv")])

    peak(50)  # fill the reader's caches
    grown = peak(400) - peak(50)
    assert grown < 3 * frame_bytes, (grown, frame_bytes)


# --- PNM headers and renderers against their per-byte and per-sample oracles --


def test_magic_must_be_followed_by_whitespace_or_a_comment(tmp_path):
    path = tmp_path / "f.ppm"
    path.write_bytes(b"P61 1 255\n" + bytes(3))
    with pytest.raises(TrackError, match="expected P6 file"):
        read_ppm(path)
    path.write_bytes(b"P6#c\n1 1 255\n" + bytes(3))
    assert read_ppm(path).width == 1


def test_header_token_too_long_names_the_file(tmp_path, capsys):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    path = frame_dir / frame_filename(0)
    path.write_bytes(b"P6\n" + b"1" * 5000 + b" 1\n255\n" + bytes(3))
    assert main(["track", str(frame_dir), "--out", str(tmp_path / "t.csv")]) == 3
    assert f"{path}: header token of 5000 digits is too long" in capsys.readouterr().err


@pytest.mark.parametrize("size", [b"1" + b"0" * 30 + b" 0", b"0 1" + b"0" * 30],
                         ids=["width", "height"])
def test_empty_image_of_a_dimension_past_numpys_names_the_file(tmp_path, capsys, size):
    """An image of 0 bytes passes the truncation check, so the dimension
    only fails when the pixels take their shape."""
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    path = frame_dir / frame_filename(0)
    path.write_bytes(b"P6\n" + size + b"\n255\n")
    assert main(["track", str(frame_dir), "--out", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert f"error: {path}: Maximum allowed dimension exceeded" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("indices, missing", [((1, 2, 3), 0), ((0, 1, 2, 4), 3),
                                              ((0, 2), 1), ((0, 1, 7, 8, 9), 2)])
def test_read_frame_dir_names_the_first_missing_frame(tmp_path, indices, missing):
    for i in indices:
        (tmp_path / frame_filename(i)).touch()
    # names that are not frame files do not count
    for name in ("frame_000005.ppm.bak", "frame_0000006.ppm", "Frame_000004.ppm"):
        (tmp_path / name).touch()
    with pytest.raises(TrackError, match=f"{frame_filename(missing)}: missing frame"):
        read_frame_dir(tmp_path)


def test_frame_names_take_ascii_digits_only(tmp_path):
    for name in (frame_filename(0), "frame_\u0660\u0660\u0660\u0660\u0660\u0661.ppm"):
        write_ppm(tmp_path / name, blank_frame(3, 2))
    assert len(list(read_frame_dir(tmp_path))) == 1


def test_read_frames_are_read_only_views(tmp_path):
    path = tmp_path / "f.ppm"
    write_ppm(path, blank_frame(3, 2))
    assert not read_ppm(path).pixels.flags.writeable


_ASCII_SPACES = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_SEPARATORS = st.lists(_ASCII_SPACES | st.binary(max_size=6).map(
    lambda b: b"#" + b.replace(b"\n", b"") + b"\n"), min_size=1, max_size=3).map(b"".join)
# every character str.isspace accepts, UTF-8 encoded (bytes.isspace, like the
# header grammar, knows only the six ASCII ones), a comment with any bytes, or
# nothing at all
_ODD_SEPARATORS = st.sampled_from([c.encode() for c in map(chr, range(0x3001))
                                   if c.isspace()] + [b""]) \
    | st.binary(max_size=6).map(lambda b: b"#" + b)
_NUMBERS = st.integers(0, 300).map(lambda n: str(n).encode())
_MAXVALS = st.sampled_from([b"255", b"255", b"255", b"0255", b"256"])
_ODD_TOKENS = st.sampled_from([b"9" * 20, b"1" + b"0" * 4299, b"9" * 4301,
                               b"1" * 5000, b"-1", b"\xc2\xb2", b"3#4"]) \
    | st.binary(min_size=1, max_size=3)


@st.composite
def _pnm_headers(draw, magic):
    """Mostly ``magic`` and three numbers, each after whitespace and
    comments, then payload bytes; sometimes another magic, an odd token or
    separator, or the whole cut short."""
    def odd():
        return draw(st.integers(0, 3)) == 3

    data = draw(st.sampled_from([b"P5", b"P6", b"P3"])) if odd() else magic
    for field in (_NUMBERS, _NUMBERS, _MAXVALS):
        data += draw(_ODD_SEPARATORS if odd() else _SEPARATORS)
        data += draw(_ODD_TOKENS if odd() else field)
    data += draw(_ODD_SEPARATORS if odd() else _SEPARATORS) + draw(st.binary(max_size=4))
    return data[:draw(st.integers(0, len(data)))] if odd() else data


def _parsed(parse, data, magic):
    try:
        return parse(data, magic, "f.pnm")
    except TrackError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(magic=st.sampled_from([b"P5", b"P6"]), draw=st.data())
def test_header_parser_matches_the_per_byte_oracle(magic, draw):
    from conftest import parse_pnm_header_per_byte

    data = draw.draw(_pnm_headers(magic))
    expected = _parsed(parse_pnm_header_per_byte, data, magic)
    after = data[len(magic):len(magic) + 1]
    if data.startswith(magic) and after and not (after.isspace() or after == b"#"):
        expected = f"f.pnm: expected {magic.decode()} file"  # the oracle reads on
    assert _parsed(_parse_pnm_header, data, magic) == expected


_COORDS = st.floats(-3.0, 140.0) | st.sampled_from([1e300, -1e300, -0.75, -0.5, -0.25,
                                                   0.0, 27.0, 27.5, 134.0, 134.75])


@st.composite
def _paths(draw):
    """1, 2 or many samples drawn from a few positions, so that discs
    overdraw, some of them off the canvas or far beyond it."""
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 40))
    pool = draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=n))
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                           min_size=n, max_size=n))]


@settings(max_examples=30, deadline=None)
@given(path=_paths(), px_per_mm=st.sampled_from([0.05, 0.5, 1.0, 2.0, 4.0, 6.5]))
def test_renderers_match_the_per_sample_oracles(env, path, px_per_mm):
    from conftest import (make_trajectory, render_activity_map_per_sample,
                          render_frames_per_sample, render_time_overlay_per_sample)

    traj = make_trajectory(env, [0] * len(path))
    traj.xs[:], traj.ys[:] = zip(*path)

    def images(*arrays):
        return [(a.shape, a.dtype, a.tobytes()) for a in arrays]

    assert images(render_time_overlay(traj, env, px_per_mm).pixels) == \
        images(render_time_overlay_per_sample(traj, env, px_per_mm).pixels)
    assert images(render_activity_map(traj, env, px_per_mm)) == \
        images(render_activity_map_per_sample(traj, env, px_per_mm))
    assert images(*(f.pixels for f in render_frames(traj, env, px_per_mm))) == \
        images(*(f.pixels for f in render_frames_per_sample(traj, env, px_per_mm)))


_DRAW_FRAME_KINDS = st.lists(st.sampled_from(["truncate", "flip", "duplicate", "huge"]),
                             min_size=1, max_size=3)
_DRAW_INDEX = st.integers(0, 2**16)
_DRAW_HUGE = st.sampled_from([b"9" * 20, str(2**64).encode(), b"1" + b"0" * 4299,
                              b"9" * 4301, b"0" * 5000])


@st.composite
def _hostile_frames(draw, files):
    """The valid frame files, one of them cut short, with bytes flipped to
    any value, a run of bytes duplicated, or a header field replaced by a
    huge integer."""
    files = list(files)
    k = draw(st.integers(0, len(files) - 1))
    data = files[k]
    for kind in draw(_DRAW_FRAME_KINDS):
        at = draw(_DRAW_INDEX) % max(len(data), 1)
        if kind == "truncate":
            data = data[:at]
        elif kind == "flip":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "duplicate":
            data = data[:at] + data[at:at + draw(st.integers(1, 64))] + data[at:]
        else:
            fields = data.split(b"\n", 3)
            row = draw(st.integers(1, 2)) if len(fields) == 4 else 0
            tokens = fields[row].split(b" ")
            tokens[at % len(tokens)] = draw(_DRAW_HUGE)
            fields[row] = b" ".join(tokens)
            data = b"\n".join(fields)
    files[k] = data
    return files


@pytest.fixture(scope="module")
def valid_frames(tmp_path_factory, env, auto, motion):
    """A directory for frame files, and three valid ones as bytes."""
    traj = run_trial(env, motion, auto, seed=3, duration=3)
    path = tmp_path_factory.mktemp("frames") / "f.ppm"
    files = []
    for frame in render_frames(traj, env, px_per_mm=0.5):
        write_ppm(path, frame)
        files.append(path.read_bytes())
    return path.parent, files


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_track_on_hostile_frames_ends_in_exit_0_2_or_3(valid_frames, data):
    """No frame file raises out of ``main``; a refused run writes no CSV."""
    frame_dir, files = valid_frames
    for i, raw in enumerate(data.draw(_hostile_frames(files))):
        (frame_dir / frame_filename(i)).write_bytes(raw)
    out = frame_dir / "tracked.csv"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["track", str(frame_dir), "--px-per-mm", "0.5", "--out", str(out)])
    assert code in (0, 2, 3)
    assert out.exists() == (code == 0)
