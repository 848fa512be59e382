import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leechsim.locomotion as locomotion
import leechsim.montecarlo as montecarlo
from leechsim.automaton import Mode
from leechsim.geometry import UNKNOWN, WALL, build_corridor_template
from leechsim.locomotion import MotionParams, run_trial
from leechsim.montecarlo import (
    derive_trial_seed,
    ensemble_stats,
    read_stats_csv,
    run_ensemble,
    visit_counts,
    visit_frequencies,
    write_dwell_csv,
    write_stats_csv,
)

from conftest import fresh_env, make_trajectory, recount_passes


# --- the per-trajectory, per-run reducers: oracles for VisitCounts -----------


def visit_frequencies_per_run(trajs):
    n = len(trajs)
    counts = dict.fromkeys(range(1, trajs[0].env.n_rooms + 1), 0)
    for traj in trajs:
        for room in np.unique(traj.regions):
            if room > 0:
                counts[int(room)] += 1
    return {room: c / n for room, c in counts.items()}


def time_fractions_per_run(trajs):
    total = sum(t.n_ticks for t in trajs)
    ticks = dict.fromkeys(range(1, trajs[0].env.n_rooms + 1), 0)
    for traj in trajs:
        rooms, counts = np.unique(traj.regions[traj.regions > 0], return_counts=True)
        for room, c in zip(rooms, counts):
            ticks[int(room)] += int(c)
    return {room: c / total for room, c in ticks.items()}


def mode_dwell_histograms_per_run(trajs):
    dwell = {m: [] for m in Mode}
    for traj in trajs:
        modes = traj.modes
        if modes.size == 0:
            continue
        cuts = np.flatnonzero(np.diff(modes)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [modes.size]))
        for s, e in zip(starts, ends):
            dwell[Mode(int(modes[s]))].append(int(e - s))
    return dwell


def mode_dwell(counts):
    """``counts.mode_runs()`` as {mode: {duration: count}}."""
    table = counts.mode_runs()
    return {m: {int(d): int(table[m, d]) for d in np.flatnonzero(table[m])} for m in Mode}


def _count_bytes(counts):
    """The tables a reduction gives, as bytes, with their shapes and dtypes."""
    return [(a.shape, a.dtype, a.tobytes())
            for a in (counts.ticks, counts.passes, counts.mode_runs())]


def _assert_reducers_match_oracles(trajs):
    counts = ensemble_stats(trajs)
    assert counts.visit_frequencies() == visit_frequencies_per_run(trajs)
    assert visit_frequencies(trajs) == counts.visit_frequencies()
    assert counts.time_fractions() == time_fractions_per_run(trajs)
    dwell = mode_dwell_histograms_per_run(trajs)
    assert mode_dwell(counts) == {m: dict(Counter(runs)) for m, runs in dwell.items()}
    for workers in (2, 3):
        assert _count_bytes(ensemble_stats(trajs, workers)) == _count_bytes(counts)


def _splitmix_vectorized(base_seed, n):
    """Independent numpy recomputation of the seed mixer."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(base_seed) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def test_seed_mixer_matches_vectorized_oracle():
    vec = _splitmix_vectorized(12345, 1000)
    for i in range(1000):
        assert derive_trial_seed(12345, i) == int(vec[i])


def test_seed_mixer_no_collisions_below_2_20():
    seeds = _splitmix_vectorized(0xDEADBEEF, 1 << 20)
    assert np.unique(seeds).size == 1 << 20
    # and the scalar path agrees on spot checks
    for i in (0, 1, 65535, (1 << 20) - 1):
        assert derive_trial_seed(0xDEADBEEF, i) == int(seeds[i])


def test_adjacent_trials_differ(env, auto, motion):
    trajs = run_ensemble(env, motion, auto, 2, base_seed=9, duration=200)
    assert not np.array_equal(trajs[0].xs, trajs[1].xs)


def test_ensemble_reproducible(env, auto, motion):
    a = run_ensemble(env, motion, auto, 4, base_seed=5, duration=150)
    b = run_ensemble(env, motion, auto, 4, base_seed=5, duration=150)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.xs, tb.xs)
        assert np.array_equal(ta.modes, tb.modes)


def test_single_trial_matches_run_trial(env, auto, motion):
    ens = run_ensemble(env, motion, auto, 1, base_seed=77, duration=100)
    direct = run_trial(env, motion, auto, derive_trial_seed(77, 0), 100)
    assert np.array_equal(ens[0].xs, direct.xs)
    assert np.array_equal(ens[0].regions, direct.regions)


def test_worker_count_does_not_change_results(env, auto, motion):
    serial = run_ensemble(env, motion, auto, 6, base_seed=3, duration=120, workers=1)
    parallel = run_ensemble(env, motion, auto, 6, base_seed=3, duration=120, workers=3)
    for ts, tp in zip(serial, parallel):
        assert ts.trial_id == tp.trial_id
        assert np.array_equal(ts.xs, tp.xs)
        assert np.array_equal(ts.ys, tp.ys)
        assert np.array_equal(ts.modes, tp.modes)


def test_ensemble_stats_in_slices_equal_one_process(env, auto, motion):
    trajs = run_ensemble(env, motion, auto, 5, base_seed=3, duration=300)
    one = ensemble_stats(trajs)
    for workers in (2, 3, 8):
        sliced = ensemble_stats(trajs, workers)
        assert np.array_equal(sliced.ticks, one.ticks)
        assert np.array_equal(sliced.mode_runs(), one.mode_runs())
    longer = make_trajectory(env, [0] * 301, trial_id=5)
    for ragged in ([longer] + trajs, trajs + [longer]):
        one = ensemble_stats(ragged)
        assert one.duration == 301
        for workers in (2, 3):
            assert _count_bytes(ensemble_stats(ragged, workers)) == _count_bytes(one)


def test_ensemble_stats_sized_by_the_caller(env):
    """A caller's ``env`` and ``duration`` size the counts as a list sizes
    them itself; no trajectory may be longer than ``duration``."""
    trajs = [make_trajectory(env, [0, 1, 1, 2], trial_id=i) for i in range(3)]
    trajs.append(make_trajectory(env, [0, 2], trial_id=3))
    for workers in (1, 2):
        assert _count_bytes(ensemble_stats(trajs, workers, env=env, duration=4)) == \
            _count_bytes(ensemble_stats(trajs))
        with pytest.raises(ValueError, match="^trial 0: 4 ticks, more than the duration of 3$"):
            ensemble_stats(trajs, workers, env=env, duration=3)
    with pytest.raises(ValueError, match="^mixed environments in ensemble$"):
        ensemble_stats(trajs, env=build_corridor_template(rooms=4))


def test_ensemble_stats_in_slices_raise_the_error_of_one_process(env):
    """Trajectory 0 is bad, and no process reads it before the slices do."""
    bad = [make_trajectory(env, [0, 0], modes=[1, 9])]
    bad += [make_trajectory(env, [0, 1, 2], trial_id=i) for i in (1, 2, 3)]
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="^9 is not a valid Mode$"):
            ensemble_stats(bad, workers)


def test_ensemble_stats_counts_each_trajectory_in_its_own_row(env, monkeypatch):
    """Recording one trajectory touches one row of the counts, so a run's
    trajectories cost time linear in the trial count, not quadratic."""
    sizes, bincount = [], np.bincount

    def counted_bincount(x, weights=None, minlength=0):
        sizes.append(minlength)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    trajs = [make_trajectory(env, [0, 1, 1, 2], trial_id=i) for i in range(50)]
    assert ensemble_stats(trajs).visit_frequencies()[1] == 1.0
    assert sizes and max(sizes) == env.n_rooms + 1


def test_lazy_sequence_makes_an_item_only_when_it_is_reached():
    made = []

    def make(key):
        made.append(key)
        return 10 * key

    seq = montecarlo._LazySequence(make, range(12))
    part = seq[2:9][1:4]
    items = iter(seq)
    assert (len(seq), len(part), made) == (12, 3, [])
    assert list(part) == [30, 40, 50] and made == [3, 4, 5]
    made.clear()
    assert seq[7] == 70 and made == [7]
    made.clear()
    assert next(items) == 0 and made == [0]
    assert list(items) == [10 * key for key in range(1, 12)] and made == list(range(12))


def _visit(out, s, row, item):
    """A ``_fill_rows`` row body: count row's visit and the slice that made it."""
    if item != row:
        raise ValueError(f"row {row} got item {item}")
    out["visits"][row] += 1
    out["slices"][row] = s


def test_fill_rows_runs_every_row_once_on_more_slices_than_cpus():
    """Six slices on fewer CPUs claim chunks of 21 rows from one shared
    counter; a claim lost or made twice leaves a row visited 0 or 2 times."""
    n = 1000
    out = locomotion._shared_arrays({"visits": ((n,), np.int64),
                                     "slices": ((n,), np.int64)})
    montecarlo._fill_rows(out, range(n), 6, _visit)
    assert np.array_equal(out["visits"], np.ones(n, dtype=np.int64))
    chunks = [set(out["slices"][lo:lo + 21].tolist()) for lo in range(0, n, 21)]
    assert all(len(chunk) == 1 and chunk <= set(range(6)) for chunk in chunks)


def _visit_rows(faults, out, s, lo, hi):
    """A ``_fill`` body: count a visit of rows lo..hi, then fail at the
    first of them in ``faults``."""
    out["visits"][lo:hi] += 1
    bad = [row for row in sorted(faults) if lo <= row < hi]
    if bad:
        raise ValueError(f"row {bad[0]}")


def test_fill_claims_more_chunks_than_the_pipe_holds():
    """40,000 rows in chunks of 2 on 2 slices are 20,000 claims, 80 KB of
    chunk indices, more than a 64 KiB pipe holds: the parent writes them
    while the slices read.  Rows 3 and 5 fail in chunks 1 and 2, so both
    slices exit with most claims unread, and row 3's error is raised."""
    n = 40_000
    out = locomotion._shared_arrays({"visits": ((n,), np.int64)})
    montecarlo._fill(out, n, 2, 10_000, partial(_visit_rows, ()))
    assert np.array_equal(out["visits"], np.ones(n, dtype=np.int64))
    with pytest.raises(ValueError, match="^row 3$"):
        montecarlo._fill(out, n, 2, 10_000, partial(_visit_rows, (5, 3)))


# records, at each _fill call of two kernel ensembles, whether numpy.random
# is loaded: a fresh interpreter, since this one has loaded it
_NUMPY_RANDOM_AT_FORK = """
import sys
import leechsim.montecarlo as montecarlo
from leechsim.automaton import AutomatonParams
from leechsim.geometry import build_corridor_template
from leechsim.locomotion import MotionParams
loaded, fill = [], montecarlo._fill
def checked_fill(*args):
    loaded.append("numpy.random" in sys.modules)
    return fill(*args)
montecarlo._fill = checked_fill
env, motion, auto = build_corridor_template(), MotionParams(), AutomatonParams()
montecarlo.run_ensemble(env, motion, auto, 4, 1, duration=50, workers=2)
montecarlo.visit_counts(env, motion, auto, 4, 1, duration=50, workers=2)
print(loaded)
"""


def test_kernel_slices_inherit_numpy_random():
    """The parent loads ``numpy.random`` before a kernel ensemble forks, so
    each slice shares its pages instead of importing it again."""
    proc = subprocess.run([sys.executable, "-c", _NUMPY_RANDOM_AT_FORK], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[True, True]\n"), proc.stderr


@pytest.mark.parametrize("workers", [0, -5])
def test_worker_count_below_one_rejected(env, auto, motion, workers):
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_ensemble(env, motion, auto, 2, base_seed=1, duration=10, workers=workers)


def test_failed_worker_raises(env, auto, motion, monkeypatch):
    """A forked slice's error is raised again in-process, type and text."""
    def out_of_memory(ctx, seeds, out):
        raise MemoryError("no room for the draw buffers")

    monkeypatch.setattr(montecarlo, "_simulate", out_of_memory)
    for ensemble in (run_ensemble, visit_counts):
        for workers in (1, 2):
            with pytest.raises(MemoryError, match="^no room for the draw buffers$"):
                ensemble(env, motion, auto, 4, base_seed=1, duration=10, workers=workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_slices_raise_the_first_fault_of_one_process(env, auto, motion, workers):
    """Trials 5 and 9 of 12 fail, in different slices at 2 and 3 workers;
    trial 5's error is the one raised, as at one worker."""
    def sink(traj):
        if traj.trial_id in (5, 9):
            raise ValueError(f"bad trial {traj.trial_id}")

    with pytest.raises(ValueError, match="^bad trial 5$") as raised:
        run_ensemble(env, motion, auto, 12, base_seed=1, duration=10, workers=workers,
                     sink=sink)
    assert raised.type is ValueError


def test_a_killed_slice_raises_its_exit_code():
    """A slice that dies raises nothing to run again, so its exit code is
    named instead."""
    parent = os.getpid()

    def die(out, s, lo, hi):
        if os.getpid() != parent:
            os._exit(7)

    with pytest.raises(RuntimeError, match=r"^2 of 2 slices failed with exit codes \[7, 7\]$"):
        montecarlo._fill(None, 4, 2, 1, die)


@pytest.mark.parametrize("q", [0.25, 0.0])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block", [256, 5])
def test_visit_counts_match_the_trajectories(env, auto, monkeypatch, q, workers, block):
    """The kernel's counters reduce the same trials the arrays record."""
    monkeypatch.setattr(locomotion, "_BLOCK", block)
    motion = MotionParams(q_scale=q)
    trajs = run_ensemble(env, motion, auto, 24, 31, duration=500, workers=workers)
    counts = visit_counts(env, motion, auto, 24, 31, duration=500, workers=workers)
    stats = ensemble_stats(trajs)
    assert counts.visit_frequencies() == stats.visit_frequencies()
    assert counts.time_fractions() == stats.time_fractions()
    assert np.array_equal(counts.mode_runs(), stats.mode_runs())
    assert np.array_equal(counts.ticks, stats.ticks)
    recount = recount_passes(env, motion, trajs)
    assert np.array_equal(counts.passes[:, 1:], recount[:, 1:])
    assert (counts.ticks.sum(axis=1) == 500).all()
    assert (counts.passes.sum(axis=1) == 500).all()
    assert counts.passes[:, 1:].sum() > 0
    if q == 0.0:  # passes are counted, but nothing enters a room
        assert (counts.ticks[:, 1:] == 0).all()


def test_visit_frequencies_counting(env):
    t1 = make_trajectory(env, [0, 1, 0, 4])
    t2 = make_trajectory(env, [0, 1, 0, 0])
    freq = visit_frequencies([t1, t2])
    assert freq[1] == 1.0
    assert freq[4] == 0.5
    assert freq[2] == freq[8] == 0.0


def test_visit_frequencies_all_corridor(env):
    freq = visit_frequencies([make_trajectory(env, [0] * 10)])
    assert all(v == 0.0 for v in freq.values())


def test_time_fractions_counting(env):
    regions = [0] * 75 + [2] * 25
    frac = ensemble_stats([make_trajectory(env, regions)]).time_fractions()
    assert frac[2] == 0.25
    assert frac[1] == 0.0


def test_mode_dwell_runs(env):
    modes = [0] * 5 + [1] * 3
    dwell = mode_dwell(ensemble_stats([make_trajectory(env, [0] * 8, modes=modes)]))
    assert dwell[Mode.STILL] == {5: 1}
    assert dwell[Mode.CRAWL] == {3: 1}
    assert dwell[Mode.EXPLORE] == {}


def test_aggregation_order_independent(env, auto):
    trajs = run_ensemble(env, MotionParams(q_scale=0.3), auto, 12, 21, duration=400)
    base = ensemble_stats(trajs)
    shuffled = trajs[:]
    random.Random(0).shuffle(shuffled)
    assert visit_frequencies(shuffled) == base.visit_frequencies()
    assert ensemble_stats(shuffled).time_fractions() == base.time_fractions()
    assert np.array_equal(ensemble_stats(shuffled).mode_runs(), base.mode_runs())


def test_visit_frequency_boolean_scan_oracle(env, auto):
    """Counting via np.unique must equal a per-trial boolean scan."""
    trajs = run_ensemble(env, MotionParams(q_scale=0.3), auto, 10, 13, duration=600)
    freq = visit_frequencies(trajs)
    for room in range(1, 9):
        hits = sum(1 for t in trajs if any(int(r) == room for r in t.regions))
        assert freq[room] == hits / len(trajs)


def test_mixed_environments_rejected(env):
    other = build_corridor_template(rooms=4)
    t1 = make_trajectory(env, [0, 1])
    t2 = make_trajectory(other, [0, 1])
    with pytest.raises(ValueError):
        visit_frequencies([t1, t2])


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        visit_frequencies([])


def test_missing_env_rejected(env):
    t = make_trajectory(None, [0, 1])
    with pytest.raises(ValueError):
        visit_frequencies([t])


def test_stats_csv_round_trip(tmp_path, env):
    trajs = [make_trajectory(env, [0] * 8 + [1, 1])]
    path = tmp_path / "visits.csv"
    write_stats_csv(env, ensemble_stats(trajs), path)
    rows = read_stats_csv(path)
    assert rows[0] == (1, 1, 1.0, 0.2)
    assert [r[0] for r in rows] == list(range(1, 9))
    assert [r[1] for r in rows] == [1, 2, 3, 4, 4, 3, 2, 1]


def test_dwell_csv_format(tmp_path, env):
    modes = [0, 0, 1, 1, 1, 0]
    counts = ensemble_stats([make_trajectory(env, [0] * 6, modes=modes)])
    path = tmp_path / "dwell.csv"
    write_dwell_csv(counts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mode,duration_ticks,count"
    assert "STILL,1,1" in lines
    assert "STILL,2,1" in lines
    assert "CRAWL,3,1" in lines


def test_reducers_match_the_per_run_oracles_on_a_ragged_ensemble(env):
    trajs = [
        make_trajectory(env, [3], modes=[0]),  # one tick, in a room
        make_trajectory(env, [0, WALL, UNKNOWN, 0, 1, 1], modes=[1, 1, 1, 2, 2, 1]),
        make_trajectory(env, [UNKNOWN], modes=[1]),  # one tick; CRAWL runs on
        make_trajectory(env, [1, 1, 8, 0], modes=[1, 1, 0, 0]),
    ]
    _assert_reducers_match_oracles(trajs)
    counts = ensemble_stats(trajs)
    assert [room for room, f in counts.visit_frequencies().items() if f == 0] == [2, 4, 5, 6, 7]
    assert counts.time_fractions()[1] == 4 / 12
    # CRAWL ends trial 1 and starts trials 2 and 3: three runs, not one
    assert mode_dwell(counts)[Mode.CRAWL] == {3: 1, 1: 2, 2: 1}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reducers_match_the_per_run_oracles(env, seed):
    """Random ragged ensembles, each trajectory over its own subset of the
    region codes (so some rooms go unvisited) with random mode runs."""
    rng = np.random.default_rng(seed)
    codes = np.arange(UNKNOWN, env.n_rooms + 1)
    trajs = []
    for _ in range(rng.integers(1, 7)):
        n = int(rng.integers(1, 41))
        pool = rng.choice(codes, size=int(rng.integers(1, codes.size + 1)))
        modes = np.repeat(rng.integers(0, 3, n), rng.integers(1, 6, n))[:n]
        trajs.append(make_trajectory(env, rng.choice(pool, n), modes))
    _assert_reducers_match_oracles(trajs)


def test_mode_dwell_rejects_modes_the_automaton_lacks(env):
    with pytest.raises(ValueError, match="255 is not a valid Mode"):
        ensemble_stats([make_trajectory(env, [0, 0], modes=[1, 255])])


def test_visit_frequencies_reject_rooms_the_template_lacks(env):
    with pytest.raises(ValueError, match="no region code 9 in a template of 8 rooms"):
        visit_frequencies([make_trajectory(env, [0, 9])])


@pytest.mark.parametrize("regions, modes, message", [
    ([0, -7, -300, 1], [1, 1, 1, 1], "^trial 1: no region code -7 in a template of 8 rooms$"),
    ([0, 9, -7, 1], [1, 1, 1, 1], "^trial 1: no region code 9 in a template of 8 rooms$"),
    ([0, 0, 1, 0], [1, -1, 3, 0], "^-1 is not a valid Mode$"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_stats_refuse_codes_out_of_range(env, regions, modes, message, workers):
    """Each column names its first bad code in tick order, from whichever
    process reads the trajectory."""
    trajs = [make_trajectory(env, [0, 1, 2], trial_id=i) for i in range(4)]
    trajs[1] = replace(make_trajectory(env, regions, trial_id=1), modes=np.array(modes))
    with pytest.raises(ValueError, match=message):
        ensemble_stats(trajs, workers)
