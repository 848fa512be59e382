import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import leechsim.fitstats as fitstats
from leechsim.automaton import AutomatonParams
from leechsim.fitstats import (CalibrationError, PowerLawFit, calibrate_entry_prob,
                               fit_power_law, room_summary)
from leechsim.geometry import build_corridor_template, room_distance_to_end
from leechsim.locomotion import MotionParams, TrialArrays, VisitCounts
from leechsim.montecarlo import (derive_trial_seed, ensemble_stats, run_ensemble,
                                 visit_frequencies)

from conftest import chi_square


def test_fit_recovers_visit_law_sample():
    points = [(1, 0.35), (2, 0.1983), (3, 0.1422), (4, 0.1123)]
    fit = fit_power_law(points)
    assert fit.a == pytest.approx(0.35, abs=1e-3)
    assert fit.b == pytest.approx(-0.82, abs=1e-2)


def test_fit_flat_data():
    fit = fit_power_law([(1, 0.7), (2, 0.7)])
    assert fit.b == 0.0
    assert fit.a == pytest.approx(0.7, rel=1e-12)


def test_fit_exact_two_points():
    fit = fit_power_law([(1, 2), (2, 1)])
    assert fit.b == pytest.approx(-1.0, abs=1e-12)
    assert fit.a == pytest.approx(2.0, rel=1e-12)
    assert fit.rss == pytest.approx(0.0, abs=1e-24)


def test_fit_allows_duplicate_x():
    fit = fit_power_law([(1, 0.35), (1, 0.35), (2, 0.1983), (2, 0.1983)])
    assert fit.b == pytest.approx(-0.82, abs=1e-2)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0)])
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, 0.0)])
    with pytest.raises(ValueError):
        fit_power_law([(1, 1.0), (2, -0.5)])
    with pytest.raises(ValueError):
        fit_power_law([(2, 1.0), (2, 2.0)])
    with pytest.raises(ValueError):
        fit_power_law([(-1, 1.0), (2, 2.0)])


@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=-3.0, max_value=3.0),
)
def test_fit_machine_precision_on_exact_samples(a, b):
    points = [(x, a * x ** b) for x in (1.0, 2.0, 3.0, 5.0, 8.0)]
    fit = fit_power_law(points)
    assert fit.a == pytest.approx(a, rel=1e-9)
    assert fit.b == pytest.approx(b, abs=1e-9)


@given(k=st.floats(min_value=1e-6, max_value=1e6))
def test_fit_scale_equivariance(k):
    base = [(1.0, 0.9), (2.0, 0.5), (4.0, 0.3)]
    ref = fit_power_law(base)
    scaled = fit_power_law([(x, k * y) for x, y in base])
    assert scaled.b == pytest.approx(ref.b, abs=1e-9)
    assert scaled.a == pytest.approx(k * ref.a, rel=1e-9)


def _hand_counts(ticks):
    """Counts of one ensemble whose ``ticks[i]`` are trial i's corridor
    ticks, then each room's."""
    counts = VisitCounts.allocate(len(ticks), len(ticks[0]) - 1, 10, 1)
    counts.ticks[:] = ticks
    return counts


# 4 trials of 10 ticks: rooms 1 and 4 (x = 1) are visited in trials 0 and 1
# for 3 and 5 ticks, room 2 (x = 2) in trial 0 and room 3 in trial 1 for 1
# tick each
_FOUR_ROOMS = [[5, 1, 1, 0, 3], [5, 2, 0, 1, 2], [10, 0, 0, 0, 0], [10, 0, 0, 0, 0]]


def test_room_summary_of_a_known_ensemble():
    """Frequencies 1/2, 1/4, 1/4, 1/2 and time fractions 3, 1, 1 and 5
    ticks of 40: f = x^-1 / 2, so b = -1, and the time means are 1/10 at
    x = 1 and 1/40 at x = 2, a ratio of 4."""
    env = build_corridor_template(rooms=4)
    summary = room_summary(_hand_counts(_FOUR_ROOMS), env)
    assert summary.distance == {1: 1, 2: 2, 3: 2, 4: 1}
    assert summary.frequency == {1: 0.5, 2: 0.25, 3: 0.25, 4: 0.5}
    assert summary.time_fraction == {1: 3 / 40, 2: 1 / 40, 3: 1 / 40, 4: 5 / 40}
    assert summary.frequency_by_distance == [0.5, 0.25]
    assert summary.time_by_distance == [pytest.approx(0.1, rel=1e-15), 1 / 40]
    assert summary.exponent == pytest.approx(-1.0, abs=1e-12)
    assert summary.exponent == fit_power_law([(1, 0.5), (2, 0.25), (2, 0.25), (1, 0.5)]).b
    assert summary.end_inner_ratio == pytest.approx(4.0, rel=1e-15)


def test_room_summary_edges():
    """A room never visited, or rooms all at one distance, leave no
    exponent; inner rooms without ticks make the end/inner ratio inf;
    counts of another template are refused."""
    env = build_corridor_template(rooms=4)
    unvisited = [[5, 1, 1, 0, 3], [6, 2, 0, 0, 2], [10, 0, 0, 0, 0], [10, 0, 0, 0, 0]]
    summary = room_summary(_hand_counts(unvisited), env)
    assert summary.frequency[3] == 0.0 and summary.exponent is None
    assert summary.end_inner_ratio == pytest.approx(8.0, rel=1e-15)
    no_inner = [[7, 1, 0, 0, 2], [10, 0, 0, 0, 0]]
    summary = room_summary(_hand_counts(no_inner), env)
    assert summary.time_by_distance == [pytest.approx(3 / 40, rel=1e-15), 0.0]
    assert summary.exponent is None and summary.end_inner_ratio == float("inf")
    two_ends = room_summary(_hand_counts([[6, 1, 3]]), build_corridor_template(rooms=2))
    assert two_ends.frequency_by_distance == [1.0] and two_ends.exponent is None
    with pytest.raises(ValueError, match="^counts of 4 rooms, template of 8$"):
        room_summary(_hand_counts(_FOUR_ROOMS), build_corridor_template())


def test_chi_square_exact_match_is_zero():
    assert chi_square([25, 25, 50], [0.25, 0.25, 0.5]) == 0.0


def test_chi_square_worked_example():
    assert chi_square([10, 0], [0.5, 0.5]) == pytest.approx(10.0)


def test_chi_square_permutation_invariant():
    a = chi_square([10, 20, 70], [0.2, 0.3, 0.5])
    b = chi_square([70, 10, 20], [0.5, 0.2, 0.3])
    assert a == pytest.approx(b)


def test_chi_square_errors():
    with pytest.raises(ValueError):
        chi_square([0, 0], [0.5, 0.5])
    with pytest.raises(ValueError):
        chi_square([1, 2], [0.5, 0.0])
    with pytest.raises(ValueError):
        chi_square([1, 2], [0.5, 0.4])
    with pytest.raises(ValueError):
        chi_square([1, 2, 3], [0.5, 0.5])


def _small_setup():
    env = build_corridor_template()
    from leechsim.automaton import AutomatonParams

    return env, MotionParams(), AutomatonParams()


def test_calibrate_tiny_target_drives_q_to_zero():
    env, motion, auto = _small_setup()
    result = calibrate_entry_prob(
        env, motion, auto, PowerLawFit(a=0.004, b=-0.82),
        n_trials=60, base_seed=4, tol=1 / 32, duration=400,
    )
    assert result.feasible
    assert result.q_scale <= 2 / 32


def test_zero_trigger_error_equals_sum_of_squared_targets():
    env, motion, auto = _small_setup()
    trajs = run_ensemble(env, replace(motion, q_scale=0.0), auto, 30, 8, duration=300)
    freq = visit_frequencies(trajs)
    assert all(v == 0.0 for v in freq.values())
    targets = {r: 0.35 * room_distance_to_end(env, r) ** -0.82 for r in freq}
    score = sum((freq[r] - targets[r]) ** 2 for r in targets)
    assert score == pytest.approx(sum(t ** 2 for t in targets.values()))


def test_calibrate_reproducible():
    env, motion, auto = _small_setup()
    kwargs = dict(n_trials=40, base_seed=10, tol=1 / 8, duration=300)
    r1 = calibrate_entry_prob(env, motion, auto, PowerLawFit(0.35, -0.82), **kwargs)
    r2 = calibrate_entry_prob(env, motion, auto, PowerLawFit(0.35, -0.82), **kwargs)
    assert r1.q_scale == r2.q_scale
    assert r1.evaluations == r2.evaluations
    assert r1.achieved == r2.achieved


def test_calibrate_infeasible_reports_achieved_curve():
    env, motion, auto = _small_setup()
    result = calibrate_entry_prob(
        env, motion, auto, PowerLawFit(a=1.0, b=-1e-6),
        n_trials=30, base_seed=6, tol=1 / 8, duration=150,
    )
    assert not result.feasible and not result.converged
    assert result.q_scale == 1.0
    assert [q for q, _, _ in result.evaluations] == [0.0, 1.0]
    assert result.ensemble_seed == derive_trial_seed(6, 0)
    assert set(result.achieved) == set(range(1, 9))
    assert all(result.achieved[r] < result.target_values[r] for r in range(1, 9))


def test_calibrate_evaluations_share_one_seed(monkeypatch):
    """Every evaluation runs derive_trial_seed(base_seed, 0): its ensemble
    at the returned q reproduces ``achieved``.  A tiny tol lets the
    correction run, and the search still stops after 3 ensembles."""
    env, motion, auto = _small_setup()
    seen = []

    def no_arrays(*args):
        raise AssertionError("the search stores trajectories")

    with monkeypatch.context() as patch:
        patch.setattr(TrialArrays, "allocate", no_arrays)
        result = calibrate_entry_prob(
            env, motion, auto, PowerLawFit(0.35, -0.82), n_trials=40,
            base_seed=10, tol=1e-9, duration=600,
            progress=lambda *args: seen.append(args))
    assert result.ensemble_seed == derive_trial_seed(10, 0)
    assert len(result.evaluations) == 3
    assert [args[:4] for args in seen] == [
        (i, *e) for i, e in enumerate(result.evaluations)]
    assert {args[4] for args in seen} == {result.ensemble_seed}
    trajs = run_ensemble(env, replace(motion, q_scale=result.q_scale), auto, 40,
                         result.ensemble_seed, duration=600)
    assert visit_frequencies(trajs) == result.achieved
    assert np.array_equal(ensemble_stats(trajs).mode_runs(), result.counts.mode_runs())


def test_calibrate_counts_each_room_s_passes_once(monkeypatch):
    """The window passes of evaluation 0 feed every prediction, so each
    room's distinct pass counts are found once, not once per grid and
    correction.  They are counted by ``np.bincount`` calls made in fitstats;
    the kernel's own calls, made in locomotion, are not counted."""
    env, motion, auto = _small_setup()
    calls = []
    bincount = np.bincount

    def counted_bincount(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == fitstats.__name__:
            calls.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    result = calibrate_entry_prob(env, motion, auto, PowerLawFit(0.35, -0.82),
                                  n_trials=40, base_seed=10, tol=1e-9, duration=600)
    assert len(result.evaluations) == 3  # a prediction, then a correction
    assert 0 < len(calls) <= env.n_rooms


def test_calibrate_rejects_bad_target():
    env, motion, auto = _small_setup()
    with pytest.raises(ValueError):
        calibrate_entry_prob(env, motion, auto, PowerLawFit(a=1.5, b=-0.1),
                             n_trials=10, base_seed=0, duration=100)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            calibrate_entry_prob(env, motion, auto, PowerLawFit(0.35, -0.82),
                                 n_trials=10, base_seed=0, tol=tol, duration=100)


def _stub_counts(monkeypatch, env, shares, passes=None):
    """Make ``visit_counts`` return, call by call, counts in which the first
    ``share`` of the trials visit every room; every trial passes each window
    once, or as ``passes`` gives."""
    shares = iter(shares)

    def stub(env_, motion, auto, n_trials, base_seed, duration, workers):
        ticks = np.zeros((n_trials, env.n_rooms + 1), np.int32)
        ticks[:round(next(shares) * n_trials), 1:] = 1
        return VisitCounts(duration, ticks,
                           np.ones_like(ticks) if passes is None else passes,
                           np.zeros(n_trials, np.intp), np.zeros(n_trials, np.intp),
                           np.zeros((1, 3, duration + 1), np.int64))

    monkeypatch.setattr(fitstats, "visit_counts", stub)


@pytest.mark.parametrize("shares,message", [
    ([1.0, 0.0], r"fell from 1\.0000 \(q=0\.0\) to 0\.0000 \(q=0\.8\d+\)"),
    # the correction then moves q down, to where the mean is higher
    ([0.0, 0.3, 1.0], r"rose from 0\.3000 \(q=0\.8\d+\) to 1\.0000 \(q=0\.6\d+\)"),
], ids=["falls-as-q-rises", "rises-as-q-falls"])
def test_calibrate_refuses_a_mean_that_falls_as_q_grows(monkeypatch, shares, message):
    env, motion, auto = _small_setup()
    _stub_counts(monkeypatch, env, shares)
    with pytest.raises(CalibrationError, match=f"^mean visit frequency {message}; "
                                                "expected monotone growth$"):
        calibrate_entry_prob(env, motion, auto, PowerLawFit(0.35, -0.82),
                             n_trials=40, duration=10)


def test_calibrate_predicts_in_memory_independent_of_the_room_count(monkeypatch):
    """The prediction scores the q grid room by room: on 1,024 rooms one grid
    x rooms table of float64 takes 8 MiB, and the whole search, its per-room
    pass tables included, traces about 1.2 MiB."""
    env = build_corridor_template(rooms=1024)
    passes = np.random.default_rng(1).integers(0, 4, (40, env.n_rooms + 1), dtype=np.int32)
    _stub_counts(monkeypatch, env, [0.0, 0.5, 0.5], passes)
    tracemalloc.start()
    try:
        result = calibrate_entry_prob(env, MotionParams(), AutomatonParams(),
                                      PowerLawFit(0.35, -0.82), n_trials=40, duration=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.evaluations) >= 2  # a prediction was scored
    assert peak < 4 * 2**20
