"""The benchmark's own arithmetic: self time, counters, RMS, efficiency.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing


def test_self_time_without_children_is_duration():
    assert tracing.self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_nested_children():
    # a child with a grandchild inside it: only the child's interval counts
    assert tracing.self_time(0.0, 10.0, [(2.0, 5.0), (3.0, 4.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    # two parallel workers overlapping on [3, 4]
    assert tracing.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == 4.0


def test_self_time_clips_children_to_the_parent():
    assert tracing.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == 2.0


def test_self_time_of_fully_covered_parent_is_zero():
    assert tracing.self_time(1.0, 2.0, [(1.0, 1.5), (1.25, 2.0)]) == 0.0


def test_parallel_efficiency_single_ensemble():
    # 2 workers busy 3.6 s out of 2 x 2 s of capacity
    assert tracing.parallel_efficiency([(3.6, 2, 2.0)]) == pytest.approx(0.9)


def test_parallel_efficiency_pools_by_capacity():
    eff = tracing.parallel_efficiency([(1.0, 1, 1.0), (2.0, 2, 2.0)])
    assert eff == pytest.approx(3.0 / 5.0)
    assert tracing.parallel_efficiency([]) == 0.0
    with pytest.raises(ValueError):
        tracing.parallel_efficiency([(1.0, 0, 1.0)])


def test_dispersion_index_matches_sample_variance_over_mean():
    counts = [3, 5, 4, 10, 0, 2]
    expected = statistics.variance(counts) / statistics.mean(counts)
    assert tracing.dispersion_index(counts) == pytest.approx(expected)
    assert tracing.dispersion_index([7, 7, 7]) == 0.0
    assert tracing.dispersion_index([0, 0]) == 0.0


def test_dispersion_index_is_near_one_for_poisson_counts():
    counts = np.random.default_rng(3).poisson(6.0, 20000)
    assert tracing.dispersion_index(counts.tolist()) == pytest.approx(1.0, abs=0.05)


def test_rms_px_scales_millimetres_to_pixels():
    truth = [(0.0, 0.0), (1.0, 1.0)]
    tracked = [(0.3, 0.4), (1.0, 1.0)]   # 0.5 mm off, then exact
    assert checks.rms_px(truth, tracked, 4.0) == pytest.approx(math.sqrt(0.25 / 2) * 4.0)
    with pytest.raises(ValueError):
        checks.rms_px(truth, tracked[:1], 4.0)


def test_loglog_slope_recovers_exponent():
    points = [(x, 0.35 * x ** -0.82) for x in (1, 2, 3, 4)]
    assert checks.loglog_slope(points) == pytest.approx(-0.82)


def test_count_trajectories_counts_modes_contacts_and_entries():
    traj = SimpleNamespace(
        modes=np.array([1, 1, 2, 2, 0, 1], dtype=np.uint8),
        regions=np.array([0, 0, 3, 3, 0, 5], dtype=np.int16),
        ms=np.array([1, 0, 0, 1, 0, 0], dtype=np.uint8),
    )
    rec = tracing.Recorder("t")
    rec.count_trajectories([traj, traj])
    assert rec.counts == {"ticks": 12, "still": 2, "crawl": 6, "explore": 4,
                          "contact": 4, "room": 6}
    assert rec.entries == [[2, 2]]


def test_layer_metrics_from_spans():
    rec = tracing.Recorder("t")
    ens = rec.add("montecarlo.run_ensemble", 0.0, 2.0, None, n_trials=2, workers=2,
                  result_bytes=100)
    rec.add("locomotion.run_trial", 0.0, 1.5, ens, ticks=10)
    rec.add("locomotion.run_trial", 0.5, 1.9, ens, ticks=10)
    layers = tracing.layer_metrics(rec.spans, rec.counts, rec.entries)
    assert layers["montecarlo.parallel_efficiency"] == pytest.approx(2.9 / 4.0)
    assert layers["montecarlo.run_ensemble_self_s"] == pytest.approx(0.1)
    assert layers["locomotion.run_trial_ns_per_tick"] == pytest.approx(2.9e9 / 20)
    assert layers["montecarlo.result_bytes_per_trial"] == 50
    assert layers["trackio.track_ms_per_frame"] == 0.0


def test_entry_counters_are_per_ensemble():
    layers = tracing.layer_metrics([], tracing.Recorder("t").counts,
                                   [[1, 3], [10, 10, 10, 10]])
    assert layers["locomotion.entries_per_trial"] == pytest.approx(44 / 6)
    # [1, 3]: variance 2 / mean 2 = 1; [10]*4: 0; mean over the two ensembles
    assert layers["locomotion.entries_dispersion"] == pytest.approx(0.5)


def _calibration_report(tmp_path, freqs, feasible=True):
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps({
        "feasible": feasible,
        "achieved": [{"room": r, "freq": f, "target": 0.0}
                     for r, f in enumerate(freqs, start=1)],
    }))
    return path


def test_check_calibration_accepts_the_target_law(tmp_path):
    law = [0.35 * min(r, 9 - r) ** -0.82 for r in range(1, 9)]
    assert checks.check_calibration(_calibration_report(tmp_path, law)) == []


def test_check_calibration_rejects_flat_or_unordered_or_infeasible(tmp_path):
    flat = [0.35 * min(r, 9 - r) ** -0.3 for r in range(1, 9)]
    assert "refit exponent" in checks.check_calibration(
        _calibration_report(tmp_path, flat))[0]
    law = [0.35 * min(r, 9 - r) ** -0.82 for r in range(1, 9)]
    swapped = law[:2] + [law[3], law[2]] + law[4:5] + [law[3]] + law[6:]
    assert "not strictly decreasing" in checks.check_calibration(
        _calibration_report(tmp_path, swapped))[-1]
    assert checks.check_calibration(
        _calibration_report(tmp_path, law, feasible=False)) == ["calibration infeasible"]
