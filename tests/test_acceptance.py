"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 5 and 6 share one calibrated run via a module
fixture.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from leechsim.automaton import AutomatonParams, Mode
from leechsim.cli import RunConfig, main
from leechsim.fitstats import (PowerLawFit, calibrate_entry_prob, fit_power_law,
                               room_summary)
from leechsim.geometry import build_corridor_template
from leechsim.locomotion import MotionParams, run_trials
from leechsim.montecarlo import run_ensemble, visit_frequencies
from leechsim.trackio import frames_to_trajectory, render_frames, time_color

from conftest import chi_square, p_still_exit, sample_transitions, transition_kernel

# chi-square critical values at the 99.9% level
CHI2_999 = {1: 10.8276, 2: 13.8155}


@contextmanager
def criterion(number, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL "
              f"[{time.perf_counter() - t0:.1f}s]")
        raise
    print(f"criterion {number:2d} ({label}): PASS "
          f"[{time.perf_counter() - t0:.1f}s]")


@pytest.fixture(scope="module")
def corridor():
    return build_corridor_template()


@pytest.fixture(scope="module")
def calibrated(corridor):
    """Criterion 5's calibration run, shared with criterion 6, which reads
    the counts of the ensemble it reports.  ``test_cli`` checks that
    ``calibrate`` writes the stats that ``simulate`` then ``stats`` write
    for that ensemble."""
    return calibrate_entry_prob(
        corridor, MotionParams(), AutomatonParams(), PowerLawFit(0.35, -0.82),
        n_trials=1000, base_seed=7, tol=1 / 64, duration=1800,
    )


def test_criterion_1_kernel_soundness():
    """Rows over all modes x m x timer grid x triggers sum to 1 within 1e-12."""
    with criterion(1, "kernel soundness"):
        auto = AutomatonParams()
        for mode in Mode:
            cap = auto.tau_s if mode == Mode.STILL else auto.tau_a
            for t in (0, 1, cap // 2, cap):
                for m in (0, 1):
                    for q in (0.0, 0.25, 1.0):
                        row = transition_kernel(mode, t, m, auto, q)
                        assert abs(sum(row) - 1.0) < 1e-12
                        assert all(0.0 <= p <= 1.0 for p in row)


def _expected_still_dwell(auto):
    """Brute-force expectation sum k*P(dwell=k) from the hazard sequence."""
    expect, survive = 0.0, 1.0
    for d in range(1, auto.tau_s + 2):
        p_exit = p_still_exit(d - 1, auto)
        expect += d * survive * p_exit
        survive *= 1.0 - p_exit
    return expect


def test_criterion_2_hazard_caps_and_mean_dwell():
    """2x10^4 bouts in lockstep: dwells bounded by cap+1; mean Still dwell
    within 2%."""
    with criterion(2, "hazard caps"):
        auto = AutomatonParams(tau_s=200, tau_a=300)
        rng = np.random.default_rng(42)
        n = 10_000
        # bouts 0..n-1 start Still, n..2n-1 start Crawl in wall contact; each
        # steps until it leaves its phase, one draw per live bout and tick
        mode = np.repeat([Mode.STILL, Mode.CRAWL], n)
        m = np.repeat([0, 1], n)
        t = np.zeros(2 * n, dtype=int)
        dwell = np.ones(2 * n, dtype=int)
        live = np.arange(2 * n)
        while live.size:
            new_mode, t[live] = sample_transitions(
                mode[live], t[live], m[live], 0.0, auto.tau_s, auto.tau_a,
                rng.random(live.size))
            stays = (new_mode == Mode.STILL) == (mode[live] == Mode.STILL)
            mode[live] = new_mode
            live = live[stays]
            dwell[live] += 1
        assert dwell[:n].max() <= auto.tau_s + 1
        assert dwell[n:].max() <= auto.tau_a + 1
        expected = _expected_still_dwell(auto)
        mean = dwell[:n].mean()
        assert abs(mean - expected) <= 0.02 * expected


def test_criterion_3_kernel_sampling_fidelity():
    """10^5 samples per representative tuple pass chi-square at 99.9%."""
    with criterion(3, "sampling fidelity"):
        auto = AutomatonParams()
        tuples = [
            (Mode.STILL, 0, 0, 0.0),
            (Mode.STILL, 1, auto.tau_s // 2, 0.25),
            (Mode.CRAWL, 0, 0, 0.25),
            (Mode.CRAWL, 1, auto.tau_a // 2, 0.0),
            (Mode.EXPLORE, 0, 100, 1.0),
            (Mode.EXPLORE, 1, auto.tau_a - 1, 0.0),
        ]
        rng = np.random.default_rng(1234)
        n = 100_000
        for mode, m, t, q in tuples:
            expected = transition_kernel(mode, t, m, auto, q)
            new_mode, _ = sample_transitions(np.full(n, mode), np.full(n, t), m, q,
                                             auto.tau_s, auto.tau_a, rng.random(n))
            counts = np.bincount(new_mode, minlength=3).tolist()
            for p, c in zip(expected, counts):
                if p == 0.0:
                    assert c == 0  # impossible transitions never sampled
            obs = [c for c, p in zip(counts, expected) if p > 0.0]
            exp = [p for p in expected if p > 0.0]
            stat = chi_square(obs, exp)
            assert stat < CHI2_999[len(exp) - 1], (mode, m, t, q, stat)


def test_criterion_4_power_law_recovery():
    """Noiseless samples of 0.35*x^-0.82 recover (a, b) within (1e-3, 1e-2)."""
    with criterion(4, "power-law recovery"):
        points = [(x, 0.35 * x ** -0.82) for x in (1, 2, 3, 4)]
        fit = fit_power_law(points)
        assert abs(fit.a - 0.35) < 1e-3
        assert abs(fit.b - -0.82) < 1e-2


def test_criterion_5_calibration_self_consistency(corridor, calibrated):
    """Calibration converges; refit exponent lands in [-0.97, -0.67]; visit
    frequency decreases strictly in distance-to-end (rooms grouped)."""
    with criterion(5, "calibration self-consistency"):
        result = calibrated
        assert result.feasible and result.converged
        assert len(result.evaluations) <= 3
        summary = room_summary(result.counts, corridor)
        assert summary.frequency == result.achieved
        assert summary.exponent is not None and -0.97 <= summary.exponent <= -0.67, summary
        grouped = summary.frequency_by_distance
        assert all(a > b for a, b in zip(grouped, grouped[1:])), grouped


def test_criterion_6_dwell_ratio_direction(corridor, calibrated):
    """End rooms (x=1) hold at least twice the time fraction of x=4 rooms."""
    with criterion(6, "dwell-ratio direction"):
        by_distance = room_summary(calibrated.counts, corridor).time_by_distance
        end = by_distance[0]
        inner = by_distance[-1]
        assert inner > 0
        assert end >= 2.0 * inner, (end, inner)


def test_criterion_7_symmetry(corridor):
    """Center start: per-room frequencies symmetric within 3-sigma binomial."""
    with criterion(7, "symmetry"):
        auto = AutomatonParams()
        motion = MotionParams()
        center = replace(corridor,
                         start_point=(corridor.interior_width / 2, 22.0))
        n = 2000
        trajs = run_ensemble(center, motion, auto, n, base_seed=404, duration=1800)
        freq = visit_frequencies(trajs)
        for i in (1, 2, 3, 4):
            j = corridor.n_rooms + 1 - i
            pooled = (freq[i] + freq[j]) / 2
            if pooled == 0.0:
                continue
            sigma = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
            assert abs(freq[i] - freq[j]) <= 3.0 * sigma, (i, j, freq[i], freq[j])


def test_criterion_8_determinism_across_workers(tmp_path):
    """cmd_simulate yields byte-identical trajectory CSVs for 1 and 8 workers."""
    with criterion(8, "determinism"):
        import json

        doc = RunConfig().to_dict()
        doc.update(n_trials=12, duration_ticks=400, base_seed=77)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        outs = {}
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            code = main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)])
            assert code == 0
            outs[workers] = {
                p.name: p.read_bytes() for p in out.glob("trial_*.csv")
            }
            # and a second run with the same worker count is byte-identical
            rerun = tmp_path / f"w{workers}_rerun"
            assert main(["simulate", "--config", str(cfg), "--out", str(rerun),
                         "--workers", str(workers)]) == 0
            assert {p.name: p.read_bytes() for p in rerun.glob("trial_*.csv")} \
                == outs[workers]
        assert len(outs[1]) == 12
        assert outs[1] == outs[8]


def test_criterion_9_tracking_round_trip(corridor):
    """Render -> track recovers 50 random trajectories within 1 px RMS; the
    color map hits (0,0,255) and (255,0,0) exactly at the ends."""
    with criterion(9, "tracking round-trip"):
        assert time_color(0.0) == (0, 0, 255)
        assert time_color(1.0) == (255, 0, 0)
        auto = AutomatonParams()
        motion = MotionParams(q_scale=0.4)
        scale = 2.0
        trajs = run_trials(corridor, motion, auto, range(50), duration=80)
        for seed, traj in enumerate(trajs):
            frames = render_frames(traj, corridor, px_per_mm=scale)
            tracked = frames_to_trajectory(frames, threshold=40,
                                           mm_per_px=1.0 / scale)
            err_px = np.hypot(tracked.xs - traj.xs, tracked.ys - traj.ys) * scale
            rms = float(np.sqrt(np.mean(err_px ** 2)))
            assert rms <= 1.0, (seed, rms)


def test_criterion_10_zero_trigger_isolation(corridor):
    """q_scale = 0: 500 trials contain no room visit at all."""
    with criterion(10, "zero-trigger isolation"):
        auto = AutomatonParams()
        motion = MotionParams(q_scale=0.0)
        trajs = run_ensemble(corridor, motion, auto, 500, base_seed=55,
                             duration=1800)
        freq = visit_frequencies(trajs)
        assert all(v == 0.0 for v in freq.values())
        for traj in trajs:
            assert (traj.regions <= 0).all()
