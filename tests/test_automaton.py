import math
import re
import reprlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leechsim.automaton import AutomatonParams, Mode, config_doc, p_visit, parse_config
from leechsim.geometry import build_corridor_template
from leechsim.locomotion import MotionParams, run_trial

from conftest import p_active_exit, p_still_exit, sample_transitions, transition_kernel


def test_p_still_exit_values(auto):
    assert p_still_exit(auto.tau_s, auto) == 1.0
    assert p_still_exit(0, auto) == pytest.approx(1 / 601)
    assert p_still_exit(auto.tau_s - 1, auto) == 0.5


def test_p_active_exit_values(auto):
    assert p_active_exit(auto.tau_a, auto) == 1.0
    assert p_active_exit(0, auto) == pytest.approx(1 / 901)
    assert p_active_exit(auto.tau_a - 1, auto) == 0.5


def test_hazards_reject_out_of_range(auto):
    with pytest.raises(ValueError):
        p_still_exit(auto.tau_s + 1, auto)
    with pytest.raises(ValueError):
        p_still_exit(-1, auto)
    with pytest.raises(ValueError):
        p_active_exit(auto.tau_a + 1, auto)


def test_p_visit_values(auto):
    assert p_visit(1, auto) == 0.35
    assert p_visit(2, auto) == pytest.approx(0.1983, abs=1e-4)
    assert p_visit(4, auto) == pytest.approx(0.1123, abs=1e-4)


def test_p_visit_domain_and_clamp(auto):
    with pytest.raises(ValueError):
        p_visit(0.5, auto)
    clamped = AutomatonParams(a=2.0, b=-0.5)
    assert p_visit(1, clamped) == 1.0


def test_kernel_still_forced_exit(auto):
    row = transition_kernel(Mode.STILL, auto.tau_s, 0, auto, 0.0)
    assert row == (0.0, 0.5, 0.5)


def test_kernel_explore_with_contact(auto):
    row = transition_kernel(Mode.EXPLORE, 0, 1, auto, 0.0)
    assert row[0] == pytest.approx(1 / 901)
    assert row[1] == 0.0
    assert row[2] == pytest.approx(900 / 901)


def test_kernel_crawl_without_trigger(auto):
    p2 = p_active_exit(0, auto)
    row = transition_kernel(Mode.CRAWL, 0, 0, auto, 0.0)
    assert row == pytest.approx((p2, 1 - p2, 0.0))


def test_kernel_crawl_contact_is_transient(auto):
    # with contact and no trigger, Crawl cannot continue crawling
    row = transition_kernel(Mode.CRAWL, 10, 1, auto, 0.0)
    assert row[1] == 0.0


def test_kernel_validates_inputs(auto):
    with pytest.raises(ValueError):
        transition_kernel(Mode.CRAWL, 0, 2, auto, 0.0)
    with pytest.raises(ValueError):
        transition_kernel(Mode.CRAWL, 0, 0, auto, 1.5)


@given(
    mode=st.sampled_from(list(Mode)),
    m=st.sampled_from([0, 1]),
    frac=st.floats(min_value=0.0, max_value=1.0),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_kernel_rows_are_distributions(mode, m, frac, q):
    auto = AutomatonParams()
    cap = auto.tau_s if mode == Mode.STILL else auto.tau_a
    t = int(frac * cap)
    row = transition_kernel(mode, t, m, auto, q)
    assert abs(sum(row) - 1.0) < 1e-12
    assert all(0.0 <= p <= 1.0 for p in row)


def _inverse_cdf_reference(mode, t, m, q, auto, u):
    p_still, p_crawl, _ = transition_kernel(mode, t, m, auto, q)
    if u < p_still:
        return Mode.STILL
    if u < p_still + p_crawl:
        return Mode.CRAWL
    return Mode.EXPLORE


def test_array_sampler_matches_kernel_inverse_cdf():
    """The array sampler must land on the kernel's inverse-CDF thresholds, and
    reset the timer exactly when a step crosses the still/active boundary: a
    forced exit at the cap and a Still<->active switch reset it to 0, while
    staying put or a Crawl<->Explore switch increments it."""
    auto = AutomatonParams(tau_s=9, tau_a=13)
    us = [0.0, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-12]
    cases = []
    for mode in Mode:
        cap = auto.tau_s if mode == Mode.STILL else auto.tau_a
        for t in (0, 1, cap // 2, cap):
            for m in (0, 1):
                for q in (0.0, 0.25, 1.0):
                    row = transition_kernel(mode, t, m, auto, q)
                    for u in list(us) + [row[0], row[0] + row[1]]:
                        cases.append((mode, t, m, q, u))
    mode, t, m, q, u = (np.array(column) for column in zip(*cases))
    got, new_t = sample_transitions(mode, t, m, q, auto.tau_s, auto.tau_a, u)
    seen = set()
    for i, (mode_i, t_i, m_i, q_i, u_i) in enumerate(cases):
        expect = _inverse_cdf_reference(mode_i, t_i, m_i, q_i, auto, u_i)
        assert Mode(int(got[i])) == expect, cases[i]
        if (mode_i == Mode.STILL) != (expect == Mode.STILL):
            assert new_t[i] == 0
        else:
            assert new_t[i] == t_i + 1
        seen.add((mode_i, expect))
    assert len(seen) == 9  # every transition, Crawl<->Explore included, occurs


def test_array_sampler_rejects_timer_out_of_range(auto):
    ones = np.ones(2)
    with pytest.raises(ValueError, match="still timer 601"):
        sample_transitions(np.array([1, 0]), np.array([0, auto.tau_s + 1]),
                           ones, ones, auto.tau_s, auto.tau_a, ones)
    with pytest.raises(ValueError, match="active timer -1"):
        sample_transitions(np.array([2]), np.array([-1]), ones[:1], ones[:1],
                           auto.tau_s, auto.tau_a, ones[:1])


def test_dwell_bounds_small_caps():
    auto = AutomatonParams(tau_s=5, tau_a=7)
    mode, t = np.array([Mode.STILL]), np.array([0])
    run_mode, run_len = Mode.STILL, 0
    for u in np.random.default_rng(3).random(5000):
        mode, t = sample_transitions(mode, t, 0, 0.25, auto.tau_s, auto.tau_a,
                                     np.array([u]))
        if mode[0] == run_mode or (run_mode != Mode.STILL and mode[0] != Mode.STILL):
            run_len += 1
        else:
            run_mode, run_len = Mode(int(mode[0])), 1
        cap = auto.tau_s if run_mode == Mode.STILL else auto.tau_a
        assert run_len <= cap + 1


def test_params_validation():
    with pytest.raises(ValueError):
        AutomatonParams(tau_s=0)
    with pytest.raises(ValueError):
        AutomatonParams(a=-0.1)
    with pytest.raises(ValueError):
        AutomatonParams(b=0.2)
    with pytest.raises(ValueError):
        AutomatonParams(tick=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 0, 2**63 - 1, 2**63])
@pytest.mark.parametrize("name", ["tau_s", "tau_a"])
def test_params_refuse_timer_caps_the_kernel_cannot_run(name, value):
    """A cap must be an integer whose hazard denominator cap + 1 fits an
    int64; the error names the field and echoes the value."""
    with pytest.raises(ValueError, match=rf"^timer cap {name} must be an integer in "
                                         rf"\[1, 2\*\*63 - 2\] ticks, "
                                         rf"got {re.escape(reprlib.repr(value))}$"):
        AutomatonParams(**{name: value})


def test_params_take_timer_caps_of_any_integer_type_up_to_the_largest():
    auto = AutomatonParams(tau_s=np.int64(5), tau_a=2**63 - 2)
    traj = run_trial(build_corridor_template(), MotionParams(), auto, seed=1, duration=50)
    assert traj.n_ticks == 50 and traj.modes.max() <= max(Mode)


def test_params_config_round_trip(auto):
    doc = config_doc(auto)
    assert doc == {
        "tau_s_ticks": 600,
        "tau_a_ticks": 900,
        "p3_a": 0.35,
        "p3_b": -0.82,
        "tick_seconds": 1.0,
    }
    assert parse_config(AutomatonParams, doc, "automaton") == auto


def test_params_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config(AutomatonParams, {"tau_s": 600}, "automaton")


@pytest.mark.parametrize("key,value", [
    ("tau_s_ticks", True), ("tau_a_ticks", 10.9), ("tau_s_ticks", "3"),
    ("p3_a", "0.35"), ("p3_b", None), ("tick_seconds", float("inf")),
])
def test_params_config_rejects_coercible_values(key, value):
    with pytest.raises(ValueError, match=repr(key)):
        parse_config(AutomatonParams, {key: value}, "automaton")
