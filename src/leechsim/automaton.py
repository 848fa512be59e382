"""Three-state behavioral automaton: Still / Crawl / Explore.

A timer drives the exit hazards out of the still and active phases; a binary
mechanoreceptor forces exploration on wall contact, and an externally supplied
trigger probability can pull a crawling agent into exploration (used by the
locomotion layer when the agent is adjacent to a room opening).  Swimming is
deliberately not a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Mode(IntEnum):
    """Behavioral mode; the integer order is also the sampling order."""

    STILL = 0
    CRAWL = 1
    EXPLORE = 2


@dataclass(frozen=True)
class AutomatonParams:
    """Timer caps (ticks), visit power-law coefficients and the tick length.

    ``tau_s``/``tau_a`` cap the still and active dwell timers; the exit hazard
    reaches 1 when the timer hits the cap.  ``a``/``b`` parameterize the
    room-visit law a*x**b used both as a calibration target and as the
    per-opening entry-trigger shape.
    """

    tau_s: int = 600
    tau_a: int = 900
    a: float = 0.35
    b: float = -0.82
    tick: float = 1.0

    def __post_init__(self) -> None:
        if self.tau_s < 1 or self.tau_a < 1:
            raise ValueError("timer caps must be >= 1 tick")
        if self.a <= 0:
            raise ValueError("coefficient a must be > 0")
        if self.b >= 0:
            raise ValueError("exponent b must be < 0")
        if self.tick <= 0:
            raise ValueError("tick length must be > 0 seconds")

    _CONFIG_KEYS = ("tau_s_ticks", "tau_a_ticks", "p3_a", "p3_b", "tick_seconds")

    def to_config(self) -> dict:
        return {
            "tau_s_ticks": self.tau_s,
            "tau_a_ticks": self.tau_a,
            "p3_a": self.a,
            "p3_b": self.b,
            "tick_seconds": self.tick,
        }

    @classmethod
    def from_config(cls, doc: dict) -> "AutomatonParams":
        unknown = set(doc) - set(cls._CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown automaton config keys: {sorted(unknown)}")
        defaults = cls()
        return cls(
            tau_s=config_value(doc, "tau_s_ticks", defaults.tau_s, int),
            tau_a=config_value(doc, "tau_a_ticks", defaults.tau_a, int),
            a=config_value(doc, "p3_a", defaults.a, float),
            b=config_value(doc, "p3_b", defaults.b, float),
            tick=config_value(doc, "tick_seconds", defaults.tick, float),
        )


def config_value(doc: dict, key: str, default, kind: type):
    """``doc[key]``, or ``default`` when absent, checked to be a ``kind`` value.

    Nothing is coerced: an int must be a JSON integer (not ``true``, ``10.9``
    or ``"3"``), a float a finite JSON number and a str a JSON string.
    Raises ValueError naming the key.
    """
    value = doc.get(key, default)
    if kind is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:
        ok = isinstance(value, (int, float)) and math.isfinite(value)
    if not ok:
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, "
                         f"got {value!r}")
    return kind(value)


@dataclass(frozen=True, slots=True)
class AutomatonState:
    """Current mode plus ticks since the last still/active boundary crossing."""

    mode: Mode
    t: int = 0


def p_still_exit(t: int, params: AutomatonParams) -> float:
    """Per-tick hazard of leaving Still: 1/(tau_s - t + 1), reaching 1 at the cap."""
    if not 0 <= t <= params.tau_s:
        raise ValueError(f"still timer {t} outside [0, {params.tau_s}]")
    return 1.0 / (params.tau_s - t + 1)


def p_active_exit(t: int, params: AutomatonParams) -> float:
    """Per-tick hazard of leaving the active (crawl/explore) phase."""
    if not 0 <= t <= params.tau_a:
        raise ValueError(f"active timer {t} outside [0, {params.tau_a}]")
    return 1.0 / (params.tau_a - t + 1)


def p_visit(x: float, params: AutomatonParams) -> float:
    """Room-visit probability a*x**b at distance x (room-index units, x >= 1)."""
    if x < 1:
        raise ValueError(f"distance {x} below 1 room-index unit")
    return min(1.0, params.a * x ** params.b)


def transition_kernel(
    state: AutomatonState, m: int, params: AutomatonParams, q_enter: float
) -> tuple[float, float, float]:
    """Probability vector over (Still, Crawl, Explore) for the next tick.

    Rows (each sums to 1):

    * Still:   stay with 1-p1, otherwise split evenly between Crawl and Explore.
    * Crawl:   exit to Still with p2; conditional on staying active, contact
      (m=1) forces Explore, otherwise Explore fires with probability q_enter
      and Crawl continues with 1-q_enter.
    * Explore: exit to Still with p2; conditional on staying active, Explore
      persists while in contact and reverts to Crawl when contact is lost.
    """
    if m not in (0, 1):
        raise ValueError(f"mechanoreceptor bit must be 0 or 1, got {m}")
    if not 0.0 <= q_enter <= 1.0:
        raise ValueError(f"q_enter {q_enter} outside [0, 1]")
    if state.mode == Mode.STILL:
        p1 = p_still_exit(state.t, params)
        return (1.0 - p1, 0.5 * p1, 0.5 * p1)
    p2 = p_active_exit(state.t, params)
    if state.mode == Mode.CRAWL:
        p_explore = (1.0 - p2) * (m + (1 - m) * q_enter)
        p_crawl = (1.0 - p2) * (1 - m) * (1.0 - q_enter)
        return (p2, p_crawl, p_explore)
    return (p2, (1.0 - p2) * (1 - m), (1.0 - p2) * m)


def sample_transitions(mode, t, m, q_enter, tau_s: int, tau_a: int, u):
    """Array sampler: one automaton step per element given uniform draws ``u``.

    Element-wise inverse-CDF sampling over :func:`transition_kernel` in the
    fixed (Still, Crawl, Explore) order, with the same float thresholds, and
    the timer rule of :func:`step`.  ``mode``, ``t``, ``m`` (0/1), ``q_enter``
    and ``u`` are equal-length arrays; ``q_enter`` only acts on Crawl.
    Returns the new (mode, t) arrays.
    """
    still = mode == 0
    cap = np.where(still, tau_s, tau_a)
    bad = (t < 0) | (t > cap)
    if bad.any():
        i = int(np.argmax(bad))
        phase = "still" if still[i] else "active"
        raise ValueError(f"{phase} timer {t[i]} outside [0, {cap[i]}]")
    p_exit = 1.0 / (cap - t + 1)
    p_stay = 1.0 - p_exit
    # Still row: thresholds 1-p1 and (1-p1)+p1/2; active rows: p2 and
    # p2 + P(Crawl), where Explore's row is Crawl's with q_enter = 0.
    p_crawl = p_stay * (1 - m) * (1.0 - np.where(mode == 1, q_enter, 0.0))
    first = np.where(still, p_stay, p_exit)
    second = np.where(still, p_stay + 0.5 * p_exit, p_exit + p_crawl)
    new_mode = 2 - (u < first) - (u < second)
    return new_mode, np.where(still == (new_mode == 0), t + 1, 0)


def step(
    state: AutomatonState,
    m: int,
    q_enter: float,
    params: AutomatonParams,
    rng,
) -> AutomatonState:
    """Sample one transition using a single draw from ``rng``.

    The next mode is drawn by inverse CDF over the kernel vector in the fixed
    (Still, Crawl, Explore) order.  The timer resets to 0 exactly on
    Still<->active boundary crossings and increments otherwise; a
    Crawl<->Explore switch does not reset it.
    """
    p_still, p_crawl, _ = transition_kernel(state, m, params, q_enter)
    u = rng.random()
    if u < p_still:
        new_mode = Mode.STILL
    elif u < p_still + p_crawl:
        new_mode = Mode.CRAWL
    else:
        new_mode = Mode.EXPLORE
    if (state.mode == Mode.STILL) != (new_mode == Mode.STILL):
        return AutomatonState(new_mode, 0)
    return AutomatonState(new_mode, state.t + 1)
