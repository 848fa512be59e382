"""Three-state behavioral automaton: Still / Crawl / Explore.

A timer drives the exit hazards out of the still and active phases; a binary
mechanoreceptor forces exploration on wall contact, and an externally supplied
trigger probability can pull a crawling agent into exploration (used by the
locomotion layer when the agent is adjacent to a room opening).  Swimming is
deliberately not a state.
"""

from __future__ import annotations

import math
import operator
import reprlib
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import IntEnum
from functools import cache
from typing import get_type_hints

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

    tau_s: int = field(default=600, metadata={"key": "tau_s_ticks"})
    tau_a: int = field(default=900, metadata={"key": "tau_a_ticks"})
    a: float = field(default=0.35, metadata={"key": "p3_a"})
    b: float = field(default=-0.82, metadata={"key": "p3_b"})
    tick: float = field(default=1.0, metadata={"key": "tick_seconds"})

    def __post_init__(self) -> None:
        for name in ("tau_s", "tau_a"):  # the kernel's cap - t + 1 is an int64
            value = getattr(self, name)
            try:
                ok = 1 <= operator.index(value) <= 2**63 - 2
            except TypeError:  # a float, even a whole one
                ok = False
            if not ok:
                raise ValueError(f"timer cap {name} must be an integer in "
                                 f"[1, 2**63 - 2] ticks, got {reprlib.repr(value)}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"coefficient a must be finite and > 0, got {self.a}")
        if not -math.inf < self.b < 0:
            raise ValueError(f"exponent b must be finite and < 0, got {self.b}")
        if not 0 < self.tick < math.inf:
            raise ValueError(f"tick must be finite and > 0 seconds, got {self.tick}")


def config_value(doc: dict, key: str, default, kind: type):
    """``doc[key]``, or ``default`` when absent, checked to be a ``kind`` value.

    Nothing is coerced: an int must be a JSON integer (not ``true``, ``10.9``
    or ``"3"``), a float a finite JSON number and a str a JSON string.
    Raises ValueError naming the key and echoing a shortened repr of the value.
    """
    value = doc.get(key, default)
    if kind is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:  # finite, which an int past the largest float is not
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if not ok:
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}, "
                         f"got {reprlib.repr(value)}")
    return kind(value)


@cache  # one entry per config class; get_type_hints evaluates the annotations
def _schema(cls) -> tuple:
    """``(field, key, type)`` per field of the config dataclass ``cls``: the key
    is the name unless the metadata names one, the type is the annotation."""
    hints = get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name), hints[f.name]) for f in fields(cls))


def parse_config(cls, doc: dict, section: str = ""):
    """A ``cls`` from a config document, one key per field of the dataclass.

    Absent keys keep the field's default and present ones go through
    :func:`config_value`.  A dataclass-typed field is a nested section: a
    JSON object parsed the same way.  Keys ``cls`` lacks raise ValueError
    naming ``section``, their count and a shortened repr of the first few.
    """
    unknown = set(doc) - {key for _, key, _ in _schema(cls)}
    if unknown:
        raise ValueError(f"unknown {section + ' ' if section else ''}config keys "
                         f"({len(unknown)}): {reprlib.repr(sorted(unknown))}")
    defaults = cls()
    values = {}
    for name, key, kind in _schema(cls):
        if is_dataclass(kind):
            if not isinstance(doc.get(key, {}), dict):
                raise ValueError(f"config key {key!r} must be a JSON object")
            values[name] = parse_config(kind, doc.get(key, {}), key)
        else:
            values[name] = config_value(doc, key, getattr(defaults, name), kind)
    return cls(**values)


def config_doc(obj) -> dict:
    """The config document :func:`parse_config` reads back as ``obj``."""
    return {key: (config_doc if is_dataclass(kind) else kind)(getattr(obj, name))
            for name, key, kind in _schema(type(obj))}


def p_visit(x: float, params: AutomatonParams) -> float:
    """Room-visit probability a*x**b at distance x (room-index units, x >= 1)."""
    if x < 1:
        raise ValueError(f"distance {x} below 1 room-index unit")
    return min(1.0, params.a * x ** params.b)


def transition_thresholds(mode, t, m, q_enter, tau_s: int, tau_a: int):
    """The inverse-CDF thresholds of one automaton step, elementwise.

    ``t`` is the timer of the current phase, the ticks since the last
    still/active boundary crossing; the phase's exit hazard is
    1/(cap - t + 1), which reaches 1 at the cap (``tau_s`` in Still,
    ``tau_a`` in Crawl and Explore).  The step's probabilities over
    (Still, Crawl, Explore):

    * Still:   stay with 1-p1, otherwise split evenly between Crawl and Explore.
    * Crawl:   exit to Still with p2; conditional on staying active, contact
      (m=1) forces Explore, otherwise Explore fires with probability q_enter.
    * Explore: exit to Still with p2; conditional on staying active, Explore
      persists while in contact and reverts to Crawl when contact is lost.

    The thresholds are their cumulative sums in that fixed order: a step
    with uniform ``u`` goes to Still below ``first``, to Crawl below
    ``second`` and to Explore otherwise (:func:`next_modes`).  ``mode`` and
    ``t`` are equal-length arrays; ``m`` (0/1) and ``q_enter`` are arrays of
    that length or scalars, and ``q_enter`` only acts on Crawl.
    Returns the (first, second) arrays.
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
    return first, second


def next_modes(u, first, second):
    """The mode after one automaton step per element, given its uniform
    ``u`` and its :func:`transition_thresholds`: the first mode whose
    threshold exceeds ``u``."""
    return 2 - (u < first) - (u < second)


def next_timers(mode, t, new_mode):
    """The timer after a step from ``mode`` with timer ``t`` to ``new_mode``:
    it resets to 0 exactly on Still<->active boundary crossings and
    increments otherwise, so a Crawl<->Explore switch does not reset it."""
    return np.where((mode == 0) == (new_mode == 0), t + 1, 0)
