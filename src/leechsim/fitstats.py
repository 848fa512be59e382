"""Power-law fitting and entry-trigger calibration."""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .automaton import AutomatonParams
from .geometry import EnvironmentTemplate, room_distance_to_end
from .locomotion import MotionParams, VisitCounts, entry_trigger_probability
from .montecarlo import (
    derive_trial_seed,
    visit_counts,
    visit_frequencies,  # noqa: F401  (perfbench's tracer wraps it here)
)


class CalibrationError(RuntimeError):
    """Raised when the calibration search observes inconsistent behavior."""


@dataclass(frozen=True)
class PowerLawFit:
    """a * x**b with the residual sum of squares in log-log space."""

    a: float
    b: float
    rss: float = 0.0

    def __call__(self, x: float) -> float:
        return self.a * x ** self.b


def fit_power_law(points) -> PowerLawFit:
    """Closed-form least squares of ln y on ln x.

    The slope is the exponent b and exp(intercept) the coefficient a; no
    iterative solver is involved, so the fit is exactly reproducible.
    Duplicate x values are fine as long as at least two are distinct.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    for x, y in pts:
        if x <= 0:
            raise ValueError(f"x must be > 0, got {x}")
        if y <= 0:
            raise ValueError(f"y must be > 0 for a log-log fit, got {y}")
    if len({x for x, _ in pts}) < 2:
        raise ValueError("all x equal: log-log system is singular")
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((v - mx) ** 2 for v in lx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    b = sxy / sxx
    intercept = my - b * mx
    rss = sum((v - (intercept + b * u)) ** 2 for u, v in zip(lx, ly))
    try:
        a = math.exp(intercept)
    except OverflowError:
        raise ValueError(f"coefficient exp({intercept:.6g}) overflows a float") from None
    return PowerLawFit(a=a, b=b, rss=rss)


@dataclass(frozen=True)
class RoomSummary:
    """An ensemble's room statistics (:func:`room_summary`).

    Per room, in index order: ``distance`` to the nearer corridor end, visit
    ``frequency`` and ``time_fraction`` (share of all ticks).  Per distance,
    nearest first: each share's mean over the rooms at that distance.
    ``exponent`` is b of :func:`fit_power_law` refit on (distance,
    frequency) in room order, or None when a room was never visited or all
    rooms lie at one distance; ``end_inner_ratio`` is the nearest
    time-fraction mean over the innermost one, ``inf`` when that is 0.
    """

    distance: dict[int, int]
    frequency: dict[int, float]
    time_fraction: dict[int, float]
    frequency_by_distance: list[float]
    time_by_distance: list[float]
    exponent: float | None
    end_inner_ratio: float


def room_summary(counts: VisitCounts, env: EnvironmentTemplate) -> RoomSummary:
    """The room statistics of ``counts``, an ensemble on ``env``; a mean by
    distance is ``sum(values) / len(values)`` over its rooms in index order."""
    if counts.ticks.shape[1] != env.n_rooms + 1:
        raise ValueError(f"counts of {counts.ticks.shape[1] - 1} rooms, "
                         f"template of {env.n_rooms}")
    distance = {room: room_distance_to_end(env, room) for room in range(1, env.n_rooms + 1)}
    frequency, time_fraction = counts.visit_frequencies(), counts.time_fractions()

    def by_distance(per_room: dict[int, float]) -> list[float]:
        groups: dict[int, list[float]] = {}
        for room, value in per_room.items():
            groups.setdefault(distance[room], []).append(value)
        return [sum(values) / len(values) for _, values in sorted(groups.items())]

    exponent = None
    if all(f > 0 for f in frequency.values()) and len(set(distance.values())) > 1:
        exponent = fit_power_law([(distance[room], f) for room, f in frequency.items()]).b
    time_by_distance = by_distance(time_fraction)
    end, inner = time_by_distance[0], time_by_distance[-1]
    return RoomSummary(distance, frequency, time_fraction, by_distance(frequency),
                       time_by_distance, exponent, end / inner if inner > 0 else math.inf)


@dataclass
class CalibrationResult:
    """Outcome of the entry-trigger search.

    ``feasible`` is False when an evaluation at q_scale = 1 undershoots the
    target in every room; ``achieved`` then reports that q = 1 curve.
    ``evaluations`` lists (q_scale, mean_visit_freq, score) in evaluation
    order.  ``counts`` are the room counts and mode runs of the ensemble
    whose frequencies are ``achieved``, and ``ensemble_seed`` is its base
    seed: every evaluation runs base seed derive_trial_seed(base_seed, 0),
    so ``run_ensemble`` at q_scale with this seed reproduces it.
    """

    q_scale: float
    score: float
    feasible: bool
    converged: bool
    achieved: dict[int, float]
    target_values: dict[int, float]
    evaluations: list[tuple[float, float, float]]
    ensemble_seed: int
    counts: VisitCounts


_MAX_ENSEMBLES = 3  # q = 0, the predicted q, one correction
_GRID = 1024  # intervals of each of the two q grids the prediction is minimized on


@dataclass(frozen=True)
class _Passes:
    """Window passes at q = 0: for each room r, the distinct pass counts N
    of its column of ``VisitCounts.passes`` and how many trials made each,
    over ``n_trials`` trials."""

    rooms: list[tuple[np.ndarray, np.ndarray]]
    n_trials: int

    @classmethod
    def of(cls, passes: np.ndarray) -> "_Passes":
        counts = [np.bincount(column) for column in passes[:, 1:].T]
        return cls([(np.flatnonzero(c), c[c > 0]) for c in counts], passes.shape[0])


def _predicted_frequencies(qs, distances, auto: AutomatonParams,
                           passes: _Passes) -> np.ndarray:
    """Visit frequency of each room at each q, predicted from q = 0 window passes.

    f_r(q) = 1 - mean_i (1 - p_r(q))^N_ir: N_ir counts trial i's passes over
    room r's trigger window, and p_r(q) is the kernel's per-pass trigger
    probability (:func:`entry_trigger_probability`), each pass triggering
    on its own.  Returns a (len(qs), rooms) array.
    """
    out = np.empty((len(qs), len(distances)))
    for j, (x, (values, counts)) in enumerate(zip(distances, passes.rooms)):
        p = entry_trigger_probability(x, auto, qs)
        out[:, j] = 1.0 - (1.0 - p[:, None]) ** values @ counts / passes.n_trials
    return out


def _predicted_argmin(distances, auto: AutomatonParams, passes: _Passes,
                      targets: np.ndarray) -> float:
    """q in [0, 1] whose predicted frequencies have the least squared error
    against ``targets``: the best of a grid over [0, 1], refined on a grid
    between that point's neighbours."""
    lo, hi = 0.0, 1.0
    for _ in range(2):
        qs = np.linspace(lo, hi, _GRID + 1)
        freq = _predicted_frequencies(qs, distances, auto, passes)
        j = int(np.argmin(((freq - targets) ** 2).sum(axis=1)))
        lo, hi = qs[max(j - 1, 0)], qs[min(j + 1, _GRID)]
    return float(qs[j])


def calibrate_entry_prob(
    env: EnvironmentTemplate,
    motion: MotionParams,
    auto: AutomatonParams,
    target: PowerLawFit,
    n_trials: int = 1000,
    base_seed: int = 0,
    tol: float = 1.0 / 64.0,
    duration: int = 1800,
    workers: int = 1,
    progress: Callable[[int, float, float, float, int, float], None] | None = None,
) -> CalibrationResult:
    """Fit q_scale so simulated visit frequencies match the target curve,
    running at most 3 ensembles.

    Every evaluation runs ``n_trials`` trials from base seed
    derive_trial_seed(base_seed, 0), so evaluations differ only through
    q_scale (common random numbers), and reads the ensemble's
    :class:`~leechsim.locomotion.VisitCounts`; no trajectory is stored.  A
    q_scale is scored by the equally weighted squared error against the
    target evaluated at each room's distance-to-end.

    Evaluation 0 runs q_scale = 0 and counts each trial's passes over each
    room's trigger window; these predict the frequencies at any q_scale
    (:func:`_predicted_frequencies`).  Evaluation 1 runs the q_scale whose
    prediction scores best, or 1 when no trial passed a window, since the
    prediction then carries no information.  One correction may follow: the
    prediction is shifted, room by room, onto the frequencies observed at
    the last evaluation, and the best q_scale of the shifted prediction is
    evaluated if it moves q_scale by at least ``tol``.  ``converged`` means
    the last such move was smaller than ``tol``.

    An evaluation at q_scale = 1 in which no room reaches its target ends
    the search as infeasible and is the result; otherwise the result is the
    evaluation with the lowest score.  Mean visit frequency must not fall as
    q_scale grows; the search asserts that, with slack for binomial noise.
    ``progress(index, q_scale, mean_freq, score, ensemble_seed, seconds)``,
    when given, is called after each evaluation.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    rooms = list(range(1, env.n_rooms + 1))
    distances = [room_distance_to_end(env, room) for room in rooms]
    targets = {}
    for room, x in zip(rooms, distances):
        y = target(x)
        if not 0.0 < y <= 1.0:
            raise ValueError(
                f"target {target.a}*x^{target.b} leaves (0, 1] at x={x}: {y}"
            )
        targets[room] = y
    target_values = np.array([targets[r] for r in rooms])

    seed = derive_trial_seed(base_seed, 0)
    evaluations: list[tuple[float, float, float]] = []
    runs: dict[float, VisitCounts] = {}  # q -> its ensemble's counts

    def evaluate(q: float) -> VisitCounts:
        start = time.perf_counter()
        counts = visit_counts(env, replace(motion, q_scale=q), auto,
                              n_trials, seed, duration, workers)
        freq = counts.visit_frequencies()
        mean = sum(freq.values()) / len(rooms)
        score = sum((freq[r] - targets[r]) ** 2 for r in rooms)
        _assert_monotone(evaluations, q, mean, n_trials, len(rooms))
        evaluations.append((q, mean, score))
        runs[q] = counts
        if progress is not None:
            progress(len(evaluations) - 1, q, mean, score, seed,
                     time.perf_counter() - start)
        return counts

    window_passes = evaluate(0.0).passes
    passes = _Passes.of(window_passes)  # each room's, for every prediction
    if window_passes[:, 1:].any():
        q = _predicted_argmin(distances, auto, passes, target_values)
    else:
        q = 1.0
    feasible = True
    for _ in range(_MAX_ENSEMBLES - 1):
        if q not in runs:
            evaluate(q)
        freq = runs[q].visit_frequencies()
        if q == 1.0 and all(freq[r] < targets[r] for r in rooms):
            feasible = converged = False
            break
        observed = np.array([freq[r] for r in rooms])
        shift = observed - _predicted_frequencies([q], distances, auto, passes)[0]
        proposed = _predicted_argmin(distances, auto, passes, target_values - shift)
        converged = abs(proposed - q) < tol
        if converged:
            break
        q = proposed

    q, _, score = min(evaluations, key=lambda e: e[2]) if feasible else evaluations[-1]
    return CalibrationResult(
        q_scale=q, score=score, feasible=feasible, converged=converged,
        achieved=runs[q].visit_frequencies(), target_values=targets,
        evaluations=evaluations, ensemble_seed=seed, counts=runs[q],
    )


def _assert_monotone(evaluations, q, mean, n_trials, n_rooms):
    """Mean visit frequency must not decrease in q beyond binomial noise."""
    for q_prev, mean_prev, _ in evaluations:
        pooled = 0.5 * (mean + mean_prev)
        slack = 3.0 * math.sqrt(max(pooled * (1.0 - pooled), 1e-6)
                                / (n_trials * n_rooms))
        if q > q_prev and mean < mean_prev - slack:
            raise CalibrationError(
                f"mean visit frequency fell from {mean_prev:.4f} (q={q_prev}) "
                f"to {mean:.4f} (q={q}); expected monotone growth"
            )
        if q < q_prev and mean > mean_prev + slack:
            raise CalibrationError(
                f"mean visit frequency rose from {mean_prev:.4f} (q={q_prev}) "
                f"to {mean:.4f} (q={q}); expected monotone growth"
            )

