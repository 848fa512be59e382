"""Power-law fitting, entry-trigger calibration and a chi-square helper."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .automaton import AutomatonParams
from .geometry import EnvironmentTemplate, room_distance_to_end
from .locomotion import MotionParams
from .montecarlo import derive_trial_seed, run_ensemble, visit_frequencies


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


def chi_square(observed, expected) -> float:
    """Pearson statistic sum (O_i - N p_i)^2 / (N p_i) for count data."""
    obs = [float(o) for o in observed]
    exp = [float(p) for p in expected]
    if len(obs) != len(exp):
        raise ValueError("observed and expected lengths differ")
    n = sum(obs)
    if n <= 0:
        raise ValueError("observed counts sum to zero")
    for p in exp:
        if p <= 0:
            raise ValueError("expected probabilities must be > 0")
    if abs(sum(exp) - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities sum to {sum(exp)}, not 1")
    return sum((o - n * p) ** 2 / (n * p) for o, p in zip(obs, exp))


@dataclass
class CalibrationResult:
    """Outcome of the entry-trigger search.

    ``feasible`` is False when even q_scale = 1 undershoots the target in
    every room; ``achieved`` then reports the q = 1 curve.  ``evaluations``
    lists (q_scale, mean_visit_freq, score) in evaluation order.
    ``ensemble_seed`` is the base seed of the ensemble whose frequencies are
    ``achieved``: evaluation i runs base seed derive_trial_seed(base_seed, i),
    so ``run_ensemble`` at q_scale with this seed reproduces them.
    """

    q_scale: float
    score: float
    feasible: bool
    converged: bool
    achieved: dict[int, float]
    target_values: dict[int, float]
    evaluations: list[tuple[float, float, float]]
    ensemble_seed: int


_PLATEAU_TOL = 1e-4  # score change below which the search stops early


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
) -> CalibrationResult:
    """Bisect q_scale so simulated visit frequencies match the target curve.

    Each candidate q_scale runs a fresh ensemble (seeded from (base_seed,
    evaluation index), so results are schedule-independent) and is scored by
    the equally weighted squared error against the target evaluated at each
    room's distance-to-end.  Mean visit frequency is monotone in q_scale;
    the search asserts that empirically, with slack for binomial noise, and
    bisects the sign of the mean mismatch.  Terminates when the bracket is
    narrower than ``tol`` or the score changes by less than 1e-4.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    rooms = list(range(1, env.n_rooms + 1))
    targets = {}
    for room in rooms:
        x = room_distance_to_end(env, room)
        y = target(x)
        if not 0.0 < y <= 1.0:
            raise ValueError(
                f"target {target.a}*x^{target.b} leaves (0, 1] at x={x}: {y}"
            )
        targets[room] = y
    target_mean = sum(targets.values()) / len(rooms)

    evaluations: list[tuple[float, float, float]] = []
    runs: dict[float, tuple[int, dict[int, float]]] = {}  # q -> (seed, freq)

    def evaluate(q: float) -> tuple[float, float]:
        seed = derive_trial_seed(base_seed, len(evaluations))
        trajs = run_ensemble(env, replace(motion, q_scale=q), auto,
                             n_trials, seed, duration, workers)
        freq = visit_frequencies(trajs)
        mean = sum(freq.values()) / len(rooms)
        score = sum((freq[r] - targets[r]) ** 2 for r in rooms)
        _assert_monotone(evaluations, q, mean, n_trials, len(rooms))
        evaluations.append((q, mean, score))
        runs[q] = (seed, freq)
        return mean, score

    mean_hi, score_hi = evaluate(1.0)
    feasible = any(runs[1.0][1][r] >= targets[r] for r in rooms)

    lo, hi = 0.0, 1.0
    best_q, best_score = 1.0, score_hi
    prev_score = score_hi
    converged = False
    while feasible and hi - lo > tol:
        mid = 0.5 * (lo + hi)
        mean_mid, score_mid = evaluate(mid)
        if score_mid < best_score:
            best_q, best_score = mid, score_mid
        if mean_mid < target_mean:
            lo = mid
        else:
            hi = mid
        if abs(score_mid - prev_score) < _PLATEAU_TOL:
            converged = True
            break
        prev_score = score_mid
    else:
        converged = feasible  # the bracket closed, unless there was none

    seed, freq = runs[best_q]
    return CalibrationResult(
        q_scale=best_q, score=best_score, feasible=feasible, converged=converged,
        achieved=freq, target_values=targets, evaluations=evaluations,
        ensemble_seed=seed,
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

