"""leechsim: stochastic exploration of a corridor-with-rooms template.

A three-state behavioral automaton (Still / Crawl / Explore) driven by timer
hazards and a wall-contact mechanoreceptor walks a planar template; ensemble
statistics, power-law fitting, trigger calibration and an offline
frame-tracking/rendering toolkit sit on top.  The ``leechsim`` CLI wires the
pieces into reproducible runs.
"""

from .automaton import AutomatonParams, Mode
from .geometry import (
    EnvironmentTemplate,
    build_corridor_template,
    locate,
    room_distance_to_end,
)
from .locomotion import MotionParams, Trajectory, VisitCounts, run_trial, run_trials
from .montecarlo import (
    derive_trial_seed,
    ensemble_stats,
    run_ensemble,
    visit_counts,
    visit_frequencies,
)
from .fitstats import (
    CalibrationResult,
    PowerLawFit,
    RoomSummary,
    calibrate_entry_prob,
    fit_power_law,
    room_summary,
)

__version__ = "0.1.0"

__all__ = [
    "AutomatonParams",
    "CalibrationResult",
    "EnvironmentTemplate",
    "Mode",
    "MotionParams",
    "PowerLawFit",
    "RoomSummary",
    "Trajectory",
    "VisitCounts",
    "build_corridor_template",
    "calibrate_entry_prob",
    "derive_trial_seed",
    "ensemble_stats",
    "fit_power_law",
    "locate",
    "room_distance_to_end",
    "room_summary",
    "run_ensemble",
    "run_trial",
    "run_trials",
    "visit_counts",
    "visit_frequencies",
]
