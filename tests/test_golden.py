"""Golden determinism: `leechsim simulate` output bytes are frozen.

``golden_simulate.json`` holds the sha256 of every trial CSV and of
``manifest.json`` for seven runs, and ``golden_stats.json`` the sha256 of the
``visits.csv`` and ``dwell.csv`` that ``stats`` writes for each.  The
per-trial scalar tick kernel wrote ``default_64x1800`` and ``q1_64x600``.
The lockstep tick kernel, which advanced every trial by one tick per
iteration, wrote four more; they aim at the runs the event-driven
kernel advances whole: q = 0, runs ending at short timer caps, contact
radius 0, and a duration that cuts runs midway.  The event-driven kernel
with one threshold row per trigger level wrote ``rooms64_q05_64x600``,
whose 64 rooms have 33 distinct triggers.  Any kernel or CSV change
must reproduce them exactly, for every worker count.

``golden_calibrate.json`` holds the sha256 of the ``calibration.json``,
``visits.csv`` and ``dwell.csv`` that ``calibrate`` writes for four runs:
the default, 64 rooms, an infeasible target and 4,096 rooms.  Any change
to the search, its ensembles or its report must reproduce them exactly.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from leechsim.cli import RunConfig, main
from leechsim.montecarlo import run_ensemble, visit_counts, write_dwell_csv, write_stats_csv

GOLDEN = Path(__file__).with_name("golden_simulate.json")
GOLDEN_ARRAYS = Path(__file__).with_name("golden_arrays.json")
GOLDEN_STATS = Path(__file__).with_name("golden_stats.json")
GOLDEN_CALIBRATE = Path(__file__).with_name("golden_calibrate.json")
ARRAY_TRIALS = 16

# Each case is a partial config: top-level keys replace the default's, and a
# section ("environment", "automaton", "motion") replaces only the keys it names.
CASES = {
    "default_64x1800": {"n_trials": 64, "duration_ticks": 1800},
    "q1_64x600": {"n_trials": 64, "duration_ticks": 600,
                  "motion": {"q_scale": 1.0}},
    # calibrate's first ensemble: passes are sampled, nothing enters a room
    "q0_64x1800": {"n_trials": 64, "duration_ticks": 1800,
                   "motion": {"q_scale": 0.0}},
    # short caps: many runs end at the cap, where the stay threshold is 0.0
    "caps_64x600": {"n_trials": 64, "duration_ticks": 600,
                    "automaton": {"tau_s_ticks": 3, "tau_a_ticks": 5}},
    # end contact only where the clamp puts x at exactly 0 or L
    "r0_64x300": {"n_trials": 64, "duration_ticks": 300,
                  "motion": {"contact_radius_mm": 0.0}},
    # a duration that cuts most runs midway
    "cut_64x37": {"n_trials": 64, "duration_ticks": 37},
    # 33 trigger levels, one per distance from an end, and thousands of
    # window passes, each at its own window's trigger
    "rooms64_q05_64x600": {"n_trials": 64, "duration_ticks": 600,
                           "environment": {"rooms": 64}, "motion": {"q_scale": 0.5}},
}


# Each calibrate case is a partial config, as above, the calibrate arguments
# beyond --config, --workers and --out, and the exit code.
CALIBRATE_CASES = {
    "default_1000x1800": ({"n_trials": 1000}, [], 0),
    "rooms64_200x600": ({"n_trials": 200, "duration_ticks": 600,
                         "environment": {"rooms": 64}}, [], 0),
    # every room's target is near 1, beyond what q = 1 reaches
    "infeasible_30x150": ({"n_trials": 30, "duration_ticks": 150, "base_seed": 6},
                          ["--target-a", "1.0", "--target-b=-1e-6"], 3),
    "rooms4096_2x1800": ({"n_trials": 2, "environment": {"rooms": 4096}}, [], 0),
}


def case_config(case: str, cases: dict = CASES) -> dict:
    """The default config document with one case's keys."""
    doc = RunConfig().to_dict()
    for key, value in cases[case].items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def simulate_digests(case_dir: Path, case: str, workers: int) -> dict[str, str]:
    """Run ``simulate`` for one case inside ``case_dir``, then ``stats`` on
    its run into ``case_dir/stats``, and hash the run's outputs.

    The run writes to the relative directory ``run`` so that the manifest,
    which records ``out_dir``, does not depend on where the test runs.
    """
    doc = case_config(case)
    doc["out_dir"] = "run"
    case_dir.mkdir(parents=True)
    (case_dir / "config.json").write_text(json.dumps(doc))
    cwd = Path.cwd()
    os.chdir(case_dir)
    try:
        assert main(["simulate", "--config", "config.json",
                     "--workers", str(workers)]) == 0
        assert main(["stats", "run", "--out", "stats"]) == 0
    finally:
        os.chdir(cwd)
    return _digests(case_dir / "run")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_golden_digests(tmp_path, case, workers):
    golden = json.loads(GOLDEN.read_text())[case]
    got = simulate_digests(tmp_path / case, case, workers)
    assert sorted(got) == sorted(golden)
    assert len(got) == CASES[case]["n_trials"] + 1
    mismatched = [name for name in golden if got[name] != golden[name]]
    assert not mismatched, mismatched
    assert _digests(tmp_path / case / "stats") == json.loads(GOLDEN_STATS.read_text())[case]


def array_digests(case: str, workers: int) -> dict[str, str]:
    """sha256 of each field's raw bytes over the case's first 16 trials."""
    cfg = RunConfig.from_dict(case_config(case))
    trajs = run_ensemble(cfg.environment.build(), cfg.motion, cfg.automaton,
                         ARRAY_TRIALS, cfg.base_seed, cfg.duration_ticks, workers)
    return {name: hashlib.sha256(b"".join(getattr(t, name).tobytes() for t in trajs))
            .hexdigest() for name in ("xs", "ys", "modes", "regions", "ms")}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_arrays_match_golden_digests(case, workers):
    """The CSVs print coordinates to 3 decimals, so a last-bit change in a
    position can leave them unchanged; these digests pin every bit, and the
    contact bits, which no CSV holds."""
    golden = json.loads(GOLDEN_ARRAYS.read_text())[case]
    assert array_digests(case, workers) == golden


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_visit_counts_match_golden_stats_digests(tmp_path, case, workers):
    """The kernel's reducer writes the bytes ``stats`` writes from the files.
    With 3 workers the 64 trials split 21/21/22, so each slice's run table
    closes different runs; their sum must not depend on the split."""
    cfg = RunConfig.from_dict(case_config(case))
    env = cfg.environment.build()
    counts = visit_counts(env, cfg.motion, cfg.automaton, cfg.n_trials, cfg.base_seed,
                          cfg.duration_ticks, workers)
    write_stats_csv(env, counts, tmp_path / "visits.csv")
    write_dwell_csv(counts, tmp_path / "dwell.csv")
    assert _digests(tmp_path) == json.loads(GOLDEN_STATS.read_text())[case]


def calibrate_digests(case_dir: Path, case: str, workers: int) -> dict[str, str]:
    """Run ``calibrate`` for one case with ``--out case_dir/calibration.json``
    and hash what it writes there."""
    changes, args, code = CALIBRATE_CASES[case]
    case_dir.mkdir(parents=True)
    config = case_dir.with_suffix(".json")
    config.write_text(json.dumps(case_config(case, {case: changes})))
    assert main(["calibrate", "--config", str(config), "--workers", str(workers),
                 "--out", str(case_dir / "calibration.json"), *args]) == code
    return _digests(case_dir)


@pytest.mark.parametrize("case, workers", [("default_1000x1800", 1)] + [
    (case, 2) for case in sorted(CALIBRATE_CASES)])
def test_calibrate_matches_golden_digests(tmp_path, case, workers):
    golden = json.loads(GOLDEN_CALIBRATE.read_text())[case]
    assert calibrate_digests(tmp_path / case, case, workers) == golden


@pytest.mark.parametrize("n_trials", [7, 2])
def test_ragged_worker_split_matches_serial(env, auto, motion, n_trials):
    serial = run_ensemble(env, motion, auto, n_trials, base_seed=11,
                          duration=300, workers=1)
    split = run_ensemble(env, motion, auto, n_trials, base_seed=11,
                         duration=300, workers=3)
    assert len(split) == len(serial) == n_trials
    for a, b in zip(serial, split):
        assert a.trial_id == b.trial_id
        for name in ("xs", "ys", "modes", "regions", "ms"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
