"""Golden determinism: `leechsim simulate` output bytes are frozen.

``golden_simulate.json`` holds the sha256 of every trial CSV and of
``manifest.json`` for two runs, as written by the per-trial scalar tick
kernel that preceded the lockstep batch kernel.  Any kernel or CSV change
must reproduce them exactly, for every worker count.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from leechsim.cli import RunConfig, main
from leechsim.montecarlo import run_ensemble

GOLDEN = Path(__file__).with_name("golden_simulate.json")

CASES = {
    "default_64x1800": {"n_trials": 64, "duration_ticks": 1800},
    "q1_64x600": {"n_trials": 64, "duration_ticks": 600, "q_scale": 1.0},
}


def simulate_digests(case_dir: Path, case: str, workers: int) -> dict[str, str]:
    """Run ``simulate`` for one case inside ``case_dir`` and hash its outputs.

    The run writes to the relative directory ``run`` so that the manifest,
    which records ``out_dir``, does not depend on where the test runs.
    """
    spec = dict(CASES[case])
    doc = RunConfig().to_dict()
    doc["motion"]["q_scale"] = spec.pop("q_scale", doc["motion"]["q_scale"])
    doc.update(spec, out_dir="run")
    case_dir.mkdir(parents=True)
    (case_dir / "config.json").write_text(json.dumps(doc))
    cwd = Path.cwd()
    os.chdir(case_dir)
    try:
        assert main(["simulate", "--config", "config.json",
                     "--workers", str(workers)]) == 0
    finally:
        os.chdir(cwd)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((case_dir / "run").iterdir())}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_golden_digests(tmp_path, case, workers):
    golden = json.loads(GOLDEN.read_text())[case]
    got = simulate_digests(tmp_path / case, case, workers)
    assert sorted(got) == sorted(golden)
    assert len(got) == CASES[case]["n_trials"] + 1
    mismatched = [name for name in golden if got[name] != golden[name]]
    assert not mismatched, mismatched


@pytest.mark.parametrize("n_trials", [7, 2])
def test_ragged_worker_split_matches_serial(env, auto, motion, n_trials):
    serial = run_ensemble(env, motion, auto, n_trials, base_seed=11,
                          duration=300, workers=1)
    split = run_ensemble(env, motion, auto, n_trials, base_seed=11,
                         duration=300, workers=3)
    assert len(split) == len(serial) == n_trials
    for a, b in zip(serial, split):
        assert (a.trial_id, a.seed) == (b.trial_id, b.seed)
        for name in ("xs", "ys", "modes", "regions", "ms"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
