"""Record golden.json: the program's output digests for every input seed.

    python3 perfbench/record_golden.py [SEED ...]

Run from the repository root, on a commit whose outputs are the reference
(the determinism contract says they never change).  With no arguments it
records input seeds 0..DEV_SEEDS-1 and the held-out seed; given seeds are
re-recorded and merged into the existing file.  Each seed costs one simulate
run, the trial-0 frames and one analyze iteration (about 15 s on 2 cores).
"""

import json
import sys
import time

import checks
import run

ANALYZE_OUTPUTS = ("visits.csv", "dwell.csv", "fit.json", "overlay.ppm", "activity.pgm")


def record(seed: int) -> tuple[dict, dict]:
    wl = run.analyze_workload(seed, None)
    wl.cwd.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 600
    run.prepare_analyze(wl, seed, deadline)
    entry = run.input_digests(wl)
    sample, _, failed, problems = run.iterate(wl, False, f"record-{seed}", deadline,
                                              check=False)
    problems += run.run_check(wl.steps[-1].check)
    if sample is None or failed or problems:
        raise run.BenchError(f"seed {seed}: {problems}")
    entry["analyze"] = {n: checks.file_digest(wl.cwd / "out" / n) for n in ANALYZE_OUTPUTS}
    return entry, sample.report["machine"]


def main() -> int:
    seeds = [int(a) for a in sys.argv[1:]] or [*range(run.DEV_SEEDS), run.HELD_OUT_SEED]
    doc = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    doc.setdefault("seeds", {})
    for seed in seeds:
        entry, machine = record(seed)
        doc["seeds"][str(seed)] = entry
        doc["recorded_on"] = machine
        print(f"seed {seed}: recorded", flush=True)
    doc["held_out_seed"] = run.HELD_OUT_SEED
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    run.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
