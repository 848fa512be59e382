"""One benchmark iteration in a fresh interpreter.

    python3 child.py SPEC_JSON REPORT_JSON

SPEC_JSON names the config to load during set-up, the ``leechsim`` argument
lists to pass to ``leechsim.cli.main`` one after another, and whether to
trace.  The report gives the monotonic time at which set-up ended (the
parent took the start time before launching this process), each call's exit
code and wall time, the CPU time and peak RSS of this process and its
reaped pool workers over the calls, the machine facts and, when traced, the
spans and model counters.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped descendant (Linux KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def machine_facts() -> dict:
    import numpy
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_features": sorted(k for k, v in umath.__cpu_features__.items() if v),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    rec = None
    if spec["trace"]:
        import tracing
        rec = tracing.Recorder(spec["run_id"])

    import leechsim.cli as cli

    if rec is not None:
        tracing.install(rec)
    with rec.span("cli.setup") if rec else nullcontext():
        cli.load_run_config(spec["config"]).environment.build()
    ready = time.monotonic()

    cpu0 = cpu_seconds()
    steps = []
    for argv in spec["steps"]:
        start = time.perf_counter()
        try:
            with rec.span(f"cli.{argv[0]}") if rec else nullcontext():
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        steps.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start})
    report = {
        "ready": ready,
        "steps": steps,
        "cpu_s": cpu_seconds() - cpu0,
        "peak_rss_mb": peak_rss_mb(),
        "machine": machine_facts(),
    }
    if rec is not None:
        report["spans"] = rec.spans
        report["counts"] = rec.counts
        report["entries"] = rec.entries
    Path(sys.argv[2]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
