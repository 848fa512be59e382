"""Output checks: sha256 digests, the calibration science, tracking error.

The checks read the files the CLI wrote with the standard library only, so a
change to leechsim's readers cannot hide a change in its outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(directory, pattern: str) -> str:
    """One sha256 over the names and sha256 digests of the matching files."""
    h = hashlib.sha256()
    for p in sorted(Path(directory).glob(pattern)):
        h.update(f"{p.name} {file_digest(p)}\n".encode())
    return h.hexdigest()


def run_dir_digests(run_dir) -> dict[str, str]:
    """Digests of a simulate output directory: every trial CSV and the manifest."""
    return {"trial_*.csv": tree_digest(run_dir, "trial_*.csv"),
            "manifest.json": file_digest(Path(run_dir) / "manifest.json")}


def compare_digests(actual: dict, expected: dict, where: str) -> list[str]:
    return [f"{where}: {name} digest {actual.get(name)} != recorded {digest}"
            for name, digest in expected.items() if actual.get(name) != digest]


def loglog_slope(points) -> float:
    """Least-squares slope of ln y on ln x."""
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return (sum((u - mx) * (v - my) for u, v in zip(lx, ly))
            / sum((u - mx) ** 2 for u in lx))


B_BAND = (-0.97, -0.67)


def check_calibration(report_path) -> list[str]:
    """Feasible; refit exponent in B_BAND; room-pair frequencies fall with distance.

    Rooms r and n+1-r sit at the same distance-to-end min(r, n+1-r) and are
    averaged into one group, as in the acceptance gate.
    """
    doc = json.loads(Path(report_path).read_text())
    freq = {row["room"]: row["freq"] for row in doc["achieved"]}
    n = len(freq)
    problems = []
    if not doc["feasible"]:
        problems.append("calibration infeasible")
    if any(f <= 0 for f in freq.values()):
        return problems + [f"room never visited: {freq}"]
    b = loglog_slope([(min(r, n + 1 - r), f) for r, f in freq.items()])
    if not B_BAND[0] <= b <= B_BAND[1]:
        problems.append(f"refit exponent {b:.4f} outside {B_BAND}")
    grouped = [(freq[x] + freq[n + 1 - x]) / 2 for x in range(1, n // 2 + 1)]
    if not all(a > c for a, c in zip(grouped, grouped[1:])):
        problems.append(f"grouped frequencies not strictly decreasing: {grouped}")
    return problems


def read_positions(csv_path) -> list[tuple[float, float]]:
    """(x_mm, y_mm) per row of a trajectory CSV."""
    with open(csv_path) as f:
        next(f)
        return [(float(row[2]), float(row[3]))
                for row in (line.split(",") for line in f)]


def rms_px(truth, tracked, px_per_mm: float) -> float:
    """Root mean square of the point-to-point distance, in pixels."""
    if len(truth) != len(tracked) or not truth:
        raise ValueError(f"{len(tracked)} tracked rows for {len(truth)} true rows")
    sq = sum((x1 - x0) ** 2 + (y1 - y0) ** 2
             for (x0, y0), (x1, y1) in zip(truth, tracked))
    return math.sqrt(sq / len(truth)) * px_per_mm
