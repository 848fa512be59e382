"""Spans around calls into leechsim's public functions, and the layer metrics.

A traced iteration replaces a few module attributes of the imported program
with timing wrappers (see :func:`install`); the program's source is not
touched.  Spans stay in memory and the child process writes them out once,
after its last CLI call.  Trials that run in pool workers are timed by the
same wrapper in the forked worker, which stores its start and end in a
shared array the parent reads when ``run_ensemble`` returns.
"""

from __future__ import annotations

import functools
import inspect
import math
import multiprocessing
import pickle
import statistics
import time
from contextlib import contextmanager


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part any child interval covers.

    Children may nest, overlap each other (parallel workers) or stick out of
    the parent; only their union inside the parent is subtracted.
    """
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def parallel_efficiency(ensembles) -> float:
    """Sum of trial time over sum of workers x wall, for (trial_s, workers, wall_s).

    One ensemble gives the plain ratio; several are pooled by their capacity.
    """
    busy = capacity = 0.0
    for trial_seconds, workers, wall_seconds in ensembles:
        if workers < 1 or wall_seconds <= 0:
            raise ValueError("workers must be >= 1 and wall time > 0")
        busy += trial_seconds
        capacity += workers * wall_seconds
    return busy / capacity if capacity else 0.0


def dispersion_index(counts) -> float:
    """Sample variance over mean of per-trial counts; 1 for a Poisson law."""
    values = list(counts)
    if len(values) < 2:
        raise ValueError("need at least 2 counts")
    mean = statistics.fmean(values)
    if mean == 0:
        return 0.0
    return statistics.variance(values) / mean


class Recorder:
    """In-memory spans of one traced iteration plus the model counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trial_slots = None  # shared doubles: start, end per trial index
        self.counts = {"ticks": 0, "still": 0, "crawl": 0, "explore": 0,
                       "contact": 0, "room": 0}
        self.entries: list[list[int]] = []  # room entries per trial, per ensemble

    def add(self, name, start, end, parent, **attrs) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id, "attrs": attrs})
        return span_id

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        span_id = self.add(name, time.perf_counter(), None, parent, **attrs)
        self._stack.append(span_id)
        try:
            yield self.spans[span_id]
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def count_trajectories(self, trajs) -> None:
        """Accumulate mode occupancy, contact and room ticks over one ensemble.

        Room entries (corridor -> room transitions) are kept per trial and per
        ensemble, because ensembles at different q_scale have different rates.
        """
        c = self.counts
        entries = []
        for traj in trajs:
            modes, regions = traj.modes, traj.regions
            c["ticks"] += int(modes.size)
            c["still"] += int((modes == 0).sum())
            c["crawl"] += int((modes == 1).sum())
            c["explore"] += int((modes == 2).sum())
            c["contact"] += int(traj.ms.sum())
            c["room"] += int((regions > 0).sum())
            entries.append(int(((regions[:-1] == 0) & (regions[1:] > 0)).sum()))
        self.entries.append(entries)


def _timed(rec: Recorder, name: str, fn, size=None):
    """Wrap ``fn`` in a span; ``size(bound_args)`` adds a ``units`` attribute."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {}
        if size is not None:
            attrs["units"] = size(sig.bind(*args, **kwargs).arguments)
        with rec.span(name, **attrs):
            return fn(*args, **kwargs)

    return wrapper


def _run_trial_wrapper(rec: Recorder, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        traj = fn(*args, **kwargs)
        end = time.perf_counter()
        slots = rec.trial_slots
        index = kwargs.get("trial_id")  # montecarlo passes it by keyword
        if index is None:
            index = sig.bind(*args, **kwargs).arguments.get("trial_id", 0)
        if slots is not None and 0 <= index < len(slots) // 2:
            slots[2 * index] = start
            slots[2 * index + 1] = end
        return traj

    return wrapper


def _run_ensemble_wrapper(rec: Recorder, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n_trials = int(bound.arguments["n_trials"])
        workers = max(1, int(bound.arguments["workers"]))
        slots = multiprocessing.RawArray("d", [math.nan] * (2 * n_trials))
        rec.trial_slots = slots
        try:
            with rec.span("montecarlo.run_ensemble", n_trials=n_trials,
                          workers=workers) as span:
                trajs = fn(*args, **kwargs)
        finally:
            rec.trial_slots = None
        for i in range(n_trials):
            start, end = slots[2 * i], slots[2 * i + 1]
            if not math.isnan(start):
                rec.add("locomotion.run_trial", start, end, span["id"],
                        ticks=int(trajs[i].n_ticks))
        with rec.span("bench.counters"):
            rec.count_trajectories(trajs)
            span["attrs"]["result_bytes"] = sum(
                len(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL)) for t in trajs)
        return trajs

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public functions the CLI calls, where the CLI looks them up."""
    import leechsim.cli as cli
    import leechsim.fitstats as fitstats
    import leechsim.montecarlo as montecarlo
    import leechsim.trackio as trackio

    def n_trajs(a):
        return len(a["trajs"])

    ensemble = _run_ensemble_wrapper(rec, montecarlo.run_ensemble)
    cli.run_ensemble = ensemble
    fitstats.run_ensemble = ensemble
    montecarlo.run_trial = _run_trial_wrapper(rec, montecarlo.run_trial)
    cli.write_trajectory_csv = _timed(rec, "locomotion.write_trajectory_csv",
                                      cli.write_trajectory_csv)
    cli.read_trajectory_csv = _timed(rec, "locomotion.read_trajectory_csv",
                                     cli.read_trajectory_csv)
    cli.ensemble_stats = _timed(rec, "montecarlo.ensemble_stats",
                                cli.ensemble_stats, n_trajs)
    fitstats.visit_frequencies = _timed(rec, "montecarlo.visit_frequencies",
                                        fitstats.visit_frequencies, n_trajs)
    cli.calibrate_entry_prob = _timed(rec, "fitstats.calibrate_entry_prob",
                                      cli.calibrate_entry_prob)
    trackio.read_ppm = _timed(rec, "trackio.read_ppm", trackio.read_ppm)
    cli.frames_to_trajectory = _timed(rec, "trackio.frames_to_trajectory",
                                      cli.frames_to_trajectory)
    cli.render_time_overlay = _timed(rec, "trackio.render_time_overlay",
                                     cli.render_time_overlay)
    cli.render_activity_map = _timed(rec, "trackio.render_activity_map",
                                     cli.render_activity_map)


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans, counts, entries) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; 0 where a layer did no work.

    ``entries`` holds per-trial room entries for each ensemble; the
    dispersion index is the mean over ensembles of each one's index.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_dur(s) for s in named(name))

    def own(s):
        return self_time(s["start"], s["end"], children.get(s["id"], ()))

    def ratio(num, den):
        return num / den if den else 0.0

    trials = named("locomotion.run_trial")
    ensembles = named("montecarlo.run_ensemble")
    searches = {s["id"] for s in named("fitstats.calibrate_entry_prob")}
    evals = [s for s in ensembles if s["parent"] in searches]
    stats = named("montecarlo.ensemble_stats") + named("montecarlo.visit_frequencies")
    frames = len(named("trackio.read_ppm"))
    trial_s: dict[int, float] = {}
    for s in trials:
        trial_s[s["parent"]] = trial_s.get(s["parent"], 0.0) + _dur(s)
    ticks = counts["ticks"]
    return {
        "locomotion.run_trial_ns_per_tick": ratio(
            1e9 * sum(_dur(s) for s in trials), sum(s["attrs"]["ticks"] for s in trials)),
        "locomotion.write_csv_ms_per_trial": ratio(
            1e3 * total("locomotion.write_trajectory_csv"),
            len(named("locomotion.write_trajectory_csv"))),
        "locomotion.read_csv_ms_per_trial": ratio(
            1e3 * total("locomotion.read_trajectory_csv"),
            len(named("locomotion.read_trajectory_csv"))),
        "montecarlo.run_ensemble_self_s": sum(own(s) for s in ensembles),
        "montecarlo.parallel_efficiency": parallel_efficiency(
            (trial_s.get(s["id"], 0.0), s["attrs"]["workers"], _dur(s)) for s in ensembles),
        "montecarlo.result_bytes_per_trial": ratio(
            sum(s["attrs"]["result_bytes"] for s in ensembles),
            sum(s["attrs"]["n_trials"] for s in ensembles)),
        "montecarlo.stats_ms_per_trial": ratio(
            1e3 * sum(_dur(s) for s in stats), sum(s["attrs"]["units"] for s in stats)),
        "fitstats.evaluations": len(evals),
        "fitstats.trials_simulated": sum(s["attrs"]["n_trials"] for s in evals),
        "fitstats.eval_s": sum(_dur(s) for s in evals),
        "fitstats.search_self_s": sum(own(s) for s in named("fitstats.calibrate_entry_prob")),
        "trackio.read_ppm_ms_per_frame": ratio(1e3 * total("trackio.read_ppm"), frames),
        "trackio.track_ms_per_frame": ratio(
            1e3 * sum(own(s) for s in named("trackio.frames_to_trajectory")), frames),
        "trackio.overlay_ms": 1e3 * total("trackio.render_time_overlay"),
        "trackio.activity_ms": 1e3 * total("trackio.render_activity_map"),
        "cli.setup_ms": 1e3 * total("cli.setup"),
        "automaton.still_share": ratio(counts["still"], ticks),
        "automaton.crawl_share": ratio(counts["crawl"], ticks),
        "automaton.explore_share": ratio(counts["explore"], ticks),
        "locomotion.contact_share": ratio(counts["contact"], ticks),
        "locomotion.room_tick_share": ratio(counts["room"], ticks),
        "locomotion.entries_per_trial": ratio(sum(map(sum, entries)),
                                             sum(map(len, entries))),
        "locomotion.entries_dispersion": ratio(
            sum(dispersion_index(e) for e in entries if len(e) > 1),
            sum(1 for e in entries if len(e) > 1)),
    }
