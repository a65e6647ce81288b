"""Span tracer for the benchmark's traced runs.

`install` wraps the public functions listed in `TRACED` under every name a
tvwsplan module binds them to, so each call records a span (name, start,
end, parent span, iteration) and feeds the counters its observer keeps.
Spans stay in memory and are written out when the process ends.  The
program itself is unchanged: only the names its modules look up are
replaced.

Run as a script, it traces one workload iteration:

    python3 bench/tracer.py --spans OUT.npz --iteration 1 -- -m tvwsplan.cli plan ...
    python3 bench/tracer.py --spans OUT.npz --iteration 1 -- bench/battery.py ...

The command after `--` is the same one an untraced iteration runs with
`python3`; its exit status becomes the tracer's.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import inspect
import json
import runpy
import statistics
import sys
import time
import warnings

# metric prefix -> (defining module, attribute path)
TRACED = {
    "scenario.generate_population": ("tvwsplan.scenario", "generate_population"),
    "scenario.lattice_sites": ("tvwsplan.scenario", "Scenario.lattice_sites"),
    "geometry.point_in_polygon": ("tvwsplan.geometry", "point_in_polygon"),
    "geometry.points_in_polygon": ("tvwsplan.geometry", "points_in_polygon"),
    "propagation.path_loss_db": ("tvwsplan.propagation", "path_loss_db"),
    "propagation.path_loss_array_db": ("tvwsplan.propagation", "path_loss_array_db"),
    "propagation.invert_range_km": ("tvwsplan.propagation", "invert_range_km"),
    "sizing.sweep_mcs": ("tvwsplan.sizing", "sweep_mcs"),
    "planner.plan_single_run": ("tvwsplan.planner", "plan_single_run"),
    "planner.run_campaign": ("tvwsplan.planner", "run_campaign"),
    "planner.grow_site_set": ("tvwsplan.planner", "grow_site_set"),
    "planner.check_deployment": ("tvwsplan.planner", "check_deployment"),
    "reporting.build_report": ("tvwsplan.reporting", "build_report"),
    "reporting.raster_csv": ("tvwsplan.reporting", "raster_csv"),
    "reporting.svg_map": ("tvwsplan.reporting", "svg_map"),
    "reporting.assignment_csv": ("tvwsplan.reporting", "assignment_csv"),
}

EVENT_KINDS = ("connect", "reject_capacity", "activate", "switch",
               "switch_reject", "uncovered")

# per-layer metrics a traced run reports: name -> unit
LAYER_METRICS = {
    "scenario.generate_population.calls": "count",
    "scenario.generate_population.self_s": "s",
    "scenario.population.reuse_ratio": "ratio",
    "scenario.lattice_sites.calls": "count",
    "scenario.lattice_sites.self_s": "s",
    "geometry.point_in_polygon.calls": "count",
    "geometry.point_in_polygon.self_s": "s",
    "geometry.points_in_polygon.calls": "count",
    "geometry.points_in_polygon.points": "count",
    "geometry.points_in_polygon.self_s": "s",
    "propagation.path_loss_db.calls": "count",
    "propagation.path_loss_db.self_s": "s",
    "propagation.path_loss_array_db.calls": "count",
    "propagation.path_loss_array_db.cells": "count",
    "propagation.path_loss_array_db.self_s": "s",
    "propagation.invert_range_km.calls": "count",
    "propagation.invert_range_km.self_s": "s",
    "propagation.validity_warnings": "count",
    "sizing.sweep_mcs.calls": "count",
    "sizing.sweep_mcs.self_s": "s",
    "planner.plan_single_run.calls": "count",
    "planner.plan_single_run.self_s": "s",
    "planner.plan_single_run.p50_ms": "ms",
    "planner.plan_single_run.p90_ms": "ms",
    "planner.run_campaign.calls": "count",
    "planner.run_campaign.self_s": "s",
    "planner.grow_site_set.calls": "count",
    "planner.grow_site_set.self_s": "s",
    "planner.grow_site_set.steps": "count",
    "planner.grow_site_set.sites_tried": "count",
    "planner.duplicate_runs": "count",
    **{f"planner.events.{kind}": "count" for kind in EVENT_KINDS},
    "planner.check_deployment.calls": "count",
    "planner.check_deployment.self_s": "s",
    "planner.check_deployment.violations": "count",
    "reporting.build_report.self_s": "s",
    "reporting.raster_csv.self_s": "s",
    "reporting.raster_csv.pixels": "count",
    "reporting.svg_map.self_s": "s",
    "reporting.assignment_csv.self_s": "s",
    # measured by the harness from the iteration's outputs, not by spans
    "reporting.artifact_bytes": "bytes",
    "cli.stderr_lines": "lines",
    "trace.overhead_s": "s",
}

# metrics that are times; every other metric is a count that must repeat
TIMED_SUFFIXES = (".self_s", "_ms", "overhead_s")


class Tracer:
    """In-memory spans and counters of one traced iteration."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.names: list[str] = []
        self.spans: list = []          # (name index, start, end, parent, iteration)
        self.counts = collections.Counter()
        self.population_keys: set = set()
        self.run_keys: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """`fn` with a span per call; `observe(tracer, bound_args, result)` after."""
        index = len(self.names)
        self.names.append(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (index, start, end, parent, self.iteration)
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def save(self, path):
        import numpy as np
        spans = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez(path, spans=spans,
                 meta=np.array(json.dumps({"names": self.names,
                                           "counts": dict(self.counts)})))


def load(path):
    """(names, spans, counts) as written by `Tracer.save`."""
    import numpy as np
    with np.load(path) as f:
        meta = json.loads(str(f["meta"]))
        spans = [(int(n), s, e, int(p), int(i)) for n, s, e, p, i in f["spans"].tolist()]
    return meta["names"], spans, collections.Counter(meta["counts"])


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens
# ---------------------------------------------------------------------------

def _observe_population(tracer, a, result):
    tracer.population_keys.add((a["region"], a["spec"], a["seed"]))


def _observe_run(tracer, a, result):
    config = a["config"]
    key = repr((a["scenario"].region, a["scenario"].population, a["profile"],
                a["margins"], a["model"], a["power_params"], config.mcs_mode,
                config.mcs_label, config.rebalance_scope, config.shuffle_user_order,
                None if a.get("sites") is None else tuple(a["sites"]), a["seed"]))
    if key in tracer.run_keys:
        tracer.counts["planner.duplicate_runs"] += 1
    tracer.run_keys.add(key)
    for event in result.event_log:
        tracer.counts[f"planner.events.{event[0]}"] += 1


def _observe_points(tracer, a, result):
    tracer.counts["geometry.points_in_polygon.points"] += len(result)


def _observe_array(tracer, a, result):
    tracer.counts["propagation.path_loss_array_db.cells"] += int(result.size)


def _observe_growth(tracer, a, result):
    _, history = result
    tracer.counts["planner.grow_site_set.steps"] += len(history)
    tracer.counts["planner.grow_site_set.sites_tried"] += sum(n for n, _ in history)


def _observe_check(tracer, a, result):
    tracer.counts["planner.check_deployment.violations"] += len(result)


def _observe_raster(tracer, a, result):
    rows = [line for line in result.splitlines() if not line.startswith("#")]
    tracer.counts["reporting.raster_csv.pixels"] += len(rows) - 1  # minus header


OBSERVERS = {
    "scenario.generate_population": _observe_population,
    "planner.plan_single_run": _observe_run,
    "geometry.points_in_polygon": _observe_points,
    "propagation.path_loss_array_db": _observe_array,
    "planner.grow_site_set": _observe_growth,
    "planner.check_deployment": _observe_check,
    "reporting.raster_csv": _observe_raster,
}


def install(tracer: Tracer):
    """Replace every binding of each traced function in loaded tvwsplan modules.

    `tvwsplan.cli` is deliberately not imported here: the traced command
    imports it afterwards and binds the wrappers from the patched modules.
    """
    from tvwsplan.propagation import ModelValidityWarning

    modules = {name: importlib.import_module(mod) for name, (mod, _) in TRACED.items()}
    for name, (_, attr) in TRACED.items():
        owner = modules[name]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        setattr(owner, leaf, wrapper)
        for mod in [m for n, m in sys.modules.items()
                    if n == "tvwsplan" or n.startswith("tvwsplan.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    original_warn = warnings.warn

    def warn(message, category=None, stacklevel=1, source=None, **kwargs):
        kind = type(message) if isinstance(message, Warning) else category
        if kind is not None and issubclass(kind, ModelValidityWarning):
            tracer.counts["propagation.validity_warnings"] += 1
        return original_warn(message, category, stacklevel + 1, source, **kwargs)

    warnings.warn = warn


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(names, spans) -> dict:
    """Seconds per span name of duration not covered by the span's children.

    A span's self time is its duration minus the part of its interval that
    the union of its child spans covers.
    """
    children = collections.defaultdict(list)
    for span_id, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = dict.fromkeys(names, 0.0)
    for span_id, (index, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[names[index]] += (end - start) - covered
    return out


def summarize(names, spans, counts) -> dict:
    """Per-layer metric values of one traced iteration (spans and counters).

    Metrics the harness measures outside the traced process read 0 here.
    """
    calls = collections.Counter(names[s[0]] for s in spans)
    own = self_times(names, spans)
    values = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls[layer]
        elif stat == "self_s":
            values[metric] = own[layer]
        else:
            values[metric] = counts.get(metric, 0)
    run_ms = [1000.0 * (e - s) for i, s, e, _, _ in spans
              if names[i] == "planner.plan_single_run"]
    p50 = statistics.median(run_ms) if run_ms else 0.0
    values["planner.plan_single_run.p50_ms"] = p50
    values["planner.plan_single_run.p90_ms"] = (
        statistics.quantiles(run_ms, n=10, method="inclusive")[8] if len(run_ms) > 1 else p50)
    distinct = counts.get("scenario.population.distinct", 0)
    values["scenario.population.reuse_ratio"] = (
        calls["scenario.generate_population"] / distinct if distinct else 0.0)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="trace one benchmark iteration")
    ap.add_argument("--spans", required=True, help="output .npz file")
    ap.add_argument("--iteration", type=int, default=0)
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- then `-m module args...` or `script.py args...`")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer(args.iteration)
    install(tracer)
    status = 0
    try:
        if command[0] == "-m":
            sys.argv = command[1:]
            runpy.run_module(command[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = command
            runpy.run_path(command[0], run_name="__main__")
    except SystemExit as e:
        status = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.counts["scenario.population.distinct"] = len(tracer.population_keys)
        tracer.save(args.spans)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
