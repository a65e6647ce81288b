"""Planner benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a source checkout (nothing needs installing; the
checkout's `src/` is put on PYTHONPATH):

    python3 bench/run.py --workload plan-suburban --seed 1000 --seconds 35 --trace 0

Load model: closed loop, one client.  One iteration runs at a time, each in a
fresh `python3` process with TVWSPLAN_WORKERS unset (the program's default).
Iterations repeat while another one fits in `--seconds` (at least two), and
every iteration's outputs are checked (see `workloads.py`).

`--trace 0` reports the end-to-end metrics:

    setup_s      interpreter start + `import tvwsplan` + loading the bundled
                 scenario, technology and power data; median of 5 processes
    wall_s       iteration wall time (process start to exit), median
    cpu_s        user+sys CPU time of the iteration's process tree, median
    peak_rss_mb  peak resident memory of the iteration's process, median
    ok_fraction  iterations whose outputs passed every check / attempted

`--trace 1` alternates untraced and traced iterations (at least two pairs;
traced ones run with TVWSPLAN_WORKERS=1 so every call stays in the traced
process) and reports the per-layer metrics of `tracer.LAYER_METRICS`: counts
from the first traced iteration, times as medians, and `trace.overhead_s`,
the median traced-minus-untraced wall time over the pairs.  Every count must
repeat exactly across the traced iterations; a count that does not is a bug
in the benchmark and makes the result incorrect.

Outputs are checked by `check.py` in a process of its own, so this harness
never imports numpy or tvwsplan and stays smaller than any iteration (the
peak RSS that wait4 reports for a child includes its parent's at the fork).

The last stdout line is the result object; the line before it holds the run
metadata.  Both also go to `.bench_out/`, with the spans of the last traced
iteration.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

SETUP_SAMPLES = 5
MIN_ITERATIONS = 2
DEADLINE_S = 170.0  # the whole run must end within 180 s
OUT_DIR = ".bench_out"

SETUP_CODE = """
import tvwsplan as tp
for name in ("ghent_suburban", "boyeros_rural"):
    tp.bundled_scenario(name)
for env in ("suburban", "rural"):
    for tech in ("802.22", "802.22b", "802.11af", "lte"):
        tp.load_technology(tech, env)
for kind in ("tvws", "macro"):
    tp.load_power_params(kind)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_fraction": "fraction"}
KNOWN_DEFECTS = [
    "802.11af suburban network power lands ~10% above its [900, 1150] W band "
    "(README; acceptance test_c08_tvws_suburban_power[802.11af])",
    "802.22b suburban 4x4 efficiency change is negative, -18.5% "
    "(README; acceptance test_c09_22b_suburban_nonnegative_within_noise)",
    "rural runs print ModelValidityWarning lines on stderr (battery's cli.stderr_lines)",
]


class Iteration:
    """Measurements and check results of one iteration process."""

    def __init__(self, wall_s, usage, stderr_lines, problems, layers):
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stderr_lines = stderr_lines
        self.problems = problems
        self.layers = layers

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "peak_rss_mb": self.peak_rss_mb, "stderr_lines": self.stderr_lines,
                "problems": self.problems[:20]}


class Runner:
    """Spawns and times the processes of one benchmark run."""

    def __init__(self, root: Path, job: workloads.Job, workdir: Path, trace_file: Path):
        self.root, self.job, self.workdir, self.trace_file = root, job, workdir, trace_file
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv, traced=False, stderr=subprocess.DEVNULL):
        """(exit status, wall seconds, rusage) of `python3 argv` run to its end."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=self.root,
                                env=workloads.child_env(self.root, traced),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=stderr)
        watchdog = threading.Timer(max(1.0, self.remaining()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def setup_s(self) -> float:
        walls = []
        for _ in range(SETUP_SAMPLES):
            status, wall, _ = self.spawn(["-c", SETUP_CODE])
            if status != 0:
                raise RuntimeError(f"set-up process exited with status {status}")
            walls.append(wall)
        return statistics.median(walls)

    def check(self, out: Path, spans):
        """(problems, layers) from `check.py`, run in a process of its own."""
        argv = [str(workloads.BENCH_DIR / "check.py"), "--workload", self.job.workload,
                "--seed", str(self.job.seed), "--workdir", str(self.workdir),
                "--out", str(out)] + (["--spans", str(spans)] if spans else [])
        try:
            done = subprocess.run([sys.executable, *argv], cwd=self.root,
                                  env=workloads.child_env(self.root, traced=False),
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return ["check.py ran past the run's deadline"], None
        if done.returncode != 0:
            return [f"check.py failed: {done.stderr.strip()[-500:]}"], None
        result = json.loads(done.stdout)
        return result["problems"], result["layers"]

    def iterate(self, k: int, traced: bool = False) -> Iteration:
        out = self.workdir / f"iter-{k}"
        out.mkdir()
        argv = self.job.command(out)
        spans = self.workdir / f"spans-{k}.npz"
        if traced:
            argv = [str(workloads.BENCH_DIR / "tracer.py"), "--spans", str(spans),
                    "--iteration", str(k), "--", *argv]
        with open(self.workdir / f"stderr-{k}.txt", "w+") as err:
            status, wall, usage = self.spawn(argv, traced, stderr=err)
            err.seek(0)
            stderr_lines = sum(1 for _ in err)
        problems, layers = [f"exit status {status}"], None
        if status == 0:
            problems, layers = self.check(out, spans if traced else None)
        shutil.rmtree(out)
        if layers is not None:
            shutil.copyfile(spans, self.trace_file)
        return Iteration(wall, usage, stderr_lines, problems, layers)

    def repeat(self, seconds: float, step) -> list:
        """`step(k)` for k = 0, 1, ... while another fits in `seconds` (at least
        MIN_ITERATIONS times, and never past the run's deadline)."""
        results, durations = [], []
        start = time.perf_counter()
        while True:
            expected = statistics.median(durations) if durations else 0.0
            if len(results) >= MIN_ITERATIONS and (
                    time.perf_counter() - start + expected > seconds):
                break
            if results and expected > self.remaining() - 5.0:
                break
            began = time.perf_counter()
            results.append(step(len(results)))
            durations.append(time.perf_counter() - began)
        return results


def end_to_end(runner: Runner, seconds: float):
    setup = runner.setup_s()
    its = runner.repeat(seconds, runner.iterate)
    ok = sum(1 for i in its if not i.problems)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(i.wall_s for i in its),
        "cpu_s": statistics.median(i.cpu_s for i in its),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in its),
        "ok_fraction": ok / len(its),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return its, metrics, []


def layered(runner: Runner, seconds: float):
    # untraced and traced iterations alternate, so that the overhead compares
    # neighbours in time on a machine whose speed drifts
    pairs = runner.repeat(seconds, lambda k: (runner.iterate(2 * k),
                                              runner.iterate(2 * k + 1, traced=True)))
    its = [i for pair in pairs for i in pair]
    base, traced = [p[0] for p in pairs], [p[1] for p in pairs]
    if any(t.layers is None for t in traced):
        return its, {}, ["a traced iteration wrote no spans"]
    for t, b in zip(traced, base):
        t.layers["cli.stderr_lines"] = b.stderr_lines
    values, bugs = dict(traced[0].layers), []
    for metric in values:
        if metric.endswith(tracer.TIMED_SUFFIXES):
            values[metric] = statistics.median(t.layers[metric] for t in traced)
        else:
            seen = [t.layers[metric] for t in traced]
            if any(v != seen[0] for v in seen):
                bugs.append(f"count {metric} does not repeat across traced iterations: {seen}")
    values["trace.overhead_s"] = statistics.median(t.wall_s - b.wall_s for b, t in pairs)
    metrics = {k: {"value": values[k], "unit": unit}
               for k, unit in tracer.LAYER_METRICS.items()}
    return its, metrics, bugs


def git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(root: Path, args, seed: int, why: str) -> dict:
    return {
        "workload": args.workload, "why": why, "seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(root), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "known_defects": KNOWN_DEFECTS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED,
                    help="base seed of the workload, taken modulo 2**32")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    package = root / "src" / "tvwsplan" / "__init__.py"
    if not package.is_file():
        print(f"bench: no tvwsplan sources at {package}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    seed = args.seed % 2**32
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=out_dir))
    try:
        job = workloads.Job(args.workload, root, seed, workdir)
        job.prepare()
        runner = Runner(root, job, workdir, out_dir / f"{stem}-spans.npz")
        measure = layered if args.trace else end_to_end
        its, metrics, bugs = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for i in its if i.problems)
    for i in its:
        for p in i.problems[:5]:
            print(f"bench: check failed: {p}", file=sys.stderr)
    for b in bugs:
        print(f"bench: benchmark bug: {b}", file=sys.stderr)
    result = {"correct": failed == 0 and not bugs, "attempted": len(its),
              "failed": failed, "metrics": metrics}
    meta = metadata(root, args, seed, why)
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "iterations": [i.record() for i in its], "bugs": bugs,
         "result": result}, indent=1, sort_keys=True))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
