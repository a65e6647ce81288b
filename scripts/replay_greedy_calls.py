#!/usr/bin/env python3
"""Time the greedy kernel on the calls the benchmark workloads make.

    python3 scripts/replay_greedy_calls.py [--seed 1000]

Runs the three workloads of `bench/` in this process at `--seed`:
`plan --env suburban`, `plan` on the scenario `bench/dense_lattice.py`
writes (40 runs) and `bench/battery.run_battery`.  Every call they make to
`planner._greedy_plan` is recorded; each round then replays every workload's
calls once, and the script prints per workload the call count and the median
of 12 round times.  The benchmark's tracer wraps only the public planner
entry points, so it reads no time for this layer.  `bench/` is only read:
the `plan` outputs go to a temporary directory.
"""

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from battery import run_battery  # noqa: E402
from dense_lattice import dense_lattice_yaml  # noqa: E402
from workloads import DENSE_RUNS, SUBURBAN_FILE  # noqa: E402
from tvwsplan import cli, planner  # noqa: E402

ROUNDS = 12


def record(workload) -> list:
    """The argument tuples of every `_greedy_plan` call `workload()` makes."""
    calls, kernel = [], planner._greedy_plan

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    planner._greedy_plan = recording
    try:
        workload()
    finally:
        planner._greedy_plan = kernel
    return calls


def plan_cli(*args):
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["plan", "--out", out, *args]) != 0:
            raise RuntimeError(f"plan {' '.join(args)} failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args(argv)
    seed = str(args.seed)

    with tempfile.TemporaryDirectory() as tmp:
        dense = Path(tmp) / "dense_lattice.yaml"
        dense.write_text(dense_lattice_yaml((ROOT / SUBURBAN_FILE).read_text(),
                                         args.seed))
        workloads = {
            "plan-suburban": lambda: plan_cli("--env", "suburban", "--seed", seed),
            "dense-lattice": lambda: plan_cli("--scenario", str(dense), "--seed",
                                              seed, "--runs", str(DENSE_RUNS)),
            "battery": lambda: run_battery(args.seed),
        }
        calls = {name: record(w) for name, w in workloads.items()}

    times = {name: [] for name in calls}
    for _ in range(ROUNDS):
        for name, recorded in calls.items():
            start = time.perf_counter()
            for call in recorded:
                planner._greedy_plan(*call)
            times[name].append(time.perf_counter() - start)
    for name, recorded in calls.items():
        print(f"{name}: {len(recorded)} calls, median "
              f"{1e3 * statistics.median(times[name]):.1f} ms "
              f"over {ROUNDS} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
