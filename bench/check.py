"""Check one iteration's outputs in a process of its own.

    python3 bench/check.py --workload W --seed S --workdir DIR --out DIR [--spans FILE]

Prints one JSON object: `problems` (empty when every check passed) and, when
`--spans` is given, `layers`, the per-layer metrics of the traced iteration.

The harness that spawns the timed iterations never imports tvwsplan or
numpy: a child's peak RSS as reported by wait4 includes its parent's
resident memory at the fork, so the harness has to stay smaller than any
iteration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import tracer
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    import tvwsplan
    problems = []
    if Path(tvwsplan.__file__).resolve() != root / "src" / "tvwsplan" / "__init__.py":
        problems.append(f"tvwsplan imported from {tvwsplan.__file__}, not this checkout")
    job = workloads.Job(args.workload, root, args.seed, Path(args.workdir))
    problems += job.check(Path(args.out), workloads.load_references())
    layers = None
    if args.spans:
        layers = tracer.summarize(*tracer.load(args.spans))
        layers["reporting.artifact_bytes"] = job.artifact_bytes(Path(args.out))
    json.dump({"problems": problems, "layers": layers}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
