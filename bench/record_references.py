"""Record `references.json`: every workload's outputs at the reference seed.

    python3 bench/record_references.py

Run from the root of a source checkout.  The benchmark fails any iteration
at the reference seed whose outputs differ from this file, so regenerate it
only with a change that alters results on purpose, and say why in that
change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    references = {}
    (root / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_out") as tmp:
        for name in workloads.WORKLOADS:
            job = workloads.Job(name, root, workloads.REFERENCE_SEED, Path(tmp))
            job.prepare()
            out = Path(tmp) / name
            job.run_untimed(out)
            problems = job.check(out, references=None)
            if problems:
                print(f"{name}: outputs fail their checks: {problems[:5]}", file=sys.stderr)
                return 1
            references[name] = job.fingerprint(out)
            print(f"{name}: recorded", file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(
        {"seed": workloads.REFERENCE_SEED, **references}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
