#!/usr/bin/env python3
"""Regenerate tests/data/golden_battery.json.

The file locks the 14-cell acceptance battery (both bundled regions, four
technologies, SISO and 4x4, 40 runs per campaign): per cell the sha256 of
every run's event log, the grown site count and growth history, and the
`repr` of mean coverage, mean power and literal energy efficiency.  It is
written by `build_battery`, the function behind the module-scoped `battery`
fixture of `tests/test_acceptance.py`, whose `test_golden_battery_lock`
compares the two.

Run it only when planner results change on purpose:

    python3 scripts/make_golden_battery.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance  # noqa: E402


def main() -> int:
    cells = test_acceptance.build_battery()
    bad = {k: len(c["violations"]) for k, c in cells.items() if c["violations"]}
    if bad:
        print(f"checker violations, not writing: {bad}", file=sys.stderr)
        return 1
    summary = test_acceptance.golden_summary(cells)
    path = test_acceptance.GOLDEN_BATTERY
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}: {len(summary)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
