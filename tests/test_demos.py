"""The demos run end to end in a fresh process, silently on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import with_src

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, writes", [
    ("01_path_loss_models.py", []),  # the plot only where matplotlib is installed
    ("02_link_budgets_and_ranges.py", []),
    ("03_station_count_bounds.py", []),
    ("04_power_models.py", []),
    ("05_plan_campaign.py", ["demo05_out/report.json", "demo05_out/runs.csv",
                             "demo05_out/map.svg"]),
    ("06_mimo_comparison.py", [])])
def test_demo_runs_with_empty_stderr(tmp_path, demo, writes):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=with_src(os.environ),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert all((tmp_path / name).is_file() for name in writes)
