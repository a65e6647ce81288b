"""Benchmark workloads: the command one iteration runs, and its output checks.

Every iteration is one fresh `python3` process.  The two CLI workloads run
`python3 -m tvwsplan.cli plan ...`, the same entry point as the `tvwsplan`
console script; `battery` runs `bench/battery.py`.  The benchmark seed is
each workload's base seed.

Outputs are checked after the process ends, outside the timed region:

* at `REFERENCE_SEED` the artifacts must match `references.json`, recorded
  from the code this benchmark was written against (the sha256 of
  `report.json`, every CSV and `map.svg`; per battery cell the event-log
  digests, site count, mean coverage, mean power and literal EE);
* at every seed, `verify_report` must find no discrepancy in `report.json`,
  and `check_deployment` must find no violation in the first run's
  deployment (CLI workloads) or in any SISO outcome (`battery`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

from dense_lattice import dense_lattice_yaml

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
REFERENCE_SEED = 1000

WORKLOADS = ("plan-suburban", "battery", "dense-lattice")
PLAN_ARTIFACTS = ("report.json", "runs.csv", "population.csv", "deployment.csv",
                  "assignments.csv", "power.csv", "coverage_raster.csv", "map.svg")
DENSE_RUNS = 40
SUBURBAN_FILE = Path("src/tvwsplan/data/scenarios/ghent_suburban.yaml")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def child_env(root: Path, traced: bool) -> dict:
    """Environment of an iteration process: the checkout's sources, defaults."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TVWSPLAN_WORKERS", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(root / "src")
    if traced:
        env["TVWSPLAN_WORKERS"] = "1"  # keep every call in the traced process
    return env


class Job:
    """One workload at one seed, with its inputs prepared under `workdir`."""

    def __init__(self, workload: str, root: Path, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.root, self.seed = workload, root, seed
        self.scenario_path = None
        if workload == "dense-lattice":
            self.scenario_path = workdir / "dense_lattice.yaml"

    def prepare(self):
        """Write the inputs the workload's command reads (once per run)."""
        if self.scenario_path is not None:
            self.scenario_path.write_text(
                dense_lattice_yaml((self.root / SUBURBAN_FILE).read_text(), self.seed))

    def command(self, out: Path) -> list:
        """Arguments after `python3` for one iteration writing into `out`."""
        if self.workload == "battery":
            return [str(BENCH_DIR / "battery.py"), "--seed", str(self.seed),
                    "--out", str(out / "battery.json")]
        cmd = ["-m", "tvwsplan.cli", "plan", "--seed", str(self.seed), "--out", str(out)]
        if self.workload == "dense-lattice":
            return cmd + ["--scenario", str(self.scenario_path), "--runs", str(DENSE_RUNS)]
        return cmd + ["--env", "suburban"]

    def run_untimed(self, out: Path):
        """Run one iteration into the new directory `out`, as the benchmark
        runs it but untimed; raises if the process fails."""
        out.mkdir()
        subprocess.run([sys.executable, *self.command(out)], cwd=self.root, check=True,
                       env=child_env(self.root, traced=False),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def fingerprint(self, out: Path) -> dict:
        """What `references.json` records for this workload."""
        if self.workload == "battery":
            cells = json.loads((out / "battery.json").read_text())
            keys = ("sites", "mean_coverage", "mean_power_w", "ee_literal", "event_logs")
            return {name: {k: cell[k] for k in keys} for name, cell in cells.items()}
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in PLAN_ARTIFACTS}

    def artifact_bytes(self, out: Path) -> int:
        """Bytes of the CLI artifacts an iteration wrote (0 for `battery`)."""
        return sum((out / name).stat().st_size for name in PLAN_ARTIFACTS
                   if (out / name).exists())

    def check(self, out: Path, references: dict | None) -> list:
        """Problems found in an iteration's outputs; empty when all is right.

        At the reference seed the outputs must also match `references`
        (skipped when it is None, as while recording them).
        """
        try:
            problems = self._check_outputs(out)
            if not problems and self.seed == REFERENCE_SEED and references is not None:
                problems += _compare(self.fingerprint(out), references[self.workload])
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems = [f"outputs unreadable: {type(e).__name__}: {e}"]
        return problems

    def _check_outputs(self, out: Path) -> list:
        from tvwsplan.propagation import ModelValidityWarning
        with warnings.catch_warnings():
            # the checker re-evaluates path loss; its warnings are not the workload's
            warnings.simplefilter("ignore", ModelValidityWarning)
            if self.workload == "battery":
                return _check_battery(json.loads((out / "battery.json").read_text()))
            return self._check_plan(out)

    def _check_plan(self, out: Path) -> list:
        from tvwsplan.link_budget import load_technology
        from tvwsplan.planner import (Deployment, PlannerConfig, RunOutcome,
                                      check_deployment)
        from tvwsplan.reporting import SimulationReport, verify_report
        from tvwsplan.scenario import bundled_scenario, load_scenario

        raw = json.loads((out / "report.json").read_text())
        raw.pop("schema_version")
        report = SimulationReport(**raw)
        problems = [f"verify_report: {p}" for p in verify_report(report)]
        if report.base_seed != self.seed:
            problems.append(f"report base seed {report.base_seed} != {self.seed}")

        if self.scenario_path is not None:
            scenario = load_scenario(self.scenario_path)
        else:
            scenario = bundled_scenario("ghent_suburban")
        profile = load_technology(report.technology, scenario.environment,
                                  mimo=report.mimo)
        model = scenario.model_for(profile)
        config = PlannerConfig(runs=report.runs, base_seed=report.base_seed,
                               mimo=report.mimo)
        sites = scenario.lattice_sites(report.site_count)

        rows = _csv_rows(out / "deployment.csv")
        if [int(r["site_id"]) for r in rows] != [s.id for s in sites] or any(
                abs(float(r["x_km"]) - s.x_km) > 1e-6 or abs(float(r["y_km"]) - s.y_km) > 1e-6
                for r, s in zip(rows, sites)):
            problems.append("deployment.csv sites differ from the scenario's lattice")
        active = [r for r in rows if r["active"] == "1"]
        assignments = {int(r["user_id"]): int(r["site_id"])
                       for r in _csv_rows(out / "assignments.csv")}
        first = report.per_run[0]
        deployment = Deployment(
            active_sites={int(r["site_id"]) for r in active},
            assignments=assignments,
            per_site_served_mbps={int(r["site_id"]): float(r["served_mbps"]) for r in active},
            per_site_power_w={int(r["site_id"]): float(r["power_w"]) for r in active},
            uncovered_users=set(range(report.user_count)) - set(assignments))
        if len(active) != first["active_sites"]:
            problems.append("deployment.csv active count differs from run 0")
        outcome = RunOutcome(seed=first["seed"], coverage_fraction=first["coverage"],
                             deployment=deployment, total_power_w=first["power_w"],
                             served_mbps_total=first["served_mbps"])
        problems += [f"check_deployment: {p}" for p in check_deployment(
            outcome, scenario, profile, scenario.margins, model, config, sites)]
        return problems


def _csv_rows(path: Path) -> list:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _check_battery(cells: dict) -> list:
    from battery import RUNS, cell_name, cells as all_cells

    problems = []
    expected = [cell_name(*c) for c in all_cells()]
    if sorted(cells) != sorted(expected):
        return [f"battery cells {sorted(cells)} != {sorted(expected)}"]
    for name, cell in cells.items():
        if len(cell["event_logs"]) != RUNS:
            problems.append(f"{name}: {len(cell['event_logs'])} runs, expected {RUNS}")
        if cell["violations"]:
            problems.append(f"{name}: check_deployment found {cell['violations']} violations")
        if name.endswith("/siso") and cell["violations"] is None:
            problems.append(f"{name}: SISO cell was not checked")
        for key, runs in (("mean_coverage", "coverage"), ("mean_power_w", "power_w")):
            mean = sum(cell[runs]) / len(cell[runs])
            if not math.isclose(cell[key], mean, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"{name}: {key} {cell[key]} != mean of runs {mean}")
    return problems


def _compare(got: dict, want: dict, path: str = "") -> list:
    if isinstance(want, dict) and isinstance(got, dict):
        problems = [f"{path}{k}: missing" for k in want if k not in got]
        problems += [f"{path}{k}: unexpected" for k in got if k not in want]
        for k in want:
            if k in got:
                problems += _compare(got[k], want[k], f"{path}{k}/")
        return problems
    return [] if got == want else [f"{path.rstrip('/')}: {got!r} != reference {want!r}"]

