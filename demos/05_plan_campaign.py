#!/usr/bin/env python3
"""End-to-end planning campaign on the bundled suburban scenario.

Grows the candidate-site set until the pilot coverage target is met, runs
the 40-draw Monte-Carlo campaign, prints the aggregates and writes the
report artifacts (JSON report, per-run CSV, deployment map SVG).
"""

from pathlib import Path

from tvwsplan import PlannerConfig, bundled_scenario, load_technology, plan
from tvwsplan.reporting import build_report, report_to_json, runs_csv, svg_map

scenario = bundled_scenario("ghent_suburban")
profile = load_technology("802.22b", "suburban")
config = PlannerConfig(runs=40, base_seed=scenario.base_seed)

print(f"scenario: {scenario.name} ({scenario.region.area_km2:.0f} km^2, "
      f"{scenario.population.user_count} users), technology {profile.name}")

result, history = plan(scenario, profile, config)
print("\nsite growth trajectory (candidates -> pilot mean coverage):")
for count, cov in history:
    print(f"  {count:3d} -> {cov:.4f}")

report = build_report(scenario, profile, result)
print(f"\nplanning MCS: {report.planning_mcs}")
print(f"candidates: {report.site_count}, mean active: {report.mean_active_sites:.1f}")
print(f"mean coverage: {report.mean_coverage:.4f} (std {report.std_coverage:.4f})")
print(f"mean network power: {report.mean_power_w:.1f} W")
print(f"efficiency (user-count convention): {report.energy_efficiency_literal:.1f}")

out = Path("demo05_out")
out.mkdir(exist_ok=True)
(out / "report.json").write_text(report_to_json(report))
(out / "runs.csv").write_text(runs_csv(report))
(out / "map.svg").write_text(svg_map(result.outcomes[0], scenario, result.sites,
                                     title="802.22b suburban deployment"))
print(f"\nartifacts written to {out}/")
