"""The `battery` workload: the 14-cell paper comparison as library calls.

Each cell (region x technology x SISO/4x4) grows its candidate site set and
then runs a campaign; every outcome of the 8 SISO cells goes through the
independent feasibility checker.  Campaigns and growth pilots run `RUNS`
runs each instead of the bundled 40, so that one iteration fits the
benchmark's run length; everything else is the bundled data.

    python3 bench/battery.py --seed 1000 --out battery.json

writes one JSON object per cell: site count, mean coverage, mean power,
literal energy efficiency, the sha256 of every run's event log, the per-run
coverage and power, and the checker's violation count (SISO cells only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace

import tvwsplan as tp

RUNS = 4
TECHS = ("802.22", "802.22b", "802.11af", "lte")
SCENARIOS = {"suburban": "ghent_suburban", "rural": "boyeros_rural"}


def cells():
    """(environment, technology, mimo) for the 14 comparison cells."""
    return [(env, tech, mimo) for env in SCENARIOS for tech in TECHS
            for mimo in ((False, True) if tech != "802.22" else (False,))]


def cell_name(env: str, tech: str, mimo: bool) -> str:
    return f"{env}/{tech}/{'4x4' if mimo else 'siso'}"


def event_log_digest(event_log) -> str:
    return hashlib.sha256(repr(event_log).encode()).hexdigest()


def run_battery(base_seed: int) -> dict:
    results = {}
    for env, tech, mimo in cells():
        sc = tp.bundled_scenario(SCENARIOS[env])
        sc = replace(sc, site_policy=replace(sc.site_policy, pilot_runs=RUNS))
        prof = tp.load_technology(tech, env, mimo=mimo)
        model = sc.model_for(prof)
        power = tp.load_power_params("tvws" if tech != "lte" else "macro")
        cfg = tp.PlannerConfig(runs=RUNS, base_seed=base_seed, mimo=mimo)
        sites, _ = tp.grow_site_set(sc, prof, sc.margins, model, power, cfg)
        camp = tp.run_campaign(sc, prof, sc.margins, model, power, cfg, sites=sites)
        violations = None
        if not mimo:
            violations = sum(len(tp.check_deployment(o, sc, prof, sc.margins, model,
                                                     cfg, sites))
                             for o in camp.outcomes)
        results[cell_name(env, tech, mimo)] = {
            "sites": len(sites),
            "mean_coverage": camp.mean_coverage,
            "mean_power_w": camp.mean_power_w,
            "ee_literal": tp.network_energy_efficiency(
                camp.outcomes, sc.region.area_km2,
                user_count=sc.population.user_count, include_user_count=True),
            "event_logs": [event_log_digest(o.event_log) for o in camp.outcomes],
            "coverage": [o.coverage_fraction for o in camp.outcomes],
            "power_w": [o.total_power_w for o in camp.outcomes],
            "violations": violations,
        }
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.out, "w") as f:
        json.dump(run_battery(args.seed), f, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
