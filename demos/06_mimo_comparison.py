#!/usr/bin/env python3
"""SISO versus 4x4 diversity: coverage gain against transmitter power cost.

The 12 dB diversity link gain enlarges every MCS footprint, so fewer sites
carry the load; each station, though, powers four transmitter chains.  The
comparison below reruns the full pipeline (growth + campaign) per antenna
configuration and reports the network-efficiency change.
"""

from tvwsplan import PlannerConfig, bundled_scenario, load_technology, plan
from tvwsplan.power_energy import network_energy_efficiency

print(f"{'cell':26s} {'mode':5s} {'cand':>5s} {'active':>7s} {'power':>9s} "
      f"{'coverage':>9s} {'EE':>8s}")

for env, scen in (("suburban", "ghent_suburban"), ("rural", "boyeros_rural")):
    sc = bundled_scenario(scen)
    for tech in ("802.22b", "802.11af", "lte"):
        results = {}
        for mimo in (False, True):
            profile = load_technology(tech, env, mimo=mimo)
            config = PlannerConfig(runs=40, base_seed=sc.base_seed, mimo=mimo)
            camp, _ = plan(sc, profile, config)
            ee = network_energy_efficiency(camp.outcomes, sc.region.area_km2,
                                           user_count=sc.population.user_count,
                                           include_user_count=True)
            results[mimo] = ee
            label = "4x4" if mimo else "SISO"
            print(f"{env + '/' + tech:26s} {label:5s} {len(camp.sites):5d} "
                  f"{camp.mean_active_sites:7.1f} {camp.mean_power_w:8.1f}W "
                  f"{camp.mean_coverage:9.4f} {ee:8.1f}")
        delta = (results[True] - results[False]) / results[False]
        print(f"{'':26s} efficiency change with 4x4: {delta:+.1%}\n")
