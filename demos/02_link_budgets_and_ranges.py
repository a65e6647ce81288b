#!/usr/bin/env python3
"""Link budgets and bitrate-versus-range curves for all four technologies.

Reproduces the per-MCS coverage ranges in both study environments, showing
how receiver sensitivity, margins and the propagation model combine.
"""

from tvwsplan import (bundled_scenario, coverage_curve, load_technology,
                      max_allowable_path_loss_db, occupied_bandwidth_hz)

for env, scen in (("suburban", "ghent_suburban"), ("rural", "boyeros_rural")):
    sc = bundled_scenario(scen)
    print(f"\n=== {env} ({sc.name}: {sc.region.area_km2:.0f} km^2, "
          f"{sc.population.user_count} users) ===")
    for tech in ("802.22", "802.22b", "802.11af", "lte"):
        profile = load_technology(tech, env)
        occ = occupied_bandwidth_hz(profile) / 1e6
        print(f"\n{tech}: {profile.bandwidth_mhz:.0f} MHz channel, "
              f"{occ:.3f} MHz occupied, NF {profile.rx_noise_figure_db:.0f} dB")
        print(f"  {'MCS':12s} {'PL_max':>8s} {'bitrate':>8s} {'range':>8s}")
        curve = coverage_curve(profile, sc.margins, sc.model_for(profile))
        for mcs, (_, bitrate, rng) in zip(profile.mcs_table, curve):
            pl = max_allowable_path_loss_db(profile, sc.margins, mcs)
            note = "" if mcs.deployable else "  (not deployable)"
            print(f"  {mcs.label:12s} {pl:7.2f}  {bitrate:6.1f} Mb/s {rng:7.3f} km{note}")
