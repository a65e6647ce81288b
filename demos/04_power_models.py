#!/usr/bin/env python3
"""Station power models and the network energy-efficiency metric.

Shows the TVWS model (backhaul + idle + load-scaled radio unit) against
the calibrated macrocell model, then evaluates the efficiency metric on a
toy pair of Monte-Carlo runs under both accounting conventions.
"""

from tvwsplan import (BsPowerInput, bundled_scenario, load_power_params,
                      macro_bs_power_w, network_energy_efficiency, tvws_bs_power_w)
from tvwsplan.power_energy import RunEnergy

tvws = load_power_params("tvws")
macro = load_power_params("macro")

print("TVWS station power (W):")
print(f"  idle (alpha=0, P_r=0):        {tvws_bs_power_w(tvws, BsPowerInput(1, 0.0, 0.0)):7.2f}")
print(f"  SISO, 4 W radiated, full load: {tvws_bs_power_w(tvws, BsPowerInput(1, 4.0, 1.0)):7.2f}")
print(f"  4x4, 4 W per branch:           {tvws_bs_power_w(tvws, BsPowerInput(4, 4.0, 1.0)):7.2f}")

print("\nmacrocell station power (W):")
print(f"  SISO, 4 W radiated:            {macro_bs_power_w(macro, BsPowerInput(1, 4.0, 1.0)):7.2f}")
print(f"  4x4, 4 W per branch:           {macro_bs_power_w(macro, BsPowerInput(4, 4.0, 1.0)):7.2f}")

print("\nnetwork comparison at full load:")
print(f"  20 TVWS stations: {20 * tvws_bs_power_w(tvws, BsPowerInput(1, 4.0, 1.0)):8.1f} W")
print(f"  36 macro stations: {36 * macro_bs_power_w(macro, BsPowerInput(1, 4.0, 1.0)):7.1f} W")

runs = [
    RunEnergy(coverage_fraction=0.97, served_mbps=(16.0, 14.5, 15.2),
              power_w=(64.0, 64.0, 64.0)),
    RunEnergy(coverage_fraction=0.95, served_mbps=(15.1, 15.8, 13.9),
              power_w=(64.0, 64.0, 64.0)),
]
suburban = bundled_scenario("ghent_suburban")
area, users = suburban.region.area_km2, suburban.population.user_count
ee = network_energy_efficiency(runs, area_km2=area)
ee_lit = network_energy_efficiency(runs, area_km2=area, user_count=users,
                                   include_user_count=True)
print(f"\nefficiency metric on a toy two-run campaign over {suburban.name}:")
print(f"  units-clean convention:   {ee:10.2f} km^2*Mbps/W")
print(f"  user-count convention:    {ee_lit:10.2f} (x{users})")
