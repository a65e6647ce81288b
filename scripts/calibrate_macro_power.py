#!/usr/bin/env python3
"""Derive the LTE macrocell power coefficients bundled in data/power/macro.yaml.

The macrocell model is

    P_BS = p_fixed + n_st * n_tx * (P_r / amp_efficiency + p_per_tx_overhead)

with three coefficients pinned by two published anchors plus one structural
constraint:

  anchor A: a 1-sector SISO station at P_r = 4 W draws ~382.5 W
            (a 36-station network averaging 13769 W);
  constraint B: the power-amplifier draw (P_r / amp_efficiency) stays below
            10% of the station total, consistent with the reported
            "transmitters consume less than 10%" share;
  anchor C: moving to 4 transmitters must leave room for a strongly
            positive network-efficiency gain once the site count shrinks
            (the published 4x4 study), which bounds the per-transmitter
            block from above.

Chosen: amp_efficiency 0.12 (PA draw 33.3 W = 8.7% of total, satisfying B),
per-transmitter overhead 52 W, p_fixed = 382.47 - 85.33 = 297.14 W.
"""

from tvwsplan.power_energy import (RADIATED_POWER_W, MacroPowerParams,
                                   station_power_w)

TARGET_BS_W = 13769.0 / 36.0
AMP_EFFICIENCY = 0.12
P_PER_TX_OVERHEAD_W = 52.0


def main():
    per_tx = RADIATED_POWER_W / AMP_EFFICIENCY + P_PER_TX_OVERHEAD_W
    p_fixed = TARGET_BS_W - per_tx
    params = MacroPowerParams(p_fixed_w=round(p_fixed, 2),
                              amp_efficiency=AMP_EFFICIENCY,
                              p_per_tx_overhead_w=P_PER_TX_OVERHEAD_W)
    siso = station_power_w("macro", 1, params)
    mimo = station_power_w("macro", 4, params)
    pa_share = (RADIATED_POWER_W / AMP_EFFICIENCY) / siso
    print(f"target per-station power: {TARGET_BS_W:.2f} W")
    print(f"p_fixed = {params.p_fixed_w} W, amp_efficiency = {AMP_EFFICIENCY}, "
          f"per-tx overhead = {P_PER_TX_OVERHEAD_W} W")
    print(f"SISO station: {siso:.2f} W (network of 36: {36*siso:.0f} W)")
    print(f"PA share: {pa_share:.1%} (< 10% required)")
    print(f"4x4 station: {mimo:.2f} W")


if __name__ == "__main__":
    main()
