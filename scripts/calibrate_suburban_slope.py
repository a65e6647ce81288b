#!/usr/bin/env python3
"""Derive the suburban one-slope coefficients bundled with ghent_suburban.

The suburban propagation model is an empirical one-slope fit whose source
measurement campaign is not available in closed form, so the bundled
coefficients are anchored to published study results instead:

  anchor A: the 802.22b station reaches 7.0 km at its lowest MCS
            (1/2 QPSK) under the suburban link budget;
  anchor B: the LTE station reaches 3.2 km (+/-10%) at 1/2 QPSK;
  anchor C: the per-MCS station-count sweep selects `SWEEP_OPTIMA`.

Anchor A pins pl0 once the exponent n is chosen.  Anchor B bounds n from
above (a larger n shrinks the LTE range below tolerance), anchor C from
below (a smaller n enlarges mid-tier ranges until the LTE optimum drifts off
1/2 16-QAM); n is the window's midpoint to two decimals.  `derive()` reads
the margins, area and demand from the bundled scenario; `main()` prints its
result beside the bundled coefficients and exits 1 if they disagree.
"""

import math
from dataclasses import replace

from tvwsplan import bundled_scenario, load_technology, max_allowable_path_loss_db
from tvwsplan.propagation import reach_km
from tvwsplan.sizing import sweep_mcs

ANCHOR_22B_KM = 7.0
ANCHOR_LTE_KM = 3.2
LTE_TOL = 0.10
SWEEP_OPTIMA = {"802.22": "2/3 16-QAM", "802.22b": "2/3 16-QAM",
                "802.11af": "3/4 16-QAM", "lte": "1/2 16-QAM"}


def derive():
    """(lo, hi, model): the feasible exponent window, and the bundled model
    with the coefficients it implies at their stored precision."""
    scenario = bundled_scenario("ghent_suburban")
    margins, base = scenario.margins, scenario.model
    sizing = scenario.region.area_km2, scenario.population.expected_demand_mbps
    profiles = {tech: load_technology(tech, "suburban") for tech in SWEEP_OPTIMA}
    pl_22b, pl_lte = (max_allowable_path_loss_db(p, margins, p.mcs_table[0])
                      for p in (profiles["802.22b"], profiles["lte"]))

    def model_at(n):  # anchor A
        return replace(base, exponent=n, pl0_db=pl_22b - 10.0 * n * math.log10(
            ANCHOR_22B_KM / base.d0_km))

    def feasible(n):  # anchors B and C
        model = model_at(n)
        return (abs(reach_km(model, pl_lte) - ANCHOR_LTE_KM) <= LTE_TOL * ANCHOR_LTE_KM
                and all(next(r.mcs_label for r in sweep_mcs(prof, margins, model, *sizing)
                             if r.is_optimal) == SWEEP_OPTIMA[tech]
                        for tech, prof in profiles.items()))

    window = [n for n in (round(1.40 + 0.005 * i, 3) for i in range(161)) if feasible(n)]
    if not window:
        raise SystemExit("no feasible exponent window")
    model = model_at(round(0.5 * (window[0] + window[-1]), 2))
    return window[0], window[-1], replace(model, pl0_db=round(model.pl0_db, 6))


def main():
    lo, hi, derived = derive()
    bundled = bundled_scenario("ghent_suburban").model
    print(f"feasible exponent window: [{lo:.3f}, {hi:.3f}]")
    print(f"chosen exponent n = {derived.exponent}")
    print(f"pl0({derived.d0_km:g} km) = {derived.pl0_db:.6f} dB")
    print(f"bundled values: exponent {bundled.exponent}, pl0 {bundled.pl0_db} dB "
          f"(calibration id {bundled.calibration_id})")
    if derived != bundled:
        raise SystemExit("derived coefficients disagree with the bundled scenario")


if __name__ == "__main__":
    main()
