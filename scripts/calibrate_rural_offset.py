#!/usr/bin/env python3
"""Derive the rural path-loss calibration offset bundled with boyeros_rural.

The rural model is the textbook Okumura-Hata open-area formula with the
small/medium-city mobile-antenna correction.  The published maximum ranges
at 1/2 QPSK (`ANCHORS`) sit a consistent margin below what the raw formula
plus the catalogued link budgets predict:

    implied_offset(tech) = PL_max(tech, 1/2 QPSK) - Hata(f_tech, anchor_km)

On their different carriers the two technologies imply offsets within 0.01
dB of each other: a frequency-flat environment term, not a budget error, so
the scenario carries their mean as `offset_db`.  `derive()` reads the
margins and antenna heights from the bundled scenario; `main()` prints its
result beside the bundled offset and exits 1 if they disagree.
"""

from dataclasses import replace

from tvwsplan import bundled_scenario, load_technology, max_allowable_path_loss_db
from tvwsplan.propagation import path_loss_db, reach_km

ANCHORS = {"802.22b": 17.6, "lte": 12.1}


def derive():
    """(rows, model): per anchor technology its raw model, PL_max and implied
    offset, and the bundled model with their mean offset, stored precision."""
    scenario = bundled_scenario("boyeros_rural")
    rows = {}
    for tech, anchor_km in ANCHORS.items():
        profile = load_technology(tech, "rural")
        raw = replace(scenario.model_for(profile), offset_db=0.0)
        pl_max = max_allowable_path_loss_db(profile, scenario.margins, profile.mcs_table[0])
        rows[tech] = raw, pl_max, pl_max - path_loss_db(raw, anchor_km)
    offset = sum(row[2] for row in rows.values()) / len(rows)
    return rows, replace(scenario.model, offset_db=round(offset, 6))


def main():
    rows, derived = derive()
    bundled = bundled_scenario("boyeros_rural").model
    for tech, (_, pl_max, implied) in rows.items():
        print(f"{tech:8s}: PL_max(1/2 QPSK) = {pl_max:.4f} dB, "
              f"implied offset = {implied:.6f} dB")
    implied = [row[2] for row in rows.values()]
    print(f"spread across carriers: {max(implied) - min(implied):.4f} dB (frequency-flat)")
    print(f"mean offset = {derived.offset_db:.6f} dB")
    for tech, (raw, pl_max, _) in rows.items():
        rng = reach_km(replace(raw, offset_db=derived.offset_db), pl_max)
        print(f"{tech:8s}: range with offset = {rng:.4f} km "
              f"(anchor {ANCHORS[tech]}, error {abs(rng - ANCHORS[tech])*1000:.1f} m)")
    print(f"bundled value: offset_db {bundled.offset_db} "
          f"(calibration id {bundled.calibration_id})")
    if derived != bundled:
        raise SystemExit("derived offset disagrees with the bundled scenario")


if __name__ == "__main__":
    main()
