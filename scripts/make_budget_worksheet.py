#!/usr/bin/env python3
"""Regenerate docs/link_budget_worksheet.csv.

    python3 scripts/make_budget_worksheet.py [OUT]

writes the worksheet to OUT (default docs/link_budget_worksheet.csv).  The
worksheet lists every budget line per technology/environment/MCS using
straight-line arithmetic written out independently of the library, so tests
can cross-check `max_allowable_path_loss_db` against values that were not
produced by it.
"""

import argparse
import csv
import math
from pathlib import Path

# catalogue values restated here on purpose: the worksheet must not import
# the library it is used to check
TECHS = {
    "802.22": dict(sf=1.142, nf=4.0, im=0.0, sc={"suburban": (2048, 1680, 8.0),
                                                 "rural": (2048, 1680, 6.0)},
                   snr=[4.3, 10.2, 12.4, 18.3, 19.7],
                   labels=["1/2 QPSK", "1/2 16-QAM", "2/3 16-QAM",
                           "2/3 64-QAM", "3/4 64-QAM"]),
    "802.22b": dict(sf=0.9325, nf=4.0, im=0.0, sc={"suburban": (1024, 832, 8.0),
                                                   "rural": (1024, 832, 6.0)},
                    snr=[4.3, 10.2, 12.4, 18.3, 19.7, 26.9, 28.2],
                    labels=["1/2 QPSK", "1/2 16-QAM", "2/3 16-QAM",
                            "2/3 64-QAM", "3/4 64-QAM", "2/3 256-QAM",
                            "7/8 256-QAM"]),
    "802.11af": dict(sf=1.142, nf=4.0, im=0.0, sc={"suburban": (144, 114, 8.0),
                                                   "rural": (144, 114, 6.0)},
                     snr=[3.8, 8.0, 15.1, 25.2, 30.4],
                     labels=["1/2 BPSK", "3/4 QPSK", "3/4 16-QAM",
                             "5/6 64-QAM", "5/6 256-QAM"]),
    "lte": dict(sf=1.536, nf=7.0, im=2.0, sc={"suburban": (1024, 601, 10.0),
                                              "rural": (512, 301, 5.0)},
                snr=[3.0, 10.5, 14.0, 22.0, 29.4],
                labels=["1/2 QPSK", "2/3 QPSK", "1/2 16-QAM", "2/3 16-QAM",
                        "2/3 64-QAM"]),
}
MARGINS = {"suburban": (7.91, 7.37), "rural": (5.5, 4.0)}
EIRP, G_RX, L_FEED = 36.0, 11.5, 0.04


def main(out_path: Path):
    rows = []
    for tech, t in TECHS.items():
        for env, (total, used, bw_mhz) in t["sc"].items():
            sm, fm = MARGINS[env]
            occupied_hz = bw_mhz * 1e6 * t["sf"] / total * used
            noise_floor = -174.0 + 10.0 * math.log10(occupied_hz)
            for label, snr in zip(t["labels"], t["snr"]):
                sensitivity = noise_floor + t["nf"] + snr
                pl_max = (EIRP + G_RX - L_FEED - sensitivity
                          - sm - fm - t["im"])
                rows.append([tech, env, label, f"{snr:.1f}",
                             f"{occupied_hz:.1f}", f"{noise_floor:.4f}",
                             f"{sensitivity:.4f}", f"{pl_max:.4f}"])
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["technology", "environment", "mcs", "required_snr_db",
                    "occupied_bandwidth_hz", "noise_floor_dbm",
                    "sensitivity_dbm", "pl_max_db"])
        w.writerows(rows)
    print(f"wrote {out_path} ({len(rows)} rows)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", nargs="?", type=Path,
                    default=Path("docs/link_budget_worksheet.csv"),
                    help="output CSV path (default: %(default)s)")
    main(ap.parse_args().out)
