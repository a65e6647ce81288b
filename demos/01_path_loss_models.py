#!/usr/bin/env python3
"""Walk through the two bundled path-loss models.

Evaluates the suburban one-slope fit and the rural Okumura-Hata open-area
model over distance, inverts them back from a loss target, and shows the
rural calibration offset at work.
"""

import numpy as np

from tvwsplan import invert_range_km, okumura_hata_rural, one_slope, path_loss_db

suburban = one_slope(pl0_db=114.927123, d0_km=1.0, exponent=1.79)
rural_raw = okumura_hata_rural(605.0, 30.0, 3.0)
rural = okumura_hata_rural(605.0, 30.0, 3.0, offset_db=1.784748)

print("distance  suburban    rural(raw)  rural(calibrated)")
for d in (0.5, 1.0, 2.0, 5.0, 10.0, 17.6):
    print(f"{d:7.1f}  {path_loss_db(suburban, d):8.2f} dB"
          f"  {path_loss_db(rural_raw, d):8.2f} dB"
          f"  {path_loss_db(rural, d):8.2f} dB")

# inversion: which distance reaches a 130 dB budget?
for name, model in (("suburban", suburban), ("rural", rural)):
    d = invert_range_km(model, 130.0)
    print(f"\n{name}: 130 dB budget reached at {d:.3f} km"
          f" (round trip {path_loss_db(model, d):.4f} dB)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    d = np.linspace(0.1, 20.0, 300)
    fig, ax = plt.subplots(figsize=(7, 4.5))
    from tvwsplan.propagation import path_loss_array_db
    ax.plot(d, path_loss_array_db(suburban, d), label="suburban one-slope")
    ax.plot(d, path_loss_array_db(rural, d), label="rural Okumura-Hata (open area)")
    ax.set_xlabel("distance [km]")
    ax.set_ylabel("path loss [dB]")
    ax.grid(alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_path_loss.png", dpi=150)
    print("\nsaved demo01_path_loss.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
