"""Path-loss models: empirical one-slope and Okumura-Hata open-area.

Two model families cover the bundled scenarios.  The suburban environment
uses a one-slope model, PL(d) = pl0 + 10*n*log10(d/d0), whose coefficients
are calibration data (see scripts/calibrate_suburban_slope.py).  The rural
environment uses the Okumura-Hata median loss with the small/medium-city
mobile-antenna correction and the open-area adjustment; an additive
`offset_db` (default 0) carries the documented rural calibration.

Both families are affine in log10(d), PL(d) = a + b*log10(d/d0) + offset,
so one expression evaluates either model and one closed form inverts it.
`link_loss_db` is the one place where coordinates become path loss.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelValidityWarning",
    "PathLossModel",
    "one_slope",
    "okumura_hata_rural",
    "path_loss_db",
    "link_loss_db",
    "reach_km",
    "invert_range_km",
]

#: evaluation floor: distances below this are clamped (km)
MIN_DISTANCE_KM = 0.05

#: Okumura-Hata validity windows
HATA_FREQ_MHZ = (150.0, 1500.0)
HATA_BS_HEIGHT_M = (30.0, 200.0)
HATA_RX_HEIGHT_M = (1.0, 10.0)
HATA_MAX_DISTANCE_KM = 20.0


class ModelValidityWarning(UserWarning):
    """A parameter or distance fell outside the model's validity window."""


@dataclass(frozen=True)
class PathLossModel:
    """One path-loss model instance; `variant` selects the formula."""

    variant: str  # "one_slope" | "okumura_hata_rural"
    pl0_db: float = 0.0
    d0_km: float = 1.0
    exponent: float = 2.0
    freq_mhz: float = 600.0
    bs_height_m: float = 30.0
    rx_height_m: float = 3.0
    offset_db: float = 0.0
    min_distance_km: float = MIN_DISTANCE_KM
    calibration_id: str = ""

    def __post_init__(self):
        if self.variant not in ("one_slope", "okumura_hata_rural"):
            raise ValueError(f"unknown path-loss variant {self.variant!r}")
        if self.min_distance_km <= 0:
            raise ValueError("min_distance_km must be positive")
        is_one_slope = self.variant == "one_slope"
        for name in (("exponent", "d0_km") if is_one_slope
                     else ("freq_mhz", "bs_height_m", "rx_height_m")):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if is_one_slope:
            return
        for what, value, unit, (lo, hi) in (
                ("frequency", self.freq_mhz, "MHz", HATA_FREQ_MHZ),
                ("BS height", self.bs_height_m, "m", HATA_BS_HEIGHT_M),
                ("RX height", self.rx_height_m, "m", HATA_RX_HEIGHT_M)):
            if not lo <= value <= hi:
                warnings.warn(f"{what} {value} {unit} outside Hata window {(lo, hi)}",
                              ModelValidityWarning, stacklevel=3)


def one_slope(pl0_db: float, d0_km: float = 1.0, exponent: float = 2.0,
              calibration_id: str = "") -> PathLossModel:
    return PathLossModel(variant="one_slope", pl0_db=pl0_db, d0_km=d0_km,
                         exponent=exponent, calibration_id=calibration_id)


def okumura_hata_rural(freq_mhz: float, bs_height_m: float, rx_height_m: float,
                       offset_db: float = 0.0, calibration_id: str = "") -> PathLossModel:
    return PathLossModel(variant="okumura_hata_rural", freq_mhz=freq_mhz,
                         bs_height_m=bs_height_m, rx_height_m=rx_height_m,
                         offset_db=offset_db, calibration_id=calibration_id)


def _coefficients(model: PathLossModel) -> tuple:
    """(a, b, d0) with PL(d) = a + b*log10(d/d0) + offset_db, b > 0."""
    if model.variant == "one_slope":
        return model.pl0_db, 10.0 * model.exponent, model.d0_km
    lf = math.log10(model.freq_mhz)
    lhb = math.log10(model.bs_height_m)
    # small/medium-city mobile-antenna correction
    a_hm = (1.1 * lf - 0.7) * model.rx_height_m - (1.56 * lf - 0.8)
    open_area_correction = 4.78 * lf * lf - 18.33 * lf + 40.94
    fixed = 69.55 + 26.16 * lf - 13.82 * lhb - a_hm - open_area_correction
    return fixed, 44.9 - 6.55 * lhb, 1.0


def path_loss_db(model: PathLossModel, distance_km: float) -> float:
    """Median path loss in dB at `distance_km` (clamped below at the floor)."""
    return float(path_loss_array_db(model, distance_km))


def path_loss_array_db(model: PathLossModel, distances_km) -> np.ndarray:
    """Path loss in dB over an array of distances.

    Distances are clamped below at the model floor; a single validity
    warning covers all out-of-window entries.
    """
    d = np.asarray(distances_km, dtype=float)
    if (d <= 0).any():
        raise ValueError(f"distances must be positive, got {float(d.min())}")
    if model.variant == "okumura_hata_rural" and (d > HATA_MAX_DISTANCE_KM).any():
        warnings.warn(
            f"distances up to {float(d.max()):.2f} km beyond Hata validity "
            f"({HATA_MAX_DISTANCE_KM} km); values extrapolated",
            ModelValidityWarning, stacklevel=2)
    a, b, d0 = _coefficients(model)
    # a + b*log10(max(d, floor)/d0) + offset_db, evaluated in one fresh array;
    # a denormal d0 overflows the ratio to inf, a loss no budget reaches
    pl = np.maximum(d, model.min_distance_km, out=np.empty_like(d))
    with np.errstate(over="ignore"):
        pl /= d0
    np.log10(pl, out=pl)
    pl *= b
    pl += a
    pl += model.offset_db
    return pl


def link_loss_db(model: PathLossModel, xy_km, site_xy_km) -> np.ndarray:
    """Path loss in dB from points to sites, two (..., 2) km arrays that
    broadcast: (N, 1, 2) against (M, 2) is the N x M matrix, two (K, 2) are K
    paired links.  Distances below the floor, zero included, are clamped."""
    xy, site = np.asarray(xy_km, dtype=float), np.asarray(site_xy_km, dtype=float)
    dist = np.asarray(xy[..., 0] - site[..., 0])  # 0-d for one point and one site
    np.hypot(dist, xy[..., 1] - site[..., 1], out=dist)
    np.maximum(dist, model.min_distance_km, out=dist)
    return path_loss_array_db(model, dist)


def reach_km(model: PathLossModel, pl_max_db: float) -> float:
    """Distance at which the model reaches `pl_max_db`, at least the floor,
    inf past every finite distance.  Both families are affine in log10(d)
    with b > 0, so the inverse is closed form and exact."""
    a, b, d0 = _coefficients(model)
    try:
        return max(d0 * 10.0 ** ((pl_max_db - model.offset_db - a) / b),
                   model.min_distance_km)
    except OverflowError:
        return math.inf


def invert_range_km(model: PathLossModel, pl_max_db: float) -> float:
    """`reach_km`, raising for `pl_max_db` below the loss at the floor."""
    floor = path_loss_db(model, model.min_distance_km)
    if pl_max_db < floor:
        raise ValueError(
            f"range below model floor: {pl_max_db:.2f} dB < {floor:.2f} dB "
            f"at {model.min_distance_km} km")
    return reach_km(model, pl_max_db)
