"""Downlink budgets: receiver sensitivity, maximum allowable path loss and
the bitrate-versus-range curve of one technology.

The budget convention is fixed here in one place:

    noise_floor_dbm  = -174 + 10*log10(occupied_bandwidth_hz)
    sensitivity_dbm  = noise_floor + noise_figure + required_snr
    pl_max_db        = eirp + rx_antenna_gain - rx_feeder_loss + mimo_gain
                       - sensitivity - shadow_margin - fade_margin
                       - interference_margin

Thermal noise integrates over the *occupied* subcarrier bandwidth
(sampling_rate / total_subcarriers * used_subcarriers).  Swapping in a
different noise-bandwidth convention is a one-line change in
`occupied_bandwidth_hz`.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass

import yaml

from .power_energy import POWER_MODELS
from .propagation import PathLossModel, invert_range_km

__all__ = [
    "McsEntry",
    "TechnologyProfile",
    "EnvironmentMargins",
    "occupied_bandwidth_hz",
    "max_allowable_path_loss_db",
    "coverage_curve",
    "load_technology",
    "available_technologies",
]

THERMAL_NOISE_DBM_HZ = -174.0


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding tier.

    `bitrate_mbps` maps channel bandwidth in MHz to the delivered physical
    bitrate.  `deployable` marks tiers available on commercial hardware;
    non-deployable tiers still appear in coverage curves but are skipped by
    the dimensioning sweep and the planner.
    """

    label: str
    required_snr_db: float
    bitrate_mbps: dict
    deployable: bool = True

    def bitrate_at(self, bandwidth_mhz: float) -> float:
        key = bandwidth_mhz if bandwidth_mhz in self.bitrate_mbps else int(bandwidth_mhz)
        try:
            return float(self.bitrate_mbps[key])
        except KeyError:
            raise KeyError(
                f"MCS {self.label!r} has no bitrate for {bandwidth_mhz} MHz") from None


@dataclass(frozen=True)
class EnvironmentMargins:
    shadow_margin_db: float
    fade_margin_db: float

    def __post_init__(self):
        for name in ("shadow_margin_db", "fade_margin_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class TechnologyProfile:
    name: str
    eirp_dbm: float
    freq_mhz: float
    bandwidth_mhz: float
    total_subcarriers: int
    used_subcarriers: int
    sampling_factor: float
    interference_margin_db: float
    mimo_gain_db: float
    rx_antenna_gain_db: float
    rx_feeder_loss_db: float
    rx_noise_figure_db: float
    mcs_table: tuple = ()
    n_transmitters: int = 1
    power_model: str = "tvws"  # a key of power_energy.POWER_MODELS

    def __post_init__(self):
        if self.power_model not in POWER_MODELS:
            raise ValueError(f"unknown power_model {self.power_model!r}")
        if self.total_subcarriers <= 0:
            raise ValueError("total_subcarriers must be positive")
        if self.used_subcarriers > self.total_subcarriers:
            raise ValueError("used_subcarriers cannot exceed total_subcarriers")
        if self.interference_margin_db < 0 or self.mimo_gain_db < 0:
            raise ValueError("margins and gains must be non-negative")
        snrs = [m.required_snr_db for m in self.mcs_table]
        if snrs != sorted(snrs):
            raise ValueError("mcs_table must be sorted by required SNR")
        for bw in {k for m in self.mcs_table for k in m.bitrate_mbps}:
            rates = [m.bitrate_mbps[bw] for m in self.mcs_table if bw in m.bitrate_mbps]
            if any(b2 <= b1 for b1, b2 in zip(rates, rates[1:])):
                raise ValueError(
                    f"bitrates at {bw} MHz must increase with required SNR")

    @property
    def mimo(self) -> bool:  # the one MIMO label
        return self.n_transmitters > 1

    def mcs(self, label: str) -> McsEntry:
        for m in self.mcs_table:
            if m.label == label:
                return m
        raise KeyError(f"{self.name} has no MCS {label!r}")

    def deployable_mcs(self) -> list:
        return [m for m in self.mcs_table if m.deployable]


def occupied_bandwidth_hz(profile: TechnologyProfile) -> float:
    """Bandwidth actually occupied by the used subcarriers, in Hz."""
    sampling_rate = profile.bandwidth_mhz * 1e6 * profile.sampling_factor
    spacing = sampling_rate / profile.total_subcarriers
    return spacing * profile.used_subcarriers


def max_allowable_path_loss_db(profile: TechnologyProfile,
                               margins: EnvironmentMargins,
                               mcs: McsEntry) -> float:
    """Largest tolerable path loss for `mcs`, all budget lines applied."""
    if all(m is not mcs and m.label != mcs.label for m in profile.mcs_table):
        raise ValueError(f"MCS {mcs.label!r} does not belong to {profile.name}")
    noise_floor = THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(occupied_bandwidth_hz(profile))
    sensitivity = noise_floor + profile.rx_noise_figure_db + mcs.required_snr_db
    return (profile.eirp_dbm + profile.rx_antenna_gain_db - profile.rx_feeder_loss_db
            + profile.mimo_gain_db - sensitivity
            - margins.shadow_margin_db - margins.fade_margin_db
            - profile.interference_margin_db)


def coverage_curve(profile: TechnologyProfile, margins: EnvironmentMargins,
                   model: PathLossModel) -> list:
    """(label, bitrate_mbps, range_km) per MCS, bitrate ascending."""
    curve = []
    for m in profile.mcs_table:
        pl_max = max_allowable_path_loss_db(profile, margins, m)
        curve.append((m.label, m.bitrate_at(profile.bandwidth_mhz),
                      invert_range_km(model, pl_max)))
    return curve


# ---------------------------------------------------------------------------
# bundled technology data
# ---------------------------------------------------------------------------

def _data_dir():
    return importlib.resources.files("tvwsplan") / "data"


@functools.cache
def bundled_yaml(folder: str, stem: str):
    """The parsed bundled data file `data/<folder>/<stem>.yaml`.

    Each file is parsed once per process and every caller shares the parsed
    mapping, so callers must only read it.  A missing file raises
    FileNotFoundError, and a failed read is not memoised.
    """
    return yaml.safe_load((_data_dir() / folder / f"{stem}.yaml").read_text())


def available_technologies() -> list:
    tech_dir = _data_dir() / "technologies"
    return sorted(p.name[:-5] for p in tech_dir.iterdir() if p.name.endswith(".yaml"))


def _tech_file_name(name: str) -> str:
    return name.replace(".", "_").replace("/", "_")


def load_technology(name: str, environment: str, mimo: bool = False) -> TechnologyProfile:
    """Load a bundled technology profile resolved for one environment.

    `environment` is "suburban" or "rural"; it selects frequency, channel
    bandwidth and (for technologies whose OFDM numerology follows the
    channel) the subcarrier counts.  `mimo=True` applies the profile's
    diversity link gain and transmitter count; technologies without MIMO
    support reject the flag.
    """
    try:
        raw = bundled_yaml("technologies", _tech_file_name(name))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no bundled technology {name!r}; available: {available_technologies()}"
        ) from None
    if environment not in raw["environments"]:
        raise KeyError(f"{name} defines no environment {environment!r}")
    env = raw["environments"][environment]

    mimo_gain = raw.get("mimo_gain_db")
    if mimo and mimo_gain is None:
        raise ValueError(f"{name} does not support MIMO operation")

    mcs_table = tuple(
        McsEntry(label=m["label"], required_snr_db=float(m["required_snr_db"]),
                 bitrate_mbps={int(k): float(v) for k, v in m["bitrate_mbps"].items()},
                 deployable=bool(m.get("deployable", True)))
        for m in raw["mcs"])

    return TechnologyProfile(
        name=raw["name"],
        eirp_dbm=float(raw["eirp_dbm"]),
        freq_mhz=float(env["freq_mhz"]),
        bandwidth_mhz=float(env["bandwidth_mhz"]),
        total_subcarriers=int(env["total_subcarriers"]),
        used_subcarriers=int(env["used_subcarriers"]),
        sampling_factor=float(raw["sampling_factor"]),
        interference_margin_db=float(raw["interference_margin_db"]),
        mimo_gain_db=float(mimo_gain) if mimo else 0.0,
        rx_antenna_gain_db=float(raw["rx_antenna_gain_db"]),
        rx_feeder_loss_db=float(raw["rx_feeder_loss_db"]),
        rx_noise_figure_db=float(raw["rx_noise_figure_db"]),
        mcs_table=mcs_table,
        n_transmitters=4 if mimo else 1,
        power_model=raw["power_model"],
    )
