"""Base-station power models, the one place a station's draw is decided
(`POWER_MODELS`, `station_power_w`), and the network energy-efficiency metric.

TVWS base stations follow

    P_BS = P_bh + P_idle + n_st * n_tx * alpha * (P_r / eta_ru + P_PoE)

with the backhaul draw P_bh constant and the radio-unit and PoE draw scaling
with load; the planner's sites have one sector (n_st = 1).  LTE-class
macrocells use a fixed block (rectifier, processing, backhaul) plus a
per-transmitter block (power amplifier at `amp_efficiency` plus transceiver
overhead); its coefficients are calibration data, pinned by
scripts/calibrate_macro_power.py.

Network energy efficiency aggregates Monte-Carlo runs:

    EE_n = (1/t) * sum_i [ c_i * A_T * sum_j B_ij / sum_j P_BSij ]

`B_ij` is the traffic served by active station j in run i (served user
demand, not offered PHY rate) and `c_i` the fraction of users covered.  The
units are km^2*Mbps/W.  A `user_count` factor can optionally multiply each
run term; that literal variant reproduces published headline values whose
convention carries the user count, and is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = [
    "TvwsPowerParams",
    "MacroPowerParams",
    "BsPowerInput",
    "RunEnergy",
    "POWER_MODELS",
    "tvws_bs_power_w",
    "macro_bs_power_w",
    "station_power_w",
    "network_energy_efficiency",
    "load_power_params",
]

RADIATED_POWER_W = 4.0  # per transmitter, 36 dBm
LOAD_FACTOR = 1.0       # worst case: every station at full load


@dataclass(frozen=True)
class TvwsPowerParams:
    p_backhaul_w: float
    p_poe_w: float
    p_idle_w: float
    ru_efficiency: float

    def __post_init__(self):
        if min(self.p_backhaul_w, self.p_poe_w, self.p_idle_w) <= 0:
            raise ValueError("power components must be positive")
        if not 0.0 < self.ru_efficiency <= 1.0:
            raise ValueError("ru_efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class MacroPowerParams:
    p_fixed_w: float
    amp_efficiency: float
    p_per_tx_overhead_w: float

    def __post_init__(self):
        if self.p_fixed_w <= 0 or self.p_per_tx_overhead_w <= 0:
            raise ValueError("power components must be positive")
        if not 0.0 < self.amp_efficiency <= 1.0:
            raise ValueError("amp_efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class BsPowerInput:
    n_transmitters: int = 1
    radiated_power_w: float = RADIATED_POWER_W  # per transmitter
    load_factor: float = LOAD_FACTOR

    def __post_init__(self):
        if self.n_transmitters < 1:
            raise ValueError("transmitter count must be >= 1")
        if self.radiated_power_w < 0:
            raise ValueError("radiated power must be >= 0")
        if not 0.0 <= self.load_factor <= 1.0:
            raise ValueError("load factor must lie in [0, 1]")


def tvws_bs_power_w(params: TvwsPowerParams, inp: BsPowerInput) -> float:
    return (params.p_backhaul_w + params.p_idle_w
            + inp.n_transmitters * inp.load_factor
            * (inp.radiated_power_w / params.ru_efficiency + params.p_poe_w))


def macro_bs_power_w(params: MacroPowerParams, inp: BsPowerInput) -> float:
    return (params.p_fixed_w
            + inp.n_transmitters * (inp.radiated_power_w / params.amp_efficiency
                                    + params.p_per_tx_overhead_w))


POWER_MODELS = {
    "tvws": (TvwsPowerParams, tvws_bs_power_w),
    "macro": (MacroPowerParams, macro_bs_power_w),
}


def station_power_w(power_model: str, n_transmitters: int, params) -> float:
    """One station's draw: `n_transmitters` radiating `RADIATED_POWER_W` each
    at `LOAD_FACTOR`.  Parameters of another power model raise TypeError."""
    cls, draw = POWER_MODELS[power_model]
    if not isinstance(params, cls):
        raise TypeError(f"the station draw needs {power_model!r} power parameters")
    return draw(params, BsPowerInput(n_transmitters=n_transmitters))


@dataclass(frozen=True)
class RunEnergy:
    """Per-run inputs to the efficiency metric."""

    coverage_fraction: float
    served_mbps: tuple  # per active station
    power_w: tuple      # per active station


def network_energy_efficiency(runs, area_km2: float, user_count: int | None = None,
                              include_user_count: bool = False) -> float:
    """Average network energy efficiency over `runs`, km^2*Mbps/W.

    Each run must expose `coverage_fraction`, `served_mbps` and `power_w`
    (RunEnergy does; planner run outcomes do as properties).  With
    `include_user_count=True` every run term is additionally multiplied by
    `user_count` (literal published convention; units then carry a user
    factor).
    """
    if not runs:
        raise ValueError("need at least one run")
    if area_km2 <= 0:
        raise ValueError("area must be positive")
    factor = 1.0
    if include_user_count:
        if not user_count or user_count <= 0:
            raise ValueError("include_user_count=True needs a positive user_count")
        factor = float(user_count)
    total = 0.0
    for i, run in enumerate(runs):
        power = sum(run.power_w)
        if power <= 0.0:
            raise ValueError(f"run {i} has zero total power")
        total += run.coverage_fraction * area_km2 * factor * sum(run.served_mbps) / power
    return total / len(runs)


def load_power_params(kind: str):
    """The bundled parameters of power model `kind`, a key of POWER_MODELS."""
    from .link_budget import bundled_yaml  # link_budget reads POWER_MODELS
    if kind not in POWER_MODELS:
        raise FileNotFoundError(f"no bundled power model {kind!r}")
    cls = POWER_MODELS[kind][0]
    raw = bundled_yaml("power", kind)
    return cls(**{f.name: raw[f.name] for f in fields(cls)})
