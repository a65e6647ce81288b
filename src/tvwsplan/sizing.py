"""Analytic lower bounds on the number of base stations.

Two constraints bound the station count for one MCS choice: covering the
target area with circles of the MCS coverage range, and carrying the total
offered traffic with the per-station bitrate.  Sweeping the deployable MCS
tiers exposes the coverage/capacity trade-off and marks the best tier.

A tier whose budget lies below the model's loss at its distance floor is
unreachable: its range is 0.0 and its station counts `n_bs_area` and
`n_bs_min` are inf, so it is never the optimum.  A sweep in which no tier
reaches is a `ScenarioError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .link_budget import (EnvironmentMargins, TechnologyProfile,
                          max_allowable_path_loss_db, tier_range_km)
from .propagation import PathLossModel, path_loss_db
from .scenario import ScenarioError

__all__ = ["SizingResult", "min_bs_for_area", "min_bs_for_load", "sweep_mcs"]


@dataclass(frozen=True)
class SizingResult:
    mcs_label: str
    required_snr_db: float
    range_km: float       # 0.0 for an unreachable tier
    bs_bitrate_mbps: float
    n_bs_area: int        # inf for an unreachable tier
    n_bs_load: int
    n_bs_min: int         # inf for an unreachable tier
    is_optimal: bool = False


def min_bs_for_area(area_km2: float, range_km: float) -> int:
    """ceil(area / (pi * range^2)): circular omnidirectional footprints."""
    if area_km2 <= 0 or range_km <= 0:
        raise ValueError("area and range must be positive")
    return math.ceil(area_km2 / (math.pi * range_km ** 2))


def min_bs_for_load(total_demand_mbps: float, bs_bitrate_mbps: float) -> int:
    """ceil(total demand / per-station bitrate)."""
    if total_demand_mbps <= 0 or bs_bitrate_mbps <= 0:
        raise ValueError("demand and bitrate must be positive")
    return math.ceil(total_demand_mbps / bs_bitrate_mbps)


def floor_error(lead: str, noun: str, margins: EnvironmentMargins,
                model: PathLossModel, budget_db: float) -> ScenarioError:
    """The `environment` error for a budget below the model's loss at its
    distance floor: `lead` says what does not reach it, `noun` names the budget."""
    floor_db = path_loss_db(model, model.min_distance_km)
    return ScenarioError([
        f"environment: {lead} the model's {model.min_distance_km} km floor: with "
        f"shadow margin {margins.shadow_margin_db} dB and fade margin "
        f"{margins.fade_margin_db} dB, its {noun} {budget_db:.2f} dB is "
        f"{floor_db - budget_db:.2f} dB short of the {floor_db:.2f} dB loss there"])


def sweep_mcs(profile: TechnologyProfile, margins: EnvironmentMargins,
              model: PathLossModel, area_km2: float,
              total_demand_mbps: float) -> list:
    """One SizingResult per deployable MCS, best tier flagged.

    The optimum minimises n_bs_min; ties break toward the larger coverage
    range (the area constraint prevails among equal minima).
    """
    rows, best_db = [], -math.inf
    for mcs in profile.deployable_mcs():
        pl_max = max_allowable_path_loss_db(profile, margins, mcs)
        best_db = max(best_db, pl_max)
        rng = tier_range_km(model, pl_max)
        bitrate = mcs.bitrate_at(profile.bandwidth_mhz)
        n_area = min_bs_for_area(area_km2, rng) if rng else math.inf
        n_load = min_bs_for_load(total_demand_mbps, bitrate)
        rows.append(SizingResult(
            mcs_label=mcs.label, required_snr_db=mcs.required_snr_db,
            range_km=rng, bs_bitrate_mbps=bitrate,
            n_bs_area=n_area, n_bs_load=n_load, n_bs_min=max(n_area, n_load)))
    if not rows:
        raise ValueError(f"{profile.name} has no deployable MCS")
    if not any(r.range_km for r in rows):
        raise floor_error(f"no deployable {profile.name} tier reaches",
                          "largest budget", margins, model, best_db)
    best = min(range(len(rows)), key=lambda i: (rows[i].n_bs_min, -rows[i].range_km))
    rows[best] = SizingResult(**{**rows[best].__dict__, "is_optimal": True})
    return rows
