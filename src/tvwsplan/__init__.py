"""tvwsplan: coverage, capacity and energy-efficiency planning for
TV-white-space and LTE access networks.

The package is organised as a numpy-based library; `tvwsplan.cli` exposes
the batch front end (`tvwsplan pathloss|coverage|sweep|plan`).

When this package is the first to import numpy, it loads OpenBLAS with one
thread: tvwsplan calls no threaded BLAS routine (its only BLAS calls are dot
products of outline vertices and 2-vectors), and an idle pool thread costs
CPU time in every process.  A caller's own `OPENBLAS_NUM_THREADS` wins, and
the environment is left as it was found.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401  (OpenBLAS reads it as it loads)
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

from .link_budget import (EnvironmentMargins, McsEntry, TechnologyProfile,
                          coverage_curve, load_technology,
                          max_allowable_path_loss_db, occupied_bandwidth_hz)
from .planner import (Deployment, PlannerConfig, RunOutcome, check_deployment,
                      grow_site_set, plan, plan_single_run, run_campaign)
from .power_energy import (BsPowerInput, MacroPowerParams, TvwsPowerParams,
                           load_power_params, macro_bs_power_w,
                           network_energy_efficiency, tvws_bs_power_w)
from .propagation import (PathLossModel, invert_range_km, okumura_hata_rural,
                          one_slope, path_loss_db)
from .scenario import (CandidateSite, PopulationSpec, Region, Scenario,
                       UserPopulation, bundled_scenario, generate_population,
                       load_scenario)
from .sizing import SizingResult, min_bs_for_area, min_bs_for_load, sweep_mcs

__all__ = [
    "__version__",
    "EnvironmentMargins", "McsEntry", "TechnologyProfile", "coverage_curve",
    "load_technology", "max_allowable_path_loss_db", "occupied_bandwidth_hz",
    "Deployment", "PlannerConfig", "RunOutcome", "check_deployment",
    "grow_site_set", "plan", "plan_single_run", "run_campaign",
    "BsPowerInput", "MacroPowerParams", "TvwsPowerParams", "load_power_params",
    "macro_bs_power_w", "network_energy_efficiency", "tvws_bs_power_w",
    "PathLossModel", "invert_range_km", "okumura_hata_rural", "one_slope",
    "path_loss_db",
    "CandidateSite", "PopulationSpec", "Region", "Scenario", "UserPopulation",
    "bundled_scenario", "generate_population", "load_scenario",
    "SizingResult", "min_bs_for_area", "min_bs_for_load", "sweep_mcs",
]
