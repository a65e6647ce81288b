"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
campaign-level criteria share one module-scoped battery of Monte-Carlo
campaigns (40 runs per cell) over the two bundled scenarios and all four
technologies, plus the 4x4 variants used by the diversity criterion.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tvwsplan as tp
from tvwsplan.link_budget import EnvironmentMargins, McsEntry, TechnologyProfile
from tvwsplan.planner import PlannerConfig, check_deployment
from tvwsplan.power_energy import (BsPowerInput, RunEnergy, load_power_params,
                                   network_energy_efficiency, station_power_w,
                                   tvws_bs_power_w)
from tvwsplan.propagation import (invert_range_km, okumura_hata_rural,
                                  one_slope, path_loss_db)

TECHS = ("802.22", "802.22b", "802.11af", "lte")
SCENARIOS = {"suburban": "ghent_suburban", "rural": "boyeros_rural"}


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" :: {detail}" if detail else ""))
    return ok


GOLDEN_BATTERY = Path(__file__).parent / "data" / "golden_battery.json"


def build_battery():
    """Grown candidate sets and 40-run campaigns for every cell.

    Every outcome of every cell also goes through the independent
    feasibility checker; its violations are kept per cell.
    """
    cells = {}
    for env, scen_name in SCENARIOS.items():
        sc = tp.bundled_scenario(scen_name)
        for tech in TECHS:
            for mimo in ((False, True) if tech != "802.22" else (False,)):
                prof = tp.load_technology(tech, env, mimo=mimo)
                model = sc.model_for(prof)
                pw = load_power_params(prof.power_model)
                cfg = PlannerConfig(runs=40, base_seed=sc.base_seed, mimo=mimo)
                camp, history = tp.plan(sc, prof, cfg)
                ee_lit = network_energy_efficiency(
                    camp.outcomes, sc.region.area_km2,
                    user_count=sc.population.user_count, include_user_count=True)
                per_run_ee = [network_energy_efficiency(
                    [o], sc.region.area_km2, user_count=sc.population.user_count,
                    include_user_count=True) for o in camp.outcomes]
                violations = [v for o in camp.outcomes
                              for v in check_deployment(o, sc, prof, sc.margins,
                                                        model, cfg, camp.sites)]
                cells[(env, tech, mimo)] = dict(
                    scenario=sc, profile=prof, model=model, power=pw, cfg=cfg,
                    campaign=camp, ee_literal=ee_lit,
                    ee_se=float(np.std(per_run_ee) / math.sqrt(len(per_run_ee))),
                    growth=history, violations=violations)
    return cells


def golden_summary(cells) -> dict:
    """What `tests/data/golden_battery.json` locks for each battery cell.

    Floats are kept as `repr` strings and event logs as the sha256 of their
    `repr`, so any change to a decision, its order or a last bit shows.
    """
    out = {}
    for (env, tech, mimo), cell in cells.items():
        camp = cell["campaign"]
        out[f"{env}/{tech}/{'4x4' if mimo else 'siso'}"] = {
            "sites": len(camp.sites),
            "growth": [[n, repr(c)] for n, c in cell["growth"]],
            "mean_coverage": repr(camp.mean_coverage),
            "mean_power_w": repr(camp.mean_power_w),
            "ee_literal": repr(cell["ee_literal"]),
            "event_log_sha256": [
                hashlib.sha256(repr(o.event_log).encode()).hexdigest()
                for o in camp.outcomes],
        }
    return out


@pytest.fixture(scope="module")
def battery():
    return build_battery()


# --- exact tier ------------------------------------------------------------

def test_c01_tvws_station_power():
    p = tvws_bs_power_w(load_power_params("tvws"), BsPowerInput(1, 1, 4.0, 1.0))
    ok = abs(p - 63.98) < 0.1 and abs(p - 64.0) < 0.1
    assert report("criterion 1: TVWS station full-load power ~64 W",
                  ok, f"{p:.3f} W")


def test_c02_tvws_idle_power():
    p = tvws_bs_power_w(load_power_params("tvws"), BsPowerInput(1, 1, 0.0, 0.0))
    ok = p == pytest.approx(38.0, abs=1e-12)
    assert report("criterion 2: TVWS idle power = backhaul + idle = 38 W",
                  ok, f"{p:.3f} W")


def test_c03_station_count_bounds():
    area_bound = tp.min_bs_for_area(169.0, 17.6)
    load_bound = tp.min_bs_for_load(205.28, 24.1)
    ok = area_bound == 1 and load_bound == 9
    assert report("criterion 3: analytic station-count bounds",
                  ok, f"area bound {area_bound} (want 1), load bound {load_bound} (want 9)")


def test_c04_hata_oracle_and_inversion():
    from test_propagation import HATA_ORACLE
    worst_fwd = 0.0
    worst_inv = 0.0
    for f, hb, hm, d, expected in HATA_ORACLE:
        m = okumura_hata_rural(f, hb, hm)
        worst_fwd = max(worst_fwd, abs(path_loss_db(m, d) - expected))
        worst_inv = max(worst_inv, abs(invert_range_km(m, expected) - d))
    ok = worst_fwd < 0.01 and worst_inv < 1e-3
    assert report("criterion 4: Okumura-Hata oracle agreement",
                  ok, f"max |dPL| {worst_fwd:.4f} dB, max |dd| {worst_inv*1000:.2f} m")


# --- calibrated tier --------------------------------------------------------

RANGE_ANCHORS = [
    ("802.22b", "rural", 17.6, 0.05),
    ("802.22b", "suburban", 7.0, 0.10),
    ("lte", "rural", 12.1, 0.05),
    ("lte", "suburban", 3.2, 0.10),
]


def test_c05_coverage_range_anchors():
    ok = True
    details = []
    for tech, env, anchor, tol in RANGE_ANCHORS:
        sc = tp.bundled_scenario(SCENARIOS[env])
        prof = tp.load_technology(tech, env)
        curve = tp.coverage_curve(prof, sc.margins, sc.model_for(prof))
        got = curve[0][2]
        good = abs(got - anchor) <= tol * anchor
        ok &= good
        details.append(f"{tech}/{env}: {got:.3f} km vs {anchor} +/-{tol:.0%}")
    assert report("criterion 5: lowest-tier coverage ranges", ok, "; ".join(details))


def test_c06_technology_ordering_every_tier():
    from test_link_budget import TestTechnologyOrdering as Ord
    ok = True
    for env in ("suburban", "rural"):
        sc = tp.bundled_scenario(SCENARIOS[env])
        curves = {t: tp.coverage_curve(tp.load_technology(t, env), sc.margins,
                                       sc.model_for(tp.load_technology(t, env)))
                  for t in TECHS}
        ok &= Ord.dominates(curves["802.22b"], curves["802.22"])
        ok &= Ord.dominates(curves["802.22"], curves["802.11af"])
        ok &= Ord.dominates(curves["802.22b"], curves["lte"])
    assert report("criterion 6: per-tier technology range ordering", ok,
                  "802.22b > 802.22 > 802.11af, LTE below 802.22b, both environments")


EXPECTED_OPTIMA = {
    ("suburban", "802.22"): "2/3 16-QAM",
    ("suburban", "802.22b"): "2/3 16-QAM",
    ("suburban", "802.11af"): "3/4 16-QAM",
    ("suburban", "lte"): "1/2 16-QAM",
    ("rural", "802.22"): "2/3 64-QAM",
    ("rural", "802.22b"): "2/3 64-QAM",
    ("rural", "802.11af"): "5/6 64-QAM",
    ("rural", "lte"): "2/3 16-QAM",
}


def test_c07_sweep_optima_exact_labels():
    ok = True
    details = []
    for (env, tech), want in EXPECTED_OPTIMA.items():
        sc = tp.bundled_scenario(SCENARIOS[env])
        prof = tp.load_technology(tech, env)
        rows = tp.sweep_mcs(prof, sc.margins, sc.model_for(prof),
                            sc.region.area_km2,
                            sc.population.expected_demand_mbps)
        got = next(r.mcs_label for r in rows if r.is_optimal)
        ok &= got == want
        if got != want:
            details.append(f"{env}/{tech}: {got} != {want}")
    assert report("criterion 7: sweep optimum MCS labels (exact match)", ok,
                  "; ".join(details) or "all eight cells match")


# --- campaign tier ----------------------------------------------------------

SITE_BANDS = {
    ("suburban", "802.22"): (20, 0.15), ("suburban", "802.22b"): (20, 0.15),
    ("suburban", "802.11af"): (21, 0.15), ("suburban", "lte"): (36, 0.15),
    ("rural", "802.22"): (10, 0.20), ("rural", "802.22b"): (10, 0.20),
    ("rural", "802.11af"): (10, 0.20), ("rural", "lte"): (13, 0.20),
}


def test_c08_site_counts(battery):
    ok = True
    details = []
    for (env, tech), (target, tol) in SITE_BANDS.items():
        n = len(battery[(env, tech, False)]["campaign"].sites)
        lo, hi = target * (1 - tol), target * (1 + tol)
        good = lo <= n <= hi
        ok &= good
        details.append(f"{env}/{tech}: {n} in [{lo:.1f}, {hi:.1f}]"
                       + ("" if good else " <-"))
    assert report("criterion 8a: grown candidate-site counts", ok, "; ".join(details))


def test_c08_mean_coverage(battery):
    ok = True
    details = []
    for env in SCENARIOS:
        for tech in TECHS:
            camp = battery[(env, tech, False)]["campaign"]
            se = camp.std_coverage / math.sqrt(camp.outcomes.__len__())
            good = camp.mean_coverage >= 0.95 and se < 0.005
            ok &= good
            details.append(f"{env}/{tech}: {camp.mean_coverage:.4f} (se {se:.4f})"
                           + ("" if good else " <-"))
    assert report("criterion 8b: mean user coverage >= 95%, stable mean",
                  ok, "; ".join(details))


def decomposition(cell) -> str:
    """Mean active sites x station draw, mean coverage and growth history."""
    camp, prof = cell["campaign"], cell["profile"]
    draw = station_power_w(prof.power_model, prof.n_transmitters, cell["power"])
    growth = ", ".join(f"{n}: {c:.3f}" for n, c in cell["growth"])
    return (f"{camp.mean_active_sites:.1f} active x {draw:.1f} W, coverage "
            f"{camp.mean_coverage:.3f}, growth (sites: coverage) {growth}")


@pytest.mark.parametrize("tech", ["802.22", "802.22b", "802.11af"])
def test_c08_tvws_suburban_power(battery, tech):
    cell = battery[("suburban", tech, False)]
    ok = 900.0 <= cell["campaign"].mean_power_w <= 1150.0
    assert report(f"criterion 8c: {tech} suburban network power in [900, 1150] W",
                  ok, f"{cell['campaign'].mean_power_w:.1f} W = {decomposition(cell)}")


def test_c08_lte_suburban_power(battery):
    camp = battery[("suburban", "lte", False)]["campaign"]
    ok = abs(camp.mean_power_w - 13769.0) <= 0.10 * 13769.0
    assert report("criterion 8d: LTE suburban network power ~13769 W +/-10%",
                  ok, f"{camp.mean_power_w:.1f} W")


def test_c08_energy_efficiency_ratios(battery):
    sub = battery[("suburban", "802.22b", False)]["ee_literal"] / \
        battery[("suburban", "lte", False)]["ee_literal"]
    rur = battery[("rural", "802.22b", False)]["ee_literal"] / \
        battery[("rural", "lte", False)]["ee_literal"]
    ok = sub >= 10.0 and rur >= 9.0
    assert report("criterion 8e: TVWS:LTE efficiency ratio (>=10 sub, >=9 rural)",
                  ok, f"suburban {sub:.2f}, rural {rur:.2f}")


def test_c08_22b_suburban_ee_headline(battery):
    ee = battery[("suburban", "802.22b", False)]["ee_literal"]
    ok = abs(ee - 2996.8) <= 0.25 * 2996.8
    assert report("criterion 8f: 802.22b suburban efficiency ~2996.8 +/-25% "
                  "(user-count convention)", ok, f"{ee:.1f}")


# --- diversity (4x4) tier ----------------------------------------------------

def _ee_change(battery, env, tech):
    siso = battery[(env, tech, False)]
    mimo = battery[(env, tech, True)]
    delta = (mimo["ee_literal"] - siso["ee_literal"]) / siso["ee_literal"]
    sigma = math.hypot(siso["ee_se"], mimo["ee_se"]) / siso["ee_literal"]
    return delta, sigma


def test_c09_lte_suburban_positive(battery):
    delta, _ = _ee_change(battery, "suburban", "lte")
    assert report("criterion 9a: LTE suburban 4x4 efficiency gain positive",
                  delta > 0, f"{delta:+.1%}")


def test_c09_22b_suburban_nonnegative_within_noise(battery):
    delta, sigma = _ee_change(battery, "suburban", "802.22b")
    # "at least zero within noise": allow a two-sigma Monte-Carlo allowance
    ok = delta >= -2.0 * sigma
    assert report("criterion 9b: 802.22b suburban 4x4 change >= 0 within noise",
                  ok, f"{delta:+.1%} (2-sigma {2*sigma:.1%}); SISO "
                      f"{decomposition(battery[('suburban', '802.22b', False)])}; 4x4 "
                      f"{decomposition(battery[('suburban', '802.22b', True)])}")


def test_c09_11af_suburban_negative(battery):
    delta, _ = _ee_change(battery, "suburban", "802.11af")
    assert report("criterion 9c: 802.11af suburban 4x4 efficiency change negative",
                  delta < 0, f"{delta:+.1%}")


def test_c09_11af_rural_negative(battery):
    delta, _ = _ee_change(battery, "rural", "802.11af")
    assert report("criterion 9d: 802.11af rural 4x4 efficiency change negative",
                  delta < 0, f"{delta:+.1%}")


# --- property tier -----------------------------------------------------------

def test_c10_feasibility_and_determinism(battery):
    problems = sum(len(c["violations"]) for c in battery.values())
    checked = sum(len(c["campaign"].outcomes) for c in battery.values())
    cell = battery[("suburban", "802.22b", False)]
    # a fresh campaign on the grown sites repeats the cell's first six runs
    cfg = PlannerConfig(runs=6, base_seed=cell["cfg"].base_seed)
    again = tp.run_campaign(cell["scenario"], cell["profile"],
                            cell["scenario"].margins, cell["model"],
                            cell["power"], cfg, sites=cell["campaign"].sites)
    deterministic = [o.event_log for o in again.outcomes] == \
        [o.event_log for o in cell["campaign"].outcomes[:6]]
    ok = problems == 0 and deterministic
    assert report("criterion 10: feasibility checker + determinism",
                  ok, f"{problems} violations over {checked} runs; "
                      f"6-run replay of the 40-run campaign equal {deterministic}")


def test_golden_battery_lock(battery):
    # regenerate with scripts/make_golden_battery.py only when results change
    # on purpose, and say why in CHANGES.md
    want = json.loads(GOLDEN_BATTERY.read_text())
    got = golden_summary(battery)
    changed = sorted(k for k in want.keys() | got.keys()
                     if want.get(k) != got.get(k))
    logs = sum(len(c["event_log_sha256"]) for c in got.values())
    assert report("golden lock: 14-cell battery equals golden_battery.json",
                  not changed, f"cells differing: {changed}" if changed
                  else f"{len(got)} cells, {logs} event logs")


def test_c11_brute_force_micro_oracle(micro_scenario, micro_profile,
                                      micro_margins, micro_model, micro_sites):
    from test_planner import TestBruteForceOracle
    from tvwsplan.link_budget import max_allowable_path_loss_db
    from tvwsplan.scenario import generate_population
    cfg = PlannerConfig(runs=1, base_seed=42)
    pop = generate_population(micro_scenario.region, micro_scenario.population, 42)
    pl_max = max_allowable_path_loss_db(micro_profile, micro_margins,
                                        micro_profile.mcs_table[0])
    pl = np.array([[path_loss_db(micro_model,
                                 max(math.hypot(x - s.x_km, y - s.y_km),
                                     micro_model.min_distance_km))
                    for s in micro_sites] for x, y in pop.xy_km])
    capacity = micro_profile.mcs_table[0].bitrate_at(1.0)
    opt_cov, opt_act = TestBruteForceOracle.oracle(pop, micro_sites, pl_max,
                                                   pl, capacity)
    out = tp.plan_single_run(micro_scenario, micro_profile, cfg, 42,
                             sites=micro_sites)
    replay = tp.plan_single_run(micro_scenario, micro_profile, cfg, 42,
                                sites=micro_sites).event_log == out.event_log
    ok = (len(out.deployment.assignments) == opt_cov
          and len(out.deployment.active_sites) == opt_act and replay)
    assert report("criterion 11: greedy vs exhaustive oracle on micro fixture",
                  ok, f"covered {len(out.deployment.assignments)}/{opt_cov}, "
                      f"active {len(out.deployment.active_sites)}/{opt_act}, "
                      f"log replay {replay}")


def test_c12_monotonicity_and_homogeneity_grids():
    ok = True
    # propagation: strict distance monotonicity over a parameter grid
    for n in (1.8, 2.5, 3.5, 4.5):
        m = one_slope(100.0, 1.0, n)
        pls = [path_loss_db(m, d) for d in np.linspace(0.1, 20, 60)]
        ok &= all(b > a for a, b in zip(pls, pls[1:]))
    for f in (200.0, 605.0, 821.0, 1400.0):
        for hb in (30.0, 50.0, 100.0):
            m = okumura_hata_rural(f, hb, 3.0)
            pls = [path_loss_db(m, d) for d in np.linspace(0.1, 20, 40)]
            ok &= all(b > a for a, b in zip(pls, pls[1:]))
    # link budget: unit-step responses over a grid of tiers
    for env in ("suburban", "rural"):
        sc = tp.bundled_scenario(SCENARIOS[env])
        for tech in TECHS:
            prof = tp.load_technology(tech, env)
            for mcs in prof.mcs_table:
                base = tp.max_allowable_path_loss_db(prof, sc.margins, mcs)
                harder = McsEntry(mcs.label, mcs.required_snr_db + 1.0,
                                  mcs.bitrate_mbps, mcs.deployable)
                bumped = TechnologyProfile(
                    **{**prof.__dict__,
                       "mcs_table": tuple(harder if m is mcs else m
                                          for m in prof.mcs_table)})
                ok &= tp.max_allowable_path_loss_db(
                    bumped, sc.margins, harder) == pytest.approx(base - 1.0)
    # power: affine slopes and homogeneity over a grid
    params = load_power_params("tvws")
    for n_tx in (1, 2, 4):
        for alpha in (0.0, 0.5, 1.0):
            p0 = tvws_bs_power_w(params, BsPowerInput(1, n_tx, 2.0, alpha))
            p1 = tvws_bs_power_w(params, BsPowerInput(1, n_tx, 3.0, alpha))
            ok &= (p1 - p0) == pytest.approx(n_tx * alpha / 0.182, rel=1e-9)
    runs = [RunEnergy(0.9, (8.0, 6.0), (64.0, 64.0))]
    ee = network_energy_efficiency(runs, 68.0)
    for k in (2.0, 5.0):
        scaled = [RunEnergy(0.9, (8.0, 6.0), (64.0 * k, 64.0 * k))]
        ok &= network_energy_efficiency(scaled, 68.0) == pytest.approx(ee / k)
        ok &= network_energy_efficiency(runs, 68.0 * k) == pytest.approx(ee * k)
    assert report("criterion 12: module monotonicity/homogeneity grids", ok)
