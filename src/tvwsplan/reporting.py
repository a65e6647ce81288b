"""Report assembly and artifact emission (CSV, JSON, SVG).

CSV is the canonical output format: '.' decimal separator, LF line endings,
a provenance block as leading '#' comment lines, then the header row.  The
SVG map is a rendering of the CSV content, never a data source.  Every
aggregate in a report is recomputable from the per-run rows;
`verify_report` performs that round trip.  `build_report` assembles a
report from a finished campaign (`planner.plan` runs it) and runs nothing.
The assignment table and the raster take their path loss from one
`propagation.link_loss_db` call each.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__, geometry
from .link_budget import EnvironmentMargins, TechnologyProfile, coverage_curve
from .planner import CampaignResult, RunOutcome
from .power_energy import LOAD_FACTOR, RADIATED_POWER_W, network_energy_efficiency
from .propagation import PathLossModel, link_loss_db, path_loss_array_db
from .scenario import Scenario, generate_population

__all__ = [
    "SimulationReport",
    "build_report",
    "report_to_json",
    "verify_report",
    "runs_csv",
    "deployment_csv",
    "assignment_csv",
    "power_csv",
    "raster_csv",
    "pathloss_csv",
    "coverage_csv",
    "sweep_csv",
    "svg_map",
]

REPORT_SCHEMA_VERSION = 1

#: conventions recorded in every report header
CONVENTIONS = {
    "ee_user_count_factor": "omitted (literal variant also reported)",
    "served_bitrate_accounting": "served user demand",
    "hata_rx_correction": "small/medium city",
    "power_load_factor": f"{LOAD_FACTOR} (worst case)",
}


@dataclass
class SimulationReport:
    scenario_name: str
    scenario_digest: str
    technology: str
    environment: str
    planning_mcs: str
    mimo: bool
    runs: int
    base_seed: int
    site_count: int
    area_km2: float
    user_count: int
    per_run: list          # dicts: seed, coverage, power_w, served_mbps, active
    mean_coverage: float
    std_coverage: float
    mean_power_w: float
    std_power_w: float
    mean_active_sites: float
    energy_efficiency: float           # units-clean convention
    energy_efficiency_std: float
    energy_efficiency_literal: float   # user-count factor included
    energy_efficiency_literal_std: float
    progressive_coverage: list
    provenance: dict


def _fmt(x: float) -> str:
    """Fixed, locale-independent float formatting for canonical CSV."""
    return f"{x:.6f}"


def _base_provenance(scenario: Scenario, profile: TechnologyProfile) -> dict:
    """Provenance of a study; `build_report` adds its campaign's seed and runs."""
    prov = {
        "tool": "tvwsplan",
        "tool_version": __version__,
        "scenario": scenario.name,
        "scenario_digest": scenario.digest,
        "technology": profile.name,
        "environment": scenario.environment,
        "model_variant": scenario.model.variant,
        "model_calibration": scenario.model.calibration_id or "none",
        "mimo": "4x4" if profile.mimo else "siso",
    }
    prov.update({f"convention_{k}": v for k, v in CONVENTIONS.items()})
    return prov


def build_report(scenario: Scenario, profile: TechnologyProfile,
                 result: CampaignResult) -> SimulationReport:
    """The report of a finished campaign; its provenance joins the
    campaign's validity notes as `model_warnings`, when there are any."""
    runs = len(result.outcomes)
    base_seed = result.outcomes[0].seed
    ee_runs = [network_energy_efficiency([o], scenario.region.area_km2)
               for o in result.outcomes]
    ee = float(np.mean(ee_runs))
    ee_lit = ee * scenario.population.user_count
    prov = _base_provenance(scenario, profile)
    prov.update(base_seed=base_seed, runs=runs)
    if result.model_warnings:
        prov["model_warnings"] = " | ".join(result.model_warnings)

    per_run = [{
        "seed": o.seed,
        "coverage": o.coverage_fraction,
        "power_w": o.total_power_w,
        "served_mbps": o.served_mbps_total,
        "active_sites": len(o.deployment.active_sites),
    } for o in result.outcomes]

    return SimulationReport(
        scenario_name=scenario.name,
        scenario_digest=scenario.digest,
        technology=profile.name,
        environment=scenario.environment,
        planning_mcs=result.budget.mcs_label,
        mimo=profile.mimo,
        runs=runs,
        base_seed=base_seed,
        site_count=len(result.sites),
        area_km2=scenario.region.area_km2,
        user_count=scenario.population.user_count,
        per_run=per_run,
        mean_coverage=result.mean_coverage,
        std_coverage=result.std_coverage,
        mean_power_w=result.mean_power_w,
        std_power_w=result.std_power_w,
        mean_active_sites=result.mean_active_sites,
        energy_efficiency=ee,
        energy_efficiency_std=float(np.std(ee_runs)),
        energy_efficiency_literal=ee_lit,
        energy_efficiency_literal_std=float(np.std(ee_runs))
        * scenario.population.user_count,
        progressive_coverage=result.progressive_coverage,
        provenance=prov)


def report_to_json(report: SimulationReport) -> str:
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **report.__dict__}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def verify_report(report: SimulationReport) -> list:
    """Recompute aggregates from per-run rows; returns discrepancies."""
    problems = []
    cov = np.array([r["coverage"] for r in report.per_run])
    pw = np.array([r["power_w"] for r in report.per_run])
    act = np.array([r["active_sites"] for r in report.per_run])
    srv = np.array([r["served_mbps"] for r in report.per_run])
    ee_runs = cov * report.area_km2 * srv / pw
    checks = [
        ("mean_coverage", report.mean_coverage, cov.mean()),
        ("std_coverage", report.std_coverage, cov.std(ddof=0)),
        ("mean_power_w", report.mean_power_w, pw.mean()),
        ("std_power_w", report.std_power_w, pw.std(ddof=0)),
        ("mean_active_sites", report.mean_active_sites, act.mean()),
        ("energy_efficiency", report.energy_efficiency, ee_runs.mean()),
        ("energy_efficiency_std", report.energy_efficiency_std, ee_runs.std(ddof=0)),
        ("energy_efficiency_literal", report.energy_efficiency_literal,
         ee_runs.mean() * report.user_count),
    ]
    for name, stored, computed in checks:
        if not math.isclose(stored, float(computed), rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{name}: stored {stored} != recomputed {computed}")
    prog = np.cumsum(cov) / np.arange(1, len(cov) + 1)
    if not np.allclose(prog, report.progressive_coverage, atol=1e-12):
        problems.append("progressive coverage trace not recomputable")
    return problems


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def _csv(prov: dict, header: str, rows) -> str:
    buf = io.StringIO()
    for k in sorted(prov):
        buf.write(f"# {k}={prov[k]}\n")
    buf.write(header + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def runs_csv(report: SimulationReport) -> str:
    rows = [[str(r["seed"]), _fmt(r["coverage"]), _fmt(r["power_w"]),
             _fmt(r["served_mbps"]), str(r["active_sites"])]
            for r in report.per_run]
    return _csv(report.provenance, "seed,coverage,power_w,served_mbps,active_sites", rows)


def deployment_csv(outcome: RunOutcome, sites, prov: dict) -> str:
    dep = outcome.deployment
    rows = []
    for s in sites:
        active = s.id in dep.active_sites
        rows.append([str(s.id), _fmt(s.x_km), _fmt(s.y_km),
                     "1" if active else "0",
                     _fmt(dep.per_site_served_mbps.get(s.id, 0.0)),
                     _fmt(dep.per_site_power_w.get(s.id, 0.0))])
    return _csv(prov, "site_id,x_km,y_km,active,served_mbps,power_w", rows)


def assignment_csv(outcome: RunOutcome, scenario: Scenario, sites,
                   model: PathLossModel, prov: dict) -> str:
    pop = generate_population(scenario.region, scenario.population, outcome.seed)
    site_xy = {s.id: (s.x_km, s.y_km) for s in sites}
    links = sorted(outcome.deployment.assignments.items())
    pls = link_loss_db(model, pop.xy_km[[uid for uid, _ in links]],
                       np.reshape([site_xy[sid] for _, sid in links], (-1, 2)))
    rows = [[str(uid), str(sid), _fmt(pl)]
            for (uid, sid), pl in zip(links, pls.tolist())]
    return _csv(prov, "user_id,site_id,pl_db", rows)


def power_csv(outcome: RunOutcome, profile: TechnologyProfile, prov: dict) -> str:
    dep = outcome.deployment
    rows = [[str(sid), str(profile.n_transmitters), _fmt(RADIATED_POWER_W),
             _fmt(LOAD_FACTOR), _fmt(dep.per_site_power_w[sid])]
            for sid in sorted(dep.active_sites)]
    return _csv(prov, "bs_id,n_tx,p_r_w,load,p_total_w", rows)


def raster_csv(outcome: RunOutcome, scenario: Scenario, sites,
               model: PathLossModel, pl_max_db: float, prov: dict) -> str:
    """Coverage raster over the region grid at the scenario resolution."""
    xmin, ymin, xmax, ymax = geometry.polygon_bbox(scenario.region.outline)
    step = scenario.region.resolution_m / 1000.0

    def centres(lo, hi):
        # accumulated, not lo + k*step, so the grid keeps its historical bits
        out, v = [], lo + step / 2
        while v < hi:
            out.append(v)
            v += step
        return out

    xs, ys = centres(xmin, xmax), centres(ymin, ymax)
    grid = np.array([(x, y) for y in ys for x in xs]).reshape(-1, 2)
    pixels = grid[geometry.points_in_polygon(grid, scenario.region.outline)]
    active = np.reshape([(s.x_km, s.y_km) for s in sites
                         if s.id in outcome.deployment.active_sites], (-1, 2))
    best = link_loss_db(model, pixels[:, None], active).min(axis=1, initial=math.inf)
    rows = [[_fmt(x), _fmt(y), _fmt(b) if math.isfinite(b) else "inf",
             "1" if b <= pl_max_db else "0"]
            for (x, y), b in zip(pixels.tolist(), best.tolist())]
    return _csv(prov, "x,y,best_pl_db,covered_flag", rows)


def pathloss_csv(model: PathLossModel, prov: dict, d_min_km: float,
                 d_max_km: float, step_km: float) -> str:
    # the whole steps that stay within d_max_km, forgiving 1e-9 of a step
    d = d_min_km + np.arange(math.floor((d_max_km - d_min_km) / step_km + 1e-9) + 1) * step_km
    pl = path_loss_array_db(model, d)
    rows = [[_fmt(x), _fmt(y)] for x, y in zip(d.tolist(), pl.tolist())]
    return _csv(prov, "d_km,pl_db", rows)


def coverage_csv(profile: TechnologyProfile, margins: EnvironmentMargins,
                 model: PathLossModel, prov: dict) -> str:
    rows = [[label, _fmt(bitrate), _fmt(rng)]
            for label, bitrate, rng in coverage_curve(profile, margins, model)]
    return _csv(prov, "mcs,bitrate_mbps,range_km", rows)


def sweep_csv(rows, prov: dict) -> str:
    out = [[r.mcs_label, _fmt(r.required_snr_db), _fmt(r.range_km),
            str(r.n_bs_area), str(r.n_bs_load), str(r.n_bs_min),
            "1" if r.is_optimal else "0"]
           for r in rows]
    return _csv(prov, "mcs,snr_db,range_km,n_area,n_load,n_min,optimal_flag", out)


# ---------------------------------------------------------------------------
# SVG map (deterministic hand-rolled rendering)
# ---------------------------------------------------------------------------

def svg_map(outcome: RunOutcome, scenario: Scenario, sites,
            title: str = "", prov: dict | None = None) -> str:
    """Region outline, candidate/active sites and covered/uncovered users.

    A rendering of the deployment CSVs; the provenance block rides along as
    an XML comment.
    """
    xmin, ymin, xmax, ymax = geometry.polygon_bbox(scenario.region.outline)
    pad = 0.5
    xmin -= pad; ymin -= pad; xmax += pad; ymax += pad
    width = 800.0
    scale = width / (xmax - xmin)
    height = (ymax - ymin) * scale

    def px(x):
        return (x - xmin) * scale

    def py(y):
        return height - (y - ymin) * scale  # SVG y axis points down

    pop = generate_population(scenario.region, scenario.population, outcome.seed)
    dep = outcome.deployment
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
    ]
    if prov:
        safe = " | ".join(f"{k}={prov[k]}" for k in sorted(prov))
        parts.append(f"<!-- {safe.replace('--', '   ')} -->")
    parts.append(f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>')
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in scenario.region.outline)
    parts.append(f'<polygon points="{pts}" fill="#eef3ea" stroke="#4a6741" '
                 f'stroke-width="2"/>')
    for i, (x, y) in enumerate(pop.xy_km):
        if i in dep.uncovered_users:
            parts.append(f'<g stroke="#c0392b" stroke-width="1.5">'
                         f'<line x1="{px(x)-3:.2f}" y1="{py(y)-3:.2f}" '
                         f'x2="{px(x)+3:.2f}" y2="{py(y)+3:.2f}"/>'
                         f'<line x1="{px(x)-3:.2f}" y1="{py(y)+3:.2f}" '
                         f'x2="{px(x)+3:.2f}" y2="{py(y)-3:.2f}"/></g>')
        else:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2" '
                         f'fill="#2c3e50"/>')
    for s in sites:
        if s.id in dep.active_sites:
            parts.append(f'<circle cx="{px(s.x_km):.2f}" cy="{py(s.y_km):.2f}" '
                         f'r="6" fill="#2980b9" stroke="#1b4f72" stroke-width="1.5"/>')
        else:
            parts.append(f'<circle cx="{px(s.x_km):.2f}" cy="{py(s.y_km):.2f}" '
                         f'r="5" fill="none" stroke="#7f8c8d" stroke-width="1.5"/>')
    if title:  # escaped as by xml.sax.saxutils.escape, whose imports (ssl,
        # http, email) would add about 2 MB to every process
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="12" y="22" font-family="sans-serif" '
                     f'font-size="16" fill="#2c3e50">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
