"""Batch command-line front end.

Subcommands:
    pathloss   distance/loss CSV for a scenario's propagation model
    coverage   bitrate-versus-range CSV for one technology
    sweep      per-MCS station-count bounds with the optimum flagged
    plan       full Monte-Carlo planning campaign (report, CSVs, SVG map)

Scenario selection: `--env suburban|rural` picks the bundled study areas;
`--scenario PATH` loads a scenario file instead.  `--tech` overrides the
scenario's technology and `--mimo` picks its SISO or 4x4 profile, which sets
the provenance `mimo` line.  `plan` runs `planner.plan` and reads its MCS
and raster PL_max from the campaign's budget; its runs execute one after
another in this process.

On failure a machine-readable JSON error record goes to stderr and the exit
status is non-zero; stderr holds nothing else.  `plan` states the model's
stretched assumptions over its campaign's reach in the provenance line
`model_warnings` (`propagation.validity_notes`).  Numeric flags out of
range (`--runs` < 1, `--seed` < 0, `--dmin` or `--step` not positive,
`--dmax` below `--dmin`, any distance not finite, or a `--step` so fine
that `pathloss` would write more than `MAX_PATHLOSS_ROWS` rows) are `usage`
errors, exit 2, naming the flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .link_budget import load_technology
from .planner import PlannerConfig, plan
from .reporting import (assignment_csv, build_report, coverage_csv,
                        deployment_csv, pathloss_csv, power_csv, raster_csv,
                        report_to_json, runs_csv, svg_map, sweep_csv,
                        verify_report, _base_provenance)
from .scenario import (ScenarioError, bundled_scenario, generate_population,
                       load_scenario, population_to_csv)
from .sizing import sweep_mcs

ENV_SCENARIOS = {"suburban": "ghent_suburban", "rural": "boyeros_rural"}
MAX_PATHLOSS_ROWS = 10**6


class CliError(Exception):
    def __init__(self, kind: str, message: str, **detail):
        self.record = {"error": {"type": kind, "message": message, **detail}}
        super().__init__(message)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--scenario", help="scenario file path (overrides --env)")
    p.add_argument("--env", choices=sorted(ENV_SCENARIOS),
                   help="bundled scenario shorthand")
    p.add_argument("--tech", help="technology name (default: scenario file)")
    p.add_argument("--mimo", choices=["siso", "4x4"], default="siso")
    p.add_argument("--out", default=".", help="output directory (default: cwd)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tvwsplan", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pathloss", help="emit d_km,pl_db CSV")
    _add_common(p)
    p.add_argument("--dmin", type=float, default=0.1)
    p.add_argument("--dmax", type=float, default=20.0)
    p.add_argument("--step", type=float, default=0.1)

    p = sub.add_parser("coverage", help="emit mcs,bitrate_mbps,range_km CSV")
    _add_common(p)

    p = sub.add_parser("sweep", help="emit per-MCS sizing CSV")
    _add_common(p)

    p = sub.add_parser("plan", help="run a planning campaign")
    _add_common(p)
    p.add_argument("--mcs", help="fixed planning MCS label (default: sweep optimum)")
    p.add_argument("--runs", type=int, default=PlannerConfig.runs,
                   help="Monte-Carlo runs (default: %(default)s)")
    p.add_argument("--seed", type=int, help="base seed (default: scenario file)")
    return ap


def _load_scenario(args):
    if args.scenario:
        try:
            return load_scenario(args.scenario)
        except OSError as e:  # missing, a directory, unreadable
            raise CliError("missing_file", str(e), path=str(args.scenario)) from e
    if args.env:
        return bundled_scenario(ENV_SCENARIOS[args.env])
    raise CliError("usage", "either --scenario or --env is required")


def _load_profile(scenario, args):
    name = args.tech or scenario.technology
    mimo = args.mimo == "4x4"
    try:
        return load_technology(name, scenario.environment, mimo=mimo)
    except FileNotFoundError as e:
        raise CliError("missing_file", str(e), technology=name) from e
    except (KeyError, ValueError) as e:
        raise CliError("invalid_technology", str(e), technology=name) from e


def _check_flag(ok: bool, flag: str, rule: str, value):
    """A numeric flag out of range is a usage error naming the flag."""
    if not ok:
        raise CliError("usage", f"{flag} must be {rule}, got {value}", flag=flag)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _study(args):
    """(scenario, profile, model, provenance) of the command's study."""
    scenario = _load_scenario(args)
    profile = _load_profile(scenario, args)
    model = scenario.model_for(profile)
    return scenario, profile, model, _base_provenance(scenario, profile, model)


def cmd_pathloss(args) -> list:
    _check_flag(0 < args.dmin < math.inf, "--dmin", "positive and finite", args.dmin)
    _check_flag(args.dmin <= args.dmax < math.inf, "--dmax",
                "finite and at least --dmin", args.dmax)
    _check_flag(0 < args.step < math.inf, "--step", "positive and finite", args.step)
    _check_flag((args.dmax - args.dmin) / args.step < MAX_PATHLOSS_ROWS - 1, "--step",
                f"coarse enough for at most {MAX_PATHLOSS_ROWS} rows", args.step)
    _, _, model, prov = _study(args)
    path = _outdir(args) / "pathloss.csv"
    path.write_text(pathloss_csv(model, prov, args.dmin, args.dmax, args.step))
    return [path]


def cmd_coverage(args) -> list:
    scenario, profile, model, prov = _study(args)
    path = _outdir(args) / "coverage.csv"
    path.write_text(coverage_csv(profile, scenario.margins, model, prov))
    return [path]


def cmd_sweep(args) -> list:
    scenario, profile, model, prov = _study(args)
    rows = sweep_mcs(profile, scenario.margins, model,
                     scenario.region.area_km2,
                     scenario.population.expected_demand_mbps)
    path = _outdir(args) / "sweep.csv"
    path.write_text(sweep_csv(rows, prov))
    return [path]


def cmd_plan(args) -> list:
    _check_flag(args.runs >= 1, "--runs", "at least 1", args.runs)
    _check_flag(args.seed is None or args.seed >= 0, "--seed", "at least 0", args.seed)
    scenario, profile, model, _ = _study(args)
    deployable = [m.label for m in profile.deployable_mcs()]
    if args.mcs and args.mcs not in deployable:
        raise CliError("invalid_mcs", f"MCS {args.mcs!r} is not a deployable "
                       f"tier of {profile.name}", available=deployable)
    config = PlannerConfig(
        mcs_label=args.mcs or "",
        runs=args.runs,
        base_seed=args.seed if args.seed is not None else scenario.base_seed,
        mimo=profile.mimo)
    result, _ = plan(scenario, profile, config)
    report = build_report(scenario, profile, result)
    bad = verify_report(report)
    if bad:  # internal consistency guard; never expected to trip
        raise CliError("internal", "report failed round-trip verification",
                       problems=bad)

    out = _outdir(args)
    first = result.outcomes[0]
    prov = report.provenance

    first_pop = generate_population(scenario.region, scenario.population,
                                    first.seed)
    artifacts = {
        "report.json": report_to_json(report),
        "runs.csv": runs_csv(report),
        "population.csv": population_to_csv(first_pop),
        "deployment.csv": deployment_csv(first, result.sites, prov),
        "assignments.csv": assignment_csv(first, scenario, result.sites, model, prov),
        "power.csv": power_csv(first, profile, prov),
        "coverage_raster.csv": raster_csv(first, scenario, result.sites, model,
                                          result.budget.pl_max, prov),
        "map.svg": svg_map(first, scenario, result.sites,
                           title=f"{scenario.name} / {profile.name} / "
                                 f"{report.planning_mcs}", prov=prov),
    }
    paths = []
    for name, text in artifacts.items():
        p = out / name
        p.write_text(text)
        paths.append(p)
    return paths


COMMANDS = {
    "pathloss": cmd_pathloss,
    "coverage": cmd_coverage,
    "sweep": cmd_sweep,
    "plan": cmd_plan,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        paths = COMMANDS[args.command](args)
    except (CliError, ScenarioError) as e:
        if isinstance(e, ScenarioError):  # from a scenario file or `plan`
            e = CliError("invalid_scenario", "scenario failed validation",
                         fields=e.errors)
        print(json.dumps(e.record, sort_keys=True), file=sys.stderr)
        return 2
    except Exception as e:  # unexpected: still machine readable
        record = {"error": {"type": "internal", "message": str(e),
                            "exception": type(e).__name__}}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
