import copy
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import with_src
from tvwsplan import geometry
from tvwsplan.cli import main as cli_main
from tvwsplan.link_budget import (bundled_yaml, load_technology,
                                  max_allowable_path_loss_db)
from tvwsplan.planner import Deployment, PlannerConfig, RunOutcome, plan
from tvwsplan.propagation import okumura_hata_rural, one_slope, path_loss_db
from tvwsplan.reporting import (assignment_csv, build_report, coverage_csv,
                                deployment_csv, pathloss_csv, power_csv,
                                raster_csv, report_to_json, runs_csv, svg_map,
                                sweep_csv, verify_report)
from tvwsplan.scenario import bundled_scenario, generate_population
from tvwsplan.sizing import sweep_mcs

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_micro_report.json"
PLAN_ARTIFACTS = ("report.json", "runs.csv", "population.csv", "deployment.csv",
                  "assignments.csv", "power.csv", "coverage_raster.csv", "map.svg")


@pytest.fixture(scope="module")
def micro_report(micro_scenario, micro_profile, micro_model, micro_sites):
    cfg = PlannerConfig(runs=3, base_seed=42)
    result, _ = plan(micro_scenario, micro_profile, cfg)
    return (build_report(micro_scenario, micro_profile, result), result,
            micro_scenario, micro_profile, micro_model, cfg, micro_sites)


class TestReport:
    def test_aggregates_recomputable(self, micro_report):
        report = micro_report[0]
        assert verify_report(report) == []

    def test_round_trip_from_runs_csv(self, micro_report):
        report = micro_report[0]
        text = runs_csv(report)
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#") and not line.startswith("seed")]
        cov = [float(r[1]) for r in rows]
        assert sum(cov) / len(cov) == pytest.approx(report.mean_coverage, abs=1e-6)
        power = [float(r[2]) for r in rows]
        assert sum(power) / len(power) == pytest.approx(report.mean_power_w, abs=1e-4)

    def test_tampered_aggregate_detected(self, micro_report):
        report = micro_report[0]
        import copy
        bad = copy.deepcopy(report)
        bad.mean_coverage += 0.01
        assert any("mean_coverage" in p for p in verify_report(bad))

    def test_provenance_block_present(self, micro_report):
        report = micro_report[0]
        for key in ("tool_version", "scenario_digest", "technology", "base_seed",
                    "convention_ee_user_count_factor",
                    "convention_served_bitrate_accounting"):
            assert key in report.provenance
        payload = json.loads(report_to_json(report))
        assert payload["schema_version"] == 1

    def test_report_json_deterministic(self, micro_scenario, micro_profile):
        sc, prof = micro_scenario, micro_profile
        cfg = PlannerConfig(runs=2, base_seed=42)
        a, b = (report_to_json(build_report(sc, prof, plan(sc, prof, cfg)[0]))
                for _ in range(2))
        assert a == b

    def test_report_json_rejects_non_json_types(self, micro_report):
        import copy
        bad = copy.deepcopy(micro_report[0])
        bad.per_run[0]["active_sites"] = np.int64(bad.per_run[0]["active_sites"])
        with pytest.raises(TypeError):
            report_to_json(bad)

    def test_golden_micro_report(self, micro_report):
        text = report_to_json(micro_report[0])
        assert GOLDEN.exists(), "golden file missing"
        assert text == GOLDEN.read_text()


class TestCsvEmitters:
    def test_headers_and_line_endings(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        first = result.outcomes[0]
        prov = report.provenance
        mcs = prof.mcs(report.planning_mcs)
        pl_max = max_allowable_path_loss_db(prof, sc.margins, mcs)
        emitted = {
            "runs": (runs_csv(report), "seed,coverage,power_w,served_mbps,active_sites"),
            "deployment": (deployment_csv(first, sites, prov),
                           "site_id,x_km,y_km,active,served_mbps,power_w"),
            "assignment": (assignment_csv(first, sc, sites, model, prov),
                           "user_id,site_id,pl_db"),
            "power": (power_csv(first, prof, prov),
                      "bs_id,n_tx,p_r_w,load,p_total_w"),
            "raster": (raster_csv(first, sc, sites, model, pl_max, prov),
                       "x,y,best_pl_db,covered_flag"),
            "pathloss": (pathloss_csv(model, prov, 0.1, 20.0, 0.1), "d_km,pl_db"),
        }
        for name, (text, header) in emitted.items():
            assert "\r" not in text, name
            lines = text.splitlines()
            data_start = next(i for i, l in enumerate(lines)
                              if not l.startswith("#"))
            assert lines[data_start] == header, name
            assert any(l.startswith("# scenario_digest=") for l in lines[:data_start])

    def test_deployment_marks_active_sites(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        first = result.outcomes[0]
        text = deployment_csv(first, sites, report.provenance)
        active_rows = [l for l in text.splitlines()
                       if not l.startswith("#") and ",1," in l]
        assert len(active_rows) == len(first.deployment.active_sites)

    def test_raster_covers_resolution_grid(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        mcs = prof.mcs(report.planning_mcs)
        pl_max = max_allowable_path_loss_db(prof, sc.margins, mcs)
        text = raster_csv(result.outcomes[0], sc, sites, model, pl_max,
                          report.provenance)
        rows = [l for l in text.splitlines() if not l.startswith(("#", "x,"))]
        # 4 x 3 km at 500 m resolution: 8 x 6 interior cells
        assert len(rows) == 48
        assert all(r.split(",")[3] in ("0", "1") for r in rows)

    @staticmethod
    def scalar_raster_rows(sc, sites, active, model, pl_max):
        """The former per-pixel, per-site raster loop, kept as the oracle."""
        xmin, ymin, xmax, ymax = geometry.polygon_bbox(sc.region.outline)
        step = sc.region.resolution_m / 1000.0
        live = [s for s in sites if s.id in active]
        rows = []
        y = ymin + step / 2
        while y < ymax:
            x = xmin + step / 2
            while x < xmax:
                if geometry.point_in_polygon(x, y, sc.region.outline):
                    if live:
                        best = min(path_loss_db(model,
                                                max(math.hypot(x - s.x_km, y - s.y_km),
                                                    model.min_distance_km))
                                   for s in live)
                    else:
                        best = float("inf")
                    rows.append(f"{x:.6f},{y:.6f},"
                                + (f"{best:.6f}" if math.isfinite(best) else "inf")
                                + ("," + ("1" if best <= pl_max else "0")))
                x += step
            y += step
        return rows

    @pytest.mark.parametrize("env", ["ghent_suburban", "boyeros_rural"])
    def test_raster_matches_scalar_loop(self, env):
        sc = bundled_scenario(env)
        prof = load_technology(sc.technology, sc.environment)
        model = sc.model_for(prof)
        pl_max = max_allowable_path_loss_db(prof, sc.margins, prof.deployable_mcs()[-1])
        sites = sc.lattice_sites(24)
        for active in ({s.id for s in sites[::6]}, set()):
            outcome = RunOutcome(seed=0, coverage_fraction=0.0,
                                 deployment=Deployment(active, {}, {}, {}, set()),
                                 total_power_w=0.0, served_mbps_total=0.0)
            text = raster_csv(outcome, sc, sites, model, pl_max, {})
            expected = self.scalar_raster_rows(sc, sites, active, model, pl_max)
            assert text.splitlines()[1:] == expected
            assert len(expected) > 500
            if active:  # both sides of the coverage edge are exercised
                assert {r[-1] for r in expected} == {"0", "1"}
            else:  # no station: every pixel unreachable
                assert all(r.endswith(",inf,0") for r in expected)

    @staticmethod
    def scalar_assignment_rows(sc, outcome, sites, model):
        """The former per-user assignment loop, kept as the oracle."""
        pop = generate_population(sc.region, sc.population, outcome.seed)
        pos = {i: (float(x), float(y)) for i, (x, y) in enumerate(pop.xy_km)}
        site_by_id = {s.id: s for s in sites}
        rows = []
        for uid in sorted(outcome.deployment.assignments):
            sid = outcome.deployment.assignments[uid]
            s = site_by_id[sid]
            d = max(math.hypot(pos[uid][0] - s.x_km, pos[uid][1] - s.y_km),
                    model.min_distance_km)
            rows.append(f"{uid},{sid},{path_loss_db(model, d):.6f}")
        return rows

    @pytest.mark.parametrize("env", ["ghent_suburban", "boyeros_rural"])
    def test_assignments_match_scalar_loop(self, env):
        sc = bundled_scenario(env)
        model = sc.model_for(load_technology(sc.technology, sc.environment))
        sites = sc.lattice_sites(24)
        pop = generate_population(sc.region, sc.population, 3)
        # every user on some site, near or far, in a shuffled id order
        assign = {u: sites[(7 * u) % len(sites)].id
                  for u in reversed(range(len(pop)))}
        outcome = RunOutcome(seed=3, coverage_fraction=1.0,
                             deployment=Deployment(set(assign.values()), assign,
                                                   {}, {}, set()),
                             total_power_w=0.0, served_mbps_total=0.0)
        text = assignment_csv(outcome, sc, sites, model, {})
        expected = self.scalar_assignment_rows(sc, outcome, sites, model)
        assert text.splitlines() == ["user_id,site_id,pl_db"] + expected
        assert len(expected) == sc.population.user_count

    def test_pathloss_csv_values(self):
        model = one_slope(100.0, 1.0, 3.0)
        text = pathloss_csv(model, {"x": 1}, d_min_km=1.0, d_max_km=10.0,
                            step_km=1.0)
        rows = [l.split(",") for l in text.splitlines()
                if not l.startswith(("#", "d_km"))]
        assert len(rows) == 10
        assert float(rows[0][1]) == pytest.approx(100.0)
        assert float(rows[-1][1]) == pytest.approx(130.0)

    def test_sweep_csv_optimal_flag(self):
        sc = bundled_scenario("ghent_suburban")
        prof = load_technology("lte", "suburban")
        rows = sweep_mcs(prof, sc.margins, sc.model_for(prof),
                         sc.region.area_km2, sc.population.expected_demand_mbps)
        text = sweep_csv(rows, {"x": 1})
        lines = [l for l in text.splitlines() if not l.startswith(("#", "mcs,"))]
        flagged = [l for l in lines if l.endswith(",1")]
        assert len(flagged) == 1
        assert flagged[0].startswith("1/2 16-QAM,")


class TestSvgMap:
    def test_svg_well_formed_and_complete(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        first = result.outcomes[0]
        svg = svg_map(first, sc, sites, title="micro")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        body = svg
        assert "<polygon" in body
        assert body.count("<circle") >= len(sites)
        if first.deployment.uncovered_users:
            assert "<line" in body  # uncovered users drawn as crosses

    def test_svg_title_is_escaped(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        title = "Ghent & <Co> / testtech / 1/2 QPSK"
        svg = svg_map(result.outcomes[0], sc, sites, title=title,
                      prov=report.provenance)
        [text] = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
        assert text.text == title

    def test_svg_deterministic(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        first = result.outcomes[0]
        assert svg_map(first, sc, sites) == svg_map(first, sc, sites)

    def test_svg_carries_provenance_comment(self, micro_report):
        report, result, sc, prof, model, cfg, sites = micro_report
        svg = svg_map(result.outcomes[0], sc, sites, prov=report.provenance)
        assert "<!--" in svg and "scenario_digest=" in svg


class TestCli:
    def run_cli(self, *args):
        import io
        from contextlib import redirect_stderr, redirect_stdout
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(args))
        return code, out.getvalue(), err.getvalue()

    def test_pathloss_subcommand(self, tmp_path):
        code, out, err = self.run_cli("pathloss", "--env", "rural",
                                      "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "pathloss.csv").read_text()
        assert "d_km,pl_db" in text

    def test_pathloss_rows_stop_at_dmax(self, tmp_path):
        def rows(*flags):
            code, _, err = self.run_cli("pathloss", "--env", "suburban", *flags,
                                        "--out", str(tmp_path))
            assert code == 0, err
            text = (tmp_path / "pathloss.csv").read_text()
            return [l.split(",")[0] for l in text.splitlines()
                    if not l.startswith(("#", "d_km"))]
        # half a step short of another row: none past --dmax
        assert rows("--dmin", "1.0", "--dmax", "1.05", "--step", "0.1") == ["1.000000"]
        default = rows()
        assert len(default) == 200 and default[-1] == "20.000000"

    def test_coverage_rural_22b_anchor_row(self, tmp_path):
        code, out, err = self.run_cli("coverage", "--tech", "802.22b",
                                      "--env", "rural", "--out", str(tmp_path))
        assert code == 0
        rows = [l.split(",") for l in (tmp_path / "coverage.csv").read_text().splitlines()
                if not l.startswith(("#", "mcs,"))]
        qpsk = next(r for r in rows if r[0] == "1/2 QPSK")
        assert float(qpsk[2]) == pytest.approx(17.6, rel=0.05)

    def test_sweep_lte_suburban_marker(self, tmp_path):
        code, out, err = self.run_cli("sweep", "--tech", "lte",
                                      "--env", "suburban", "--out", str(tmp_path))
        assert code == 0
        lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines()
                 if l.endswith(",1")]
        assert len(lines) == 1 and lines[0].startswith("1/2 16-QAM,")

    @staticmethod
    def micro_scenario_file(tmp_path, sites) -> Path:
        scn = {
            "name": "micro-cli", "schema_version": 1,
            "region": {"outline_km": [[0, 0], [4, 0], [4, 3], [0, 3]],
                       "area_km2": 12.0, "resolution_m": 500.0},
            "population": {"user_count": 12, "data_fraction": 1.0},
            "environment": {"kind": "suburban", "shadow_margin_db": 2.0,
                            "fade_margin_db": 1.0},
            "propagation": {"variant": "one_slope", "pl0_db": 108.0,
                            "d0_km": 1.0, "exponent": 3.5},
            "technology": "802.22b",
            "sites": sites,
            "seeds": {"base_seed": 42},
        }
        path = tmp_path / "micro.yaml"
        path.write_text(yaml.safe_dump(scn))
        return path

    def test_plan_micro_deterministic_bytes(self, tmp_path):
        # custom scenario file with lattice sites, one run
        path = self.micro_scenario_file(
            tmp_path, {"mode": "lattice", "count": 3, "jitter_fraction": 0.1,
                       "seed": 5, "antenna_height_m": 30.0})
        outa, outb = tmp_path / "a", tmp_path / "b"
        for out in (outa, outb):
            code, _, err = self.run_cli("plan", "--scenario", str(path),
                                        "--runs", "1", "--out", str(out))
            assert code == 0, err
        for name in PLAN_ARTIFACTS:
            assert (outa / name).read_bytes() == (outb / name).read_bytes(), name
        pop_lines = (outa / "population.csv").read_text().splitlines()
        assert pop_lines[0] == "user_id,x_km,y_km,demand_mbps"
        assert len(pop_lines) == 13  # header + 12 users

    def test_plan_with_explicit_sites(self, tmp_path):
        # listed out of id order: the candidate list keeps the file's order
        listed = [(7, 3.2, 1.5), (2, 0.8, 1.5), (5, 2.0, 1.5)]
        path = self.micro_scenario_file(tmp_path, {"mode": "explicit", "list": [
            {"id": i, "x_km": x, "y_km": y} for i, x, y in listed]})
        code, _, err = self.run_cli("plan", "--scenario", str(path),
                                    "--runs", "2", "--out", str(tmp_path))
        assert code == 0, err
        rows = [l.split(",") for l in
                (tmp_path / "deployment.csv").read_text().splitlines()
                if not l.startswith(("#", "site_id"))]
        assert [(int(r[0]), float(r[1]), float(r[2])) for r in rows] == listed
        assert any(r[3] == "1" for r in rows)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["site_count"] == 3 and report["runs"] == 2

    def test_plan_with_fixed_mcs_flag(self, tmp_path):
        code, out, err = self.run_cli("plan", "--env", "rural",
                                      "--tech", "802.22b", "--mcs", "1/2 QPSK",
                                      "--runs", "2", "--out", str(tmp_path))
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["planning_mcs"] == "1/2 QPSK"

    def test_plan_with_unknown_mcs_label_fails(self, tmp_path):
        code, out, err = self.run_cli("plan", "--env", "rural",
                                      "--tech", "802.22b", "--mcs", "9/9 HEX",
                                      "--runs", "1", "--out", str(tmp_path))
        assert code != 0
        assert "9/9 HEX" in json.loads(err)["error"]["message"]

    def test_plan_with_non_deployable_mcs_fails(self, tmp_path):
        code, out, err = self.run_cli("plan", "--env", "rural",
                                      "--tech", "802.22b", "--mcs", "7/8 256-QAM",
                                      "--runs", "1", "--out", str(tmp_path))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "invalid_mcs"
        assert "7/8 256-QAM" not in error["available"]

    @pytest.mark.parametrize("args, flag", [
        (("plan", "--runs", "0"), "--runs"),
        (("plan", "--runs", "-2"), "--runs"),
        (("plan", "--seed", "-5"), "--seed"),
        (("pathloss", "--step", "0"), "--step"),
        (("pathloss", "--step", "-0.1"), "--step"),
        (("pathloss", "--dmin", "0"), "--dmin"),
        (("pathloss", "--dmin", "5", "--dmax", "1"), "--dmax"),
        # steps too fine for their range: the row count overflows a float,
        # or its distances would not fit in memory
        (("pathloss", "--dmax", "1e300", "--step", "1e-300"), "--step"),
        (("pathloss", "--dmax", "1000", "--step", "1e-9"), "--step")])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, args, flag):
        code, out, err = self.run_cli(*args, "--env", "suburban",
                                      "--out", str(tmp_path))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and error["flag"] == flag
        assert flag in error["message"]
        assert not list(tmp_path.iterdir())

    def test_missing_scenario_is_machine_readable(self, tmp_path):
        code, out, err = self.run_cli("plan", "--scenario",
                                      str(tmp_path / "ghost.yaml"))
        assert code != 0
        record = json.loads(err)
        assert record["error"]["type"] == "missing_file"
        assert "ghost.yaml" in record["error"]["message"]

    def test_invalid_scenario_lists_field_errors(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("region: {}\npopulation: {}\n")
        code, out, err = self.run_cli("sweep", "--scenario", str(bad))
        assert code != 0
        record = json.loads(err)
        assert record["error"]["type"] == "invalid_scenario"
        assert isinstance(record["error"]["fields"], list)
        assert record["error"]["fields"]

    @pytest.mark.parametrize("sites, field", [
        ({"mode": "lattice", "count": 0}, "sites.count"),
        ({"mode": "auto_grow", "pilot_runs": 0}, "sites.pilot_runs"),
        ({"mode": "auto_grow", "max_sites": 0}, "sites.max_sites"),
        ({"mode": "lattice", "count": 9, "jitter_fraction": -0.2},
         "sites.jitter_fraction"),
        ({"mode": "auto_grow", "target_coverage": 1.5}, "sites.target_coverage"),
        # below the 802.22b sizing lower bound: rejected before any pilot
        ({"mode": "auto_grow", "max_sites": 2}, "sites.max_sites"),
        # explicit lists: a repeated id, a site 5.5 km outside the outline
        ({"mode": "explicit", "list": [{"id": 0, "x_km": 8.0, "y_km": 5.0},
                                       {"id": 0, "x_km": 9.0, "y_km": 5.0}]},
         "sites.list"),
        ({"mode": "explicit", "list": [{"id": 0, "x_km": 17.6, "y_km": 5.0}]},
         "sites.list"),
        ({"mode": "lattice", "count": 9, "seed": -3}, "sites.seed"),
        # a non-positive policy height, which every lattice site takes
        ({"mode": "lattice", "count": 9, "antenna_height_m": -5.0}, "sites"),
        ({"mode": "auto_grow", "antenna_height_m": -5.0}, "sites"),
        # a target the pilots at 13 and 17 sites cannot meet under the cap
        ({"mode": "auto_grow", "target_coverage": 0.9999, "max_sites": 20,
          "pilot_runs": 40, "jitter_fraction": 0.05, "seed": 7,
          "antenna_height_m": 50.0}, "sites.target_coverage")])
    def test_bad_site_policy_is_invalid_scenario(self, tmp_path, sites, field):
        path = tmp_path / "sites.yaml"
        raw = bundled_yaml("scenarios", "ghent_suburban")
        path.write_text(yaml.safe_dump({**raw, "sites": sites}))
        code, out, err = self.run_cli("plan", "--scenario", str(path), "--runs", "1",
                                      "--out", str(tmp_path))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "invalid_scenario"
        assert [f.split(":")[0] for f in error["fields"]] == [field]

    def test_run_without_active_site_is_invalid_scenario(self, tmp_path):
        # a lone site that the 30 dB shadow margin leaves reaching no user
        raw = copy.deepcopy(bundled_yaml("scenarios", "ghent_suburban"))
        raw["environment"]["shadow_margin_db"] = 30.0
        raw["sites"] = {"mode": "explicit", "antenna_height_m": 30.0,
                        "list": [{"id": 1, "x_km": 13.5, "y_km": 5.677}]}
        path = tmp_path / "idle.yaml"
        path.write_text(yaml.safe_dump(raw))
        code, _, err = self.run_cli("plan", "--scenario", str(path), "--runs", "2",
                                    "--out", str(tmp_path / "out"))
        assert code == 2
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "invalid_scenario"
        assert error["fields"] == [
            "sites: the run with seed 1000 activates no site (2 of 2 runs), "
            "so its energy efficiency is undefined"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-5, "abc", [1], 1.5, True],
                             ids=["-5", "abc", "list", "1.5", "True"])
    def test_negative_base_seed_is_invalid_scenario(self, tmp_path, seed):
        path = tmp_path / "seeds.yaml"
        raw = bundled_yaml("scenarios", "ghent_suburban")
        path.write_text(yaml.safe_dump({**raw, "seeds": {"base_seed": seed}}))
        code, out, err = self.run_cli("plan", "--scenario", str(path), "--runs", "1",
                                      "--out", str(tmp_path))
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "invalid_scenario"
        assert [f.split(":")[0] for f in error["fields"]] == ["seeds.base_seed"]

    @pytest.mark.parametrize("name, field, value", [
        ("ghent_suburban", "environment.shadow_margin_db", 1e308),
        ("ghent_suburban", "environment.fade_margin_db", 1e308),
        ("ghent_suburban", "propagation.pl0_db", 1e308),
        ("ghent_suburban", "propagation.d0_km", 1e308),
        ("ghent_suburban", "propagation.exponent", 1e-9),
        ("ghent_suburban", "population.data_bitrate_mbps", 1e308),
        ("ghent_suburban", "population.voice_bitrate_mbps", 1e308),
        ("boyeros_rural", "propagation.offset_db", 1e308),
        ("boyeros_rural", "propagation.offset_db", -1e308),
        ("boyeros_rural", "propagation.rx_height_m", 1e308),
        ("boyeros_rural", "propagation.bs_height_m", 1e-300)])
    def test_extreme_in_range_value_is_invalid_scenario(self, tmp_path, name, field,
                                                        value):
        # finite values that once passed the reader and crashed the sizing
        raw = copy.deepcopy(bundled_yaml("scenarios", name))
        section, key = field.split(".")
        raw[section][key] = value
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(raw))
        code, _, err = self.run_cli("sweep", "--scenario", str(path),
                                    "--out", str(tmp_path / "out"))
        assert code == 2, err
        error = json.loads(err)["error"]
        assert error["type"] == "invalid_scenario"
        assert [f.split(":")[0] for f in error["fields"]] == [field]

    @pytest.mark.parametrize("name, field, value", [
        *[("ghent_suburban", f"environment.{margin}_margin_db", v)
          for margin in ("shadow", "fade") for v in (50.0, 99.0)],
        ("ghent_suburban", "propagation.pl0_db", 250.0),
        *[("ghent_suburban", "propagation.d0_km", v) for v in (1e-9, 1e-300, 5e-324)],
        ("boyeros_rural", "environment.shadow_margin_db", 99.0),
        ("boyeros_rural", "environment.fade_margin_db", 99.0),
        ("boyeros_rural", "propagation.offset_db", 99.0)])
    def test_budget_below_model_floor_is_invalid_scenario(self, tmp_path, name,
                                                          field, value):
        # in-range values that leave no deployable tier reaching the model's
        # distance floor: one record naming the technology, margins and shortfall
        raw = copy.deepcopy(bundled_yaml("scenarios", name))
        section, key = field.split(".")
        raw[section][key] = value
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(raw))
        for command in (["sweep"], ["plan", "--runs", "1"]):
            code, _, err = self.run_cli(*command, "--scenario", str(path),
                                        "--out", str(tmp_path / "out"))
            assert code == 2, (command, err)
            [line] = err.splitlines()
            error = json.loads(line)["error"]
            assert error["type"] == "invalid_scenario"
            [field_error] = error["fields"]
            assert field_error.startswith("environment: no deployable 802.22b tier")
            assert "shadow margin" in field_error and "dB short of" in field_error

    def test_unreachable_tier_is_printed_and_never_optimal(self, tmp_path):
        # at a 40 dB shadow margin the two lowest 802.22b tiers still reach
        raw = copy.deepcopy(bundled_yaml("scenarios", "ghent_suburban"))
        raw["environment"]["shadow_margin_db"] = 40.0
        path = tmp_path / "part.yaml"
        path.write_text(yaml.safe_dump(raw))
        for command in ("sweep", "coverage"):
            code, _, err = self.run_cli(command, "--scenario", str(path),
                                        "--out", str(tmp_path))
            assert code == 0, err
        sweep = [r.split(",") for r in (tmp_path / "sweep.csv").read_text()
                 .splitlines() if not r.startswith("#")][1:]
        assert [(r[2], r[3], r[5], r[6]) for r in sweep[2:]] == \
            [("0.000000", "inf", "inf", "0")] * 3
        assert [r[6] for r in sweep[:2]] == ["1", "0"]
        coverage = [r.split(",") for r in (tmp_path / "coverage.csv").read_text()
                    .splitlines() if not r.startswith("#")][1:]
        assert [r[2] for r in coverage[2:]] == ["0.000000"] * 5
        assert all(float(r[2]) > 0.05 for r in coverage[:2])

    @pytest.mark.parametrize("sites", [None, {"mode": "lattice", "count": 10}])
    def test_fixed_mcs_reaching_no_distance_fails_before_planning(
            self, tmp_path, monkeypatch, sites):
        # at a 40 dB shadow margin 3/4 64-QAM reaches no distance, though the
        # two lowest tiers do: one record naming the tier, and no run planned
        raw = copy.deepcopy(bundled_yaml("scenarios", "ghent_suburban"))
        raw["environment"]["shadow_margin_db"] = 40.0
        raw["sites"] = sites or raw["sites"]
        path = tmp_path / "fixed.yaml"
        path.write_text(yaml.safe_dump(raw))
        planned = []
        monkeypatch.setattr("tvwsplan.planner._greedy_plan",
                            lambda *args: planned.append(args))
        code, _, err = self.run_cli("plan", "--scenario", str(path), "--mcs",
                                    "3/4 64-QAM", "--out", str(tmp_path / "out"))
        assert (code, planned) == (2, []), err
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "invalid_scenario"
        [field_error] = error["fields"]
        assert field_error.startswith(
            "environment: the fixed 802.22b tier '3/4 64-QAM' does not reach")
        assert "its budget" in field_error and "dB short of" in field_error

    def test_overflowing_outline_stderr_is_one_record(self, tmp_path):
        # in a subprocess, since pytest would capture numpy's warnings in process
        raw = bundled_yaml("scenarios", "ghent_suburban")
        outline = [list(v) for v in raw["region"]["outline_km"]]
        outline[3] = [5.0, 1e308]
        huge_outline = {**raw, "region": {**raw["region"], "outline_km": outline}}
        # a denormal d0 overflows distance / d0; no tier's budget then reaches
        # the model floor
        tiny_d0 = {**raw, "propagation": {**raw["propagation"], "d0_km": 5e-324}}
        # a site's distance to the outline overflows
        huge_site = {**raw, "sites": {"mode": "explicit", "list": [
            {"id": 0, "x_km": 1.7e308, "y_km": -1.7e308}]}}
        for name, edited, code, kind in (
                ("huge", huge_outline, 2, "invalid_scenario"),
                ("huge_site", huge_site, 2, "invalid_scenario"),
                ("tiny_d0", tiny_d0, 2, "invalid_scenario")):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(edited))
            proc = subprocess.run(
                [sys.executable, "-m", "tvwsplan.cli", "sweep", "--scenario",
                 str(path), "--out", str(tmp_path / name)],
                capture_output=True, text=True, env=with_src(os.environ))
            assert proc.returncode == code, (name, proc.stderr)
            [line] = proc.stderr.splitlines()
            assert json.loads(line)["error"]["type"] == kind

    def test_malformed_scenario_file_exits_2(self, tmp_path):
        syntax, encoding = tmp_path / "syntax.yaml", tmp_path / "latin1.yaml"
        syntax.write_text("region: [1\n")
        encoding.write_bytes("name: Bobo-Dioulasso \xe9t\xe9\n".encode("latin-1"))
        for path, kind in ((syntax, "invalid_scenario"), (encoding, "invalid_scenario"),
                           (tmp_path, "missing_file")):
            code, _, err = self.run_cli("sweep", "--scenario", str(path),
                                        "--out", str(tmp_path / "out"))
            assert code == 2, err
            assert json.loads(err)["error"]["type"] == kind

    def test_unknown_technology_error(self, tmp_path):
        code, out, err = self.run_cli("coverage", "--env", "rural",
                                      "--tech", "wimax", "--out", str(tmp_path))
        assert code != 0
        record = json.loads(err)
        assert record["error"]["type"] == "missing_file"

    def test_coverage_provenance_follows_profile_mimo(self, tmp_path):
        for mimo in ("siso", "4x4"):
            out = tmp_path / mimo
            code, _, err = self.run_cli("coverage", "--env", "suburban",
                                        "--tech", "802.22b", "--mimo", mimo,
                                        "--out", str(out))
            assert code == 0, err
            text = (out / "coverage.csv").read_text()
            assert f"# mimo={mimo}\n" in text

    def test_mimo_rejected_for_80222(self, tmp_path):
        code, out, err = self.run_cli("coverage", "--env", "rural",
                                      "--tech", "802.22", "--mimo", "4x4",
                                      "--out", str(tmp_path))
        assert code != 0
        record = json.loads(err)
        assert "MIMO" in record["error"]["message"]

    def test_usage_error_without_scenario_or_env(self):
        code, out, err = self.run_cli("pathloss")
        assert code != 0
        assert json.loads(err)["error"]["type"] == "usage"

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tvwsplan.cli", "pathloss", "--env",
             "suburban", "--out", str(tmp_path)],
            capture_output=True, text=True, env=with_src(os.environ))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pathloss.csv").exists()

    def test_rural_plan_states_no_validity_notes(self, tmp_path):
        # the planning reach of each bundled rural cell is within 20 km, the
        # Hata limit; in a subprocess, so stderr is the command's own
        for mimo in ("siso", "4x4"):
            out = tmp_path / mimo
            proc = subprocess.run(
                [sys.executable, "-m", "tvwsplan.cli", "plan", "--env", "rural",
                 "--mimo", mimo, "--runs", "2", "--out", str(out)],
                capture_output=True, text=True, env=with_src(os.environ))
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            prov = json.loads((out / "report.json").read_text())["provenance"]
            assert "model_warnings" not in prov
            assert "model_warnings" not in (out / "deployment.csv").read_text()

    def test_rural_plan_repeats_in_one_process(self, tmp_path):
        # with no margins the 4x4 802.22b budget reaches 28.73 km, past
        # the Hata limit: both plans state it, and every artifact matches
        raw = copy.deepcopy(bundled_yaml("scenarios", "boyeros_rural"))
        raw["environment"].update(shadow_margin_db=0.0, fade_margin_db=0.0)
        path = tmp_path / "no_margins.yaml"
        path.write_text(yaml.safe_dump(raw))
        for name in ("a", "b"):
            code, _, err = self.run_cli("plan", "--scenario", str(path), "--mimo",
                                        "4x4", "--runs", "2",
                                        "--out", str(tmp_path / name))
            assert code == 0, err
            assert err == ""
        for name in PLAN_ARTIFACTS:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
        prov = json.loads((tmp_path / "b" / "report.json").read_text())
        note = prov["provenance"]["model_warnings"]
        assert note == ("distances up to 28.73 km beyond Hata validity (20.0 km); "
                        "values extrapolated")
        assert f"# model_warnings={note}\n" in (tmp_path / "b" / "runs.csv").read_text()

    @pytest.mark.parametrize("field", ["name", "propagation.calibration_id"])
    def test_line_break_in_a_string_is_invalid_scenario(self, tmp_path, field):
        # it would end a provenance comment line and start a CSV row
        value = "Ghent\nsite_id,x"
        raw = copy.deepcopy(bundled_yaml("scenarios", "ghent_suburban"))
        *section, key = field.split(".")
        (raw[section[0]] if section else raw)[key] = value
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump(raw))
        code, _, err = self.run_cli("plan", "--scenario", str(path), "--runs", "1",
                                    "--out", str(tmp_path / "out"))
        assert code == 2, err
        error = json.loads(err)["error"]
        assert error["type"] == "invalid_scenario"
        assert [f.split(":")[0] for f in error["fields"]] == [field]
        assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc/self/task")
class TestBlasThreads:
    """`import tvwsplan` loads numpy's OpenBLAS with one thread unless the
    caller chose a number, and leaves the environment as it found it."""

    PROBE = ("import os, tvwsplan; print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")

    def probe(self, **env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                              text=True, env=with_src({**base, **env}))
        assert proc.returncode == 0, proc.stderr
        threads, value = proc.stdout.split()
        return int(threads), value

    def test_unset_loads_one_thread_and_stays_unset(self):
        assert self.probe() == (1, "None")

    def test_caller_value_wins(self):
        assert self.probe(OPENBLAS_NUM_THREADS="2")[1] == "2"
