import itertools
import math
from unittest import mock

import numpy as np
import pytest

from tvwsplan import planner
from tvwsplan.link_budget import (EnvironmentMargins, McsEntry,
                                  TechnologyProfile, load_technology,
                                  max_allowable_path_loss_db)
from tvwsplan.planner import (PlannerConfig, _greedy_plan, check_deployment,
                              grow_site_set, plan_single_run, replay_event_log,
                              run_campaign)
from tvwsplan.power_energy import TvwsPowerParams, load_power_params
from tvwsplan.propagation import one_slope, path_loss_db
from tvwsplan.scenario import (CandidateSite, PopulationSpec, Region,
                               Scenario, SitePolicy, UserPopulation,
                               generate_population)

CFG = PlannerConfig(runs=1, base_seed=42)


def manual_population(positions, demands):
    n = len(positions)
    return UserPopulation(ids=np.arange(n, dtype=np.int64),
                          xy_km=np.array(positions, dtype=float),
                          demand_mbps=np.array(demands, dtype=float),
                          seed=0)


def profile_with_capacity(cap_mbps):
    return TechnologyProfile(
        name="testtech", eirp_dbm=20.0, freq_mhz=600.0, bandwidth_mhz=1.0,
        total_subcarriers=64, used_subcarriers=64, sampling_factor=1.0,
        interference_margin_db=0.0, mimo_gain_db=0.0,
        rx_antenna_gain_db=0.0, rx_feeder_loss_db=0.0, rx_noise_figure_db=5.0,
        mcs_table=(McsEntry("1/2 QPSK", 6.0, {1: cap_mbps}),))


class TestGreedyRules:
    def test_one_site_one_user(self, micro_scenario, micro_profile, micro_margins,
                               micro_model, tvws_power):
        pop = manual_population([(1.0, 1.5)], [1.0])
        sites = [CandidateSite(0, 0.8, 1.5, 30.0)]
        out = _greedy_plan(pop, sites, micro_profile, micro_margins, micro_model,
                           tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.active_sites == {0}
        assert out.deployment.assignments == {0: 0}
        assert out.coverage_fraction == 1.0

    def test_lower_path_loss_site_wins(self, micro_profile, micro_margins,
                                       micro_model, tvws_power):
        pop = manual_population([(1.0, 1.5)], [1.0])
        sites = [CandidateSite(0, 0.8, 1.5, 30.0), CandidateSite(1, 2.0, 1.5, 30.0)]
        out = _greedy_plan(pop, sites, micro_profile, micro_margins, micro_model,
                           tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.active_sites == {0}  # 0.2 km beats 1.0 km
        assert out.deployment.assignments[0] == 0

    def test_rebalance_moves_user_to_closer_new_site(self, micro_margins,
                                                     micro_model, tvws_power):
        # capacity 2: user0 -> A; user1 prefers (inactive) B but connects to
        # A; user2 fills B on; the rebalance pass then moves user1 to B
        prof = profile_with_capacity(2.0)
        sites = [CandidateSite(0, 0.8, 1.5, 30.0), CandidateSite(1, 2.6, 1.5, 30.0)]
        pop = manual_population([(0.6, 1.5), (1.8, 1.5), (2.8, 1.5)],
                                [1.0, 1.0, 1.0])
        out = _greedy_plan(pop, sites, prof, micro_margins, micro_model,
                           tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.assignments == {0: 0, 1: 1, 2: 1}
        assert ("switch", 1, 0, 1) in out.event_log

    def test_all_active_scope_moves_user_to_already_active_site(
            self, micro_margins, micro_model, tvws_power):
        # capacity 2, sites A(0) B(1) C(2) on a line.  user0 opens B; user1
        # joins B although the inactive C is closer; user2 finds B full and
        # opens A; user3 opens C.  Both scopes then move user1 from B to C,
        # which frees B; only "all_active" also moves user2 from A to B.
        prof = profile_with_capacity(2.0)
        sites = [CandidateSite(0, 0.0, 1.5, 30.0), CandidateSite(1, 1.0, 1.5, 30.0),
                 CandidateSite(2, 2.0, 1.5, 30.0)]
        pop = manual_population([(1.0, 1.5), (1.6, 1.5), (0.7, 1.5), (2.3, 1.5)],
                                [1.0] * 4)
        outs = {}
        for scope in ("new_site", "all_active"):
            cfg = PlannerConfig(runs=1, base_seed=42, rebalance_scope=scope)
            outs[scope] = _greedy_plan(pop, sites, prof, micro_margins,
                                       micro_model, tvws_power, cfg,
                                       "1/2 QPSK", 0)
        assert outs["new_site"].deployment.assignments == {0: 1, 1: 2, 2: 0, 3: 2}
        assert outs["all_active"].deployment.assignments == {0: 1, 1: 2, 2: 1, 3: 2}
        assert ("switch", 2, 0, 1) in outs["all_active"].event_log
        assert ("switch", 2, 0, 1) not in outs["new_site"].event_log

    def test_uncovered_when_out_of_range(self, micro_profile, micro_margins,
                                         tvws_power):
        far_model = one_slope(145.0, 1.0, 3.5)  # floor above PL_max: no reach
        pop = manual_population([(1.0, 1.5), (3.0, 1.5)], [1.0, 1.0])
        sites = [CandidateSite(0, 0.8, 1.5, 30.0)]
        out = _greedy_plan(pop, sites, micro_profile, micro_margins, far_model,
                           tvws_power, CFG, "1/2 QPSK", 0)
        assert out.coverage_fraction == 0.0
        assert out.deployment.active_sites == set()
        assert out.deployment.uncovered_users == {0, 1}

    def test_empty_site_list_rejected(self, micro_scenario, micro_profile,
                                      micro_margins, micro_model, tvws_power):
        with pytest.raises(ValueError, match="empty"):
            plan_single_run(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, CFG, 42, sites=[])

    def test_capacity_respected(self, micro_profile, micro_margins, micro_model,
                                tvws_power):
        # 5 users of 1.0 against a single 3.2 Mbps site: 3 served, 2 uncovered
        pop = manual_population([(1.0, 1.5)] * 5, [1.0] * 5)
        sites = [CandidateSite(0, 0.8, 1.5, 30.0)]
        out = _greedy_plan(pop, sites, micro_profile, micro_margins, micro_model,
                           tvws_power, CFG, "1/2 QPSK", 0)
        assert len(out.deployment.assignments) == 3
        assert len(out.deployment.uncovered_users) == 2
        assert out.deployment.per_site_served_mbps[0] <= 3.2 + 1e-9


class TestBruteForceOracle:
    """Exhaustive subset + assignment search on the 3-site/12-user fixture."""

    @staticmethod
    def oracle(pop, sites, pl_max, pl, capacity):
        n_users = len(pop)
        best = (-1, len(sites) + 1)  # (covered, active)
        for r in range(1, len(sites) + 1):
            for subset in itertools.combinations(range(len(sites)), r):
                caps = {j: capacity for j in subset}
                order = list(range(n_users))
                best_here = [-1]

                def rec(k, covered):
                    if covered + (n_users - k) <= best_here[0]:
                        return
                    if k == n_users:
                        best_here[0] = max(best_here[0], covered)
                        return
                    u = order[k]
                    for j in subset:
                        if pl[u, j] <= pl_max and caps[j] >= pop.demand_mbps[u] - 1e-9:
                            caps[j] -= pop.demand_mbps[u]
                            rec(k + 1, covered + 1)
                            caps[j] += pop.demand_mbps[u]
                    rec(k + 1, covered)

                rec(0, 0)
                cand = (best_here[0], r)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
        return best  # (max covered users, min active sites achieving it)

    def test_greedy_matches_oracle_on_micro_fixture(
            self, micro_scenario, micro_profile, micro_margins, micro_model,
            micro_sites, tvws_power):
        pop = generate_population(micro_scenario.region,
                                  micro_scenario.population, 42)
        assert len(pop) == 12
        pl_max = max_allowable_path_loss_db(micro_profile, micro_margins,
                                            micro_profile.mcs_table[0])
        pl = np.array([[path_loss_db(micro_model,
                                     max(math.hypot(x - s.x_km, y - s.y_km),
                                         micro_model.min_distance_km))
                        for s in micro_sites] for x, y in pop.xy_km])
        capacity = micro_profile.mcs_table[0].bitrate_at(1.0)
        opt_covered, opt_active = self.oracle(pop, micro_sites, pl_max, pl,
                                              capacity)
        out = plan_single_run(micro_scenario, micro_profile, micro_margins,
                              micro_model, tvws_power, CFG, 42,
                              sites=micro_sites)
        greedy_covered = len(out.deployment.assignments)
        greedy_active = len(out.deployment.active_sites)
        # recorded optimality gap: none on this fixture
        assert greedy_covered == opt_covered
        assert greedy_active == opt_active

    def test_event_log_replays_exactly(self, micro_scenario, micro_profile,
                                       micro_margins, micro_model, micro_sites,
                                       tvws_power):
        out = plan_single_run(micro_scenario, micro_profile, micro_margins,
                              micro_model, tvws_power, CFG, 42, sites=micro_sites)
        assert replay_event_log(out, micro_scenario, micro_profile, micro_margins,
                                micro_model, tvws_power, CFG, micro_sites)


class TestFeasibilityChecker:
    def test_all_runs_pass_checker(self, micro_scenario, micro_profile,
                                   micro_margins, micro_model, micro_sites,
                                   tvws_power):
        cfg = PlannerConfig(runs=8, base_seed=100)
        camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, cfg, sites=micro_sites)
        for out in camp.outcomes:
            assert check_deployment(out, micro_scenario, micro_profile,
                                    micro_margins, micro_model, cfg,
                                    micro_sites) == []

    def test_checker_catches_tampering(self, micro_scenario, micro_profile,
                                       micro_margins, micro_model, micro_sites,
                                       tvws_power):
        out = plan_single_run(micro_scenario, micro_profile, micro_margins,
                              micro_model, tvws_power, CFG, 42, sites=micro_sites)
        out.deployment.per_site_served_mbps[
            next(iter(out.deployment.active_sites))] += 5.0
        problems = check_deployment(out, micro_scenario, micro_profile,
                                    micro_margins, micro_model, CFG, micro_sites)
        assert problems

    def test_all_active_scope_passes_checker_and_replays(
            self, micro_scenario, micro_profile, micro_margins, micro_model,
            micro_sites, tvws_power):
        cfg = PlannerConfig(runs=8, base_seed=100, rebalance_scope="all_active")
        camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, cfg, sites=micro_sites)
        for out in camp.outcomes:
            assert check_deployment(out, micro_scenario, micro_profile,
                                    micro_margins, micro_model, cfg,
                                    micro_sites) == []
            assert replay_event_log(out, micro_scenario, micro_profile,
                                    micro_margins, micro_model, tvws_power,
                                    cfg, micro_sites)

    def test_adaptive_mode_airtime_bounded(self, tvws_power):
        sc = _lattice_scenario()
        prof = load_technology("802.22b", "suburban")
        cfg = PlannerConfig(mcs_mode="adaptive", runs=3, base_seed=7)
        sites = sc.lattice_sites(6)
        camp = run_campaign(sc, prof, sc.margins, sc.model, tvws_power, cfg,
                            sites=sites)
        for out in camp.outcomes:
            assert check_deployment(out, sc, prof, sc.margins, sc.model, cfg,
                                    sites) == []


def _lattice_scenario():
    from tvwsplan.scenario import bundled_scenario
    return bundled_scenario("ghent_suburban")


class TestDeterminism:
    def test_identical_runs_bitwise(self, micro_scenario, micro_profile,
                                    micro_margins, micro_model, micro_sites,
                                    tvws_power):
        a = plan_single_run(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, CFG, 42, sites=micro_sites)
        b = plan_single_run(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, CFG, 42, sites=micro_sites)
        assert a.event_log == b.event_log
        assert a.deployment.assignments == b.deployment.assignments
        assert a.total_power_w == b.total_power_w

    def test_worker_count_does_not_change_results(self, micro_scenario,
                                                  micro_profile, micro_margins,
                                                  micro_model, micro_sites,
                                                  tvws_power):
        serial = run_campaign(micro_scenario, micro_profile, micro_margins,
                              micro_model, tvws_power,
                              PlannerConfig(runs=6, base_seed=11, workers=1),
                              sites=micro_sites)
        parallel = run_campaign(micro_scenario, micro_profile, micro_margins,
                                micro_model, tvws_power,
                                PlannerConfig(runs=6, base_seed=11, workers=2),
                                sites=micro_sites)
        assert [o.event_log for o in serial.outcomes] == \
            [o.event_log for o in parallel.outcomes]
        assert serial.mean_coverage == parallel.mean_coverage
        assert serial.progressive_coverage == parallel.progressive_coverage


class TestCampaign:
    def test_single_run_campaign_equals_plan(self, micro_scenario, micro_profile,
                                             micro_margins, micro_model,
                                             micro_sites, tvws_power):
        cfg = PlannerConfig(runs=1, base_seed=42)
        camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, cfg, sites=micro_sites)
        single = plan_single_run(micro_scenario, micro_profile, micro_margins,
                                 micro_model, tvws_power, cfg, 42,
                                 sites=micro_sites)
        assert camp.outcomes[0].event_log == single.event_log
        assert camp.mean_coverage == single.coverage_fraction
        assert camp.progressive_coverage == [single.coverage_fraction]

    def test_progressive_average_is_running_mean(self, micro_scenario,
                                                 micro_profile, micro_margins,
                                                 micro_model, micro_sites,
                                                 tvws_power):
        cfg = PlannerConfig(runs=10, base_seed=5)
        camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, cfg, sites=micro_sites)
        cov = [o.coverage_fraction for o in camp.outcomes]
        for t in range(1, 11):
            assert camp.progressive_coverage[t - 1] == pytest.approx(
                sum(cov[:t]) / t, abs=1e-12)

    def test_seeds_are_base_plus_index(self, micro_scenario, micro_profile,
                                       micro_margins, micro_model, micro_sites,
                                       tvws_power):
        cfg = PlannerConfig(runs=4, base_seed=1000)
        camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, cfg, sites=micro_sites)
        assert [o.seed for o in camp.outcomes] == [1000, 1001, 1002, 1003]

    def test_planning_mcs_swept_once_per_campaign(self, micro_scenario,
                                                   micro_profile, micro_margins,
                                                   micro_model, micro_sites,
                                                   tvws_power):
        cfg = PlannerConfig(runs=6, base_seed=1000)
        with mock.patch.object(planner, "sweep_mcs",
                               wraps=planner.sweep_mcs) as sweep:
            camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                                micro_model, tvws_power, cfg, sites=micro_sites)
        assert sweep.call_count == 1
        for o in camp.outcomes:  # same runs as one plan_single_run per seed
            single = plan_single_run(micro_scenario, micro_profile, micro_margins,
                                     micro_model, tvws_power, cfg, o.seed,
                                     sites=micro_sites)
            assert single.event_log == o.event_log

    def test_monotone_coverage_in_candidate_set(self, micro_scenario,
                                                micro_profile, micro_margins,
                                                micro_model, micro_sites,
                                                tvws_power):
        def mean_cov(sites):
            total = 0.0
            for seed in range(5):
                out = plan_single_run(micro_scenario, micro_profile,
                                      micro_margins, micro_model, tvws_power,
                                      PlannerConfig(runs=1, base_seed=0), seed,
                                      sites=sites)
                total += out.coverage_fraction
            return total / 5
        assert mean_cov(micro_sites[:2]) <= mean_cov(micro_sites) + 1e-9


class TestGrowth:
    def _grow_scenario(self, max_sites=60, target=0.95, user_count=30):
        region = Region(outline=((0.0, 0.0), (6.0, 0.0), (6.0, 4.0), (0.0, 4.0)),
                        area_km2=24.0, resolution_m=500.0)
        return Scenario(
            name="grow", environment="suburban", region=region,
            population=PopulationSpec(user_count=user_count, data_fraction=1.0),
            margins=EnvironmentMargins(2.0, 1.0),
            model=one_slope(108.0, 1.0, 3.5),
            technology="testtech",
            site_policy=SitePolicy(mode="auto_grow", jitter_fraction=0.1,
                                   seed=3, antenna_height_m=30.0,
                                   target_coverage=target, pilot_runs=5,
                                   max_sites=max_sites),
            base_seed=500)

    def test_target_already_met_keeps_lower_bound(self, micro_profile, tvws_power):
        sc = self._grow_scenario(target=0.10)
        cfg = PlannerConfig(runs=5, base_seed=500)
        sites, history = grow_site_set(sc, micro_profile, sc.margins, sc.model,
                                       tvws_power, cfg)
        assert len(history) == 1
        assert len(sites) == history[0][0]

    def test_growth_reaches_target(self, micro_profile, tvws_power):
        sc = self._grow_scenario(target=0.95)
        cfg = PlannerConfig(runs=5, base_seed=500)
        sites, history = grow_site_set(sc, micro_profile, sc.margins, sc.model,
                                       tvws_power, cfg)
        assert history[-1][1] > 0.95
        assert len(sites) == history[-1][0]

    def test_growth_pilots_keep_user_shuffle(self, micro_profile, tvws_power):
        sc = self._grow_scenario(target=0.95)
        cfg = PlannerConfig(runs=5, base_seed=500, shuffle_user_order=True)
        _, history = grow_site_set(sc, micro_profile, sc.margins, sc.model,
                                   tvws_power, cfg)
        pilot = PlannerConfig(runs=sc.site_policy.pilot_runs, base_seed=500,
                              shuffle_user_order=True)
        by_hand = [(n, run_campaign(sc, micro_profile, sc.margins, sc.model,
                                    tvws_power, pilot,
                                    sites=sc.lattice_sites(n)).mean_coverage)
                   for n, _ in history]
        assert history == by_hand

    def test_growth_cap_raises_with_best_coverage(self, micro_profile, tvws_power):
        sc = self._grow_scenario(max_sites=2, target=0.999, user_count=40)
        cfg = PlannerConfig(runs=5, base_seed=500)
        with pytest.raises(RuntimeError, match="best mean coverage"):
            grow_site_set(sc, micro_profile, sc.margins, sc.model,
                          tvws_power, cfg)


class TestAnalyticLowerBound:
    def test_active_count_at_least_sizing_bound_when_target_met(self):
        # any run meeting the coverage target must deploy at least the
        # analytic minimum for the planning MCS
        from tvwsplan.scenario import bundled_scenario
        from tvwsplan.sizing import sweep_mcs
        sc = bundled_scenario("ghent_suburban")
        prof = load_technology("802.22b", "suburban")
        model = sc.model_for(prof)
        pw = load_power_params("tvws")
        cfg = PlannerConfig(runs=8, base_seed=sc.base_seed)
        rows = sweep_mcs(prof, sc.margins, model, sc.region.area_km2,
                         sc.population.expected_demand_mbps)
        n_min = next(r.n_bs_min for r in rows if r.is_optimal)
        camp = run_campaign(sc, prof, sc.margins, model, pw, cfg,
                            sites=sc.lattice_sites(20))
        for out in camp.outcomes:
            if out.coverage_fraction >= sc.site_policy.target_coverage:
                assert len(out.deployment.active_sites) >= n_min


class TestUserOrderShuffle:
    def test_shuffled_order_stays_feasible(self, micro_scenario, micro_profile,
                                           micro_margins, micro_model,
                                           micro_sites, tvws_power):
        cfg = PlannerConfig(runs=1, base_seed=42, shuffle_user_order=True)
        out = plan_single_run(micro_scenario, micro_profile, micro_margins,
                              micro_model, tvws_power, cfg, 42, sites=micro_sites)
        assert check_deployment(out, micro_scenario, micro_profile,
                                micro_margins, micro_model, cfg,
                                micro_sites) == []
        # the shuffled run is itself deterministic for a given seed
        again = plan_single_run(micro_scenario, micro_profile, micro_margins,
                                micro_model, tvws_power, cfg, 42,
                                sites=micro_sites)
        assert out.event_log == again.event_log


class TestBundledCampaignLevels:
    def test_suburban_22b_twenty_sites_covers_96_percent(self):
        from tvwsplan.scenario import bundled_scenario
        sc = bundled_scenario("ghent_suburban")
        prof = load_technology("802.22b", "suburban")
        pw = load_power_params("tvws")
        cfg = PlannerConfig(runs=40, base_seed=sc.base_seed)
        camp = run_campaign(sc, prof, sc.margins, sc.model_for(prof), pw, cfg,
                            sites=sc.lattice_sites(20))
        assert camp.mean_coverage > 0.96
        assert camp.std_coverage / math.sqrt(cfg.runs) < 0.005

    def test_rural_22b_ten_sites_covers_99_percent(self):
        from tvwsplan.scenario import bundled_scenario
        sc = bundled_scenario("boyeros_rural")
        prof = load_technology("802.22b", "rural")
        pw = load_power_params("tvws")
        cfg = PlannerConfig(runs=40, base_seed=sc.base_seed)
        camp = run_campaign(sc, prof, sc.margins, sc.model_for(prof), pw, cfg,
                            sites=sc.lattice_sites(10))
        assert camp.mean_coverage > 0.99


class TestMimoVariant:
    def test_mimo_reduces_active_sites_suburban(self):
        from tvwsplan.scenario import bundled_scenario
        sc = bundled_scenario("ghent_suburban")
        pw = load_power_params("tvws")
        results = {}
        for mimo in (False, True):
            prof = load_technology("802.22b", "suburban", mimo=mimo)
            cfg = PlannerConfig(runs=8, base_seed=sc.base_seed, mimo=mimo)
            sites, _ = grow_site_set(sc, prof, sc.margins, sc.model_for(prof),
                                     pw, cfg)
            camp = run_campaign(sc, prof, sc.margins, sc.model_for(prof), pw,
                                cfg, sites=sites)
            results[mimo] = camp.mean_active_sites
        assert results[True] < results[False]
