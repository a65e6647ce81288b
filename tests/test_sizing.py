import math

import pytest
from hypothesis import given, settings, strategies as st

from tvwsplan.link_budget import (EnvironmentMargins, McsEntry,
                                  TechnologyProfile, load_technology)
from tvwsplan.propagation import one_slope, path_loss_db
from tvwsplan.scenario import ScenarioError, bundled_scenario
from tvwsplan.sizing import min_bs_for_area, min_bs_for_load, sweep_mcs

SCENARIOS = {"suburban": "ghent_suburban", "rural": "boyeros_rural"}
CELLS = [(env, tech) for env in SCENARIOS
         for tech in ("802.22", "802.22b", "802.11af", "lte")]


def bundled_sweep(env, tech):
    """`sweep_mcs` over the bundled study of `env`, at the technology's carrier."""
    sc = bundled_scenario(SCENARIOS[env])
    profile = load_technology(tech, env)
    return sweep_mcs(profile, sc.margins, sc.model_for(profile), sc.region.area_km2,
                     sc.population.expected_demand_mbps)


class TestAreaBound:
    def test_rural_bound_at_max_range(self):
        # 169 km^2 with a 17.6 km range radius: a single station suffices
        assert min_bs_for_area(169.0, 17.6) == 1
        assert 169.0 / (math.pi * 17.6 ** 2) == pytest.approx(0.1737, abs=1e-4)

    def test_exact_disc(self):
        assert min_bs_for_area(math.pi, 1.0) == 1

    def test_ceil_boundary(self):
        assert min_bs_for_area(math.pi + 1e-9, 1.0) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_bs_for_area(0.0, 1.0)
        with pytest.raises(ValueError):
            min_bs_for_area(10.0, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 500.0), st.floats(0.1, 20.0), st.floats(1.01, 3.0))
    def test_non_increasing_in_range(self, area, rng, factor):
        assert min_bs_for_area(area, rng * factor) <= min_bs_for_area(area, rng)


class TestLoadBound:
    def test_suburban_load_bound(self):
        # realised 204 data / 20 voice population sums to 205.28 Mbps;
        # a 24.1 Mbps station bitrate needs ceil(8.52) = 9 stations
        assert min_bs_for_load(205.28, 24.1) == 9

    def test_demand_equal_capacity(self):
        assert min_bs_for_load(24.1, 24.1) == 1

    def test_tiny_demand_still_needs_one(self):
        assert min_bs_for_load(1e-4, 50.0) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 500.0), st.floats(1.0, 50.0), st.floats(1.01, 3.0))
    def test_non_increasing_in_bitrate(self, demand, rate, factor):
        assert min_bs_for_load(demand, rate * factor) <= min_bs_for_load(demand, rate)


class TestSweep:
    @pytest.mark.parametrize("env,tech", CELLS)
    def test_tradeoff_monotonicity_along_sweep(self, env, tech):
        rows = bundled_sweep(env, tech)
        n_area = [r.n_bs_area for r in rows]
        n_load = [r.n_bs_load for r in rows]
        assert n_area == sorted(n_area)                # coverage cost rises
        assert n_load == sorted(n_load, reverse=True)  # capacity cost falls
        for r in rows:
            assert r.n_bs_min == max(r.n_bs_area, r.n_bs_load)

    def test_sweep_skips_non_deployable_tiers(self):
        rows = bundled_sweep("rural", "802.22b")
        labels = {r.mcs_label for r in rows}
        assert "2/3 256-QAM" not in labels and "7/8 256-QAM" not in labels
        assert len(rows) == 5

    def test_single_mcs_trivially_optimal(self):
        p = TechnologyProfile(
            name="mono", eirp_dbm=30.0, freq_mhz=600.0, bandwidth_mhz=1.0,
            total_subcarriers=64, used_subcarriers=64, sampling_factor=1.0,
            interference_margin_db=0.0, mimo_gain_db=0.0,
            rx_antenna_gain_db=0.0, rx_feeder_loss_db=0.0,
            rx_noise_figure_db=5.0,
            mcs_table=(McsEntry("1/2 QPSK", 6.0, {1: 3.0}),))
        rows = sweep_mcs(p, EnvironmentMargins(2, 1), one_slope(100.0, 1.0, 3.0),
                         30.0, 10.0)
        assert len(rows) == 1 and rows[0].is_optimal

    def test_tie_breaks_toward_larger_range(self):
        # two tiers engineered to the same n_bs_min: the wider range wins
        p = TechnologyProfile(
            name="tie", eirp_dbm=30.0, freq_mhz=600.0, bandwidth_mhz=1.0,
            total_subcarriers=64, used_subcarriers=64, sampling_factor=1.0,
            interference_margin_db=0.0, mimo_gain_db=0.0,
            rx_antenna_gain_db=0.0, rx_feeder_loss_db=0.0,
            rx_noise_figure_db=5.0,
            mcs_table=(McsEntry("low", 6.0, {1: 5.0}),
                       McsEntry("high", 12.0, {1: 10.0})))
        rows = sweep_mcs(p, EnvironmentMargins(2, 1), one_slope(100.0, 1.0, 3.0),
                         1.0, 10.0)
        # n_bs_area = 1 for both (small area); n_bs_load = 2 vs 1 -> no tie;
        # shrink demand so both load bounds hit 1 and both area bounds hit 1
        rows = sweep_mcs(p, EnvironmentMargins(2, 1), one_slope(100.0, 1.0, 3.0),
                         1.0, 4.0)
        assert [r.n_bs_min for r in rows] == [1, 1]
        assert rows[0].is_optimal and not rows[1].is_optimal
        assert rows[0].range_km > rows[1].range_km

    def test_tier_below_the_model_floor_is_unreachable(self):
        # budgets 133 and 127 dB less the margins; the loss at the 50 m floor
        # of one_slope(100, 1, 3) is 60.97 dB
        p = TechnologyProfile(
            name="tie", eirp_dbm=30.0, freq_mhz=600.0, bandwidth_mhz=1.0,
            total_subcarriers=64, used_subcarriers=64, sampling_factor=1.0,
            interference_margin_db=0.0, mimo_gain_db=0.0,
            rx_antenna_gain_db=0.0, rx_feeder_loss_db=0.0,
            rx_noise_figure_db=5.0,
            mcs_table=(McsEntry("low", 6.0, {1: 5.0}),
                       McsEntry("high", 12.0, {1: 10.0})))
        model = one_slope(100.0, 1.0, 3.0)
        low, high = sweep_mcs(p, EnvironmentMargins(67, 1), model, 1.0, 40.0)
        # "high" would need fewer stations for the load, but reaches nothing
        assert (high.range_km, high.n_bs_area, high.n_bs_min, high.n_bs_load) == \
            (0.0, math.inf, math.inf, 4)
        assert low.range_km > 0.05 and low.is_optimal and not high.is_optimal
        with pytest.raises(ScenarioError) as err:
            sweep_mcs(p, EnvironmentMargins(75, 1), model, 1.0, 40.0)
        floor = path_loss_db(model, 0.05)
        assert err.value.errors == [
            "environment: no deployable tie tier reaches the model's 0.05 km "
            "floor: with shadow margin 75 dB and fade margin 1 dB, its largest "
            f"budget 57.00 dB is {floor - 57:.2f} dB short of the {floor:.2f} dB "
            "loss there"]

    def test_rural_22b_ties_resolve_to_wider_range(self):
        by_label = {r.mcs_label: r for r in bundled_sweep("rural", "802.22b")}
        assert by_label["2/3 64-QAM"].n_bs_min == by_label["3/4 64-QAM"].n_bs_min
        assert by_label["2/3 64-QAM"].is_optimal
