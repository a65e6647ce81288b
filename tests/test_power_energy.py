import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tvwsplan.power_energy import (BsPowerInput, MacroPowerParams, RunEnergy,
                                   TvwsPowerParams, load_power_params,
                                   macro_bs_power_w,
                                   network_energy_efficiency, tvws_bs_power_w)

DEFAULTS = load_power_params("tvws")


class TestTvwsPower:
    def test_single_tx_full_load_is_64w(self):
        p = tvws_bs_power_w(DEFAULTS, BsPowerInput(1, 1, 4.0, 1.0))
        assert p == pytest.approx(63.978, abs=0.01)
        assert abs(p - 64.0) < 0.1

    def test_idle_draw_is_backhaul_plus_idle(self):
        p = tvws_bs_power_w(DEFAULTS, BsPowerInput(1, 1, 0.0, 0.0))
        assert p == pytest.approx(38.0, abs=1e-12)

    def test_four_transmitters_direct_evaluation(self):
        # 32 + 6 + 4*(4/0.182 + 4) = 141.91 W
        p = tvws_bs_power_w(DEFAULTS, BsPowerInput(1, 4, 4.0, 1.0))
        expected = 32.0 + 6.0 + 4.0 * (4.0 / 0.182 + 4.0)
        assert p == pytest.approx(expected, abs=1e-9)
        assert p == pytest.approx(141.912, abs=0.01)

    def test_idle_independent_of_tx_configuration(self):
        for n_st in (1, 2, 3):
            for n_tx in (1, 2, 4):
                assert tvws_bs_power_w(
                    DEFAULTS, BsPowerInput(n_st, n_tx, 7.5, 0.0)) == pytest.approx(38.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.floats(0.0, 20.0), st.floats(0.01, 0.99))
    def test_affine_slopes_by_finite_difference(self, n_st, n_tx, p_r, alpha):
        def f(pr, a):
            return tvws_bs_power_w(DEFAULTS, BsPowerInput(n_st, n_tx, pr, a))
        # slope in radiated power: n_st*n_tx*alpha/eta
        d_pr = (f(p_r + 1.0, alpha) - f(p_r, alpha))
        assert d_pr == pytest.approx(n_st * n_tx * alpha / 0.182, rel=1e-9)
        # slope in load factor: n_st*n_tx*(p_r/eta + p_poe)
        d_a = (f(p_r, min(alpha + 0.01, 1.0)) - f(p_r, alpha)) / (min(alpha + 0.01, 1.0) - alpha)
        assert d_a == pytest.approx(n_st * n_tx * (p_r / 0.182 + 4.0), rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(TypeError):  # the values live in data/power/tvws.yaml
            TvwsPowerParams()
        with pytest.raises(ValueError):
            replace(DEFAULTS, ru_efficiency=0.0)
        with pytest.raises(ValueError):
            replace(DEFAULTS, p_idle_w=-1.0)
        with pytest.raises(ValueError):
            BsPowerInput(0, 1, 4.0, 1.0)
        with pytest.raises(ValueError):
            BsPowerInput(1, 1, 4.0, 1.5)


class TestMacroPower:
    def test_calibrated_station_draw(self):
        params = load_power_params("macro")
        p = macro_bs_power_w(params, BsPowerInput(1, 1, 4.0, 1.0))
        assert p == pytest.approx(382.5, abs=0.5)
        assert 36 * p == pytest.approx(13769.0, abs=20.0)

    def test_pa_share_below_ten_percent(self):
        params = load_power_params("macro")
        total = macro_bs_power_w(params, BsPowerInput(1, 1, 4.0, 1.0))
        assert (4.0 / params.amp_efficiency) / total < 0.10

    def test_no_radiated_power_leaves_fixed_plus_overhead(self):
        params = MacroPowerParams(300.0, 0.12, 50.0)
        p = macro_bs_power_w(params, BsPowerInput(1, 1, 0.0, 1.0))
        assert p == pytest.approx(350.0, abs=1e-12)

    def test_per_tx_block_scales_linearly(self):
        params = load_power_params("macro")
        one = macro_bs_power_w(params, BsPowerInput(1, 1, 4.0, 1.0))
        four = macro_bs_power_w(params, BsPowerInput(1, 4, 4.0, 1.0))
        per_tx = one - params.p_fixed_w
        assert four - params.p_fixed_w == pytest.approx(4 * per_tx, rel=1e-12)

    def test_network_power_ratio_tvws_vs_lte(self):
        # 20 TVWS stations vs 36 macro stations at full load: the macro
        # network draws an order of magnitude more
        tvws = 20 * tvws_bs_power_w(DEFAULTS, BsPowerInput(1, 1, 4.0, 1.0))
        lte = 36 * macro_bs_power_w(load_power_params("macro"),
                                    BsPowerInput(1, 1, 4.0, 1.0))
        assert lte / tvws > 9.0
        assert tvws == pytest.approx(1279.6, abs=1.0)
        assert lte == pytest.approx(13769.0, abs=20.0)


def runs(*vals):
    return [RunEnergy(coverage_fraction=c, served_mbps=tuple(b), power_w=tuple(p))
            for c, b, p in vals]


class TestNetworkEnergyEfficiency:
    def test_direct_substitution(self):
        r = runs((1.0, [10.0], [100.0]))
        assert network_energy_efficiency(r, 1.0) == pytest.approx(0.1, abs=1e-12)

    def test_power_doubling_halves_efficiency(self):
        base = runs((0.9, [5.0, 7.0], [60.0, 70.0]))
        double = runs((0.9, [5.0, 7.0], [120.0, 140.0]))
        assert network_energy_efficiency(double, 50.0) == pytest.approx(
            network_energy_efficiency(base, 50.0) / 2.0, rel=1e-12)

    def test_identical_runs_average_to_single_run(self):
        one = runs((0.97, [12.0, 9.0], [64.0, 64.0]))
        two = one + one
        assert network_energy_efficiency(two, 68.0) == pytest.approx(
            network_energy_efficiency(one, 68.0), rel=1e-12)

    def test_permutation_invariance(self):
        a = runs((0.9, [5.0], [50.0]), (0.8, [9.0], [70.0]), (1.0, [3.0], [40.0]))
        b = [a[2], a[0], a[1]]
        assert network_energy_efficiency(a, 10.0) == pytest.approx(
            network_energy_efficiency(b, 10.0), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0))
    def test_linear_in_area(self, scale):
        r = runs((0.95, [8.0, 6.0], [64.0, 64.0]))
        assert network_energy_efficiency(r, 68.0 * scale) == pytest.approx(
            network_energy_efficiency(r, 68.0) * scale, rel=1e-9)

    def test_literal_user_count_mode(self):
        r = runs((1.0, [10.0], [100.0]))
        assert network_energy_efficiency(r, 1.0, user_count=224,
                                         include_user_count=True) == pytest.approx(
            22.4, abs=1e-9)
        with pytest.raises(ValueError):
            network_energy_efficiency(r, 1.0, include_user_count=True)

    def test_zero_power_run_rejected(self):
        r = runs((1.0, [10.0], []))
        with pytest.raises(ValueError, match="zero total power"):
            network_energy_efficiency(r, 1.0)

    def test_empty_run_list_rejected(self):
        with pytest.raises(ValueError):
            network_energy_efficiency([], 1.0)


class TestBundledParams:
    def test_tvws_catalogue_values(self):
        p = load_power_params("tvws")
        assert (p.p_backhaul_w, p.p_poe_w, p.p_idle_w) == (32.0, 4.0, 6.0)
        assert p.ru_efficiency == pytest.approx(0.182)

    def test_unknown_kind_rejected(self):
        with pytest.raises((FileNotFoundError, ValueError)):
            load_power_params("fusion")
