import pytest

from tvwsplan.link_budget import EnvironmentMargins, McsEntry, TechnologyProfile
from tvwsplan.power_energy import load_power_params
from tvwsplan.propagation import one_slope
from tvwsplan.scenario import (PopulationSpec, Region, Scenario, SitePolicy,
                               CandidateSite)


@pytest.fixture(scope="session")
def micro_region():
    # 4 x 3 km rectangle, area 12 km^2
    return Region(outline=((0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)),
                  area_km2=12.0, resolution_m=500.0)


@pytest.fixture(scope="session")
def micro_profile():
    # single-MCS synthetic technology: capacity 3.2 Mbps per station
    return TechnologyProfile(
        name="testtech", eirp_dbm=20.0, freq_mhz=600.0, bandwidth_mhz=1.0,
        total_subcarriers=64, used_subcarriers=64, sampling_factor=1.0,
        interference_margin_db=0.0, mimo_gain_db=0.0,
        rx_antenna_gain_db=0.0, rx_feeder_loss_db=0.0, rx_noise_figure_db=5.0,
        mcs_table=(McsEntry("1/2 QPSK", 6.0, {1: 3.2}),))


@pytest.fixture(scope="session")
def micro_margins():
    return EnvironmentMargins(shadow_margin_db=2.0, fade_margin_db=1.0)


@pytest.fixture(scope="session")
def micro_model():
    # PL_max for the synthetic budget is 20 - (-174+60+5+6) - 3 = 120 dB;
    # pl0 108 dB / n 3.5 puts the range at 10^(12/35) ~ 2.2 km
    return one_slope(pl0_db=108.0, d0_km=1.0, exponent=3.5)


@pytest.fixture(scope="session")
def micro_sites():
    return [CandidateSite(0, 0.8, 1.5, 30.0),
            CandidateSite(1, 2.0, 1.5, 30.0),
            CandidateSite(2, 3.2, 1.5, 30.0)]


@pytest.fixture(scope="session")
def micro_scenario(micro_region, micro_sites):
    return Scenario(
        name="micro", environment="suburban", region=micro_region,
        population=PopulationSpec(user_count=12, data_fraction=1.0,
                                  data_bitrate_mbps=1.0,
                                  voice_bitrate_mbps=0.064),
        margins=EnvironmentMargins(2.0, 1.0),
        model=one_slope(108.0, 1.0, 3.5),
        technology="testtech",
        site_policy=SitePolicy(mode="explicit", sites=tuple(micro_sites)),
        base_seed=42)


@pytest.fixture(scope="session")
def tvws_power():
    return load_power_params("tvws")
