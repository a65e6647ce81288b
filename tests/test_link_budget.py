import csv
import math
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tvwsplan import link_budget
from tvwsplan.link_budget import (EnvironmentMargins, McsEntry,
                                  TechnologyProfile,
                                  coverage_curve, load_technology,
                                  max_allowable_path_loss_db,
                                  occupied_bandwidth_hz)
from tvwsplan.propagation import one_slope
from tvwsplan.scenario import bundled_scenario

WORKSHEET = Path(__file__).resolve().parent.parent / "docs" / "link_budget_worksheet.csv"

STUDIES = {"suburban": bundled_scenario("ghent_suburban"),
           "rural": bundled_scenario("boyeros_rural")}


def synthetic_profile(**overrides):
    base = dict(name="synthetic", eirp_dbm=0.0, freq_mhz=600.0,
                bandwidth_mhz=1.0, total_subcarriers=64, used_subcarriers=64,
                sampling_factor=1.0, interference_margin_db=0.0,
                mimo_gain_db=0.0, rx_antenna_gain_db=0.0,
                rx_feeder_loss_db=0.0, rx_noise_figure_db=0.0,
                mcs_table=(McsEntry("1/2 QPSK", 0.0, {1: 1.0}),))
    base.update(overrides)
    return TechnologyProfile(**base)


class TestOccupiedBandwidth:
    def test_80222_at_8mhz(self):
        p = load_technology("802.22", "suburban")
        assert occupied_bandwidth_hz(p) == pytest.approx(8e6 * 1.142 / 2048 * 1680)
        assert occupied_bandwidth_hz(p) == pytest.approx(7.494375e6)

    def test_lte_at_10mhz_near_nominal_occupancy(self):
        p = load_technology("lte", "suburban")
        assert occupied_bandwidth_hz(p) == pytest.approx(9.015e6)

    def test_full_occupancy_equals_sampling_rate(self):
        p = synthetic_profile(bandwidth_mhz=5.0, sampling_factor=1.25,
                              total_subcarriers=128, used_subcarriers=128)
        assert occupied_bandwidth_hz(p) == pytest.approx(5e6 * 1.25)

    def test_zero_subcarriers_rejected(self):
        with pytest.raises(ValueError):
            synthetic_profile(total_subcarriers=0)


class TestMaxAllowablePathLoss:
    def test_zero_margin_synthetic_budget(self):
        # 1 MHz occupied, all other lines zero: sensitivity -114 dBm
        p = synthetic_profile()
        m = EnvironmentMargins(0.0, 0.0)
        assert max_allowable_path_loss_db(p, m, p.mcs_table[0]) == pytest.approx(
            114.0, abs=1e-9)

    def test_against_worksheet_oracle(self):
        # docs/link_budget_worksheet.csv is generated by straight-line
        # arithmetic independent of this library
        with open(WORKSHEET) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 44
        for row in rows:
            profile = load_technology(row["technology"], row["environment"])
            margins = STUDIES[row["environment"]].margins
            mcs = profile.mcs(row["mcs"])
            got = max_allowable_path_loss_db(profile, margins, mcs)
            assert got == pytest.approx(float(row["pl_max_db"]), abs=0.01), row

    def test_mimo_gain_adds_exactly_12db(self):
        siso = load_technology("802.22b", "suburban", mimo=False)
        mimo = load_technology("802.22b", "suburban", mimo=True)
        margins = STUDIES["suburban"].margins
        for m_s, m_m in zip(siso.mcs_table, mimo.mcs_table):
            assert (max_allowable_path_loss_db(mimo, margins, m_m)
                    - max_allowable_path_loss_db(siso, margins, m_s)
                    ) == pytest.approx(12.0, abs=1e-12)

    def test_foreign_mcs_rejected(self):
        p = load_technology("802.22b", "suburban")
        alien = McsEntry("9/9 FAKE-QAM", 99.0, {8: 99.0})
        with pytest.raises(ValueError):
            max_allowable_path_loss_db(p, STUDIES["suburban"].margins, alien)

    def test_unit_step_directions(self):
        p = synthetic_profile()
        m = EnvironmentMargins(3.0, 2.0)
        base = max_allowable_path_loss_db(p, m, p.mcs_table[0])
        up = {"eirp_dbm": +1.0, "rx_antenna_gain_db": +1.0, "mimo_gain_db": +1.0}
        down = {"rx_feeder_loss_db": -1.0, "rx_noise_figure_db": -1.0,
                "interference_margin_db": -1.0}
        for field, sign in {**up, **down}.items():
            bumped = synthetic_profile(**{field: getattr(p, field) + 1.0})
            got = max_allowable_path_loss_db(bumped, m, bumped.mcs_table[0])
            assert got - base == pytest.approx(sign, abs=1e-12), field
        harder = McsEntry("1/2 QPSK", 1.0, {1: 1.0})
        p2 = synthetic_profile(mcs_table=(harder,))
        assert max_allowable_path_loss_db(p2, m, harder) == pytest.approx(
            base - 1.0, abs=1e-12)
        for margin in (EnvironmentMargins(4.0, 2.0), EnvironmentMargins(3.0, 3.0)):
            assert max_allowable_path_loss_db(p, margin, p.mcs_table[0]) == \
                pytest.approx(base - 1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-5, 40), st.floats(-5, 20), st.floats(0, 25))
    def test_budget_linearity(self, eirp, gain, k):
        # +k dB EIRP and -k dB receive gain cancel exactly
        m = EnvironmentMargins(3.0, 2.0)
        a = synthetic_profile(eirp_dbm=eirp, rx_antenna_gain_db=gain)
        b = synthetic_profile(eirp_dbm=eirp + k, rx_antenna_gain_db=gain - k)
        assert max_allowable_path_loss_db(a, m, a.mcs_table[0]) == pytest.approx(
            max_allowable_path_loss_db(b, m, b.mcs_table[0]), abs=1e-9)


class TestCoverageCurve:
    def test_single_entry_curve(self):
        p = synthetic_profile()
        curve = coverage_curve(p, EnvironmentMargins(0, 0), one_slope(80.0, 1.0, 3.0))
        assert len(curve) == 1
        assert curve[0][0] == "1/2 QPSK"

    @pytest.mark.parametrize("tech", ["802.22", "802.22b", "802.11af", "lte"])
    @pytest.mark.parametrize("env", ["suburban", "rural"])
    def test_bitrate_up_range_down(self, tech, env):
        p = load_technology(tech, env)
        curve = coverage_curve(p, STUDIES[env].margins, STUDIES[env].model_for(p))
        bitrates = [b for _, b, _ in curve]
        ranges = [r for _, _, r in curve]
        assert bitrates == sorted(bitrates)
        assert all(b2 > b1 for b1, b2 in zip(bitrates, bitrates[1:]))
        assert all(r2 < r1 for r1, r2 in zip(ranges, ranges[1:]))


class TestTechnologyOrdering:
    """Range ordering across technologies, tier by tier.

    Tier labels do not align across technologies (802.11af opens with a
    BPSK tier below everyone's bitrate floor), so "A outranges B at every
    MCS tier" is asserted at A's own operating points: at each tier of the
    credited technology, its range must exceed the best range at which the
    other technology still delivers at least that tier's bitrate.
    """

    @staticmethod
    def range_at(curve, bitrate):
        feasible = [r for _, b, r in curve if b >= bitrate - 1e-9]
        return max(feasible) if feasible else 0.0

    @staticmethod
    def dominates(curve_a, curve_b):
        return all(r_a > TestTechnologyOrdering.range_at(curve_b, b_a)
                   for _, b_a, r_a in curve_a)

    @pytest.mark.parametrize("env", ["suburban", "rural"])
    def test_tvws_family_and_lte_ordering(self, env):
        sc = STUDIES[env]
        curves = {}
        for tech in ("802.22", "802.22b", "802.11af", "lte"):
            p = load_technology(tech, env)
            curves[tech] = coverage_curve(p, sc.margins, sc.model_for(p))
        assert self.dominates(curves["802.22b"], curves["802.22"])
        assert self.dominates(curves["802.22"], curves["802.11af"])
        assert self.dominates(curves["802.22b"], curves["lte"])
        # LTE sits below 802.22b at LTE's own tiers as well
        for _, b, r in curves["lte"]:
            assert r < self.range_at(curves["802.22b"], b)

    def test_22b_beats_22_at_every_shared_label(self):
        for env, sc in STUDIES.items():
            a = dict((lbl, r) for lbl, _, r in coverage_curve(
                load_technology("802.22", env), sc.margins, sc.model))
            b = dict((lbl, r) for lbl, _, r in coverage_curve(
                load_technology("802.22b", env), sc.margins, sc.model))
            for lbl in a:
                assert b[lbl] > a[lbl]


class TestCatalogue:
    def test_bundled_files_parse_equal_under_both_loaders(self):
        # the libyaml loader, where installed, builds the pure-Python one's objects
        files = sorted((Path(link_budget.__file__).parent / "data").rglob("*.yaml"))
        assert len(files) == 8
        for path in files:
            text = path.read_text()
            fast = yaml.load(text, Loader=link_budget.YAML_LOADER)
            slow = yaml.load(text, Loader=yaml.SafeLoader)
            assert fast == slow and repr(fast) == repr(slow), path.name

    def test_all_four_technologies_bundled(self):
        techs = link_budget.bundled_names("technologies")
        assert {"802_22", "802_22b", "802_11af", "lte"} <= set(techs)

    def test_missing_technology_names_file(self):
        with pytest.raises(FileNotFoundError, match="no bundled technology"):
            load_technology("wimax", "suburban")

    def test_technology_file_names_power_model(self):
        for tech, kind in (("802.22", "tvws"), ("802.22b", "tvws"),
                           ("802.11af", "tvws"), ("lte", "macro")):
            for mimo in (False, True) if tech != "802.22" else (False,):
                prof = load_technology(tech, "rural", mimo=mimo)
                assert prof.power_model == kind
                assert prof.mimo == mimo

    def test_unknown_power_model_is_load_error(self):
        raw = link_budget.bundled_yaml("technologies", "802_22b")
        with mock.patch.object(link_budget, "bundled_yaml",
                               return_value={**raw, "power_model": "solar"}):
            with pytest.raises(ValueError, match="power_model 'solar'"):
                load_technology("802.22b", "rural")
        with pytest.raises(ValueError, match="power_model"):
            synthetic_profile(power_model="lte")

    def test_mimo_unsupported_on_80222(self):
        with pytest.raises(ValueError, match="does not support MIMO"):
            load_technology("802.22", "suburban", mimo=True)

    def test_mcs_tables_sorted_and_bitrates_increase(self):
        for tech in ("802.22", "802.22b", "802.11af", "lte"):
            for env in ("suburban", "rural"):
                p = load_technology(tech, env)  # validates on construction
                snrs = [m.required_snr_db for m in p.mcs_table]
                assert snrs == sorted(snrs)

    def test_256qam_tiers_not_deployable(self):
        p = load_technology("802.22b", "suburban")
        flags = {m.label: m.deployable for m in p.mcs_table}
        assert not flags["2/3 256-QAM"] and not flags["7/8 256-QAM"]
        assert len(p.deployable_mcs()) == 5

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            synthetic_profile(used_subcarriers=99, total_subcarriers=64)
        bad = (McsEntry("a", 5.0, {1: 2.0}), McsEntry("b", 4.0, {1: 3.0}))
        with pytest.raises(ValueError):
            synthetic_profile(mcs_table=bad)
        flat = (McsEntry("a", 4.0, {1: 2.0}), McsEntry("b", 5.0, {1: 2.0}))
        with pytest.raises(ValueError):
            synthetic_profile(mcs_table=flat)


class TestBitrateLookup:
    def test_technology_file_keys_kept_as_floats(self):
        # a 1.4 MHz channel keyed 1.4 in the file keeps its key, and the
        # whole-MHz keys still answer 6 and 6.0 alike
        raw = link_budget.bundled_yaml("technologies", "802_11af")
        envs = {**raw["environments"],
                "suburban": {**raw["environments"]["suburban"], "bandwidth_mhz": 1.4}}
        mcs = [{**m, "bitrate_mbps": {**m["bitrate_mbps"], 1.4: m["bitrate_mbps"][8] / 4}}
               for m in raw["mcs"]]
        with mock.patch.object(link_budget, "bundled_yaml",
                               return_value={**raw, "environments": envs, "mcs": mcs}):
            prof = load_technology("802.11af", "suburban")
        for entry, m in zip(prof.mcs_table, raw["mcs"]):
            assert entry.bitrate_at(prof.bandwidth_mhz) == m["bitrate_mbps"][8] / 4
            assert entry.bitrate_at(6) == entry.bitrate_at(6.0) == m["bitrate_mbps"][6]

    def test_bandwidth_looked_up_as_given(self):
        mcs = McsEntry("x", 1.0, {1: 5.0, 6: 20.0})
        assert mcs.bitrate_at(6.0) == 20.0   # 6.0 == 6 finds the whole-MHz key
        for missing in (1.4, 6.9):           # no truncation to a nearby key
            with pytest.raises(KeyError, match=f"MCS 'x' has no bitrate for {missing} MHz"):
                mcs.bitrate_at(missing)
