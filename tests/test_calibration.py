"""The bundled calibrated values are what the scripts under `scripts/` derive.

Each calibration script's `derive()` reads its scenario inputs (margins,
area, demand, antenna heights, the chosen macrocell coefficients) from the
bundled data files and returns the calibrated values at their stored
precision.  These tests require the bundled data to equal them, so a
calibrated value, or an input changed without recalibrating, fails here.
The budget worksheet is locked to the script that writes it.
"""

import sys
from pathlib import Path

import pytest

from tvwsplan import bundled_scenario, load_power_params
from tvwsplan.power_energy import RADIATED_POWER_W, station_power_w

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import calibrate_macro_power  # noqa: E402
import calibrate_rural_offset  # noqa: E402
import calibrate_suburban_slope  # noqa: E402
import make_budget_worksheet  # noqa: E402


def test_suburban_slope_is_its_derivation():
    lo, hi, model = calibrate_suburban_slope.derive()
    assert model == bundled_scenario("ghent_suburban").model
    assert lo < model.exponent < hi


def test_rural_offset_is_its_derivation():
    rows, model = calibrate_rural_offset.derive()
    assert model == bundled_scenario("boyeros_rural").model
    implied = [row[2] for row in rows.values()]
    assert max(implied) - min(implied) < 0.01  # frequency-flat


def test_macro_power_is_its_derivation():
    params = calibrate_macro_power.derive()
    assert params == load_power_params("macro")
    # constraint B: the power amplifier draws under 10% of the station
    assert RADIATED_POWER_W / params.amp_efficiency < 0.1 * station_power_w(
        "macro", 1, params)


@pytest.mark.parametrize("script, anchor, value", [
    (calibrate_suburban_slope, "ANCHOR_22B_KM", 7.1),
    (calibrate_rural_offset, "ANCHORS", {"802.22b": 17.7, "lte": 12.2}),
    (calibrate_macro_power, "TARGET_BS_W", 383.0)])
def test_main_exits_when_derived_and_bundled_disagree(monkeypatch, capsys, script,
                                                      anchor, value):
    script.main()
    assert "bundled value" in capsys.readouterr().out
    monkeypatch.setattr(script, anchor, value)
    with pytest.raises(SystemExit) as exit_:
        script.main()
    assert "disagree" in exit_.value.code  # a message: the process exits 1


def test_budget_worksheet_is_what_its_script_writes(tmp_path):
    make_budget_worksheet.main(tmp_path / "worksheet.csv")
    assert (tmp_path / "worksheet.csv").read_bytes() == \
        (ROOT / "docs" / "link_budget_worksheet.csv").read_bytes()
