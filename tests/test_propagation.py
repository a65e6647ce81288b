import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvwsplan.propagation import (HATA_MAX_DISTANCE_KM, ModelValidityWarning,
                                  PathLossModel, invert_range_km, link_loss_db,
                                  okumura_hata_rural, one_slope,
                                  path_loss_array_db, path_loss_db, reach_km)

# independent oracle: mpmath evaluation of the closed form at 30 significant
# digits, run separately (scripts shipped with the repo); (f, hb, hm, d, loss)
HATA_ORACLE = [
    (605.0, 30.0, 3.0, 0.1, 56.2029517747),
    (605.0, 30.0, 3.0, 0.5, 80.8240693731),
    (605.0, 30.0, 3.0, 1.0, 91.4278075563),
    (605.0, 30.0, 3.0, 2.0, 102.031545739),
    (605.0, 30.0, 3.0, 5.0, 116.048925155),
    (605.0, 30.0, 3.0, 10.0, 126.652663338),
    (605.0, 30.0, 3.0, 17.6, 135.300811654),
    (821.0, 30.0, 3.0, 1.0, 93.4859211676),
    (821.0, 30.0, 3.0, 12.1, 131.626879679),
    (450.0, 40.0, 5.0, 8.0, 114.180485209),
]


class TestOneSlope:
    def test_intercept_identity(self):
        m = one_slope(100.0, 1.0, 3.0)
        assert path_loss_db(m, 1.0) == pytest.approx(100.0, abs=1e-12)

    def test_one_decade_adds_ten_n(self):
        m = one_slope(100.0, 1.0, 3.0)
        assert path_loss_db(m, 10.0) == pytest.approx(130.0, abs=1e-9)

    def test_inverse_closed_form(self):
        m = one_slope(100.0, 1.0, 3.0)
        assert invert_range_km(m, 130.0) == pytest.approx(10.0, abs=1e-9)
        assert invert_range_km(m, 100.0) == pytest.approx(1.0, abs=1e-9)

    def test_distance_clamped_at_floor(self):
        m = one_slope(100.0, 1.0, 3.0)
        assert path_loss_db(m, 0.001) == path_loss_db(m, m.min_distance_km)

    def test_nonpositive_distance_rejected(self):
        m = one_slope(100.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            path_loss_db(m, 0.0)
        with pytest.raises(ValueError):
            path_loss_db(m, -2.0)

    def test_below_floor_inversion_rejected(self):
        m = one_slope(100.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="below model floor"):
            invert_range_km(m, 10.0)

    def test_reach_never_raises(self):
        m = one_slope(100.0, 1.0, 3.0)
        assert reach_km(m, 130.0) == invert_range_km(m, 130.0)
        assert reach_km(m, 10.0) == m.min_distance_km  # below the floor
        assert reach_km(m, 1e300) == math.inf          # past every distance

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            one_slope(100.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            one_slope(100.0, -1.0, 2.0)


class TestOkumuraHata:
    @pytest.mark.parametrize("f,hb,hm,d,expected", HATA_ORACLE)
    def test_forward_against_oracle(self, f, hb, hm, d, expected):
        m = okumura_hata_rural(f, hb, hm)
        assert path_loss_db(m, d) == pytest.approx(expected, abs=0.01)

    def test_array_against_oracle(self):
        # one array evaluation per parameter set; the scalar path delegates
        # to it, so the two agree bit for bit
        groups = {}
        for f, hb, hm, d, expected in HATA_ORACLE:
            groups.setdefault((f, hb, hm), []).append((d, expected))
        for (f, hb, hm), rows in groups.items():
            m = okumura_hata_rural(f, hb, hm)
            d, expected = (np.array(col) for col in zip(*rows))
            vec = path_loss_array_db(m, d)
            np.testing.assert_allclose(vec, expected, rtol=0, atol=0.01)
            assert vec.tolist() == [path_loss_db(m, x) for x in d]

    @pytest.mark.parametrize("f,hb,hm,d,expected", HATA_ORACLE)
    def test_inversion_round_trip_under_1m(self, f, hb, hm, d, expected):
        m = okumura_hata_rural(f, hb, hm)
        assert invert_range_km(m, expected) == pytest.approx(d, rel=1e-9)

    def test_round_trip_loss_under_001db(self):
        m = okumura_hata_rural(605.0, 30.0, 3.0)
        for pl in (95.0, 110.0, 125.0, 135.0):
            d = invert_range_km(m, pl)
            assert path_loss_db(m, d) == pytest.approx(pl, abs=0.01)

    def test_offset_shifts_loss_and_range(self):
        base = okumura_hata_rural(605.0, 30.0, 3.0)
        off = okumura_hata_rural(605.0, 30.0, 3.0, offset_db=1.5)
        assert path_loss_db(off, 5.0) == pytest.approx(
            path_loss_db(base, 5.0) + 1.5, abs=1e-9)
        assert invert_range_km(off, 120.0) < invert_range_km(base, 120.0)

    def test_beyond_validity_warns_but_evaluates(self):
        m = okumura_hata_rural(605.0, 30.0, 3.0)
        with pytest.warns(ModelValidityWarning):
            v = path_loss_db(m, HATA_MAX_DISTANCE_KM + 2.0)
        assert v > path_loss_db(m, HATA_MAX_DISTANCE_KM)

    def test_out_of_window_parameters_warn_not_fail(self):
        with pytest.warns(ModelValidityWarning):
            okumura_hata_rural(100.0, 30.0, 3.0)   # below frequency window
        with pytest.warns(ModelValidityWarning):
            okumura_hata_rural(605.0, 25.0, 3.0)   # below BS height window
        with pytest.warns(ModelValidityWarning):
            okumura_hata_rural(605.0, 30.0, 0.5)   # below RX height window

    def test_nonsensical_parameters_fail(self):
        with pytest.raises(ValueError):
            okumura_hata_rural(-10.0, 30.0, 3.0)
        with pytest.raises(ValueError):
            PathLossModel(variant="not_a_model")


@st.composite
def any_model(draw):
    if draw(st.booleans()):
        return one_slope(draw(st.floats(60, 140)), 1.0, draw(st.floats(1.5, 5.0)))
    return okumura_hata_rural(draw(st.floats(150, 1500)),
                              draw(st.floats(30, 200)),
                              draw(st.floats(1, 10)))


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(any_model(), st.floats(0.06, 19.0), st.floats(1.02, 2.0))
    def test_strict_monotonicity(self, model, d1, factor):
        d2 = d1 * factor
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            assert path_loss_db(model, d1) < path_loss_db(model, d2)

    @settings(max_examples=80, deadline=None)
    @given(any_model(), st.floats(0.1, 20.0))
    def test_round_trip_identity_within_1m(self, model, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            pl = path_loss_db(model, d)
            assert invert_range_km(model, pl) == pytest.approx(d, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(150, 1400), st.floats(1.01, 1.07), st.floats(0.1, 20.0))
    def test_hata_frequency_monotonicity(self, f, factor, d):
        lo = okumura_hata_rural(f, 30.0, 3.0)
        hi = okumura_hata_rural(min(f * factor, 1500.0), 30.0, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            assert path_loss_db(hi, d) > path_loss_db(lo, d)


class TestLinkLoss:
    POINTS = np.array([[0.0, 0.0], [3.0, 4.0], [-1.5, 2.0]])
    SITES = np.array([[0.0, 0.0], [6.0, 8.0]])

    def test_matrix_and_paired_broadcasting(self):
        m = one_slope(100.0, 1.0, 3.0)
        matrix = link_loss_db(m, self.POINTS[:, None], self.SITES)
        assert matrix.shape == (3, 2)
        assert matrix[1].tolist() == [path_loss_db(m, 5.0), path_loss_db(m, 5.0)]
        # K paired links are the matching entries of the matrix
        paired = link_loss_db(m, self.POINTS, self.SITES[[1, 0, 1]])
        assert paired.shape == (3,)
        assert paired.tolist() == matrix[[0, 1, 2], [1, 0, 1]].tolist()
        # one point and one site, one site against every point, no links at all
        assert link_loss_db(m, [3.0, 4.0], [0.0, 0.0]) == path_loss_db(m, 5.0)
        assert link_loss_db(m, self.POINTS, self.SITES[1]).tolist() == matrix[:, 1].tolist()
        assert link_loss_db(m, self.POINTS[:, None], np.empty((0, 2))).shape == (3, 0)

    def test_zero_distance_clamps_to_floor(self):
        m = okumura_hata_rural(605.0, 30.0, 3.0)
        got = link_loss_db(m, self.POINTS, self.POINTS)
        assert got.tolist() == [path_loss_db(m, m.min_distance_km)] * 3

    @settings(max_examples=80, deadline=None)
    @given(any_model(),
           st.lists(st.tuples(st.floats(-15, 15), st.floats(-15, 15)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.floats(-15, 15), st.floats(-15, 15)),
                    min_size=1, max_size=4))
    def test_matches_scalar_evaluation(self, model, points, sites):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            got = link_loss_db(model, np.array(points)[:, None], sites)
            for (x, y), row in zip(points, got.tolist()):
                for (sx, sy), pl in zip(sites, row):
                    d = max(math.hypot(x - sx, y - sy), model.min_distance_km)
                    assert pl == pytest.approx(path_loss_db(model, d), abs=1e-9)
