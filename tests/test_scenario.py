import copy
import dataclasses
import functools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from tvwsplan import geometry, link_budget, scenario
from tvwsplan.link_budget import bundled_names, bundled_yaml, load_technology
from tvwsplan.power_energy import load_power_params
from tvwsplan.scenario import (CandidateSite, PopulationSpec, Region,
                               Scenario, ScenarioError,
                               bundled_scenario, generate_population,
                               load_scenario, population_to_csv,
                               scenario_from_dict)

SUBURBAN_SPEC = PopulationSpec(user_count=224, data_fraction=0.91,
                               data_bitrate_mbps=1.0, voice_bitrate_mbps=0.064)


def explicit_scenario(sites):
    """The bundled suburban file over the 4 x 3 km micro rectangle, with an
    explicit site list."""
    raw = bundled_yaml("scenarios", "ghent_suburban")
    return {**raw,
            "region": {"outline_km": [[0, 0], [4, 0], [4, 3], [0, 3]], "area_km2": 12.0},
            "sites": {"mode": "explicit", "list": sites}}


class TestRegion:
    def test_area_recomputed_against_declared(self):
        with pytest.raises(ValueError, match="differs from polygon area"):
            Region(outline=((0, 0), (4, 0), (4, 3), (0, 3)), area_km2=14.0)

    def test_self_intersection_rejected(self):
        # asymmetric bowtie: non-zero shoelace area but crossing edges
        with pytest.raises(ValueError, match="self-intersecting"):
            Region(outline=((0, 0), (4, 0), (1, 2), (3, -1)), area_km2=0.5)

    def test_bundled_regions_have_declared_areas(self):
        for name, area in (("ghent_suburban", 68.0), ("boyeros_rural", 169.0)):
            sc = bundled_scenario(name)
            actual = geometry.polygon_area(sc.region.outline)
            assert abs(actual - area) <= 0.005 * area

    def test_site_near_region_accepted_far_rejected(self):
        sc = scenario_from_dict(explicit_scenario([{"id": 0, "x_km": 4.5, "y_km": 1.5}]))
        assert [(s.id, s.x_km, s.y_km) for s in sc.site_policy.sites] == [(0, 4.5, 1.5)]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(explicit_scenario([{"id": 1, "x_km": 9.0, "y_km": 1.5}]))
        assert err.value.errors == [
            "sites.list: site 1 lies 5.00 km outside the region (limit 2.0 km)"]

    def test_faults_listed_in_order(self):
        # field errors and repeats in list order, then per site the antenna
        # height before the distance
        sites = [{"id": 5, "x_km": 1.0, "y_km": 1.0},
                 {"id": 5, "x_km": 9.0, "y_km": 1.5},
                 {"id": 7, "x_km": 9.0, "y_km": 1.5, "antenna_height_m": -1.0},
                 {"id": 8, "x_km": "far", "y_km": 1.5},
                 {"id": 9, "x_km": 2.0, "y_km": -3.25}]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(explicit_scenario(sites))
        assert err.value.errors == [
            "sites.list: site id 5 repeats",
            "sites.list: [3].x_km: must be a number, got 'far'",
            "sites.list: site 5 lies 5.00 km outside the region (limit 2.0 km)",
            "sites.list: site 7: antenna height must be positive",
            "sites.list: site 9 lies 3.25 km outside the region (limit 2.0 km)"]

    def test_list_checked_in_one_containment_call(self):
        sites = [{"id": i, "x_km": 0.1 + 0.08 * (i % 50), "y_km": 0.1 + 0.07 * (i // 50)}
                 for i in range(2000)]
        with mock.patch.object(geometry, "points_in_polygon",
                               wraps=geometry.points_in_polygon) as test:
            sc = scenario_from_dict(explicit_scenario(sites))
        assert len(sc.site_policy.sites) == 2000
        assert test.call_count == 1
        assert len(test.call_args.args[0]) == 2000


class TestGeneratePopulation:
    def test_suburban_realisation(self, micro_region):
        sc = bundled_scenario("ghent_suburban")
        pop = generate_population(sc.region, sc.population, seed=1)
        assert len(pop) == 224
        assert set(np.unique(pop.demand_mbps)) <= {1.0, 0.064}
        assert geometry.points_in_polygon(pop.xy_km, sc.region.outline).all()

    def test_determinism_byte_identical(self):
        sc = bundled_scenario("ghent_suburban")
        a = population_to_csv(generate_population(sc.region, sc.population, 123))
        b = population_to_csv(generate_population(sc.region, sc.population, 123))
        assert a == b
        c = population_to_csv(generate_population(sc.region, sc.population, 124))
        assert a != c

    def test_empty_population(self, micro_region):
        spec = PopulationSpec(user_count=0, data_fraction=0.5)
        pop = generate_population(micro_region, spec, 1)
        assert len(pop) == 0
        assert pop.demand_mbps.sum() == 0.0

    def test_degenerate_mix_all_data(self, micro_region):
        spec = PopulationSpec(user_count=10, data_fraction=1.0,
                              data_bitrate_mbps=2.5)
        pop = generate_population(micro_region, spec, 5)
        assert np.all(pop.demand_mbps == 2.5)

    def test_two_user_sum(self, micro_region):
        spec = PopulationSpec(user_count=2, data_fraction=1.0)
        pop = generate_population(micro_region, spec, 3)
        # force the documented mix on a copy: drawn populations are shared
        pop = dataclasses.replace(pop, demand_mbps=np.array([1.0, 0.064]))
        assert pop.demand_mbps.sum() == pytest.approx(1.064, abs=1e-12)

    def test_realised_204_20_split_sums_to_205_28(self):
        # derived by enumeration: seed 7 realises exactly 204 data users
        sc = bundled_scenario("ghent_suburban")
        pop = generate_population(sc.region, sc.population, seed=7)
        n_data = int((pop.demand_mbps == 1.0).sum())
        assert (n_data, len(pop) - n_data) == (204, 20)
        assert pop.demand_mbps.sum() == pytest.approx(204 * 1.0 + 20 * 0.064, abs=1e-9)
        assert pop.demand_mbps.sum() == pytest.approx(205.28, abs=1e-9)

    def test_mix_converges_over_10000_users(self, micro_region):
        spec = PopulationSpec(user_count=10_000, data_fraction=0.91)
        pop = generate_population(micro_region, spec, 11)
        realised = float((pop.demand_mbps == 1.0).mean())
        assert abs(realised - 0.91) <= 0.02

    def test_containment_exhaustive(self):
        sc = bundled_scenario("boyeros_rural")
        for seed in (1, 2, 3):
            pop = generate_population(sc.region, sc.population, seed)
            assert geometry.points_in_polygon(pop.xy_km, sc.region.outline).all()

    def test_zero_area_region_rejected(self):
        # the sampler relies on it: a region of zero area cannot be built
        with pytest.raises(ValueError, match="zero area"):
            Region(outline=((0, 0), (1, 0), (2, 0)), area_km2=1.0, resolution_m=100.0)

    def test_csv_export_schema(self, micro_region):
        pop = generate_population(micro_region, PopulationSpec(3, 1.0), 9)
        text = population_to_csv(pop)
        lines = text.splitlines()
        assert lines[0] == "user_id,x_km,y_km,demand_mbps"
        assert len(lines) == 4
        assert "\r" not in text


def scalar_point_in_polygon(x, y, vertices):
    """The former scalar ray cast of `geometry`, kept as the oracle."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    inside = False
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        # on-edge check keeps boundary points inside
        if (min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12
                and abs((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) < 1e-9
                and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12):
            return True
        if (y1 > y) != (y2 > y):
            xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xs:
                inside = not inside
    return inside


def broadcast_points_in_polygon(points, vertices):
    """The former all-edges vectorised ray cast of `geometry`, kept as the oracle."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v = np.asarray(vertices, dtype=float)
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = v[:, 0][None, :], v[:, 1][None, :]
    x2, y2 = np.roll(v[:, 0], -1)[None, :], np.roll(v[:, 1], -1)[None, :]

    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (y - y1) * (x2 - x1) / np.where(y2 == y1, np.inf, y2 - y1)
    inside = (np.sum(crosses & (x < xs), axis=1) % 2).astype(bool)

    on_edge = ((np.minimum(x1, x2) - 1e-12 <= x) & (x <= np.maximum(x1, x2) + 1e-12)
               & (np.minimum(y1, y2) - 1e-12 <= y) & (y <= np.maximum(y1, y2) + 1e-12)
               & (np.abs((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) < 1e-9))
    return inside | on_edge.any(axis=1)


def scalar_population(region, spec, seed):
    """The former per-attempt rejection loop, kept as the oracle."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xmin, ymin, xmax, ymax = geometry.polygon_bbox(region.outline)
    n = spec.user_count
    xs = np.empty(n)
    ys = np.empty(n)
    demand = np.empty(n)
    for k in range(n):
        for _ in range(scenario.MAX_REJECTION_ATTEMPTS):
            x = rng.uniform(xmin, xmax)
            y = rng.uniform(ymin, ymax)
            if scalar_point_in_polygon(x, y, region.outline):
                break
        else:
            raise RuntimeError(
                f"rejection sampling failed after {scenario.MAX_REJECTION_ATTEMPTS} "
                f"attempts inside region of area {region.area_km2} km^2")
        xs[k], ys[k] = x, y
        demand[k] = (spec.data_bitrate_mbps
                     if rng.uniform() < spec.data_fraction
                     else spec.voice_bitrate_mbps)
    return scenario.UserPopulation(xy_km=np.column_stack([xs, ys]),
                                   demand_mbps=demand)


def region_of(outline):
    outline = tuple((float(x), float(y)) for x, y in outline)
    return Region(outline=outline, area_km2=geometry.polygon_area(outline))


def thin_triangle(width):
    """A sliver along the diagonal of a 10 x 10 km box: area 5 * width."""
    return region_of(((0.0, 0.0), (10.0, 10.0), (10.0, 10.0 - width)))


@st.composite
def rectilinear_outlines(draw):
    """L-shaped outlines: horizontal and vertical edges only, and vertices
    that share their y with a neighbour."""
    x0, y0 = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
    xm, x1 = sorted(x0 + draw(st.floats(0.1, 10)) * k for k in (1, 2))
    y1, y2 = sorted(y0 + draw(st.floats(0.1, 10)) * k for k in (1, 2))
    return ((x0, y0), (x1, y0), (x1, y1), (xm, y1), (xm, y2), (x0, y2))


@st.composite
def star_regions(draw):
    """Simple polygons: 4-12 vertices, one per equal angular slot around a
    centre, so every gap is below pi and the outline is star-shaped."""
    n = draw(st.integers(4, 12))
    cx, cy = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
    outline = []
    for k in range(n):
        a = (k + draw(st.floats(0.25, 0.75))) * 2 * math.pi / n
        r = draw(st.floats(0.3, 5.0))
        outline.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return region_of(outline)


specs = st.builds(PopulationSpec, user_count=st.integers(0, 2000),
                  data_fraction=st.floats(0.0, 1.0))
seeds = st.integers(0, 2**32)


def assert_same_draw(region, spec, seed):
    new = generate_population.__wrapped__(region, spec, seed)
    old = scalar_population(region, spec, seed)
    assert new.xy_km.tobytes() == old.xy_km.tobytes()
    assert new.demand_mbps.tobytes() == old.demand_mbps.tobytes()
    assert population_to_csv(new) == population_to_csv(old)


class TestSamplerMatchesScalarLoop:
    """The block sampler reproduces the per-attempt loop bit for bit."""

    def test_bundled_regions(self):
        for name in ("ghent_suburban", "boyeros_rural"):
            sc = bundled_scenario(name)
            for seed in (1, 5, 123, 1000, 1039, 2000):
                assert_same_draw(sc.region, sc.population, seed)

    @settings(max_examples=40, deadline=None)
    @given(star_regions(), specs, seeds)
    def test_random_simple_polygons(self, region, spec, seed):
        assert_same_draw(region, spec, seed)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.1, 1.0), st.integers(0, 200), st.floats(0.0, 1.0), seeds)
    def test_thin_triangle_refills_blocks(self, width, users, fraction, seed):
        # acceptance 0.005-0.05: one block holds a few dozen users at most
        assert_same_draw(thin_triangle(width), PopulationSpec(users, fraction), seed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 64), star_regions(), st.integers(0, 300),
           st.floats(0.0, 1.0), seeds)
    def test_tiny_blocks_carry_the_stream(self, block, region, users, fraction, seed):
        # a refill every few variates: pairs and demand draws straddle blocks
        with mock.patch.object(scenario, "MAX_SAMPLE_BLOCK", block):
            assert_same_draw(region, PopulationSpec(users, fraction), seed)

    def test_sliver_raises_same_error_in_bounded_work_and_memory(self):
        sliver = thin_triangle(2e-6)   # acceptance 1e-7 per attempt
        spec = PopulationSpec(3, 0.5)
        with pytest.raises(RuntimeError) as old:
            scalar_population(sliver, spec, 1)
        # the first user gives up after 2 * MAX_REJECTION_ATTEMPTS variates
        budget = 2 * scenario.MAX_REJECTION_ATTEMPTS + 2 * scenario.MAX_SAMPLE_BLOCK
        tested = []
        real = geometry.points_in_polygon

        def counted(points, vertices):
            tested.append(len(points))
            assert sum(tested) <= budget, "sampler kept drawing past the limit"
            return real(points, vertices)

        tracemalloc.start()
        try:
            with mock.patch.object(geometry, "points_in_polygon", counted), \
                    pytest.raises(RuntimeError) as new:
                generate_population.__wrapped__(sliver, spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(new.value) == str(old.value)
        assert peak < 16 * 2**20


class TestSamplerAttemptLimit:
    """The block sampler gives up exactly where the per-attempt loop does."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 64), star_regions(), st.integers(1, 40),
           seeds)
    def test_attempt_limit_trips_where_the_loop_does(self, limit, block, region,
                                                      users, seed):
        # a small limit trips often; small blocks split runs of rejections
        spec = PopulationSpec(users, 0.5)
        with mock.patch.object(scenario, "MAX_REJECTION_ATTEMPTS", limit), \
                mock.patch.object(scenario, "MAX_SAMPLE_BLOCK", block):
            try:
                scalar_population(region, spec, seed)
            except RuntimeError as old:
                with pytest.raises(RuntimeError) as new:
                    generate_population.__wrapped__(region, spec, seed)
                assert str(new.value) == str(old)
                return
            assert_same_draw(region, spec, seed)

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_limit_trips_on_its_last_attempt(self, block):
        # seed 7's only user is accepted on its 4th attempt: a limit of 3
        # attempts trips, a limit of 4 does not; small blocks split the run
        region, spec, seed = region_of(((0, 0), (1, 0), (0, 1))), PopulationSpec(1, 0.5), 7
        with mock.patch.object(scenario, "MAX_SAMPLE_BLOCK", block):
            with mock.patch.object(scenario, "MAX_REJECTION_ATTEMPTS", 3):
                for sampler in (scalar_population, generate_population.__wrapped__):
                    with pytest.raises(RuntimeError, match="failed after 3 attempts"):
                        sampler(region, spec, seed)
            with mock.patch.object(scenario, "MAX_REJECTION_ATTEMPTS", 4):
                assert_same_draw(region, spec, seed)


class TestPopulationMemo:
    def test_same_key_same_object(self):
        sc = bundled_scenario("ghent_suburban")
        a = generate_population(sc.region, sc.population, 4242)
        b = generate_population(bundled_scenario("ghent_suburban").region,
                                sc.population, 4242)
        assert a is b
        assert generate_population(sc.region, sc.population, 4243) is not a

    @pytest.mark.parametrize("field", ["xy_km", "demand_mbps"])
    def test_arrays_read_only(self, micro_region, field):
        pop = generate_population(micro_region, PopulationSpec(4, 0.5), 3)
        arr = getattr(pop, field)
        with pytest.raises(ValueError):
            arr[0] = 0
        with pytest.raises(ValueError):
            arr += 1


def pairwise_polygon_is_simple(vertices):
    """The former pair-by-pair self-intersection test of `geometry`, kept as
    the oracle."""
    def _segments_cross(p1, p2, q1, q2) -> bool:
        def orient(a, b, c):
            val = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if abs(val) < 1e-12:
                return 0
            return 1 if val > 0 else -1

        o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
        o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
        return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)

    v = np.asarray(vertices, dtype=float)
    n = len(v)
    edges = [(v[i], v[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True


@st.composite
def lattice_outlines(draw):
    """Outlines on a small integer lattice, so collinear edges, T-junctions
    and repeated vertices are common, at a scale from 1e-7 to 1e300."""
    corners = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=3, max_size=10))
    scale = draw(st.sampled_from([1.0, 1e-7, 1e154, 1e300]))
    return [(x * scale, y * scale) for x, y in corners]


class TestSimplicityMatchesPairwise:
    """The vectorised self-intersection test gives the former verdicts."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(lattice_outlines(),
                     st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                              min_size=3, max_size=10)),
           st.integers(1, 40))
    def test_matches_pairwise_oracle(self, outline, block):
        # small blocks split the edge rows at every possible point
        with np.errstate(all="ignore"):  # the oracle's scalars warn on overflow
            expected = pairwise_polygon_is_simple(outline)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # huge coordinates print nothing
            assert geometry.polygon_is_simple(outline) == expected
            with mock.patch.object(geometry, "MAX_EDGE_PAIRS", block):
                assert geometry.polygon_is_simple(outline) == expected

    def test_single_crossing_found_in_every_position(self):
        # a hexagon with two vertices swapped has one crossing edge pair; its
        # rotations move that pair through every row, the last ones included
        hexagon = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                   for k in (0, 1, 3, 2, 4, 5)]
        for shift in range(6):
            outline = hexagon[shift:] + hexagon[:shift]
            for block in (1, 2, 3, 40):
                with mock.patch.object(geometry, "MAX_EDGE_PAIRS", block):
                    assert not geometry.polygon_is_simple(outline)

    def test_large_outline_in_bounded_memory(self):
        # all pairs at once would hold 4 M-element arrays, 32 MiB each
        a = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
        circle = np.column_stack([np.cos(a), np.sin(a)])
        tracemalloc.start()
        try:
            assert geometry.polygon_is_simple(circle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert not geometry.polygon_is_simple(circle[[0, 1000, 500, 1500]])


class TestContainment:
    """`point_in_polygon` delegates to the vectorised ray cast."""

    def test_delegate_agrees_with_scalar_ray_cast(self):
        rng = np.random.default_rng(20261018)
        for name in ("ghent_suburban", "boyeros_rural"):
            outline = bundled_scenario(name).region.outline
            v = np.asarray(outline)
            mids = 0.5 * (v + np.roll(v, -1, axis=0))
            xmin, ymin, xmax, ymax = geometry.polygon_bbox(outline)
            rand = np.column_stack([rng.uniform(xmin - 1, xmax + 1, 10_000),
                                    rng.uniform(ymin - 1, ymax + 1, 10_000)])
            pts = np.vstack([v, mids, rand])
            expected = [scalar_point_in_polygon(x, y, outline) for x, y in pts]
            got = [geometry.point_in_polygon(x, y, outline) for x, y in pts]
            assert got == expected
            assert all(expected[:2 * len(v)])  # boundary counts as inside
            assert geometry.points_in_polygon(pts, outline).tolist() == expected


class TestContainmentMatchesBroadcast:
    """The y-sliced ray cast returns the former all-edges mask exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(star_regions().map(lambda r: r.outline), rectilinear_outlines()),
           st.integers(0, 2**32 - 1), st.integers(0, 400))
    def test_matches_broadcast_oracle(self, outline, seed, keep):
        rng = np.random.default_rng(seed)
        v = np.asarray(outline)
        edge = np.roll(v, -1, axis=0) - v
        normal = edge[:, ::-1] * [1.0, -1.0] / np.hypot(*edge.T)[:, None]
        on_edge = v + rng.uniform(0, 1, (len(v), 1)) * edge
        near = [on_edge + d * offset for d in (1e-12, -1e-12, 1e-10, -1e-10)
                for offset in (normal, np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
        xmin, ymin, xmax, ymax = geometry.polygon_bbox(outline)
        spread = np.column_stack([rng.uniform(xmin - 1, xmax + 1, 200),
                                  rng.uniform(ymin - 1, ymax + 1, 200)])
        same_y = np.column_stack([np.linspace(xmin - 1, xmax + 1, 60),
                                  np.full(60, rng.choice(v[:, 1]))])
        x, y = on_edge[0]
        odd = [(a, b) for a in (x, np.nan, np.inf, -np.inf)
               for b in (y, np.nan, np.inf, -np.inf)]
        pts = np.vstack([v, v + 0.5 * edge, *near, spread, same_y, odd])
        pts = pts[rng.permutation(len(pts))[:keep]]  # keep 0: empty input
        with np.errstate(invalid="ignore", over="ignore"):  # inf coordinates
            expected = broadcast_points_in_polygon(pts, outline).tolist()
            assert geometry.points_in_polygon(pts, outline).tolist() == expected

    def test_empty_input(self):
        outline = bundled_scenario("ghent_suburban").region.outline
        for pts in ([], np.empty((0, 2))):
            mask = geometry.points_in_polygon(pts, outline)
            assert mask.dtype == bool and mask.tolist() == []

    def test_peak_memory_is_bounded(self):
        # the all-edges cast held about 15 (points x edges) arrays: 78 MB peak
        outline = bundled_scenario("ghent_suburban").region.outline
        rng = np.random.default_rng(20261019)
        xmin, ymin, xmax, ymax = geometry.polygon_bbox(outline)
        pts = np.column_stack([rng.uniform(xmin, xmax, 100_000),
                               rng.uniform(ymin, ymax, 100_000)])
        tracemalloc.start()
        try:
            geometry.points_in_polygon(pts, outline)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestExpectedDemand:
    def test_suburban_expected_traffic(self):
        assert SUBURBAN_SPEC.expected_demand_mbps == pytest.approx(205.1302, abs=1e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(user_count=-1, data_fraction=0.5)
        with pytest.raises(ValueError):
            PopulationSpec(user_count=10, data_fraction=1.5)
        with pytest.raises(ValueError):
            PopulationSpec(user_count=10, data_fraction=0.5, data_bitrate_mbps=0.0)


class TestScenarioFiles:
    def test_bundled_scenarios_load(self):
        names = bundled_names("scenarios")
        assert {"ghent_suburban", "boyeros_rural"} <= set(names)
        sub = bundled_scenario("ghent_suburban")
        assert sub.environment == "suburban"
        assert sub.population.user_count == 224
        assert sub.model.variant == "one_slope"
        rur = bundled_scenario("boyeros_rural")
        assert rur.environment == "rural"
        assert rur.population.user_count == 135
        assert rur.model.variant == "okumura_hata_rural"
        assert rur.model.offset_db == pytest.approx(1.784748)

    def test_unknown_bundled_name(self):
        with pytest.raises(FileNotFoundError, match="no bundled scenario"):
            bundled_scenario("atlantis")

    def test_missing_file_error_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere.yaml"):
            load_scenario(tmp_path / "nowhere.yaml")

    def test_schema_errors_itemised(self):
        raw = {
            "region": {"outline_km": [[0, 0], [4, 0], [4, 3], [0, 3]],
                       "area_km2": 12.0},
            "population": {"user_count": 10},        # missing data_fraction
            "environment": {"kind": "alpine",         # bad kind
                            "shadow_margin_db": 5.0},  # missing fade margin
            "propagation": {"variant": "two_ray"},    # unknown variant
            "sites": {"mode": "lattice"},             # missing count
        }
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(raw)
        fields = " | ".join(err.value.errors)
        for expected in ("population.data_fraction", "environment.kind",
                         "environment.fade_margin_db", "propagation.variant",
                         "sites.count"):
            assert expected.split(".")[0] in fields

        # site-policy values the planner cannot run with, one field each
        valid = bundled_yaml("scenarios", "ghent_suburban")
        for sites, field in (
                ({"mode": "lattice", "count": 0}, "sites.count"),
                ({"mode": "auto_grow", "pilot_runs": 0}, "sites.pilot_runs"),
                ({"mode": "auto_grow", "max_sites": 0}, "sites.max_sites"),
                ({"mode": "auto_grow", "target_coverage": 1.0},
                 "sites.target_coverage"),
                ({"mode": "auto_grow", "target_coverage": -0.01},
                 "sites.target_coverage"),
                ({"mode": "lattice", "count": 5, "jitter_fraction": -0.1},
                 "sites.jitter_fraction"),
                ({"mode": "explicit", "list": [
                    {"id": 3, "x_km": 8.0, "y_km": 5.0},
                    {"id": 3, "x_km": 9.0, "y_km": 5.0}]}, "sites.list"),
                ({"mode": "explicit", "list": [
                    {"id": 0, "x_km": 17.6, "y_km": 5.0}]}, "sites.list"),
                ({"mode": "explicit", "list": [
                    {"id": 0, "x_km": 8.0, "y_km": 5.0, "antenna_height_m": -1}]},
                 "sites.list"),
                ({"mode": "explicit", "list": [
                    {"id": 0, "x_km": 8.0, "y_km": 5.0,
                     "antenna_height_m": float("nan")}]}, "sites.list"),
                ({"mode": "lattice", "count": 5, "seed": -1}, "sites.seed"),
                ({"mode": "auto_grow", "pilot_runs": 2.7}, "sites.pilot_runs"),
                ({"mode": "lattice", "count": True}, "sites.count"),
                ({"mode": "explicit", "list": [
                    {"id": 1.7, "x_km": 8.0, "y_km": 5.0}]}, "sites.list")):
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict({**valid, "sites": sites})
            assert [e.split(":")[0] for e in err.value.errors] == [field]

        # a negative seed is an itemised error, not a failure of the generator
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({**valid, "seeds": {"base_seed": -5}})
        assert [e.split(":")[0] for e in err.value.errors] == ["seeds.base_seed"]
        # so is an empty population, which sizing rejects
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({**valid, "population": {**valid["population"],
                                                        "user_count": 0}})
        assert [e.split(":")[0] for e in err.value.errors] == ["population.user_count"]
        # a NaN vertex, and one whose polygon area overflows to NaN, both fail
        outline = [list(v) for v in valid["region"]["outline_km"]]
        for vertex, field in (([float("nan"), 5.0], "region.outline_km[3].x"),
                              ([5.0, 1e308], "region")):
            outline[3] = vertex
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict({**valid, "region": {**valid["region"],
                                                        "outline_km": outline}})
            assert [e.split(":")[0] for e in err.value.errors] == [field]

    def test_strings_are_printable(self):
        # a scenario's strings land in provenance lines, one per key
        valid = bundled_yaml("scenarios", "ghent_suburban")
        for bad in ("\n", "\r", "\t", "\x85", "\u2028", "\x00"):
            for edited, field in (
                    ({**valid, "name": f"Ghent{bad}site_id,x"}, "name"),
                    ({**valid, "propagation": {**valid["propagation"],
                                               "calibration_id": f"fit{bad}"}},
                     "propagation.calibration_id")):
                with pytest.raises(ScenarioError) as err:
                    scenario_from_dict(edited)
                assert [e.split(":")[0] for e in err.value.errors] == [field]
                assert "must be printable" in err.value.errors[0]
        sc = scenario_from_dict({**valid, "name": "Gent é"})
        assert sc.name == "Gent é"

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["ghent_suburban", "boyeros_rural"]), st.data(),
           st.one_of(st.booleans(), st.text(max_size=5), st.none(),
                     st.lists(st.integers(), max_size=2), st.floats(), st.integers()))
    def test_mutated_leaf_loads_typed_or_names_its_field(self, name, data, value):
        """One scalar leaf of a bundled scenario replaced: the file either loads
        with finite, correctly typed numbers or names the leaf's section; a
        wrong type or a non-finite number names the full `section.field`."""
        raw = copy.deepcopy(bundled_yaml("scenarios", name))

        def leaves(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, child in items:
                if isinstance(child, (dict, list)):
                    yield from leaves(child, path + (key,))
                else:
                    yield path + (key,)

        path = data.draw(st.sampled_from(sorted(leaves(raw, ()), key=str)))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], raw)
        original, parent[path[-1]] = parent[path[-1]], value
        try:
            sc = scenario_from_dict(raw)
        except ScenarioError as e:
            label = ".".join(path[:2])
            assert any(err.startswith(path[0]) for err in e.errors), e.errors
            is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
            wrong_type = (not isinstance(value, str) if isinstance(original, str)
                          else not is_number)
            if wrong_type or isinstance(value, float) and not math.isfinite(value):
                assert any(err.startswith(label) for err in e.errors), e.errors
            return
        assert all(type(c) is float and math.isfinite(c)
                   for xy in sc.region.outline for c in xy)
        for part in (sc, sc.region, sc.population, sc.margins, sc.model, sc.site_policy):
            for f in dataclasses.fields(part):
                v = getattr(part, f.name)
                if f.type in ("int", "float"):
                    assert type(v) is {"int": int, "float": float}[f.type], (f.name, v)
                    assert math.isfinite(v), (f.name, v)

    def test_model_follows_technology_frequency(self):
        rur = bundled_scenario("boyeros_rural")
        from tvwsplan.link_budget import load_technology
        lte = load_technology("lte", "rural")
        m = rur.model_for(lte)
        assert m.freq_mhz == pytest.approx(821.0)
        assert m.offset_db == rur.model.offset_db
        tv = load_technology("802.22b", "rural")
        assert rur.model_for(tv).freq_mhz == pytest.approx(605.0)

    def test_digest_stable_and_sensitive(self):
        a = bundled_scenario("ghent_suburban")
        b = bundled_scenario("ghent_suburban")
        assert a.digest == b.digest
        assert a.digest != bundled_scenario("boyeros_rural").digest

    def test_digest_computed_once_per_scenario(self):
        sc = bundled_scenario("ghent_suburban")
        with mock.patch.object(scenario.yaml, "safe_dump",
                               wraps=yaml.safe_dump) as dump:
            assert sc.digest == sc.digest
            assert dump.call_count == 1
            # a changed copy hashes its own content
            other = dataclasses.replace(sc, base_seed=sc.base_seed + 1)
            assert other.digest != sc.digest
            assert dump.call_count == 2


BATTERY_CELLS = [(env, name, tech, mimo)
                 for env, name in (("suburban", "ghent_suburban"),
                                   ("rural", "boyeros_rural"))
                 for tech in ("802.22", "802.22b", "802.11af", "lte")
                 for mimo in ((False, True) if tech != "802.22" else (False,))]

BUNDLED_FILES = [("scenarios", "ghent_suburban"), ("scenarios", "boyeros_rural"),
                 ("technologies", "802_22"), ("technologies", "802_22b"),
                 ("technologies", "802_11af"), ("technologies", "lte"),
                 ("power", "tvws"), ("power", "macro")]


class TestBundledData:
    def test_battery_cells_parse_each_file_once(self):
        bundled_yaml.cache_clear()
        with mock.patch.object(yaml, "load", wraps=yaml.load) as parse:
            for env, name, tech, mimo in BATTERY_CELLS:
                bundled_scenario(name)
                load_power_params(load_technology(tech, env, mimo=mimo).power_model)
        assert len(BATTERY_CELLS) == 14
        assert parse.call_count == len(BUNDLED_FILES)
        # no loader altered the shared parsed mappings
        for folder, stem in BUNDLED_FILES:
            path = link_budget._data_dir() / folder / f"{stem}.yaml"
            assert bundled_yaml(folder, stem) == yaml.safe_load(path.read_text())

    def test_user_scenario_file_read_on_every_load(self, tmp_path):
        path = tmp_path / "mine.yaml"
        raw = bundled_yaml("scenarios", "ghent_suburban")
        path.write_text(yaml.safe_dump({**raw, "name": "first"}))
        assert load_scenario(path).name == "first"
        path.write_text(yaml.safe_dump({**raw, "name": "second"}))
        assert load_scenario(path).name == "second"

    def test_unknown_names_keep_their_errors(self):
        for _ in range(2):  # a failed lookup is not memoised
            with pytest.raises(FileNotFoundError,
                               match=r"no bundled scenario 'atlantis'; available: "):
                bundled_scenario("atlantis")
            with pytest.raises(FileNotFoundError,
                               match=r"no bundled technology 'wimax'; available: "):
                load_technology("wimax", "rural")
            with pytest.raises(FileNotFoundError,
                               match=r"no bundled power model 'solar'"):
                load_power_params("solar")


class TestLattice:
    def test_lattice_deterministic_and_contained(self):
        sc = bundled_scenario("ghent_suburban")
        s1 = sc.lattice_sites(20)
        s2 = sc.lattice_sites(20)
        assert [(s.x_km, s.y_km) for s in s1] == [(s.x_km, s.y_km) for s in s2]
        assert len(s1) == 20
        pts = np.array([[s.x_km, s.y_km] for s in s1])
        assert geometry.points_in_polygon(pts, sc.region.outline).all()

    def test_lattice_counts_exact(self):
        sc = bundled_scenario("boyeros_rural")
        for n in (1, 5, 13, 40):
            assert len(sc.lattice_sites(n)) == n

    def _fresh_key_scenario(self):
        # a policy seed no other test uses, so the first call builds
        sc = bundled_scenario("ghent_suburban")
        return dataclasses.replace(
            sc, site_policy=dataclasses.replace(sc.site_policy, seed=918_273))

    def test_lattice_built_once_per_key(self):
        sc = self._fresh_key_scenario()
        with mock.patch.object(geometry, "hex_lattice_sites",
                               wraps=geometry.hex_lattice_sites) as build:
            first = sc.lattice_sites(12)
            again = sc.lattice_sites(12)
            other = sc.lattice_sites(13)
        assert build.call_count == 2
        assert first == again and first is not again
        assert len(other) == 13

    def test_lattice_equals_unmemoised_build(self):
        sc = self._fresh_key_scenario()
        policy = sc.site_policy
        want = geometry.hex_lattice_sites(sc.region.outline, 9,
                                          policy.jitter_fraction, policy.seed + 9)
        got = sc.lattice_sites(9)
        assert [(s.x_km, s.y_km) for s in got] == [tuple(p) for p in want.tolist()]
        assert got == sc.lattice_sites(9)

    def test_lattice_coordinates_read_only(self):
        sc = bundled_scenario("boyeros_rural")
        policy = sc.site_policy
        pts = scenario._lattice_xy(sc.region.outline, 7,
                                   policy.jitter_fraction, policy.seed + 7)
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 0.0
        # a caller altering its site list leaves the memoised lattice alone
        sites = sc.lattice_sites(7)
        sites[0] = dataclasses.replace(sites[0], x_km=-99.0)
        assert sc.lattice_sites(7)[0].x_km == float(pts[0, 0])


    @pytest.mark.parametrize("name", ["ghent_suburban", "boyeros_rural"])
    def test_search_tests_a_bounded_share_of_each_grid(self, name):
        outline = bundled_scenario(name).region.outline
        for count in (1, 13, 40, 80):
            with mock.patch.object(geometry, "points_in_polygon",
                                   wraps=geometry.points_in_polygon) as test:
                geometry.hex_lattice_sites(outline, count, 0.3, count)
            tested = sum(len(call.args[0]) for call in test.call_args_list)
            assert tested < 250 * count, (count, tested)

    def test_thin_strip_search_stays_in_bounded_memory(self):
        # a 10 km x 10 m strip along the diagonal: its first bracket grid
        # alone holds ~50 M points, 783 MiB of coordinates; the search must
        # run under a 1.5 GiB address-space cap
        code = textwrap.dedent("""
            import math, resource
            from tvwsplan import geometry
            cap = 3 * 2**29
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            across, along = 0.01 / math.sqrt(2.0), 10.0 / math.sqrt(2.0)
            strip = ((0.0, 0.0), (along, along),
                     (along - across, along + across), (-across, across))
            try:
                print(len(geometry.hex_lattice_sites(strip, 200, 0.3, 1)))
            except ValueError as e:
                print(e)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() in (
            "200", "cannot fit requested site count inside region")


@functools.lru_cache(maxsize=None)
def reference_layout(vertices, count):
    """The former full-grid pitch search of `hex_lattice_sites`, kept as the
    oracle, up to its jitter step: (trimmed and ordered points, pitch).

    It is split there, and memoised, so one search serves every jitter value
    and seed of a (vertices, count) pair; the generator is first read by the
    jitter step.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    area = geometry.polygon_area(vertices)
    xmin, ymin, xmax, ymax = geometry.polygon_bbox(vertices)

    def lattice(pitch: float) -> np.ndarray:
        dy = pitch * math.sqrt(3.0) / 2.0
        rows = np.arange(ymin + 0.5 * dy, ymax, dy)
        pts = []
        for r, y in enumerate(rows):
            xs = np.arange(xmin + (0.25 if r % 2 == 0 else 0.75) * pitch, xmax, pitch)
            pts.append(np.column_stack([xs, np.full_like(xs, y)]))
        if not pts:
            return np.empty((0, 2))
        grid = np.vstack(pts)
        return grid[geometry.points_in_polygon(grid, vertices)]

    # bracket a pitch giving at least `count` interior points
    hi = math.sqrt(2.0 * area / (math.sqrt(3.0) * count)) * 2.0
    lo = hi / 64.0
    while len(lattice(lo)) < count:
        lo /= 2.0
        if lo < 1e-4:
            raise ValueError("cannot fit requested site count inside region")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(lattice(mid)) >= count:
            lo = mid
        else:
            hi = mid
    pts = lattice(lo)
    # drop surplus points farthest from the region centroid: keeps the core
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    order = np.argsort(np.hypot(*(pts - centroid).T), kind="stable")
    pts = pts[order[:count]]
    # stable ordering by (y, x) so ids do not depend on trimming order
    pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    return pts, lo


def reference_hex_lattice_sites(vertices, count, jitter_fraction, seed):
    pts, lo = reference_layout(tuple(map(tuple, vertices)), count)
    rng = np.random.Generator(np.random.PCG64(seed))
    if jitter_fraction > 0.0:
        jit = rng.uniform(-jitter_fraction * lo, jitter_fraction * lo, size=pts.shape)
        moved = pts + jit
        keep = geometry.points_in_polygon(moved, vertices)
        pts = np.where(keep[:, None], moved, pts)
    return pts


def assert_same_lattice(vertices, count, jitter_fraction, seed):
    want = reference_hex_lattice_sites(vertices, count, jitter_fraction, seed)
    got = geometry.hex_lattice_sites(vertices, count, jitter_fraction, seed)
    assert got.shape == want.shape == (count, 2)
    assert got.tobytes() == want.tobytes()


@st.composite
def histogram_outlines(draw):
    """Grid-snapped rectilinear outlines: columns of 0.5 km steps on a
    common base, so every other edge is horizontal and many vertices share
    a y."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    heights = draw(st.lists(st.integers(1, 6), min_size=len(widths),
                            max_size=len(widths)))
    x0, y0 = draw(st.integers(-20, 20)) * 0.5, draw(st.integers(-20, 20)) * 0.5
    edges = np.concatenate([[0], np.cumsum(widths)]) * 0.5 + x0
    outline = [(edges[0], y0), (edges[-1], y0)]
    for k in reversed(range(len(widths))):
        top = y0 + 0.5 * heights[k]
        outline += [(edges[k + 1], top), (edges[k], top)]
    # columns of equal height share a corner: drop the repeated vertex
    outline = [p for i, p in enumerate(outline) if p != outline[i - 1]]
    return tuple((float(x), float(y)) for x, y in outline)


class TestLatticeMatchesFullGridSearch:
    """The early-stopping search gives the former layout bit for bit."""

    @pytest.mark.parametrize("name", ["ghent_suburban", "boyeros_rural"])
    def test_bundled_outlines(self, name):
        outline = bundled_scenario(name).region.outline
        for count in range(1, 81):
            for jitter in (0.0, 0.3):
                assert_same_lattice(outline, count, jitter, 7 + count)

    def test_sparse_outline(self):
        # a diagonal strip fills a tenth of its box: near the final pitch the
        # grid spans several chunks before `count` points are inside
        strip = ((0.0, 0.0), (1.0, 0.0), (10.0, 9.0), (9.0, 9.0))
        for count in range(1, 41):
            assert_same_lattice(strip, count, 0.3, count)

    @settings(max_examples=30, deadline=None)
    @given(star_regions(), st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.3]),
           seeds)
    def test_random_simple_polygons(self, region, count, jitter, seed):
        assert_same_lattice(region.outline, count, jitter, seed)

    @settings(max_examples=30, deadline=None)
    @given(histogram_outlines(), st.integers(1, 30), st.sampled_from([0.0, 0.3]),
           seeds)
    def test_grid_snapped_outlines(self, outline, count, jitter, seed):
        assume(geometry.polygon_is_simple(outline))
        assert_same_lattice(outline, count, jitter, seed)

    def test_sliver_raises_the_same_error(self):
        sliver = ((0.0, 0.0), (10.0, 0.0), (5.0, 1e-5))
        with pytest.raises(ValueError) as old:
            reference_hex_lattice_sites(sliver, 50, 0.3, 1)
        with pytest.raises(ValueError) as new:
            geometry.hex_lattice_sites(sliver, 50, 0.3, 1)
        assert str(new.value) == str(old.value) == (
            "cannot fit requested site count inside region")


class TestGridCountMatchesContainment:
    """The row count, and the points collected from the same rows, equal
    `points_in_polygon` over the grid."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(histogram_outlines(), star_regions().map(lambda r: r.outline),
                     st.sampled_from([bundled_scenario(name).region.outline for name
                                      in ("ghent_suburban", "boyeros_rural")])),
           st.sampled_from([1.0, 2.0**20]), st.integers(0, 2**32 - 1))
    def test_matches_containment(self, outline, scale, seed):
        # at 2**20 km the products' rounding passes 1e-9, so a point at an
        # edge crossing need not count as on the edge
        outline = tuple((x * scale, y * scale) for x, y in outline)
        rng = np.random.default_rng(seed)
        v = np.asarray(outline, dtype=float)
        x1, y1 = v[:, 0], v[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        # rows on and just off the vertex ordinates
        rows = (y1[:, None] + [0.0, 1e-12, -1e-12, 1e-10, -1e-10]).ravel()
        rows = rows[rng.random(len(rows)) < 0.6].tolist()
        # xs on and just off each row's edge crossings, plus vertices and spread
        near = []
        for y in rows:
            cross = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            near.append(xc[cross])
        near = np.concatenate([np.empty(0), *near])
        offsets = [0.0, 1e-12, -1e-12, 3e-10, -3e-10, 2e-9, -2e-9]
        xmin, _, xmax, _ = geometry.polygon_bbox(outline)
        pool = np.concatenate([(near[:, None] + offsets).ravel(), x1,
                               rng.uniform(xmin - 1, xmax + 1, 40)])
        xs = [np.sort(rng.choice(pool, rng.integers(0, 300))).tolist()
              for _ in range(2)]
        grid = np.array([(x, y) for r, y in enumerate(rows)
                         for x in xs[r % 2]]).reshape(-1, 2)
        mask = geometry.points_in_polygon(grid, outline)
        inside = int(mask.sum())
        count, collect = geometry._grid_counter(outline)
        assert count(rows, xs, math.inf) == inside
        enough = int(rng.integers(1, inside + 2))
        assert (count(rows, xs, enough) >= enough) == (inside >= enough)
        # the collected points, in row-major order
        assert collect(rows, xs).tobytes() == grid[mask].tobytes()
