import copy
import gc
import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tvwsplan import planner
from tvwsplan.link_budget import (EnvironmentMargins, McsEntry,
                                  TechnologyProfile, load_technology,
                                  max_allowable_path_loss_db)
from tvwsplan.planner import (Deployment, PlannerConfig, RunOutcome,
                              _budget, _greedy_plan,
                              check_deployment, grow_site_set, plan_single_run,
                              run_campaign)
from tvwsplan.power_energy import (BsPowerInput, TvwsPowerParams,
                                   load_power_params, tvws_bs_power_w)
from tvwsplan.scenario import ScenarioError
from tvwsplan.propagation import (invert_range_km, link_loss_db,
                                  okumura_hata_rural, one_slope, path_loss_db)
from tvwsplan.scenario import (CandidateSite, PopulationSpec, Region,
                               Scenario, SitePolicy, UserPopulation,
                               generate_population)

CFG = PlannerConfig(runs=1, base_seed=42)


def manual_population(positions, demands):
    return UserPopulation(xy_km=np.array(positions, dtype=float).reshape(-1, 2),
                          demand_mbps=np.array(demands, dtype=float))


def greedy(scenario, pop, sites, profile, margins, model, power_params, config,
           mcs_label, seed) -> RunOutcome:
    """`_greedy_plan` against the budget a campaign of `scenario` resolves,
    with `mcs_label` as the planning MCS."""
    budget = _budget(scenario, profile, margins, model,
                     replace(config, mcs_label=mcs_label), power_params)
    return _greedy_plan(pop, sites, budget, model, seed)


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
        out = greedy(micro_scenario, pop, sites, micro_profile, micro_margins,
                     micro_model, tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.active_sites == {0}
        assert out.deployment.assignments == {0: 0}
        assert out.coverage_fraction == 1.0

    def test_lower_path_loss_site_wins(self, micro_scenario, micro_profile,
                                       micro_margins, micro_model, tvws_power):
        pop = manual_population([(1.0, 1.5)], [1.0])
        sites = [CandidateSite(0, 0.8, 1.5, 30.0), CandidateSite(1, 2.0, 1.5, 30.0)]
        out = greedy(micro_scenario, pop, sites, micro_profile, micro_margins,
                     micro_model, tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.active_sites == {0}  # 0.2 km beats 1.0 km
        assert out.deployment.assignments[0] == 0

    def test_rebalance_moves_user_to_closer_new_site(self, micro_scenario,
                                                     micro_margins, micro_model,
                                                     tvws_power):
        # capacity 2: user0 -> A; user1 prefers (inactive) B but connects to
        # A; user2 fills B on; the rebalance pass then moves user1 to B
        prof = profile_with_capacity(2.0)
        sites = [CandidateSite(0, 0.8, 1.5, 30.0), CandidateSite(1, 2.6, 1.5, 30.0)]
        pop = manual_population([(0.6, 1.5), (1.8, 1.5), (2.8, 1.5)],
                                [1.0, 1.0, 1.0])
        out = greedy(micro_scenario, pop, sites, prof, micro_margins,
                     micro_model, tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.assignments == {0: 0, 1: 1, 2: 1}
        assert ("switch", 1, 0, 1) in out.event_log

    def test_rebalance_moves_users_toward_the_new_site_only(
            self, micro_scenario, micro_margins, micro_model, tvws_power):
        # capacity 2, sites A(0) B(1) C(2) on a line.  user0 opens B; user1
        # joins B although the inactive C is closer; user2 finds B full and
        # opens A; user3 opens C.  Re-balancing then moves user1 from B to C,
        # which frees B, but user2 stays on A: B is not the new site.
        prof = profile_with_capacity(2.0)
        sites = [CandidateSite(0, 0.0, 1.5, 30.0), CandidateSite(1, 1.0, 1.5, 30.0),
                 CandidateSite(2, 2.0, 1.5, 30.0)]
        pop = manual_population([(1.0, 1.5), (1.6, 1.5), (0.7, 1.5), (2.3, 1.5)],
                                [1.0] * 4)
        out = greedy(micro_scenario, pop, sites, prof, micro_margins,
                     micro_model, tvws_power, CFG, "1/2 QPSK", 0)
        assert out.deployment.assignments == {0: 1, 1: 2, 2: 0, 3: 2}
        assert ("switch", 2, 0, 1) not in out.event_log

    def test_uncovered_when_out_of_range(self, micro_scenario, micro_profile,
                                         micro_margins, tvws_power):
        far_model = one_slope(145.0, 1.0, 3.5)  # floor above PL_max: no reach
        pop = manual_population([(1.0, 1.5), (3.0, 1.5)], [1.0, 1.0])
        sites = [CandidateSite(0, 0.8, 1.5, 30.0)]
        out = greedy(micro_scenario, pop, sites, micro_profile, micro_margins,
                     far_model, tvws_power, CFG, "1/2 QPSK", 0)
        assert out.coverage_fraction == 0.0
        assert out.deployment.active_sites == set()
        assert out.deployment.uncovered_users == {0, 1}

    def test_empty_site_list_rejected(self, micro_scenario, micro_profile):
        with pytest.raises(ValueError, match="empty"):
            plan_single_run(micro_scenario, micro_profile, CFG, 42, sites=[])

    def test_repeated_site_ids_rejected(self, micro_scenario, micro_profile,
                                        micro_margins, micro_model, micro_sites,
                                        tvws_power):
        # a repeated id would make the checker judge links against the wrong site
        twin = [*micro_sites, replace(micro_sites[2], id=micro_sites[0].id)]
        args = (micro_scenario, micro_profile, micro_margins, micro_model)
        with pytest.raises(ValueError, match=r"repeat: \[0\]"):
            run_campaign(*args, tvws_power, CFG, sites=twin)
        with pytest.raises(ValueError, match=r"repeat: \[0\]"):
            plan_single_run(micro_scenario, micro_profile, CFG, 42, sites=twin)
        out = plan_single_run(micro_scenario, micro_profile, CFG, 42, sites=micro_sites)
        with pytest.raises(ValueError, match=r"repeat: \[0\]"):
            check_deployment(out, *args, CFG, twin)

    def test_capacity_respected(self, micro_scenario, micro_profile,
                                micro_margins, micro_model, tvws_power):
        # 5 users of 1.0 against a single 3.2 Mbps site: 3 served, 2 uncovered
        pop = manual_population([(1.0, 1.5)] * 5, [1.0] * 5)
        sites = [CandidateSite(0, 0.8, 1.5, 30.0)]
        out = greedy(micro_scenario, pop, sites, micro_profile, micro_margins,
                     micro_model, tvws_power, CFG, "1/2 QPSK", 0)
        assert len(out.deployment.assignments) == 3
        assert len(out.deployment.uncovered_users) == 2
        assert out.deployment.per_site_served_mbps[0] <= 3.2 + 1e-9


def test_one_int_object_per_user(micro_scenario, micro_profile, micro_margins,
                                 micro_model, tvws_power):
    # CPython shares only the ints up to 256: a larger user id must still be
    # one object across the event log, the assignment keys and the uncovered set
    sites = [CandidateSite(0, 0.8, 1.5, 30.0), CandidateSite(1, 3.2, 1.5, 30.0)]
    # users 150-299 join site 0 and move to site 1 once user 300 opens it;
    # user 301 is out of range
    pop = manual_population([(1.0, 1.5)] * 150 + [(2.1, 1.5)] * 150
                            + [(3.2, 1.5), (20.0, 20.0)], [0.01] * 302)
    out = greedy(micro_scenario, pop, sites, micro_profile, micro_margins,
                 micro_model, tvws_power, CFG, "1/2 QPSK", 0)
    logged = [e[1] for e in out.event_log if e[0] != "activate"]
    assert {e[0] for e in out.event_log if e[0] != "activate" and e[1] > 256} == \
        {"connect", "switch", "uncovered"}
    dep = out.deployment
    assert len({id(u) for u in [*logged, *dep.assignments, *dep.uncovered_users]}) \
        <= len(pop)


def test_one_int_object_per_user_across_runs(micro_scenario, micro_profile):
    # every run of a campaign reuses one id object per user row: two runs of
    # 300 voice users (twice the three sites' capacity) log ids above 256
    spec = replace(micro_scenario.population, user_count=300, data_fraction=0.0)
    camp = planner.plan(replace(micro_scenario, population=spec), micro_profile,
                        PlannerConfig(runs=2, base_seed=42))[0]
    ids = [u for o in camp.outcomes
           for u in (*(e[1] for e in o.event_log if e[0] != "activate"),
                     *o.deployment.assignments, *o.deployment.uncovered_users)]
    assert all(max(e[1] for e in o.event_log if e[0] != "activate") > 256
               for o in camp.outcomes)
    assert len({id(u) for u in ids}) <= 300


def test_event_log_reads_as_its_tuple(micro_scenario, micro_margins, tvws_power):
    # the stored log answers as the tuple of event tuples it encodes
    sites, pop, label, seed = KIND_LAYOUTS["activate", "connect", "switch",
                                           "uncovered"]
    log = greedy(micro_scenario, pop, sites, TIERED, micro_margins,
                 one_slope(108.0, 1.0, 3.5), tvws_power, CFG, label, seed).event_log
    events = tuple(log)
    assert isinstance(log, planner.EventLog)
    assert events == (("activate", 100), ("connect", 0, 100), ("connect", 1, 100),
                      ("activate", 101), ("connect", 2, 101),
                      ("switch", 1, 100, 101), ("uncovered", 3))
    assert log == events and events == log and not log != events
    assert log != events[:-1] and events[:-1] != log and log != list(events)
    assert all(e in log for e in events) and ("connect", 3, 100) not in log
    assert (len(log), hash(log), repr(log)) == (len(events), hash(events),
                                                repr(events))
    again = pickle.loads(pickle.dumps(log))
    assert type(again) is type(log) and again == log and repr(again) == repr(events)


def test_event_log_decodes_once_per_read(monkeypatch, micro_scenario,
                                         micro_margins, tvws_power):
    # `len` steps over the codes, so no read decodes a log twice
    logs = [greedy(micro_scenario, pop, sites, TIERED, micro_margins,
                   one_slope(108.0, 1.0, 3.5), tvws_power, CFG, label,
                   seed).event_log
            for sites, pop, label, seed in KIND_LAYOUTS.values()]
    assert all(len(log) == len(tuple(log)) for log in logs)  # all six kinds
    log = logs[0]
    events, twin = tuple(log), planner.EventLog(list(log.codes), log.site_ids)
    decoded, decode = [], planner.EventLog._events
    monkeypatch.setattr(planner.EventLog, "_events",
                        lambda self: decoded.append(self) or decode(self))
    for read, operands in ((repr, [log]), (hash, [log]), (tuple, [log]),
                           (len, []), (lambda x: x == events, [log]),
                           (lambda x: events == x, [log]),
                           (lambda x: x == twin, [log, twin])):
        decoded.clear()
        read(log)
        assert sorted(map(id, decoded)) == sorted(map(id, operands))


# served users below and above 256 at both sites; users 5 and 301 are out of
# range.  Users 150-299 join site 0 and move to site 1 once user 300 opens it.
PARITY_SITES = [CandidateSite(0, 0.8, 1.5, 30.0), CandidateSite(1, 3.2, 1.5, 30.0)]
PARITY_POP = manual_population(
    [(20.0, 20.0) if u in (5, 301) else (1.0, 1.5) if u < 150
     else (2.1, 1.5) if u < 300 else (3.2, 1.5) for u in range(302)],
    [0.01] * 302)


@pytest.fixture
def parity_run(micro_scenario, micro_profile, micro_margins, micro_model,
               tvws_power):
    """(the kernel's assignment, the former loop's dict) of one run."""
    args = (micro_profile, micro_margins, micro_model, tvws_power)
    got = greedy(micro_scenario, PARITY_POP, PARITY_SITES, *args, CFG,
                 "1/2 QPSK", 0)
    want = greedy_plan_oracle(PARITY_POP, PARITY_SITES, *args, "1/2 QPSK", 0)
    return got.deployment.assignments, want.deployment.assignments


class TestAssignments:
    """The stored assignment reads as the dict it replaces."""

    def test_reads_as_its_dict(self, parity_run):
        view, want = parity_run
        assert isinstance(view, planner.Assignments) and type(want) is dict
        assert set(range(302)) - set(want) == {5, 301}
        assert {want[u] for u in (0, 299, 300)} == {0, 1} and want[299] == 1
        assert view == want and want == view
        assert not view != want and not want != view
        moved, short = {**want, 0: 1}, dict(list(want.items())[:-1])
        for other in (moved, short, {**want, 5: 0}):
            assert view != other and other != view
            assert not view == other and not other == view
        for key in (0, 4, 200, 299, 300, 5, 301, -1, 9999, 0.0):
            assert (key in view) == (key in want), key
            if key in want:
                assert view[key] == want[key]
            else:
                with pytest.raises(KeyError) as miss:
                    view[key]
                assert miss.value.args == (key,)
        assert len(view) == len(want) == 300
        assert list(view.items()) == list(want.items())
        assert list(view) == list(view.keys()) == list(want)
        assert type(dict(view)) is dict and dict(view) == want
        assert repr(view) == repr(want)

    def test_unpickles_in_a_fresh_process(self, parity_run):
        # the keys come from the reading process's user ids, not the pickle
        view, want = parity_run
        src = str(Path(planner.__file__).resolve().parents[1])
        code = ("import pickle, sys\n"
                "from tvwsplan import planner, records\n"
                "view, want = pickle.loads(sys.stdin.buffer.read())\n"
                "assert records._user_ids == [] and type(view) is planner.Assignments\n"
                "assert view == want and want == view and len(view) == len(want)\n"
                "assert list(view.items()) == list(want.items())\n"
                "print(repr(view))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps((view, want)),
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode() == repr(want) + "\n"

    def test_retains_a_few_bytes_per_user(self, micro_scenario, micro_profile,
                                          micro_margins, micro_model, tvws_power):
        # one list slot per user: the dicts it replaces retained about 40 bytes
        users, runs = 300, 10
        spec = replace(micro_scenario.population, user_count=users,
                       data_fraction=0.0)
        sites = [CandidateSite(i, x, y, 30.0) for i, (x, y) in enumerate(
            itertools.product((0.5, 1.5, 2.5, 3.5), (0.5, 1.5, 2.5)))]
        gc.collect()
        tracemalloc.start()
        try:
            result = run_campaign(replace(micro_scenario, population=spec),
                                  micro_profile, micro_margins, micro_model,
                                  tvws_power, PlannerConfig(runs=runs, base_seed=42),
                                  sites=sites)
            served = sum(len(o.deployment.assignments) for o in result.outcomes)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            for o in result.outcomes:
                o.deployment.assignments = None
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert served > 0.9 * users * runs
        assert 0 < held <= 12 * users * runs


def greedy_plan_oracle(pop, sites, profile, margins, model, power_params,
                       mcs_label, seed) -> RunOutcome:
    """The former per-user loop of `planner._greedy_plan`, kept as the
    reference: it sorts the active sites for every user and scans lists."""
    n_users = len(pop)
    n_sites = len(sites)
    site_ids = [s.id for s in sites]
    pl = link_loss_db(model, pop.xy_km[:, None], [(s.x_km, s.y_km) for s in sites])

    mcs = profile.mcs(mcs_label)
    pl_max = max_allowable_path_loss_db(profile, margins, mcs)
    capacity = mcs.bitrate_at(profile.bandwidth_mhz)

    def link_cost(u, j):
        if pl[u, j] > pl_max:
            return None
        return float(pop.demand_mbps[u])

    active = []
    load = np.zeros(n_sites)
    assign = {}
    uncovered = []
    log = []

    nearest = np.argsort(pl, axis=1, kind="stable")

    def try_connect(u):
        for j in sorted(active, key=lambda j: (pl[u, j], j)):
            cost = link_cost(u, j)
            if cost is None:
                continue
            if load[j] + cost <= capacity + 1e-9:
                assign[u] = j
                load[j] += cost
                log.append(("connect", u, site_ids[j]))
                return True
            log.append(("reject_capacity", u, site_ids[j]))
        return False

    def rebalance(j):
        for u in sorted(assign):
            cur = assign[u]
            if j == cur or pl[u, j] >= pl[u, cur]:
                continue
            cost = link_cost(u, j)
            if cost is None:
                continue
            if load[j] + cost <= capacity + 1e-9:
                old_cost = link_cost(u, cur)
                load[cur] -= old_cost
                load[j] += cost
                assign[u] = j
                log.append(("switch", u, site_ids[cur], site_ids[j]))
            else:
                log.append(("switch_reject", u, site_ids[j]))

    for u in range(n_users):
        if try_connect(u):
            continue
        chosen = None
        for j in nearest[u]:
            j = int(j)
            if j in active:
                continue
            cost = link_cost(u, j)
            if cost is not None and cost <= capacity + 1e-9:
                chosen = j
                break
        if chosen is None:
            uncovered.append(u)
            log.append(("uncovered", u))
            continue
        active.append(chosen)
        log.append(("activate", site_ids[chosen]))
        assign[u] = chosen
        load[chosen] += link_cost(u, chosen)
        log.append(("connect", u, site_ids[chosen]))
        rebalance(chosen)

    bs_power = tvws_bs_power_w(power_params,
                               BsPowerInput(1, profile.n_transmitters, 4.0, 1.0))
    served = {site_ids[j]: 0.0 for j in active}
    for u, j in assign.items():
        served[site_ids[j]] += float(pop.demand_mbps[u])
    deployment = Deployment(
        active_sites={site_ids[j] for j in active},
        assignments={u: site_ids[j] for u, j in assign.items()},
        per_site_served_mbps=served,
        per_site_power_w={site_ids[j]: bs_power for j in active},
        uncovered_users=set(uncovered))
    coverage = 1.0 - len(uncovered) / n_users if n_users else 1.0
    return RunOutcome(seed=seed, coverage_fraction=coverage, deployment=deployment,
                      total_power_w=bs_power * len(active),
                      served_mbps_total=sum(served.values()),
                      event_log=tuple(log))


# three tiers on 1 MHz: PL_max 120 / 114 / 108 dB, that is about 2.2, 1.5 and
# 1.0 km under one_slope(108, 1, 3.5)
TIERED = TechnologyProfile(
    name="tiered", eirp_dbm=20.0, freq_mhz=600.0, bandwidth_mhz=1.0,
    total_subcarriers=64, used_subcarriers=64, sampling_factor=1.0,
    interference_margin_db=0.0, mimo_gain_db=0.0,
    rx_antenna_gain_db=0.0, rx_feeder_loss_db=0.0, rx_noise_figure_db=5.0,
    mcs_table=(McsEntry("low", 6.0, {1: 3.2}), McsEntry("mid", 12.0, {1: 6.4}),
               McsEntry("top", 18.0, {1: 9.6})))
# near the 3.2 / 6.4 / 9.6 Mbps capacities, so that reject_capacity, switch
# and switch_reject all occur
DEMANDS = (0.064, 0.5, 1.0, 1.6, 2.1, 3.1, 3.2, 3.3, 4.8, 6.4, 9.6, 9.7)


@st.composite
def greedy_layouts(draw):
    """Sites on a 0.5 km grid with repeated coordinates (exact path-loss
    ties), users inside, on top of sites (the distance floor ties them too)
    or 20 km out (out of range of every site)."""
    grid = st.tuples(st.integers(0, 8), st.integers(0, 6)).map(
        lambda p: (0.5 * p[0], 0.5 * p[1]))
    coords = draw(st.lists(grid, min_size=1, max_size=12))
    coords += draw(st.lists(st.sampled_from(coords), max_size=12))
    coords = draw(st.permutations(coords))
    ids = draw(st.permutations(range(100, 100 + len(coords))))
    sites = [CandidateSite(i, x, y, 30.0) for i, (x, y) in zip(ids, coords)]
    # one user in ten far out, two in ten on a site, the rest anywhere inside
    user = st.tuples(st.integers(0, 9),
                     st.tuples(st.floats(-0.5, 4.5), st.floats(-0.5, 3.5)),
                     st.sampled_from(coords)).map(
        lambda t: (20.0, 20.0) if t[0] == 0 else t[2] if t[0] <= 2 else t[1])
    n_users = draw(st.integers(0, 60))
    positions = draw(st.lists(user, min_size=n_users, max_size=n_users))
    demands = draw(st.lists(st.sampled_from(DEMANDS), min_size=n_users,
                            max_size=n_users))
    label = draw(st.sampled_from([m.label for m in TIERED.mcs_table]))
    seed = draw(st.integers(0, 2**32 - 1))
    return sites, manual_population(positions, demands), label, seed


@st.composite
def sparse_layouts(draw):
    """Layouts shaped like the dense-lattice benchmark: 40-64 sites of a
    2.5 km grid over about 20 km, a few repeated (exact path-loss ties), and
    users who each have 0-4 sites in range under the lowest tier's 2.2 km.
    Users sit anywhere, in a 5 km hot spot (so that they compete for a few
    sites), on a site (the distance floor ties them) or midway between two
    grid neighbours (equal distance to both)."""
    grid = [(2.5 * i, 2.5 * j) for i in range(8) for j in range(8)]
    dropped = draw(st.sets(st.sampled_from(grid), max_size=24))
    coords = [p for p in grid if p not in dropped]
    coords += draw(st.lists(st.sampled_from(coords), max_size=4))
    coords = draw(st.permutations(coords))
    ids = draw(st.permutations(range(100, 100 + len(coords))))
    sites = [CandidateSite(i, x, y, 30.0) for i, (x, y) in zip(ids, coords)]
    midway = st.tuples(st.integers(0, 6), st.integers(0, 7)).map(
        lambda p: (2.5 * p[0] + 1.25, 2.5 * p[1]))
    hx, hy = draw(st.tuples(st.floats(0.0, 12.5), st.floats(0.0, 12.5)))
    user = st.one_of(st.tuples(st.floats(-1.0, 18.5), st.floats(-1.0, 18.5)),
                     st.tuples(st.floats(hx, hx + 5.0), st.floats(hy, hy + 5.0)),
                     st.sampled_from(coords), midway)
    n_users = draw(st.integers(0, 120))
    positions = draw(st.lists(user, min_size=n_users, max_size=n_users))
    demands = draw(st.lists(st.sampled_from(DEMANDS), min_size=n_users,
                            max_size=n_users))
    label = draw(st.sampled_from([m.label for m in TIERED.mcs_table]))
    seed = draw(st.integers(0, 2**32 - 1))
    return sites, manual_population(positions, demands), label, seed


def assert_same_run(got, want):
    assert repr(got.event_log) == repr(want.event_log)
    assert got == want
    # insertion order feeds the served-traffic sums
    for field in ("assignments", "per_site_served_mbps", "per_site_power_w"):
        assert list(getattr(got.deployment, field).items()) == \
            list(getattr(want.deployment, field).items())


def assert_kernel_equals_oracle(layout, scenario, margins, power_params):
    """Kernel and former loop agree at the layout's planning MCS."""
    sites, pop, label, seed = layout
    model = one_slope(108.0, 1.0, 3.5)
    assert_same_run(
        greedy(scenario, pop, sites, TIERED, margins, model, power_params, CFG,
               label, seed),
        greedy_plan_oracle(pop, sites, TIERED, margins, model, power_params,
                           label, seed))


# hand-built layouts that reach each event kind they are listed under, at
# the "low" tier (3.2 Mbps per site, about 2.2 km).  Users 0 and 1 join site
# 100; user 2, beyond its reach, opens site 101, nearer to user 1, which
# switches to it, or is refused when site 101 is full.  User 1 of the second
# layout finds site 100 full, and no other site in range.
NEAR, FAR = CandidateSite(100, 0.8, 1.5, 30.0), CandidateSite(101, 3.2, 1.5, 30.0)
KIND_LAYOUTS = {
    ("activate", "connect", "switch", "uncovered"): (
        [NEAR, FAR], manual_population(
            [(1.0, 1.5), (2.1, 1.5), (3.2, 1.5), (20.0, 20.0)], [0.5] * 4), "low", 0),
    ("reject_capacity",): (
        [NEAR], manual_population([(1.0, 1.5), (1.1, 1.5)], [3.1, 1.0]), "low", 0),
    ("switch_reject",): (
        [NEAR, FAR], manual_population([(1.0, 1.5), (2.1, 1.5), (3.2, 1.5)],
                                       [0.5, 1.0, 3.1]), "low", 0),
}


class TestGreedyKernelOracle:
    @settings(max_examples=150, deadline=None)
    @given(layout=greedy_layouts())
    def test_kernel_equals_former_loop(self, layout, micro_scenario,
                                       micro_margins, tvws_power):
        assert_kernel_equals_oracle(layout, micro_scenario, micro_margins,
                                    tvws_power)

    @settings(max_examples=50, deadline=None)
    @given(layout=sparse_layouts())
    @example(layout=([CandidateSite(100 + i, 2.5 * i, 0.0, 30.0) for i in range(8)],
                     manual_population([], []), "low", 0))
    def test_kernel_equals_former_loop_on_sparse_reach(
            self, layout, micro_scenario, micro_margins, tvws_power):
        assert_kernel_equals_oracle(layout, micro_scenario, micro_margins,
                                    tvws_power)

    def test_layouts_reach_every_event_kind(self, micro_scenario, micro_margins,
                                            tvws_power):
        # each decision the kernel makes is compared with the former loop on
        # a fixed layout, whatever Hypothesis draws for the tests above
        assert set().union(*KIND_LAYOUTS) == set(planner.EVENT_KINDS)
        for kinds, layout in KIND_LAYOUTS.items():
            sites, pop, label, seed = layout
            out = greedy(micro_scenario, pop, sites, TIERED, micro_margins,
                         one_slope(108.0, 1.0, 3.5), tvws_power, CFG, label, seed)
            assert set(kinds) <= {e[0] for e in out.event_log}, kinds
            assert_kernel_equals_oracle(layout, micro_scenario, micro_margins,
                                        tvws_power)


@st.composite
def link_cases(draw):
    """A model of either variant, 1-8 sites on a 0.5 km grid (repeated
    coordinates tie), 0-30 users on a site, midway between two sites (equal
    distances), more than 20 km out (beyond Hata validity) or anywhere
    nearby, and a budget: below the floor, past every pair, exactly the path
    loss of one pair, or anywhere between."""
    model = draw(st.sampled_from([one_slope(108.0, 1.0, 3.5),
                                  okumura_hata_rural(600.0, 30.0, 3.0)]))
    grid = st.tuples(st.integers(0, 8), st.integers(0, 6)).map(
        lambda p: (0.5 * p[0], 0.5 * p[1]))
    sites = draw(st.lists(grid, min_size=1, max_size=8))
    sites += draw(st.lists(st.sampled_from(sites), max_size=3))
    midway = st.tuples(st.sampled_from(sites), st.sampled_from(sites)).map(
        lambda p: ((p[0][0] + p[1][0]) / 2, (p[0][1] + p[1][1]) / 2))
    user = st.one_of(st.sampled_from(sites), midway,
                     st.tuples(st.floats(25.0, 40.0), st.floats(-40.0, 40.0)),
                     st.tuples(st.floats(-0.5, 4.5), st.floats(-0.5, 3.5)))
    users = draw(st.lists(user, max_size=30))
    budget = draw(st.one_of(st.sampled_from(["below", "past", "pair"]),
                            st.floats(60.0, 160.0)))
    pick = draw(st.floats(0.0, 1.0, exclude_max=True))
    return (model, np.reshape(users, (-1, 2)).astype(float),
            np.reshape(sites, (-1, 2)).astype(float), budget, pick)


def full_table(model, xy, site_xy, pl_max):
    """(user, site, path loss) of the in-budget pairs of the full matrix."""
    pl = link_loss_db(model, xy[:, None], site_xy)
    flat = np.flatnonzero(pl <= pl_max)
    return (*np.divmod(flat, len(site_xy)), pl.ravel()[flat])


class TestPrunedLinkTable:
    @settings(max_examples=300, deadline=None)
    @given(case=link_cases())
    def test_pruned_table_equals_full_matrix(self, case):
        model, xy, site_xy, budget, pick = case
        pl = link_loss_db(model, xy[:, None], site_xy).ravel()
        if budget == "below":
            pl_max = path_loss_db(model, model.min_distance_km) - 1.0
        elif budget == "past":
            pl_max = pl.max(initial=0.0) + 1.0
        elif budget == "pair":  # on the budget's edge: the margin decides
            pl_max = pl[int(pick * pl.size)] if pl.size else 100.0
        else:
            pl_max = budget
        got = planner._in_budget(model, xy, site_xy, pl_max)
        want = full_table(model, xy, site_xy, pl_max)
        assert [(a.dtype, a.tobytes()) for a in got] == \
            [(a.dtype, a.tobytes()) for a in want]

    def test_path_loss_only_where_a_link_can_exist(self, micro_scenario,
                                                   micro_margins, tvws_power):
        # 64 sites 2.5 km apart and 600 users: under the lowest tier's 2.2 km
        # reach each user has a few sites in range
        rng = np.random.default_rng(5)
        sites = [CandidateSite(i, 2.5 * (i % 8), 2.5 * (i // 8), 30.0)
                 for i in range(64)]
        pop = manual_population(rng.uniform(-1.0, 18.5, (600, 2)),
                                rng.choice(DEMANDS, 600))
        model = one_slope(108.0, 1.0, 3.5)
        cells = []

        def counted(*args):
            pl = link_loss_db(*args)
            cells.append(pl.size)
            return pl

        with mock.patch.object(planner, "link_loss_db", counted):
            greedy(micro_scenario, pop, sites, TIERED, micro_margins, model,
                   tvws_power, CFG, "low", 0)
        dist = np.linalg.norm(pop.xy_km[:, None] -
                              [(s.x_km, s.y_km) for s in sites], axis=-1)
        reach = invert_range_km(model, max_allowable_path_loss_db(
            TIERED, micro_margins, TIERED.mcs("low")))
        in_reach = np.count_nonzero(dist <= reach)
        assert in_reach < dist.size / 10
        assert sum(cells) <= in_reach


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
            micro_sites):
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
        out = plan_single_run(micro_scenario, micro_profile, CFG, 42,
                              sites=micro_sites)
        greedy_covered = len(out.deployment.assignments)
        greedy_active = len(out.deployment.active_sites)
        # recorded optimality gap: none on this fixture
        assert greedy_covered == opt_covered
        assert greedy_active == opt_active

    def test_event_log_replays_exactly(self, micro_scenario, micro_profile,
                                       micro_sites):
        args = (micro_scenario, micro_profile, CFG, 42)
        out = plan_single_run(*args, sites=micro_sites)
        assert plan_single_run(*args, sites=micro_sites).event_log == out.event_log


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
                                       micro_margins, micro_model, micro_sites):
        out = plan_single_run(micro_scenario, micro_profile, CFG, 42, sites=micro_sites)
        out.deployment.per_site_served_mbps[
            next(iter(out.deployment.active_sites))] += 5.0
        problems = check_deployment(out, micro_scenario, micro_profile,
                                    micro_margins, micro_model, CFG, micro_sites)
        assert any("served traffic disagrees with record" in p for p in problems)

    @pytest.mark.parametrize("tamper, verdict", [
        ("deactivate_a_serving_site", "assigned to inactive site"),
        ("move_farthest_user_to_site_0", "exceeds PL_max"),
        ("crowd_the_middle_site", "> capacity"),
        ("mark_a_served_user_uncovered", "uncovered set does not match"),
        ("misstate_coverage", "coverage fraction inconsistent"),
        ("assign_user_9999", "user 9999 is not one of the 12 users"),
        ("assign_user_minus_1", "user -1 is not one of the 12 users"),
        ("key_a_user_by_float", "user 0.0 is not one of the 12 users"),
        ("move_a_user_to_site_99", "active site 99 is not a candidate"),
        ("double_a_site_power", "power disagrees with the station draw"),
        ("make_a_site_power_nan", "power disagrees with the station draw"),
        ("misstate_total_power", "total power is not the station draw"),
        ("misstate_served_total", "served total disagrees"),
        ("record_site_7", "site 7 has a per-site record but is not active")])
    def test_each_tampering_gets_its_verdict(self, micro_scenario, micro_profile,
                                             micro_margins, micro_model,
                                             micro_sites, tvws_power, tamper,
                                             verdict):
        # micro run at seed 42: all three sites active, 9 of 12 users served
        args = (micro_scenario, micro_profile, micro_margins, micro_model)
        out = run_campaign(*args, tvws_power, CFG, sites=micro_sites).outcomes[0]
        assert check_deployment(out, *args, CFG, micro_sites) == []
        out = copy.deepcopy(out)
        dep = out.deployment
        dep.assignments = dict(dep.assignments.items())  # the planner's is read-only
        pop = generate_population(micro_scenario.region,
                                  micro_scenario.population, out.seed)
        if tamper == "deactivate_a_serving_site":
            dep.active_sites.discard(dep.assignments[min(dep.assignments)])
        elif tamper == "move_farthest_user_to_site_0":
            s = micro_sites[0]
            far = max(dep.assignments, key=lambda u: math.hypot(
                pop.xy_km[u, 0] - s.x_km, pop.xy_km[u, 1] - s.y_km))
            dep.assignments[far] = s.id
        elif tamper == "crowd_the_middle_site":  # 9 Mbps against 3.2
            dep.assignments = dict.fromkeys(dep.assignments, micro_sites[1].id)
        elif tamper == "mark_a_served_user_uncovered":
            dep.uncovered_users.add(min(dep.assignments))
        elif tamper == "misstate_coverage":
            out.coverage_fraction -= 0.25
        elif tamper == "assign_user_9999":
            dep.assignments[9999] = micro_sites[0].id
        elif tamper == "assign_user_minus_1":  # would index the last user
            dep.assignments[-1] = micro_sites[0].id
        elif tamper == "key_a_user_by_float":
            dep.assignments[0.0] = dep.assignments.pop(min(dep.assignments))
        elif tamper == "move_a_user_to_site_99":
            dep.active_sites.add(99)
            dep.assignments[min(dep.assignments)] = 99
        elif tamper == "double_a_site_power":
            dep.per_site_power_w[micro_sites[0].id] *= 2
        elif tamper == "make_a_site_power_nan":
            dep.per_site_power_w[micro_sites[0].id] = math.nan
        elif tamper == "misstate_total_power":
            out.total_power_w += 1.0
        elif tamper == "misstate_served_total":
            out.served_mbps_total += 1.0
        elif tamper == "record_site_7":
            dep.per_site_power_w[7] = dep.per_site_power_w[micro_sites[0].id]
        problems = check_deployment(out, *args, CFG, micro_sites)
        assert any(verdict in p for p in problems), problems

    @pytest.mark.parametrize("fault", [
        lambda b: replace(b, capacity=2 * b.capacity),
        lambda b: replace(b, pl_max=b.pl_max + 3.0)], ids=["capacity", "pl_max"])
    def test_checker_derives_its_own_budget(self, monkeypatch, fault):
        # a planner that plans against a wrong budget must not fool the checker
        from tvwsplan.scenario import bundled_scenario
        budget = planner._budget
        monkeypatch.setattr(planner, "_budget",
                            lambda *args, **kw: fault(budget(*args, **kw)))
        sc = bundled_scenario("ghent_suburban")
        prof = load_technology("802.22b", "suburban")
        cfg = PlannerConfig(runs=40, base_seed=sc.base_seed)
        result, _ = planner.plan(sc, prof, cfg)
        assert sum(len(check_deployment(o, sc, prof, sc.margins, sc.model_for(prof),
                                        cfg, result.sites))
                   for o in result.outcomes) > 0

    def test_config_values_validated(self):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            PlannerConfig(runs=0)


class TestDeterminism:
    def test_identical_runs_bitwise(self, micro_scenario, micro_profile,
                                    micro_sites):
        a = plan_single_run(micro_scenario, micro_profile, CFG, 42, sites=micro_sites)
        b = plan_single_run(micro_scenario, micro_profile, CFG, 42, sites=micro_sites)
        assert a.event_log == b.event_log
        assert a.deployment.assignments == b.deployment.assignments
        assert a.total_power_w == b.total_power_w

    def test_repeated_campaigns_bitwise(self, micro_scenario, micro_profile,
                                        micro_margins, micro_model, micro_sites,
                                        tvws_power):
        args = (micro_scenario, micro_profile, micro_margins, micro_model,
                tvws_power, PlannerConfig(runs=6, base_seed=11))
        a, b = (run_campaign(*args, sites=micro_sites) for _ in range(2))
        assert [o.event_log for o in a.outcomes] == \
            [o.event_log for o in b.outcomes]
        assert (a.mean_coverage, a.progressive_coverage) == \
            (b.mean_coverage, b.progressive_coverage)

    def test_shorter_campaign_repeats_the_first_runs(
            self, micro_scenario, micro_profile, micro_margins, micro_model,
            micro_sites, tvws_power):
        # run i depends only on its seed, not on the runs before it
        args = (micro_scenario, micro_profile, micro_margins, micro_model,
                tvws_power)
        long, short = (run_campaign(*args, PlannerConfig(runs=n, base_seed=11),
                                    sites=micro_sites) for n in (6, 3))
        assert [o.event_log for o in short.outcomes] == \
            [o.event_log for o in long.outcomes[:3]]
        assert short.progressive_coverage == long.progressive_coverage[:3]


class TestCampaign:
    def test_single_run_campaign_equals_plan(self, micro_scenario, micro_profile,
                                             micro_margins, micro_model,
                                             micro_sites, tvws_power):
        cfg = PlannerConfig(runs=1, base_seed=42)
        camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                            micro_model, tvws_power, cfg, sites=micro_sites)
        single = plan_single_run(micro_scenario, micro_profile, cfg, 42,
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
            single = plan_single_run(micro_scenario, micro_profile, cfg, o.seed,
                                     sites=micro_sites)
            assert single.event_log == o.event_log

    def test_campaign_notes_parameters_outside_the_window(
            self, micro_scenario, micro_profile, micro_margins, micro_model,
            micro_sites, tvws_power):
        hata = okumura_hata_rural(100.0, 30.0, 3.0)
        camp = run_campaign(micro_scenario, micro_profile, micro_margins, hata,
                            tvws_power, PlannerConfig(runs=2, base_seed=42),
                            sites=micro_sites)
        assert camp.model_warnings == (
            "frequency 100.0 MHz outside Hata window (150.0, 1500.0)",)
        one_slope_camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                                      micro_model, tvws_power, CFG,
                                      sites=micro_sites)
        assert one_slope_camp.model_warnings == ()

    @pytest.mark.parametrize("offset_db, notes", [
        (0.0, ()),
        (-20.0, ("distances up to 24.02 km beyond Hata validity (20.0 km); "
                 "values extrapolated",))])
    def test_validity_notes_follow_the_budget_not_the_runs(
            self, micro_scenario, micro_profile, micro_margins, micro_sites,
            tvws_power, offset_db, notes):
        # under the 120 dB budget these models reach 6.50 and 24.02 km; the
        # users and sites all lie within 5 km of each other
        hata = okumura_hata_rural(600.0, 30.0, 3.0, offset_db=offset_db)
        for runs in (1, 5):
            camp = run_campaign(micro_scenario, micro_profile, micro_margins,
                                hata, tvws_power,
                                PlannerConfig(runs=runs, base_seed=43),
                                sites=micro_sites)
            assert camp.budget.pl_max == pytest.approx(120.0)
            assert camp.model_warnings == notes

    def test_run_without_active_site_is_scenario_error(self, micro_scenario,
                                                      micro_profile):
        # the lone site reaches no user, so a run's energy efficiency would
        # divide by zero power
        sc = replace(micro_scenario, site_policy=SitePolicy(
            mode="explicit", sites=(CandidateSite(7, 40.0, 40.0, 30.0),)))
        with pytest.raises(ScenarioError) as err:
            planner.plan(sc, micro_profile, PlannerConfig(runs=2, base_seed=42))
        assert err.value.errors == [
            "sites: the run with seed 42 activates no site (2 of 2 runs), so "
            "its energy efficiency is undefined"]

    def test_monotone_coverage_in_candidate_set(self, micro_scenario,
                                                micro_profile, micro_sites):
        def mean_cov(sites):
            total = 0.0
            for seed in range(5):
                out = plan_single_run(micro_scenario, micro_profile,
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

    def test_growth_history_equals_hand_run_pilots(self, micro_profile,
                                                   tvws_power):
        sc = self._grow_scenario(target=0.95)
        cfg = PlannerConfig(runs=5, base_seed=500)
        _, history = grow_site_set(sc, micro_profile, sc.margins, sc.model,
                                   tvws_power, cfg)
        pilot = PlannerConfig(runs=sc.site_policy.pilot_runs, base_seed=500)
        by_hand = [(n, run_campaign(sc, micro_profile, sc.margins, sc.model,
                                    tvws_power, pilot,
                                    sites=sc.lattice_sites(n)).mean_coverage)
                   for n, _ in history]
        assert history == by_hand

    def test_growth_sizes_with_one_sweep(self, micro_profile, tvws_power):
        # one sizing sweep gives the budget and the starting count; every
        # pilot campaign plans against that budget without sweeping again
        sc = self._grow_scenario(target=0.95)
        cfg = PlannerConfig(runs=5, base_seed=500)
        with mock.patch.object(planner, "sweep_mcs",
                               wraps=planner.sweep_mcs) as sweep:
            _, history = grow_site_set(sc, micro_profile, sc.margins, sc.model,
                                       tvws_power, cfg)
        assert len(history) > 1
        assert sweep.call_count == 1

    @pytest.mark.parametrize("runs, final", [(5, 0), (7, 1)])
    def test_plan_reuses_the_last_pilot(self, micro_profile, tvws_power, runs,
                                        final):
        # with runs == pilot_runs the last pilot is the campaign; otherwise
        # one campaign more runs on the grown sites.  One sweep either way.
        sc = self._grow_scenario(target=0.95)
        cfg = PlannerConfig(runs=runs, base_seed=500)
        with mock.patch.object(planner, "_campaign",
                               wraps=planner._campaign) as campaigns, \
                mock.patch.object(planner, "sweep_mcs",
                                  wraps=planner.sweep_mcs) as sweep:
            result, history = planner.plan(sc, micro_profile, cfg)
        assert len(history) > 1
        assert campaigns.call_count == len(history) + final
        assert sweep.call_count == 1
        fresh = run_campaign(sc, micro_profile, sc.margins, sc.model,
                             tvws_power, cfg, sites=result.sites)
        assert [o.event_log for o in result.outcomes] == \
            [o.event_log for o in fresh.outcomes]
        assert (len(result.sites), result.mean_coverage) == \
            (history[-1][0], fresh.mean_coverage)

    def test_outgrown_pilots_are_released(self, micro_profile, monkeypatch):
        # no earlier pilot's outcomes are alive when the next campaign starts,
        # the final 7-run campaign after the last 5-run pilot included
        sc = self._grow_scenario(target=0.95)
        campaign, pilots = planner._campaign, []

        def recording(*args):
            assert [ref() for ref in pilots] == [None] * len(pilots)
            result = campaign(*args)
            pilots.append(weakref.ref(result.outcomes[0]))
            return result

        monkeypatch.setattr(planner, "_campaign", recording)
        _, history = planner.plan(sc, micro_profile,
                                  PlannerConfig(runs=7, base_seed=500))
        assert len(history) > 1
        assert len(pilots) == len(history) + 1

    def test_growth_cap_raises_with_best_coverage(self, micro_profile, tvws_power):
        # the sizing start is 13 sites and the step 4: pilots at 13 and 17
        sc = self._grow_scenario(max_sites=20, target=0.999, user_count=40)
        cfg = PlannerConfig(runs=5, base_seed=500)
        with mock.patch.object(planner, "_campaign",
                               wraps=planner._campaign) as pilots:
            with pytest.raises(ScenarioError, match="best mean coverage") as err:
                grow_site_set(sc, micro_profile, sc.margins, sc.model,
                              tvws_power, cfg)
        assert pilots.call_count == 2
        # an input error under the target's field, carrying the history
        pilot = PlannerConfig(runs=sc.site_policy.pilot_runs, base_seed=500)
        history = [(n, run_campaign(sc, micro_profile, sc.margins, sc.model,
                                    tvws_power, pilot,
                                    sites=sc.lattice_sites(n)).mean_coverage)
                   for n in (13, 17)]
        assert err.value.errors == [
            "sites.target_coverage: site growth cap 20 reached; best mean coverage "
            f"{max(c for _, c in history):.4f} < target 0.999; growth history "
            f"(count: coverage) 13: {history[0][1]:.4f}, 17: {history[1][1]:.4f}"]

    def test_cap_below_sizing_start_is_scenario_error(self, micro_profile,
                                                      tvws_power):
        sc = self._grow_scenario(max_sites=2)
        with mock.patch.object(planner, "_campaign") as pilots:
            with pytest.raises(ScenarioError) as err:
                grow_site_set(sc, micro_profile, sc.margins, sc.model,
                              tvws_power, PlannerConfig(runs=5, base_seed=500))
        assert [e.split(":")[0] for e in err.value.errors] == ["sites.max_sites"]
        assert pilots.call_count == 0


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
        active = []
        for mimo in (False, True):
            prof = load_technology("802.22b", "suburban", mimo=mimo)
            cfg = PlannerConfig(runs=8, base_seed=sc.base_seed, mimo=mimo)
            active.append(planner.plan(sc, prof, cfg)[0].mean_active_sites)
        assert active[1] < active[0]


class TestBudgetFollowsProfile:
    """`PlannerConfig.mimo` and the power parameters must match the profile."""

    def test_power_parameters_of_another_model_rejected(self):
        from tvwsplan.scenario import bundled_scenario
        sc = bundled_scenario("ghent_suburban")
        for tech, wrong in (("lte", "tvws"), ("802.22b", "macro")):
            prof = load_technology(tech, "suburban")
            with pytest.raises(TypeError, match=f"needs '{prof.power_model}'"):
                run_campaign(sc, prof, sc.margins, sc.model_for(prof),
                             load_power_params(wrong), PlannerConfig(runs=1),
                             sites=sc.lattice_sites(4))

    def test_config_disagreeing_with_profile_rejected(self):
        from tvwsplan.scenario import bundled_scenario
        sc = bundled_scenario("ghent_suburban")
        pw = load_power_params("tvws")
        for mimo in (False, True):
            prof = load_technology("802.22b", "suburban", mimo=mimo)
            model = sc.model_for(prof)
            sites = sc.lattice_sites(4)
            good = PlannerConfig(runs=1, base_seed=sc.base_seed, mimo=mimo)
            bad = replace(good, mimo=not mimo)
            outcome = run_campaign(sc, prof, sc.margins, model, pw, good,
                                   sites=sites).outcomes[0]
            assert check_deployment(outcome, sc, prof, sc.margins, model, good,
                                    sites) == []
            with pytest.raises(ValueError, match="mimo"):
                run_campaign(sc, prof, sc.margins, model, pw, bad, sites=sites)
            with pytest.raises(ValueError, match="mimo"):
                grow_site_set(sc, prof, sc.margins, model, pw, bad)
            with pytest.raises(ValueError, match="mimo"):
                check_deployment(outcome, sc, prof, sc.margins, model, bad, sites)
