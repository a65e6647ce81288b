"""Greedy power-minimising deployment and the Monte-Carlo campaign runner.

One run processes users in ascending id.  Each user tries the *active*
stations in ascending path-loss order and connects to the first with spare
capacity; failing that, the inactive site with the lowest path loss that can
serve the user is switched on.  Every activation triggers a single
re-balancing pass: already-connected users (ascending id) move to the new
site when their path loss there is strictly lower and capacity allows.
Users with no feasible site are counted uncovered; the run ends when all
users have been evaluated.

Equal path loss breaks toward the lower site index (position in the
candidate list).  Every link is planned at one MCS: a user costs its demand
against that MCS's bitrate at whichever site serves it.
Each run builds one link table of the in-budget (user, site) pairs, ordered
by (user, path loss, site index).  `propagation.link_loss_db` runs only on
the pairs that squared distances place within the budget's reach, and on
the farthest pairs, so that a distance validity warning reads as over all
pairs.  The greedy walks a user's stretch of the table, re-balancing walks
the new site's links through a per-site index, and neither sorts.  Loads
are still summed one decision at a time, in decision order.

A run is strictly sequential (the greedy order is semantic).  Runs within a
campaign are independent, seeded `base_seed + run_index`, share one budget
(`_budget`) and execute one after another in the calling process.  Every
active site draws one station's power, `power_energy.station_power_w` of the
profile.
Candidate site ids must be unique: campaigns, single runs and the checker
raise ValueError on a repeated id.

A campaign keeps the sorted distinct model-validity warnings of its runs and
passes every other warning on; a single run lets its validity warnings reach
the caller.

Every accept/reject decision lands in an event log.  The independent
feasibility checker replays a run from scratch (fresh path loss from
`link_loss_db`, fresh capacity accounting, its own budget from its own
arguments) and verifies the log, the assignment invariants and the capacity
bounds without sharing any planner state; what it shares is the memoised,
read-only population of each seed, a pure function of the seed.
"""

from __future__ import annotations

import collections
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .link_budget import (EnvironmentMargins, TechnologyProfile,
                          max_allowable_path_loss_db)
from .power_energy import load_power_params, station_power_w
from .propagation import (ModelValidityWarning, PathLossModel, link_loss_db,
                          reach_km)
from .scenario import Scenario, ScenarioError, generate_population
from .sizing import sweep_mcs

__all__ = [
    "PlannerConfig",
    "Deployment",
    "RunOutcome",
    "CampaignResult",
    "plan",
    "plan_single_run",
    "run_campaign",
    "grow_site_set",
    "check_deployment",
    "replay_event_log",
]


@dataclass(frozen=True)
class PlannerConfig:
    """Campaign controls.

    Every link is planned at `mcs_label` (empty string selects the sizing
    sweep optimum).  `mimo` must equal `profile.mimo`: campaigns and the
    checker reject a config that disagrees.
    """

    mcs_label: str = ""
    runs: int = 40
    base_seed: int = 1000
    mimo: bool = False

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass
class Deployment:
    active_sites: set
    assignments: dict            # user_id -> site_id
    per_site_served_mbps: dict   # site_id -> Mbps
    per_site_power_w: dict       # site_id -> W
    uncovered_users: set


@dataclass
class RunOutcome:
    seed: int
    coverage_fraction: float
    deployment: Deployment
    total_power_w: float
    served_mbps_total: float
    event_log: tuple = ()

    # duck-typed RunEnergy interface for network_energy_efficiency
    @property
    def served_mbps(self):
        return tuple(self.deployment.per_site_served_mbps[s]
                     for s in sorted(self.deployment.active_sites))

    @property
    def power_w(self):
        return tuple(self.deployment.per_site_power_w[s]
                     for s in sorted(self.deployment.active_sites))


@dataclass
class CampaignResult:
    outcomes: list
    mean_coverage: float
    std_coverage: float
    mean_power_w: float
    std_power_w: float
    mean_active_sites: float
    progressive_coverage: list  # running mean after each run
    sites: list
    budget: "_Budget"           # what every run planned against
    model_warnings: tuple       # sorted distinct messages of all runs


@dataclass(frozen=True)
class _Budget:
    """What one campaign plans against, built by `_budget`: the planning MCS,
    its `pl_max` and `capacity` (its bitrate), and `station_w`, one station's
    draw (None without power data)."""

    mcs_label: str
    pl_max: float
    capacity: float
    station_w: float | None = None


def _budget(scenario, profile, margins, model, config, power_params=None,
            rows=None) -> _Budget:
    """The budget of one campaign from its own arguments.  Its MCS is
    `config.mcs_label` if set, else the optimum of the sizing sweep `rows`
    (swept here if not given); its station draw is `station_power_w` of the
    profile."""
    if config.mimo != profile.mimo:
        raise ValueError(f"PlannerConfig.mimo={config.mimo} disagrees with the profile")
    if config.mcs_label:
        mcs = profile.mcs(config.mcs_label)
        if not mcs.deployable:
            raise ValueError(f"MCS {mcs.label!r} is not deployable on "
                             f"{profile.name} hardware")
    else:
        if rows is None:
            rows = sweep_mcs(profile, margins, model, scenario.region.area_km2,
                             scenario.population.expected_demand_mbps)
        mcs = profile.mcs(next(r.mcs_label for r in rows if r.is_optimal))
    station_w = None
    if power_params is not None:
        station_w = station_power_w(profile.power_model, profile.n_transmitters,
                                    power_params)
    return _Budget(mcs.label, max_allowable_path_loss_db(profile, margins, mcs),
                   mcs.bitrate_at(profile.bandwidth_mhz), station_w)


def plan_single_run(scenario: Scenario, profile: TechnologyProfile,
                    margins: EnvironmentMargins, model: PathLossModel,
                    power_params, config: PlannerConfig, seed: int,
                    sites=None) -> RunOutcome:
    """One greedy deployment for the user population drawn with `seed`."""
    sites = _sites_for(scenario, sites)
    budget = _budget(scenario, profile, margins, model, config, power_params)
    return _run_one(scenario, sites, budget, model, seed)


def _in_budget(model, xy, site_xy, pl_max):
    """(user, site, path loss) of the pairs within `pl_max`, row by row."""
    d = xy.T.copy()[:, :, None] - site_xy.T[:, None]  # x, y offsets: 2 x N x M
    d *= d
    d2 = np.add(d[0], d[1], out=d[0])
    reach = reach_km(model, pl_max) * (1 + 1e-6)  # 1e-6 margins outweigh rounding
    pair = np.flatnonzero((d2 <= reach * reach)
                          | (d2 >= d2.max(initial=0.0) * (1 - 1e-6)))
    user, site = np.divmod(pair, len(site_xy))
    pl = link_loss_db(model, xy[user], site_xy[site])
    link = pl <= pl_max
    return user[link], site[link], pl[link]


def _greedy_plan(pop, sites, budget, model, seed) -> RunOutcome:
    n_users, n_sites = len(pop), len(sites)
    site_ids = [s.id for s in sites]
    user_ids = pop.ids.tolist()
    user, site, pl = _in_budget(model, pop.xy_km, np.reshape(
        [(s.x_km, s.y_km) for s in sites], (-1, 2)), budget.pl_max)
    # the link table: complex numbers sort by real, then imaginary part, and
    # the pairs come row by row, so equal path loss keeps ascending site index
    by_user = np.argsort(user + 1j * pl, kind="stable")
    link_pl, link_site = np.append(pl[by_user], -np.inf), site[by_user]
    # user u's links sit at table positions first[u] .. first[u + 1] - 1;
    # site j's, in ascending user, at by_site[at[j]] .. by_site[at[j + 1] - 1]
    first = np.searchsorted(user, np.arange(n_users + 1)).tolist()
    by_site = np.argsort(link_site * n_users + user)  # unique keys: a stable order
    at = np.searchsorted(link_site[by_site], np.arange(n_sites + 1)).tolist()
    site_user, site_pl = user[by_site], link_pl[by_site]
    link_site = link_site.tolist()
    # a user consumes its demand of the capacity at whichever site serves it
    demand = pop.demand_mbps.tolist()
    limit = budget.capacity + 1e-9

    active = []                        # site indices, activation order
    is_active = [False] * n_sites
    load = [0.0] * n_sites             # consumed capacity, summed in order
    link_of = np.full(n_users, -1)     # user -> table position; -1 (-inf) unserved
    uncovered = []
    log = []

    def serve(u, k):
        link_of[u] = k
        load[link_site[k]] += demand[u]

    def rebalance(new_j):
        # one pass over the new site's links, ascending user: strictly lower loss moves
        sl = slice(at[new_j], at[new_j + 1])
        move = site_pl[sl] < link_pl[link_of[site_user[sl]]]
        for u, k in zip(site_user[sl][move].tolist(), by_site[sl][move].tolist()):
            if load[new_j] + demand[u] <= limit:
                cur = link_of[u]
                load[link_site[cur]] -= demand[u]
                serve(u, k)
                log.append(("switch", user_ids[u], site_ids[link_site[cur]],
                            site_ids[new_j]))
            else:
                log.append(("switch_reject", user_ids[u], site_ids[new_j]))

    for u in range(n_users):
        links = link_site[first[u]:first[u + 1]]
        # the nearest active site with spare capacity
        for k, j in enumerate(links, first[u]):
            if not is_active[j]:
                continue
            if load[j] + demand[u] <= limit:
                serve(u, k)
                log.append(("connect", user_ids[u], site_ids[j]))
                break
            log.append(("reject_capacity", user_ids[u], site_ids[j]))
        else:
            # else switch on the nearest inactive site able to serve the user
            k = next((k for k, j in enumerate(links, first[u])
                      if not is_active[j]), None)
            if k is None or demand[u] > limit:
                uncovered.append(u)
                log.append(("uncovered", user_ids[u]))
                continue
            j = link_site[k]
            active.append(j)
            is_active[j] = True
            log.append(("activate", site_ids[j]))
            serve(u, k)
            log.append(("connect", user_ids[u], site_ids[j]))
            rebalance(j)

    # users enter the assignment in service order, ascending index
    assign = {u: link_site[k] for u, k in enumerate(link_of.tolist()) if k >= 0}
    served = {site_ids[j]: 0.0 for j in active}
    for u, j in assign.items():
        served[site_ids[j]] += demand[u]
    deployment = Deployment(
        active_sites={site_ids[j] for j in active},
        assignments={user_ids[u]: site_ids[j] for u, j in assign.items()},
        per_site_served_mbps=served,
        per_site_power_w={site_ids[j]: budget.station_w for j in active},
        uncovered_users={user_ids[u] for u in uncovered})
    coverage = 1.0 - len(uncovered) / n_users if n_users else 1.0
    return RunOutcome(seed=seed, coverage_fraction=coverage, deployment=deployment,
                      total_power_w=budget.station_w * len(active),
                      served_mbps_total=sum(served.values()),
                      event_log=tuple(log))


def _sites_for(scenario: Scenario, sites=None) -> list:
    """The given candidate sites, else the scenario's own; never empty."""
    if sites is None:
        policy = scenario.site_policy
        if policy.mode == "explicit":  # validated when the scenario loaded
            sites = policy.sites
        elif policy.mode == "lattice":
            sites = scenario.lattice_sites(policy.count)
        else:
            raise ValueError("auto_grow scenarios need grow_site_set() first")
    sites = list(sites)
    if not sites:
        raise ValueError("candidate site list is empty")
    _site_index(sites)
    return sites


def _site_index(sites) -> dict:
    """{id: site} over a candidate list; a repeated id is a ValueError."""
    index = {s.id: s for s in sites}
    if len(index) != len(sites):
        counts = collections.Counter(s.id for s in sites)
        raise ValueError("candidate site ids repeat: "
                         f"{sorted(i for i, n in counts.items() if n > 1)}")
    return index


def _run_one(scenario, sites, budget, model, seed):
    pop = generate_population(scenario.region, scenario.population, seed)
    return _greedy_plan(pop, sites, budget, model, seed)


def run_campaign(scenario: Scenario, profile: TechnologyProfile,
                 margins: EnvironmentMargins, model: PathLossModel,
                 power_params, config: PlannerConfig, sites=None) -> CampaignResult:
    """`config.runs` independent runs with seeds base_seed + i.

    The budget is resolved once here and shared by every run.
    """
    sites = _sites_for(scenario, sites)
    budget = _budget(scenario, profile, margins, model, config, power_params)
    return _campaign(scenario, sites, budget, model, config)


def _campaign(scenario, sites, budget, model, config) -> CampaignResult:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModelValidityWarning)
        outcomes = [_run_one(scenario, sites, budget, model, seed) for seed in
                    range(config.base_seed, config.base_seed + config.runs)]
    kept = set()
    for w in caught:  # record=True takes every warning; pass the others on
        if issubclass(w.category, ModelValidityWarning):
            kept.add(str(w.message))
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    cov = np.array([o.coverage_fraction for o in outcomes])
    pow_ = np.array([o.total_power_w for o in outcomes])
    act = np.array([len(o.deployment.active_sites) for o in outcomes])
    progressive = list(np.cumsum(cov) / np.arange(1, len(cov) + 1))
    return CampaignResult(
        outcomes=outcomes,
        mean_coverage=float(cov.mean()),
        std_coverage=float(cov.std(ddof=0)),
        mean_power_w=float(pow_.mean()),
        std_power_w=float(pow_.std(ddof=0)),
        mean_active_sites=float(act.mean()),
        progressive_coverage=[float(x) for x in progressive],
        sites=sites,
        budget=budget,
        model_warnings=tuple(sorted(kept)))


def grow_site_set(scenario: Scenario, profile: TechnologyProfile,
                  margins: EnvironmentMargins, model: PathLossModel,
                  power_params, config: PlannerConfig):
    """Densify the candidate lattice until pilot coverage beats the target.

    Starts from the sizing lower bound for the planning MCS and densifies
    the jittered lattice in batches of roughly 30% of that bound (at least
    one site), replanning a pilot campaign (`site_policy.pilot_runs` runs)
    against one budget at each step.  Returns (sites, history) where history
    rows are (count, mean_coverage).  Raises ScenarioError before any pilot
    when `max_sites` is below the start, and again once the growth cap is
    hit, reporting the best coverage achieved and the history.
    """
    pilot, history = _grow(scenario, profile, margins, model, power_params,
                           config)
    return pilot.sites, history


def _grow(scenario, profile, margins, model, power_params, config):
    """`grow_site_set` as (last pilot CampaignResult, history)."""
    policy = scenario.site_policy
    rows = sweep_mcs(profile, margins, model, scenario.region.area_km2,
                     scenario.population.expected_demand_mbps)
    budget = _budget(scenario, profile, margins, model, config, power_params,
                     rows)
    count = max(1, next(r.n_bs_min for r in rows
                        if r.mcs_label == budget.mcs_label))
    if policy.max_sites < count:
        raise ScenarioError([f"sites.max_sites: {policy.max_sites} is below the "
                             f"sizing lower bound of {count} sites"])

    pilot = replace(config, runs=policy.pilot_runs)
    history = []
    step = max(1, int(0.3 * count + 0.5))
    while count <= policy.max_sites:
        sites = scenario.lattice_sites(count)
        result = _campaign(scenario, sites, budget, model, pilot)
        history.append((count, result.mean_coverage))
        if result.mean_coverage > policy.target_coverage:
            return result, history
        count += step
    raise ScenarioError([
        f"sites.target_coverage: site growth cap {policy.max_sites} reached; "
        f"best mean coverage {max(c for _, c in history):.4f} < target "
        f"{policy.target_coverage}; growth history (count: coverage) "
        + ", ".join(f"{n}: {c:.4f}" for n, c in history)])


def plan(scenario: Scenario, profile: TechnologyProfile,
         config: PlannerConfig):
    """The one planning pipeline: (CampaignResult, growth history).

    Model, margins and power parameters come from the scenario and profile.
    `auto_grow` sites grow as in `grow_site_set`, else the history is empty.
    The last pilot has the campaign's sites, budget and seeds, so it is the
    campaign when `config.runs` equals `pilot_runs`.  A run that activates
    no site is a ScenarioError: its energy efficiency is undefined.
    """
    model = scenario.model_for(profile)
    power_params = load_power_params(profile.power_model)
    if scenario.site_policy.mode != "auto_grow":
        result, history = run_campaign(scenario, profile, scenario.margins,
                                       model, power_params, config), []
    else:
        result, history = _grow(scenario, profile, scenario.margins, model,
                                power_params, config)
        if config.runs != scenario.site_policy.pilot_runs:
            result = _campaign(scenario, result.sites, result.budget, model, config)
    idle = [o.seed for o in result.outcomes if not o.deployment.active_sites]
    if idle:
        raise ScenarioError([
            f"sites: the run with seed {idle[0]} activates no site ({len(idle)} of "
            f"{len(result.outcomes)} runs), so its energy efficiency is undefined"])
    return result, history


# ---------------------------------------------------------------------------
# independent feasibility checking
# ---------------------------------------------------------------------------

def check_deployment(outcome: RunOutcome, scenario: Scenario,
                     profile: TechnologyProfile, margins: EnvironmentMargins,
                     model: PathLossModel, config: PlannerConfig, sites) -> list:
    """Re-derive every invariant from scratch; returns a list of violations."""
    problems = []
    dep = outcome.deployment
    pop = generate_population(scenario.region, scenario.population, outcome.seed)
    site_by_id = _site_index(sites)
    demand = {int(i): float(d) for i, d in zip(pop.ids, pop.demand_mbps)}

    budget = _budget(scenario, profile, margins, model, config)
    pl_max, cap = budget.pl_max, budget.capacity

    # the path loss of every link to an active site, in one array evaluation
    row = {uid: r for r, uid in enumerate(pop.ids.tolist())}
    linked = [(uid, site_by_id[sid]) for uid, sid in dep.assignments.items()
              if sid in dep.active_sites]
    pls = link_loss_db(model, pop.xy_km[[row[uid] for uid, _ in linked]],
                       np.reshape([(s.x_km, s.y_km) for _, s in linked], (-1, 2)))
    link_pl = dict(zip([uid for uid, _ in linked], pls.tolist()))
    for uid, sid in dep.assignments.items():
        if sid not in dep.active_sites:
            problems.append(f"user {uid} assigned to inactive site {sid}")
        elif link_pl[uid] > pl_max + 1e-6:
            problems.append(f"user {uid} at site {sid} exceeds PL_max")

    served = {sid: 0.0 for sid in dep.active_sites}
    for uid, sid in dep.assignments.items():
        served[sid] = served.get(sid, 0.0) + demand[uid]
    for sid, s_mbps in served.items():
        if s_mbps > cap + 1e-6:
            problems.append(f"site {sid} serves {s_mbps:.3f} Mbps > capacity {cap}")
        if abs(s_mbps - dep.per_site_served_mbps.get(sid, -1.0)) > 1e-6:
            problems.append(f"site {sid} served traffic disagrees with record")

    assigned = set(dep.assignments)
    expected_uncovered = {int(i) for i in pop.ids} - assigned
    if expected_uncovered != dep.uncovered_users:
        problems.append("uncovered set does not match assignment complement")
    c = 1.0 - len(dep.uncovered_users) / len(pop) if len(pop) else 1.0
    if abs(c - outcome.coverage_fraction) > 1e-9:
        problems.append("coverage fraction inconsistent with uncovered set")
    return problems


def replay_event_log(outcome: RunOutcome, scenario: Scenario,
                     profile: TechnologyProfile, margins: EnvironmentMargins,
                     model: PathLossModel, power_params,
                     config: PlannerConfig, sites) -> bool:
    """Re-run the greedy plan and require the identical event log."""
    again = plan_single_run(scenario, profile, margins, model, power_params,
                            config, outcome.seed, sites=sites)
    return again.event_log == outcome.event_log
