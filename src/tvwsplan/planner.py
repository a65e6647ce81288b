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
the pairs that squared distances place within the budget's reach.  Numpy
builds the table with one sort; the greedy then walks it as
plain lists: a user's stretch of the table, and for re-balancing the new
site's table positions, collected per site in one pass.  Loads are still
summed one decision at a time, in decision order.

A run is strictly sequential (the greedy order is semantic).  Runs within a
campaign are independent, seeded `base_seed + run_index`, share one budget
(`_budget`) and execute one after another in the calling process.  Every
active site draws one station's power, `power_energy.station_power_w` of the
profile.
Candidate site ids must be unique: campaigns, single runs and the checker
raise ValueError on a repeated id.

A campaign records the model's validity notes over the reach of its budget,
the longest link any of its runs can plan (`propagation.validity_notes`).

Every accept/reject decision lands in an event log; a user's id is its row in
the population.  The log is stored as flat int codes (`records.EventLog`), and
its event tuples are built only when it is read.  A run's assignment is stored
as one site index per user row, -1 for an unserved user
(`records.Assignments`), and reads as the dict `{user: site_id}`; it is
read-only, so copy it to a dict before editing it.  Every run in the process
takes its user-id objects from one shared list, so all logs, assignment keys
and uncovered sets hold one int per row.  Site growth releases each pilot it
outgrows before the next one runs.

The feasibility checker shares nothing with the planner but each seed's
read-only population, and does not replay the log.  It derives
its own path loss and budget (MCS, `pl_max`, capacity, station draw) and
requires known users and candidate sites, links to active sites within
`pl_max`, loads within capacity, per-site traffic and power (one station's
draw) as recorded on active sites only, total power of draw × active count,
and the served total and coverage.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace

import numpy as np

from .link_budget import (EnvironmentMargins, TechnologyProfile,
                          max_allowable_path_loss_db, tier_range_km)
from .power_energy import load_power_params, station_power_w
from .propagation import PathLossModel, link_loss_db, reach_km, validity_notes
from .records import (EVENT_KINDS, Assignments, EventLog,  # noqa: F401 (re-exported)
                      _shared_user_ids)
from .scenario import Scenario, ScenarioError, generate_population
from .sizing import floor_error, sweep_mcs

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
    """What one run switched on and who it serves.  The planner's
    `assignments` is a read-only `Assignments`; copy it to a dict
    (`dict(dep.assignments)`) before editing it.  The checker also takes a
    plain dict."""

    active_sites: set
    assignments: Assignments | dict  # user_id -> site_id
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
    event_log: EventLog | tuple = ()  # `EventLog` from the planner

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
    model_warnings: tuple       # validity notes over the budget's reach


@dataclass(frozen=True)
class _Budget:
    """What one campaign plans against, built by `_budget`: the planning MCS,
    its `pl_max` and `capacity` (its bitrate), and `station_w`, one station's draw."""

    mcs_label: str
    pl_max: float
    capacity: float
    station_w: float


def _budget(scenario, profile, margins, model, config, power_params,
            rows=None) -> _Budget:
    """The budget of one campaign from its own arguments.  Its MCS is
    `config.mcs_label` if set (a ScenarioError if that tier reaches no
    distance), else the optimum of the sizing sweep `rows` (swept here if not
    given); its station draw is `station_power_w` of the profile."""
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
    pl_max = max_allowable_path_loss_db(profile, margins, mcs)
    if config.mcs_label and not tier_range_km(model, pl_max):
        raise floor_error(f"the fixed {profile.name} tier {mcs.label!r} does not "
                          "reach", "budget", margins, model, pl_max)
    return _Budget(mcs.label, pl_max, mcs.bitrate_at(profile.bandwidth_mhz),
                   station_power_w(profile.power_model, profile.n_transmitters,
                                   power_params))


def plan_single_run(scenario: Scenario, profile: TechnologyProfile,
                    config: PlannerConfig, seed: int, sites=None) -> RunOutcome:
    """One greedy deployment for the user population drawn with `seed`; the
    model, margins and power parameters come from the scenario and profile."""
    sites = _sites_for(scenario, sites)
    model = scenario.model_for(profile)
    budget = _budget(scenario, profile, scenario.margins, model, config,
                     load_power_params(profile.power_model))
    pop = generate_population(scenario.region, scenario.population, seed)
    return _greedy_plan(pop, sites, budget, model, seed)


def _in_budget(model, xy, site_xy, pl_max):
    """(user, site, path loss) of the pairs within `pl_max`, row by row."""
    d = xy.T.copy()[:, :, None] - site_xy.T[:, None]  # x, y offsets: 2 x N x M
    d *= d
    d2 = np.add(d[0], d[1], out=d[0])
    reach = reach_km(model, pl_max) * (1 + 1e-6)  # a margin outweighing rounding
    pair = np.flatnonzero(d2 <= reach * reach)
    user, site = np.divmod(pair, len(site_xy))
    pl = link_loss_db(model, xy[user], site_xy[site])
    link = pl <= pl_max
    return user[link], site[link], pl[link]


def _greedy_plan(pop, sites, budget, model, seed) -> RunOutcome:
    n_users, n_sites = len(pop), len(sites)
    site_ids = [s.id for s in sites]
    # a user consumes its demand of the capacity at whichever site serves it
    demand = pop.demand_mbps.tolist()
    limit = budget.capacity + 1e-9
    user, site, pl = _in_budget(model, pop.xy_km, np.reshape(
        [(s.x_km, s.y_km) for s in sites], (-1, 2)), budget.pl_max)
    # the link table: complex numbers sort by real, then imaginary part, and
    # the pairs come row by row, so equal path loss keeps ascending site index;
    # user u's links sit at table positions first[u] .. first[u + 1] - 1
    by_user = np.argsort(user + 1j * pl, kind="stable")
    first = np.searchsorted(user, np.arange(n_users + 1)).tolist()
    link_pl = np.append(pl[by_user], -np.inf).tolist()  # position -1: unserved
    link_user, link_site = user.tolist(), site[by_user].tolist()
    # site j's table positions, in ascending user
    site_links = [[] for _ in range(n_sites)]
    for k, j in enumerate(link_site):
        site_links[j].append(k)

    active = []                        # site indices, activation order
    is_active = [False] * n_sites
    load = [0.0] * n_sites             # consumed capacity, summed in order
    link_of = [-1] * n_users           # user -> table position; -1 unserved
    uncovered = []
    # the event log, see `EventLog`; the two frequent events append code by
    # code, which runs faster than extending the list by a tuple
    codes = []

    users = _shared_user_ids(n_users)
    for u, lo, hi, want in zip(users, first, first[1:], demand):
        links = link_site[lo:hi]
        # the nearest active site with spare capacity
        for k, j in enumerate(links, lo):
            if not is_active[j]:
                continue
            if load[j] + want <= limit:
                link_of[u] = k
                load[j] += want
                codes.append(0)  # connect
                codes.append(u)
                codes.append(j)
                break
            codes.append(1)  # reject_capacity
            codes.append(u)
            codes.append(j)
        else:
            # else switch on the nearest inactive site able to serve the user
            k = next((k for k, j in enumerate(links, lo) if not is_active[j]), None)
            if k is None or want > limit:
                uncovered.append(u)
                codes.extend((5, u))  # uncovered
                continue
            j = link_site[k]
            active.append(j)
            is_active[j] = True
            link_of[u] = k
            load[j] += want
            codes.extend((2, j, 0, u, j))  # activate, connect
            # re-balance: one pass over the new site's links of the users
            # before u, ascending; one moves when its loss there is strictly lower
            for k in site_links[j][:site_links[j].index(k)]:
                v = link_user[k]
                cur = link_of[v]
                if link_pl[k] >= link_pl[cur]:
                    continue
                if load[j] + demand[v] <= limit:
                    load[link_site[cur]] -= demand[v]
                    link_of[v] = k
                    load[j] += demand[v]
                    codes.extend((3, users[v], link_site[cur], j))  # switch
                else:
                    codes.extend((4, users[v], j))  # switch_reject

    # each user's site index; table position -1 is the unserved sentinel
    link_site.append(-1)
    site_of = list(map(link_site.__getitem__, link_of))
    # served totals summed in ascending user; index -1 collects the unserved
    total = [0.0] * (n_sites + 1)
    for j, want in zip(site_of, demand):
        total[j] += want
    served = {site_ids[j]: total[j] for j in active}
    deployment = Deployment(
        active_sites={site_ids[j] for j in active},
        assignments=Assignments(site_of, site_ids),
        per_site_served_mbps=served,
        per_site_power_w={site_ids[j]: budget.station_w for j in active},
        uncovered_users=set(uncovered))
    coverage = 1.0 - len(uncovered) / n_users if n_users else 1.0
    return RunOutcome(seed=seed, coverage_fraction=coverage, deployment=deployment,
                      total_power_w=budget.station_w * len(active),
                      served_mbps_total=sum(served.values()),
                      event_log=EventLog(codes, site_ids))


def _sites_for(scenario: Scenario, sites=None) -> list:
    """The given candidate sites, else the scenario's own; never empty."""
    if sites is None:
        policy = scenario.site_policy
        if policy.mode == "explicit":  # validated when the scenario loaded
            sites = policy.sites
        elif policy.mode == "lattice":
            sites = scenario.lattice_sites(policy.count)
        else:
            raise ValueError("auto_grow scenarios grow their sites in plan()")
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


def run_campaign(scenario: Scenario, profile: TechnologyProfile,
                 margins: EnvironmentMargins, model: PathLossModel,
                 power_params, config: PlannerConfig, sites=None) -> CampaignResult:
    """`config.runs` independent runs with seeds base_seed + i.

    The budget is resolved once here and shared by every run.
    """
    sites = _sites_for(scenario, sites)
    budget = _budget(scenario, profile, margins, model, config, power_params)
    return _campaign(scenario, sites, budget, model, config)


def _campaign(scenario, sites, budget, model, config, done=()) -> CampaignResult:
    # `done`: outcomes of the first seeds, already planned on these sites and budget
    region, spec, first = scenario.region, scenario.population, config.base_seed
    outcomes = list(done[:config.runs]) + [
        _greedy_plan(generate_population(region, spec, seed), sites, budget,
                     model, seed)
        for seed in range(first + len(done), first + config.runs)]
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
        model_warnings=validity_notes(model, reach_km(model, budget.pl_max)))


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
        del result  # outgrown: released before the next pilot runs
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
    The campaign reuses the last pilot's runs (its sites, budget and first
    seeds) and plans only the seeds after them.  A run that activates no
    site is a ScenarioError: its energy efficiency is undefined.
    """
    model = scenario.model_for(profile)
    power_params = load_power_params(profile.power_model)
    if scenario.site_policy.mode != "auto_grow":
        result, history = run_campaign(scenario, profile, scenario.margins,
                                       model, power_params, config), []
    else:
        pilot, history = _grow(scenario, profile, scenario.margins, model,
                               power_params, config)
        result = _campaign(scenario, pilot.sites, pilot.budget, model, config,
                           pilot.outcomes)
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
    """Re-derive every invariant from scratch; returns a list of violations.
    The MCS is `config.mcs_label`, else the optimum of the checker's own sweep."""
    dep = outcome.deployment
    pop = generate_population(scenario.region, scenario.population, outcome.seed)
    n_users, demand = len(pop), pop.demand_mbps.tolist()
    site_by_id = _site_index(sites)
    if config.mimo != profile.mimo:
        raise ValueError(f"PlannerConfig.mimo={config.mimo} disagrees with the profile")
    mcs = profile.mcs(config.mcs_label or next(
        r.mcs_label for r in sweep_mcs(profile, margins, model, scenario.region.area_km2,
                                        scenario.population.expected_demand_mbps)
        if r.is_optimal))
    pl_max = max_allowable_path_loss_db(profile, margins, mcs)
    cap = mcs.bitrate_at(profile.bandwidth_mhz)
    draw = station_power_w(profile.power_model, profile.n_transmitters,
                           load_power_params(profile.power_model))

    problems = [f"active site {sid!r} is not a candidate"
                for sid in dep.active_sites if sid not in site_by_id]
    # a user's id is its row: a negative id would index from the end
    users = {uid: sid for uid, sid in dep.assignments.items()
             if (type(uid) is int or isinstance(uid, np.integer))
             and 0 <= uid < n_users}
    problems += [f"user {uid!r} is not one of the {n_users} users"
                 for uid in dep.assignments if uid not in users]
    problems += [f"user {uid} assigned to inactive site {sid}"
                 for uid, sid in users.items() if sid not in dep.active_sites]
    # the path loss of every link to an active candidate, in one array evaluation
    linked = {uid: site_by_id[sid] for uid, sid in users.items()
              if sid in dep.active_sites and sid in site_by_id}
    pls = link_loss_db(model, pop.xy_km[list(linked)],
                       np.reshape([(s.x_km, s.y_km) for s in linked.values()], (-1, 2)))
    problems += [f"user {uid} at site {s.id} exceeds PL_max" for (uid, s), pl
                 in zip(linked.items(), pls.tolist()) if pl > pl_max + 1e-6]

    served = {sid: 0.0 for sid in dep.active_sites}
    for uid, sid in users.items():
        served[sid] = served.get(sid, 0.0) + demand[uid]
    for sid, s_mbps in served.items():
        if s_mbps > cap + 1e-6:
            problems.append(f"site {sid} serves {s_mbps:.3f} Mbps > capacity {cap}")
        if not abs(s_mbps - dep.per_site_served_mbps.get(sid, -1.0)) <= 1e-6:
            problems.append(f"site {sid} served traffic disagrees with record")
    problems += [f"site {sid} power disagrees with the station draw {draw} W"
                 for sid in dep.active_sites
                 if not abs(dep.per_site_power_w.get(sid, -1.0) - draw) <= 1e-6]
    problems += [f"site {sid!r} has a per-site record but is not active"
                 for sid in {*dep.per_site_served_mbps, *dep.per_site_power_w}
                 - dep.active_sites]
    if not abs(outcome.total_power_w - draw * len(dep.active_sites)) <= 1e-6:
        problems.append("total power is not the station draw times the active count")
    if not abs(outcome.served_mbps_total - sum(served.values())) <= 1e-6:
        problems.append("served total disagrees with the assigned demand")

    if set(range(n_users)).difference(dep.assignments) != dep.uncovered_users:
        problems.append("uncovered set does not match assignment complement")
    c = 1.0 - len(dep.uncovered_users) / n_users if n_users else 1.0
    if abs(c - outcome.coverage_fraction) > 1e-9:
        problems.append("coverage fraction inconsistent with uncovered set")
    return problems
