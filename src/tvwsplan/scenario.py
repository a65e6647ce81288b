"""Target regions, candidate sites and seeded user populations.

A scenario file (YAML, schema documented in the README) bundles everything
one planning study needs: the region outline, the population mix, the
environment margins, the propagation model, a technology selection, the
candidate-site policy and the RNG seeds.

Reproducibility contract: all randomness flows through numpy's PCG64
generator seeded explicitly; `generate_population` is a pure function of
(region, spec, seed) and serialises byte-identically across platforms.
Per-run seeds in a campaign are `base_seed + run_index`.

Populations are memoised per (region, spec, seed) and their arrays are
read-only, so the planner, site growth, the feasibility checker and the
artifact writers all share one immutable draw per seed.  The sampler tests
whole blocks of variates at once; it consumes the generator's stream in
exactly the order of a per-attempt rejection loop (x, y until inside, then
the demand draw), so its output is byte-identical to that loop's: each
block gets one containment mask, which is replayed attempt by attempt.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import geometry
from .link_budget import YAML_LOADER, EnvironmentMargins, bundled_names, bundled_yaml
from .propagation import PathLossModel

__all__ = [
    "Region",
    "CandidateSite",
    "PopulationSpec",
    "UserPopulation",
    "SitePolicy",
    "Scenario",
    "ScenarioError",
    "generate_population",
    "population_to_csv",
    "load_scenario",
    "bundled_scenario",
]

AREA_TOLERANCE = 0.005          # declared vs recomputed polygon area
MAX_REJECTION_ATTEMPTS = 10_000  # per user
MAX_SAMPLE_BLOCK = 1 << 14      # variates drawn and tested at once
POPULATION_CACHE_SIZE = 1024    # memoised (region, spec, seed) draws
LATTICE_CACHE_SIZE = 256        # memoised site lattices
SITE_MARGIN_KM = 2.0            # sites may sit this far outside the outline


class ScenarioError(ValueError):
    """Scenario configuration problem; `errors` itemises every field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scenario: " + "; ".join(self.errors))


@dataclass(frozen=True)
class Region:
    """Planar polygon target area (km coordinates)."""

    outline: tuple          # ((x, y), ...) km
    area_km2: float
    resolution_m: float = 250.0

    def __post_init__(self):
        if self.area_km2 <= 0 or self.resolution_m <= 0:
            raise ValueError("area_km2 and resolution_m must be positive")
        actual = geometry.polygon_area(self.outline)
        if actual <= 0:
            raise ValueError("region outline has zero area")
        if not abs(actual - self.area_km2) <= AREA_TOLERANCE * self.area_km2:  # NaN too
            raise ValueError(
                f"declared area {self.area_km2} km^2 differs from polygon area "
                f"{actual:.4f} km^2 by more than {AREA_TOLERANCE:.1%}")
        if not geometry.polygon_is_simple(self.outline):
            raise ValueError("region outline is self-intersecting")


@dataclass(frozen=True)
class CandidateSite:
    id: int
    x_km: float
    y_km: float


@dataclass(frozen=True)
class PopulationSpec:
    user_count: int
    data_fraction: float
    data_bitrate_mbps: float = 1.0
    voice_bitrate_mbps: float = 0.064

    def __post_init__(self):
        if self.user_count < 0:
            raise ValueError("user_count must be >= 0")
        if not 0.0 <= self.data_fraction <= 1.0:
            raise ValueError("data_fraction must lie in [0, 1]")
        for name in ("data_bitrate_mbps", "voice_bitrate_mbps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def expected_demand_mbps(self) -> float:
        return self.user_count * (self.data_fraction * self.data_bitrate_mbps
                                  + (1.0 - self.data_fraction) * self.voice_bitrate_mbps)


@dataclass(frozen=True)
class UserPopulation:
    """Realised users: parallel arrays of position and demand.  A user's id
    is its row, 0 .. N - 1, in the order the sampler accepted it."""

    xy_km: np.ndarray    # (N, 2) float64
    demand_mbps: np.ndarray  # (N,) float64

    def __len__(self):
        return len(self.demand_mbps)


@functools.lru_cache(maxsize=POPULATION_CACHE_SIZE)
def generate_population(region: Region, spec: PopulationSpec, seed: int) -> UserPopulation:
    """Draw `spec.user_count` users uniformly over the region.

    Positions come from rejection sampling against the bounding box; each
    user's demand is the data bitrate when a uniform variate falls below
    `data_fraction`, else the voice bitrate.  Per user the draw order is
    position first, demand second, so output is a pure function of
    (region, spec, seed).  Results are memoised and read-only.  Each block of
    variates gets one containment mask, replayed attempt by attempt.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    xmin, ymin, xmax, ymax = geometry.polygon_bbox(region.outline)
    n = spec.user_count
    # variates per user: two per attempt, one demand draw
    per_user = 2.0 * (xmax - xmin) * (ymax - ymin) / region.area_km2 + 1.0
    xy = np.empty((n, 2))
    u_demand = np.empty(n)
    buf = np.empty(0)
    i = tried = k = 0
    while k < n:
        # carry the unread tail so the stream stays contiguous
        want = int(1.25 * per_user * (n - k)) + 16
        buf = np.concatenate([buf[i:], rng.random(min(want, MAX_SAMPLE_BLOCK))])
        cand = np.column_stack([xmin + (xmax - xmin) * buf[:-1],
                                ymin + (ymax - ymin) * buf[1:]])
        inside = geometry.points_in_polygon(cand, region.outline).tolist()
        # replay the per-user loop: a rejected pair (x, y) advances 2, an
        # accepted one takes the next variate as its demand draw and advances 3,
        # until the users still wanted are taken or the block's attempts run out
        taken, i, wanted, end = [], 0, n - k, len(buf) - 2
        while i < end:
            if inside[i]:
                taken.append(i)
                if len(taken) == wanted:
                    break
                i, tried = i + 3, 0
                continue
            i, tried = i + 2, tried + 1
            if tried == MAX_REJECTION_ATTEMPTS:
                raise RuntimeError(
                    f"rejection sampling failed after {MAX_REJECTION_ATTEMPTS} "
                    f"attempts inside region of area {region.area_km2} km^2")
        taken = np.array(taken, dtype=np.intp)
        xy[k:k + len(taken)] = cand[taken]
        u_demand[k:k + len(taken)] = buf[taken + 2]
        k += len(taken)
    demand = np.where(u_demand < spec.data_fraction,
                      spec.data_bitrate_mbps, spec.voice_bitrate_mbps)
    xy.flags.writeable = demand.flags.writeable = False
    return UserPopulation(xy, demand)


@functools.lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice_xy(outline: tuple, count: int, jitter_fraction: float,
                seed: int) -> np.ndarray:
    """`geometry.hex_lattice_sites`, memoised per (outline, count,
    jitter_fraction, seed); the returned (count, 2) array is read-only."""
    pts = geometry.hex_lattice_sites(outline, count, jitter_fraction, seed)
    pts.flags.writeable = False
    return pts


def population_to_csv(pop: UserPopulation) -> str:
    """Canonical CSV export (LF line endings, '.' decimal separator)."""
    buf = io.StringIO()
    buf.write("user_id,x_km,y_km,demand_mbps\n")
    for i, ((x, y), d) in enumerate(zip(pop.xy_km, pop.demand_mbps)):
        buf.write(f"{i},{x:.9f},{y:.9f},{d:.6f}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SitePolicy:
    """How candidate sites come to exist.

    mode "explicit": `sites` lists them outright.
    mode "lattice":  a jittered hexagonal lattice of `count` sites.
    mode "auto_grow": start from the sizing lower bound (<= `max_sites`) and
    densify until a pilot's mean coverage exceeds `target_coverage` (< 1).
    """

    mode: str
    sites: tuple = ()
    count: int = 0
    jitter_fraction: float = 0.3
    seed: int = 1
    antenna_height_m: float = 30.0
    target_coverage: float = 0.95
    pilot_runs: int = 10
    max_sites: int = 200

    def __post_init__(self):
        if not self.antenna_height_m > 0:  # NaN is not positive either
            raise ValueError(f"antenna_height_m must be positive, "
                             f"got {self.antenna_height_m}")


@dataclass(frozen=True)
class Scenario:
    name: str
    environment: str            # "suburban" | "rural"
    region: Region
    population: PopulationSpec
    margins: EnvironmentMargins
    model: PathLossModel
    technology: str
    site_policy: SitePolicy
    base_seed: int = 1000

    def model_for(self, profile) -> PathLossModel:
        """Path-loss model resolved for one technology.

        The Okumura-Hata variant carries a frequency term, so its evaluation
        follows the serving technology's carrier; the frequency written in
        the scenario file only serves standalone model evaluation.  The
        one-slope variant is an empirical fit with no frequency term and is
        shared by all technologies.
        """
        if (self.model.variant == "okumura_hata_rural"
                and abs(profile.freq_mhz - self.model.freq_mhz) > 1e-9):
            return replace(self.model, freq_mhz=profile.freq_mhz)
        return self.model

    def lattice_sites(self, count: int) -> list:
        """Deterministic jittered-hex candidate set of a given size.

        The coordinates are memoised (see `_lattice_xy`); every call returns
        a fresh list of sites.
        """
        pts = _lattice_xy(self.region.outline, count,
                          self.site_policy.jitter_fraction,
                          self.site_policy.seed + count)
        return [CandidateSite(id=i, x_km=float(x), y_km=float(y))
                for i, (x, y) in enumerate(pts)]

    @functools.cached_property
    def digest(self) -> str:
        """Stable content hash used in report provenance, computed once per
        scenario: one yaml dump costs milliseconds."""
        payload = {
            "name": self.name, "environment": self.environment,
            "outline": [[round(x, 9), round(y, 9)] for x, y in self.region.outline],
            "area_km2": self.region.area_km2,
            "resolution_m": self.region.resolution_m,
            "population": [self.population.user_count, self.population.data_fraction,
                           self.population.data_bitrate_mbps,
                           self.population.voice_bitrate_mbps],
            "margins": [self.margins.shadow_margin_db, self.margins.fade_margin_db],
            "model": sorted(self.model.__dict__.items()),
            "technology": self.technology,
            "sites": sorted((k, str(v)) for k, v in self.site_policy.__dict__.items()),
            "base_seed": self.base_seed,
        }
        blob = yaml.safe_dump(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_KINDS = {int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "a mapping"}

# Table rows are `_field` arguments (name, kind[, default[, lo[, hi]]]); a
# field whose default is None, or not given, is required.  The bounds on
# bitrates, margins and model coefficients are physical limits far outside
# any real study; they keep the budget, range and sizing arithmetic finite.
_TOP = (("schema_version", int, 1, 1, 2), ("technology", str, "802.22b"),
        ("region", dict), ("population", dict), ("environment", dict),
        ("propagation", dict), ("sites", dict), ("seeds", dict, {}))
_REGION = (("area_km2", float), ("resolution_m", float, 250.0))
_POPULATION = (("user_count", int, None, 1), ("data_fraction", float),
               ("data_bitrate_mbps", float, 1.0, 0, 1e4),
               ("voice_bitrate_mbps", float, 0.064, 0, 1e4))
_MARGINS = (("shadow_margin_db", float, None, 0, 100),
            ("fade_margin_db", float, None, 0, 100))
_MODEL = (("calibration_id", str, ""),)  # rows every variant takes
_MODELS = {
    "one_slope": _MODEL + (("pl0_db", float, None, 0, 300),
                           ("d0_km", float, 1.0, 0, 100),
                           ("exponent", float, None, 1, 10)),
    "okumura_hata_rural": _MODEL + (("freq_mhz", float),
                                    ("bs_height_m", float, None, 1, 1000),
                                    ("rx_height_m", float, None, 0, 1000),
                                    ("offset_db", float, 0.0, -100, 100)),
}
_HEIGHT = ("antenna_height_m", float, 30.0)
_LATTICE = (("jitter_fraction", float, 0.3, 0), ("seed", int, 1, 0), _HEIGHT)
_SITE_MODES = {
    "explicit": (_HEIGHT, ("list", list, [])),
    "lattice": _LATTICE + (("count", int, None, 1),),
    "auto_grow": _LATTICE + (("target_coverage", float, 0.95, 0, 1),
                             ("pilot_runs", int, 10, 1), ("max_sites", int, 200, 1)),
}
_SITE_ENTRY = (("id", int), ("x_km", float), ("y_km", float))
# the keys a section accepts besides its table's, which its reader takes itself
_BY_HAND = {"region": ("outline_km",), "environment": ("kind",),
            "propagation": ("variant",), "sites": ("mode",)}


def _field(errors: list, cfg: dict, where: str, name: str, kind, default=None,
           lo=-math.inf, hi=math.inf):
    """`cfg[name]` as `kind` (a type or a tuple of allowed strings), or None
    after listing one error "where.name: ...".  Nothing is coerced: a number
    is finite, not a bool, in [`lo`, `hi`) and whole in an integer field; a
    string is printable, so no line break or tab."""
    label = f"{where}.{name}" if where else name
    if name not in cfg and default is None:
        errors.append(f"{label}: required field missing")
        return None
    value = cfg.get(name, default)
    if isinstance(kind, tuple):
        problem = value not in kind and "must be one of " + "/".join(kind)
    elif kind is str and isinstance(value, str):  # provenance lines hold it
        problem = not value.isprintable() and "must be printable, on one line"
    elif kind not in (int, float):
        problem = not isinstance(value, kind) and f"must be {_KINDS[kind]}"
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
          or kind is int and isinstance(value, float) and not value.is_integer()):
        problem = f"must be {_KINDS[kind]}"
    elif not abs(value) <= sys.float_info.max:  # NaN, +-inf, ints beyond float
        problem = "must be finite"
    elif not lo <= value < hi:
        problem = f"must lie in [{lo}, {hi})"
    else:
        return kind(value)
    if problem:
        errors.append(f"{label}: {problem}, got {value!r}")
        return None
    return value


def _read(errors: list, cfg: dict, where: str, rows, make=dict, **known):
    """`make(**known, **fields)` over the fields `rows` of `cfg`, or None when
    a field or a known value is faulty; each key of neither `rows` nor
    `_BY_HAND` is listed unknown, and a `ValueError` from `make` under `where`."""
    fields = dict(known, **{row[0]: _field(errors, cfg, where, *row) for row in rows})
    accepted = {row[0] for row in rows}.union(_BY_HAND.get(where, ()))
    errors += [f"{where}.{key}: unknown field" if where else f"{key}: unknown field"
               for key in cfg if key not in accepted]
    if None in fields.values():
        return None
    try:
        return make(**fields)
    except ValueError as e:
        errors.append(f"{where}: {e}")
        return None


def _outline(errors: list, cfg: dict) -> tuple | None:
    """`region.outline_km` as ((x, y), ...), each coordinate read by `_field`."""
    vertices = _field(errors, cfg, "region", "outline_km", list)
    outline = []
    for i, vertex in enumerate(vertices or ()):
        where = f"region.outline_km[{i}]"
        if isinstance(vertex, list) and len(vertex) == 2:
            outline.append(tuple(_field(errors, dict(zip("xy", vertex)), where, c, float)
                                 for c in "xy"))
        else:
            errors.append(f"{where}: must be an [x, y] pair, got {vertex!r}")
            outline.append((None,))
    return None if vertices is None or any(None in xy for xy in outline) else tuple(outline)


def _site_list(errors: list, policy: dict, region: Region | None):
    """Read `policy["list"]` into `policy["sites"]`, listing faults under
    `sites.list`: field errors and repeated ids in list order, then each
    position more than `SITE_MARGIN_KM` outside the region, all positions
    checked in one pass."""
    entries = policy.pop("list")
    if not entries:
        errors.append("sites.list: explicit mode needs at least one site")
    sites, seen = [], set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(f"sites.list: [{i}]: must be a mapping, got {entry!r}")
        elif site := _read(errors, entry, f"sites.list: [{i}]", _SITE_ENTRY,
                           CandidateSite):
            if site.id in seen:
                errors.append(f"sites.list: site id {site.id} repeats")
            seen.add(site.id)
            sites.append(site)
    if region is not None:  # else its error is listed
        xy = [(s.x_km, s.y_km) for s in sites]
        inside = geometry.points_in_polygon(xy, region.outline)
        outside_km = geometry.distance_to_outline(xy, region.outline)
        for site, within, d in zip(sites, inside.tolist(), outside_km.tolist()):
            if not within and d > SITE_MARGIN_KM:
                errors.append(f"sites.list: site {site.id} lies {d:.2f} km outside "
                              f"the region (limit {SITE_MARGIN_KM} km)")
    policy["sites"] = tuple(sites)


def scenario_from_dict(raw: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a parsed scenario file; each faulty field is one error of
    the raised `ScenarioError`, prefixed with its `section.field`."""
    if not isinstance(raw, dict):
        raise ScenarioError(["top level: expected a mapping"])
    errors = []
    top = _read(errors, raw, "", _TOP + (("name", str, name_hint),))
    if top is None:
        raise ScenarioError(errors)

    region = _read(errors, top["region"], "region", _REGION, Region,
                   outline=_outline(errors, top["region"]))
    population = _read(errors, top["population"], "population", _POPULATION, PopulationSpec)
    env = top["environment"]
    environment = _field(errors, env, "environment", "kind", ("suburban", "rural"))
    margins = _read(errors, env, "environment", _MARGINS, EnvironmentMargins)
    variant = _field(errors, top["propagation"], "propagation", "variant", tuple(_MODELS))
    model = variant and _read(errors, top["propagation"], "propagation", _MODELS[variant],
                              PathLossModel, variant=variant)
    mode = _field(errors, top["sites"], "sites", "mode", tuple(_SITE_MODES))
    policy = mode and _read(errors, top["sites"], "sites", _SITE_MODES[mode], mode=mode)
    if policy and mode == "explicit":
        _site_list(errors, policy, region)
    policy = policy and _read(errors, {}, "sites", (), SitePolicy, **policy)
    seeds = _read(errors, top["seeds"], "seeds", (("base_seed", int, 1000, 0),))
    if errors:
        raise ScenarioError(errors)
    return Scenario(name=top["name"], environment=environment, region=region,
                    population=population, margins=margins, model=model,
                    technology=top["technology"], site_policy=policy,
                    base_seed=seeds["base_seed"])


def load_scenario(path) -> Scenario:
    """Scenario from a YAML file.  A file that cannot be read raises
    `OSError`; bad YAML or bytes that are not UTF-8 raise `ScenarioError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as e:  # str(e) names line and column
        raise ScenarioError([f"file: {' '.join(str(e).split())}"]) from None
    return scenario_from_dict(raw, name_hint=str(path))


def bundled_scenario(name: str) -> Scenario:
    try:
        raw = bundled_yaml("scenarios", name)
    except FileNotFoundError:
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: "
                                f"{bundled_names('scenarios')}") from None
    return scenario_from_dict(raw, name_hint=name)
