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
the demand draw), so its output is byte-identical to that loop's.
"""

from __future__ import annotations

import functools
import hashlib
import io
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import geometry
from .link_budget import EnvironmentMargins, bundled_yaml
from .propagation import PathLossModel, okumura_hata_rural, one_slope

__all__ = [
    "Region",
    "CandidateSite",
    "PopulationSpec",
    "UserPopulation",
    "SitePolicy",
    "Scenario",
    "ScenarioError",
    "generate_population",
    "total_demand",
    "population_to_csv",
    "load_scenario",
    "bundled_scenario",
    "available_scenarios",
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
        if abs(actual - self.area_km2) > AREA_TOLERANCE * self.area_km2:
            raise ValueError(
                f"declared area {self.area_km2} km^2 differs from polygon area "
                f"{actual:.4f} km^2 by more than {AREA_TOLERANCE:.1%}")
        if not geometry.polygon_is_simple(self.outline):
            raise ValueError("region outline is self-intersecting")

    def contains(self, x: float, y: float) -> bool:
        return geometry.point_in_polygon(x, y, self.outline)

    def bbox(self):
        return geometry.polygon_bbox(self.outline)


@dataclass(frozen=True)
class CandidateSite:
    id: int
    x_km: float
    y_km: float
    antenna_height_m: float

    def validate_against(self, region: Region):
        if not self.antenna_height_m > 0:  # NaN is not positive either
            raise ValueError(f"site {self.id}: antenna height must be positive")
        if region.contains(self.x_km, self.y_km):
            return
        verts = np.asarray(region.outline, float)
        d = _distance_to_outline(self.x_km, self.y_km, verts)
        if d > SITE_MARGIN_KM:
            raise ValueError(
                f"site {self.id} lies {d:.2f} km outside the region "
                f"(limit {SITE_MARGIN_KM} km)")


def _distance_to_outline(x, y, verts) -> float:
    best = np.inf
    n = len(verts)
    p = np.array([x, y])
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        ab = b - a
        t = np.clip(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-12), 0.0, 1.0)
        best = min(best, float(np.hypot(*(a + t * ab - p))))
    return best


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
        if self.data_bitrate_mbps <= 0 or self.voice_bitrate_mbps <= 0:
            raise ValueError("bitrates must be positive")

    @property
    def expected_demand_mbps(self) -> float:
        return self.user_count * (self.data_fraction * self.data_bitrate_mbps
                                  + (1.0 - self.data_fraction) * self.voice_bitrate_mbps)


@dataclass(frozen=True)
class UserPopulation:
    """Realised users: parallel arrays of id, position and demand."""

    ids: np.ndarray      # (N,) int64
    xy_km: np.ndarray    # (N, 2) float64
    demand_mbps: np.ndarray  # (N,) float64
    seed: int

    def __len__(self):
        return len(self.ids)


@functools.lru_cache(maxsize=POPULATION_CACHE_SIZE)
def generate_population(region: Region, spec: PopulationSpec, seed: int) -> UserPopulation:
    """Draw `spec.user_count` users uniformly over the region.

    Positions come from rejection sampling against the bounding box; each
    user's demand is the data bitrate when a uniform variate falls below
    `data_fraction`, else the voice bitrate.  Per user the draw order is
    position first, demand second, so output is a pure function of
    (region, spec, seed).  Results are memoised and read-only.
    """
    if geometry.polygon_area(region.outline) <= 0:
        raise ValueError("cannot sample users: region polygon has zero area")
    rng = np.random.Generator(np.random.PCG64(seed))
    xmin, ymin, xmax, ymax = region.bbox()
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
        # accepted one takes the next variate as its demand draw and advances 3
        i = 0
        while k < n and i + 2 < len(buf):
            if inside[i]:
                xy[k], u_demand[k] = cand[i], buf[i + 2]
                k, i, tried = k + 1, i + 3, 0
                continue
            i, tried = i + 2, tried + 1
            if tried == MAX_REJECTION_ATTEMPTS:
                raise RuntimeError(
                    f"rejection sampling failed after {MAX_REJECTION_ATTEMPTS} "
                    f"attempts inside region of area {region.area_km2} km^2")
    demand = np.where(u_demand < spec.data_fraction,
                      spec.data_bitrate_mbps, spec.voice_bitrate_mbps)
    arrays = (np.arange(n, dtype=np.int64), xy, demand)
    for a in arrays:
        a.flags.writeable = False
    return UserPopulation(*arrays, seed=seed)


@functools.lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice_xy(outline: tuple, count: int, jitter_fraction: float,
                seed: int) -> np.ndarray:
    """`geometry.hex_lattice_sites`, memoised per (outline, count,
    jitter_fraction, seed); the returned (count, 2) array is read-only."""
    pts = geometry.hex_lattice_sites(outline, count, jitter_fraction, seed)
    pts.flags.writeable = False
    return pts


def total_demand(pop: UserPopulation) -> float:
    """Sum of all user demands in Mbps."""
    return float(pop.demand_mbps.sum()) if len(pop) else 0.0


def population_to_csv(pop: UserPopulation) -> str:
    """Canonical CSV export (LF line endings, '.' decimal separator)."""
    buf = io.StringIO()
    buf.write("user_id,x_km,y_km,demand_mbps\n")
    for i, (x, y), d in zip(pop.ids, pop.xy_km, pop.demand_mbps):
        buf.write(f"{int(i)},{x:.9f},{y:.9f},{d:.6f}\n")
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
    schema_version: int = 1

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
        return [CandidateSite(id=i, x_km=float(x), y_km=float(y),
                              antenna_height_m=self.site_policy.antenna_height_m)
                for i, (x, y) in enumerate(pts)]

    def digest(self) -> str:
        """Stable content hash used in report provenance."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        # computed once per scenario: one yaml dump costs milliseconds
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


def _build_model(cfg: dict, errors: list) -> PathLossModel | None:
    variant = cfg.get("variant")
    try:
        if variant == "one_slope":
            return one_slope(pl0_db=float(cfg["pl0_db"]),
                             d0_km=float(cfg.get("d0_km", 1.0)),
                             exponent=float(cfg["exponent"]),
                             calibration_id=str(cfg.get("calibration_id", "")))
        if variant == "okumura_hata_rural":
            return okumura_hata_rural(freq_mhz=float(cfg["freq_mhz"]),
                                      bs_height_m=float(cfg["bs_height_m"]),
                                      rx_height_m=float(cfg["rx_height_m"]),
                                      offset_db=float(cfg.get("offset_db", 0.0)),
                                      calibration_id=str(cfg.get("calibration_id", "")))
        errors.append(f"propagation.variant: unknown value {variant!r}")
    except KeyError as e:
        errors.append(f"propagation.{e.args[0]}: required field missing")
    except (TypeError, ValueError) as e:
        errors.append(f"propagation: {e}")
    return None


def _parse_sites(cfg: dict, region: Region | None, errors: list) -> SitePolicy | None:
    mode = cfg.get("mode")
    if mode not in ("explicit", "lattice", "auto_grow"):
        errors.append(f"sites.mode: must be explicit/lattice/auto_grow, got {mode!r}")
        return None
    kw = dict(mode=mode,
              jitter_fraction=float(cfg.get("jitter_fraction", 0.3)),
              seed=int(cfg.get("seed", 1)),
              antenna_height_m=float(cfg.get("antenna_height_m", 30.0)))
    if not kw["jitter_fraction"] >= 0.0:
        errors.append(f"sites.jitter_fraction: must be >= 0, got {kw['jitter_fraction']}")
    if kw["seed"] < 0:
        errors.append(f"sites.seed: must be >= 0, got {kw['seed']}")
    if mode == "explicit":
        raw = cfg.get("list") or []
        if not raw:
            errors.append("sites.list: explicit mode needs at least one site")
            return None
        try:
            kw["sites"] = tuple(
                CandidateSite(id=int(s["id"]), x_km=float(s["x_km"]),
                              y_km=float(s["y_km"]),
                              antenna_height_m=float(
                                  s.get("antenna_height_m", kw["antenna_height_m"])))
                for s in raw)
        except (KeyError, TypeError, ValueError) as e:
            errors.append(f"sites.list: malformed entry ({e})")
            return None
        seen = set()
        for s in kw["sites"]:
            if s.id in seen:
                errors.append(f"sites.list: site id {s.id} repeats")
            seen.add(s.id)
            if region is None:  # its own error is already listed
                continue
            try:
                s.validate_against(region)
            except ValueError as e:
                errors.append(f"sites.list: {e}")
    elif mode == "lattice":
        try:
            kw["count"] = int(cfg["count"])
        except (KeyError, TypeError, ValueError):
            errors.append("sites.count: lattice mode needs an integer count")
            return None
        if kw["count"] < 1:
            errors.append(f"sites.count: must be >= 1, got {kw['count']}")
    else:
        kw["target_coverage"] = float(cfg.get("target_coverage", 0.95))
        kw["pilot_runs"] = int(cfg.get("pilot_runs", 10))
        kw["max_sites"] = int(cfg.get("max_sites", 200))
        if not 0.0 <= kw["target_coverage"] < 1.0:
            errors.append("sites.target_coverage: must lie in [0, 1), got "
                          f"{kw['target_coverage']}")
        for field in ("pilot_runs", "max_sites"):
            if kw[field] < 1:
                errors.append(f"sites.{field}: must be >= 1, got {kw[field]}")
    return SitePolicy(**kw)


def scenario_from_dict(raw: dict, name_hint: str = "scenario") -> Scenario:
    errors = []
    if not isinstance(raw, dict):
        raise ScenarioError(["top level: expected a mapping"])

    for key in ("region", "population", "environment", "propagation", "sites"):
        if key not in raw:
            errors.append(f"{key}: required section missing")
    if errors:
        raise ScenarioError(errors)

    region = None
    rcfg = raw["region"]
    try:
        region = Region(outline=tuple((float(x), float(y)) for x, y in rcfg["outline_km"]),
                        area_km2=float(rcfg["area_km2"]),
                        resolution_m=float(rcfg.get("resolution_m", 250.0)))
    except KeyError as e:
        errors.append(f"region.{e.args[0]}: required field missing")
    except (TypeError, ValueError) as e:
        errors.append(f"region: {e}")

    population = None
    pcfg = raw["population"]
    try:
        population = PopulationSpec(
            user_count=int(pcfg["user_count"]),
            data_fraction=float(pcfg["data_fraction"]),
            data_bitrate_mbps=float(pcfg.get("data_bitrate_mbps", 1.0)),
            voice_bitrate_mbps=float(pcfg.get("voice_bitrate_mbps", 0.064)))
    except KeyError as e:
        errors.append(f"population.{e.args[0]}: required field missing")
    except (TypeError, ValueError) as e:
        errors.append(f"population: {e}")

    margins = None
    ecfg = raw["environment"]
    environment = str(ecfg.get("kind", ""))
    if environment not in ("suburban", "rural"):
        errors.append(f"environment.kind: must be suburban or rural, got {environment!r}")
    try:
        margins = EnvironmentMargins(shadow_margin_db=float(ecfg["shadow_margin_db"]),
                                     fade_margin_db=float(ecfg["fade_margin_db"]))
    except KeyError as e:
        errors.append(f"environment.{e.args[0]}: required field missing")
    except (TypeError, ValueError) as e:
        errors.append(f"environment: {e}")

    model = _build_model(raw["propagation"], errors)
    site_policy = _parse_sites(raw["sites"], region, errors)
    technology = str(raw.get("technology", "802.22b"))
    seeds = raw.get("seeds") or {}
    base_seed = int(seeds.get("base_seed", 1000))
    if base_seed < 0:
        errors.append(f"seeds.base_seed: must be >= 0, got {base_seed}")

    if errors:
        raise ScenarioError(errors)
    return Scenario(name=str(raw.get("name", name_hint)), environment=environment,
                    region=region, population=population, margins=margins,
                    model=model, technology=technology, site_policy=site_policy,
                    base_seed=base_seed,
                    schema_version=int(raw.get("schema_version", 1)))


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"scenario file not found: {path}") from None
    return scenario_from_dict(raw, name_hint=str(path))


def available_scenarios() -> list:
    import importlib.resources
    d = importlib.resources.files("tvwsplan") / "data" / "scenarios"
    return sorted(p.name[:-5] for p in d.iterdir() if p.name.endswith(".yaml"))


def bundled_scenario(name: str) -> Scenario:
    try:
        raw = bundled_yaml("scenarios", name)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no bundled scenario {name!r}; available: {available_scenarios()}") from None
    return scenario_from_dict(raw, name_hint=name)
