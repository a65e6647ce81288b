"""Scenario generator for the `dense-lattice` workload.

The scenario keeps the bundled suburban outline, margins and propagation,
quadruples the user count (224 -> 896) and replaces site growth with a fixed
64-site jittered lattice.  Each seed then draws its population about once per
iteration, so population reuse is bypassed, and the greedy runs with many
active sites and users.
"""

from __future__ import annotations

import copy

import yaml

USER_FACTOR = 4
LATTICE_SITES = 64


def dense_lattice_scenario(suburban: dict, seed: int) -> dict:
    """Scenario dict derived from the parsed suburban YAML; pure in `seed`."""
    raw = copy.deepcopy(suburban)
    raw["name"] = "dense_lattice"
    raw["population"]["user_count"] = USER_FACTOR * int(raw["population"]["user_count"])
    raw["sites"] = {
        "mode": "lattice",
        "count": LATTICE_SITES,
        "jitter_fraction": raw["sites"]["jitter_fraction"],
        "seed": seed,
        "antenna_height_m": raw["sites"]["antenna_height_m"],
    }
    raw["seeds"] = {"base_seed": seed}
    return raw


def dense_lattice_yaml(suburban_yaml: str, seed: int) -> str:
    """Scenario file text for `seed`, from the suburban scenario file text."""
    return yaml.safe_dump(dense_lattice_scenario(yaml.safe_load(suburban_yaml), seed),
                          sort_keys=True)
