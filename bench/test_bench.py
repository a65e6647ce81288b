"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

Run from the root of a source checkout.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dense_lattice import dense_lattice_yaml  # noqa: E402


@pytest.fixture(scope="module")
def plan_outputs(tmp_path_factory):
    """One plan-suburban iteration at the reference seed, run as the benchmark runs it."""
    tmp = tmp_path_factory.mktemp("plan")
    job = workloads.Job("plan-suburban", ROOT, workloads.REFERENCE_SEED, tmp)
    job.prepare()
    out = tmp / "out"
    job.run_untimed(out)
    return job, out


def test_reference_outputs_pass(plan_outputs):
    job, out = plan_outputs
    assert job.check(out, workloads.load_references()) == []


def test_corrupted_artifact_digest_is_a_failure(plan_outputs, tmp_path):
    job, out = plan_outputs
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    with open(copy / "map.svg", "a") as f:
        f.write("<!-- corrupted -->\n")
    problems = job.check(copy, workloads.load_references())
    assert len(problems) == 1 and problems[0].startswith("map.svg:")


class _StubRunner:
    """Stands in for `run.Runner`: fixed set-up time and iterations."""

    def __init__(self, iterations):
        self.iterations = iterations

    def setup_s(self):
        return 0.5

    def iterate(self, k):
        return self.iterations[k]

    def repeat(self, seconds, step):
        return [step(k) for k in range(len(self.iterations))]


def test_failed_iterations_count_against_ok_fraction():
    class Usage:
        ru_utime, ru_stime, ru_maxrss = 1.0, 0.1, 2048

    its = [run.Iteration(1.0, Usage, 0, [], None),
           run.Iteration(1.2, Usage, 0, ["map.svg: digest differs"], None)]
    _, metrics, bugs = run.end_to_end(_StubRunner(its), seconds=1.0)
    assert metrics["ok_fraction"]["value"] == 0.5
    assert metrics["wall_s"]["value"] == pytest.approx(1.1)
    assert metrics["peak_rss_mb"]["value"] == 2.0
    assert bugs == []


def test_self_times_of_synthetic_span_tree():
    names = ["A", "B", "C", "D"]
    # (name index, start, end, parent span, iteration); B's two spans overlap
    spans = [(0, 0.0, 10.0, -1, 0),
             (1, 1.0, 4.0, 0, 0),
             (1, 3.0, 5.0, 0, 0),
             (2, 5.0, 9.0, 0, 0),
             (3, 6.0, 7.0, 3, 0)]
    own = tracer.self_times(names, spans)
    # A: 10 s minus the union [1, 9] of its children; C: 4 s minus D's 1 s
    assert own == {"A": 2.0, "B": 5.0, "C": 3.0, "D": 1.0}


def test_tracer_records_nesting(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: float(next(clock)))
    t = tracer.Tracer(iteration=3)
    inner = t.wrap("inner", lambda x: x)
    outer = t.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 3
    # outer 0..5 holds inner 1..2 and 3..4
    assert t.spans == [(1, 0.0, 5.0, -1, 3), (0, 1.0, 2.0, 0, 3), (0, 3.0, 4.0, 0, 3)]
    assert tracer.self_times(t.names, t.spans) == {"inner": 2.0, "outer": 3.0}


def test_dense_lattice_scenario_is_pure_in_its_seed():
    from tvwsplan.scenario import scenario_from_dict
    suburban = (ROOT / workloads.SUBURBAN_FILE).read_text()
    a, b, c = (dense_lattice_yaml(suburban, s) for s in (7, 7, 8))
    assert a == b
    assert a != c
    scenario = scenario_from_dict(yaml.safe_load(a))
    assert scenario.population.user_count == 896
    assert (scenario.site_policy.mode, scenario.site_policy.count) == ("lattice", 64)
    assert scenario.base_seed == scenario.site_policy.seed == 7
