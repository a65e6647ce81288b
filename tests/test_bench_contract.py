"""The library surface the benchmark harness under `bench/` relies on.

`bench/test_bench.py` runs only the plan-suburban workload.  These tests run
the other two workloads at the reference seed, as the benchmark runs them,
run one traced iteration of plan-suburban and battery as `--trace 1` does,
and resolve every name the tracer wraps, so a change that drops or re-signs
one of them fails here and not only in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["battery", "dense-lattice"])
def test_workload_passes_its_checks_at_the_reference_seed(workload, tmp_path):
    job = workloads.Job(workload, ROOT, workloads.REFERENCE_SEED, tmp_path)
    job.prepare()
    out = tmp_path / "out"
    job.run_untimed(out)
    assert job.check(out, workloads.load_references()) == []


@pytest.mark.parametrize("workload", ["plan-suburban", "battery"])
def test_traced_iteration_passes_its_checks(workload, tmp_path):
    # bench/tracer.py runs the iteration, then bench/check.py --spans checks it
    job = workloads.Job(workload, ROOT, workloads.REFERENCE_SEED, tmp_path)
    job.prepare()
    runner = run.Runner(ROOT, job, tmp_path, tmp_path / "spans.npz")
    traced = runner.iterate(1, traced=True)
    assert traced.problems == []
    assert traced.layers["scenario.generate_population.calls"] > 0
    if workload == "battery":  # every run of the 8 SISO cells, 4 runs each
        assert traced.layers["planner.check_deployment.calls"] == 32


@pytest.mark.parametrize("module, attr", [
    *tracer.TRACED.values(), ("tvwsplan.propagation", "ModelValidityWarning")])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
