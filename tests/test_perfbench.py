"""The benchmark's own checks, run in the tier-1 suite.

``perfbench/tracer.py`` lists, per span, the modules that must bind the
traced function; a src change that drops one of those bindings fails here
with ``MissingBindingError`` instead of only in a traced benchmark run.
Each workload also runs once through ``perfbench/worker.py``'s
``Operation``, so an output that the benchmark would count as incorrect
fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ntkalign.cli
from ntkalign import ntk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_script(name: str):
    """Import a perfbench script by path; the path it adds is taken out again."""
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_tracer_installs_on_every_listed_binding():
    tracer = load_script("tracer")
    original = ntk.z_vectors
    with tracer.Tracer(min_eig_side=1).installed():
        assert ntk.z_vectors is not original
    assert ntk.z_vectors is original


@pytest.fixture(scope="module")
def worker():
    return load_script("worker")


@pytest.mark.parametrize("name", ["compare-gnn2", "kernel-gnn", "filter-large"])
def test_workload_passes_its_checks_and_fails_when_perturbed(worker, tmp_path, name):
    workloads = worker.workloads
    seed = 0
    op = worker.Operation(ntkalign.cli, workloads.WORKLOADS[name], seed, tmp_path, False)
    assert op.reference is not None  # input seed 0 is recorded in references.json
    op.setup_data()
    op()
    assert (op.attempted, op.failed, op.errors) == (1, 0, [])
    perturbed = workloads.perturb(name, op.outputs)
    assert workloads.check(name, perturbed, op.out, op.data, seed, op.reference)
