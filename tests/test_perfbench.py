"""The benchmark's span tracer still finds every binding it wraps.

``perfbench/tracer.py`` lists, per span, the modules that must bind the
traced function; a src change that drops one of those bindings fails here
with ``MissingBindingError`` instead of only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import ntkalign.cli  # noqa: F401  (imports every module the tracer wraps)
from ntkalign import ntk

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_on_every_listed_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = ntk.z_vectors
    with tracer.Tracer(min_eig_side=1).installed():
        assert ntk.z_vectors is not original
    assert ntk.z_vectors is original
