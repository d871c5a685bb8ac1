"""Every function in ``src/ntkalign`` is reached from an entry point, or says why not.

One run of each subcommand (and of ``scripts/width_convergence.py``) on
tiny generated data, under a profile hook on every thread, records the
functions it calls.  A function defined in the package that none of them
calls must be on ALLOWLIST with its reason: code kept only for a test, an
acceptance criterion or the benchmark's tracer is named there, and code
that nothing needs any more fails here.
"""

import importlib.util
import inspect
import sys
import threading
from pathlib import Path

import numpy as np

import ntkalign
from ntkalign import cli
from ntkalign.alignment import SWEEP_CHECKS

PACKAGE = Path(ntkalign.__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

_TRACER = "bound by perfbench's tracer, which times the span; no entry point calls it"
_CRITERION_8 = "acceptance criterion 8's training sandwich; no subcommand runs it"
_TESTS_ONLY = "read only by tests"
ALLOWLIST = {
    "models.filter_forward": _TRACER,
    "models.gnn2_forward": _TRACER,
    "ntk.expectation_E_quadrature": _TRACER + "; the series' quadrature reference",
    "ntk.expectation_E_first_layer": _TRACER + "; the first layer's quadrature reference",
    "ntk._pair_quadrature": "the quadrature references' pair rule",
    "ntk._zero_out": "the quadrature references' zero-row mask",
    "training.check_training_sandwich": _CRITERION_8,
    "training.BoundCheck.passed": _CRITERION_8,
    "training.kappa_for_budget": _CRITERION_8,
    "training.slack_from_kappa": _CRITERION_8,
    "training.linearized_dynamics": "ROADMAP item 6's linearized-dynamics arm, not yet wired in",
    "alignment.SweepResult.passed": _TESTS_ONLY,
}


def _defined_functions() -> dict:
    """(file, first line, name) of every ``def`` in the package -> its dotted name."""
    found = {}

    def walk(code, module):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            # a class body runs at import; lambdas and comprehensions are not defs
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = (
                    f"{module}.{getattr(const, 'co_qualname', const.co_name)}")
            walk(const, module)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


def _clear_caches():
    """Empty the package's function caches, so each cached body runs again.

    A cache hit runs no Python frame, nor do the calls the body would make.
    """
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ntkalign."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _write_cxy(data, path):
    """The data's C_XY = (X Y' + Y X') / 2 as a shift-operator CSV, by numpy alone."""
    x, y = (np.loadtxt(data / f"{name}_train.csv", delimiter=",") for name in "xy")
    np.savetxt(path, (x @ y.T + y @ x.T) / 2, delimiter=",")


def _entry_point_runs(tmp_path):
    """Each subcommand and script once, on data gen-data writes first."""
    data = tmp_path / "data"
    xy = ["--x", data / "x_train.csv", "--y", data / "y_train.csv"]
    test = ["--x-test", data / "x_test.csv", "--y-test", data / "y_test.csv"]
    config = tmp_path / "align.cfg"
    config.write_text(f"x = {data / 'x_train.csv'}\ny = {data / 'y_train.csv'}\nk = 2\n")
    c_path = tmp_path / "c.csv"
    c_path.write_text("2.0,0.3\n0.3,1.5\n")
    cxy_path = tmp_path / "cxy.csv"  # written once gen-data has run
    fast = ["--epochs", "3", "--width", "4"]
    commands = [
        ["gen-data", "--n", "5", "--len", "120", "--dt", "1", "--m-train", "6",
         "--strength", "0.8", "--anisotropy", "0.7", "--seed", "1", "--out-dir", data],
        *(["ntk", *xy, "--kind", kind, "--width", "4"] for kind in ("filter", "gnn", "gnn-mc")),
        ["align", *xy, "--k", "2"],
        ["align", *xy, "--k", "3", "--gso", "cxx"],
        ["align", "--config", config],
        ["ntk", *xy, "--kind", "gnn", "--gso-file", cxy_path],
        ["align", *xy, "--gso-file", cxy_path],
        ["optimize-gso", *xy],
        ["optimize-gso", *xy, "--k", "4", "--mu", "0.5", "--normalize"],
        ["optimize-gso", *xy, "--alpha", "1", "--eta", "0.1"],
        ["optimize-gso", "--c", c_path, "--mu", "0.5"],
        *(["train", *xy, *test, "--model", model, *fast, *extra]
          for model in ("filter", "gnn2")
          for extra in ([], ["--optimizer", "gd", "--batch-size", "4"])),
        *(["compare", *xy, *test, "--model", model, "--reps", "1", "--raw-cxy", *fast]
          for model in ("filter", "gnn2")),
        *(["compare", "--series", data / "series.csv", "--m-train", "4", "--model", model,
           "--reps", "1", "--optimizer", "gd", "--batch-size", "2", *fast]
          for model in ("filter", "gnn2")),
        ["verify-bounds", "--instances", "1", "--optimality-instances", "1",
         "--checks", ",".join(SWEEP_CHECKS)],
        ["verify-hermite"],
    ]
    # input the run refuses, with exit status 2: a solver target with no real
    # power-sum root at K = 3, and a first loss that overflows
    refused = [
        ["optimize-gso", *xy, "--k", "3"],
        ["train", *xy, "--model", "gnn2", "--kappa", "1e300", *fast],
    ]
    for i, argv in enumerate(commands + refused):
        out = [] if argv[0] == "gen-data" else ["--out-dir", tmp_path / f"run{i}"]
        yield (argv[0], 0 if argv in commands else 2,
               lambda argv=argv, out=out: cli.main([str(a) for a in argv + out]))
        if argv[0] == "gen-data":
            _write_cxy(data, cxy_path)
    spec = importlib.util.spec_from_file_location("width_convergence",
                                                  SCRIPTS / "width_convergence.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--widths", "4", "--seeds", "1", "--steps", "2", "--n", "3", "--m", "2",
            "--out-dir", str(tmp_path / "width")]
    yield "width_convergence.py", 0, lambda: script.main(argv)


def test_every_function_is_reached_or_allowlisted(tmp_path, capsys):
    defined = _defined_functions()
    _clear_caches()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [(name, expected, run()) for name, expected, run in _entry_point_runs(tmp_path)]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    err = capsys.readouterr().err
    assert all(code == expected for _, expected, code in codes), (codes, err)
    unreached = {defined[key] for key in defined.keys() - called}
    missing = sorted(unreached - ALLOWLIST.keys())
    assert missing == [], f"defined but reached by no entry point: {missing}"
    assert sorted(ALLOWLIST.keys() - unreached) == [], "allowlisted but reached"
