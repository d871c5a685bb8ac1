"""Property test of every numeric flag, of every subcommand and script.

Each flag is driven, one at a time on tiny data, through non-finite, zero,
negative and subnormal values and through hypothesis' floats and small
integers.  Whatever the value, a run ends in exit 0 or 2: never in a
traceback, and never in exit 1, which reports a property violation, not a
bad input.  Whenever a subcommand exits 0, its report parses as strict JSON.
numpy's warnings are shown to a user and do not change the exit code, so
they are ignored here rather than raised.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntkalign import cli
from test_cli import strict_json
from test_scripts import load_script

# run for every flag, before the values hypothesis draws
SPECIAL = ["nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "5e-324", "-5e-324", "1e-310"]
VALUES = st.one_of(st.floats().map(repr), st.integers(min_value=-3, max_value=3).map(str))

# The argv each case starts from, at sizes that run in milliseconds; the
# data paths are filled in from the module's tiny dataset.
DATA = ["--x", "{x}", "--y", "{y}"]
BASE = {
    "gen-data": ["--n", "3", "--len", "30", "--dt", "1", "--m-train", "4"],
    "ntk": [*DATA, "--kind", "gnn"],
    "ntk-mc": [*DATA, "--kind", "gnn-mc", "--width", "3"],
    "align": DATA,
    "optimize-gso": DATA,
    # alone, --alpha or --eta is refused; with its partner set, the value reaches the solver
    "optimize-gso-budget": [*DATA, "--alpha", "1", "--eta", "0.1"],
    "train": [*DATA, "--epochs", "2"],
    "train-gnn2": [*DATA, "--model", "gnn2", "--width", "3", "--epochs", "2"],
    "compare": ["--series", "{series}", "--m-train", "4", "--width", "3", "--epochs", "2",
                "--reps", "1"],
    "compare-draws": ["--series", "{series}", "{series2}", "--m-train", "4", "--width", "3",
                      "--epochs", "2", "--reps", "1"],
    "verify-bounds": ["--instances", "2", "--optimality-instances", "2"],
    "verify-hermite": [],
    "width_convergence": ["--widths", "2", "--seeds", "1", "--n", "3", "--m", "2",
                          "--steps", "1"],
}
SHARED = ["seed", "threads"]
FLAGS = {
    "gen-data": ["n", "len", "strength", "anisotropy", "noise", "dt", "m-train", "m-test",
                 *SHARED],
    "ntk": ["k", *SHARED],
    "ntk-mc": ["k", "width", *SHARED],
    "align": ["k", *SHARED],
    "optimize-gso": ["k", "mu", "alpha", "eta", *SHARED],
    "optimize-gso-budget": ["alpha", "eta"],
    "train": ["k", "eta", "epochs", "kappa", "batch-size", *SHARED],
    "train-gnn2": ["k", "width", "eta", "epochs", "kappa", "batch-size"],
    "compare": ["dt", "m-train", "m-test", "k", "width", "eta", "epochs", "kappa",
                "batch-size", "reps", *SHARED],
    "compare-draws": ["dt", "m-train", "m-test", "reps", "seed"],
    "verify-bounds": ["instances", "optimality-instances", *SHARED],
    "verify-hermite": SHARED,
    "width_convergence": ["widths", "seeds", "n", "m", "k", "eta", "steps", "seed"],
}
CASES = [(case, flag) for case, flags in FLAGS.items() for flag in flags]
SUBCOMMAND = {"ntk-mc": "ntk", "train-gnn2": "train", "optimize-gso-budget": "optimize-gso",
              "compare-draws": "compare"}  # the other cases name their own


@pytest.fixture(scope="module")
def paths():
    with tempfile.TemporaryDirectory() as tmp:
        data, data2 = Path(tmp) / "data", Path(tmp) / "data2"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen-data", "--n", "4", "--len", "60", "--dt", "1", "--m-train", "6",
                             "--out-dir", str(data)]) == 0
            assert cli.main(["gen-data", "--n", "4", "--len", "60", "--seed", "1",
                             "--out-dir", str(data2)]) == 0
        yield {"x": data / "x_train.csv", "y": data / "y_train.csv",
               "series": data / "series.csv", "series2": data2 / "series.csv",
               "out": Path(tmp) / "out"}


def _run(case: str, argv: list, out: Path) -> int:
    """Exit code of one run; an exception escaping it (a traceback) fails the test."""
    subcommand = SUBCOMMAND.get(case, case)
    if subcommand in cli.COMMANDS:
        return cli.main([subcommand, *argv, "--out-dir", str(out)])
    try:
        return load_script(case).main([*argv, "--out-dir", str(out)])
    except SystemExit as exc:  # a script's argparse refusing a value
        return exc.code


def _special_values(test):
    for value in SPECIAL:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("case, flag", CASES, ids=[f"{c}--{f}" for c, f in CASES])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@_special_values
@given(value=VALUES)
def test_any_flag_value_exits_0_or_2(paths, case, flag, value):
    argv = [a.format(**paths) for a in BASE[case]] + [f"--{flag}={value}"]
    out = paths["out"]
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = _run(case, argv, out)
    assert code in (0, 2), f"{case} --{flag}={value} exited {code}"
    if code == 0 and SUBCOMMAND.get(case, case) in cli.COMMANDS:
        strict_json((out / "report.json").read_text())
