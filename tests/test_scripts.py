"""Smoke runs of the standalone drivers under scripts/ at tiny sizes.

Each script's ``main(argv)`` runs in-process, so a library signature change
that breaks a script fails here.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from ntkalign.dataio import load_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_constants", ["--instances", "5", "--optimality-instances", "10"]),
        (
            "compare_shift_operators",
            ["--seeds", "1", "--n", "4", "--len", "60", "--m-train", "8", "--m-test", "4",
             "--width", "4", "--epochs", "2"],
        ),
        (
            "width_convergence",
            ["--widths", "4", "8", "--seeds", "1", "--steps", "2", "--n", "3", "--m", "2"],
        ),
    ],
)
def test_script_exits_cleanly(name, argv, tmp_path):
    out = [] if name == "verify_constants" else ["--out-dir", str(tmp_path)]
    assert load_script(name).main(argv + out) == 0
    if name == "width_convergence":
        for table in ("mc_error.csv", "drift.csv"):
            values = load_csv(tmp_path / table)
            assert values.shape == (2, 3)  # one row per width
            assert np.all(np.isfinite(values))


# (script, flag, bad value, the reason argparse gives): every integer flag
# parses through cli._count or cli._size, and --eta through cli._positive
BAD_FLAGS = [
    ("verify_constants", "--seed", "-1", "expected an integer >= 0, got '-1'"),
    *(("compare_shift_operators", flag, "0", "expected an integer >= 1, got '0'")
      for flag in ("--seeds", "--n", "--len", "--m-train", "--k", "--width", "--epochs")),
    *(("compare_shift_operators", flag, "-1", "expected an integer >= 0, got '-1'")
      for flag in ("--dt", "--m-test")),
    *(("width_convergence", flag, "0", "expected an integer >= 1, got '0'")
      for flag in ("--widths", "--seeds", "--n", "--m", "--k", "--steps")),
    ("width_convergence", "--seed", "-1", "expected an integer >= 0, got '-1'"),
    ("width_convergence", "--eta", "nan", "value must be positive and finite, got nan"),
    ("width_convergence", "--eta", "0", "value must be positive and finite, got 0.0"),
]


@pytest.mark.parametrize("name, flag, value, reason", BAD_FLAGS,
                         ids=[f"{n}{f}={v}" for n, f, v, _ in BAD_FLAGS])
def test_script_rejects_a_bad_flag_value(capsys, tmp_path, name, flag, value, reason):
    with pytest.raises(SystemExit) as exc:
        out = [] if name == "verify_constants" else ["--out-dir", str(tmp_path / "out")]
        load_script(name).main([flag, value, *out])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: {reason}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--instances", "--optimality-instances"])
def test_verify_constants_rejects_a_negative_count(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        load_script("verify_constants").main([flag, "-5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument {flag}: expected an integer >= 0, got '-5'")


def test_verify_constants_prints_the_bessel_excess(capsys):
    assert load_script("verify_constants").main(
        ["--instances", "1", "--optimality-instances", "1"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^512-point Bessel excess \d\.\d{3}e-\d\d  \(bound 1\.0e-12\)$", out, re.M)
