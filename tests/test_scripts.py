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
